//! Recursive-descent SQL parser with precedence climbing for expressions.
//!
//! The accepted grammar (statements, set-operation associativity,
//! subquery positions, INTERVAL literals) is catalogued in
//! ARCHITECTURE.md ("SQL surface"); constructs the parser accepts but
//! the engine cannot run are rejected later with a typed
//! `E_UNSUPPORTED` naming the construct.

use crate::ast::*;
use crate::lexer::{lex, Tok};
use vw_common::{Result, TypeId, Value, VwError};

/// The parser over a token stream.
pub struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

fn perr(msg: impl Into<String>) -> VwError {
    VwError::Parse(msg.into())
}

impl Parser {
    /// Lex and wrap `sql`.
    pub fn new(sql: &str) -> Result<Parser> {
        Ok(Parser { toks: lex(sql)?, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Is the current token the keyword `kw` (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(perr(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn at_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Tok::Sym(x) if *x == s)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.at_sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(perr(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(perr(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Parse all statements until EOF.
    pub fn parse_statements(&mut self) -> Result<Vec<Statement>> {
        let mut out = Vec::new();
        loop {
            while self.eat_sym(";") {}
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            out.push(self.statement()?);
        }
        Ok(out)
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("SELECT") || self.at_kw("WITH") || self.at_select_paren() {
            return Ok(Statement::Select(Box::new(self.select()?)));
        }
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                return Ok(Statement::ExplainAnalyze(Box::new(self.statement()?)));
            }
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            let columns = if self.eat_sym("(") {
                let mut cols = vec![self.ident()?];
                while self.eat_sym(",") {
                    cols.push(self.ident()?);
                }
                self.expect_sym(")")?;
                Some(cols)
            } else {
                None
            };
            let source = if self.eat_kw("VALUES") {
                let mut rows = Vec::new();
                loop {
                    self.expect_sym("(")?;
                    let mut row = vec![self.expr()?];
                    while self.eat_sym(",") {
                        row.push(self.expr()?);
                    }
                    self.expect_sym(")")?;
                    rows.push(row);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                InsertSource::Values(rows)
            } else if self.at_kw("SELECT") {
                InsertSource::Query(Box::new(self.select()?))
            } else {
                return Err(perr("expected VALUES or SELECT after INSERT INTO"));
            };
            return Ok(Statement::Insert { table, columns, source });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_sym("=")?;
                sets.push((col, self.expr()?));
                if !self.eat_sym(",") {
                    break;
                }
            }
            let filter = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Update { table, sets, filter });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("CREATE") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty_name = self.ident()?;
                let ty = TypeId::from_sql_name(&ty_name)
                    .ok_or_else(|| perr(format!("unknown type {ty_name}")))?;
                // Optional length like VARCHAR(20): parsed and ignored.
                if self.eat_sym("(") {
                    self.bump();
                    while self.eat_sym(",") {
                        self.bump();
                    }
                    self.expect_sym(")")?;
                }
                let mut nullable = true;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    nullable = false;
                } else {
                    self.eat_kw("NULL");
                }
                columns.push((col, ty, nullable));
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let mut table_type = TableType::Vectorwise;
            if self.eat_kw("WITH") {
                self.expect_kw("TYPE")?;
                self.expect_sym("=")?;
                let t = self.ident()?;
                table_type = match t.to_ascii_uppercase().as_str() {
                    "VECTORWISE" => TableType::Vectorwise,
                    "HEAP" => TableType::Heap,
                    other => return Err(perr(format!("unknown table type {other}"))),
                };
            }
            return Ok(Statement::CreateTable { name, columns, table_type });
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            return Ok(Statement::DropTable { name: self.ident()?, if_exists });
        }
        if self.eat_kw("BEGIN") {
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") || self.eat_kw("ABORT") {
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("CHECKPOINT") {
            let table = match self.peek() {
                Tok::Ident(_) => Some(self.ident()?),
                _ => None,
            };
            return Ok(Statement::Checkpoint { table });
        }
        if self.eat_kw("KILL") {
            match self.bump() {
                Tok::Int(id) if id >= 0 => return Ok(Statement::Kill { query_id: id as u64 }),
                other => return Err(perr(format!("expected query id, found {other:?}"))),
            }
        }
        if self.eat_kw("SHOW") {
            let what = self.ident()?;
            return match what.to_ascii_uppercase().as_str() {
                "SESSIONS" => Ok(Statement::Show { what: ShowKind::Sessions }),
                "QUERIES" => Ok(Statement::Show { what: ShowKind::Queries }),
                other => Err(perr(format!("unknown SHOW view '{other}'"))),
            };
        }
        if self.eat_kw("SET") {
            let name = self.ident()?;
            self.expect_sym("=")?;
            let value = match self.bump() {
                // Signed, so a negative value reaches the knob's own range check.
                Tok::Sym("-") => match self.bump() {
                    Tok::Int(v) => Value::I64(-v),
                    other => return Err(perr(format!("bad SET value -{other:?}"))),
                },
                Tok::Int(v) => Value::I64(v),
                Tok::Float(v) => Value::F64(v),
                Tok::Str(s) => Value::Str(s),
                Tok::Ident(s) if s.eq_ignore_ascii_case("true") => Value::Bool(true),
                Tok::Ident(s) if s.eq_ignore_ascii_case("false") => Value::Bool(false),
                Tok::Ident(s) => Value::Str(s),
                other => return Err(perr(format!("bad SET value {other:?}"))),
            };
            return Ok(Statement::Set { name, value });
        }
        Err(perr(format!("unexpected token {:?}", self.peek())))
    }

    /// Is the cursor at `( SELECT` / `( WITH` (a parenthesized query)?
    fn at_select_paren(&self) -> bool {
        self.at_sym("(")
            && matches!(self.toks.get(self.pos + 1),
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("SELECT")
                    || s.eq_ignore_ascii_case("WITH"))
    }

    /// Full query: `[WITH ...] body {UNION|INTERSECT|EXCEPT body}...
    /// [ORDER BY ...] [LIMIT ...]`. The chain is left-associative with
    /// INTERSECT binding tighter (nested into the operand's own chain);
    /// trailing ORDER BY / LIMIT / OFFSET apply to the chain result.
    fn select(&mut self) -> Result<SelectStmt> {
        let mut with = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.ident()?;
                self.expect_kw("AS")?;
                self.expect_sym("(")?;
                let q = self.select()?;
                self.expect_sym(")")?;
                with.push((name, q));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut head = self.set_operand()?;
        loop {
            if (self.at_kw("UNION") || self.at_kw("INTERSECT") || self.at_kw("EXCEPT"))
                && (head.limit.is_some() || !head.order_by.is_empty())
            {
                // Only a parenthesized head can carry ORDER BY / LIMIT at
                // this point, and the standard scopes those to the chain.
                return Err(VwError::Unsupported(
                    "ORDER BY / LIMIT inside a set-operation operand (wrap it in a derived table)"
                        .into(),
                ));
            }
            let op = if self.eat_kw("UNION") {
                if self.eat_kw("ALL") {
                    SetOpKind::UnionAll
                } else {
                    SetOpKind::Union
                }
            } else if self.eat_kw("INTERSECT") {
                self.reject_set_all("INTERSECT")?;
                // INTERSECT binds tighter than UNION/EXCEPT but is itself
                // left-associative (and associative), so appending to the
                // running chain keeps the grouping correct.
                let rhs = self.chain_operand("INTERSECT")?;
                head.set_ops.push((SetOpKind::Intersect, rhs));
                continue;
            } else if self.eat_kw("EXCEPT") {
                self.reject_set_all("EXCEPT")?;
                SetOpKind::Except
            } else {
                break;
            };
            // A UNION/EXCEPT operand absorbs its own INTERSECT chain
            // first — `A UNION B INTERSECT C` is `A UNION (B ∩ C)`.
            let mut rhs = self.chain_operand("set operation")?;
            while self.eat_kw("INTERSECT") {
                self.reject_set_all("INTERSECT")?;
                let r2 = self.chain_operand("INTERSECT")?;
                rhs.set_ops.push((SetOpKind::Intersect, r2));
            }
            head.set_ops.push((op, rhs));
        }
        self.order_limit(&mut head)?;
        // Outer CTEs go first: a parenthesized head keeps its own WITH
        // list, and inner names shadow outer ones in the binder's stack.
        head.with.splice(0..0, with);
        Ok(head)
    }

    /// Error out on `INTERSECT ALL` / `EXCEPT ALL` (bag semantics are not
    /// implemented).
    fn reject_set_all(&mut self, op: &str) -> Result<()> {
        if self.at_kw("ALL") {
            Err(VwError::Unsupported(format!("{op} ALL")))
        } else {
            Ok(())
        }
    }

    /// A set-operation operand, rejecting operand-level ORDER BY / LIMIT
    /// (only the chain result may be ordered or limited).
    fn chain_operand(&mut self, op: &str) -> Result<SelectStmt> {
        let rhs = self.set_operand()?;
        if rhs.limit.is_some() || !rhs.order_by.is_empty() {
            return Err(VwError::Unsupported(format!(
                "ORDER BY / LIMIT inside a {op} operand (wrap it in a derived table)"
            )));
        }
        Ok(rhs)
    }

    /// One set-operation operand: a parenthesized query or a bare SELECT
    /// body (no ORDER BY / LIMIT — those belong to the chain).
    fn set_operand(&mut self) -> Result<SelectStmt> {
        if self.at_select_paren() {
            self.bump(); // (
            let q = self.select()?;
            self.expect_sym(")")?;
            return Ok(q);
        }
        self.select_core()
    }

    /// SELECT body: items, FROM, WHERE, GROUP BY, HAVING.
    fn select_core(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS")
                    || matches!(self.peek(), Tok::Ident(s) if !is_clause_kw(s))
                {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        let from = if self.eat_kw("FROM") { Some(self.table_ref()?) } else { None };
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_sym(",") {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            ..SelectStmt::default()
        })
    }

    /// Trailing ORDER BY / LIMIT / OFFSET, attached to `head` (which is
    /// the whole chain when set operations are present).
    fn order_limit(&mut self, head: &mut SelectStmt) -> Result<()> {
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                let mut nulls_first = !asc; // SQL default: NULLS LAST for ASC
                if self.eat_kw("NULLS") {
                    if self.eat_kw("FIRST") {
                        nulls_first = true;
                    } else {
                        self.expect_kw("LAST")?;
                        nulls_first = false;
                    }
                }
                head.order_by.push((e, asc, nulls_first));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(v) if v >= 0 => head.limit = Some(v as u64),
                other => return Err(perr(format!("bad LIMIT {other:?}"))),
            }
        }
        if self.eat_kw("OFFSET") {
            match self.bump() {
                Tok::Int(v) if v >= 0 => head.offset = Some(v as u64),
                other => return Err(perr(format!("bad OFFSET {other:?}"))),
            }
        }
        Ok(())
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut parts = vec![self.join_ref()?];
        while self.eat_sym(",") {
            parts.push(self.join_ref()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().unwrap())
        } else {
            Ok(TableRef::Cross(parts))
        }
    }

    fn join_ref(&mut self) -> Result<TableRef> {
        let mut left = self.base_table()?;
        loop {
            let kind = if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                AstJoinKind::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                AstJoinKind::Left
            } else if self.eat_kw("JOIN") {
                AstJoinKind::Inner
            } else {
                break;
            };
            let right = self.base_table()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn base_table(&mut self) -> Result<TableRef> {
        if self.eat_sym("(") {
            // Derived table: (SELECT ...) alias.
            let q = self.select()?;
            self.expect_sym(")")?;
            self.eat_kw("AS");
            let alias = match self.peek() {
                Tok::Ident(s) if !is_clause_kw(s) && !is_join_kw(s) => self.ident()?,
                other => {
                    return Err(perr(format!("derived table requires an alias, found {other:?}")))
                }
            };
            return Ok(TableRef::Derived { query: Box::new(q), alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS")
            || matches!(self.peek(), Tok::Ident(s) if !is_clause_kw(s) && !is_join_kw(s))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    /// Expression entry point.
    pub fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("OR") {
            let r = self.and_expr()?;
            e = Expr::Binary { op: BinaryOp::Or, left: Box::new(e), right: Box::new(r) };
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("AND") {
            let r = self.not_expr()?;
            e = Expr::Binary { op: BinaryOp::And, left: Box::new(e), right: Box::new(r) };
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        let e = self.additive()?;
        // IS [NOT] NULL / BETWEEN / LIKE / IN, with optional NOT.
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IS") {
            if negated {
                return Err(perr("unexpected NOT before IS"));
            }
            let neg = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(e), negated: neg });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                Tok::Str(s) => s,
                other => {
                    return Err(perr(format!("LIKE pattern must be a string, found {other:?}")))
                }
            };
            return Ok(Expr::Like { expr: Box::new(e), pattern, negated });
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            if self.at_kw("SELECT") || self.at_kw("WITH") {
                let sub = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(e),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat_sym(",") {
                list.push(self.expr()?);
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList { expr: Box::new(e), list, negated });
        }
        if negated {
            return Err(perr("dangling NOT"));
        }
        // Comparisons.
        for (sym, op) in [
            ("=", BinaryOp::Eq),
            ("<>", BinaryOp::Ne),
            ("<=", BinaryOp::Le),
            (">=", BinaryOp::Ge),
            ("<", BinaryOp::Lt),
            (">", BinaryOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let r = self.additive()?;
                return Ok(Expr::Binary { op, left: Box::new(e), right: Box::new(r) });
            }
        }
        Ok(e)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut e = self.multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                BinaryOp::Add
            } else if self.eat_sym("-") {
                BinaryOp::Sub
            } else {
                break;
            };
            let r = self.multiplicative()?;
            e = Expr::Binary { op, left: Box::new(e), right: Box::new(r) };
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut e = self.unary()?;
        loop {
            let op = if self.eat_sym("*") {
                BinaryOp::Mul
            } else if self.eat_sym("/") {
                BinaryOp::Div
            } else if self.eat_sym("%") {
                BinaryOp::Rem
            } else {
                break;
            };
            let r = self.unary()?;
            e = Expr::Binary { op, left: Box::new(e), right: Box::new(r) };
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_sym("+") {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Lit(Value::I64(v))),
            Tok::Float(v) => Ok(Expr::Lit(Value::F64(v))),
            Tok::Str(s) => Ok(Expr::Lit(Value::Str(s))),
            Tok::Sym("(") => {
                if self.at_kw("SELECT") || self.at_kw("WITH") {
                    // Scalar subquery used as a value.
                    let sub = self.select()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Scalar(Box::new(sub)));
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym("*") => Ok(Expr::Wildcard),
            Tok::Ident(name) if !is_clause_kw(&name) => self.ident_expr(name),
            Tok::Ident(name) => Err(perr(format!("unexpected keyword {name} in expression"))),
            other => Err(perr(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn ident_expr(&mut self, name: String) -> Result<Expr> {
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => return Ok(Expr::Lit(Value::Bool(true))),
            "FALSE" => return Ok(Expr::Lit(Value::Bool(false))),
            "NULL" => return Ok(Expr::Lit(Value::Null)),
            "DATE" => {
                // DATE 'YYYY-MM-DD' literal.
                if let Tok::Str(s) = self.peek().clone() {
                    self.bump();
                    let d = vw_common::Date::parse(&s)?;
                    return Ok(Expr::Lit(Value::Date(d)));
                }
            }
            "CASE" => {
                let mut branches = Vec::new();
                let mut operand: Option<Expr> = None;
                if !self.at_kw("WHEN") {
                    operand = Some(self.expr()?);
                }
                while self.eat_kw("WHEN") {
                    let mut cond = self.expr()?;
                    if let Some(op) = &operand {
                        cond = Expr::Binary {
                            op: BinaryOp::Eq,
                            left: Box::new(op.clone()),
                            right: Box::new(cond),
                        };
                    }
                    self.expect_kw("THEN")?;
                    let val = self.expr()?;
                    branches.push((cond, val));
                }
                let else_expr =
                    if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
                self.expect_kw("END")?;
                return Ok(Expr::Case { branches, else_expr });
            }
            "CAST" => {
                self.expect_sym("(")?;
                let e = self.expr()?;
                self.expect_kw("AS")?;
                let ty_name = self.ident()?;
                let ty = TypeId::from_sql_name(&ty_name)
                    .ok_or_else(|| perr(format!("unknown type {ty_name}")))?;
                if self.eat_sym("(") {
                    self.bump();
                    self.expect_sym(")")?;
                }
                self.expect_sym(")")?;
                return Ok(Expr::Cast { expr: Box::new(e), ty });
            }
            "EXTRACT" => {
                self.expect_sym("(")?;
                let field = self.ident()?;
                self.expect_kw("FROM")?;
                let e = self.expr()?;
                self.expect_sym(")")?;
                return Ok(Expr::Extract { field, expr: Box::new(e) });
            }
            "EXISTS" => {
                self.expect_sym("(")?;
                let sub = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::Exists { subquery: Box::new(sub), negated: false });
            }
            "INTERVAL" => {
                // INTERVAL 'n' DAY/MONTH/YEAR (TPC-H's date offsets).
                if let Tok::Str(s) = self.peek().clone() {
                    self.bump();
                    let n: i64 = s.trim().parse().map_err(|_| {
                        perr(format!("INTERVAL magnitude must be an integer, got '{s}'"))
                    })?;
                    let unit_name = self.ident()?;
                    let unit = match unit_name.to_ascii_uppercase().as_str() {
                        "DAY" | "DAYS" => IntervalUnit::Day,
                        "MONTH" | "MONTHS" => IntervalUnit::Month,
                        "YEAR" | "YEARS" => IntervalUnit::Year,
                        other => {
                            return Err(VwError::Unsupported(format!(
                                "INTERVAL unit {other} (DAY, MONTH and YEAR are supported)"
                            )))
                        }
                    };
                    return Ok(Expr::Interval { n, unit });
                }
            }
            _ => {}
        }
        if self.eat_sym("(") {
            // Function call.
            if self.at_kw("DISTINCT") {
                return Err(VwError::Unsupported(format!(
                    "DISTINCT aggregates ({upper}(DISTINCT ...))"
                )));
            }
            let mut args = Vec::new();
            if !self.at_sym(")") {
                loop {
                    if self.eat_sym("*") {
                        args.push(Expr::Wildcard);
                    } else {
                        args.push(self.expr()?);
                    }
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            if self.at_kw("OVER") {
                return Err(VwError::Unsupported(format!("window functions ({upper}(...) OVER)")));
            }
            return Ok(Expr::Func { name: upper, args });
        }
        if self.eat_sym(".") {
            let col = self.ident()?;
            return Ok(Expr::Ident(vec![name, col]));
        }
        Ok(Expr::Ident(vec![name]))
    }
}

fn is_clause_kw(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "UNION"
            | "INTERSECT"
            | "EXCEPT"
            | "ON"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "ASC"
            | "DESC"
            | "NULLS"
            | "SET"
            | "VALUES"
            | "WITH"
            | "BETWEEN"
            | "LIKE"
            | "IN"
            | "IS"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
    )
}

fn is_join_kw(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "JOIN" | "INNER" | "LEFT" | "RIGHT" | "OUTER" | "CROSS"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn select_basics() {
        let stmts =
            parse("SELECT a, b + 1 AS c FROM t WHERE a > 5 ORDER BY c DESC LIMIT 10").unwrap();
        assert_eq!(stmts.len(), 1);
        let Statement::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].1, "DESC");
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn precedence() {
        let stmts = parse("SELECT 1 + 2 * 3").unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else { panic!() };
        // Must parse as 1 + (2*3).
        let Expr::Binary { op: BinaryOp::Add, right, .. } = expr else { panic!("got {expr:?}") };
        assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn joins_and_aliases() {
        let stmts =
            parse("SELECT t.a FROM t JOIN s ON t.id = s.id LEFT JOIN u ON s.k = u.k").unwrap();
        let Statement::Select(sel) = &stmts[0] else { panic!() };
        let Some(TableRef::Join { kind, left, .. }) = &sel.from else { panic!() };
        assert_eq!(*kind, AstJoinKind::Left);
        assert!(matches!(**left, TableRef::Join { kind: AstJoinKind::Inner, .. }));
    }

    #[test]
    fn group_by_having() {
        let stmts = parse("SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 100").unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
    }

    #[test]
    fn predicates() {
        let stmts = parse(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND b LIKE 'x%' AND c IS NOT NULL \
             AND d IN (1,2,3) AND e NOT IN (SELECT k FROM s)",
        )
        .unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        let w = s.where_clause.as_ref().unwrap();
        let dbg = format!("{w:?}");
        assert!(dbg.contains("Between"));
        assert!(dbg.contains("Like"));
        assert!(dbg.contains("IsNull"));
        assert!(dbg.contains("InList"));
        assert!(dbg.contains("InSubquery"));
        assert!(dbg.contains("negated: true"));
    }

    #[test]
    fn case_and_cast() {
        let stmts =
            parse("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END, CAST(a AS DOUBLE) FROM t")
                .unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        assert_eq!(s.items.len(), 2);
    }

    #[test]
    fn simple_case_with_operand() {
        let stmts = parse("SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t").unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        let SelectItem::Expr { expr: Expr::Case { branches, .. }, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(branches.len(), 2);
        assert!(matches!(branches[0].0, Expr::Binary { op: BinaryOp::Eq, .. }));
    }

    #[test]
    fn date_literal_and_extract() {
        let stmts =
            parse("SELECT EXTRACT(YEAR FROM d) FROM t WHERE d >= DATE '1994-01-01'").unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        assert!(format!("{:?}", s.where_clause).contains("Date"));
    }

    #[test]
    fn dml_statements() {
        let stmts = parse(
            "INSERT INTO t (a,b) VALUES (1,'x'), (2,'y'); \
             UPDATE t SET a = a + 1 WHERE b = 'x'; \
             DELETE FROM t WHERE a = 2;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(
            matches!(&stmts[0], Statement::Insert { source: InsertSource::Values(rows), .. } if rows.len() == 2)
        );
        assert!(matches!(&stmts[1], Statement::Update { sets, .. } if sets.len() == 1));
        assert!(matches!(&stmts[2], Statement::Delete { .. }));
    }

    #[test]
    fn ddl_and_admin() {
        let stmts = parse(
            "CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR(20), d DATE) WITH TYPE = HEAP; \
             DROP TABLE IF EXISTS t; BEGIN; COMMIT; ROLLBACK; CHECKPOINT t; KILL 42; \
             SET vector_size = 2048",
        )
        .unwrap();
        assert_eq!(stmts.len(), 8);
        let Statement::CreateTable { columns, table_type, .. } = &stmts[0] else { panic!() };
        assert_eq!(columns.len(), 3);
        assert!(!columns[0].2, "id NOT NULL");
        assert!(columns[1].2);
        assert_eq!(*table_type, TableType::Heap);
        assert!(matches!(stmts[1], Statement::DropTable { if_exists: true, .. }));
        assert!(matches!(stmts[5], Statement::Checkpoint { .. }));
        assert!(matches!(stmts[6], Statement::Kill { query_id: 42 }));
        assert!(matches!(stmts[7], Statement::Set { .. }));
    }

    #[test]
    fn explain_wraps() {
        let stmts = parse("EXPLAIN SELECT 1").unwrap();
        assert!(
            matches!(&stmts[0], Statement::Explain(inner) if matches!(**inner, Statement::Select(_)))
        );
    }

    #[test]
    fn errors_are_parse_errors() {
        for bad in ["SELECT FROM", "SELECT 1 FROM", "CREATE TABLE t", "INSERT INTO", "UPDATE t"] {
            assert!(matches!(parse(bad), Err(VwError::Parse(_))), "{bad} should fail");
        }
    }

    #[test]
    fn count_star_and_funcs() {
        let stmts = parse("SELECT COUNT(*), UPPER(name), SUBSTR(name, 1, 3) FROM t").unwrap();
        let Statement::Select(s) = &stmts[0] else { panic!() };
        let SelectItem::Expr { expr: Expr::Func { name, args }, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(name, "COUNT");
        assert!(matches!(args[0], Expr::Wildcard));
    }
}

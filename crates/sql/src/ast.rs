//! The raw (unbound) SQL abstract syntax tree.

use vw_common::{TypeId, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(Box<SelectStmt>),
    /// INSERT INTO ... VALUES / SELECT.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Rows or source query.
        source: InsertSource,
    },
    /// UPDATE ... SET ... WHERE.
    Update {
        /// Target table.
        table: String,
        /// (column, new value) assignments.
        sets: Vec<(String, Expr)>,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// DELETE FROM ... WHERE.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// (name, type, nullable) triples.
        columns: Vec<(String, TypeId, bool)>,
        /// Storage engine: the paper's `VECTORWISE` (default) or classic
        /// `HEAP`.
        table_type: TableType,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS?
        if_exists: bool,
    },
    /// EXPLAIN `<query>`.
    Explain(Box<Statement>),
    /// EXPLAIN ANALYZE `<query>` — run it, return rows plus the plan text
    /// with every line's measured figures.
    ExplainAnalyze(Box<Statement>),
    /// BEGIN \[TRANSACTION\].
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK / ABORT.
    Rollback,
    /// CHECKPOINT \[table\] — propagate PDT deltas to stable storage.
    Checkpoint {
        /// Specific table, or all when None.
        table: Option<String>,
    },
    /// KILL `<query id>` — cancel a running query.
    Kill {
        /// Query id from the monitoring view.
        query_id: u64,
    },
    /// SET `<knob> = <value>`.
    Set {
        /// Knob name.
        name: String,
        /// Value literal.
        value: Value,
    },
    /// SHOW `<view>` — monitoring views (sessions, queries).
    Show {
        /// Which view to render.
        what: ShowKind,
    },
}

/// Monitoring view selected by `SHOW`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowKind {
    /// Open sessions: id, state, current query, admission grant.
    Sessions,
    /// The query registry: id, state, statement, elapsed, rows.
    Queries,
}

/// Storage engine choice in CREATE TABLE (Figure 1's two table kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableType {
    /// Compressed column store scanned by the X100 kernel (default).
    #[default]
    Vectorwise,
    /// Classic row-store heap (OLTP-style access).
    Heap,
}

/// INSERT data source.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// Explicit VALUES rows.
    Values(Vec<Vec<Expr>>),
    /// INSERT INTO ... SELECT.
    Query(Box<SelectStmt>),
}

/// A SELECT statement.
///
/// A set-operation chain `A UNION B EXCEPT C` is stored on its head: `A`
/// with [`set_ops`](SelectStmt::set_ops) = `[(Union, B), (Except, C)]`,
/// applied left to right (SQL's left associativity). The
/// higher-binding INTERSECT is nested by the parser into the operand's
/// own `set_ops`. When the chain is non-empty, `order_by` / `limit` /
/// `offset` apply to the chain's result, per the standard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// `WITH name AS (...)` common table expressions, in scope for the
    /// whole statement (and usable by later CTEs in the same list).
    pub with: Vec<(String, SelectStmt)>,
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause (None = one-row dual).
    pub from: Option<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// Trailing set-operation operands, applied left to right.
    pub set_ops: Vec<(SetOpKind, SelectStmt)>,
    /// ORDER BY (expr, ascending, nulls_first).
    pub order_by: Vec<(Expr, bool, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

/// Set operations between SELECT bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// `UNION` — distinct rows of both sides.
    Union,
    /// `UNION ALL` — concatenation.
    UnionAll,
    /// `INTERSECT` — distinct common rows.
    Intersect,
    /// `EXCEPT` — distinct left rows not on the right.
    Except,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// Expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// FROM-clause table reference.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Named {
        /// Table name.
        name: String,
        /// Alias.
        alias: Option<String>,
    },
    /// Explicit join.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: AstJoinKind,
        /// ON condition.
        on: Expr,
    },
    /// Derived table: `FROM (SELECT ...) alias`.
    Derived {
        /// The subquery.
        query: Box<SelectStmt>,
        /// Mandatory alias naming the derived relation.
        alias: String,
    },
    /// Comma-separated cross product (joined by WHERE predicates).
    Cross(Vec<TableRef>),
}

/// Join kinds at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstJoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT \[OUTER\] JOIN.
    Left,
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Possibly-qualified identifier (`t.c` → `["t","c"]`).
    Ident(Vec<String>),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// NOT.
    Not(Box<Expr>),
    /// Function call (aggregates included; resolved by the binder).
    Func {
        /// Function name (uppercased).
        name: String,
        /// Arguments (`COUNT(*)` has a single `Wildcard`).
        args: Vec<Expr>,
    },
    /// `*` inside COUNT(*).
    Wildcard,
    /// CASE WHEN ... THEN ... [ELSE ...] END.
    Case {
        /// WHEN/THEN pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE.
        else_expr: Option<Box<Expr>>,
    },
    /// CAST(e AS type).
    Cast {
        /// Input.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeId,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Input.
        expr: Box<Expr>,
        /// IS NOT NULL?
        negated: bool,
    },
    /// `e [NOT] BETWEEN lo AND hi`.
    Between {
        /// Input.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// NOT BETWEEN?
        negated: bool,
    },
    /// `e [NOT] LIKE 'pattern'`.
    Like {
        /// Input.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE?
        negated: bool,
    },
    /// `e [NOT] IN (list...)`.
    InList {
        /// Input.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// NOT IN?
        negated: bool,
    },
    /// `e [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Input.
        expr: Box<Expr>,
        /// Subquery.
        subquery: Box<SelectStmt>,
        /// NOT IN?
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// Subquery.
        subquery: Box<SelectStmt>,
        /// NOT EXISTS?
        negated: bool,
    },
    /// `EXTRACT(field FROM e)`.
    Extract {
        /// Field name (YEAR, MONTH, ...).
        field: String,
        /// Input.
        expr: Box<Expr>,
    },
    /// Scalar subquery `(SELECT ...)` used as a value.
    Scalar(Box<SelectStmt>),
    /// `INTERVAL 'n' DAY/MONTH/YEAR` literal (only meaningful next to a
    /// date; the binder lowers `date ± interval` to date arithmetic).
    Interval {
        /// Signed magnitude.
        n: i64,
        /// Calendar unit.
        unit: IntervalUnit,
    },
}

impl Expr {
    /// The direct sub-expressions, in source order. The subquery forms
    /// (`IN (SELECT ..)`, `EXISTS`, scalar) have none here: their bodies
    /// and operands bind through the subquery's own path.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Neg(x) | Expr::Not(x) | Expr::Cast { expr: x, .. } => vec![x],
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } | Expr::Extract { expr, .. } => {
                vec![expr]
            }
            Expr::Between { expr, low, high, .. } => vec![expr, low, high],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Case { branches, else_expr } => {
                let mut out: Vec<&Expr> = branches.iter().flat_map(|(c, v)| [c, v]).collect();
                out.extend(else_expr.as_deref());
                out
            }
            Expr::Func { args, .. } => args.iter().collect(),
            _ => vec![],
        }
    }

    /// Pre-order walk over `self` and its sub-expressions; `f` returns
    /// whether to descend into the node it was handed.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr) -> bool) {
        if f(self) {
            for c in self.children() {
                c.walk(f);
            }
        }
    }

    /// Does `self` or any sub-expression satisfy `p`?
    pub fn any(&self, p: impl Fn(&Expr) -> bool) -> bool {
        let mut hit = false;
        self.walk(&mut |e| {
            hit |= p(e);
            !hit
        });
        hit
    }
}

/// Calendar unit of an INTERVAL literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Days.
    Day,
    /// Months (end-of-month clamped arithmetic).
    Month,
    /// Years (12 months).
    Year,
}

//! The "mini-Tom" rule engine: bottom-up expression rewriting to fixpoint.
//!
//! Vectorwise built its rewriter on the Tom pattern-matching tool \[5\]; the
//! native equivalent is a trait per rule (`match + build`) and a driver
//! that applies the rule set bottom-up until nothing changes. Rules carry a
//! nullability context so NULL-erasure rules can consult the input schema.

use vw_sql::SqlExpr;

/// One rewrite rule: return `Some(replacement)` when the pattern matches.
pub trait ExprRule: Send + Sync {
    /// Diagnostic name.
    fn name(&self) -> &'static str;
    /// Try to rewrite `e` (children are already rewritten).
    /// `nullable` gives per-input-column nullability.
    fn apply(&self, e: &SqlExpr, nullable: &[bool]) -> Option<SqlExpr>;
}

/// Maximum fixpoint iterations (safety net against rule ping-pong).
const MAX_PASSES: usize = 16;

/// Rewrite `e` bottom-up with `rules` until fixpoint.
pub fn rewrite_fixpoint(e: SqlExpr, rules: &[Box<dyn ExprRule>], nullable: &[bool]) -> SqlExpr {
    let mut cur = e;
    for _ in 0..MAX_PASSES {
        let (next, changed) = rewrite_once(cur, rules, nullable);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

fn rewrite_once(e: SqlExpr, rules: &[Box<dyn ExprRule>], nullable: &[bool]) -> (SqlExpr, bool) {
    // 1. Rewrite children.
    let mut changed = false;
    let mut e = e
        .map_children(&mut |c| {
            let (c, fired) = rewrite_once(c, rules, nullable);
            changed |= fired;
            Ok(c)
        })
        .expect("rewriting a child cannot fail");
    // 2. Apply rules at this node.
    loop {
        let mut fired = false;
        for r in rules {
            if let Some(next) = r.apply(&e, nullable) {
                e = next;
                fired = true;
                changed = true;
                break;
            }
        }
        if !fired {
            break;
        }
    }
    (e, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{TypeId, Value};

    /// A toy rule: rewrite Not(Not(x)) → x.
    struct DoubleNot;

    impl ExprRule for DoubleNot {
        fn name(&self) -> &'static str {
            "double-not"
        }
        fn apply(&self, e: &SqlExpr, _n: &[bool]) -> Option<SqlExpr> {
            if let SqlExpr::Not(inner) = e {
                if let SqlExpr::Not(x) = inner.as_ref() {
                    return Some((**x).clone());
                }
            }
            None
        }
    }

    #[test]
    fn fixpoint_applies_nested_rules() {
        let x = SqlExpr::Lit(Value::Bool(true), TypeId::Bool);
        let wrapped = SqlExpr::Not(Box::new(SqlExpr::Not(Box::new(SqlExpr::Not(Box::new(
            SqlExpr::Not(Box::new(x.clone())),
        ))))));
        let rules: Vec<Box<dyn ExprRule>> = vec![Box::new(DoubleNot)];
        let out = rewrite_fixpoint(wrapped, &rules, &[]);
        assert_eq!(out, x);
    }

    #[test]
    fn no_rules_is_identity() {
        let e = SqlExpr::And(vec![
            SqlExpr::Lit(Value::Bool(true), TypeId::Bool),
            SqlExpr::Col(0, TypeId::Bool),
        ]);
        let out = rewrite_fixpoint(e.clone(), &[], &[true]);
        assert_eq!(out, e);
    }
}

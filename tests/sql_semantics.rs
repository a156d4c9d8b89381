//! SQL semantics the paper calls treacherous: NULL three-valued logic,
//! anti-join NULL intricacies, error detection, and the function battery.

use std::sync::Arc;
use vectorwise::common::{Value, VwError};
use vectorwise::core::Database;

fn db_with(ddl: &str, inserts: &[&str]) -> Arc<Database> {
    let db = Database::open_in_memory();
    db.execute(ddl).unwrap();
    for i in inserts {
        db.execute(i).unwrap();
    }
    db
}

#[test]
fn not_in_with_null_semantics() {
    // The paper: "intricacies of the SQL semantics of anti-joins".
    let db = db_with(
        "CREATE TABLE l (x BIGINT); CREATE TABLE r (y BIGINT)",
        &["INSERT INTO l VALUES (1), (2), (NULL)", "INSERT INTO r VALUES (1), (NULL)"],
    );
    // r contains NULL → NOT IN yields no rows at all.
    let r = db.execute("SELECT x FROM l WHERE x NOT IN (SELECT y FROM r)").unwrap();
    assert_eq!(r.rows().len(), 0, "NOT IN against a NULL-bearing set is empty");

    // Remove the NULL → 2 qualifies, NULL probe is dropped.
    let db = db_with(
        "CREATE TABLE l (x BIGINT); CREATE TABLE r (y BIGINT)",
        &["INSERT INTO l VALUES (1), (2), (NULL)", "INSERT INTO r VALUES (1)"],
    );
    let r = db.execute("SELECT x FROM l WHERE x NOT IN (SELECT y FROM r)").unwrap();
    assert_eq!(r.rows(), &[vec![Value::I64(2)]]);

    // Empty set → everything qualifies, NULL probes included.
    let db = db_with(
        "CREATE TABLE l (x BIGINT); CREATE TABLE r (y BIGINT)",
        &["INSERT INTO l VALUES (1), (NULL)"],
    );
    let r = db.execute("SELECT COUNT(*) FROM l WHERE x NOT IN (SELECT y FROM r)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(2));

    // NOT EXISTS differs: NULLs don't poison it.
    let db = db_with(
        "CREATE TABLE l (x BIGINT); CREATE TABLE r (y BIGINT)",
        &["INSERT INTO l VALUES (1), (2)", "INSERT INTO r VALUES (1), (NULL)"],
    );
    let r = db.execute("SELECT COUNT(*) FROM l WHERE NOT EXISTS (SELECT y FROM r)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(0), "r is nonempty");
}

#[test]
fn three_valued_logic_in_where() {
    let db = db_with("CREATE TABLE t (x BIGINT)", &["INSERT INTO t VALUES (1), (NULL), (3)"]);
    // NULL comparisons drop rows...
    let r = db.execute("SELECT COUNT(*) FROM t WHERE x > 0").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(2));
    // ...NOT(NULL) stays NULL (dropped)...
    let r = db.execute("SELECT COUNT(*) FROM t WHERE NOT (x > 0)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(0));
    // ...IS NULL sees them.
    let r = db.execute("SELECT COUNT(*) FROM t WHERE x IS NULL").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(1));
    // Aggregates skip NULLs; COUNT(*) does not.
    let r = db.execute("SELECT COUNT(x), COUNT(*), SUM(x), AVG(x) FROM t").unwrap();
    assert_eq!(r.rows()[0], vec![Value::I64(2), Value::I64(3), Value::I64(4), Value::F64(2.0)]);
}

#[test]
fn error_detection_is_exact_not_approximate() {
    let db = db_with(
        "CREATE TABLE t (x BIGINT, y BIGINT)",
        &["INSERT INTO t VALUES (10, 2), (20, 0), (30, 5)"],
    );
    // Division by zero in row 2 must fail the query...
    assert!(matches!(db.execute("SELECT x / y FROM t"), Err(VwError::DivideByZero)));
    // ...but not when the filter removes the offending row first (lazy
    // vectorized checking must respect selection vectors).
    let r = db.execute("SELECT x / y FROM t WHERE y <> 0 ORDER BY 1").unwrap();
    assert_eq!(r.rows(), &[vec![Value::I64(5)], vec![Value::I64(6)]]);
    // Division by NULL is NULL, not an error.
    db.execute("INSERT INTO t VALUES (40, NULL)").unwrap();
    let r = db.execute("SELECT x / y FROM t WHERE x = 40").unwrap();
    assert!(r.rows()[0][0].is_null());
    // Overflow detection.
    db.execute("INSERT INTO t VALUES (9223372036854775807, 1)").unwrap();
    assert!(matches!(db.execute("SELECT x * 2 FROM t"), Err(VwError::Overflow(_))));
    // Invalid function parameters.
    let db2 = db_with("CREATE TABLE s (v VARCHAR)", &["INSERT INTO s VALUES ('abc')"]);
    assert!(matches!(db2.execute("SELECT SUBSTR(v, 0) FROM s"), Err(VwError::InvalidParameter(_))));
    assert!(matches!(db2.execute("SELECT SQRT(-1.0)"), Err(VwError::InvalidParameter(_))));
}

#[test]
fn function_battery() {
    let db = Database::open_in_memory();
    let checks: Vec<(&str, Value)> = vec![
        ("SELECT UPPER('hello')", Value::Str("HELLO".into())),
        ("SELECT LOWER('WORLD')", Value::Str("world".into())),
        ("SELECT LENGTH('héllo')", Value::I64(5)),
        ("SELECT SUBSTR('vectorwise', 7, 4)", Value::Str("wise".into())),
        ("SELECT CONCAT('x100', '->vw')", Value::Str("x100->vw".into())),
        ("SELECT TRIM('  pad  ')", Value::Str("pad".into())),
        ("SELECT REPLACE('a-b-c', '-', '+')", Value::Str("a+b+c".into())),
        ("SELECT ABS(-42)", Value::I64(42)),
        ("SELECT SQRT(9.0)", Value::F64(3.0)),
        ("SELECT FLOOR(2.7)", Value::F64(2.0)),
        ("SELECT CEIL(2.1)", Value::F64(3.0)),
        ("SELECT ROUND(2.5)", Value::F64(3.0)),
        ("SELECT COALESCE(NULL, NULL, 5)", Value::I64(5)),
        ("SELECT IFNULL(NULL, 'dflt')", Value::Str("dflt".into())),
        ("SELECT NULLIF(7, 7)", Value::Null),
        ("SELECT NULLIF(7, 8)", Value::I64(7)),
        ("SELECT GREATEST(3, 9, 5)", Value::I64(9)),
        ("SELECT LEAST(3, 9, 5)", Value::I64(3)),
        ("SELECT SIGN(-12)", Value::I64(-1)),
        ("SELECT EXTRACT(YEAR FROM DATE '1996-03-13')", Value::I64(1996)),
        ("SELECT EXTRACT(QUARTER FROM DATE '1996-05-01')", Value::I64(2)),
        ("SELECT DATEDIFF(DATE '1996-03-13', DATE '1996-03-01')", Value::I64(12)),
        ("SELECT CAST('42' AS BIGINT)", Value::I64(42)),
        ("SELECT CAST(3.9 AS BIGINT)", Value::I64(4)),
        (
            "SELECT CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END",
            Value::Str("b".into()),
        ),
    ];
    for (sql, expected) in checks {
        let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(r.scalar().unwrap(), &expected, "{sql}");
    }
}

#[test]
fn like_and_in_lists() {
    let db = db_with(
        "CREATE TABLE t (s VARCHAR, n BIGINT)",
        &["INSERT INTO t VALUES ('apple', 1), ('apricot', 2), ('banana', 3), (NULL, 4)"],
    );
    let r = db.execute("SELECT COUNT(*) FROM t WHERE s LIKE 'ap%'").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(2));
    let r = db.execute("SELECT COUNT(*) FROM t WHERE s NOT LIKE 'ap%'").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(1), "NULL row is dropped");
    let r = db.execute("SELECT COUNT(*) FROM t WHERE s LIKE '_pple'").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(1));
    let r = db.execute("SELECT COUNT(*) FROM t WHERE n IN (1, 3, 99)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(2));
    let r = db.execute("SELECT COUNT(*) FROM t WHERE n NOT IN (1, 3)").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(2));
}

#[test]
fn order_by_null_placement_and_limits() {
    let db = db_with("CREATE TABLE t (x BIGINT)", &["INSERT INTO t VALUES (3), (NULL), (1), (2)"]);
    let r = db.execute("SELECT x FROM t ORDER BY x ASC").unwrap();
    assert!(r.rows()[3][0].is_null(), "ASC default: NULLS LAST");
    let r = db.execute("SELECT x FROM t ORDER BY x ASC NULLS FIRST").unwrap();
    assert!(r.rows()[0][0].is_null());
    let r = db.execute("SELECT x FROM t ORDER BY x DESC LIMIT 2").unwrap();
    assert_eq!(r.rows().len(), 2);
    assert!(r.rows()[0][0].is_null(), "DESC default: NULLS FIRST");
    let r = db.execute("SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1").unwrap();
    assert_eq!(r.rows(), &[vec![Value::I64(2)], vec![Value::I64(3)]]);
}

#[test]
fn left_outer_join_null_padding() {
    let db = db_with(
        "CREATE TABLE a (k BIGINT, v VARCHAR); CREATE TABLE b (k BIGINT, w VARCHAR)",
        &["INSERT INTO a VALUES (1, 'x'), (2, 'y')", "INSERT INTO b VALUES (1, 'match')"],
    );
    let r = db.execute("SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.v").unwrap();
    assert_eq!(r.rows()[0], vec![Value::Str("x".into()), Value::Str("match".into())]);
    assert_eq!(r.rows()[1], vec![Value::Str("y".into()), Value::Null]);
}

#[test]
fn having_and_expressions_over_aggregates() {
    let db = db_with(
        "CREATE TABLE t (g VARCHAR, v BIGINT)",
        &["INSERT INTO t VALUES ('a',1),('a',2),('b',10),('b',20),('c',5)"],
    );
    let r = db
        .execute(
            "SELECT g, SUM(v) * 2 AS double_sum FROM t GROUP BY g \
             HAVING SUM(v) > 4 ORDER BY double_sum DESC",
        )
        .unwrap();
    assert_eq!(
        r.rows(),
        &[
            vec![Value::Str("b".into()), Value::I64(60)],
            vec![Value::Str("c".into()), Value::I64(10)],
        ]
    );
}

/// HAVING without GROUP BY makes the whole input one group: a bare column
/// in it or in the SELECT list is the usual GROUP BY error, and a constant
/// query returns one row (or none), not one per input row.
#[test]
fn having_without_group_by_groups_the_whole_input() {
    let db = db_with(
        "CREATE TABLE t (x BIGINT); CREATE TABLE e (x BIGINT)",
        &["INSERT INTO t VALUES (1), (2), (3)"],
    );
    for sql in ["SELECT x FROM t HAVING x > 1", "SELECT x FROM t HAVING COUNT(*) > 1"] {
        match db.execute(sql) {
            Err(VwError::Bind(m)) => assert!(m.contains("GROUP BY"), "{sql}: {m}"),
            other => panic!("{sql}: expected the GROUP BY error, got {other:?}"),
        }
    }
    let one = vec![vec![Value::I64(1)]];
    assert_eq!(sorted(&db, "SELECT 1 FROM t HAVING 1 > 0"), one);
    assert_eq!(sorted(&db, "SELECT 1 FROM e HAVING 1 > 0"), one, "an empty input is one group");
    assert!(sorted(&db, "SELECT 1 FROM t HAVING 1 > 2").is_empty());
    assert_eq!(sorted(&db, "SELECT SUM(x) FROM t HAVING MIN(x) = 1"), vec![vec![Value::I64(6)]]);
}

/// The rows of `sql`, in the order of their printed form.
fn sorted(db: &Arc<Database>, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows().to_vec();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// A user column is never captured by a name the binder made up: a scalar
/// subquery's value column has no name, so columns called like the old
/// markers resolve to the table's own data.
#[test]
fn columns_named_like_scalar_markers_keep_their_own_values() {
    let db = db_with(
        "CREATE TABLE n (__hscalar0 BIGINT, x BIGINT); CREATE TABLE m (__scalar0 BIGINT, x BIGINT)",
        &[
            "INSERT INTO n VALUES (1, 10), (50, 20), (7, 3)",
            "INSERT INTO m VALUES (1, 10), (50, 20)",
        ],
    );
    let x = |v: &[i64]| v.iter().map(|&v| vec![Value::I64(v)]).collect::<Vec<_>>();
    assert_eq!(
        sorted(
            &db,
            "SELECT x FROM n GROUP BY x, __hscalar0 \
             HAVING __hscalar0 > (SELECT MIN(x) FROM n)"
        ),
        x(&[20, 3]),
    );
    assert_eq!(
        sorted(
            &db,
            "SELECT x, __hscalar0 FROM n GROUP BY x, __hscalar0 \
             HAVING SUM(x) > (SELECT MIN(x) FROM n)"
        ),
        vec![vec![Value::I64(10), Value::I64(1)], vec![Value::I64(20), Value::I64(50)]],
    );
    assert_eq!(sorted(&db, "SELECT x FROM m WHERE x > (SELECT MIN(x) FROM m)"), x(&[20]));
    assert_eq!(sorted(&db, "SELECT __scalar0 FROM m WHERE x < (SELECT MAX(x) FROM n)"), x(&[1]),);
}

/// A grouped query binds every expression form a plain one does: each
/// spelling agrees with one that binds either way.
#[test]
fn grouped_queries_bind_every_expression_form() {
    let db = db_with(
        "CREATE TABLE t (name VARCHAR, qty BIGINT, d DATE)",
        &["INSERT INTO t VALUES ('ab', 1, DATE '1996-01-31'), ('ab', 4, DATE '1996-01-31'), \
           ('b', 20, DATE '1997-03-01'), ('ac', NULL, NULL), ('c', 2, DATE '1996-01-31')"],
    );
    let pairs = [
        (
            "SELECT name FROM t GROUP BY name HAVING SUM(qty) BETWEEN 1 AND 10",
            "SELECT name FROM t GROUP BY name HAVING SUM(qty) >= 1 AND SUM(qty) <= 10",
        ),
        (
            "SELECT name FROM t GROUP BY name HAVING SUM(qty) IS NOT NULL",
            "SELECT name FROM t GROUP BY name HAVING COUNT(qty) > 0",
        ),
        (
            "SELECT d FROM t GROUP BY d HAVING COUNT(*) IN (1, 2)",
            "SELECT d FROM t GROUP BY d HAVING COUNT(*) = 1 OR COUNT(*) = 2",
        ),
        (
            "SELECT name LIKE 'a%', COUNT(*) FROM t GROUP BY name",
            "SELECT name LIKE 'a%', COUNT(*) FROM t GROUP BY name LIKE 'a%', name",
        ),
        (
            "SELECT EXTRACT(YEAR FROM d), SUM(qty) FROM t GROUP BY d",
            "SELECT EXTRACT(YEAR FROM d), SUM(qty) FROM t GROUP BY EXTRACT(YEAR FROM d), d",
        ),
        (
            "SELECT d + INTERVAL '1' DAY, COUNT(*) FROM t GROUP BY d",
            "SELECT d + INTERVAL '1' DAY, COUNT(*) FROM t GROUP BY d + INTERVAL '1' DAY, d",
        ),
    ];
    for (grouped, equivalent) in pairs {
        let want = sorted(&db, equivalent);
        assert!(!want.is_empty(), "{equivalent} returns rows");
        assert_eq!(sorted(&db, grouped), want, "{grouped}");
    }
}

/// A bare column that is neither grouped nor aggregated is named in the
/// error as the query spelled it.
#[test]
fn group_by_error_names_the_column() {
    let db = db_with("CREATE TABLE t (x BIGINT, y BIGINT)", &[]);
    for (sql, col) in [("SELECT x FROM t GROUP BY y", "x"), ("SELECT t.x FROM t GROUP BY y", "t.x")]
    {
        let err = db.execute(sql).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "E_BIND: binder error: column {col} must appear in GROUP BY or inside an aggregate"
            ),
            "{sql}"
        );
    }
}

/// Set operations find duplicates with the key equality of GROUP BY, the
/// hash joins and `=`: doubles compare in total order, so `-0.0` and `0.0`
/// are two values.
#[test]
fn set_operations_compare_doubles_like_group_by() {
    let db =
        db_with("CREATE TABLE f (d DOUBLE)", &["INSERT INTO f VALUES (0.0), (0.0 * -1.0), (1.5)"]);
    let grouped = sorted(&db, "SELECT d FROM f GROUP BY d");
    assert_eq!(grouped.len(), 3, "{grouped:?}");
    assert_eq!(sorted(&db, "SELECT DISTINCT d FROM f"), grouped);
    let except = sorted(&db, "SELECT d FROM f EXCEPT SELECT d FROM f WHERE d = 0.0");
    assert_eq!(except, sorted(&db, "SELECT DISTINCT d FROM f WHERE d <> 0.0"));
    assert_eq!(except, [vec![Value::F64(-0.0)], vec![Value::F64(1.5)]]);
}

/// Plan-time constant folding computes what run time computes. Each
/// corpus expression runs twice: as `SELECT e`, whose literals the
/// optimizer folds, and as `SELECT e' FROM one_row`, where every literal
/// is read from a column of a one-row table, so the kernels evaluate it
/// per row. The two agree on the value (NaN and -0.0 included) or on the
/// error code.
#[test]
fn folding_equals_run_time() {
    // (column, type, literal): `{name}` in a corpus entry is the literal
    // when folded and the column at run time.
    let cols = [
        ("i7", "BIGINT", "7"),
        ("i3", "BIGINT", "3"),
        ("i0", "BIGINT", "0"),
        ("ineg", "BIGINT", "-7"),
        ("imax", "BIGINT", "9223372036854775807"),
        ("n", "BIGINT", "NULL"),
        ("d7", "DOUBLE", "7.5"),
        ("d2", "DOUBLE", "2.0"),
        ("d0", "DOUBLE", "0.0"),
        ("dbig", "DOUBLE", "1e308"),
        ("nd", "DOUBLE", "NULL"),
        ("ns", "VARCHAR", "NULL"),
        ("snan", "VARCHAR", "'NaN'"),
        ("snz", "VARCHAR", "'-0'"),
        ("s12", "VARCHAR", "'12'"),
        ("sabc", "VARCHAR", "'abc'"),
        ("sdt", "VARCHAR", "'1996-03-13'"),
        ("dt", "DATE", "DATE '1996-03-13'"),
    ];
    let ddl: Vec<String> = cols.iter().map(|(c, ty, _)| format!("{c} {ty}")).collect();
    let values: Vec<&str> = cols.iter().map(|(_, _, lit)| *lit).collect();
    let db = db_with(
        &format!("CREATE TABLE one_row ({})", ddl.join(", ")),
        &[&format!("INSERT INTO one_row VALUES ({})", values.join(", "))],
    );
    let corpus = [
        // Every operator on BIGINT: plain, overflow, zero divisor.
        "{i7} + {i3}",
        "{i7} - {i3}",
        "{i7} * {i3}",
        "{i7} / {i3}",
        "{i7} % {i3}",
        "{ineg} / {i3}",
        "{ineg} % {i3}",
        "{imax} + {i7}",
        "{ineg} - {imax}",
        "{imax} * {i3}",
        "{i7} / {i0}",
        "{i7} % {i0}",
        // ... on DOUBLE, and mixed.
        "{d7} + {d2}",
        "{d7} - {d2}",
        "{d7} * {d2}",
        "{d7} / {d2}",
        "{d7} % {d2}",
        "{dbig} * {dbig}",
        "{d7} / {d0}",
        "{d7} % {d0}",
        "{i7} + {d2}",
        "{i7} / {d2}",
        // A NULL operand.
        "{n} + {i7}",
        "{nd} * {d7}",
        "{n} / {i0}",
        "{i7} / {n}",
        "{i7} % {n}",
        "{n} = {i7}",
        "{n} IS NULL",
        "NOT ({n} < {i3})",
        "{i7} > {i3} AND {n} > {i3}",
        "{i7} < {i3} OR {n} > {i3}",
        // NaN and -0 in `=` and `<`.
        "CAST({snan} AS DOUBLE) = CAST({snan} AS DOUBLE)",
        "CAST({snan} AS DOUBLE) < {d7}",
        "{d7} < CAST({snan} AS DOUBLE)",
        "CAST({snz} AS DOUBLE)",
        "CAST({snz} AS DOUBLE) = {d0}",
        "CAST({snz} AS DOUBLE) < {d0}",
        "{d0} * -1.0 = {d0}",
        // Comparisons and NOT.
        "{i7} < {i3}",
        "{d2} >= {i3}",
        "{sabc} = {s12}",
        "NOT ({i7} < {i3})",
        // CAST successes and failures.
        "CAST({s12} AS BIGINT)",
        "CAST({sabc} AS BIGINT)",
        "CAST({sabc} AS DOUBLE)",
        "CAST({d7} AS BIGINT)",
        "CAST({imax} AS INTEGER)",
        "CAST({i7} AS VARCHAR)",
        "CAST({d7} AS VARCHAR)",
        "CAST({sdt} AS DATE)",
        "CAST({sabc} AS DATE)",
        "CAST({n} AS VARCHAR)",
        // CASE, SUBSTRING and EXTRACT.
        "CASE WHEN {i7} > {i3} THEN {sabc} ELSE {s12} END",
        "CASE WHEN {n} > {i3} THEN {i7} ELSE {i3} END",
        "CASE WHEN {i7} < {i3} THEN {i7} / {i0} ELSE {i3} END",
        "CASE WHEN {i7} > {i3} THEN {i7} / {i0} ELSE {i3} END",
        "SUBSTRING({sabc}, 2, 1)",
        "SUBSTRING({sabc}, 0)",
        "SUBSTRING(CAST({ns} AS VARCHAR), 1)",
        "EXTRACT(YEAR FROM {dt})",
        "EXTRACT(MONTH FROM {dt})",
        "EXTRACT(DAY FROM {dt} + INTERVAL '20' DAY)",
    ];
    let spell = |template: &str, folded: bool| {
        cols.iter().fold(template.to_string(), |sql, (c, _, lit)| {
            sql.replace(&format!("{{{c}}}"), if folded { lit } else { c })
        })
    };
    // The value's Debug form tells NaN from NaN-free and -0.0 from 0.0.
    let outcome = |sql: &str| match db.execute(sql) {
        Ok(r) => {
            assert_eq!(r.rows().len(), 1, "{sql}");
            Ok(format!("{:?}", r.rows()[0][0]))
        }
        Err(e) => Err(e.code()),
    };
    for template in corpus {
        let folded = format!("SELECT {}", spell(template, true));
        let run_time = format!("SELECT {} FROM one_row", spell(template, false));
        assert!(!run_time.contains('{'), "{template}: unknown column placeholder");
        assert_eq!(outcome(&folded), outcome(&run_time), "{folded}  vs  {run_time}");
    }
}

/// COALESCE, IFNULL/NVL, NULLIF, GREATEST, LEAST, SIGN and `[NOT] IN`
/// lists bind to CASE/comparison trees and are normalized with the rest of
/// the plan. Here they run over NULL-bearing BIGINT, DOUBLE, VARCHAR and
/// DATE columns in every place an expression sits — the SELECT list,
/// WHERE, a GROUP BY key, HAVING, an aggregate input, a join ON key and
/// UPDATE SET/WHERE on both table kinds — against a row-at-a-time
/// reference that implements SQL three-valued logic. GREATEST and LEAST
/// ignore NULL arguments (NULL only when every argument is), as in
/// PostgreSQL.
mod extended_functions {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::HashMap;
    use vectorwise::common::Date;

    type Row = Vec<Value>;

    const COLS: &str = "k BIGINT NOT NULL, a BIGINT, b BIGINT, d DOUBLE, e DOUBLE, \
                        s VARCHAR, u VARCHAR, dt DATE, dt2 DATE";
    const A: usize = 1;
    const B: usize = 2;
    const D: usize = 3;
    const E: usize = 4;
    const S: usize = 5;
    const U: usize = 6;
    const DT: usize = 7;
    const DT2: usize = 8;

    fn date(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    fn text(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// 40 rows over small domains (ties and repeats are common); row 0 is
    /// NULL in every nullable column.
    fn rows() -> Vec<Row> {
        let ints = [Value::Null, Value::I64(-2), Value::I64(0), Value::I64(1), Value::I64(3)];
        let dbls =
            [Value::Null, Value::F64(-1.5), Value::F64(0.0), Value::F64(1.0), Value::F64(2.5)];
        let strs = [Value::Null, text("x"), text("y"), text("z")];
        let dates = [Value::Null, date("1995-01-01"), date("1995-06-30"), date("1996-02-29")];
        let mut x: u64 = 0x5eed;
        let mut pick = |n: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % n
        };
        (0..40)
            .map(|k| {
                let mut row = vec![Value::I64(k as i64)];
                for col in 1..=8 {
                    let domain: &[Value] = match col {
                        A | B => &ints,
                        D | E => &dbls,
                        S | U => &strs,
                        _ => &dates,
                    };
                    row.push(if k == 0 { Value::Null } else { domain[pick(domain.len())].clone() });
                }
                row
            })
            .collect()
    }

    fn literal(v: &Value) -> String {
        match v {
            Value::F64(f) => format!("{f:?}"),
            Value::Str(s) => format!("'{s}'"),
            Value::Date(d) => format!("DATE '{d}'"),
            other => other.to_string(),
        }
    }

    fn table(name: &str, kind: &str, rows: &[Row]) -> String {
        let values: Vec<String> = rows
            .iter()
            .map(|r| format!("({})", r.iter().map(literal).collect::<Vec<_>>().join(", ")))
            .collect();
        format!(
            "CREATE TABLE {name} ({COLS}) WITH TYPE = {kind}; INSERT INTO {name} VALUES {}",
            values.join(", ")
        )
    }

    // -- the reference: one row at a time, SQL three-valued logic --------

    fn coalesce(args: &[&Value]) -> Value {
        args.iter().find(|v| !v.is_null()).map_or(Value::Null, |v| (*v).clone())
    }

    /// GREATEST (`want` = Greater) or LEAST (Less): NULLs ignored.
    fn extreme(args: &[&Value], want: Ordering) -> Value {
        args.iter()
            .filter(|v| !v.is_null())
            .copied()
            .reduce(|best, v| if v.sql_cmp(best) == Some(want) { v } else { best })
            .map_or(Value::Null, Value::clone)
    }

    fn nullif(a: &Value, b: &Value) -> Value {
        if a.sql_cmp(b) == Some(Ordering::Equal) {
            Value::Null
        } else {
            a.clone()
        }
    }

    fn sign(x: &Value) -> Value {
        let zero = Value::I64(0);
        match x.sql_cmp(&zero) {
            None => Value::Null,
            Some(o) => Value::I64(o as i64),
        }
    }

    fn truth(t: Option<bool>) -> Value {
        t.map_or(Value::Null, Value::Bool)
    }

    fn is_true(v: &Value) -> bool {
        *v == Value::Bool(true)
    }

    /// `x IN (list)`: TRUE on a match, else NULL if anything was NULL.
    fn in_list(x: &Value, list: &[Value]) -> Option<bool> {
        let mut unknown = false;
        for m in list {
            match x.sql_cmp(m) {
                Some(Ordering::Equal) => return Some(true),
                Some(_) => {}
                None => unknown = true,
            }
        }
        if unknown {
            None
        } else {
            Some(false)
        }
    }

    fn not_in(x: &Value, list: &[Value]) -> Option<bool> {
        in_list(x, list).map(|t| !t)
    }

    /// An expression (`{p}` stands for a column qualifier) and its
    /// reference value over one row.
    struct Case {
        sql: &'static str,
        eval: fn(&Row) -> Value,
    }

    fn value_cases() -> Vec<Case> {
        vec![
            Case {
                sql: "COALESCE({p}a, {p}b, 0)",
                eval: |r| coalesce(&[&r[A], &r[B], &Value::I64(0)]),
            },
            Case { sql: "COALESCE({p}s, {p}u)", eval: |r| coalesce(&[&r[S], &r[U]]) },
            Case {
                sql: "COALESCE({p}dt, {p}dt2, DATE '2000-01-01')",
                eval: |r| coalesce(&[&r[DT], &r[DT2], &date("2000-01-01")]),
            },
            Case { sql: "IFNULL({p}d, {p}e)", eval: |r| coalesce(&[&r[D], &r[E]]) },
            Case { sql: "NVL({p}s, 'none')", eval: |r| coalesce(&[&r[S], &text("none")]) },
            Case { sql: "NULLIF({p}a, {p}b)", eval: |r| nullif(&r[A], &r[B]) },
            Case { sql: "NULLIF({p}dt, {p}dt2)", eval: |r| nullif(&r[DT], &r[DT2]) },
            Case {
                sql: "GREATEST({p}a, {p}b)",
                eval: |r| extreme(&[&r[A], &r[B]], Ordering::Greater),
            },
            Case {
                sql: "GREATEST({p}b, {p}a, 1)",
                eval: |r| extreme(&[&r[B], &r[A], &Value::I64(1)], Ordering::Greater),
            },
            Case { sql: "LEAST({p}d, {p}e)", eval: |r| extreme(&[&r[D], &r[E]], Ordering::Less) },
            Case { sql: "LEAST({p}s, {p}u)", eval: |r| extreme(&[&r[S], &r[U]], Ordering::Less) },
            Case {
                sql: "GREATEST({p}dt, {p}dt2)",
                eval: |r| extreme(&[&r[DT], &r[DT2]], Ordering::Greater),
            },
            Case {
                sql: "LEAST({p}a, NULL, {p}b)",
                eval: |r| extreme(&[&r[A], &Value::Null, &r[B]], Ordering::Less),
            },
            Case { sql: "SIGN({p}a)", eval: |r| sign(&r[A]) },
            Case { sql: "SIGN({p}d)", eval: |r| sign(&r[D]) },
            Case {
                sql: "CASE WHEN {p}a IN (1, 3, NULL) THEN {p}b ELSE {p}a END",
                eval: |r| {
                    let hit = in_list(&r[A], &[Value::I64(1), Value::I64(3), Value::Null]);
                    if hit == Some(true) {
                        r[B].clone()
                    } else {
                        r[A].clone()
                    }
                },
            },
        ]
    }

    fn predicate_cases() -> Vec<Case> {
        vec![
            Case {
                sql: "{p}a IN (1, 3, NULL)",
                eval: |r| truth(in_list(&r[A], &[Value::I64(1), Value::I64(3), Value::Null])),
            },
            Case {
                sql: "{p}a NOT IN (1, 3)",
                eval: |r| truth(not_in(&r[A], &[Value::I64(1), Value::I64(3)])),
            },
            Case {
                sql: "{p}a NOT IN (1, NULL)",
                eval: |r| truth(not_in(&r[A], &[Value::I64(1), Value::Null])),
            },
            Case {
                sql: "{p}d IN (2.5, NULL, 0)",
                eval: |r| truth(in_list(&r[D], &[Value::F64(2.5), Value::Null, Value::I64(0)])),
            },
            Case {
                sql: "{p}s IN ('x', NULL)",
                eval: |r| truth(in_list(&r[S], &[text("x"), Value::Null])),
            },
            Case {
                sql: "{p}s NOT IN ('x', NULL)",
                eval: |r| truth(not_in(&r[S], &[text("x"), Value::Null])),
            },
            Case {
                sql: "{p}s NOT IN ('y', 'z')",
                eval: |r| truth(not_in(&r[S], &[text("y"), text("z")])),
            },
            Case {
                sql: "{p}dt IN (DATE '1995-01-01', NULL)",
                eval: |r| truth(in_list(&r[DT], &[date("1995-01-01"), Value::Null])),
            },
            Case {
                sql: "{p}dt NOT IN (DATE '1995-06-30', DATE '1996-02-29')",
                eval: |r| truth(not_in(&r[DT], &[date("1995-06-30"), date("1996-02-29")])),
            },
            Case { sql: "{p}a IN (NULL)", eval: |r| truth(in_list(&r[A], &[Value::Null])) },
            Case {
                sql: "NULL IN ({p}s, 'x')",
                eval: |r| truth(in_list(&Value::Null, &[r[S].clone(), text("x")])),
            },
            Case {
                sql: "GREATEST({p}a, {p}b) IN (3, 0)",
                eval: |r| {
                    let g = extreme(&[&r[A], &r[B]], Ordering::Greater);
                    truth(in_list(&g, &[Value::I64(3), Value::I64(0)]))
                },
            },
            Case {
                sql: "COALESCE({p}s, {p}u) NOT IN ('z')",
                eval: |r| truth(not_in(&coalesce(&[&r[S], &r[U]]), &[text("z")])),
            },
            Case {
                sql: "SIGN({p}d) = -1",
                eval: |r| truth(sign(&r[D]).sql_cmp(&Value::I64(-1)).map(|o| o.is_eq())),
            },
            Case {
                sql: "NULLIF({p}a, {p}b) IS NULL",
                eval: |r| Value::Bool(nullif(&r[A], &r[B]).is_null()),
            },
            Case {
                sql: "LEAST({p}dt, {p}dt2) < DATE '1995-07-01'",
                eval: |r| {
                    let l = extreme(&[&r[DT], &r[DT2]], Ordering::Less);
                    truth(l.sql_cmp(&date("1995-07-01")).map(|o| o.is_lt()))
                },
            },
        ]
    }

    fn spell(c: &Case, qualifier: &str) -> String {
        c.sql.replace("{p}", qualifier)
    }

    /// Rows in the order `sorted` returns a statement's rows.
    fn sort(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// `(value, rows)` per distinct value, NULL its own group.
    fn groups(rows: &[Row], key: impl Fn(&Row) -> Value) -> HashMap<Value, Vec<&Row>> {
        let mut out: HashMap<Value, Vec<&Row>> = HashMap::new();
        for r in rows {
            out.entry(key(r)).or_default().push(r);
        }
        out
    }

    fn min_max(values: impl Iterator<Item = Value>) -> (Value, Value) {
        let vals: Vec<Value> = values.filter(|v| !v.is_null()).collect();
        let pick = |want: Ordering| {
            vals.iter().reduce(|a, b| if b.sql_cmp(a) == Some(want) { b } else { a }).cloned()
        };
        (
            pick(Ordering::Less).unwrap_or(Value::Null),
            pick(Ordering::Greater).unwrap_or(Value::Null),
        )
    }

    fn db() -> (Arc<Database>, Vec<Row>) {
        let rows = rows();
        let db = Database::open_in_memory();
        db.execute(&table("t", "VECTORWISE", &rows)).unwrap();
        (db, rows)
    }

    #[test]
    fn in_the_select_list_and_where() {
        let (db, rows) = db();
        for c in value_cases().iter().chain(&predicate_cases()) {
            let sql = format!("SELECT k, {} FROM t", spell(c, ""));
            let want = sort(rows.iter().map(|r| vec![r[0].clone(), (c.eval)(r)]).collect());
            assert_eq!(sorted(&db, &sql), want, "{sql}");
        }
        let keys = |pred: &dyn Fn(&Row) -> bool| -> Vec<Vec<Value>> {
            sort(rows.iter().filter(|r| pred(r)).map(|r| vec![r[0].clone()]).collect())
        };
        for c in predicate_cases() {
            let sql = format!("SELECT k FROM t WHERE {}", spell(&c, ""));
            assert_eq!(sorted(&db, &sql), keys(&|r| is_true(&(c.eval)(r))), "{sql}");
        }
        for c in value_cases() {
            let sql = format!("SELECT k FROM t WHERE {} IS NULL", spell(&c, ""));
            assert_eq!(sorted(&db, &sql), keys(&|r| (c.eval)(r).is_null()), "{sql}");
        }
    }

    #[test]
    fn as_group_keys_and_aggregate_inputs() {
        let (db, rows) = db();
        for c in value_cases().iter().chain(&predicate_cases()) {
            let e = spell(c, "");
            let sql = format!("SELECT {e}, COUNT(*) FROM t GROUP BY {e}");
            let want = groups(&rows, c.eval)
                .into_iter()
                .map(|(v, rs)| vec![v, Value::I64(rs.len() as i64)])
                .collect();
            assert_eq!(sorted(&db, &sql), sort(want), "{sql}");
        }
        for c in value_cases() {
            let e = spell(&c, "");
            let sql = format!("SELECT COUNT({e}), MIN({e}), MAX({e}) FROM t");
            let values: Vec<Value> = rows.iter().map(c.eval).collect();
            let (min, max) = min_max(values.iter().cloned());
            let count = values.iter().filter(|v| !v.is_null()).count() as i64;
            assert_eq!(sorted(&db, &sql), vec![vec![Value::I64(count), min, max]], "{sql}");
        }
        for c in predicate_cases() {
            let p = spell(&c, "");
            let sql = format!(
                "SELECT SUM(CASE WHEN {p} THEN 1 ELSE 0 END), COUNT(CASE WHEN NOT ({p}) THEN 1 END) FROM t"
            );
            let values: Vec<Value> = rows.iter().map(c.eval).collect();
            let holds = values.iter().filter(|v| is_true(v)).count() as i64;
            let fails = values.iter().filter(|v| **v == Value::Bool(false)).count() as i64;
            assert_eq!(
                sorted(&db, &sql),
                vec![vec![Value::I64(holds), Value::I64(fails)]],
                "{sql}"
            );
        }
    }

    #[test]
    fn in_having() {
        let (db, rows) = db();
        type Having = fn(&[&Row]) -> Value;
        let cases: [(&str, Having); 6] = [
            ("GREATEST(MIN(b), MAX(b), 0) > 2", |rs| {
                let (min, max) = min_max(rs.iter().map(|r| r[B].clone()));
                let g = extreme(&[&min, &max, &Value::I64(0)], Ordering::Greater);
                truth(g.sql_cmp(&Value::I64(2)).map(|o| o.is_gt()))
            }),
            ("COALESCE(MAX(s), 'none') IN ('x', 'none', NULL)", |rs| {
                let (_, max) = min_max(rs.iter().map(|r| r[S].clone()));
                let list = [text("x"), text("none"), Value::Null];
                truth(in_list(&coalesce(&[&max, &text("none")]), &list))
            }),
            ("COUNT(*) NOT IN (1, 2)", |rs| {
                truth(not_in(&Value::I64(rs.len() as i64), &[Value::I64(1), Value::I64(2)]))
            }),
            ("NULLIF(MIN(b), MAX(b)) IS NULL", |rs| {
                let (min, max) = min_max(rs.iter().map(|r| r[B].clone()));
                Value::Bool(nullif(&min, &max).is_null())
            }),
            ("LEAST(MAX(dt), DATE '1995-12-31') = DATE '1995-12-31'", |rs| {
                let (_, max) = min_max(rs.iter().map(|r| r[DT].clone()));
                let l = extreme(&[&max, &date("1995-12-31")], Ordering::Less);
                truth(l.sql_cmp(&date("1995-12-31")).map(|o| o.is_eq()))
            }),
            ("SIGN(MAX(d)) IN (1, NULL)", |rs| {
                let (_, max) = min_max(rs.iter().map(|r| r[D].clone()));
                truth(in_list(&sign(&max), &[Value::I64(1), Value::Null]))
            }),
        ];
        for (having, eval) in cases {
            let sql = format!("SELECT a, COUNT(*) FROM t GROUP BY a HAVING {having}");
            let want = groups(&rows, |r| r[A].clone())
                .into_iter()
                .filter(|(_, rs)| is_true(&eval(rs)))
                .map(|(a, rs)| vec![a, Value::I64(rs.len() as i64)])
                .collect();
            assert_eq!(sorted(&db, &sql), sort(want), "{sql}");
        }
    }

    #[test]
    fn as_join_keys() {
        let (db, rows) = db();
        for c in value_cases() {
            let sql = format!(
                "SELECT x.k, y.k FROM t x JOIN t y ON {} = {}",
                spell(&c, "x."),
                spell(&c, "y.")
            );
            let mut want = Vec::new();
            for x in &rows {
                for y in &rows {
                    if (c.eval)(x).sql_cmp(&(c.eval)(y)) == Some(Ordering::Equal) {
                        want.push(vec![x[0].clone(), y[0].clone()]);
                    }
                }
            }
            assert_eq!(sorted(&db, &sql), sort(want), "{sql}");
        }
    }

    #[test]
    fn in_update_set_and_where_on_both_table_kinds() {
        let rows = rows();
        let hit = |r: &Row| {
            let dt2 = in_list(&r[DT2], &[date("1995-06-30"), Value::Null]);
            let s = not_in(&r[S], &[text("x"), text("y")]);
            let a = Value::Bool(nullif(&r[A], &r[B]).is_null());
            is_true(&truth(dt2)) || is_true(&truth(s)) || is_true(&a)
        };
        let want: Vec<Row> = rows
            .iter()
            .map(|r| {
                if !hit(r) {
                    return r.clone();
                }
                let mut n = r.clone();
                n[A] = extreme(&[&r[A], &r[B]], Ordering::Greater);
                n[B] = sign(&r[B]);
                n[D] = coalesce(&[&r[D], &r[E]]);
                n[S] = coalesce(&[&r[S], &r[U], &text("w")]);
                n[DT] = extreme(&[&r[DT], &r[DT2]], Ordering::Less);
                n
            })
            .collect();
        for kind in ["VECTORWISE", "HEAP"] {
            let db = Database::open_in_memory();
            db.execute(&table("h", kind, &rows)).unwrap();
            let sql = "UPDATE h SET a = GREATEST(a, b), b = SIGN(b), d = IFNULL(d, e), \
                       s = COALESCE(s, u, 'w'), dt = LEAST(dt, dt2) \
                       WHERE dt2 IN (DATE '1995-06-30', NULL) OR s NOT IN ('x', 'y') \
                       OR NULLIF(a, b) IS NULL";
            db.execute(sql).unwrap_or_else(|e| panic!("{kind}: {sql}: {e}"));
            assert_eq!(sorted(&db, "SELECT * FROM h"), sort(want.clone()), "{kind}: {sql}");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the vectorized hash operators vs. the tuple-at-a-time
// volcano baseline on randomized data. Any divergence in join or GROUP BY
// semantics (NULL keys, duplicate keys, empty sides, NOT IN three-valued
// logic) shows up as a row-set mismatch.
// ---------------------------------------------------------------------------

mod differential {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vectorwise::common::{Field, Schema, TypeId, Value};
    use vectorwise::exec::cancel::CancelToken;
    use vectorwise::exec::expr::PhysExpr;
    use vectorwise::exec::op::{
        drain, AggFunc, AggSpec, HashAggregate, HashJoin, JoinType, Operator, Values,
    };
    use vectorwise::exec::program::ExprProgram;

    fn prog(e: &PhysExpr) -> ExprProgram {
        ExprProgram::compile(e)
    }
    use vectorwise::volcano::{
        collect_rows, TupleAgg, TupleAggregate, TupleHashJoin, TupleJoinKind, TupleValues,
    };

    fn kv_schema() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::Str)])
            .unwrap()
    }

    /// Random rows: small key domain (forced collisions), ~12% NULL keys.
    fn random_rows(rng: &mut SmallRng, n: usize, tag: &str) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                let k = if rng.gen_range(0..100) < 12 {
                    Value::Null
                } else {
                    Value::I64(rng.gen_range(0..16i64))
                };
                vec![k, Value::Str(format!("{tag}{i}"))]
            })
            .collect()
    }

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    fn vectorized_join(
        left: Vec<Vec<Value>>,
        right: Vec<Vec<Value>>,
        jt: JoinType,
        vector_size: usize,
    ) -> Vec<Vec<Value>> {
        let schema = kv_schema();
        let out_schema = if jt.emits_right() { schema.join(&schema) } else { schema.clone() };
        let l = Box::new(Values::new(schema.clone(), left, vector_size, CancelToken::new()));
        let r = Box::new(Values::new(schema, right, vector_size, CancelToken::new()));
        let mut j = HashJoin::new(
            l,
            r,
            vec![prog(&PhysExpr::ColRef(0, TypeId::I64))],
            vec![prog(&PhysExpr::ColRef(0, TypeId::I64))],
            jt,
            out_schema,
            CancelToken::new(),
        );
        let out = drain(&mut j).unwrap();
        let rows = (0..out.rows()).map(|i| out.row_values(i)).collect();
        assert!(Operator::profile(&j).is_some(), "join must expose probe profiling");
        rows
    }

    fn volcano_join(
        left: Vec<Vec<Value>>,
        right: Vec<Vec<Value>>,
        kind: TupleJoinKind,
    ) -> Vec<Vec<Value>> {
        let schema = kv_schema();
        let l = Box::new(TupleValues::new(schema.clone(), left));
        let r = Box::new(TupleValues::new(schema, right));
        let mut j = TupleHashJoin::with_kind(l, r, 0, 0, kind);
        collect_rows(&mut j).unwrap()
    }

    #[test]
    fn every_join_type_agrees_with_volcano_on_random_data() {
        let cases = [
            (JoinType::Inner, TupleJoinKind::Inner),
            (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
            (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
            (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
            (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
        ];
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0x10_1ed + seed);
            let left = random_rows(&mut rng, 257, "l");
            let right = random_rows(&mut rng, 131, "r");
            for (jt, kind) in cases {
                for vector_size in [4usize, 64] {
                    let vec_rows =
                        sort_rows(vectorized_join(left.clone(), right.clone(), jt, vector_size));
                    let vol_rows = sort_rows(volcano_join(left.clone(), right.clone(), kind));
                    assert_eq!(
                        vec_rows, vol_rows,
                        "join {jt:?} diverged (seed {seed}, vs {vector_size})"
                    );
                }
            }
        }
    }

    #[test]
    fn join_edge_cases_agree_with_volcano() {
        let all_null: Vec<Vec<Value>> =
            (0..5).map(|i| vec![Value::Null, Value::Str(format!("n{i}"))]).collect();
        let empty: Vec<Vec<Value>> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(99);
        let normal = random_rows(&mut rng, 40, "x");
        let cases = [
            (JoinType::Inner, TupleJoinKind::Inner),
            (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
            (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
            (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
            (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
        ];
        for (jt, kind) in cases {
            for (l, r) in [
                (normal.clone(), empty.clone()),
                (empty.clone(), normal.clone()),
                (normal.clone(), all_null.clone()),
                (all_null.clone(), normal.clone()),
            ] {
                let vec_rows = sort_rows(vectorized_join(l.clone(), r.clone(), jt, 8));
                let vol_rows = sort_rows(volcano_join(l, r, kind));
                assert_eq!(vec_rows, vol_rows, "edge case diverged for {jt:?}");
            }
        }
    }

    #[test]
    fn group_by_agrees_with_volcano_on_random_data() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let schema = Schema::new(vec![
                Field::nullable("k", TypeId::I64),
                Field::nullable("v", TypeId::I64),
            ])
            .unwrap();
            let rows: Vec<Vec<Value>> = (0..311)
                .map(|_| {
                    let k = if rng.gen_range(0..100) < 10 {
                        Value::Null
                    } else {
                        Value::I64(rng.gen_range(0..12i64))
                    };
                    let v = if rng.gen_range(0..100) < 15 {
                        Value::Null
                    } else {
                        Value::I64(rng.gen_range(-50..50i64))
                    };
                    vec![k, v]
                })
                .collect();

            let out_fields = vec![
                Field::nullable("k", TypeId::I64),
                Field::not_null("cnt", TypeId::I64),
                Field::not_null("cntv", TypeId::I64),
                Field::nullable("sum", TypeId::I64),
                Field::nullable("min", TypeId::I64),
                Field::nullable("max", TypeId::I64),
                Field::nullable("avg", TypeId::F64),
            ];
            let col_v = || Some(prog(&PhysExpr::ColRef(1, TypeId::I64)));
            let mut agg = HashAggregate::new(
                Box::new(Values::new(schema.clone(), rows.clone(), 32, CancelToken::new())),
                vec![prog(&PhysExpr::ColRef(0, TypeId::I64))],
                vec![
                    AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Count, input: col_v(), out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Sum, input: col_v(), out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Min, input: col_v(), out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Max, input: col_v(), out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Avg, input: col_v(), out_ty: TypeId::F64 },
                ],
                Schema::unchecked(out_fields.clone()),
                64,
                CancelToken::new(),
            )
            .unwrap();
            let out = drain(&mut agg).unwrap();
            let vec_rows = sort_rows((0..out.rows()).map(|i| out.row_values(i)).collect());

            let mut vol = TupleAggregate::new(
                Box::new(TupleValues::new(schema.clone(), rows.clone())),
                vec![0],
                vec![
                    TupleAgg::CountStar,
                    TupleAgg::Count(1),
                    TupleAgg::Sum(1),
                    TupleAgg::Min(1),
                    TupleAgg::Max(1),
                    TupleAgg::Avg(1),
                ],
                Schema::unchecked(out_fields),
            );
            let vol_rows = sort_rows(collect_rows(&mut vol).unwrap());
            assert_eq!(vec_rows, vol_rows, "GROUP BY diverged (seed {seed})");
        }
    }
}

// ---------------------------------------------------------------------------
// The hash-build mode matrix. Hash join and hash aggregation each run one
// partitioned-build state machine (`vw_exec::partition`); what differs
// between deployments is its configuration — one slot, or P slots under a
// memory budget (ample: what every statement under admission control runs;
// tight: eviction, spill files, recursion). One table-driven
// differential per operator runs every configuration × every join type /
// aggregate × {NULL-bearing key, multi-column key, dict-coded key} against
// the tuple-at-a-time volcano engine. The join has a second axis: inside
// an Exchange its build is one `SharedBuild` fed by `dop` sinks and probed
// by `dop` fragments — DOP × pool width × governor × join type × build
// child shape, same oracle, plus what must hold of the one build: rows
// enter it once, a NULL key seen by any sink counts, the budget is charged
// once, and nothing is left charged, on disk or on the pool however the
// statement ends.
// ---------------------------------------------------------------------------

mod build_mode_matrix {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use vectorwise::common::{ColData, Date, Field, Schema, TypeId, Value, VwError};
    use vectorwise::exec::cancel::CancelToken;
    use vectorwise::exec::expr::PhysExpr;
    use vectorwise::exec::op::{
        AggFunc, AggSpec, BoxedOp, HashAggregate, HashJoin, JoinType, Operator, SharedBuild, Xchg,
    };
    use vectorwise::exec::partition::{MemBudget, SpillConfig, SpillMetrics, WorkerPool};
    use vectorwise::exec::program::ExprProgram;
    use vectorwise::exec::{Batch, StrArena, Vector};
    use vectorwise::storage::SimulatedDisk;
    use vectorwise::volcano::{
        collect_rows, TupleAgg, TupleAggregate, TupleHashJoin, TupleJoinKind, TupleValues,
    };

    /// One configuration of the build state machine.
    #[derive(Debug, Clone, Copy)]
    enum Mode {
        /// P = 1.
        Serial,
        /// 4 slots under a memory budget of `budget` bytes.
        Governed { budget: usize },
    }

    const AMPLE: usize = 1 << 30;
    const TIGHT: usize = 256;

    const MODES: [Mode; 4] = [
        Mode::Serial,
        Mode::Governed { budget: AMPLE },
        Mode::Governed { budget: TIGHT },
        Mode::Governed { budget: 1 },
    ];

    /// Which columns of [`schema`] form the key.
    #[derive(Debug, Clone, Copy)]
    enum Keys {
        /// `k1`: BIGINT, ~12% NULL.
        Single,
        /// `(k1, k2)`: NULLs in either component.
        Multi,
        /// `s`: a string column that arrives dictionary-coded.
        Dict,
    }

    impl Keys {
        fn programs(self) -> Vec<ExprProgram> {
            let col = |i, ty| ExprProgram::compile(&PhysExpr::ColRef(i, ty));
            match self {
                Keys::Single => vec![col(0, TypeId::I64)],
                Keys::Multi => vec![col(0, TypeId::I64), col(1, TypeId::I64)],
                Keys::Dict => vec![col(3, TypeId::Str)],
            }
        }

        /// The single column the volcano join keys on: `kc` stands in for
        /// `(k1, k2)` — it is NULL exactly when either component is.
        fn volcano_join_col(self) -> usize {
            match self {
                Keys::Single => 0,
                Keys::Multi => 2,
                Keys::Dict => 3,
            }
        }

        fn group_cols(self) -> Vec<usize> {
            match self {
                Keys::Single => vec![0],
                Keys::Multi => vec![0, 1],
                Keys::Dict => vec![3],
            }
        }
    }

    const DOMAIN: [&str; 7] = ["ash", "bay", "cedar", "elm", "fir", "gum", "hazel"];

    fn schema() -> Schema {
        Schema::new(vec![
            Field::nullable("k1", TypeId::I64),
            Field::nullable("k2", TypeId::I64),
            Field::nullable("kc", TypeId::I64),
            Field::nullable("s", TypeId::Str),
            Field::nullable("v", TypeId::I64),
            Field::nullable("tag", TypeId::Str),
        ])
        .unwrap()
    }

    /// Small key domains (forced collisions and duplicates), NULLs in every
    /// key column and in the aggregated value, a unique tag per row.
    fn random_rows(rng: &mut SmallRng, n: usize, tag: &str) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                let mut int = |domain: i64, null_pct: u32| {
                    if rng.gen_range(0..100) < null_pct {
                        Value::Null
                    } else {
                        Value::I64(rng.gen_range(0..domain))
                    }
                };
                let (k1, k2, v) = (int(16, 12), int(5, 10), int(100, 15));
                let kc = match (&k1, &k2) {
                    (Value::I64(a), Value::I64(b)) => Value::I64(a * 100 + b),
                    _ => Value::Null,
                };
                let s = if rng.gen_range(0..100) < 12 {
                    Value::Null
                } else {
                    Value::Str(DOMAIN[rng.gen_range(0..DOMAIN.len())].to_string())
                };
                vec![k1, k2, kc, s, v, Value::Str(format!("{tag}{i}"))]
            })
            .collect()
    }

    /// Serves rows as batches of `chunk`, with column `s` dictionary-coded
    /// the way the pack reader hands it to a scan; `fail_after` batches it
    /// returns an error instead (the mid-stream failure of the leak rows).
    struct Source {
        schema: Schema,
        batches: Vec<Batch>,
        pos: usize,
        fail_after: usize,
    }

    fn source(rows: &[Vec<Value>], chunk: usize, fail_after: usize) -> BoxedOp {
        let schema = schema();
        let batches = rows
            .chunks(chunk)
            .map(|ch| {
                let mut dict: Vec<String> = Vec::new();
                let mut index: HashMap<String, u32> = HashMap::new();
                let (mut codes, mut nulls) = (Vec::new(), Vec::new());
                for r in ch {
                    nulls.push(r[3].is_null());
                    codes.push(match &r[3] {
                        Value::Str(s) => *index.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        }),
                        _ => 0,
                    });
                }
                if dict.is_empty() {
                    dict.push(String::new()); // code 0 must index something
                }
                let columns = schema
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(c, f)| {
                        if c == 3 {
                            let v = Vector::from_dict(
                                codes.clone(),
                                Arc::new(StrArena::from_strs(
                                    dict.iter().map(String::as_str),
                                    true,
                                )),
                                Some(nulls.clone()),
                            );
                            assert!(v.is_encoded());
                            return v;
                        }
                        let mut v = Vector::new(ColData::new(f.ty));
                        for r in ch {
                            v.push(&r[c]).unwrap();
                        }
                        v
                    })
                    .collect();
                Batch::new(columns)
            })
            .collect();
        Box::new(Source { schema, batches, pos: 0, fail_after })
    }

    impl Operator for Source {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn name(&self) -> &'static str {
            "Source"
        }
        fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
            if self.pos >= self.fail_after {
                return Err(VwError::Exec("source failed mid-stream".into()));
            }
            self.pos += 1;
            Ok(self.batches.get(self.pos - 1).cloned())
        }
    }

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// What a governed run leaves to inspect.
    struct Governor {
        budget: Arc<MemBudget>,
        disk: Arc<SimulatedDisk>,
        metrics: Arc<SpillMetrics>,
    }

    fn spill_config(budget: usize) -> (SpillConfig, Governor) {
        let (budget, disk) = (MemBudget::new(budget), SimulatedDisk::instant());
        let cfg = SpillConfig::new(budget.clone(), disk.clone(), 4);
        let metrics = cfg.metrics.clone();
        (cfg, Governor { budget, disk, metrics })
    }

    /// Drain `op` to the end (or to its first error), returning the rows.
    fn run(op: &mut dyn Operator) -> Result<Vec<Vec<Value>>, VwError> {
        let mut rows = Vec::new();
        while let Some(b) = op.next()? {
            rows.extend((0..b.rows()).map(|i| b.row_values(i)));
        }
        Ok(rows)
    }

    /// The governed rows of both matrices: no spill traffic at all under
    /// an ample budget, real traffic under a tight one, and nothing left
    /// charged or on disk once the operator is gone.
    fn check_governor(g: &Governor, budget: usize, drained: bool, what: &str) {
        let (parts, written, read) = (
            g.metrics.partitions.load(Ordering::Relaxed),
            g.metrics.bytes_written.load(Ordering::Relaxed),
            g.metrics.bytes_read.load(Ordering::Relaxed),
        );
        if budget == AMPLE {
            assert_eq!((parts, written, read), (0, 0, 0), "{what}: ample budget spilled");
        } else if drained {
            assert!(parts > 4, "{what}: every slot evicts, then deeper strata ({parts})");
            assert!(written > 0 && read > 0, "{what}: spilled state was rehydrated");
        }
        assert_eq!(g.budget.used(), 0, "{what}: budget still charged");
        assert_eq!(g.disk.used_bytes(), 0, "{what}: spill blocks not reclaimed");
    }

    fn join_in(
        mode: Mode,
        probe: BoxedOp,
        build: BoxedOp,
        keys: Keys,
        jt: JoinType,
    ) -> (HashJoin, Option<Governor>) {
        let out = if jt.emits_right() { schema().join(&schema()) } else { schema() };
        let j = HashJoin::new(
            probe,
            build,
            keys.programs(),
            keys.programs(),
            jt,
            out,
            CancelToken::new(),
        );
        match mode {
            Mode::Serial => (j, None),
            Mode::Governed { budget } => {
                let (cfg, g) = spill_config(budget);
                (j.with_spill(cfg), Some(g))
            }
        }
    }

    #[test]
    fn hash_join_agrees_with_volcano_in_every_build_mode() {
        let cases = [
            (JoinType::Inner, TupleJoinKind::Inner),
            (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
            (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
            (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
            (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
        ];
        let mut rng = SmallRng::seed_from_u64(0x9a9_d10);
        let left = random_rows(&mut rng, 223, "l");
        let right = random_rows(&mut rng, 157, "r");
        // NOT IN against a NULL-bearing build side is empty by definition;
        // a NULL-free build keeps the NULL-aware anti rows meaningful.
        let right_nonnull = |keys: Keys| -> Vec<Vec<Value>> {
            right.iter().filter(|r| !r[keys.volcano_join_col()].is_null()).cloned().collect()
        };
        for keys in [Keys::Single, Keys::Multi, Keys::Dict] {
            for (jt, kind) in cases {
                for build_nulls in [true, false] {
                    let right = if build_nulls { right.clone() } else { right_nonnull(keys) };
                    let kc = keys.volcano_join_col();
                    let build_keys = right.iter().filter(|r| !r[kc].is_null()).count() as u64;
                    let expect = {
                        let l = Box::new(TupleValues::new(schema(), left.clone()));
                        let r = Box::new(TupleValues::new(schema(), right.clone()));
                        let mut j = TupleHashJoin::with_kind(l, r, kc, kc, kind);
                        sort_rows(collect_rows(&mut j).unwrap())
                    };
                    for mode in MODES {
                        let what =
                            format!("{jt:?} on {keys:?}, build NULLs {build_nulls}, {mode:?}");
                        let (mut j, gov) = join_in(
                            mode,
                            source(&left, 64, usize::MAX),
                            source(&right, 16, usize::MAX),
                            keys,
                            jt,
                        );
                        assert_eq!(sort_rows(run(&mut j).unwrap()), expect, "{what}");
                        let p = Operator::profile(&j).unwrap().clone();
                        match mode {
                            // One table: one shard, nothing to skew.
                            Mode::Serial => {
                                assert_eq!(p.shard_build_rows, vec![build_keys], "{what}")
                            }
                            Mode::Governed { budget: AMPLE } => {
                                assert_eq!(p.shard_build_rows.len(), 4, "{what}");
                                assert_eq!(p.shard_build_rows.iter().sum::<u64>(), build_keys);
                            }
                            _ => {}
                        }
                        if let (Mode::Governed { budget }, Some(g)) = (mode, &gov) {
                            // A NULL-aware anti join with a NULL build key
                            // never probes, so nothing is ever rehydrated.
                            let probes = !(jt == JoinType::NullAwareLeftAnti && build_nulls);
                            // `spill=` reads the governor's own counters,
                            // which `check_governor` checks.
                            let m = p.spill.as_ref().expect("a governed join reports spill");
                            assert!(Arc::ptr_eq(m, &g.metrics), "{what}");
                            drop(j);
                            check_governor(g, budget, probes, &what);
                            // The same join abandoned mid-probe: the build
                            // is charged (or on disk) when the probe side
                            // fails, and all of it comes back on drop.
                            let (mut j, gov) = join_in(
                                mode,
                                source(&left, 64, 2),
                                source(&right, 16, usize::MAX),
                                keys,
                                jt,
                            );
                            assert!(run(&mut j).is_err(), "{what}: failure must surface");
                            let g = gov.unwrap();
                            if budget == AMPLE && build_keys > 0 {
                                assert!(g.budget.used() > 0, "{what}: probe runs charged");
                            }
                            drop(j);
                            check_governor(&g, budget, false, &what);
                        }
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The Exchange axis: one shared build, `dop` sinks, `dop` probers.
    // -----------------------------------------------------------------

    /// How the statement around the exchange ends.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ending {
        Drained,
        /// The build input of the last sink fails after two batches.
        BuildInputFails,
        /// The same input cancels the query after two batches: a KILL
        /// that lands while the build is being staged.
        KilledDuringBuild,
        /// The consumer takes one batch and drops the root.
        DroppedMidProbe,
    }

    /// Passes `inner` through; after `after` batches it cancels `cancel`
    /// (and keeps serving, like an input that has not noticed yet).
    struct Killing {
        inner: BoxedOp,
        cancel: CancelToken,
        after: usize,
    }

    impl Operator for Killing {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn name(&self) -> &'static str {
            "Killing"
        }
        fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
            if self.after == 0 {
                self.cancel.cancel();
            }
            self.after = self.after.saturating_sub(1);
            self.inner.next()
        }
    }

    /// Passes `inner` through, recording the highest budget charge it
    /// ever sees: a probe input runs while the build it probes is
    /// resident, so this is the build's charge as the probers see it.
    struct Peak {
        inner: BoxedOp,
        budget: Arc<MemBudget>,
        peak: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Operator for Peak {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn name(&self) -> &'static str {
            "Peak"
        }
        fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
            self.peak.fetch_max(self.budget.used(), Ordering::SeqCst);
            self.inner.next()
        }
    }

    /// Deal `rows` out to `n` hands; rows with a NULL in column `nulls_last`
    /// all go to the last hand, so only one worker ever sees a NULL key.
    fn deal(rows: &[Vec<Value>], n: usize, nulls_last: usize) -> Vec<Vec<Vec<Value>>> {
        let mut hands = vec![Vec::new(); n];
        for (i, r) in rows.iter().enumerate() {
            let hand = if r[nulls_last].is_null() { n - 1 } else { i % n };
            hands[hand].push(r.clone());
        }
        hands
    }

    /// What the test keeps of an exchange: the root, the build (its
    /// counters outlive the statement), the governor and the query token.
    struct Exchange {
        root: Xchg,
        build: Arc<SharedBuild>,
        gov: Option<Governor>,
    }

    /// `left ⋈ right` as the plan compiler lowers it inside an Exchange:
    /// one `SharedBuild`, a sink and a probing fragment per worker. A
    /// partitionable build child is dealt out to all sinks; any other is
    /// the first sink's alone.
    #[allow(clippy::too_many_arguments)]
    fn exchange_join(
        pool: &Arc<WorkerPool>,
        dop: usize,
        budget: Option<usize>,
        left: &[Vec<Value>],
        right: &[Vec<Value>],
        keys: Keys,
        jt: JoinType,
        partitionable: bool,
        ending: Ending,
    ) -> Exchange {
        let cancel = CancelToken::new();
        let kc = keys.volcano_join_col();
        let mut build = SharedBuild::new(keys.programs(), schema(), jt, dop, cancel.clone());
        let gov = budget.map(spill_config);
        build = match &gov {
            Some((cfg, _)) => build.governed(cfg.clone()),
            None => build.partitioned(dop, 0),
        };
        let build = Arc::new(build);
        let shares = if partitionable { deal(right, dop, kc) } else { vec![right.to_vec()] };
        let last = shares.len() - 1;
        let sinks = (0..dop)
            .map(|w| {
                let input = shares.get(w).map(|share| {
                    let fail_after = match ending {
                        Ending::BuildInputFails if w == last => 2,
                        _ => usize::MAX,
                    };
                    let input = source(share, 16, fail_after);
                    match ending {
                        Ending::KilledDuringBuild if w == last => {
                            Box::new(Killing { inner: input, cancel: cancel.clone(), after: 2 })
                                as BoxedOp
                        }
                        _ => input,
                    }
                });
                build.sink(input, Vec::new(), None).unwrap()
            })
            .collect();
        let out = if jt.emits_right() { schema().join(&schema()) } else { schema() };
        let frags = deal(left, dop, kc)
            .iter()
            .map(|share| {
                let probe = source(share, 64, usize::MAX);
                let j = HashJoin::probing(
                    probe,
                    build.clone(),
                    keys.programs(),
                    out.clone(),
                    cancel.clone(),
                );
                Box::new(j) as BoxedOp
            })
            .collect();
        let root = Xchg::spawn_staged(pool, sinks, frags, std::slice::from_ref(&build), cancel);
        Exchange { root, build, gov: gov.map(|(_, g)| g) }
    }

    #[test]
    fn shared_build_in_an_exchange_agrees_with_volcano_and_leaves_nothing_behind() {
        let cases = [
            (JoinType::Inner, TupleJoinKind::Inner),
            (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
            (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
            (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
            (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
        ];
        let mut rng = SmallRng::seed_from_u64(0x5ba2ed);
        let left = random_rows(&mut rng, 223, "l");
        let right = random_rows(&mut rng, 157, "r");
        let keys = Keys::Single;
        let kc = keys.volcano_join_col();
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            for dop in [2usize, 4] {
                for budget in [None, Some(AMPLE), Some(TIGHT), Some(1)] {
                    for (jt, kind) in cases {
                        for build_nulls in [true, false] {
                            let right: Vec<Vec<Value>> = right
                                .iter()
                                .filter(|r| build_nulls || !r[kc].is_null())
                                .cloned()
                                .collect();
                            let expect = {
                                let l = Box::new(TupleValues::new(schema(), left.clone()));
                                let r = Box::new(TupleValues::new(schema(), right.clone()));
                                let mut j = TupleHashJoin::with_kind(l, r, kc, kc, kind);
                                sort_rows(collect_rows(&mut j).unwrap())
                            };
                            for partitionable in [true, false] {
                                for ending in [
                                    Ending::Drained,
                                    Ending::BuildInputFails,
                                    Ending::KilledDuringBuild,
                                    Ending::DroppedMidProbe,
                                ] {
                                    let what = format!(
                                        "{jt:?}, build NULLs {build_nulls}, partitionable \
                                         {partitionable}, budget {budget:?}, dop {dop} on \
                                         {workers} workers, {ending:?}"
                                    );
                                    let mut x = exchange_join(
                                        &pool,
                                        dop,
                                        budget,
                                        &left,
                                        &right,
                                        keys,
                                        jt,
                                        partitionable,
                                        ending,
                                    );
                                    match ending {
                                        Ending::Drained => {
                                            let got = run(&mut x.root).unwrap();
                                            assert_eq!(sort_rows(got), expect, "{what}");
                                            // One build: every row entered it
                                            // once, and a NULL key one sink saw
                                            // is the build's.
                                            assert_eq!(
                                                x.build.rows_in(),
                                                right.len() as u64,
                                                "{what}"
                                            );
                                            assert_eq!(
                                                x.build.has_null_key(),
                                                build_nulls,
                                                "{what}"
                                            );
                                        }
                                        Ending::BuildInputFails => match run(&mut x.root) {
                                            Err(VwError::Exec(m)) => {
                                                assert!(
                                                    m.contains("failed mid-stream"),
                                                    "{what}: {m}"
                                                )
                                            }
                                            other => panic!("{what}: {other:?}"),
                                        },
                                        Ending::KilledDuringBuild => match run(&mut x.root) {
                                            Err(VwError::Cancelled) => {}
                                            other => panic!("{what}: {other:?}"),
                                        },
                                        Ending::DroppedMidProbe => {
                                            let _ = x.root.next().unwrap();
                                        }
                                    }
                                    drop(x.root);
                                    assert_eq!(pool.queued(), 0, "{what}: tasks left on the pool");
                                    drop(x.build);
                                    if let (Some(g), Some(budget)) = (&x.gov, budget) {
                                        // A NULL-aware anti join with a NULL
                                        // build key never probes, so nothing
                                        // is ever rehydrated.
                                        let probes =
                                            !(jt == JoinType::NullAwareLeftAnti && build_nulls);
                                        let drained = ending == Ending::Drained && probes;
                                        check_governor(g, budget, drained, &what);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            pool.shutdown();
        }
    }

    /// A governed join is charged for its build once, whatever the DOP:
    /// a budget of twice the build's staged bytes never evicts, and the
    /// probers of a DOP-4 exchange see about the charge a DOP-1 join's
    /// prober sees. (With a build per worker the DOP-4 statement charged
    /// four times that and spilled — parallelism caused the spilling.)
    #[test]
    fn a_governed_join_charges_its_build_once_at_any_dop() {
        use std::sync::atomic::AtomicUsize;
        let mut rng = SmallRng::seed_from_u64(0xc4a26e);
        let left = random_rows(&mut rng, 223, "l");
        let right = random_rows(&mut rng, 400, "r");
        let keys = Keys::Single;
        let peak_of = |budget: usize, dop: usize| -> (usize, Governor) {
            let pool = WorkerPool::new(2);
            let peak = Arc::new(AtomicUsize::new(0));
            let (cfg, g) = spill_config(budget);
            let watched = |rows: &[Vec<Value>]| -> BoxedOp {
                Box::new(Peak {
                    inner: source(rows, 64, usize::MAX),
                    budget: g.budget.clone(),
                    peak: peak.clone(),
                })
            };
            let out = schema().join(&schema());
            let cancel = CancelToken::new();
            let mut root: BoxedOp = if dop == 1 {
                let j = HashJoin::new(
                    watched(&left),
                    source(&right, 16, usize::MAX),
                    keys.programs(),
                    keys.programs(),
                    JoinType::Inner,
                    out,
                    cancel,
                );
                Box::new(j.with_spill(cfg))
            } else {
                let build = SharedBuild::new(
                    keys.programs(),
                    schema(),
                    JoinType::Inner,
                    dop,
                    cancel.clone(),
                )
                .governed(cfg);
                let build = Arc::new(build);
                let sinks = deal(&right, dop, 0)
                    .iter()
                    .map(|share| {
                        build.sink(Some(source(share, 16, usize::MAX)), Vec::new(), None).unwrap()
                    })
                    .collect();
                let frags = deal(&left, dop, 0)
                    .iter()
                    .map(|share| {
                        let j = HashJoin::probing(
                            watched(share),
                            build.clone(),
                            keys.programs(),
                            out.clone(),
                            cancel.clone(),
                        );
                        Box::new(j) as BoxedOp
                    })
                    .collect();
                Box::new(Xchg::spawn_staged(&pool, sinks, frags, &[build], cancel))
            };
            let rows = run(root.as_mut()).unwrap().len();
            assert!(rows > 0);
            drop(root);
            assert_eq!(g.budget.used(), 0, "dop {dop}: charge returned after the drain");
            pool.shutdown();
            (peak.load(Ordering::SeqCst), g)
        };
        let (staged, _) = peak_of(AMPLE, 1);
        assert!(staged > 0, "a resident governed build is charged");
        for dop in [1usize, 4] {
            let (peak, g) = peak_of(2 * staged, dop);
            let what = format!("dop {dop}, budget 2 x {staged}");
            assert!(peak > 0 && peak * 4 <= staged * 5, "{what}: probers saw {peak} charged");
            check_governor(&g, AMPLE, true, &what);
        }
    }

    fn agg_in(mode: Mode, input: BoxedOp, keys: Keys) -> (HashAggregate, Option<Governor>) {
        let v = || Some(ExprProgram::compile(&PhysExpr::ColRef(4, TypeId::I64)));
        let spec = |func, out_ty| AggSpec { func, input: v(), out_ty };
        let mut fields: Vec<Field> =
            keys.group_cols().iter().map(|&c| schema().fields[c].clone()).collect();
        fields.extend([
            Field::not_null("cnt", TypeId::I64),
            Field::not_null("cntv", TypeId::I64),
            Field::nullable("sum", TypeId::I64),
            Field::nullable("min", TypeId::I64),
            Field::nullable("max", TypeId::I64),
            Field::nullable("avg", TypeId::F64),
        ]);
        let agg = HashAggregate::new(
            input,
            keys.programs(),
            vec![
                AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                spec(AggFunc::Count, TypeId::I64),
                spec(AggFunc::Sum, TypeId::I64),
                spec(AggFunc::Min, TypeId::I64),
                spec(AggFunc::Max, TypeId::I64),
                spec(AggFunc::Avg, TypeId::F64),
            ],
            Schema::unchecked(fields),
            64,
            CancelToken::new(),
        )
        .unwrap();
        match mode {
            Mode::Serial => (agg, None),
            Mode::Governed { budget } => {
                let (cfg, g) = spill_config(budget);
                (agg.with_spill(cfg), Some(g))
            }
        }
    }

    #[test]
    fn hash_aggregate_agrees_with_volcano_in_every_build_mode() {
        let mut rng = SmallRng::seed_from_u64(0x5ca1e);
        let rows = random_rows(&mut rng, 409, "r");
        for keys in [Keys::Single, Keys::Multi, Keys::Dict] {
            let expect = {
                let group = keys.group_cols();
                let mut fields: Vec<Field> =
                    group.iter().map(|&c| schema().fields[c].clone()).collect();
                fields.extend((0..6).map(|i| Field::nullable(format!("a{i}"), TypeId::I64)));
                let mut vol = TupleAggregate::new(
                    Box::new(TupleValues::new(schema(), rows.clone())),
                    group,
                    vec![
                        TupleAgg::CountStar,
                        TupleAgg::Count(4),
                        TupleAgg::Sum(4),
                        TupleAgg::Min(4),
                        TupleAgg::Max(4),
                        TupleAgg::Avg(4),
                    ],
                    Schema::unchecked(fields),
                );
                sort_rows(collect_rows(&mut vol).unwrap())
            };
            for mode in MODES {
                for chunk in [16usize, 64] {
                    let what = format!("GROUP BY {keys:?}, {mode:?}, chunk {chunk}");
                    let (mut agg, gov) = agg_in(mode, source(&rows, chunk, usize::MAX), keys);
                    assert_eq!(sort_rows(run(&mut agg).unwrap()), expect, "{what}");
                    let p = Operator::profile(&agg).unwrap().clone();
                    let shards = match mode {
                        Mode::Serial => 1,
                        Mode::Governed { .. } => 4,
                    };
                    // (Evicted partitions report through `spill`, not `shards`.)
                    if !matches!(mode, Mode::Governed { budget: TIGHT | 1 }) {
                        assert_eq!(p.shard_build_rows.len(), shards, "{what}");
                        let groups = p.shard_build_rows.iter().sum::<u64>();
                        assert_eq!(groups, expect.len() as u64, "{what}: groups per shard");
                    }
                    if let (Mode::Governed { budget }, Some(g)) = (mode, &gov) {
                        // `spill=` reads the governor's own counters, which
                        // `check_governor` checks.
                        let m = p.spill.as_ref().expect("a governed aggregate reports spill");
                        assert!(Arc::ptr_eq(m, &g.metrics), "{what}");
                        drop(agg);
                        check_governor(g, budget, true, &what);
                        // The same build abandoned mid-stream: the input
                        // fails with groups charged (or spilled).
                        let (mut agg, gov) = agg_in(mode, source(&rows, chunk, 3), keys);
                        assert!(run(&mut agg).is_err(), "{what}: failure must surface");
                        drop(agg);
                        check_governor(&gov.unwrap(), budget, false, &what);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // The group-resolution ladder and the accumulator kernels: every key
    // shape that picks a different rung (none, all dict-coded, dict-coded
    // over too wide a domain, dict + BIGINT, one integer key the direct map
    // takes, leaves or never takes) × dense and selected batches, over
    // dictionaries that are shared by three batches and then replaced (a
    // pack seam), against volcano, in the P = 1 and governed
    // configurations.
    // -----------------------------------------------------------------

    /// `a`, `b`, `c`: low-cardinality strings (NULLs in `a` and `b`);
    /// `w1`, `w2`: 130 values each, so `(w1, w2)`'s composite code domain
    /// (131² = 17 161) is over the memo bound; `k`, `v`: nullable BIGINT.
    /// Then NULL-free integer keys for the direct rung ([`direct_key`]):
    /// `kb` BIGINT, `kg` BIGINT, `kc` BIGINT, `ki` INT, `kd` DATE, `kx`
    /// BIGINT.
    fn ladder_schema() -> Schema {
        Schema::new(vec![
            Field::nullable("a", TypeId::Str),
            Field::nullable("b", TypeId::Str),
            Field::nullable("c", TypeId::Str),
            Field::nullable("w1", TypeId::Str),
            Field::nullable("w2", TypeId::Str),
            Field::nullable("k", TypeId::I64),
            Field::nullable("v", TypeId::I64),
            Field::not_null("kb", TypeId::I64),
            Field::not_null("kg", TypeId::I64),
            Field::not_null("kc", TypeId::I64),
            Field::not_null("ki", TypeId::I32),
            Field::not_null("kd", TypeId::Date),
            Field::not_null("kx", TypeId::I64),
        ])
        .unwrap()
    }

    /// Row `i`'s value of direct-rung key column `col` (7..=12):
    /// * `kb`: 1000 values, inside the span from the first batch;
    /// * `kg`: up to `50 i`, so the live range widens batch after batch;
    /// * `kc`: small until row 200, then every other row 3 M above the
    ///   rest (each batch needs a span over the cap, so the map is dropped
    ///   and the fused rung meets groups only the map knew), small again
    ///   from row 400 (the map is laid out over the fused rung's groups);
    /// * `ki`: INT, negative and positive; `kd`: DATE;
    /// * `kx`: negative keys, then runs of keys at `i64::MIN` and at
    ///   `i64::MAX`, then the two mixed (a span no arithmetic may wrap).
    fn direct_key(rng: &mut SmallRng, col: usize, i: usize) -> Value {
        let small = rng.gen_range(0..300i64);
        match col {
            7 => Value::I64(rng.gen_range(0..1000)),
            8 => Value::I64(rng.gen_range(0..=50 * i as i64)),
            9 => Value::I64(if (200..400).contains(&i) && i % 2 == 1 {
                small + 3_000_000
            } else {
                small
            }),
            10 => Value::I32(rng.gen_range(-60..60)),
            11 => Value::Date(Date(rng.gen_range(9000..9100))),
            12 => Value::I64(match i {
                0..200 => -small,
                200..300 => i64::MIN + small % 3,
                300..400 => i64::MAX - small % 3,
                _ => [i64::MIN, i64::MAX, -1, 0, 1][small as usize % 5],
            }),
            _ => unreachable!("not a direct-rung key column"),
        }
    }

    const LADDER_STRS: usize = 5;

    fn ladder_domain(col: usize) -> Vec<String> {
        let n = [5, 3, 4, 130, 130][col];
        (0..n).map(|i| format!("{}{i:03}", ["a", "b", "c", "w", "x"][col])).collect()
    }

    fn ladder_rows(rng: &mut SmallRng, n: usize) -> Vec<Vec<Value>> {
        let domains: Vec<Vec<String>> = (0..LADDER_STRS).map(ladder_domain).collect();
        // The direct-rung keys draw from their own stream, so the columns
        // before them are what they were without them.
        let mut keys_rng = SmallRng::seed_from_u64(n as u64);
        (0..n)
            .map(|i| {
                let mut row: Vec<Value> = domains
                    .iter()
                    .enumerate()
                    .map(|(c, d)| {
                        if c < 2 && rng.gen_range(0..100) < 15 {
                            Value::Null
                        } else {
                            Value::Str(d[rng.gen_range(0..d.len())].clone())
                        }
                    })
                    .collect();
                for (domain, null_pct) in [(6i64, 10), (100, 15)] {
                    row.push(if rng.gen_range(0..100) < null_pct {
                        Value::Null
                    } else {
                        Value::I64(rng.gen_range(0..domain))
                    });
                }
                row.extend((7..13).map(|c| direct_key(&mut keys_rng, c, i)));
                row
            })
            .collect()
    }

    /// `rows` as batches of `chunk` with every string column dict-coded.
    /// Three consecutive batches share their dictionaries' `Arc`s (a
    /// pack); the next three get the domain rotated, so the same code
    /// means another string. With `select`, every batch carries a
    /// selection dropping the rows whose index is a multiple of three.
    fn ladder_batches(rows: &[Vec<Value>], chunk: usize, select: bool) -> Vec<Batch> {
        let schema = ladder_schema();
        let mut packs: Vec<Vec<Arc<StrArena>>> = Vec::new();
        rows.chunks(chunk)
            .enumerate()
            .map(|(bi, ch)| {
                if bi % 3 == 0 {
                    packs.push(
                        (0..LADDER_STRS)
                            .map(|c| {
                                let mut d = ladder_domain(c);
                                d.rotate_left((bi / 3) % 3);
                                Arc::new(StrArena::from_strs(d.iter().map(String::as_str), true))
                            })
                            .collect(),
                    );
                }
                let dicts = packs.last().unwrap();
                let mut columns: Vec<Vector> = (0..LADDER_STRS)
                    .map(|c| {
                        let code = |v: &Value| match v {
                            Value::Str(s) => {
                                dicts[c].iter().position(|d| d == s.as_str()).unwrap() as u32
                            }
                            _ => 0,
                        };
                        Vector::from_dict(
                            ch.iter().map(|r| code(&r[c])).collect(),
                            dicts[c].clone(),
                            Some(ch.iter().map(|r| r[c].is_null()).collect()),
                        )
                    })
                    .collect();
                for c in LADDER_STRS..schema.len() {
                    let mut v = Vector::new(ColData::new(schema.fields[c].ty));
                    ch.iter().for_each(|r| v.push(&r[c]).unwrap());
                    columns.push(v);
                }
                let mut batch = Batch::new(columns);
                if select {
                    let first = bi * chunk;
                    batch.sel = Some(
                        (0..ch.len() as u32)
                            .filter(|&p| !(first + p as usize).is_multiple_of(3))
                            .collect(),
                    );
                }
                batch
            })
            .collect()
    }

    fn ladder_op(batches: Vec<Batch>) -> BoxedOp {
        Box::new(Source { schema: ladder_schema(), batches, pos: 0, fail_after: usize::MAX })
    }

    fn ladder_source(rows: &[Vec<Value>], chunk: usize, select: bool) -> BoxedOp {
        ladder_op(ladder_batches(rows, chunk, select))
    }

    /// The six aggregates over `v` grouped by `group` (columns of
    /// [`ladder_schema`]), configured for `mode`.
    fn ladder_agg(
        mode: Mode,
        input: BoxedOp,
        group: &[usize],
    ) -> (HashAggregate, Option<Governor>) {
        let schema = ladder_schema();
        let col = |c: usize| ExprProgram::compile(&PhysExpr::ColRef(c, schema.fields[c].ty));
        let spec = |func, out_ty| AggSpec { func, input: Some(col(6)), out_ty };
        let mut fields: Vec<Field> = group.iter().map(|&c| schema.fields[c].clone()).collect();
        fields.extend((0..6).map(|i| Field::nullable(format!("a{i}"), TypeId::I64)));
        let agg = HashAggregate::new(
            input,
            group.iter().map(|&c| col(c)).collect(),
            vec![
                AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                spec(AggFunc::Count, TypeId::I64),
                spec(AggFunc::Sum, TypeId::I64),
                spec(AggFunc::Min, TypeId::I64),
                spec(AggFunc::Max, TypeId::I64),
                spec(AggFunc::Avg, TypeId::F64),
            ],
            Schema::unchecked(fields),
            64,
            CancelToken::new(),
        )
        .unwrap();
        match mode {
            Mode::Serial => (agg, None),
            Mode::Governed { budget } => {
                let (cfg, g) = spill_config(budget);
                (agg.with_spill(cfg), Some(g))
            }
        }
    }

    fn ladder_volcano(rows: &[Vec<Value>], group: &[usize]) -> Result<Vec<Vec<Value>>, VwError> {
        let schema = ladder_schema();
        let mut fields: Vec<Field> = group.iter().map(|&c| schema.fields[c].clone()).collect();
        fields.extend((0..6).map(|i| Field::nullable(format!("a{i}"), TypeId::I64)));
        let mut vol = TupleAggregate::new(
            Box::new(TupleValues::new(schema, rows.to_vec())),
            group.to_vec(),
            vec![
                TupleAgg::CountStar,
                TupleAgg::Count(6),
                TupleAgg::Sum(6),
                TupleAgg::Min(6),
                TupleAgg::Max(6),
                TupleAgg::Avg(6),
            ],
            Schema::unchecked(fields),
        );
        collect_rows(&mut vol).map(sort_rows)
    }

    const LADDER_MODES: [Mode; 3] =
        [Mode::Serial, Mode::Governed { budget: AMPLE }, Mode::Governed { budget: TIGHT }];

    #[test]
    fn every_resolution_rung_and_accumulator_kernel_agrees_with_volcano() {
        let mut rng = SmallRng::seed_from_u64(0x1adde2);
        let rows = ladder_rows(&mut rng, 613);
        let shapes: [(&str, &[usize]); 13] = [
            ("global", &[]),
            ("two dict keys", &[0, 1]),
            ("three dict keys", &[0, 1, 2]),
            ("dict keys over the memo bound", &[3, 4]),
            ("dict + BIGINT", &[0, 5]),
            ("BIGINT + dict", &[5, 1]),
            ("a NULL-bearing BIGINT key", &[5]),
            ("a BIGINT key inside the span", &[7]),
            ("a BIGINT key whose span grows", &[8]),
            ("a BIGINT key past the span cap and back", &[9]),
            ("an INT key", &[10]),
            ("a DATE key", &[11]),
            ("negative and extreme BIGINT keys", &[12]),
        ];
        for (shape, group) in shapes {
            for select in [false, true] {
                let live: Vec<Vec<Value>> = rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !select || i % 3 != 0)
                    .map(|(_, r)| r.clone())
                    .collect();
                let expect = ladder_volcano(&live, group).unwrap();
                for mode in LADDER_MODES {
                    for chunk in [16usize, 50] {
                        let what = format!("{shape}, select {select}, {mode:?}, chunk {chunk}");
                        let input = ladder_source(&rows, chunk, select);
                        let (mut agg, gov) = ladder_agg(mode, input, group);
                        assert_eq!(sort_rows(run(&mut agg).unwrap()), expect, "{what}");
                        let p = Operator::profile(&agg).unwrap().clone();
                        if group.iter().all(|&c| c < 3) && !group.is_empty() {
                            assert!(p.enc_skipped > 0, "{what}: the memo resolved no lane");
                        }
                        drop(agg);
                        if let (Mode::Governed { budget }, Some(g)) = (mode, &gov) {
                            // A global aggregate is one group: never governed.
                            if !group.is_empty() {
                                check_governor(g, budget, true, &what);
                            }
                        }
                    }
                }
            }
        }
        // No input at all: a global aggregate still answers one row.
        for mode in LADDER_MODES {
            let (mut agg, _) = ladder_agg(mode, ladder_source(&[], 16, false), &[]);
            assert_eq!(run(&mut agg).unwrap(), ladder_volcano(&[], &[]).unwrap(), "{mode:?}");
            let (mut agg, _) = ladder_agg(mode, ladder_source(&[], 16, false), &[0, 1]);
            assert!(run(&mut agg).unwrap().is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn a_high_cardinality_integer_key_spills_under_the_governor() {
        // 3000 rows over 100 000 BIGINT values: nearly every row is a new
        // group, resolved through the direct map whose bytes the governor
        // is charged with; under the tight budget every slot evicts, maps
        // included, and the re-aggregated partitions answer as volcano does.
        let mut rng = SmallRng::seed_from_u64(0x41d);
        let mut rows = ladder_rows(&mut rng, 3000);
        for r in &mut rows {
            r[7] = Value::I64(rng.gen_range(0..100_000));
        }
        let expect = ladder_volcano(&rows, &[7]).unwrap();
        for mode in LADDER_MODES {
            let (mut agg, gov) = ladder_agg(mode, ladder_source(&rows, 64, false), &[7]);
            assert_eq!(sort_rows(run(&mut agg).unwrap()), expect, "{mode:?}");
            drop(agg);
            if let (Mode::Governed { budget }, Some(g)) = (mode, &gov) {
                check_governor(g, budget, true, &format!("{mode:?}"));
            }
        }
    }

    #[test]
    fn one_wide_null_free_dict_key_takes_the_general_path() {
        // One dict-coded key, no NULL indicator, over a dictionary wider
        // than the memo bound (a pack above 16 K rows of distinct strings,
        // or any `Vector::from_dict` producer): the memo turns it away and
        // the fused single-key kernel must too — it has no flat data.
        const WIDE: usize = 20_000;
        let mut rng = SmallRng::seed_from_u64(0x51de);
        let base = ladder_rows(&mut rng, 613);
        let wide: Vec<String> = (0..WIDE).map(|i| format!("wide{i:05}")).collect();
        let dict = Arc::new(StrArena::from_strs(wide.iter().map(String::as_str), true));
        // Few enough distinct codes that groups repeat within and across batches.
        let codes: Vec<u32> = base.iter().map(|_| rng.gen_range(0..40) * 499).collect();
        // What volcano sees: `base` with column 0 replaced by the wide key.
        let mut rows = base.clone();
        for (r, &c) in rows.iter_mut().zip(&codes) {
            r[0] = Value::Str(dict[c as usize].to_owned());
        }
        for select in [false, true] {
            let live: Vec<Vec<Value>> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| !select || i % 3 != 0)
                .map(|(_, r)| r.clone())
                .collect();
            let expect = ladder_volcano(&live, &[0]).unwrap();
            for mode in LADDER_MODES {
                for chunk in [16usize, 50] {
                    let mut batches = ladder_batches(&base, chunk, select);
                    for (b, ch) in batches.iter_mut().zip(codes.chunks(chunk)) {
                        b.columns[0] = Vector::from_dict(ch.to_vec(), dict.clone(), None);
                    }
                    let (mut agg, _) = ladder_agg(mode, ladder_op(batches), &[0]);
                    let what = format!("select {select}, {mode:?}, chunk {chunk}");
                    assert_eq!(sort_rows(run(&mut agg).unwrap()), expect, "{what}");
                }
            }
        }
    }

    #[test]
    fn sum_overflow_is_the_same_error_in_every_kernel() {
        // i64::MAX then 1, in one group whatever the key shape: the dense
        // and the selected kernel, one group and many, raise what volcano
        // raises — also when a later value would bring the sum back.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut rows = ladder_rows(&mut rng, 40);
        for (i, r) in rows.iter_mut().enumerate() {
            r[0] = Value::Str("a000".into());
            r[5] = Value::I64(1);
            r[6] = Value::I64(match i {
                10 => i64::MAX,
                11 => 1,
                12 => -5,
                _ => 0,
            });
        }
        for group in [&[][..], &[0], &[5], &[0, 5]] {
            for select in [false, true] {
                let live: Vec<Vec<Value>> = rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !select || i % 3 != 0)
                    .map(|(_, r)| r.clone())
                    .collect();
                assert!(matches!(ladder_volcano(&live, group), Err(VwError::Overflow(_))));
                for mode in LADDER_MODES {
                    let input = ladder_source(&rows, 16, select);
                    let (mut agg, _) = ladder_agg(mode, input, group);
                    let got = run(&mut agg);
                    assert!(
                        matches!(got, Err(VwError::Overflow("SUM"))),
                        "{group:?}, select {select}, {mode:?}: {got:?}"
                    );
                }
            }
        }
    }

    /// End-to-end: the same SQL through the full engine at DOP 1 vs 4 —
    /// the rewriter's Exchange shapes plus the operators' partitioned
    /// builds must not change any answer.
    #[test]
    fn sql_answers_stable_across_dop() {
        use vectorwise::core::Database;
        let queries = [
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k",
            "SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k",
            "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k ORDER BY a.k, b.v LIMIT 20",
            "SELECT COUNT(*) FROM t WHERE k NOT IN (SELECT k FROM t WHERE v > 900)",
        ];
        let build = |dop: usize| {
            let db = Database::open_in_memory();
            db.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
            let mut rng = SmallRng::seed_from_u64(77);
            let rows: Vec<String> = (0..500)
                .map(|_| {
                    let k = if rng.gen_range(0..100) < 10 {
                        "NULL".to_string()
                    } else {
                        rng.gen_range(0..25i64).to_string()
                    };
                    format!("({k}, {})", rng.gen_range(0..1000i64))
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
            db.execute(&format!("SET parallelism = {dop}")).unwrap();
            db
        };
        let serial = build(1);
        let parallel = build(4);
        for q in queries {
            let a = serial.execute(q).unwrap();
            let b = parallel.execute(q).unwrap();
            assert_eq!(sort_rows(a.rows().to_vec()), sort_rows(b.rows().to_vec()), "{q}");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests for the compiled expression path: random expression
// trees evaluated three ways — compiled ExprProgram, the reference tree
// interpreter, and the tuple-at-a-time volcano evaluator — over randomized
// NULL-bearing data. Any compile-time transformation (constant folding,
// CSE, register reuse, the fused select path) that changes semantics shows
// up as a lane mismatch.
// ---------------------------------------------------------------------------

mod expr_differential {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vectorwise::common::{ColData, SelVec, TypeId, Value};
    use vectorwise::exec::expr::{BinOp, CmpOp, Func, PhysExpr};
    use vectorwise::exec::program::{ExprProgram, SelectProgram, VectorPool};
    use vectorwise::exec::vector::{vector_from_values, Batch};
    use vectorwise::exec::Vector;
    use vectorwise::volcano::ScalarExpr;

    fn nullable_i64(vals: &[Option<i64>]) -> Vector {
        let mut v = Vector::new(ColData::new(TypeId::I64));
        for x in vals {
            v.push(&x.map_or(Value::Null, Value::I64)).unwrap();
        }
        v
    }

    /// Random i64-typed expression over columns 0 and 1, mirrored as a
    /// volcano ScalarExpr. Div/Rem denominators are nonzero constants: the
    /// NULL-denominator and zero-denominator corners have dedicated unit
    /// tests, and vectorized-vs-volcano error timing differs there by
    /// design (the kernel touches safe values the row engine never sees).
    fn gen_i64(rng: &mut SmallRng, depth: usize) -> (PhysExpr, ScalarExpr) {
        let leaf = depth == 0 || rng.gen_range(0..100) < 25;
        if leaf {
            if rng.gen_bool(0.5) {
                let c = rng.gen_range(0..2usize);
                (PhysExpr::ColRef(c, TypeId::I64), ScalarExpr::Col(c))
            } else {
                let k = rng.gen_range(-8..=8i64);
                (PhysExpr::Const(Value::I64(k), TypeId::I64), ScalarExpr::Lit(Value::I64(k)))
            }
        } else {
            let (op, ch) = match rng.gen_range(0..5) {
                0 => (BinOp::Add, '+'),
                1 => (BinOp::Sub, '-'),
                2 => (BinOp::Mul, '*'),
                3 => (BinOp::Div, '/'),
                _ => (BinOp::Rem, '%'),
            };
            let (pl, vl) = gen_i64(rng, depth - 1);
            let (pr, vr) = if matches!(op, BinOp::Div | BinOp::Rem) {
                let mut k = rng.gen_range(1..=6i64);
                if rng.gen_bool(0.5) {
                    k = -k;
                }
                (PhysExpr::Const(Value::I64(k), TypeId::I64), ScalarExpr::Lit(Value::I64(k)))
            } else {
                gen_i64(rng, depth - 1)
            };
            (
                PhysExpr::Arith { op, lhs: Box::new(pl), rhs: Box::new(pr), ty: TypeId::I64 },
                ScalarExpr::Arith(ch, Box::new(vl), Box::new(vr)),
            )
        }
    }

    /// Random boolean expression (comparisons, 3VL AND/OR/NOT).
    fn gen_bool(rng: &mut SmallRng, depth: usize) -> (PhysExpr, ScalarExpr) {
        if depth == 0 || rng.gen_range(0..100) < 40 {
            let (op, sv) = match rng.gen_range(0..6) {
                0 => (CmpOp::Eq, "="),
                1 => (CmpOp::Ne, "!="),
                2 => (CmpOp::Lt, "<"),
                3 => (CmpOp::Le, "<="),
                4 => (CmpOp::Gt, ">"),
                _ => (CmpOp::Ge, ">="),
            };
            let (pl, vl) = gen_i64(rng, depth.min(2));
            let (pr, vr) = gen_i64(rng, depth.min(2));
            (
                PhysExpr::Cmp { op, lhs: Box::new(pl), rhs: Box::new(pr) },
                ScalarExpr::Cmp(sv, Box::new(vl), Box::new(vr)),
            )
        } else {
            match rng.gen_range(0..3) {
                0 => {
                    let (pl, vl) = gen_bool(rng, depth - 1);
                    let (pr, vr) = gen_bool(rng, depth - 1);
                    (PhysExpr::And(vec![pl, pr]), ScalarExpr::And(Box::new(vl), Box::new(vr)))
                }
                1 => {
                    let (pl, vl) = gen_bool(rng, depth - 1);
                    let (pr, vr) = gen_bool(rng, depth - 1);
                    (PhysExpr::Or(vec![pl, pr]), ScalarExpr::Or(Box::new(vl), Box::new(vr)))
                }
                _ => {
                    let (p, v) = gen_bool(rng, depth - 1);
                    (PhysExpr::Not(Box::new(p)), ScalarExpr::Not(Box::new(v)))
                }
            }
        }
    }

    fn random_rows(rng: &mut SmallRng, n: usize) -> Vec<(Option<i64>, Option<i64>)> {
        (0..n)
            .map(|_| {
                let v = |rng: &mut SmallRng| {
                    if rng.gen_range(0..100) < 20 {
                        None
                    } else {
                        Some(rng.gen_range(-6..=6i64))
                    }
                };
                (v(rng), v(rng))
            })
            .collect()
    }

    fn batch_of(rows: &[(Option<i64>, Option<i64>)]) -> Batch {
        Batch::new(vec![
            nullable_i64(&rows.iter().map(|r| r.0).collect::<Vec<_>>()),
            nullable_i64(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        ])
    }

    fn volcano_eval_all(
        e: &ScalarExpr,
        rows: &[(Option<i64>, Option<i64>)],
    ) -> Result<Vec<Value>, ()> {
        rows.iter()
            .map(|&(a, b)| {
                let row =
                    vec![a.map_or(Value::Null, Value::I64), b.map_or(Value::Null, Value::I64)];
                e.eval(&row).map_err(|_| ())
            })
            .collect()
    }

    /// Core three-way check for one expression over one data set.
    fn check_three_ways(
        pe: &PhysExpr,
        ve: &ScalarExpr,
        rows: &[(Option<i64>, Option<i64>)],
        label: &str,
    ) {
        let batch = batch_of(rows);
        let interp = pe.eval(&batch);
        let prog = ExprProgram::compile(pe);
        let mut pool = VectorPool::new();
        let compiled = prog.run(&mut pool, &batch);
        let volcano = volcano_eval_all(ve, rows);
        assert_eq!(
            interp.is_err(),
            compiled.is_err(),
            "{label}: interpreter vs compiled error disagreement for {pe:?}"
        );
        assert_eq!(
            interp.is_err(),
            volcano.is_err(),
            "{label}: vectorized vs volcano error disagreement for {pe:?}"
        );
        if let (Ok(iv), Ok(vr), Ok(vol)) = (&interp, &compiled, &volcano) {
            let cv = pool.get(&batch, *vr);
            for (i, vol_val) in vol.iter().enumerate() {
                assert_eq!(
                    iv.get(i),
                    cv.get(i),
                    "{label}: interpreter vs compiled lane {i} for {pe:?}"
                );
                assert_eq!(
                    &iv.get(i),
                    vol_val,
                    "{label}: vectorized vs volcano lane {i} for {pe:?}"
                );
            }
        }
    }

    #[test]
    fn random_arithmetic_agrees_three_ways() {
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(0xa17_000 + seed);
            let rows = random_rows(&mut rng, 97);
            let (pe, ve) = gen_i64(&mut rng, 4);
            check_three_ways(&pe, &ve, &rows, "arith");
        }
    }

    #[test]
    fn random_booleans_agree_three_ways() {
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(0xb0_0100 + seed);
            let rows = random_rows(&mut rng, 83);
            let (pe, ve) = gen_bool(&mut rng, 3);
            check_three_ways(&pe, &ve, &rows, "bool");
        }
    }

    #[test]
    fn random_predicates_select_identically() {
        // The fused SelectProgram path vs the interpreter's eval_select,
        // with and without an incoming selection.
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(0x5e1_000 + seed);
            let rows = random_rows(&mut rng, 101);
            let (pe, _) = gen_bool(&mut rng, 3);
            let mut batch = batch_of(&rows);
            let interp = pe.eval_select(&batch);
            let mut sp = SelectProgram::compile(&pe);
            let mut pool = VectorPool::new();
            let compiled = sp.run(&mut pool, &batch);
            assert_eq!(interp.is_err(), compiled.is_err(), "seed {seed}: {pe:?}");
            if let (Ok(a), Ok(b)) = (&interp, &compiled) {
                assert_eq!(a.as_slice(), b.as_slice(), "seed {seed}: {pe:?}");
            }
            // Under a narrowed incoming selection.
            let sel: Vec<u32> = (0..rows.len() as u32).filter(|p| p % 3 != 1).collect();
            batch.sel = Some(SelVec::from_positions(sel));
            let interp = pe.eval_select(&batch);
            let mut pool = VectorPool::new();
            let compiled = sp.run(&mut pool, &batch);
            assert_eq!(interp.is_err(), compiled.is_err(), "seed {seed} (sel): {pe:?}");
            if let (Ok(a), Ok(b)) = (&interp, &compiled) {
                assert_eq!(a.as_slice(), b.as_slice(), "seed {seed} (sel): {pe:?}");
            }
        }
    }

    /// The function battery over a (VARCHAR, BIGINT) batch.
    fn scalar_func_exprs() -> Vec<PhysExpr> {
        let s0 = || PhysExpr::ColRef(0, TypeId::Str);
        let i1 = || PhysExpr::ColRef(1, TypeId::I64);
        let lit = |k: i64| PhysExpr::Const(Value::I64(k), TypeId::I64);
        let f = |func, args, ty| PhysExpr::FuncCall { func, args, ty };
        vec![
            f(Func::Upper, vec![s0()], TypeId::Str),
            f(Func::Lower, vec![s0()], TypeId::Str),
            f(Func::Trim, vec![s0()], TypeId::Str),
            f(Func::Length, vec![f(Func::Trim, vec![s0()], TypeId::Str)], TypeId::I64),
            f(Func::Concat, vec![s0(), f(Func::Upper, vec![s0()], TypeId::Str)], TypeId::Str),
            f(Func::Substr, vec![s0(), lit(2), lit(3)], TypeId::Str),
            f(Func::Abs, vec![i1()], TypeId::I64),
            PhysExpr::Like { input: Box::new(s0()), pattern: "%a%".into(), negated: false },
            PhysExpr::Like { input: Box::new(s0()), pattern: "_b%".into(), negated: true },
            f(
                Func::Floor,
                vec![PhysExpr::Cast { input: Box::new(i1()), to: TypeId::F64 }],
                TypeId::F64,
            ),
            PhysExpr::IsNull(Box::new(s0())),
            PhysExpr::IsNotNull(Box::new(i1())),
        ]
    }

    /// `e` with every column reference replaced by that column's value in
    /// `row`: a column-free tree the compiler will fold.
    fn bind_row(e: &PhysExpr, row: &[Value]) -> PhysExpr {
        let b = |x: &PhysExpr| Box::new(bind_row(x, row));
        let all = |xs: &[PhysExpr]| xs.iter().map(|x| bind_row(x, row)).collect();
        match e {
            PhysExpr::ColRef(i, ty) => PhysExpr::Const(row[*i].clone(), *ty),
            PhysExpr::Const(..) => e.clone(),
            PhysExpr::Arith { op, lhs, rhs, ty } => {
                PhysExpr::Arith { op: *op, lhs: b(lhs), rhs: b(rhs), ty: *ty }
            }
            PhysExpr::Cmp { op, lhs, rhs } => PhysExpr::Cmp { op: *op, lhs: b(lhs), rhs: b(rhs) },
            PhysExpr::And(xs) => PhysExpr::And(all(xs)),
            PhysExpr::Or(xs) => PhysExpr::Or(all(xs)),
            PhysExpr::Not(x) => PhysExpr::Not(b(x)),
            PhysExpr::Cast { input, to } => PhysExpr::Cast { input: b(input), to: *to },
            PhysExpr::IsNull(x) => PhysExpr::IsNull(b(x)),
            PhysExpr::IsNotNull(x) => PhysExpr::IsNotNull(b(x)),
            PhysExpr::Case { branches, else_expr, ty } => PhysExpr::Case {
                branches: branches.iter().map(|(c, v)| (*b(c), *b(v))).collect(),
                else_expr: else_expr.as_deref().map(b),
                ty: *ty,
            },
            PhysExpr::FuncCall { func, args, ty } => {
                PhysExpr::FuncCall { func: *func, args: all(args), ty: *ty }
            }
            PhysExpr::Like { input, pattern, negated } => {
                PhysExpr::Like { input: b(input), pattern: pattern.clone(), negated: *negated }
            }
        }
    }

    /// Constant folding runs a column-free tree as a one-row program. So
    /// for every shape above, binding a row's values into the tree must
    /// fold it to a single constant fill of exactly the value the unbound
    /// tree computes over that row as a one-row batch of columns — NULLs,
    /// Div/Rem signs and function results included.
    #[test]
    fn folded_constants_equal_the_one_row_program_result() {
        let check = |e: &PhysExpr, batch: &Batch| {
            let mut pool = VectorPool::new();
            let mut value_of = |p: &ExprProgram| {
                let r = p.run(&mut pool, batch).unwrap();
                pool.get(batch, r).get(0)
            };
            let over_columns = value_of(&ExprProgram::compile(e));
            let bound = bind_row(e, &batch.row_values(0));
            let folded = ExprProgram::compile(&bound);
            assert_eq!(folded.len(), 1, "one constant fill for {bound:?}");
            assert_eq!(value_of(&folded), over_columns, "{bound:?}");
        };
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(0xf01d + seed);
            let exprs = [gen_i64(&mut rng, 4).0, gen_bool(&mut rng, 3).0];
            for row in random_rows(&mut rng, 4) {
                exprs.iter().for_each(|e| check(e, &batch_of(&[row])));
            }
        }
        let rows = [
            [Value::Str(" abc ".into()), Value::I64(7)],
            [Value::Null, Value::I64(-3)],
            [Value::Str("".into()), Value::Null],
        ];
        for [s, i] in rows {
            let batch = Batch::new(vec![
                vector_from_values(TypeId::Str, &[s]).unwrap(),
                vector_from_values(TypeId::I64, &[i]).unwrap(),
            ]);
            scalar_func_exprs().iter().for_each(|e| check(e, &batch));
        }
    }

    /// Scalar functions and NULL propagation: compiled vs interpreter
    /// (volcano has no function battery) over NULL-bearing strings.
    #[test]
    fn scalar_funcs_agree_with_interpreter() {
        let mut rng = SmallRng::seed_from_u64(0xf0_0d);
        let mut sv = Vector::new(ColData::new(TypeId::Str));
        let mut iv = Vector::new(ColData::new(TypeId::I64));
        for _ in 0..64 {
            if rng.gen_range(0..100) < 20 {
                sv.push(&Value::Null).unwrap();
            } else {
                let n = rng.gen_range(0..8);
                let s: String = (0..n).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect();
                sv.push(&Value::Str(format!(" {s} "))).unwrap();
            }
            if rng.gen_range(0..100) < 20 {
                iv.push(&Value::Null).unwrap();
            } else {
                iv.push(&Value::I64(rng.gen_range(-40..40))).unwrap();
            }
        }
        let batch = Batch::new(vec![sv, iv]);
        for e in &scalar_func_exprs() {
            let interp = e.eval(&batch).unwrap();
            let prog = ExprProgram::compile(e);
            let mut pool = VectorPool::new();
            let vr = prog.run(&mut pool, &batch).unwrap();
            let got = pool.get(&batch, vr);
            for i in 0..batch.capacity() {
                assert_eq!(interp.get(i), got.get(i), "{e:?} lane {i}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests for morsel-driven scheduling: the same randomized
// queries run through the full engine at DOP ∈ {1, 2, 8} and forced tiny /
// large morsel sizes, over uniform and skewed (tail-heavy) data, and are
// pitted against the serial engine and the tuple-at-a-time volcano engine.
// Plus the treacherous shutdown paths: mid-query cancellation at many-
// morsel DOP 4, and a panicking worker that shares a MorselSource.
// ---------------------------------------------------------------------------

mod morsel_differential {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vectorwise::common::{ColData, Field, Schema, TypeId, Value, VwError};
    use vectorwise::core::{bulk_load, Database};
    use vectorwise::volcano::{
        collect_rows, TupleAgg, TupleAggregate, TupleHashJoin, TupleJoinKind, TupleValues,
    };

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    fn kv_schema() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::I64)])
            .unwrap()
    }

    /// Random (k, v) rows. `skewed` clusters the data the way that broke
    /// static partitioning: the first 90% of rows use a tiny key domain
    /// and small values, the last 10% carry a wide key domain and the
    /// value mass — so nearly all groups and most aggregate work sit in
    /// the tail of the row space. ~10% NULL keys either way.
    fn gen_rows(rng: &mut SmallRng, n: usize, skewed: bool) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                let tail = skewed && i >= n * 9 / 10;
                let k = if rng.gen_range(0..100) < 10 {
                    Value::Null
                } else if skewed && !tail {
                    // Head of a skewed table: tiny key domain.
                    Value::I64(rng.gen_range(0..3i64))
                } else {
                    Value::I64(rng.gen_range(0..20i64))
                };
                let v = if tail { rng.gen_range(500..1000i64) } else { rng.gen_range(0..10i64) };
                vec![k, Value::I64(v)]
            })
            .collect()
    }

    fn load_db(rows: &[Vec<Value>], dop: usize, morsel_rows: usize) -> Arc<Database> {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
        let lits: Vec<String> = rows
            .iter()
            .map(|r| {
                let k = match &r[0] {
                    Value::Null => "NULL".to_string(),
                    Value::I64(k) => k.to_string(),
                    other => panic!("{other:?}"),
                };
                let v = match &r[1] {
                    Value::I64(v) => v.to_string(),
                    other => panic!("{other:?}"),
                };
                format!("({k}, {v})")
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", lits.join(", "))).unwrap();
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        db.execute(&format!("SET morsel_rows = {morsel_rows}")).unwrap();
        db
    }

    #[test]
    fn morsel_sql_agrees_with_serial_and_volcano_over_uniform_and_skewed_data() {
        let queries = [
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
            "SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k",
            "SELECT a.k, COUNT(*), SUM(b.v) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
            "SELECT k, SUM(v) FROM t WHERE v >= 500 GROUP BY k",
        ];
        for seed in 0..2u64 {
            for skewed in [false, true] {
                let mut rng = SmallRng::seed_from_u64(0x40_15e1 + seed);
                let rows = gen_rows(&mut rng, 600, skewed);

                // Volcano references for the first two query shapes.
                let vol_group = {
                    let mut agg = TupleAggregate::new(
                        Box::new(TupleValues::new(kv_schema(), rows.clone())),
                        vec![0],
                        vec![TupleAgg::CountStar, TupleAgg::Sum(1)],
                        Schema::unchecked(vec![
                            Field::nullable("k", TypeId::I64),
                            Field::not_null("cnt", TypeId::I64),
                            Field::nullable("sum", TypeId::I64),
                        ]),
                    );
                    sort_rows(collect_rows(&mut agg).unwrap())
                };
                let vol_join_count = {
                    let l = Box::new(TupleValues::new(kv_schema(), rows.clone()));
                    let r = Box::new(TupleValues::new(kv_schema(), rows.clone()));
                    let mut j = TupleHashJoin::with_kind(l, r, 0, 0, TupleJoinKind::Inner);
                    collect_rows(&mut j).unwrap().len() as i64
                };

                let serial = load_db(&rows, 1, 16 * 1024);
                let serial_answers: Vec<Vec<Vec<Value>>> = queries
                    .iter()
                    .map(|q| sort_rows(serial.execute(q).unwrap().rows().to_vec()))
                    .collect();
                assert_eq!(
                    serial_answers[0], vol_group,
                    "serial GROUP BY diverged from volcano (seed {seed}, skewed {skewed})"
                );
                assert_eq!(
                    serial_answers[1],
                    vec![vec![Value::I64(vol_join_count)]],
                    "serial join count diverged from volcano (seed {seed}, skewed {skewed})"
                );

                for dop in [2usize, 8] {
                    for morsel_rows in [16usize, 256] {
                        let db = load_db(&rows, dop, morsel_rows);
                        for (q, expect) in queries.iter().zip(&serial_answers) {
                            let got = sort_rows(db.execute(q).unwrap().rows().to_vec());
                            assert_eq!(
                                &got, expect,
                                "morsel run diverged (seed {seed}, skewed {skewed}, \
                                 dop {dop}, morsel_rows {morsel_rows}): {q}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mid_query_cancellation_with_shared_morsel_sources() {
        // A long self-join at DOP 4 with 64-row morsels: KILL must surface
        // VwError::Cancelled promptly even though four workers share the
        // scan dispensers mid-claim.
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
        let n = 100_000i64;
        let k = ColData::I64((0..n).map(|i| i % 100).collect());
        let v = ColData::I64((0..n).collect());
        bulk_load(&db, "big", &[k, v], &[None, None]).unwrap();
        db.execute("SET parallelism = 4").unwrap();
        db.execute("SET morsel_rows = 64").unwrap();

        let db2 = db.clone();
        let handle = std::thread::spawn(move || {
            db2.execute("SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k")
        });
        // Wait for the query to register, then kill it.
        let qid = loop {
            let running: Vec<_> = db
                .monitor
                .list_queries()
                .into_iter()
                .filter(|q| q.state == vectorwise::core::monitor::QueryState::Running)
                .collect();
            if let Some(q) = running.first() {
                break q.id;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        db.kill(qid).unwrap();
        let result = handle.join().unwrap();
        assert!(
            matches!(result, Err(VwError::Cancelled)),
            "killed morsel query must report cancellation, got {result:?}"
        );
    }

    #[test]
    fn worker_panic_with_shared_source_surfaces_as_error() {
        // Two Xchg fragments share one MorselSource; one panics
        // mid-stream. The task primitive must turn that into a VwError at
        // the consumer (not a truncated stream), and dropping the exchange
        // must reclaim the surviving fragment that keeps claiming morsels.
        use vectorwise::exec::cancel::CancelToken;
        use vectorwise::exec::morsel::MorselSource;
        use vectorwise::exec::op::{BoxedOp, Operator, VectorScan, Xchg};
        use vectorwise::exec::vector::Batch;
        use vectorwise::storage::{BufferPool, SimulatedDisk, TableStorage};

        struct PanicAfter {
            inner: BoxedOp,
            batches: usize,
        }
        impl Operator for PanicAfter {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn name(&self) -> &'static str {
                "PanicAfter"
            }
            fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
                if self.batches == 0 {
                    panic!("worker exploded between morsel claims");
                }
                self.batches -= 1;
                self.inner.next()
            }
        }

        let pool = BufferPool::new(SimulatedDisk::instant(), 16 << 20);
        let schema = Schema::new(vec![Field::not_null("x", TypeId::I64)]).unwrap();
        let mut t = TableStorage::new(pool, schema);
        t.append_columns(&[ColData::I64((0..20_000).collect())], &[None], 1024).unwrap();
        let table = Arc::new(t);

        let source = MorselSource::new(vectorwise::pdt::treap::stable_image(20_000), 64);
        let cancel = CancelToken::new();
        let mk_scan = || {
            let scan = VectorScan::with_source(
                table.clone(),
                vec![0],
                source.clone(),
                128,
                cancel.clone(),
            );
            Box::new(scan)
        };
        let parts: Vec<BoxedOp> =
            vec![Box::new(PanicAfter { inner: mk_scan(), batches: 2 }), mk_scan()];
        let workers = vectorwise::exec::partition::WorkerPool::new(2);
        let mut x = Xchg::spawn_on(&workers, parts, cancel);
        let mut saw_panic_error = false;
        loop {
            match x.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(VwError::Exec(msg)) => {
                    assert!(msg.contains("panicked"), "{msg}");
                    assert!(msg.contains("worker exploded"), "{msg}");
                    saw_panic_error = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_panic_error, "worker panic must surface as VwError::Exec");
        drop(x); // must not deadlock while the sibling still claims
        assert_eq!(workers.queued(), 0);
    }
}

mod spill_differential {
    //! The memory governor under randomized SQL: a budget several times
    //! smaller than the hash build state forces grace spilling through
    //! joins and GROUP BYs, whose answers must match the unbounded run and
    //! the volcano reference exactly — plus a mid-spill KILL that must
    //! surface `Cancelled` and reclaim every temp spill block.

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vectorwise::common::{ColData, Field, Schema, TypeId, Value, VwError};
    use vectorwise::core::{bulk_load, Database};
    use vectorwise::volcano::{
        collect_rows, TupleAgg, TupleAggregate, TupleHashJoin, TupleJoinKind, TupleValues,
    };

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    fn kv_schema() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::I64), Field::nullable("v", TypeId::I64)])
            .unwrap()
    }

    /// Random (k, v) rows with ~10% NULL keys over a key domain wide
    /// enough that the join build and the group state dwarf a small
    /// budget.
    fn gen_rows(rng: &mut SmallRng, n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|_| {
                let k = if rng.gen_range(0..100) < 10 {
                    Value::Null
                } else {
                    Value::I64(rng.gen_range(0..200i64))
                };
                vec![k, Value::I64(rng.gen_range(0..1000i64))]
            })
            .collect()
    }

    fn load_db(rows: &[Vec<Value>], dop: usize, mem_budget: usize) -> Arc<Database> {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
        let lits: Vec<String> = rows
            .iter()
            .map(|r| {
                let k = match &r[0] {
                    Value::Null => "NULL".to_string(),
                    Value::I64(k) => k.to_string(),
                    other => panic!("{other:?}"),
                };
                let v = match &r[1] {
                    Value::I64(v) => v.to_string(),
                    other => panic!("{other:?}"),
                };
                format!("({k}, {v})")
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", lits.join(", "))).unwrap();
        db.execute(&format!("SET parallelism = {dop}")).unwrap();
        db.execute(&format!("SET mem_budget = {mem_budget}")).unwrap();
        db
    }

    #[test]
    fn spilled_sql_agrees_with_unbounded_and_volcano() {
        let queries = [
            "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY k",
            "SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k",
            "SELECT a.k, COUNT(*), SUM(b.v) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
            "SELECT COUNT(*) FROM t WHERE k NOT IN (SELECT k FROM t WHERE v > 990)",
        ];
        for seed in 0..2u64 {
            let mut rng = SmallRng::seed_from_u64(0x5b111 + seed);
            let rows = gen_rows(&mut rng, 800);

            // Volcano references for the first two query shapes.
            let vol_group = {
                let mut agg = TupleAggregate::new(
                    Box::new(TupleValues::new(kv_schema(), rows.clone())),
                    vec![0],
                    vec![TupleAgg::CountStar, TupleAgg::Sum(1)],
                    Schema::unchecked(vec![
                        Field::nullable("k", TypeId::I64),
                        Field::not_null("cnt", TypeId::I64),
                        Field::nullable("sum", TypeId::I64),
                    ]),
                );
                sort_rows(collect_rows(&mut agg).unwrap())
            };
            let vol_join_count = {
                let l = Box::new(TupleValues::new(kv_schema(), rows.clone()));
                let r = Box::new(TupleValues::new(kv_schema(), rows.clone()));
                let mut j = TupleHashJoin::with_kind(l, r, 0, 0, TupleJoinKind::Inner);
                collect_rows(&mut j).unwrap().len() as i64
            };

            // The unbounded engine is the primary reference.
            let unbounded = load_db(&rows, 1, 0);
            let expected: Vec<Vec<Vec<Value>>> = queries
                .iter()
                .map(|q| sort_rows(unbounded.execute(q).unwrap().rows().to_vec()))
                .collect();
            {
                let group = sort_rows(
                    unbounded
                        .execute("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k")
                        .unwrap()
                        .rows()
                        .to_vec(),
                );
                assert_eq!(group, vol_group, "unbounded GROUP BY diverged from volcano");
            }
            assert_eq!(
                expected[1],
                vec![vec![Value::I64(vol_join_count)]],
                "unbounded join count diverged from volcano (seed {seed})"
            );

            // A build of ~800 rows × 2 BIGINT columns is tens of KB of
            // staged state: a 2 KB budget forces deep spilling, a 16 KB
            // one partial spilling.
            for dop in [1usize, 4] {
                for budget in [2 * 1024usize, 16 * 1024] {
                    let db = load_db(&rows, dop, budget);
                    for (q, expect) in queries.iter().zip(&expected) {
                        let got = sort_rows(db.execute(q).unwrap().rows().to_vec());
                        assert_eq!(
                            &got, expect,
                            "spilled run diverged (seed {seed}, dop {dop}, budget {budget}): {q}"
                        );
                    }
                    // Only table blocks remain: every temp spill file must
                    // be gone once the queries finish. The unbounded db is
                    // an identically loaded instance that never spilled,
                    // so its disk usage is the table baseline.
                    assert_eq!(
                        db.disk().used_bytes(),
                        unbounded.disk().used_bytes(),
                        "spill blocks leaked (seed {seed}, dop {dop}, budget {budget})"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_spill_kill_cancels_and_reclaims_temp_space() {
        // A self-join whose build is far over a tiny budget, killed while
        // it spills: the query must surface Cancelled and every temp spill
        // block must be freed (tables stay).
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE big (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
        let n = 200_000i64;
        let k = ColData::I64((0..n).map(|i| i % 5000).collect());
        let v = ColData::I64((0..n).collect());
        bulk_load(&db, "big", &[k, v], &[None, None]).unwrap();
        db.execute("SET mem_budget = 8192").unwrap();
        let baseline = db.disk().used_bytes();

        let db2 = db.clone();
        let handle = std::thread::spawn(move || {
            db2.execute("SELECT COUNT(*) FROM big a JOIN big b ON a.k = b.k")
        });
        // Bounded poll: the join takes seconds under this budget, but if
        // the spill path ever gets fast enough to finish first, fail with
        // a message instead of spinning forever.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let qid = loop {
            let running: Vec<_> = db
                .monitor
                .list_queries()
                .into_iter()
                .filter(|q| q.state == vectorwise::core::monitor::QueryState::Running)
                .collect();
            if let Some(q) = running.first() {
                break q.id;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "query never observed Running; grow the input so the kill lands mid-spill"
            );
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        db.kill(qid).unwrap();
        let result = handle.join().unwrap();
        assert!(
            matches!(result, Err(VwError::Cancelled)),
            "killed spilling query must report cancellation, got {result:?}"
        );
        assert_eq!(
            db.disk().used_bytes(),
            baseline,
            "temp spill blocks must be reclaimed when the killed query unwinds"
        );
    }
}

// ---------------------------------------------------------------------------
// Differential tests for the optimizer (PR 8): multi-join and filtered
// queries over NULL-bearing data answered three ways — planned from fresh
// statistics (`SET optimizer = 1`), planned without them (`SET optimizer =
// 0`: default selectivities, which may pick other join orders and build
// sides), and by the tuple-at-a-time volcano path (HEAP twin tables) — at
// DOP 1 and 4. Join reordering, build-side swaps, filter pushdown into
// zone-map hints and join-aware column pruning must all be invisible in
// the answers.
// ---------------------------------------------------------------------------

mod optimizer_differential {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vectorwise::common::{EngineConfig, Value};
    use vectorwise::core::Database;
    use vectorwise::storage::SimulatedDisk;

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    /// A star schema (`fact` referencing `dim1`/`dim2`) materialized twice:
    /// as VECTORWISE tables and as HEAP twins (`*_h`) holding identical
    /// NULL-bearing data, so the same query text can be answered by both
    /// engines. CHECKPOINT builds real statistics for the cost model.
    fn star_db(seed: u64) -> Arc<Database> {
        let db = Database::open_in_memory();
        for (name, ty) in [("fact", "VECTORWISE"), ("fact_h", "HEAP")] {
            db.execute(&format!(
                "CREATE TABLE {name} (k1 BIGINT, k2 BIGINT, v BIGINT) WITH TYPE = {ty}"
            ))
            .unwrap();
        }
        for (name, ty) in
            [("dim1", "VECTORWISE"), ("dim1_h", "HEAP"), ("dim2", "VECTORWISE"), ("dim2_h", "HEAP")]
        {
            db.execute(&format!(
                "CREATE TABLE {name} (k BIGINT NOT NULL, a BIGINT) WITH TYPE = {ty}"
            ))
            .unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(0x0b71 ^ seed);
        let opt = |rng: &mut SmallRng, null_pct: u32, hi: i64| {
            if rng.gen_range(0..100) < null_pct {
                "NULL".to_string()
            } else {
                rng.gen_range(0..hi).to_string()
            }
        };
        let facts: Vec<String> = (0..400)
            .map(|_| {
                format!(
                    "({}, {}, {})",
                    opt(&mut rng, 10, 40),
                    opt(&mut rng, 10, 8),
                    opt(&mut rng, 5, 1000)
                )
            })
            .collect();
        let dim1: Vec<String> =
            (0..40).map(|k| format!("({k}, {})", opt(&mut rng, 10, 100))).collect();
        let dim2: Vec<String> =
            (0..8).map(|k| format!("({k}, {})", opt(&mut rng, 10, 5))).collect();
        for (t, lits) in [("fact", &facts), ("dim1", &dim1), ("dim2", &dim2)] {
            db.execute(&format!("INSERT INTO {t} VALUES {}", lits.join(", "))).unwrap();
            db.execute(&format!("INSERT INTO {t}_h VALUES {}", lits.join(", "))).unwrap();
        }
        db.execute("CHECKPOINT").unwrap();
        db
    }

    #[test]
    fn multi_join_filtered_queries_agree_across_optimizer_dop_and_volcano() {
        // Each query exists in a VECTORWISE and a HEAP spelling; the heap
        // twin is the volcano reference answer.
        let queries = [
            "SELECT COUNT(*), SUM(f.v) FROM fact@ f \
             JOIN dim1@ d1 ON f.k1 = d1.k JOIN dim2@ d2 ON f.k2 = d2.k \
             WHERE d1.a > 50 AND f.v < 900",
            "SELECT d2.a, COUNT(*), SUM(f.v) FROM fact@ f \
             JOIN dim1@ d1 ON f.k1 = d1.k JOIN dim2@ d2 ON f.k2 = d2.k \
             WHERE f.v >= 100 GROUP BY d2.a",
            "SELECT COUNT(*) FROM fact@ f LEFT JOIN dim1@ d1 ON f.k1 = d1.k \
             WHERE f.v < 500",
            "SELECT COUNT(*) FROM fact@ WHERE k1 NOT IN (SELECT k FROM dim1@ WHERE a > 70)",
        ];
        for seed in 0..3u64 {
            let db = star_db(seed);
            for q in queries {
                let volcano = {
                    db.execute("SET optimizer = 0").unwrap();
                    let heap_q = q.replace("@", "_h");
                    sort_rows(db.execute(&heap_q).unwrap().rows().to_vec())
                };
                for dop in [1usize, 4] {
                    db.execute(&format!("SET parallelism = {dop}")).unwrap();
                    for optimizer in [0, 1] {
                        db.execute(&format!("SET optimizer = {optimizer}")).unwrap();
                        let got =
                            sort_rows(db.execute(&q.replace("@", "")).unwrap().rows().to_vec());
                        assert_eq!(
                            got, volcano,
                            "optimizer={optimizer} dop={dop} seed={seed} diverged from \
                             volcano: {q}"
                        );
                    }
                }
            }
        }
    }

    /// Zone-map safety: with tiny packs and clustered keys, pushed-down
    /// range predicates turn into MinMax hints that skip most packs. The
    /// skipping must never change answers — compare plans with and without
    /// statistics against the volcano twin over multi-pack data.
    #[test]
    fn zone_map_skips_over_multi_pack_data_are_answer_preserving() {
        // 256-row packs: 4000 rows => ~16 packs.
        let cfg = EngineConfig { pack_size: 256, ..EngineConfig::default() };
        let db = Database::open_with(cfg, SimulatedDisk::instant());
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT) WITH TYPE = VECTORWISE").unwrap();
        db.execute("CREATE TABLE t_h (k BIGINT NOT NULL, v BIGINT) WITH TYPE = HEAP").unwrap();
        db.execute("CREATE TABLE d (k BIGINT NOT NULL, lbl BIGINT) WITH TYPE = VECTORWISE")
            .unwrap();
        db.execute("CREATE TABLE d_h (k BIGINT NOT NULL, lbl BIGINT) WITH TYPE = HEAP").unwrap();
        let mut rng = SmallRng::seed_from_u64(0xfade);
        // Clustered: pack p holds keys [256p, 256p+255], so zone maps are
        // tight and a narrow range predicate skips nearly every pack.
        let rows: Vec<String> = (0..4000i64)
            .map(|k| {
                let v = if rng.gen_range(0..20) == 0 {
                    "NULL".to_string()
                } else {
                    rng.gen_range(0..100i64).to_string()
                };
                format!("({k}, {v})")
            })
            .collect();
        for chunk in rows.chunks(1000) {
            db.execute(&format!("INSERT INTO t VALUES {}", chunk.join(", "))).unwrap();
            db.execute(&format!("INSERT INTO t_h VALUES {}", chunk.join(", "))).unwrap();
        }
        let dims: Vec<String> = (0..4000i64).step_by(7).map(|k| format!("({k}, {k})")).collect();
        db.execute(&format!("INSERT INTO d VALUES {}", dims.join(", "))).unwrap();
        db.execute(&format!("INSERT INTO d_h VALUES {}", dims.join(", "))).unwrap();
        db.execute("CHECKPOINT").unwrap();

        let queries = [
            "SELECT COUNT(*), SUM(v) FROM t@ WHERE k >= 1000 AND k < 1100",
            "SELECT COUNT(*), SUM(v) FROM t@ WHERE k = 2048 OR k = 3333",
            "SELECT COUNT(*), SUM(t@.v) FROM t@ JOIN d@ ON t@.k = d@.k \
             WHERE t@.k >= 512 AND t@.k <= 768 AND d@.lbl < 4000",
        ];
        for q in queries {
            let volcano = {
                db.execute("SET optimizer = 0").unwrap();
                sort_rows(db.execute(&q.replace("@", "_h")).unwrap().rows().to_vec())
            };
            for dop in [1usize, 4] {
                db.execute(&format!("SET parallelism = {dop}")).unwrap();
                for optimizer in [0, 1] {
                    db.execute(&format!("SET optimizer = {optimizer}")).unwrap();
                    let got = sort_rows(db.execute(&q.replace("@", "")).unwrap().rows().to_vec());
                    assert_eq!(
                        got, volcano,
                        "zone-map run diverged (optimizer={optimizer} dop={dop}): {q}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests for compressed execution (PR 9): dict codes and RLE
// runs flowing through Select/Project/HashJoin/HashAggregate,
// late-materialized at emit/Sort/spill. The scan has one path, so "flat"
// is an oracle built here, two ways: HEAP twin tables (a volcano scan
// feeds the same operators flat values) against the engine's SQL answers
// over randomized NULL-bearing low- and high-cardinality string and
// clustered int data at DOP 1 and 4; and, at the operator level, the very
// batches a scan hands out fed once as they are and once after
// `Batch::ensure_flat()` through Select → Project → HashAggregate and the
// five join types — plus those join types over hand-built dictionary
// keys (shared and per-batch dictionaries), and a mem-budget run that
// proves encoded build batches round-trip through grace spill files.
// ---------------------------------------------------------------------------

mod compressed_differential {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::Arc;
    use vectorwise::common::{ColData, EngineConfig, Field, Schema, TypeId, Value};
    use vectorwise::core::Database;
    use vectorwise::exec::cancel::CancelToken;
    use vectorwise::exec::expr::PhysExpr;
    use vectorwise::exec::expr::{BinOp, CmpOp, Func};
    use vectorwise::exec::op::{
        drain, AggFunc, AggSpec, BoxedOp, HashAggregate, HashJoin, JoinType, Operator, Project,
        Select, VectorScan,
    };
    use vectorwise::exec::program::{ExprProgram, SelectProgram};
    use vectorwise::exec::vector::Batch;
    use vectorwise::exec::{StrArena, Vector};
    use vectorwise::storage::{BufferPool, SimulatedDisk, TableStorage};
    use vectorwise::volcano::{collect_rows, TupleHashJoin, TupleJoinKind, TupleValues};

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    fn kv_schema() -> Schema {
        Schema::new(vec![Field::nullable("k", TypeId::Str), Field::nullable("v", TypeId::Str)])
            .unwrap()
    }

    /// Random string-keyed rows: 10-value key domain (forced collisions
    /// and dictionary sharing), ~12% NULL keys, unique payloads.
    fn random_rows(rng: &mut SmallRng, n: usize, tag: &str) -> Vec<Vec<Value>> {
        const DOMAIN: [&str; 10] =
            ["ash", "bay", "cedar", "elm", "fir", "gum", "hazel", "ivy", "kapok", "larch"];
        (0..n)
            .map(|i| {
                let k = if rng.gen_range(0..100) < 12 {
                    Value::Null
                } else {
                    Value::Str(DOMAIN[rng.gen_range(0..DOMAIN.len())].to_string())
                };
                vec![k, Value::Str(format!("{tag}{i}"))]
            })
            .collect()
    }

    /// Serve prepared batches as an operator.
    struct Batches {
        schema: Schema,
        batches: Vec<Batch>,
        pos: usize,
    }

    impl Batches {
        fn of(schema: Schema, batches: Vec<Batch>) -> BoxedOp {
            Box::new(Batches { schema, batches, pos: 0 })
        }

        /// `rows` of [`kv_schema`] with the key column dictionary-coded
        /// the way the pack reader hands it to a scan. `shared` uses one
        /// dictionary Arc across every batch (the same-dictionary
        /// code-compare join path); otherwise each batch builds its own
        /// first-appearance dictionary (the per-pack remap fallback).
        fn dict(rows: &[Vec<Value>], chunk: usize, shared: Option<Arc<StrArena>>) -> BoxedOp {
            let batches = rows
                .chunks(chunk.max(1))
                .map(|ch| {
                    let mut dict: Vec<String> = shared
                        .as_ref()
                        .map(|d| d.iter().map(str::to_owned).collect())
                        .unwrap_or_default();
                    let mut index: HashMap<String, u32> =
                        dict.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();
                    let mut codes = Vec::with_capacity(ch.len());
                    let mut nulls = Vec::with_capacity(ch.len());
                    let mut payload = Vector::new(ColData::new(TypeId::Str));
                    for r in ch {
                        match &r[0] {
                            Value::Null => {
                                codes.push(0);
                                nulls.push(true);
                            }
                            Value::Str(s) => {
                                let c = *index.entry(s.clone()).or_insert_with(|| {
                                    dict.push(s.clone());
                                    (dict.len() - 1) as u32
                                });
                                codes.push(c);
                                nulls.push(false);
                            }
                            other => panic!("{other:?}"),
                        }
                        payload.push(&r[1]).unwrap();
                    }
                    // A batch of only-NULL keys still needs a nonempty
                    // dictionary for code 0 to index into.
                    if dict.is_empty() {
                        dict.push(String::new());
                    }
                    let arc = match &shared {
                        Some(d) if dict.len() == d.len() => d.clone(),
                        _ => Arc::new(StrArena::from_strs(dict.iter().map(String::as_str), true)),
                    };
                    let k = Vector::from_dict(codes, arc, Some(nulls));
                    assert!(k.is_encoded(), "key column must enter the join dict-coded");
                    Batch::new(vec![k, payload])
                })
                .collect();
            Batches::of(kv_schema(), batches)
        }
    }

    impl Operator for Batches {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn name(&self) -> &'static str {
            "Batches"
        }
        fn next(&mut self) -> vectorwise::common::Result<Option<Batch>> {
            if self.pos >= self.batches.len() {
                return Ok(None);
            }
            self.pos += 1;
            Ok(Some(self.batches[self.pos - 1].clone()))
        }
    }

    fn rows_of(op: &mut dyn Operator) -> Vec<Vec<Value>> {
        let out = drain(op).unwrap();
        sort_rows((0..out.rows()).map(|i| out.row_values(i)).collect())
    }

    /// `l ⋈ r` on string column `key` of both sides.
    fn str_join(l: BoxedOp, r: BoxedOp, key: usize, jt: JoinType) -> Vec<Vec<Value>> {
        let prog = || ExprProgram::compile(&PhysExpr::ColRef(key, TypeId::Str));
        let out_schema =
            if jt.emits_right() { l.schema().join(r.schema()) } else { l.schema().clone() };
        rows_of(&mut HashJoin::new(
            l,
            r,
            vec![prog()],
            vec![prog()],
            jt,
            out_schema,
            CancelToken::new(),
        ))
    }

    fn dict_join(
        left: &[Vec<Value>],
        right: &[Vec<Value>],
        jt: JoinType,
        chunk: usize,
        shared: Option<&Arc<StrArena>>,
    ) -> Vec<Vec<Value>> {
        let l = Batches::dict(left, chunk, shared.cloned());
        let r = Batches::dict(right, chunk, shared.cloned());
        str_join(l, r, 0, jt)
    }

    #[test]
    fn every_join_type_agrees_with_volcano_over_dict_coded_keys() {
        let cases = [
            (JoinType::Inner, TupleJoinKind::Inner),
            (JoinType::LeftOuter, TupleJoinKind::LeftOuter),
            (JoinType::LeftSemi, TupleJoinKind::LeftSemi),
            (JoinType::LeftAnti, TupleJoinKind::LeftAnti),
            (JoinType::NullAwareLeftAnti, TupleJoinKind::NullAwareLeftAnti),
        ];
        let domain = Arc::new(StrArena::from_strs(
            ["ash", "bay", "cedar", "elm", "fir", "gum", "hazel", "ivy", "kapok", "larch"],
            true,
        ));
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(0xd1c7 + seed);
            let left = random_rows(&mut rng, 157, "l");
            let right = random_rows(&mut rng, 93, "r");
            for (jt, kind) in cases {
                let volcano = {
                    let l = Box::new(TupleValues::new(kv_schema(), left.clone()));
                    let r = Box::new(TupleValues::new(kv_schema(), right.clone()));
                    let mut j = TupleHashJoin::with_kind(l, r, 0, 0, kind);
                    sort_rows(collect_rows(&mut j).unwrap())
                };
                for chunk in [7usize, 64] {
                    // Both sides share one dictionary Arc: the join
                    // compares codes without touching strings.
                    let same = dict_join(&left, &right, jt, chunk, Some(&domain));
                    assert_eq!(
                        same, volcano,
                        "shared-dict {jt:?} diverged (seed {seed}, chunk {chunk})"
                    );
                    // Every batch carries its own dictionary: the remap
                    // fallback must agree too.
                    let per = dict_join(&left, &right, jt, chunk, None);
                    assert_eq!(
                        per, volcano,
                        "per-batch-dict {jt:?} diverged (seed {seed}, chunk {chunk})"
                    );
                }
            }
        }
    }

    const DOMAIN: [&str; 12] = [
        "ash", "bay", "cedar", "elm", "fir", "gum", "hazel", "ivy", "kapok", "larch", "maple",
        "oak",
    ];

    fn scanned_schema() -> Schema {
        Schema::new(vec![
            Field::nullable("s", TypeId::Str),
            Field::nullable("hs", TypeId::Str),
            Field::not_null("c", TypeId::I64),
            Field::nullable("v", TypeId::I64),
        ])
        .unwrap()
    }

    /// `n` rows of [`scanned_schema`] — `s` from one 12-value domain (~10%
    /// NULL, the same dictionary in every pack), `hs` from a 25-value
    /// domain *per pack* (~8% NULL, so every pack has its own dictionary),
    /// `c` in runs of 40 (RLE; the run values in no order, since an
    /// ascending column would delta-code), `v` plain ints (~10% NULL) —
    /// stored in 256-row packs and drained through a scan with 100-row
    /// vectors, so batches straddle pack seams. Returns what the scan
    /// handed out (`read_pack_encoded`'s chunks, still coded) and the same
    /// batches after `ensure_flat()`.
    fn scanned_batches(seed: u64, n: usize) -> (Vec<Batch>, Vec<Batch>) {
        let mut rng = SmallRng::seed_from_u64(0x5ca9 ^ seed);
        let mut nulls = vec![vec![false; n]; 4];
        let s = (0..n).map(|_| DOMAIN[rng.gen_range(0..DOMAIN.len())].to_string()).collect();
        let hs = (0..n).map(|i| format!("h{:02}-{:02}", i / 256, rng.gen_range(0..25))).collect();
        let c = (0..n as i64).map(|i| (i / 40) * 7919 % 1000).collect();
        let v = (0..n).map(|_| rng.gen_range(0..1000i64)).collect();
        for (col, pct) in [(0, 10), (1, 8), (3, 10)] {
            nulls[col].iter_mut().for_each(|b| *b = rng.gen_range(0..100) < pct);
        }
        let pool = BufferPool::new(SimulatedDisk::instant(), 16 << 20);
        let mut t = TableStorage::new(pool, scanned_schema());
        let nulls: Vec<_> = nulls.into_iter().map(Some).collect();
        t.append_columns(
            &[ColData::Str(s), ColData::Str(hs), ColData::I64(c), ColData::I64(v)],
            &nulls,
            256,
        )
        .unwrap();
        let mut scan = VectorScan::new(
            Arc::new(t),
            vec![0, 1, 2, 3],
            vectorwise::pdt::treap::stable_image(n as u64),
            100,
            CancelToken::new(),
        );
        let mut coded = Vec::new();
        while let Some(b) = scan.next().unwrap() {
            coded.push(b);
        }
        for (col, what) in [(0, "s"), (1, "hs")] {
            assert!(coded.iter().any(|b| b.columns[col].dict_parts().is_some()), "{what} coded");
        }
        assert!(coded.iter().any(|b| b.columns[2].rle_runs().is_some()), "c keeps its runs");
        let flat: Vec<Batch> = coded
            .iter()
            .map(|b| {
                let mut b = b.clone();
                b.ensure_flat();
                b
            })
            .collect();
        assert!(flat.iter().all(|b| b.columns.iter().all(|c| !c.is_encoded())));
        (coded, flat)
    }

    /// Select(`pred`) → Project(s, hs, c pass through bare; `v * 2` and
    /// `UPPER(s)` read typed slices) → HashAggregate(GROUP BY `group`:
    /// COUNT(*), SUM(v * 2), MIN(UPPER(s))).
    fn select_project_aggregate(
        batches: Vec<Batch>,
        pred: &PhysExpr,
        group: &[usize],
    ) -> Vec<Vec<Value>> {
        let cancel = CancelToken::new();
        let schema = scanned_schema();
        let col = |i: usize| PhysExpr::ColRef(i, schema.fields[i].ty);
        let select = Select::new(
            Batches::of(schema.clone(), batches),
            SelectProgram::compile(pred),
            cancel.clone(),
        );
        let exprs = [
            col(0),
            col(1),
            col(2),
            PhysExpr::Arith {
                op: BinOp::Mul,
                lhs: Box::new(col(3)),
                rhs: Box::new(PhysExpr::Const(Value::I64(2), TypeId::I64)),
                ty: TypeId::I64,
            },
            PhysExpr::FuncCall { func: Func::Upper, args: vec![col(0)], ty: TypeId::Str },
        ];
        let fields: Vec<Field> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| Field::nullable(format!("p{i}"), e.type_id()))
            .collect();
        let project = Project::new(
            Box::new(select),
            exprs.iter().map(ExprProgram::compile).collect(),
            Schema::unchecked(fields.clone()),
            cancel.clone(),
        );
        let input = |i: usize| Some(ExprProgram::compile(&PhysExpr::ColRef(i, fields[i].ty)));
        let mut out_fields: Vec<Field> = group.iter().map(|&g| fields[g].clone()).collect();
        out_fields.extend(
            [TypeId::I64, TypeId::I64, TypeId::Str]
                .iter()
                .enumerate()
                .map(|(i, &ty)| Field::nullable(format!("a{i}"), ty)),
        );
        rows_of(
            &mut HashAggregate::new(
                Box::new(project),
                group.iter().map(|&g| input(g).unwrap()).collect(),
                vec![
                    AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Sum, input: input(3), out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Min, input: input(4), out_ty: TypeId::Str },
                ],
                Schema::unchecked(out_fields),
                64,
                cancel,
            )
            .unwrap(),
        )
    }

    /// The flat-vs-encoded differential, where both sides are the *same*
    /// scan output: every operator must answer alike whether a column
    /// arrives as dictionary codes / RLE runs or as plain values.
    #[test]
    fn operators_answer_alike_over_scanned_batches_coded_and_flattened() {
        let schema = scanned_schema();
        let col = |i: usize| Box::new(PhysExpr::ColRef(i, schema.fields[i].ty));
        let cmp = |op, i: usize, k: Value| {
            let ty = schema.fields[i].ty;
            PhysExpr::Cmp { op, lhs: col(i), rhs: Box::new(PhysExpr::Const(k, ty)) }
        };
        let like = PhysExpr::Like { input: col(0), pattern: "%a%".into(), negated: false };
        let upper_elm = PhysExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(PhysExpr::FuncCall {
                func: Func::Upper,
                args: vec![*col(0)],
                ty: TypeId::Str,
            }),
            rhs: Box::new(PhysExpr::Const(Value::Str("ELM".into()), TypeId::Str)),
        };
        let cases: [(PhysExpr, &[usize]); 4] = [
            // One comparison per dictionary entry; dict-coded group key.
            (cmp(CmpOp::Ge, 0, Value::Str("gum".into())), &[0]),
            // Whole RLE runs accepted or rejected, then LIKE over the
            // dictionary; dict + BIGINT keys take the general rung.
            (PhysExpr::And(vec![cmp(CmpOp::Ge, 2, Value::I64(500)), like]), &[0, 2]),
            // A union of two selections; per-pack dictionaries as keys.
            (
                PhysExpr::Or(vec![
                    cmp(CmpOp::Lt, 1, Value::Str("h02".into())),
                    cmp(CmpOp::Gt, 3, Value::I64(500)),
                ]),
                &[1],
            ),
            // An irreducible boolean program (reads `s` as typed values);
            // no keys at all.
            (upper_elm, &[]),
        ];
        for seed in 0..2u64 {
            let (coded, flat) = scanned_batches(seed, 1200);
            for (pred, group) in &cases {
                let want = select_project_aggregate(flat.clone(), pred, group);
                assert!(!want.is_empty(), "vacuous case: {pred:?}");
                let got = select_project_aggregate(coded.clone(), pred, group);
                assert_eq!(got, want, "seed {seed}: {pred:?} GROUP BY {group:?}");
            }
            // Joins on the shared-dictionary key and on the per-pack one,
            // both sides coded, both flat, and one of each.
            let (r_coded, r_flat) = scanned_batches(seed + 100, 150);
            let (l_coded, l_flat): (Vec<Batch>, Vec<Batch>) =
                (coded.into_iter().take(5).collect(), flat.into_iter().take(5).collect());
            for jt in [
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::LeftSemi,
                JoinType::LeftAnti,
                JoinType::NullAwareLeftAnti,
            ] {
                for key in [0usize, 1] {
                    let side = |b: &Vec<Batch>| Batches::of(scanned_schema(), b.clone());
                    let want = str_join(side(&l_flat), side(&r_flat), key, jt);
                    for (l, r, what) in [
                        (&l_coded, &r_coded, "coded ⋈ coded"),
                        (&l_coded, &r_flat, "coded ⋈ flat"),
                        (&l_flat, &r_coded, "flat ⋈ coded"),
                    ] {
                        let got = str_join(side(l), side(r), key, jt);
                        assert_eq!(got, want, "seed {seed}: {jt:?} on column {key}, {what}");
                    }
                }
            }
        }
    }

    /// Twin-table database: VECTORWISE tables (multi-pack, 256-row packs,
    /// so low-cardinality strings dictionary-code and the clustered int
    /// column RLE-codes in stable storage) plus HEAP twins (`*_h`) holding
    /// identical rows for the volcano reference. Columns of `t`:
    /// `s` low-cardinality string (~10% NULL), `hs` high-cardinality
    /// string (~8% NULL, stored raw), `c` NOT NULL int in runs of 40 (the
    /// run values in no order: an ascending column would delta-code, not
    /// RLE-code), `v` int values (~10% NULL).
    fn twin_db(seed: u64, rows_n: usize) -> Arc<Database> {
        let cfg = EngineConfig { pack_size: 256, ..EngineConfig::default() };
        let db = Database::open_with(cfg, SimulatedDisk::instant());
        for (name, ty) in [("t", "VECTORWISE"), ("t_h", "HEAP")] {
            db.execute(&format!(
                "CREATE TABLE {name} (s VARCHAR, hs VARCHAR, c BIGINT NOT NULL, v BIGINT) \
                 WITH TYPE = {ty}"
            ))
            .unwrap();
        }
        for (name, ty) in [("r", "VECTORWISE"), ("r_h", "HEAP")] {
            db.execute(&format!("CREATE TABLE {name} (s VARCHAR, w BIGINT) WITH TYPE = {ty}"))
                .unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(0xc0de ^ seed);
        let t_rows: Vec<String> = (0..rows_n)
            .map(|i| {
                let s = if rng.gen_range(0..100) < 10 {
                    "NULL".to_string()
                } else {
                    format!("'{}'", DOMAIN[rng.gen_range(0..DOMAIN.len())])
                };
                let hs = if rng.gen_range(0..100) < 8 {
                    "NULL".to_string()
                } else {
                    format!("'h{:04}'", rng.gen_range(0..3000))
                };
                let c = (i as i64 / 40) * 7919 % 1000;
                let v = if rng.gen_range(0..100) < 10 {
                    "NULL".to_string()
                } else {
                    rng.gen_range(0..1000i64).to_string()
                };
                format!("({s}, {hs}, {c}, {v})")
            })
            .collect();
        let r_rows: Vec<String> = (0..40)
            .map(|_| {
                let s = if rng.gen_range(0..100) < 10 {
                    "NULL".to_string()
                } else {
                    format!("'{}'", DOMAIN[rng.gen_range(0..DOMAIN.len())])
                };
                format!("({s}, {})", rng.gen_range(0..10i64))
            })
            .collect();
        for (t, lits) in [("t", &t_rows), ("r", &r_rows)] {
            for chunk in lits.chunks(500) {
                db.execute(&format!("INSERT INTO {t} VALUES {}", chunk.join(", "))).unwrap();
                db.execute(&format!("INSERT INTO {t}_h VALUES {}", chunk.join(", "))).unwrap();
            }
        }
        // Flush deltas into stable packs: that is where columns pick up
        // their dictionary / RLE encodings for the scan to hand out.
        db.execute("CHECKPOINT").unwrap();
        db
    }

    const QUERIES: [&str; 13] = [
        // Dict-coded GROUP BY, unfiltered and under a dict range filter.
        "SELECT s, COUNT(*), SUM(v) FROM t@ GROUP BY s",
        "SELECT s, COUNT(*), SUM(v) FROM t@ WHERE s >= 'gum' GROUP BY s",
        // Multi-column group keys take the general (non-code-table) resolve
        // path with dict-coded inputs — the TPC-H Q1 shape (regression:
        // the scalar insert pass once read the empty dict placeholder).
        "SELECT s, c, COUNT(*), SUM(v) FROM t@ GROUP BY s, c",
        "SELECT s, hs, COUNT(*) FROM t@ WHERE hs < 'h0200' GROUP BY s, hs",
        // LIKE over dictionary entries (one match test per distinct value).
        "SELECT COUNT(*) FROM t@ WHERE s LIKE '%a%'",
        "SELECT COUNT(*) FROM t@ WHERE s NOT LIKE '%a%'",
        // High-cardinality strings: stored raw, coded over the pack's rows.
        "SELECT COUNT(*), MIN(hs), MAX(hs) FROM t@ WHERE hs > 'h1500'",
        // RLE-coded clustered int under a range filter (whole-run skips).
        "SELECT c, COUNT(*), SUM(v) FROM t@ WHERE c >= 500 GROUP BY c",
        // Dict-keyed joins: inner, outer, semi (IN), null-aware anti.
        "SELECT COUNT(*) FROM t@ a JOIN r@ b ON a.s = b.s",
        "SELECT a.s, b.w FROM t@ a LEFT JOIN r@ b ON a.s = b.s",
        "SELECT COUNT(*) FROM t@ WHERE s IN (SELECT s FROM r@)",
        "SELECT COUNT(*) FROM t@ WHERE s NOT IN (SELECT s FROM r@ WHERE w > 5)",
        // Sort/TopN is a materialization boundary: encoded batches must
        // inflate before ordering.
        "SELECT s, v FROM t@ WHERE v > 500 ORDER BY s, v LIMIT 10",
    ];

    #[test]
    fn engine_and_volcano_twin_answers_agree_at_every_dop() {
        for seed in 0..2u64 {
            let db = twin_db(seed, 1200);
            for q in QUERIES {
                // An ORDER BY answer is compared in order, the rest as sets.
                let rows = |sql: String| {
                    let rows = db.execute(&sql).unwrap().rows().to_vec();
                    if q.contains("ORDER BY") {
                        rows
                    } else {
                        sort_rows(rows)
                    }
                };
                let volcano = rows(q.replace('@', "_h"));
                for dop in [1usize, 4] {
                    db.execute(&format!("SET parallelism = {dop}")).unwrap();
                    let got = rows(q.replace('@', ""));
                    assert_eq!(got, volcano, "dop={dop} seed={seed} diverged from volcano: {q}");
                }
            }
        }
    }

    #[test]
    fn spilled_encoded_builds_round_trip_and_match_unbounded_answers() {
        let db = twin_db(7, 1500);
        let spill_queries = [
            // Dict-keyed join and GROUP BY whose builds dwarf the budget:
            // staged (still-encoded) batches flatten into spill chunks and
            // must rehydrate to the same answers.
            "SELECT COUNT(*) FROM t a JOIN t b ON a.s = b.s",
            "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s",
            "SELECT hs, COUNT(*) FROM t GROUP BY hs",
        ];
        let unbounded: Vec<Vec<Vec<Value>>> = spill_queries
            .iter()
            .map(|q| sort_rows(db.execute(q).unwrap().rows().to_vec()))
            .collect();
        let baseline = db.disk().used_bytes();
        for budget in [2 * 1024usize, 16 * 1024] {
            db.execute(&format!("SET mem_budget = {budget}")).unwrap();
            for (q, expect) in spill_queries.iter().zip(&unbounded) {
                let got = sort_rows(db.execute(q).unwrap().rows().to_vec());
                assert_eq!(&got, expect, "spilled encoded run diverged (budget {budget}): {q}");
            }
            assert_eq!(
                db.disk().used_bytes(),
                baseline,
                "temp spill blocks must be reclaimed (budget {budget})"
            );
        }
    }

    /// `l (id, ls, v)` and its HEAP twin `l_h`, 256-row packs: `ls` long
    /// strings (~5% NULL) of which about 30% repeat one of the 40 values
    /// before them, so most repeats share a pack. The chooser stores every
    /// pack of `ls` raw, and a raw pack's arena holds its rows — equal
    /// strings under different codes. Returns the database and a repeated
    /// value of `ls`.
    fn repeats_db(seed: u64, rows_n: usize) -> (Arc<Database>, String) {
        const WORDS: [&str; 8] =
            ["amber", "brown", "cobalt", "fox", "grey", "lazy", "mauve", "quick"];
        let cfg = EngineConfig { pack_size: 256, ..EngineConfig::default() };
        let db = Database::open_with(cfg, SimulatedDisk::instant());
        for (name, ty) in [("l", "VECTORWISE"), ("l_h", "HEAP")] {
            db.execute(&format!(
                "CREATE TABLE {name} (id BIGINT NOT NULL, ls VARCHAR, v BIGINT) WITH TYPE = {ty}"
            ))
            .unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(0x1095 ^ seed);
        let (mut fresh, mut repeats): (Vec<String>, Vec<String>) = (Vec::new(), Vec::new());
        let rows: Vec<String> = (0..rows_n)
            .map(|i| {
                let ls = if rng.gen_range(0..100) < 5 {
                    "NULL".to_string()
                } else if !fresh.is_empty() && rng.gen_range(0..100) < 30 {
                    let back = rng.gen_range(0..fresh.len().min(40));
                    let s = fresh[fresh.len() - 1 - back].clone();
                    repeats.push(s.clone());
                    format!("'{s}'")
                } else {
                    let (a, b) = (rng.gen_range(0..WORDS.len()), rng.gen_range(0..WORDS.len()));
                    let pad = "-".repeat(rng.gen_range(10..30));
                    fresh.push(format!("{} {} note {i:05} {pad}", WORDS[a], WORDS[b]));
                    format!("'{}'", fresh.last().unwrap())
                };
                format!("({i}, {ls}, {})", rng.gen_range(0..1000i64))
            })
            .collect();
        for t in ["l", "l_h"] {
            for chunk in rows.chunks(500) {
                db.execute(&format!("INSERT INTO {t} VALUES {}", chunk.join(", "))).unwrap();
            }
        }
        db.execute("CHECKPOINT").unwrap();
        let share = repeats.len() as f64 / rows_n as f64;
        assert!((0.2..0.35).contains(&share), "{share} of the rows repeat a value");
        (db, repeats[repeats.len() / 2].clone())
    }

    /// Every pack of `l.ls` is a raw block: coded over a non-distinct
    /// arena of its rows, with repeats inside it.
    fn assert_stored_raw(db: &Database) {
        use vectorwise::core::catalog::TableKind;
        use vectorwise::storage::pack::EncodedChunk;
        let cat = db.catalog.read();
        let TableKind::Vectorwise { storage, .. } = &cat.get("l").unwrap().kind else {
            panic!("l is a VECTORWISE table")
        };
        let storage = storage.read().clone();
        assert!(storage.n_packs() >= 4);
        let mut repeated = 0;
        for p in 0..storage.n_packs() {
            let [EncodedChunk::Dict { dict, .. }] =
                &storage.read_pack_encoded(p, &[1]).unwrap()[..]
            else {
                panic!("pack {p}: a string chunk comes back coded")
            };
            assert!(!dict.distinct(), "pack {p} of ls is stored raw");
            let mut entries: Vec<&str> = dict.iter().filter(|e| !e.is_empty()).collect();
            let n = entries.len();
            entries.sort_unstable();
            entries.dedup();
            repeated += n - entries.len();
        }
        assert!(repeated > 100, "{repeated} repeats inside the raw arenas");
    }

    /// Raw string blocks arrive coded over arenas whose codes are not
    /// values: every operator that reads `ls` must answer as the HEAP
    /// twin does.
    #[test]
    fn non_distinct_arenas_answer_like_the_heap_twin() {
        for seed in 0..2u64 {
            let (db, repeated) = repeats_db(seed, 1200);
            assert_stored_raw(&db);
            let queries = [
                "SELECT ls, COUNT(*), SUM(v) FROM l@ GROUP BY ls".to_string(),
                "SELECT DISTINCT ls FROM l@".to_string(),
                "SELECT ls FROM l@ WHERE v < 300 UNION SELECT ls FROM l@ WHERE v > 700".to_string(),
                "SELECT a.id, b.id FROM l@ a JOIN l@ b ON a.ls = b.ls WHERE a.id < b.id"
                    .to_string(),
                "SELECT COUNT(*) FROM l@ WHERE ls IN (SELECT ls FROM l@ WHERE v < 100)".to_string(),
                "SELECT COUNT(*), MIN(id) FROM l@ WHERE ls LIKE '%fox%'".to_string(),
                "SELECT COUNT(*) FROM l@ WHERE ls NOT LIKE 'quick%'".to_string(),
                format!("SELECT id, v FROM l@ WHERE ls = '{repeated}'"),
                "SELECT COUNT(*) FROM l@ WHERE ls >= 'grey'".to_string(),
                "SELECT MIN(ls), MAX(ls), COUNT(ls) FROM l@ WHERE v < 500".to_string(),
                "SELECT ls, id FROM l@ WHERE v > 900 ORDER BY ls, id".to_string(),
            ];
            for q in &queries {
                let rows = |sql: String| {
                    let rows = db.execute(&sql).unwrap().rows().to_vec();
                    if q.contains("ORDER BY") {
                        rows
                    } else {
                        sort_rows(rows)
                    }
                };
                let heap = rows(q.replace('@', "_h"));
                assert!(!heap.is_empty() && heap[0][0] != Value::I64(0), "vacuous: {q}");
                for dop in [1usize, 4] {
                    db.execute(&format!("SET parallelism = {dop}")).unwrap();
                    let got = rows(q.replace('@', ""));
                    assert_eq!(got, heap, "dop={dop} seed={seed} diverged from the HEAP twin: {q}");
                }
            }
        }
    }

    /// The planner's view of the catalog, over the public `Database::catalog`.
    struct View<'a>(&'a Database);

    impl vectorwise::sql::CatalogView for View<'_> {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            self.0.catalog.read().get(name).map(|t| t.schema.clone())
        }

        fn table_rows(&self, name: &str) -> Option<u64> {
            use vectorwise::core::catalog::TableKind;
            match &self.0.catalog.read().get(name)?.kind {
                TableKind::Vectorwise { pdt, .. } => Some(pdt.visible_rows()),
                TableKind::Heap { store } => Some(store.read().n_rows()),
            }
        }
    }

    /// The oracle for a SELECT's result: the same statement planned under
    /// the default session's settings, compiled, and drained into one batch.
    fn drained(db: &Arc<Database>, sql: &str) -> Vec<Vec<Value>> {
        use vectorwise::sql::ast::Statement;
        let cfg = db.config();
        let stmts = vectorwise::sql::parse(sql).unwrap();
        let Statement::Select(select) = &stmts[0] else { panic!("not a SELECT: {sql}") };
        let view = View(db);
        let plan = vectorwise::sql::Binder::new(&view).bind_select(select).unwrap();
        let plan = vectorwise::sql::optimizer::optimize(plan, &view).unwrap();
        let rw = vectorwise::rewriter::RewriterConfig {
            dop: cfg.parallelism,
            parallel_threshold_rows: 10_000.0,
        };
        let plan = vectorwise::rewriter::rewrite_plan(plan, &rw);
        let mut op =
            vectorwise::core::compile::build_plan(db, &plan, &cfg, &CancelToken::new(), None)
                .unwrap();
        let out = drain(op.as_mut()).unwrap();
        (0..out.rows()).map(|i| out.row_values(i)).collect()
    }

    /// `e (k, s, v)` over three 1024-row packs: `s` PDICT-coded (12 values,
    /// ~10% NULL), then a pack of distinct strings stored raw, then PDICT
    /// again over a dictionary of its own; `v` ~10% NULL. Scanned in
    /// 256-row vectors, so every batch of pack 1 comes from one dictionary.
    /// On top, PDT deltas: modified rows in packs 2 and 3, a deleted row,
    /// and inserted rows.
    fn three_pack_db() -> Arc<Database> {
        let cfg = EngineConfig { pack_size: 1024, workers: 2, ..EngineConfig::default() };
        let db = Database::open_with(cfg, SimulatedDisk::instant());
        db.execute("CREATE TABLE e (k BIGINT NOT NULL, s VARCHAR, v BIGINT)").unwrap();
        let n = 3 * 1024;
        let mut rng = SmallRng::seed_from_u64(0x5a9e);
        let s = (0..n)
            .map(|i| match i / 1024 {
                1 => format!("u{i:05}"),
                _ => DOMAIN[rng.gen_range(0..DOMAIN.len())].to_string(),
            })
            .collect();
        let v = (0..n).map(|_| rng.gen_range(0..1000i64)).collect();
        let mut nulls = || Some((0..n).map(|_| rng.gen_range(0..100) < 10).collect());
        let nulls = [None, nulls(), nulls()];
        let cols = [ColData::I64((0..n as i64).collect()), ColData::Str(s), ColData::I64(v)];
        vectorwise::core::bulk_load(&db, "e", &cols, &nulls).unwrap();
        for dml in [
            "UPDATE e SET s = 'patched', v = 7 WHERE k >= 1500 AND k < 1510",
            "UPDATE e SET v = NULL WHERE k = 2900",
            "DELETE FROM e WHERE k = 1700",
            "INSERT INTO e VALUES (5000, 'ins', 1), (5001, NULL, NULL), (5002, 'ash', 900)",
        ] {
            db.execute(dml).unwrap();
        }
        db.execute("SET vector_size = 256").unwrap();
        db
    }

    /// A SELECT's result is the batches its plan produced: row for row what
    /// draining the same plan gives (in order at DOP 1, as a multiset at DOP
    /// 4), counted without building rows, no batch with a selection, and a
    /// PDICT column still dictionary-coded — the property that makes a
    /// large result cheap.
    #[test]
    fn a_result_is_the_plans_batches_and_reads_like_the_drained_plan() {
        let db = three_pack_db();
        let check = |r: &vectorwise::core::QueryResult, what: &str| {
            assert_eq!(r.num_rows(), r.rows().len(), "{what}: num_rows");
            assert!(r.batches().iter().all(|b| b.sel.is_none()), "{what}: a batch with a sel");
            assert!(r.batches().iter().all(|b| b.rows() > 0), "{what}: an empty batch");
        };
        let coded = |r: &vectorwise::core::QueryResult| {
            r.batches().iter().any(|b| b.columns[1].dict_parts().is_some())
        };
        let filter = "SELECT k, s, v FROM e WHERE v IS NULL OR v < 600";
        // A Limit hands out its input batches under a selection.
        let limited = format!("{filter} LIMIT 700 OFFSET 300");
        let cases = [
            (filter.to_string(), filter),
            (format!("EXPLAIN ANALYZE {filter}"), filter),
            (limited.clone(), limited.as_str()),
        ];
        for dop in [1usize, 4] {
            db.execute(&format!("SET parallelism = {dop}")).unwrap();
            for (sql, select) in &cases {
                if dop > 1 && *select == limited {
                    continue; // which rows a LIMIT keeps depends on the order
                }
                let want = drained(&db, select);
                assert!(want.len() >= 700, "{} rows: {select}", want.len());
                let nulls = |c: usize| want.iter().any(|r| r[c].is_null());
                assert!(nulls(1) && nulls(2), "NULLs in both columns: {select}");
                let r = db.execute(sql).unwrap();
                check(&r, sql);
                if dop == 1 {
                    assert_eq!(r.rows(), &want[..], "dop 1: {sql}");
                    assert!(coded(&r), "the PDICT column was flattened: {sql}");
                } else {
                    assert_eq!(sort_rows(r.rows().to_vec()), sort_rows(want), "{sql}");
                }
            }
        }
        db.execute("SET parallelism = 1").unwrap();
        let everything = db.execute("SELECT k, s, v FROM e").unwrap();
        assert_eq!(everything.num_rows(), 3 * 1024 - 1 + 3);
        assert!(coded(&everything));
        for sql in ["SELECT k, s, v FROM e LIMIT 0", "SELECT k, s, v FROM e WHERE v > 5000"] {
            assert!(drained(&db, sql).is_empty());
            let r = db.execute(sql).unwrap();
            check(&r, sql);
            assert!(r.batches().is_empty() && r.rows().is_empty(), "{sql}");
            assert_eq!(r.schema.fields.len(), 3, "{sql}: the schema survives an empty result");
        }

        // The monitor counts a result's rows; SHOW QUERIES is one batch.
        let shown = db.execute("SHOW QUERIES").unwrap();
        check(&shown, "SHOW QUERIES");
        assert_eq!(shown.batches().len(), 1);
        let counted: Vec<&Vec<Value>> =
            shown.rows().iter().filter(|r| r[2] == Value::Str(filter.into())).collect();
        assert!(!counted.is_empty(), "the filter is listed");
        let want = drained(&db, filter);
        for row in counted {
            assert_eq!(row[4], Value::I64(want.len() as i64), "{row:?}");
        }

        // INSERT … SELECT moves exactly those rows.
        db.execute("CREATE TABLE e2 (k BIGINT NOT NULL, s VARCHAR, v BIGINT)").unwrap();
        let ins = db.execute(&format!("INSERT INTO e2 {filter}")).unwrap();
        assert_eq!(ins.affected, want.len() as u64);
        assert_eq!(ins.num_rows(), 0);
        let copied = db.execute("SELECT k, s, v FROM e2").unwrap();
        check(&copied, "SELECT from the copy");
        assert_eq!(copied.rows(), &want[..]);
    }
}

/// Randomized differential tests for the PR's decorrelation and
/// set-operation paths: random NULL-bearing tables, engine SQL across
/// dop {1,4} × optimizer {0,1}, answers checked against naive Rust
/// references that spell out the SQL three-valued semantics row by row.
mod subquery_differential {
    use super::db_with;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use vectorwise::common::Value;
    use vectorwise::core::Database;

    /// Small key domain (forced collisions), ~15% NULLs per column.
    fn random_pairs(rng: &mut SmallRng, n: usize) -> Vec<(Option<i64>, Option<i64>)> {
        (0..n)
            .map(|_| {
                let v = |rng: &mut SmallRng| {
                    if rng.gen_range(0..100) < 15 {
                        None
                    } else {
                        Some(rng.gen_range(0..8i64))
                    }
                };
                (v(rng), v(rng))
            })
            .collect()
    }

    fn load(
        pairs_t: &[(Option<i64>, Option<i64>)],
        pairs_s: &[(Option<i64>, Option<i64>)],
    ) -> Arc<Database> {
        let lit = |v: Option<i64>| v.map_or("NULL".to_string(), |x| x.to_string());
        let values = |pairs: &[(Option<i64>, Option<i64>)]| {
            pairs
                .iter()
                .map(|&(a, b)| format!("({}, {})", lit(a), lit(b)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        db_with(
            "CREATE TABLE t (a BIGINT, b BIGINT); CREATE TABLE s (c BIGINT, d BIGINT)",
            &[
                &format!("INSERT INTO t VALUES {}", values(pairs_t)),
                &format!("INSERT INTO s VALUES {}", values(pairs_s)),
            ],
        )
    }

    fn pair_row(&(a, b): &(Option<i64>, Option<i64>)) -> Vec<Value> {
        let v = |x: Option<i64>| x.map_or(Value::Null, Value::I64);
        vec![v(a), v(b)]
    }

    fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// Run `sql` at every (dop, optimizer) lane and assert each matches
    /// the reference rows.
    fn assert_lanes(db: &Arc<Database>, sql: &str, expect: &[Vec<Value>], ctx: &str) {
        let expect = sort_rows(expect.to_vec());
        for dop in [1usize, 4] {
            for optimizer in [0, 1] {
                db.execute(&format!("SET parallelism = {dop}")).unwrap();
                db.execute(&format!("SET optimizer = {optimizer}")).unwrap();
                let got = sort_rows(db.execute(sql).unwrap().rows().to_vec());
                assert_eq!(
                    got, expect,
                    "{ctx} diverged from reference (dop {dop}, optimizer {optimizer}): {sql}"
                );
            }
        }
    }

    #[test]
    fn correlated_in_agrees_with_naive_reference() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0xc0_11a7 + seed);
            let t = random_pairs(&mut rng, 163);
            let s = random_pairs(&mut rng, 97);
            let db = load(&t, &s);
            // b IN (SELECT d FROM s WHERE c = a): NULLs never compare equal,
            // so a row qualifies only with non-NULL a, b and an exact match.
            let expect: Vec<Vec<Value>> = t
                .iter()
                .filter(|&&(a, b)| {
                    s.iter().any(|&(c, d)| a.is_some() && a == c && b.is_some() && b == d)
                })
                .map(pair_row)
                .collect();
            assert_lanes(
                &db,
                "SELECT a, b FROM t WHERE b IN (SELECT d FROM s WHERE c = a)",
                &expect,
                "correlated IN",
            );
        }
    }

    #[test]
    fn correlated_exists_and_not_exists_agree_with_naive_reference() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0xe7_1575 + seed);
            let t = random_pairs(&mut rng, 151);
            let s = random_pairs(&mut rng, 89);
            let db = load(&t, &s);
            // EXISTS (… WHERE c = a AND d > 3): NULL d makes the conjunct
            // UNKNOWN, which EXISTS treats as no row.
            let hit = |&(a, _): &(Option<i64>, Option<i64>)| {
                s.iter().any(|&(c, d)| a.is_some() && a == c && d.is_some_and(|d| d > 3))
            };
            let expect_e: Vec<Vec<Value>> = t.iter().filter(|r| hit(r)).map(pair_row).collect();
            let expect_ne: Vec<Vec<Value>> = t.iter().filter(|r| !hit(r)).map(pair_row).collect();
            assert_lanes(
                &db,
                "SELECT a, b FROM t WHERE EXISTS (SELECT 1 FROM s WHERE c = a AND d > 3)",
                &expect_e,
                "correlated EXISTS",
            );
            assert_lanes(
                &db,
                "SELECT a, b FROM t WHERE NOT EXISTS (SELECT 1 FROM s WHERE c = a AND d > 3)",
                &expect_ne,
                "correlated NOT EXISTS",
            );
        }
    }

    #[test]
    fn correlated_scalar_agrees_with_naive_reference() {
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0x5ca1a9 + seed);
            let t = random_pairs(&mut rng, 127);
            let s = random_pairs(&mut rng, 83);
            let db = load(&t, &s);
            // b < (SELECT SUM(d) FROM s WHERE c = a): SUM skips NULL d; a
            // group with no rows (or only NULL d) yields NULL, and a NULL
            // comparison filters the row out.
            let expect: Vec<Vec<Value>> = t
                .iter()
                .filter(|&&(a, b)| {
                    if a.is_none() || b.is_none() {
                        return false;
                    }
                    let matched: Vec<i64> =
                        s.iter().filter(|&&(c, _)| c == a).filter_map(|&(_, d)| d).collect();
                    !matched.is_empty() && b.unwrap() < matched.iter().sum::<i64>()
                })
                .map(pair_row)
                .collect();
            assert_lanes(
                &db,
                "SELECT a, b FROM t WHERE b < (SELECT SUM(d) FROM s WHERE c = a)",
                &expect,
                "correlated scalar SUM",
            );
        }
    }

    #[test]
    fn set_operations_agree_with_naive_reference() {
        // Set operations deduplicate with NULL treated as one value
        // (SQL "not distinct from" grouping, unlike `=`).
        let dedup = |rows: &[Vec<Value>]| {
            let mut seen: Vec<Vec<Value>> = Vec::new();
            for r in rows {
                if !seen.contains(r) {
                    seen.push(r.clone());
                }
            }
            seen
        };
        let column = |rows: &[(Option<i64>, Option<i64>)], i: usize| -> Vec<Vec<Value>> {
            rows.iter().map(|r| vec![pair_row(r).swap_remove(i)]).collect()
        };
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0x5e7_095 + seed);
            let t = random_pairs(&mut rng, 141);
            let s = random_pairs(&mut rng, 117);
            let db = load(&t, &s);
            assert_lanes(&db, "SELECT DISTINCT a FROM t", &dedup(&column(&t, 0)), "DISTINCT");
            // Operand pairs: one NULL-bearing column, two of them, an
            // empty right side, and two empty sides.
            let operands = [
                ("SELECT a FROM t", "SELECT d FROM s", column(&t, 0), column(&s, 1)),
                (
                    "SELECT a, b FROM t",
                    "SELECT c, d FROM s",
                    t.iter().map(pair_row).collect(),
                    s.iter().map(pair_row).collect(),
                ),
                ("SELECT a FROM t", "SELECT c FROM s WHERE c > 100", column(&t, 0), vec![]),
                ("SELECT a FROM t WHERE a > 100", "SELECT c FROM s WHERE c > 100", vec![], vec![]),
            ];
            for (lsql, rsql, l, r) in &operands {
                let union_all: Vec<Vec<Value>> = l.iter().chain(r).cloned().collect();
                let (l, r) = (dedup(l), dedup(r));
                let union = dedup(&union_all);
                let intersect: Vec<_> = l.iter().filter(|v| r.contains(v)).cloned().collect();
                let except: Vec<_> = l.iter().filter(|v| !r.contains(v)).cloned().collect();
                for (op, expect) in [
                    ("UNION", union),
                    ("UNION ALL", union_all),
                    ("INTERSECT", intersect),
                    ("EXCEPT", except),
                ] {
                    assert_lanes(&db, &format!("{lsql} {op} {rsql}"), &expect, op);
                }
            }
        }
    }

    #[test]
    fn interval_arithmetic_matches_manual_dates() {
        let db = db_with("CREATE TABLE dt (d DATE)", &["INSERT INTO dt VALUES (DATE '1996-01-31'), (DATE '1996-02-29'), (DATE '1995-12-01')"]);
        // Month arithmetic clamps to end of month; day arithmetic is exact.
        let cases = [
            (
                "SELECT d + INTERVAL '30' DAY AS x FROM dt ORDER BY x",
                vec!["1995-12-31", "1996-03-01", "1996-03-30"],
            ),
            (
                "SELECT d + INTERVAL '1' MONTH AS x FROM dt ORDER BY x",
                vec!["1996-01-01", "1996-02-29", "1996-03-29"],
            ),
            (
                "SELECT d - INTERVAL '1' YEAR AS x FROM dt ORDER BY x",
                vec!["1994-12-01", "1995-01-31", "1995-02-28"],
            ),
        ];
        for (sql, expect) in cases {
            let r = db.execute(sql).unwrap();
            let got: Vec<String> = r.rows().iter().map(|row| row[0].to_string()).collect();
            assert_eq!(got, expect, "{sql}");
        }
        // Folded at bind time: a date-literal ± interval is a plain DATE
        // literal, eligible for scan-range hints.
        let r = db
            .execute("SELECT COUNT(*) FROM dt WHERE d >= DATE '1996-01-01' - INTERVAL '31' DAY")
            .unwrap();
        assert_eq!(r.rows()[0][0], Value::I64(3));
    }
}

/// LIKE compiled into anchored pieces and searches, checked against the
/// backtracking matcher it replaced, over every form a string column takes
/// in a batch: flat (a HEAP table), coded over a PDICT dictionary (tested
/// once per entry) and coded over a raw block's arena (tested lane by
/// lane) — in WHERE, in the SELECT list, in a CASE, negated, with NULLs.
mod like_kernels {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use vectorwise::common::{ColData, EngineConfig, Value};
    use vectorwise::core::{bulk_load, Database};
    use vectorwise::storage::SimulatedDisk;

    /// The recursive matcher LIKE had before: exponential in its `%`
    /// segments, but plainly right — the oracle.
    fn like_reference(pattern: &[char], s: &str) -> bool {
        match pattern.first() {
            None => s.is_empty(),
            Some('%') => {
                let mut cs = s.chars();
                loop {
                    if like_reference(&pattern[1..], cs.as_str()) {
                        return true;
                    }
                    if cs.next().is_none() {
                        return false;
                    }
                }
            }
            Some('_') => {
                let mut cs = s.chars();
                cs.next().is_some() && like_reference(&pattern[1..], cs.as_str())
            }
            Some(&c) => s.strip_prefix(c).is_some_and(|r| like_reference(&pattern[1..], r)),
        }
    }

    const TEXT: [&str; 6] = ["a", "b", "a", "é", "日", "🦀"];
    const ROWS: usize = 2048;

    fn text(rng: &mut SmallRng, max: usize) -> String {
        (0..rng.gen_range(0..=max)).map(|_| TEXT[rng.gen_range(0..TEXT.len())]).collect()
    }

    /// `w (id, d, r)` twice: VECTORWISE in 1 024-row packs scanned in
    /// 256-row vectors — `d` drawn from 12 values (PDICT), `r` mostly
    /// distinct (raw) — and its HEAP twin `w_h`, whose strings are flat.
    fn db(seed: u64) -> (Arc<Database>, Vec<[Option<String>; 2]>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool: Vec<String> = (0..12).map(|_| text(&mut rng, 5)).collect();
        let rows: Vec<[Option<String>; 2]> = (0..ROWS)
            .map(|_| {
                let d = (rng.gen_range(0..10) > 0).then(|| pool[rng.gen_range(0..12)].clone());
                let r = (rng.gen_range(0..10) > 0).then(|| text(&mut rng, 14));
                [d, r]
            })
            .collect();
        let cfg = EngineConfig { pack_size: 1024, vector_size: 256, ..EngineConfig::default() };
        let db = Database::open_with(cfg, SimulatedDisk::instant());
        for (name, ty) in [("w", "VECTORWISE"), ("w_h", "HEAP")] {
            db.execute(&format!(
                "CREATE TABLE {name} (id BIGINT NOT NULL, d VARCHAR, r VARCHAR) WITH TYPE = {ty}"
            ))
            .unwrap();
        }
        let col = |j: usize| {
            let vals = rows.iter().map(|r| r[j].clone().unwrap_or_default()).collect();
            (ColData::Str(vals), Some(rows.iter().map(|r| r[j].is_none()).collect()))
        };
        let ((d, dn), (r, rn)) = (col(0), col(1));
        let ids = ColData::I64((0..ROWS as i64).collect());
        bulk_load(&db, "w", &[ids, d, r], &[None, dn, rn]).unwrap();
        let lit = |v: &Option<String>| v.as_ref().map_or("NULL".into(), |s| format!("'{s}'"));
        for (i, chunk) in rows.chunks(256).enumerate() {
            let values: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(j, r)| format!("({}, {}, {})", i * 256 + j, lit(&r[0]), lit(&r[1])))
                .collect();
            db.execute(&format!("INSERT INTO w_h VALUES {}", values.join(", "))).unwrap();
        }
        (db, rows)
    }

    /// Pack 0 of `w.d` is a PDICT dictionary, of `w.r` a raw block.
    fn assert_forms(db: &Database) {
        use vectorwise::core::catalog::TableKind;
        use vectorwise::storage::pack::EncodedChunk;
        let cat = db.catalog.read();
        let TableKind::Vectorwise { storage, .. } = &cat.get("w").unwrap().kind else {
            panic!("w is a VECTORWISE table")
        };
        let storage = storage.read().clone();
        let distinct = |c: usize| match &storage.read_pack_encoded(0, &[c]).unwrap()[..] {
            [EncodedChunk::Dict { dict, .. }] => dict.distinct(),
            _ => panic!("a string chunk comes back coded"),
        };
        assert!(distinct(1), "w.d is stored PDICT");
        assert!(!distinct(2), "w.r is stored raw");
    }

    #[test]
    fn like_agrees_with_the_backtracking_matcher_on_flat_pdict_and_raw_columns() {
        const PAT: [&str; 8] = ["%", "_", "a", "b", "é", "日", "🦀", "%"];
        for seed in 0..2u64 {
            let (db, rows) = db(0x11ce ^ seed);
            assert_forms(&db);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..12 {
                let pattern: String =
                    (0..rng.gen_range(0..7)).map(|_| PAT[rng.gen_range(0..PAT.len())]).collect();
                let chars: Vec<char> = pattern.chars().collect();
                for (j, c) in ["d", "r"].into_iter().enumerate() {
                    // Per row: NULL, or whether the value matches.
                    let want: Vec<Option<bool>> = rows
                        .iter()
                        .map(|r| r[j].as_deref().map(|s| like_reference(&chars, s)))
                        .collect();
                    let ids = |keep: bool| -> Vec<Vec<Value>> {
                        (0..ROWS)
                            .filter(|&i| want[i] == Some(keep))
                            .map(|i| vec![Value::I64(i as i64)])
                            .collect()
                    };
                    let truth = |b: Option<bool>| b.map_or(Value::Null, Value::Bool);
                    let cases: [(String, Vec<Vec<Value>>); 4] = [
                        (format!("SELECT id FROM @ WHERE {c} LIKE '{pattern}'"), ids(true)),
                        (format!("SELECT id FROM @ WHERE {c} NOT LIKE '{pattern}'"), ids(false)),
                        (
                            format!("SELECT id, {c} LIKE '{pattern}' FROM @"),
                            (0..ROWS).map(|i| vec![Value::I64(i as i64), truth(want[i])]).collect(),
                        ),
                        (
                            format!(
                                "SELECT id, CASE WHEN {c} NOT LIKE '{pattern}' THEN 'no' \
                                 WHEN {c} LIKE '{pattern}' THEN 'yes' END FROM @"
                            ),
                            (0..ROWS)
                                .map(|i| {
                                    let v = match want[i] {
                                        Some(true) => Value::Str("yes".into()),
                                        Some(false) => Value::Str("no".into()),
                                        None => Value::Null,
                                    };
                                    vec![Value::I64(i as i64), v]
                                })
                                .collect(),
                        ),
                    ];
                    for (sql, want) in &cases {
                        for table in ["w", "w_h"] {
                            let sql = format!("{} ORDER BY id", sql.replace('@', table));
                            let got = db.execute(&sql).unwrap().rows().to_vec();
                            assert!(got == *want, "seed {seed}: {sql}");
                        }
                    }
                }
            }
        }
    }

    /// String functions, IN lists, comparisons, casts and CASE read coded
    /// lanes where they lie and write one arena per vector — per arena
    /// entry over a PDICT dictionary, per lane over a raw arena: every
    /// operator that consumes their results answers as the HEAP twin.
    #[test]
    fn string_kernels_answer_like_the_heap_twin_on_pdict_and_raw_columns() {
        let (db, _) = db(0x57ee);
        assert_forms(&db);
        let queries = [
            "SELECT id, UPPER(@), LOWER(@), TRIM(@), LENGTH(@) FROM t",
            "SELECT id, SUBSTR(@, 2, 3), SUBSTR(@, 3), CONCAT(@, 'é'), CONCAT(d, r) FROM t",
            "SELECT id, REPLACE(@, 'a', '日日'), REPLACE(@, r, 'x'), CONCAT(@, CAST(id AS VARCHAR)) FROM t",
            "SELECT id FROM t WHERE SUBSTR(@, 1, 1) IN ('a', 'é', '🦀')",
            "SELECT id FROM t WHERE UPPER(@) IN ('AB', 'A', '', 'BÉ') OR @ IN ('b', 'ba')",
            "SELECT id, CASE WHEN @ < 'b' THEN UPPER(@) WHEN @ = '' THEN 'empty' ELSE @ END FROM t",
            "SELECT id, @ = d, @ > r, CONCAT(CAST(LENGTH(@) AS VARCHAR), @) FROM t",
            "SELECT id FROM t WHERE CAST(CAST(id AS VARCHAR) AS BIGINT) = id AND @ <> UPPER(@)",
            "SELECT SUBSTR(@, 1, 2), COUNT(*), MIN(@), MAX(UPPER(@)) FROM t GROUP BY SUBSTR(@, 1, 2)",
            "SELECT SUM(CASE WHEN @ = 'a' THEN 1 ELSE 0 END), COUNT(@) FROM t WHERE id % 3 = 1",
            "SELECT a.id, b.id FROM t a JOIN t b ON UPPER(a.@) = SUBSTR(b.r, 1, 3) \
             WHERE a.id < 300 AND b.id < 300",
        ];
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        for q in queries {
            for c in ["d", "r"] {
                let q = q.replace('@', c);
                let heap = sorted(db.execute(&q.replace(" t", " w_h")).unwrap().rows().to_vec());
                let got = sorted(db.execute(&q.replace(" t", " w")).unwrap().rows().to_vec());
                assert!(!heap.is_empty(), "vacuous: {q}");
                assert!(got == heap, "{q} diverged from the HEAP twin");
            }
        }
    }

    /// Backtracking tries every way to place the `%a` segments among the
    /// row's `a`s; pieces found left to right do one pass per row.
    #[test]
    fn a_like_with_many_percent_segments_is_linear_in_the_row() {
        const ROWS: usize = 10_000;
        let db = Database::open_in_memory();
        for (name, ty) in [("a", "VECTORWISE"), ("a_h", "HEAP")] {
            db.execute(&format!("CREATE TABLE {name} (s VARCHAR NOT NULL) WITH TYPE = {ty}"))
                .unwrap();
        }
        // Two hundred `a`s, a few with a marker the patterns look for.
        let rows: Vec<String> = (0..ROWS)
            .map(|i| if i % 1000 == 7 { format!("{}b", "a".repeat(199)) } else { "a".repeat(200) })
            .collect();
        bulk_load(&db, "a", &[ColData::Str(rows.clone())], &[None]).unwrap();
        for chunk in rows.chunks(500) {
            let values: Vec<String> = chunk.iter().map(|s| format!("('{s}')")).collect();
            db.execute(&format!("INSERT INTO a_h VALUES {}", values.join(", "))).unwrap();
        }
        for (pattern, want) in [
            ("%a%a%a%a%a%a%ab", 10),
            ("%a%a%a%a%a%a%b%", 10),
            ("_%a%a%a_a%a%a%a_", 10_000),
            ("%a%a%a%a%a%a%a", 9_990),
        ] {
            for table in ["a", "a_h"] {
                let sql = format!("SELECT COUNT(*) FROM {table} WHERE s LIKE '{pattern}'");
                let t = Instant::now();
                let got = db.execute(&sql).unwrap().rows().to_vec();
                assert_eq!(got, vec![vec![Value::I64(want)]], "{sql}");
                assert!(t.elapsed() < Duration::from_secs(1), "{sql}: {:?}", t.elapsed());
            }
        }
    }
}

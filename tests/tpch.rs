//! TPC-H golden-file harness (SLT style).
//!
//! One `tests/tpch_golden/qNN.slt` per TPC-H query, run against the pinned
//! deterministic micro-scale instance from `vw_bench::tpch::load_tpch_micro`
//! (seed 1). Each file holds three `----`-separated sections:
//!
//! ```text
//! # comments
//! SELECT ...            -- the query (possibly TPC-H-rewritten; see notes)
//! ----
//! a|b|1234.5678         -- expected rows, |-separated, floats at %.4f
//! ----
//! Sort ...              -- expected EXPLAIN, pinned lane only
//! ```
//!
//! A file whose expected section is a single `error: <substring>` line
//! documents a construct the engine deliberately rejects — the harness then
//! asserts the typed `E_UNSUPPORTED` message instead of rows.
//!
//! Every query runs across **4 lanes**: dop {1,4} × optimizer {0,1}. Rows
//! must match in every lane (floats compared with a print-granularity
//! tolerance); the EXPLAIN text is byte-compared at the pinned lane
//! (dop=1, optimizer=1) only, since its estimates come from statistics.
//! In every lane the query also runs as `EXPLAIN ANALYZE`, which must
//! return the same rows, count them on its root line, and render the
//! lane's `EXPLAIN` once its measured suffixes are cut off.
//! The instance is bulk loaded, so its statistics are fresh: the
//! `optimizer = 1` lanes plan from them, and the `optimizer = 0` lanes run
//! the same pass list without them (default selectivities, unique join
//! keys — what any table's DML since its last CHECKPOINT leaves). Those
//! lanes check that answers do not depend on statistics, whatever join
//! order and build sides the defaults pick.
//!
//! The run prints `N of 22 pass`, writes a per-query × per-lane pass
//! matrix to `target/tpch_pass_matrix.tsv` (uploaded as a CI artifact),
//! and fails if N drops below [`FLOOR`].
//!
//! Regenerate goldens with `VW_TPCH_BLESS=1 cargo test --test tpch`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use vectorwise::common::Value;
use vectorwise::core::Database;
use vw_bench::tpch::load_tpch_micro;

/// Committed floor: the run fails if fewer queries pass all 4 lanes. All
/// 22 do (q16 and q21 as pinned rejections), so any regression is red.
const FLOOR: usize = 22;

/// The pinned data seed. Changing it invalidates every golden.
const SEED: u64 = 1;

/// The 4 execution lanes: (dop, optimizer).
const LANES: [(usize, usize); 4] = [(1, 0), (1, 1), (4, 0), (4, 1)];

/// The lane whose EXPLAIN output is committed as the golden.
const PINNED: (usize, usize) = (1, 1);

struct Golden {
    path: PathBuf,
    /// Leading `#` comment lines, preserved verbatim by bless.
    header: Vec<String>,
    sql: String,
    /// `Ok(rows)` or `Err(substring)` for deliberate-rejection goldens.
    expect: std::result::Result<Vec<String>, String>,
    explain: String,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/tpch_golden")
}

fn parse_golden(path: PathBuf) -> Golden {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut header = Vec::new();
    let mut sql = Vec::new();
    let mut rows = Vec::new();
    let mut explain = Vec::new();
    let mut section = 0;
    for line in text.lines() {
        if line == "----" {
            section += 1;
            continue;
        }
        match section {
            0 => {
                if sql.is_empty() && (line.starts_with('#') || line.is_empty()) {
                    header.push(line.to_string());
                } else {
                    sql.push(line.to_string());
                }
            }
            1 => rows.push(line.to_string()),
            _ => explain.push(line.to_string()),
        }
    }
    let expect = match rows.first().and_then(|l| l.strip_prefix("error: ")) {
        Some(msg) => Err(msg.to_string()),
        None => Ok(rows),
    };
    Golden { path, header, sql: sql.join("\n"), expect, explain: explain.join("\n") }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::F64(x) => format!("{x:.4}"),
        other => other.to_string(),
    }
}

fn fmt_rows(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| r.iter().map(fmt_value).collect::<Vec<_>>().join("|")).collect()
}

/// Cell equality with float tolerance: printed `%.4f` granularity plus
/// relative slack for dop-dependent reassociation of float aggregates.
fn cells_eq(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1.5e-4 + 1e-9 * y.abs().max(1.0),
        _ => false,
    }
}

fn rows_eq(actual: &[String], expected: &[String]) -> bool {
    actual.len() == expected.len()
        && actual.iter().zip(expected).all(|(a, e)| {
            let (ac, ec): (Vec<_>, Vec<_>) = (a.split('|').collect(), e.split('|').collect());
            ac.len() == ec.len() && ac.iter().zip(&ec).all(|(x, y)| cells_eq(x, y))
        })
}

fn set_lane(db: &Arc<Database>, (dop, optimizer): (usize, usize)) {
    db.execute(&format!("SET parallelism = {dop}")).unwrap();
    db.execute(&format!("SET optimizer = {optimizer}")).unwrap();
}

fn bless(db: &Arc<Database>, goldens: &[Golden]) {
    for g in goldens {
        set_lane(db, PINNED);
        let mut out = String::new();
        for line in &g.header {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&g.sql);
        out.push_str("\n----\n");
        match db.execute(&g.sql) {
            Ok(r) => {
                for row in fmt_rows(r.rows()) {
                    out.push_str(&row);
                    out.push('\n');
                }
                let e = db.execute(&format!("EXPLAIN {}", g.sql)).unwrap();
                out.push_str("----\n");
                out.push_str(e.text.as_deref().unwrap().trim_end());
                out.push('\n');
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
        std::fs::write(&g.path, out).unwrap();
        println!("blessed {:?}", g.path.file_name().unwrap());
    }
}

/// `EXPLAIN ANALYZE` of `sql` in the current lane, against the plain
/// run's `rows`: the same rows, a root `actual=` that counts them, and —
/// every ` actual=` suffix cut off — exactly the lane's `EXPLAIN` text.
fn check_analyze(db: &Arc<Database>, sql: &str, rows: &[String]) -> Result<(), String> {
    let analyzed = db.execute(&format!("EXPLAIN ANALYZE {sql}")).map_err(|e| e.to_string())?;
    let text = analyzed.text.as_deref().unwrap();
    if !rows_eq(&fmt_rows(analyzed.rows()), rows) {
        return Err("returned other rows".into());
    }
    let root = text.lines().next().unwrap_or_default();
    let actual = root.split(" actual=").nth(1).and_then(|s| s.split(' ').next());
    if actual != Some(rows.len().to_string().as_str()) {
        return Err(format!("root line `{root}` does not count {} rows", rows.len()));
    }
    let stripped: String =
        text.lines().map(|l| format!("{}\n", l.split(" actual=").next().unwrap())).collect();
    let explain = db.execute(&format!("EXPLAIN {sql}")).unwrap().text.unwrap();
    if stripped != explain {
        return Err(format!(
            "stripped drifts from EXPLAIN\n--- EXPLAIN\n{explain}--- stripped\n{stripped}"
        ));
    }
    Ok(())
}

/// Satellite: every TPC-H construct the engine still rejects must fail
/// with a typed `E_UNSUPPORTED` naming the exact construct — not a parse
/// error, not a wrong answer.
#[test]
fn unsupported_tpch_constructs_name_the_offender() {
    let db = Database::open_in_memory();
    load_tpch_micro(&db, SEED);
    let cases: &[(&str, &str)] = &[
        // Q16's COUNT(DISTINCT ps_suppkey).
        (
            "SELECT COUNT(DISTINCT ps_suppkey) FROM partsupp",
            "E_UNSUPPORTED: unsupported: DISTINCT aggregates (COUNT(DISTINCT ...))",
        ),
        // Q21's inner EXISTS correlates on an inequality.
        (
            "SELECT s_name FROM supplier WHERE EXISTS \
             (SELECT 1 FROM lineitem WHERE l_suppkey <> s_suppkey)",
            "E_UNSUPPORTED: unsupported: correlated predicate that is not an equality \
             (only `outer = inner` correlation decorrelates to a hash join)",
        ),
        // Window functions (the usual Q17/Q2 rewrite target).
        (
            "SELECT RANK() OVER (ORDER BY s_acctbal) FROM supplier",
            "E_UNSUPPORTED: unsupported: window functions (RANK(...) OVER)",
        ),
        // Correlated NOT IN has anti-join NULL semantics the decorrelator
        // refuses to guess at.
        (
            "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN \
             (SELECT l_orderkey FROM lineitem WHERE l_suppkey = o_custkey)",
            "E_UNSUPPORTED: unsupported: correlated NOT IN subquery (rewrite as NOT EXISTS)",
        ),
        // Correlated COUNT: an empty group must count 0, a join yields no row.
        (
            "SELECT o_orderkey FROM orders WHERE 2 < \
             (SELECT COUNT(*) FROM lineitem WHERE l_orderkey = o_orderkey)",
            "E_UNSUPPORTED: unsupported: correlated COUNT subquery \
             (an empty group's count cannot decorrelate to a join)",
        ),
        // Scalar subqueries live in WHERE/HAVING conjuncts only.
        (
            "SELECT (SELECT MAX(o_totalprice) FROM orders) FROM customer",
            "E_UNSUPPORTED: unsupported: scalar subquery in this position \
             (supported in WHERE and HAVING conjuncts)",
        ),
        // Uncorrelated scalar with no single-row guarantee.
        (
            "SELECT c_custkey FROM customer WHERE c_acctbal > \
             (SELECT o_totalprice FROM orders)",
            "E_UNSUPPORTED: unsupported: uncorrelated scalar subquery without a \
             single-row guarantee (use an aggregate without GROUP BY, or LIMIT 1)",
        ),
        // Per-group LIMIT does not decorrelate.
        (
            "SELECT o_orderkey FROM orders WHERE EXISTS \
             (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey LIMIT 1)",
            "E_UNSUPPORTED: unsupported: LIMIT/OFFSET in a correlated subquery \
             (per-group limits do not decorrelate)",
        ),
        // Bag-semantics set operations.
        (
            "SELECT o_orderkey FROM orders INTERSECT ALL SELECT l_orderkey FROM lineitem",
            "E_UNSUPPORTED: unsupported: INTERSECT ALL",
        ),
    ];
    let squash = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    for (sql, want) in cases {
        let err = db.execute(sql).expect_err(sql).to_string();
        assert_eq!(squash(&err), squash(want), "message drift for: {sql}");
    }
}

#[test]
fn tpch_goldens() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("tests/tpch_golden missing")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "slt"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 22, "expected 22 golden files, found {}", files.len());
    let goldens: Vec<Golden> = files.into_iter().map(parse_golden).collect();

    let db = Database::open_in_memory();
    load_tpch_micro(&db, SEED);

    if std::env::var("VW_TPCH_BLESS").is_ok() {
        bless(&db, &goldens);
        return;
    }

    // matrix[q] = per-lane pass/fail, plus the first failure detail.
    let mut matrix: Vec<(String, Vec<bool>)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for g in &goldens {
        let name = g.path.file_stem().unwrap().to_string_lossy().into_owned();
        let mut lanes_ok = Vec::new();
        for &lane in &LANES {
            set_lane(&db, lane);
            let result = db.execute(&g.sql);
            let ok = match (&g.expect, &result) {
                (Ok(expected), Ok(r)) => {
                    let actual = fmt_rows(r.rows());
                    let mut ok = rows_eq(&actual, expected);
                    if ok {
                        if let Err(why) = check_analyze(&db, &g.sql, &actual) {
                            failures.push(format!("{name} lane {lane:?}: EXPLAIN ANALYZE {why}"));
                            ok = false;
                        }
                    }
                    if ok && lane == PINNED {
                        let e = db.execute(&format!("EXPLAIN {}", g.sql)).unwrap();
                        let text = e.text.as_deref().unwrap().trim_end();
                        if text != g.explain {
                            failures.push(format!(
                                "{name} lane {lane:?}: EXPLAIN drift\n--- expected\n{}\n--- actual\n{text}",
                                g.explain
                            ));
                            ok = false;
                        }
                    } else if !ok {
                        failures.push(format!(
                            "{name} lane {lane:?}: rows mismatch\n--- expected\n{}\n--- actual\n{}",
                            expected.join("\n"),
                            actual.join("\n")
                        ));
                    }
                    ok
                }
                (Err(want), Err(e)) => {
                    let msg = e.to_string();
                    let ok = msg.contains(want.as_str());
                    if !ok {
                        failures.push(format!(
                            "{name} lane {lane:?}: error message drift\nwant substring: {want}\ngot: {msg}"
                        ));
                    }
                    ok
                }
                (Ok(_), Err(e)) => {
                    failures.push(format!("{name} lane {lane:?}: unexpected error: {e}"));
                    false
                }
                (Err(want), Ok(_)) => {
                    failures.push(format!(
                        "{name} lane {lane:?}: expected rejection ({want}) but query succeeded"
                    ));
                    false
                }
            };
            lanes_ok.push(ok);
        }
        matrix.push((name, lanes_ok));
    }

    // Per-query × per-lane artifact for CI.
    let mut tsv = String::from("query");
    for (d, o) in LANES {
        let _ = write!(tsv, "\tdop{d}_o{o}");
    }
    tsv.push('\n');
    let mut passing = 0;
    for (name, lanes) in &matrix {
        let all = lanes.iter().all(|&b| b);
        passing += usize::from(all);
        tsv.push_str(name);
        for &ok in lanes {
            tsv.push_str(if ok { "\tpass" } else { "\tFAIL" });
        }
        tsv.push('\n');
    }
    let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::write(target.join("tpch_pass_matrix.tsv"), &tsv).unwrap();
    // Each failure's query, lane and diff, beside the matrix: a failing
    // run keeps its evidence whoever captured the output.
    let detail: String = failures.iter().map(|f| format!("----\n{f}\n")).collect();
    std::fs::write(target.join("tpch_failures.txt"), &detail).unwrap();

    println!("{passing} of {} pass", matrix.len());
    println!("{tsv}");
    print!("{detail}");
    assert!(
        passing >= FLOOR,
        "{passing} of {} TPC-H queries pass; committed floor is {FLOOR}\n{detail}",
        matrix.len()
    );
}

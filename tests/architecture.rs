//! F1 — the Figure 1 architecture, end to end: SQL through parser,
//! optimizer, rewriter, cross compiler and the vectorized kernel, over both
//! table kinds, with all the production features wired up.

use vectorwise::common::{Value, VwError};
use vectorwise::core::Database;

#[test]
fn both_table_kinds_coexist_and_join() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE facts (k BIGINT NOT NULL, v BIGINT) WITH TYPE = VECTORWISE").unwrap();
    db.execute("CREATE TABLE dims (k BIGINT NOT NULL, label VARCHAR) WITH TYPE = HEAP").unwrap();
    db.execute("INSERT INTO facts VALUES (1, 10), (2, 20), (2, 22), (3, 30)").unwrap();
    db.execute("INSERT INTO dims VALUES (1, 'one'), (2, 'two')").unwrap();
    let r = db
        .execute(
            "SELECT d.label, SUM(f.v) FROM facts f JOIN dims d ON f.k = d.k \
             GROUP BY d.label ORDER BY d.label",
        )
        .unwrap();
    assert_eq!(
        r.rows(),
        &[
            vec![Value::Str("one".into()), Value::I64(10)],
            vec![Value::Str("two".into()), Value::I64(42)],
        ]
    );
}

#[test]
fn explain_exposes_the_pipeline_stages() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE)").unwrap();
    let plan = db
        .execute("EXPLAIN SELECT b, SUM(c) FROM t WHERE a > 10 GROUP BY b ORDER BY b LIMIT 5")
        .unwrap()
        .text
        .unwrap();
    for stage in ["Limit", "Sort", "Project", "Aggr", "Select", "Scan t"] {
        assert!(plan.contains(stage), "missing {stage} in:\n{plan}");
    }
    // Predicate pushdown: the a > 10 range became a MinMax scan hint.
    assert!(plan.contains("hints=1"), "{plan}");
    // Projection pruning: only a, b, c used → all three, but column list present.
    assert!(plan.contains("cols=["), "{plan}");
}

#[test]
fn rewriter_parallelization_appears_in_plans() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (g VARCHAR, v BIGINT)").unwrap();
    db.execute("SET parallelism = 4").unwrap();
    let plan =
        db.execute("EXPLAIN SELECT g, SUM(v), AVG(v) FROM t GROUP BY g").unwrap().text.unwrap();
    assert!(plan.contains("Xchg dop=4"), "{plan}");
    // AVG decomposed: partial aggregate has extra calls.
    assert_eq!(plan.matches("Aggr").count(), 2, "{plan}");
}

#[test]
fn parallel_and_serial_agree() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (g BIGINT, v BIGINT)").unwrap();
    let mut values = Vec::new();
    for i in 0..3000 {
        values.push(format!("({}, {})", i % 7, i));
    }
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    let sql = "SELECT g, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY g ORDER BY g";
    let serial = db.execute(sql).unwrap();
    db.execute("SET parallelism = 4").unwrap();
    let parallel = db.execute(sql).unwrap();
    // Floats compare approximately: partial aggregation reorders additions.
    assert!(vw_bench::experiments::rows_approx_eq(serial.rows(), parallel.rows()));
}

#[test]
fn compression_is_actually_engaged() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (seq BIGINT NOT NULL, flag VARCHAR NOT NULL)").unwrap();
    let cols = vec![
        vectorwise::common::ColData::I64((0..50_000).collect()),
        vectorwise::common::ColData::Str(
            (0..50_000).map(|i| ["A", "B"][i % 2].to_string()).collect(),
        ),
    ];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None, None]).unwrap();
    // Sorted i64 + 2-value dictionary strings must compress far below raw.
    let cat = db.catalog.read();
    let entry = cat.get("t").unwrap();
    let vectorwise::core::catalog::TableKind::Vectorwise { storage, .. } = &entry.kind else {
        panic!()
    };
    let stored = storage.read().stored_bytes();
    let raw = 50_000 * 8 + 50_000;
    assert!(stored * 4 < raw, "expected >4x compression, stored {stored} vs raw {raw}");
    drop(cat);
    let r = db.execute("SELECT COUNT(*) FROM t WHERE flag = 'A'").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(25_000));
}

#[test]
fn minmax_pruning_reduces_io() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
    let cols = vec![vectorwise::common::ColData::I64((0..200_000).collect())];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None]).unwrap();
    let before = db.execute("SELECT COUNT(*) FROM t WHERE k >= 0").unwrap();
    assert_eq!(before.scalar().unwrap(), &Value::I64(200_000));
    let reads_full = {
        let (h, m) = (0, 0);
        let _ = (h, m);
        db.session().database().monitor.totals().0
    };
    let _ = reads_full;
    // Narrow range touches ~1 pack instead of all.
    let r = db.execute("SELECT COUNT(*) FROM t WHERE k >= 100000 AND k < 100010").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(10));
}

#[test]
fn cancellation_is_prompt_and_clean() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
    let cols = vec![vectorwise::common::ColData::I64((0..60_000).map(|i| i % 500).collect())];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None]).unwrap();
    let db2 = db.clone();
    let h =
        std::thread::spawn(move || db2.execute("SELECT COUNT(*) FROM t a JOIN t b ON a.k = b.k"));
    let qid = loop {
        if let Some(q) = db
            .monitor
            .list_queries()
            .into_iter()
            .find(|q| q.state == vectorwise::core::monitor::QueryState::Running)
        {
            break q.id;
        }
        std::thread::yield_now();
    };
    db.kill(qid).unwrap();
    let r = h.join().unwrap();
    assert!(matches!(r, Err(VwError::Cancelled)));
    // Engine still healthy afterwards.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(60_000));
}

/// The golden three-table schema: 1000 lineitems, 200 orders, 25
/// customers, inserted row by row (no statistics until a CHECKPOINT).
fn golden_three_tables() -> std::sync::Arc<Database> {
    let db = Database::open_in_memory();
    db.execute(
        "CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL, \
         l_quantity BIGINT)",
    )
    .unwrap();
    db.execute("CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_custkey BIGINT NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_nation BIGINT)").unwrap();
    let li: Vec<String> =
        (0..1000).map(|i| format!("({}, {}, {})", i % 200, i % 50, i % 7)).collect();
    let os: Vec<String> = (0..200).map(|i| format!("({i}, {})", i % 25)).collect();
    let cs: Vec<String> = (0..25).map(|i| format!("({i}, {})", i % 5)).collect();
    db.execute(&format!("INSERT INTO lineitem VALUES {}", li.join(", "))).unwrap();
    db.execute(&format!("INSERT INTO orders VALUES {}", os.join(", "))).unwrap();
    db.execute(&format!("INSERT INTO customer VALUES {}", cs.join(", "))).unwrap();
    // Pin DOP: the goldens must not drift with the VW_DOP env lanes the
    // suite happens to run under.
    db.execute("SET parallelism = 1").unwrap();
    db
}

const GOLDEN_QUERY: &str = "EXPLAIN SELECT c.c_nation, SUM(l.l_quantity) FROM lineitem l \
                            JOIN orders o ON l.l_orderkey = o.o_orderkey \
                            JOIN customer c ON o.o_custkey = c.c_custkey \
                            WHERE c.c_nation = 3 AND l.l_quantity < 5 GROUP BY c.c_nation";

/// PR 8 EXPLAIN contract, end to end through the SQL surface: with real
/// statistics (CHECKPOINT), the planner reorders the join chain
/// smallest-first, pushes error-free predicates into pack-skipping scan
/// hints, prunes unused columns, and annotates every line with `est~N`.
/// Byte-exact on purpose — the plan text IS the documented contract (see
/// ARCHITECTURE.md, "The optimizer"); change it deliberately or not at all.
#[test]
fn explain_golden_with_and_without_statistics() {
    let db = golden_three_tables();
    db.execute("CHECKPOINT").unwrap();

    db.execute("SET optimizer = 1").unwrap();
    let with_statistics = db.execute(GOLDEN_QUERY).unwrap().text.unwrap();
    assert_eq!(
        with_statistics,
        "Project [2 exprs] est~5\n\
         \u{20} Aggr groups=1 aggs=1 est~5\n\
         \u{20}   Project [2 exprs] est~169\n\
         \u{20}     Project [6 exprs] est~169\n\
         \u{20}       HashJoin Inner on 1 key(s) est~169\n\
         \u{20}         probe: Select est~844\n\
         \u{20}           Scan lineitem cols=[0, 2]/3 hints=1 [c2<=5] est~1000\n\
         \u{20}         build: HashJoin Inner on 1 key(s) est~40\n\
         \u{20}           probe: Scan orders cols=[0, 1]/2 hints=0 est~200\n\
         \u{20}           build: Select est~5\n\
         \u{20}             Scan customer cols=[0, 1]/2 hints=1 [c1=3] est~25\n",
        "EXPLAIN with statistics drifted from the documented contract:\n{with_statistics}"
    );

    // `SET optimizer = 0` runs the same passes blind: pushdown, hints,
    // pruning and the rendering stay; the estimates take the defaults
    // (0.3 per range, 0.1 per equality, unique join keys). Here the row
    // counts alone still pick the same join order.
    db.execute("SET optimizer = 0").unwrap();
    let blind = db.execute(GOLDEN_QUERY).unwrap().text.unwrap();
    assert_eq!(
        blind,
        "Project [2 exprs] est~1\n\
         \u{20} Aggr groups=1 aggs=1 est~1\n\
         \u{20}   Project [2 exprs] est~2\n\
         \u{20}     Project [6 exprs] est~2\n\
         \u{20}       HashJoin Inner on 1 key(s) est~2\n\
         \u{20}         probe: Select est~300\n\
         \u{20}           Scan lineitem cols=[0, 2]/3 hints=1 [c2<=5] est~1000\n\
         \u{20}         build: HashJoin Inner on 1 key(s) est~2\n\
         \u{20}           probe: Scan orders cols=[0, 1]/2 hints=0 est~200\n\
         \u{20}           build: Select est~2\n\
         \u{20}             Scan customer cols=[0, 1]/2 hints=1 [c1=3] est~25\n",
        "blind EXPLAIN drifted:\n{blind}"
    );
}

/// There is one planner: `SET optimizer = 0` plans exactly as the default
/// does over stale statistics, so once an UPDATE has staled every table's
/// statistics the two settings print the same plan byte for byte — and
/// only fresh statistics tell them apart.
#[test]
fn optimizer_off_plans_like_stale_statistics() {
    let db = golden_three_tables();
    let explain = |optimizer: u8| {
        db.execute(&format!("SET optimizer = {optimizer}")).unwrap();
        db.execute(GOLDEN_QUERY).unwrap().text.unwrap()
    };
    db.execute("CHECKPOINT").unwrap();
    for (table, update) in [
        ("lineitem", "UPDATE lineitem SET l_quantity = 6 WHERE l_orderkey = 199"),
        ("orders", "UPDATE orders SET o_custkey = 0 WHERE o_orderkey = 199"),
        ("customer", "UPDATE customer SET c_nation = 4 WHERE c_custkey = 24"),
    ] {
        db.execute(update).unwrap();
        assert!(db.catalog.read().get(table).unwrap().stats.read().stale, "{update}");
    }
    let stale = explain(1);
    assert!(stale.contains("est~"), "every setting renders estimates:\n{stale}");
    assert_eq!(stale, explain(0), "stale statistics must plan like none");

    db.execute("CHECKPOINT").unwrap();
    assert_ne!(explain(1), explain(0), "fresh statistics must be read at optimizer = 1");
}

/// SQL-surface EXPLAIN contract for set operations (lowered to the hash
/// aggregate over `UnionAll`), DISTINCT and decorrelated subqueries
/// (Apply → Semi/Anti/Left join), with and without statistics, plus
/// EXPLAIN ANALYZE's executed-rows footer.
/// Byte-exact like `explain_golden_with_and_without_statistics`: the plan
/// text is the documented contract (ARCHITECTURE.md, "SQL surface").
#[test]
fn explain_golden_setop_and_decorrelated_plans() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t1 (a BIGINT NOT NULL, b BIGINT)").unwrap();
    db.execute("CREATE TABLE t2 (c BIGINT NOT NULL, d BIGINT)").unwrap();
    let r1: Vec<String> = (0..200).map(|i| format!("({}, {})", i % 40, i % 11)).collect();
    let r2: Vec<String> = (0..80).map(|i| format!("({}, {})", i % 25, i % 13)).collect();
    db.execute(&format!("INSERT INTO t1 VALUES {}", r1.join(", "))).unwrap();
    db.execute(&format!("INSERT INTO t2 VALUES {}", r2.join(", "))).unwrap();
    db.execute("CHECKPOINT").unwrap();
    db.execute("SET parallelism = 1").unwrap();
    // Ungoverned builds: a governed one adds `shards=`/`spill=` to the
    // analyzed lines (pinned by `explain_analyze_prints_every_operator_on_its_plan_line`).
    db.execute("SET mem_budget = 0").unwrap();

    let explain = |db: &std::sync::Arc<Database>, q: &str| db.execute(q).unwrap().text.unwrap();
    let setop = "EXPLAIN SELECT a FROM t1 INTERSECT SELECT c FROM t2";
    let distinct = "EXPLAIN SELECT DISTINCT b FROM t1";
    let exists = "EXPLAIN SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE c = a AND d > 5)";
    let scalar = "EXPLAIN SELECT a FROM t1 WHERE b < (SELECT SUM(d) FROM t2 WHERE c = a)";

    db.execute("SET optimizer = 1").unwrap();
    assert_eq!(
        explain(&db, setop),
        "Project [1 exprs] est~8\n\
         \u{20} Select est~8\n\
         \u{20}   Aggr groups=1 aggs=2 est~28\n\
         \u{20}     UnionAll [2 inputs] est~280\n\
         \u{20}       Project [2 exprs] est~200\n\
         \u{20}         Scan t1 cols=[0]/2 hints=0 est~200\n\
         \u{20}       Project [2 exprs] est~80\n\
         \u{20}         Scan t2 cols=[0]/2 hints=0 est~80\n",
        "INTERSECT plan with statistics drifted"
    );
    // DISTINCT is a GROUP BY of every output column, computing nothing.
    assert_eq!(
        explain(&db, distinct),
        "Aggr groups=1 aggs=0 est~11\n\
         \u{20} Project [1 exprs] est~200\n\
         \u{20}   Scan t1 cols=[1]/2 hints=0 est~200\n",
        "DISTINCT plan with statistics drifted"
    );
    // EXISTS decorrelates to a Semi join; the subquery-local `d > 5`
    // filter stays inside the build side and becomes a scan hint.
    assert_eq!(
        explain(&db, exists),
        "Project [1 exprs] est~100\n\
         \u{20} HashJoin Semi on 1 key(s) est~100\n\
         \u{20}   probe: Scan t1 cols=[0]/2 hints=0 est~200\n\
         \u{20}   build: Project [1 exprs] est~48\n\
         \u{20}     Select est~48\n\
         \u{20}       Scan t2 cols=[0, 1]/2 hints=1 [c1>=5] est~80\n",
        "decorrelated-EXISTS plan with statistics drifted"
    );
    // A correlated scalar becomes a Left join against the grouped
    // subquery, a value projection, and the comparison as a Select.
    assert_eq!(
        explain(&db, scalar),
        "Project [1 exprs] est~60\n\
         \u{20} Project [1 exprs] est~60\n\
         \u{20}   Select est~60\n\
         \u{20}     HashJoin Left on 1 key(s) est~200\n\
         \u{20}       probe: Scan t1 cols=[0, 1]/2 hints=0 est~200\n\
         \u{20}       build: Project [2 exprs] est~25\n\
         \u{20}         Aggr groups=1 aggs=1 est~25\n\
         \u{20}           Scan t2 cols=[0, 1]/2 hints=0 est~80\n",
        "decorrelated-scalar plan with statistics drifted"
    );
    // EXPLAIN ANALYZE runs the query: the same plan text, every line
    // carrying what its operator measured, and the rows ride along in the
    // same result.
    let analyzed =
        db.execute("EXPLAIN ANALYZE SELECT a FROM t1 INTERSECT SELECT c FROM t2").unwrap();
    assert_eq!(
        mask_times(analyzed.text.as_deref().unwrap()),
        "Project [1 exprs] est~8 actual=25 time=* enc=0/1\n\
         \u{20} Select est~8 actual=25 time=* enc=0/1\n\
         \u{20}   Aggr groups=1 aggs=2 est~28 actual=40 time=* enc=0/2\n\
         \u{20}     UnionAll [2 inputs] est~280 actual=280 time=*\n\
         \u{20}       Project [2 exprs] est~200 actual=200 time=* enc=0/1\n\
         \u{20}         Scan t1 cols=[0]/2 hints=0 est~200 actual=200 time=* enc=0/1\n\
         \u{20}       Project [2 exprs] est~80 actual=80 time=* enc=0/1\n\
         \u{20}         Scan t2 cols=[0]/2 hints=0 est~80 actual=80 time=* enc=0/1\n",
        "EXPLAIN ANALYZE with statistics drifted"
    );
    assert_eq!(analyzed.rows().len(), 25, "EXPLAIN ANALYZE must return the query's rows");

    // Planned blind: the same passes and the same renderer; only the
    // estimates that needed statistics move to their defaults (`d > 5`
    // keeps 0.3 of t2, a group key is assumed to split its input ten ways).
    db.execute("SET optimizer = 0").unwrap();
    assert_eq!(
        explain(&db, setop),
        "Project [1 exprs] est~8\n\
         \u{20} Select est~8\n\
         \u{20}   Aggr groups=1 aggs=2 est~28\n\
         \u{20}     UnionAll [2 inputs] est~280\n\
         \u{20}       Project [2 exprs] est~200\n\
         \u{20}         Scan t1 cols=[0]/2 hints=0 est~200\n\
         \u{20}       Project [2 exprs] est~80\n\
         \u{20}         Scan t2 cols=[0]/2 hints=0 est~80\n",
        "blind INTERSECT plan drifted"
    );
    assert_eq!(
        explain(&db, distinct),
        "Aggr groups=1 aggs=0 est~20\n\
         \u{20} Project [1 exprs] est~200\n\
         \u{20}   Scan t1 cols=[1]/2 hints=0 est~200\n",
        "blind DISTINCT plan drifted"
    );
    assert_eq!(
        explain(&db, exists),
        "Project [1 exprs] est~100\n\
         \u{20} HashJoin Semi on 1 key(s) est~100\n\
         \u{20}   probe: Scan t1 cols=[0]/2 hints=0 est~200\n\
         \u{20}   build: Project [1 exprs] est~24\n\
         \u{20}     Select est~24\n\
         \u{20}       Scan t2 cols=[0, 1]/2 hints=1 [c1>=5] est~80\n",
        "blind decorrelated-EXISTS plan drifted"
    );
    assert_eq!(
        explain(&db, scalar),
        "Project [1 exprs] est~60\n\
         \u{20} Project [1 exprs] est~60\n\
         \u{20}   Select est~60\n\
         \u{20}     HashJoin Left on 1 key(s) est~200\n\
         \u{20}       probe: Scan t1 cols=[0, 1]/2 hints=0 est~200\n\
         \u{20}       build: Project [2 exprs] est~8\n\
         \u{20}         Aggr groups=1 aggs=1 est~8\n\
         \u{20}           Scan t2 cols=[0, 1]/2 hints=0 est~80\n",
        "blind decorrelated-scalar plan drifted"
    );
    let analyzed =
        db.execute("EXPLAIN ANALYZE SELECT a FROM t1 INTERSECT SELECT c FROM t2").unwrap();
    assert!(
        analyzed.text.as_deref().unwrap().starts_with("Project [1 exprs] est~8 actual=25 "),
        "blind EXPLAIN ANALYZE must carry the executed rows"
    );
}

/// `text` with every measured time masked: `time=X.XXXms` becomes
/// `time=*`, a clone range `time a..bms` becomes `time *`.
fn mask_times(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let words: Vec<&str> = line
            .split(' ')
            .map(|w| match w {
                _ if w.starts_with("time=") => "time=*",
                _ if w.ends_with("ms") && w.contains("..") => "*",
                _ => w,
            })
            .collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    out
}

/// `EXPLAIN ANALYZE` is the profile's one reader. On a DOP-2 join feeding a
/// GROUP BY, every operator under the Exchange ran as two clones whose rows
/// add up to the line's `actual`; the root's `actual` is the result; a
/// governed run shows its spill; a Sort fused into the TopN prints nothing
/// of its own.
#[test]
fn explain_analyze_prints_every_operator_on_its_plan_line() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE fact (k BIGINT NOT NULL, g BIGINT NOT NULL)").unwrap();
    db.execute("CREATE TABLE dim (k BIGINT NOT NULL, v BIGINT NOT NULL)").unwrap();
    let fact: Vec<String> = (0..6000).map(|i| format!("({}, {})", i % 1500, i % 7)).collect();
    let dim: Vec<String> = (0..1500).map(|i| format!("({i}, {})", i * 3)).collect();
    db.execute(&format!("INSERT INTO fact VALUES {}", fact.join(", "))).unwrap();
    db.execute(&format!("INSERT INTO dim VALUES {}", dim.join(", "))).unwrap();
    db.execute("CHECKPOINT").unwrap();
    db.execute("SET parallelism = 2").unwrap();
    let sql = "EXPLAIN ANALYZE SELECT f.g, COUNT(*), SUM(d.v) FROM fact f JOIN dim d \
               ON f.k = d.k GROUP BY f.g ORDER BY 1 LIMIT 5";
    for budget in [0, 4096] {
        db.execute(&format!("SET mem_budget = {budget}")).unwrap();
        let r = db.execute(sql).unwrap();
        let text = r.text.clone().unwrap();
        let actual = |line: &str| -> Option<u64> {
            let n = line.split(" actual=").nth(1)?.split(' ').next()?;
            Some(n.parse().unwrap())
        };
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(r.rows().len(), 5);
        assert_eq!(actual(lines[0]), Some(5), "the root's actual is the result:\n{text}");
        let sort = lines.iter().find(|l| l.trim_start().starts_with("Sort ")).expect("a Sort");
        assert_eq!(actual(sort), None, "a Sort fused into TopN has no operator:\n{text}");
        let xchg = lines.iter().position(|l| l.contains("Xchg dop=2")).expect("an Exchange");
        let depth = |l: &str| l.len() - l.trim_start().len();
        let under: Vec<&str> = lines[xchg + 1..]
            .iter()
            .copied()
            .take_while(|l| depth(l) > depth(lines[xchg]))
            .collect();
        assert!(under.len() >= 4, "partial Aggr, HashJoin, two Scans:\n{text}");
        for line in &under {
            let clones = line.split(" ×2 rows ").nth(1).unwrap_or_else(|| {
                panic!("`{line}` did not run as two clones:\n{text}");
            });
            let (lo, hi) = clones.split(' ').next().unwrap().split_once("..").unwrap();
            let sum = lo.parse::<u64>().unwrap() + hi.parse::<u64>().unwrap();
            assert_eq!(Some(sum), actual(line), "`{line}`: clone rows add up");
        }
        let spilled = lines
            .iter()
            .any(|l| (l.contains("HashJoin") || l.contains("Aggr")) && l.contains(" spill="));
        assert_eq!(spilled, budget > 0, "spill= exactly when governed:\n{text}");
    }
}

/// PR 8: UPDATE and DELETE mark table statistics stale so the cost model
/// stops trusting dead numbers; CHECKPOINT rebuilds and re-arms them.
#[test]
fn dml_marks_statistics_stale_until_checkpoint_rebuild() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.execute("CHECKPOINT").unwrap();
    let stale =
        |db: &std::sync::Arc<Database>| db.catalog.read().get("t").unwrap().stats.read().stale;
    assert!(!stale(&db), "CHECKPOINT builds trusted statistics");

    db.execute("UPDATE t SET v = 99 WHERE k = 2").unwrap();
    assert!(stale(&db), "UPDATE must mark statistics stale");
    db.execute("CHECKPOINT").unwrap();
    assert!(!stale(&db), "CHECKPOINT rebuild clears staleness");

    db.execute("DELETE FROM t WHERE k = 1").unwrap();
    assert!(stale(&db), "DELETE must mark statistics stale");
    db.execute("CHECKPOINT").unwrap();
    assert!(!stale(&db), "CHECKPOINT rebuild clears staleness again");
}

/// The knob surface is the *Knobs* table of ARCHITECTURE.md — no row
/// without a `SET` answer, no `EngineConfig` field without a row, and no
/// way back to the reference paths that used to hide behind settings.
#[test]
fn knobs_table_is_the_set_surface() {
    let doc = include_str!("../ARCHITECTURE.md");
    let section = doc.split("\n## Knobs\n").nth(1).expect("a Knobs section");
    let section = section.split("\n## ").next().unwrap();
    let db = Database::open_in_memory();

    // A row is `| `name` [/ `alias`] (unit) | default | env | what it does |`;
    // the fault-injection row has no SET name and starts with a dash.
    let mut documented = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let value: String = cells[2].chars().take_while(char::is_ascii_digit).collect();
        assert!(!value.is_empty(), "default of {} must lead with a number", cells[1]);
        let open_only = cells[4].contains("open only");
        for name in cells[1].split('`').skip(1).step_by(2) {
            match db.execute(&format!("SET {name} = {value}")) {
                Ok(_) => assert!(!open_only, "{name} is documented as open only but SET took it"),
                Err(VwError::InvalidParameter(m)) if m.contains("is fixed at engine open") => {
                    assert!(open_only, "SET {name}: {m} — the table does not say so")
                }
                Err(e) => panic!("SET {name} = {value}, a documented knob: {e}"),
            }
            documented.push(name);
        }
    }

    // Every top-level field of the struct has its row (SET names may drop
    // a unit suffix: `mem_budget` for `mem_budget_bytes`); `faults` is the
    // dash row.
    let debug = format!("{:?}", vectorwise::common::EngineConfig::default());
    let mut depth = 0;
    let mut fields = Vec::new();
    for part in debug.split_inclusive(['{', '}', ',']) {
        if depth == 1 {
            if let Some((name, _)) = part.split_once(':') {
                fields.push(name.trim().to_string());
            }
        }
        depth += part.matches('{').count();
        depth -= part.matches('}').count();
    }
    assert_eq!(fields.len(), 13, "EngineConfig fields: {fields:?}");
    for f in fields.iter().filter(|f| *f != "faults") {
        assert!(documented.iter().any(|d| f.starts_with(d)), "{f} has no row in the Knobs table");
    }
    assert!(section.contains("| — (faults) |"), "the fault-injection row");

    for gone in [
        "SET compressed_exec = 1",
        "SET check_mode = 'lazy'",
        "SET null_mode = 'two_column'",
        // Spelled in halves, like the type names in the source guard below:
        // a grep for a deleted name finds nothing, this file included.
        concat!("SET partition_min", "_rows = 0"),
    ] {
        match db.execute(gone) {
            Err(VwError::InvalidParameter(m)) => assert!(m.starts_with("unknown setting"), "{m}"),
            other => panic!("{gone} must be an unknown setting, got {other:?}"),
        }
    }
}

/// One planner, held at source level: no second pipeline, second row
/// estimator, pruning mode or EXPLAIN renderer — nor the dead API and env
/// override that served them — is named by the non-test source of the
/// crates that plan (`sql`), drive planning (`core`) and configure it
/// (`common`). Names are spelled in halves so a grep for them finds
/// nothing, this file included.
#[test]
fn one_planner_and_one_explain_renderer() {
    let gone = [
        concat!("estimate", "_rows"),
        concat!("estimate", "_plan_rows"),
        concat!("check_schema", "_preserved"),
        concat!("simplify", "_group_by"),
        concat!("join", "_aware"),
        concat!("cost", "_based"),
        concat!("with", "_optimizer"),
        concat!("VW_OPTI", "MIZER"),
        concat!("explain", "_into"),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for krate in ["sql", "core", "common"] {
        for entry in std::fs::read_dir(root.join(krate).join("src")).unwrap() {
            let file = entry.unwrap().path();
            let text = std::fs::read_to_string(&file).unwrap();
            let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            for line in non_test {
                for name in gone {
                    assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line);
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 15, "the walk found the crates ({checked} files)");
}

/// One binder walk, held at source level: column references resolve
/// through a scope stack, not a sentinel offset; one expression binder
/// serves grouped and ungrouped queries; a scalar subquery binds in place,
/// with no marker identifier for a user column to capture. No non-test
/// line of `vw-sql` names the mechanisms that did it twice. Names are
/// spelled in halves so a grep for them finds nothing, this file included.
#[test]
fn one_binder_walk() {
    let gone = [
        concat!("OUTER", "_BASE"),
        concat!("bind_post", "_agg"),
        concat!("rewrite", "_scalars"),
        concat!("apply_having", "_scalar"),
        concat!("__h", "scalar"),
        concat!("__sca", "lar"),
    ];
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sql/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        for line in non_test {
            for name in gone {
                assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
        }
    }
    assert!(files.len() >= 8, "the walk found the crate ({} files)", files.len());
}

/// "O(workers) threads" and "the pool's rules live in one place", held at
/// source level. Below `vw-service` no engine crate starts a thread —
/// concurrency is a task on the worker pool, deadlines are the one timer
/// thread — and `vw-exec`, the pool's client, hand-rolls none of the task
/// protocol (`vw_service::task` owns unwinding, the closed-pool guard and
/// the helping wait) and creates tasks in one file only: `op/xchg.rs`, whose
/// fragments and build sinks are all the tasks there are — the shard actors
/// of the pooled hash build are gone from every crate. Test modules and
/// comments are exempt — except from the last rule: a join build side
/// inside an Exchange runs once, and no code or comment in the compiler,
/// the rewriter or the kernel still describes the path that ran it once
/// per worker.
#[test]
fn engine_crates_spawn_no_threads_and_exec_rolls_no_task_protocol() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut all = Vec::new();
    rust_files(&root, &mut all);
    for file in all.iter().filter(|f| f.components().any(|c| c.as_os_str() == "src")) {
        let text = std::fs::read_to_string(file).unwrap();
        for gone in [concat!("Shard", "Set"), concat!("Shard", "Worker")] {
            assert!(!text.contains(gone), "{}: `{gone}` is back", file.display());
        }
    }
    let mut checked = 0;
    for krate in ["common", "compress", "storage", "pdt", "exec", "rewriter", "sql", "core"] {
        let mut banned = vec!["thread::spawn", "thread::Builder"];
        if krate == "exec" {
            banned.extend(["catch_unwind", "is_closed()", "help_run_one"]);
        }
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let non_test =
                || text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            if ["core", "rewriter", "exec"].contains(&krate) {
                for gone in ["whole into every worker", "whole input on every worker"] {
                    let prose = non_test().map(|l| l.trim_start_matches(['/', '!', ' ']));
                    let prose = prose.collect::<Vec<_>>().join(" ");
                    assert!(!prose.contains(gone), "{}: still says `{gone}`", file.display());
                }
            }
            let code = non_test().filter(|l| !l.trim_start().starts_with("//"));
            for line in code {
                if krate == "exec" && !file.ends_with("op/xchg.rs") {
                    assert!(
                        !line.contains("TaskHandle::new"),
                        "{}: only the exchange creates tasks, yet `{}`",
                        file.display(),
                        line.trim()
                    );
                }
                for word in &banned {
                    assert!(
                        !line.contains(word),
                        "{}: `{word}` in `{}`",
                        file.display(),
                        line.trim()
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 40, "the walk found the crates ({checked} files)");
}

/// A SELECT's result is the batches its plan produced, held at source
/// level: the non-test code of `vw-core` drains no operator into one batch,
/// and builds rows of values in one place — the client's row view,
/// `QueryResult::rows`. Names are spelled in halves so a grep for them
/// finds nothing, this file included.
#[test]
fn core_keeps_the_plans_batches_and_builds_rows_in_one_place() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    rust_files(&root.join("core").join("src"), &mut files);
    let mut row_builds = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        for line in non_test.filter(|l| !l.trim_start().starts_with("//")) {
            assert!(
                !line.contains(concat!("drain", "(")),
                "{}: a result is not drained, yet `{}`",
                file.display(),
                line.trim()
            );
            if line.contains(concat!("row_", "values(")) {
                row_builds.push(format!("{}: {}", file.display(), line.trim()));
            }
        }
    }
    assert!(files.len() >= 5, "the walk found the crate ({} files)", files.len());
    assert_eq!(row_builds.len(), 1, "rows are built by the row view only: {row_builds:#?}");
}

/// A pack owns its blocks, held at source level: a block is released only
/// by its owner's `Drop` — a pack's, a heap table's, a spill file's — and
/// the buffer pool's `free` the first two go through. No non-test code
/// under `crates/`, `src/` or `examples/` frees a table's blocks by hand,
/// copies a table's pack list for a scan, rewrites a block in place, names
/// the PAX layout or the flat pack reader, or keeps the cooperative-scan
/// simulation. Names are spelled in halves so a grep for them finds
/// nothing, this file included.
#[test]
fn a_pack_owns_its_blocks() {
    let gone = [
        concat!("free", "_all"),
        concat!("adopt", "_packs"),
        concat!("storage", "_snapshot"),
        concat!("enum ", "Layout"),
        concat!("Layout::", "Dsm"),
        concat!("Layout::", "Pax"),
        concat!("Pack", "Meta"),
        concat!("read_pack", "("),
        concat!("pub fn ", "rewrite("),
        concat!("coop", "scan"),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = root.join("crates");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // Under `crates/`, only library source: benches and tests are exempt.
    let in_src = |f: &&std::path::PathBuf| f.components().any(|c| c.as_os_str() == "src");
    let mut frees = Vec::new();
    for file in files.iter().filter(|f| !f.starts_with(&crates) || in_src(f)) {
        let text = std::fs::read_to_string(file).unwrap();
        let mut owner = "";
        for line in text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")) {
            for name in gone {
                assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
            if line.starts_with("impl") {
                owner = line.trim_end_matches(" {");
            }
            let code = line.trim_start();
            if !code.starts_with("//") && code.contains(".free(") {
                let file = file.strip_prefix(root).unwrap().display();
                frees.push(format!("{file}: {owner}"));
            }
        }
    }
    frees.sort();
    let owners = [
        "crates/storage/src/buffer.rs: impl BufferPool",
        "crates/storage/src/disk.rs: impl Drop for SpillFile",
        "crates/storage/src/table.rs: impl Drop for Pack",
        "crates/volcano/src/store.rs: impl Drop for RowStore",
    ];
    assert_eq!(frees, owners, "blocks are freed by their owners' `Drop` only");
}

/// The load path boxes no value, held at source level: the non-test code
/// of `vw-storage` and `vw-compress` (statistics, pack MinMax, the codecs)
/// reads typed column slices in place and never builds a `Value` per row.
/// The name is spelled in halves so a grep for it finds nothing, this file
/// included.
#[test]
fn the_load_path_boxes_no_value() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for krate in ["storage", "compress"] {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            for line in non_test.filter(|l| !l.trim_start().starts_with("//")) {
                assert!(
                    !line.contains(concat!("get_", "value(")),
                    "{}: the load path boxes a value in `{}`",
                    file.display(),
                    line.trim()
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "the walk found the crates ({checked} files)");
}

/// One expression evaluator, held at source level: the compiled programs
/// evaluate every expression the engine runs, plan-time constants
/// included. No non-test source of an engine crate names the evaluators
/// that did it twice — the optimizer's `Value` arithmetic and DML's
/// one-row program — and the optimizer's folding pass evaluates through
/// `eval_const` and compares, casts and computes nothing of its own. Names
/// are spelled in halves so a grep for them finds nothing, this file
/// included.
#[test]
fn one_expression_evaluator() {
    let gone =
        [concat!("eval_const", "_arith"), concat!("Scalar", "Program"), concat!("eval", "_row")];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut checked = 0;
    for krate in ["common", "exec", "rewriter", "sql", "core", "volcano"] {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            for line in non_test {
                for name in gone {
                    assert!(
                        !line.contains(name),
                        "{}: `{name}` in `{}`",
                        file.display(),
                        line.trim()
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 30, "the walk found the crates ({checked} files)");

    let optimizer = std::fs::read_to_string(root.join("sql/src/optimizer.rs")).unwrap();
    let start = optimizer.find("pub fn fold_expr(").expect("the optimizer folds constants");
    let len = optimizer[start..].find("\n// ---").expect("a section follows the folder");
    let folder = &optimizer[start..start + len];
    assert!(folder.contains("eval_const(&"), "folding evaluates through eval_const:\n{folder}");
    for own in ["sql_cmp", "cast_to", "checked_", "as_i64", "as_f64", "BinOp", "CmpOp"] {
        assert!(!folder.contains(own), "the folder evaluates on its own (`{own}`):\n{folder}");
    }
}

/// One expression tree, normalized once, held at source level: plans carry
/// the kernel's `PhysExpr`, so no non-test source of an engine crate names
/// the SQL-level twin, its extended-function enum or the rewriter's rule
/// engine, and the only `InList` left is the parser's syntax node (the
/// binder turns it into an OR chain). The rewriter is the parallelizer
/// alone. Names are spelled in halves so a grep for them finds nothing,
/// this file included.
#[test]
fn one_expression_tree() {
    let gone = [
        concat!("Sql", "Expr"),
        concat!("Ext", "Func"),
        concat!("Expr", "Rule"),
        concat!("rewrite", "_fixpoint"),
        concat!("map_plan", "_exprs"),
        concat!(".lo", "wer()"),
    ];
    let in_list = concat!("In", "List");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let in_src = |f: &&std::path::PathBuf| f.components().any(|c| c.as_os_str() == "src");
    let mut checked = 0;
    for file in files.iter().filter(in_src) {
        let text = std::fs::read_to_string(file).unwrap();
        let is_ast = file.ends_with("crates/sql/src/ast.rs");
        for line in text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")) {
            for name in gone {
                assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
            let syntax = line.matches(in_list).count()
                == line.matches(concat!("Expr::", "In", "List")).count();
            assert!(
                is_ast || syntax,
                "{}: an `{in_list}` node in `{}`",
                file.display(),
                line.trim()
            );
        }
        checked += 1;
    }
    assert!(checked > 60, "the walk found the crates ({checked} files)");
    let mut rewriter: Vec<String> = std::fs::read_dir(root.join("crates/rewriter/src"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    rewriter.sort();
    assert_eq!(rewriter, ["lib.rs", "parallel.rs"], "the rewriter is the parallelizer");
}

/// One string arena, held at source level and at the scan: every string
/// chunk a scan reads comes back coded — a PDICT block over its
/// dictionary, a raw block over an arena of its rows — and no source
/// under `vw-exec` or `vw-storage`, tests included, names the boxed
/// dictionary it replaced (spelled in halves so this file does not).
#[test]
fn strings_leave_the_scan_coded() {
    use vectorwise::storage::pack::{decode_chunk_encoded, encode_chunk, EncodedChunk};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let boxed = concat!("Arc<Vec<", "String>>");
    let mut checked = 0;
    for krate in ["exec", "storage"] {
        let mut files = Vec::new();
        rust_files(&root.join(krate), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            assert!(!text.contains(boxed), "{}: `{boxed}`", file.display());
            checked += 1;
        }
    }
    assert!(checked >= 15, "the walk found the crates ({checked} files)");
    let flags: Vec<String> = (0..1000).map(|i| ["A", "N", "R"][i % 3].to_string()).collect();
    let names: Vec<String> = (0..1000).map(|i| format!("Customer#{i:09}")).collect();
    for (values, distinct) in [(flags, true), (names, false)] {
        let n = values.len();
        let nulls: Vec<bool> = (0..n).map(|i| i % 9 == 0).collect();
        for mask in [None, Some(&nulls[..])] {
            let data = vectorwise::common::ColData::Str(values.clone());
            let bytes = encode_chunk(&data, 0..n, mask);
            match decode_chunk_encoded(&bytes, vectorwise::common::TypeId::Str, n).unwrap() {
                EncodedChunk::Dict { codes, dict, .. } => {
                    assert_eq!(dict.distinct(), distinct);
                    assert!(codes.iter().zip(&values).all(|(&c, v)| &dict[c as usize] == v));
                }
                other => panic!("a string chunk decoded as {other:?}"),
            }
        }
    }
}

/// Strings are computed where they lie: no operator flattens the columns
/// a program reads (every string instruction reads coded lanes in place),
/// and no string kernel writes into a flat `Vec<String>` register. Names
/// are spelled in halves so this file does not hold them.
#[test]
fn strings_are_computed_where_they_lie() {
    let exec = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/exec/src");
    let non_test = |file: &str| -> String {
        let text = std::fs::read_to_string(exec.join(file)).unwrap();
        text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).collect::<Vec<_>>().join("\n")
    };
    for op in ["op/simple.rs", "op/hashagg.rs", "op/hashjoin.rs"] {
        let code = non_test(op);
        for name in [concat!("flat", "_cols"), concat!("ensure", "_flat"), concat!("cols", "_used")]
        {
            assert!(!code.contains(name), "{op} names `{name}`");
        }
    }
    let program = non_test("program.rs");
    for name in [concat!("as_str", "_mut"), concat!("flat", "_cols"), concat!("ensure", "_flat")] {
        assert!(!program.contains(name), "program.rs names `{name}`");
    }
}

/// One image representation, held at source level: a scan claims its rows
/// from the pinned PDT root by position, so no non-test source (crates,
/// benches, examples) names the flattened merge stream, its builder, the
/// clipped copy or the one-run fixture that fed it, and the dispenser
/// keeps no vector of image items beside the root. Names are spelled in
/// halves so a grep for them finds nothing, this file included.
#[test]
fn one_image_representation() {
    let gone = [
        concat!("Merge", "Item"),
        concat!("clip", "_image"),
        concat!("store::", "items"),
        concat!("stable", "_items"),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let non_test = |f: &&std::path::PathBuf| !f.components().any(|c| c.as_os_str() == "tests");
    let mut checked = 0;
    for file in files.iter().filter(non_test) {
        let text = std::fs::read_to_string(file).unwrap();
        for line in text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]")) {
            for name in gone {
                assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
        }
        checked += 1;
    }
    assert!(checked > 60, "the walk found the crates ({checked} files)");
    let morsel = std::fs::read_to_string(root.join("crates/exec/src/morsel.rs")).unwrap();
    let source = morsel.split("pub struct MorselSource {").nth(1).expect("the dispenser");
    let fields = &source[..source.find("\n}").expect("its closing brace")];
    assert!(fields.contains("root: Link"), "the dispenser holds the root:\n{fields}");
    assert!(!fields.contains("Vec<"), "the dispenser keeps a vector beside the root:\n{fields}");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `EXPLAIN ANALYZE` is the profile's one reader, held at source level: no
/// counter it does not print — nor the table renderer, the accessors and
/// the plumbing that served them — is named by any crate's non-test source,
/// and the kernel reads the clock in one file, the timing wrapper's. Names
/// are spelled in halves so a grep for them finds nothing, this file
/// included.
#[test]
fn the_profile_has_one_reader_and_the_kernel_one_clock() {
    let gone = [
        concat!("Query", "Profile"),
        concat!("probe_chain", "_steps"),
        concat!("claim", "_counts"),
        concat!("with", "_sources"),
        concat!("take", "_counters"),
        concat!("record_pool", "_lease"),
        concat!("record_io", "_retries"),
        concat!("setop", "_dropped"),
        concat!("profile", "_mut"),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let mut checked = 0;
    for file in files.iter().filter(|f| f.components().any(|c| c.as_os_str() == "src")) {
        let text = std::fs::read_to_string(file).unwrap();
        let in_exec = file.starts_with(root.join("exec").join("src"));
        let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        for line in non_test {
            for name in gone {
                assert!(!line.contains(name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
            if in_exec && !file.ends_with("profile.rs") {
                assert!(
                    !line.contains(concat!("Instant", "::now")),
                    "{}: only the timing wrapper reads the clock, yet `{}`",
                    file.display(),
                    line.trim()
                );
            }
        }
        checked += 1;
    }
    assert!(checked > 60, "the walk found the crates ({checked} files)");
}

/// Set operations deduplicate with the one hash aggregate, and every hash
/// operator runs on `hashtable.rs`, held at source level: no crate's
/// non-test source names the row-at-a-time set operator, its modes or its
/// byte-key row encoding, the logical plan has no set-operation kind, and
/// no operator under `crates/exec/src/op/` keeps a `std` hash container.
/// Names are spelled in halves so a grep for them finds nothing, this file
/// included.
#[test]
fn set_operations_and_hash_operators_share_one_hash_table() {
    let gone = [concat!("Set", "Op"), concat!("SetOp", "Mode"), concat!("encode", "_row")];
    let containers = [concat!("Hash", "Set"), concat!("Hash", "Map")];
    // Occurrences of `word` in `line` as a whole identifier.
    let names = |line: &str, word: &str| {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        line.match_indices(word).any(|(at, _)| {
            !line[..at].chars().next_back().is_some_and(ident)
                && !line[at + word.len()..].chars().next().is_some_and(ident)
        })
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let mut operators = 0;
    for file in files.iter().filter(|f| f.components().any(|c| c.as_os_str() == "src")) {
        let text = std::fs::read_to_string(file).unwrap();
        let is_plan = file.ends_with("crates/sql/src/plan.rs");
        let is_op = file.starts_with(root.join("exec").join("src").join("op"));
        operators += usize::from(is_op);
        let non_test = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        for line in non_test {
            for name in gone {
                assert!(!names(line, name), "{}: `{name}` in `{}`", file.display(), line.trim());
            }
            assert!(
                !(is_plan && names(line, concat!("SetOp", "Kind"))),
                "the logical plan has `UnionAll` and no set-operation kind: `{}`",
                line.trim()
            );
            for name in containers.iter().filter(|_| is_op) {
                assert!(
                    !names(line, name),
                    "{}: hash operators run on hashtable.rs, yet `{}`",
                    file.display(),
                    line.trim()
                );
            }
        }
    }
    assert!(operators >= 7, "the walk found the operators ({operators} files)");
}

//! Cross-crate transaction behaviour: isolation, conflicts, checkpoints,
//! and DML/scan interaction through the PDT merge path.

use vectorwise::common::{Value, VwError};
use vectorwise::core::Database;

#[test]
fn updates_visible_through_merge_scan_before_checkpoint() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    let cols = vec![
        vectorwise::common::ColData::I64((0..10_000).collect()),
        vectorwise::common::ColData::I64(vec![1; 10_000]),
    ];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None, None]).unwrap();

    db.execute("UPDATE t SET v = 100 WHERE k < 10").unwrap();
    db.execute("DELETE FROM t WHERE k >= 9990").unwrap();
    db.execute("INSERT INTO t VALUES (20000, 7)").unwrap();

    let r = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    // 10000 - 10 deleted + 1 insert = 9991 rows;
    // sum = 9990*1 - 10*1 + 10*100 + 7 = 9990 - 10 + 1000 + 7.
    assert_eq!(r.rows()[0][0], Value::I64(9991));
    assert_eq!(r.rows()[0][1], Value::I64(9980 + 1000 + 7));

    // Checkpoint materializes the same image.
    db.execute("CHECKPOINT t").unwrap();
    let r2 = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(r.rows(), r2.rows());
}

#[test]
fn open_transaction_sees_its_own_writes() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    s.execute("UPDATE t SET x = 10 WHERE x = 1").unwrap();
    // The session's reads run against its private image.
    let r = s.execute("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(12));
    // Others still see the committed state.
    let r = db.execute("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(1));
    s.execute("COMMIT").unwrap();
    let r = db.execute("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(12));
}

#[test]
fn rollback_discards_everything() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    s.execute("ROLLBACK").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(0));
    assert!(matches!(s.execute("COMMIT"), Err(VwError::TxnState(_))));
}

#[test]
fn conflicting_updates_abort_second_writer() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let mut a = db.session();
    let mut b = db.session();
    a.execute("BEGIN; UPDATE t SET x = 10 WHERE x = 1").unwrap();
    b.execute("BEGIN; UPDATE t SET x = 20 WHERE x = 1").unwrap();
    a.execute("COMMIT").unwrap();
    assert!(matches!(b.execute("COMMIT"), Err(VwError::TxnConflict(_))));
    let r = db.execute("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(12));
}

#[test]
fn checkpoint_invalidates_inflight_transactions() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let mut s = db.session();
    s.execute("BEGIN; UPDATE t SET x = 5").unwrap();
    db.execute("CHECKPOINT t").unwrap();
    assert!(matches!(s.execute("COMMIT"), Err(VwError::TxnConflict(_))));
    let r = db.execute("SELECT SUM(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(1), "aborted txn left no trace");
}

/// An open transaction pins the stable generation it began on: a
/// CHECKPOINT that renumbers every stable row meanwhile leaves the
/// transaction reading its own image — its writes included — until its
/// commit is refused.
#[test]
fn an_open_transaction_reads_the_generation_it_began_on() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    let n = 40_000i64;
    let cols = vec![
        vectorwise::common::ColData::I64((0..n).collect()),
        vectorwise::common::ColData::I64(vec![1; n as usize]),
    ];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None, None]).unwrap();
    let mut s = db.session();
    s.execute("BEGIN; UPDATE t SET v = 100 WHERE k >= 39990").unwrap();
    const PROBE: &str = "SELECT COUNT(*), SUM(v), MAX(k) FROM t WHERE v > 0";
    let mine = s.execute(PROBE).unwrap().rows().to_vec();
    assert_eq!(mine, vec![vec![Value::I64(n), Value::I64(n + 990), Value::I64(n - 1)]]);

    db.execute("DELETE FROM t WHERE k % 2 = 0").unwrap();
    db.execute("CHECKPOINT t").unwrap();
    assert_eq!(s.execute(PROBE).unwrap().rows(), mine, "the transaction's own image");
    assert!(matches!(s.execute("COMMIT"), Err(VwError::TxnConflict(_))));
    let after = db.execute(PROBE).unwrap();
    assert_eq!(after.rows(), &[vec![Value::I64(n / 2), Value::I64(n / 2), Value::I64(n - 1)]]);
}

#[test]
fn heavy_delta_workload_stays_consistent() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    let n = 5_000i64;
    let cols = vec![
        vectorwise::common::ColData::I64((0..n).collect()),
        vectorwise::common::ColData::I64(vec![0; n as usize]),
    ];
    vectorwise::core::bulk_load(&db, "t", &cols, &[None, None]).unwrap();
    // Interleave DML and checkpoints.
    for round in 0..5 {
        db.execute(&format!("UPDATE t SET v = {round} WHERE k % 10 = {round}")).unwrap();
        db.execute(&format!("DELETE FROM t WHERE k % 100 = {}", 50 + round)).unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({}, -1)", 100_000 + round)).unwrap();
        if round % 2 == 1 {
            db.execute("CHECKPOINT t").unwrap();
        }
        // Invariant: count matches an independent aggregate each round.
        let c1 = db.execute("SELECT COUNT(*) FROM t").unwrap();
        let c2 = db.execute("SELECT COUNT(*) FROM t WHERE k >= 0").unwrap();
        assert_eq!(c1.rows(), c2.rows(), "round {round}");
    }
    let r = db.execute("SELECT COUNT(*) FROM t WHERE v = -1").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::I64(5));
}

#[test]
fn update_set_expressions_only_evaluate_selected_rows() {
    // The SET program runs under the WHERE predicate's selection: a row
    // the predicate excludes must not raise errors from the SET
    // expression (here: division by the excluded row's zero).
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2), (1, 0)").unwrap();
    let n = db.execute("UPDATE t SET a = 10 / b WHERE b <> 0").unwrap();
    assert_eq!(n.affected, 1);
    let r = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(r.rows(), &[vec![Value::I64(1)], vec![Value::I64(5)]]);
    // An actually-selected zero denominator still errors.
    assert!(db.execute("UPDATE t SET a = 10 / b WHERE b = 0").is_err());
}

#[test]
fn update_expressions_use_old_row_values() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    // Swap-flavored update: both SETs read the pre-update row.
    db.execute("UPDATE t SET a = b, b = a").unwrap();
    let r = db.execute("SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(
        r.rows(),
        &[vec![Value::I64(10), Value::I64(1)], vec![Value::I64(20), Value::I64(2)],]
    );
}

/// INSERT VALUES, UPDATE and DELETE bind their expressions one way on
/// both table kinds: an extended function in VALUES is evaluated, not
/// rejected with a debug dump, and a heap UPDATE keeps NOT NULL. Every
/// statement then runs against a VECTORWISE table and its HEAP twin, with
/// NULL cells in DOUBLE, DATE and VARCHAR columns: both report the same
/// outcome and hold the same rows after each one.
#[test]
fn dml_expressions_bind_alike_on_both_table_kinds() {
    let db = Database::open_in_memory();
    for kind in ["VECTORWISE", "HEAP"] {
        db.execute("DROP TABLE IF EXISTS h").unwrap();
        db.execute(&format!("CREATE TABLE h (a BIGINT NOT NULL, b BIGINT) WITH TYPE = {kind}"))
            .unwrap();
        db.execute("INSERT INTO h VALUES (1 + 1, COALESCE(NULL, 5)), (3, NULLIF(4, 4))").unwrap();
        db.execute("UPDATE h SET b = COALESCE(b, 0) + a WHERE a IN (2, 3)").unwrap();
        db.execute("DELETE FROM h WHERE GREATEST(a, b) > 6").unwrap();
        let r = db.execute("SELECT a, b FROM h").unwrap();
        assert_eq!(r.rows(), &[vec![Value::I64(3), Value::I64(3)]], "{kind}");
        let err = db.execute("UPDATE h SET a = NULLIF(a, 3)").unwrap_err();
        assert!(err.to_string().contains("NULL in NOT NULL column a"), "{kind}: {err}");
        assert!(matches!(
            db.execute("INSERT INTO h VALUES (1 / 0, 1)"),
            Err(VwError::DivideByZero)
        ));
    }

    // `@` names the twin: `tv` is VECTORWISE, `th` its HEAP copy.
    for (twin, kind) in [("tv", "VECTORWISE"), ("th", "HEAP")] {
        db.execute(&format!(
            "CREATE TABLE {twin} (a BIGINT NOT NULL, d DOUBLE, dt DATE, s VARCHAR) \
             WITH TYPE = {kind}"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO {twin} VALUES (1, 1.5, DATE '2024-02-28', 'p'), \
             (2, NULL, NULL, NULL), (3, NULL, DATE '2024-12-31', NULL), (4, 0.0, NULL, 'q')"
        ))
        .unwrap();
    }
    let statements = [
        "UPDATE @ SET d = d + 1.0",
        "UPDATE @ SET dt = dt + INTERVAL '1' DAY",
        "UPDATE @ SET s = COALESCE(s, 'x')",
        "UPDATE @ SET d = 10.0 / d WHERE d IS NULL OR d > 1.0",
        "UPDATE @ SET s = NULL WHERE dt IS NULL",
        "UPDATE @ SET d = d * 2.0 WHERE d < 5.0",
        "UPDATE @ SET dt = DATE '2000-01-01' WHERE dt > DATE '2024-06-01'",
        "UPDATE @ SET s = s || '!' WHERE s = 'x'",
        "DELETE FROM @ WHERE s IS NULL AND d IS NULL",
        "UPDATE @ SET d = 1.0 / (d - d)",
        "DELETE FROM @ WHERE d IS NULL OR dt IS NULL",
    ];
    for sql in statements {
        let outcome = |twin: &str| match db.execute(&sql.replace('@', twin)) {
            Ok(r) => Ok(r.affected),
            Err(e) => Err(e.code()),
        };
        let (vw, heap) = (outcome("tv"), outcome("th"));
        assert_eq!(heap, vw, "{sql}");
        let rows = |twin: &str| {
            db.execute(&format!("SELECT a, d, dt, s FROM {twin} ORDER BY a"))
                .unwrap()
                .rows()
                .to_vec()
        };
        assert_eq!(rows("th"), rows("tv"), "after {sql}");
    }
}

// ---------------------------------------------------------------------------
// UPDATE/DELETE against a row mirror: the victim search reads only the
// columns it needs, skips packs by zone map, and still has to address
// exactly the right rows of the image.
// ---------------------------------------------------------------------------

mod dml_matrix {
    use std::sync::Arc;
    use vectorwise::common::{ColData, EngineConfig, Value, VwError};
    use vectorwise::core::{bulk_load, Database, Session};
    use vectorwise::storage::SimulatedDisk;

    type Row = Vec<Value>;
    const PACK: i64 = 100;

    fn int(r: &Row, c: usize) -> i64 {
        match r[c] {
            Value::I64(v) => v,
            ref other => panic!("column {c} is {other:?}"),
        }
    }

    /// `t(k NOT NULL, a, b, s)`: `n` rows in packs of 100, `k` ascending
    /// (so `k` predicates prune packs), `b` cycling 0..7 — and its mirror
    /// in image order.
    fn table(n: i64) -> (Arc<Database>, Vec<Row>) {
        let config = EngineConfig { pack_size: PACK as usize, ..EngineConfig::default() };
        let db = Database::open_with(config, SimulatedDisk::instant());
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, a BIGINT, b BIGINT, s VARCHAR)").unwrap();
        let mirror: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    Value::I64(i),
                    Value::I64(i * 2),
                    Value::I64(i % 7),
                    Value::Str(format!("s{i}")),
                ]
            })
            .collect();
        let cols = vec![
            ColData::I64((0..n).collect()),
            ColData::I64((0..n).map(|i| i * 2).collect()),
            ColData::I64((0..n).map(|i| i % 7).collect()),
            ColData::Str((0..n).map(|i| format!("s{i}")).collect()),
        ];
        bulk_load(&db, "t", &cols, &[None, None, None, None]).unwrap();
        (db, mirror)
    }

    /// One statement and what it does to the mirror.
    struct Case {
        sql: &'static str,
        victim: fn(&Row) -> bool,
        /// `None` deletes the victims.
        set: Option<fn(&mut Row)>,
    }

    fn run(session: &mut Session, mirror: &mut Vec<Row>, case: &Case) {
        let affected = session.execute(case.sql).unwrap().affected;
        let victims = mirror.iter().filter(|r| (case.victim)(r)).count() as u64;
        assert_eq!(affected, victims, "{}", case.sql);
        match case.set {
            Some(set) => mirror.iter_mut().filter(|r| (case.victim)(r)).for_each(set),
            None => mirror.retain(|r| !(case.victim)(r)),
        }
        let got = session.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap();
        assert_eq!(got.rows(), mirror.as_slice(), "after {}", case.sql);
    }

    const CASES: &[Case] = &[
        // Predicate on a non-leading column; victims in every pack.
        Case {
            sql: "UPDATE t SET a = 7 WHERE b = 3",
            victim: |r| int(r, 2) == 3,
            set: Some(|r| r[1] = Value::I64(7)),
        },
        // The right-hand side reads a column the predicate does not.
        Case {
            sql: "UPDATE t SET a = b + 1 WHERE k < 250",
            victim: |r| int(r, 0) < 250,
            set: Some(|r| r[1] = Value::I64(int(r, 2) + 1)),
        },
        // An excluded row (b = 0) must never reach the division.
        Case {
            sql: "UPDATE t SET a = 10 / b WHERE b <> 0",
            victim: |r| int(r, 2) != 0,
            set: Some(|r| r[1] = Value::I64(10 / int(r, 2))),
        },
        // Two SET columns, one of them a string; both read the old row.
        Case {
            sql: "UPDATE t SET s = 'x', b = a WHERE k >= 40 AND k < 45",
            victim: |r| (40..45).contains(&int(r, 0)),
            set: Some(|r| {
                r[3] = Value::Str("x".into());
                r[2] = r[1].clone();
            }),
        },
        // Victims on both sides of a pack boundary.
        Case {
            sql: "UPDATE t SET b = -1 WHERE k >= 198 AND k <= 203",
            victim: |r| (198..=203).contains(&int(r, 0)),
            set: Some(|r| r[2] = Value::I64(-1)),
        },
        Case {
            sql: "DELETE FROM t WHERE k >= 98 AND k <= 101",
            victim: |r| (98..=101).contains(&int(r, 0)),
            set: None,
        },
        // A predicate on a column that earlier cases modified, over rows
        // whose packs its own zone map would prune (b was never -1 or
        // above 6 on disk).
        Case { sql: "DELETE FROM t WHERE b = -1", victim: |r| int(r, 2) == -1, set: None },
        Case {
            sql: "UPDATE t SET a = 0 WHERE b > 6",
            victim: |r| int(r, 2) > 6,
            set: Some(|r| r[1] = Value::I64(0)),
        },
        // No WHERE: an empty scan projection.
        Case { sql: "UPDATE t SET a = 1", victim: |_| true, set: Some(|r| r[1] = Value::I64(1)) },
    ];

    #[test]
    fn update_delete_matrix_matches_the_mirror() {
        let (db, mut mirror) = table(450);
        let mut s = db.session();
        for case in CASES {
            run(&mut s, &mut mirror, case);
        }
        // The same answers from fresh stable storage.
        s.execute("CHECKPOINT t").unwrap();
        assert_eq!(
            s.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap().rows(),
            mirror.as_slice()
        );
        run(&mut s, &mut mirror, &Case { sql: "DELETE FROM t", victim: |_| true, set: None });
        assert!(mirror.is_empty());
    }

    /// The `del_txn` shape: the predicate's hint prunes every stable pack,
    /// and the only victims are PDT-resident inserts.
    #[test]
    fn hints_that_prune_every_pack_still_reach_inserted_rows() {
        let (db, mut mirror) = table(300);
        let mut s = db.session();
        // Modified rows in every pack: they must not drag their (pruned)
        // packs back in, and must not be mistaken for victims.
        run(
            &mut s,
            &mut mirror,
            &Case {
                sql: "UPDATE t SET a = -5 WHERE b = 2",
                victim: |r| int(r, 2) == 2,
                set: Some(|r| r[1] = Value::I64(-5)),
            },
        );
        s.execute("INSERT INTO t VALUES (9001, 1, 1, 'i'), (9002, 2, 2, 'j'), (9003, 3, 3, 'k')")
            .unwrap();
        for (k, v) in [(9001, "i"), (9002, "j"), (9003, "k")] {
            let d = k - 9000;
            mirror.push(vec![Value::I64(k), Value::I64(d), Value::I64(d), Value::Str(v.into())]);
        }
        run(
            &mut s,
            &mut mirror,
            &Case {
                sql: "UPDATE t SET a = a + 100 WHERE k > 9001",
                victim: |r| int(r, 0) > 9001,
                set: Some(|r| r[1] = Value::I64(int(r, 1) + 100)),
            },
        );
        run(
            &mut s,
            &mut mirror,
            &Case { sql: "DELETE FROM t WHERE k > 9000", victim: |r| int(r, 0) > 9000, set: None },
        );
        assert_eq!(mirror.len(), 300);
    }

    #[test]
    fn open_transaction_updates_and_deletes_its_own_inserts() {
        let (db, mut mirror) = table(250);
        let committed = mirror.clone();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (5000, 1, 1, 'new'), (5001, 2, 2, 'new')").unwrap();
        mirror.push(vec![Value::I64(5000), Value::I64(1), Value::I64(1), Value::Str("new".into())]);
        mirror.push(vec![Value::I64(5001), Value::I64(2), Value::I64(2), Value::Str("new".into())]);
        for case in [
            // Own inserts and stable rows in one statement.
            Case {
                sql: "UPDATE t SET a = a * 3 WHERE b = 1",
                victim: |r| int(r, 2) == 1,
                set: Some(|r| r[1] = Value::I64(int(r, 1) * 3)),
            },
            Case { sql: "DELETE FROM t WHERE k = 5000", victim: |r| int(r, 0) == 5000, set: None },
            Case {
                sql: "UPDATE t SET s = 'mine' WHERE k >= 5000",
                victim: |r| int(r, 0) >= 5000,
                set: Some(|r| r[3] = Value::Str("mine".into())),
            },
        ] {
            run(&mut s, &mut mirror, &case);
        }
        // Nobody else sees any of it until COMMIT.
        assert_eq!(
            db.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap().rows(),
            committed.as_slice()
        );
        s.execute("COMMIT").unwrap();
        assert_eq!(
            db.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap().rows(),
            mirror.as_slice()
        );
    }

    #[test]
    fn not_null_violation_leaves_the_image_unchanged() {
        let (db, mirror) = table(250);
        let mut s = db.session();
        // Rows 0..119 would succeed before row 120 violates NOT NULL.
        let bad = "UPDATE t SET k = CASE WHEN k = 120 THEN NULL ELSE k + 1000 END WHERE k < 200";
        assert!(matches!(s.execute(bad), Err(VwError::Exec(_))));
        assert_eq!(
            s.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap().rows(),
            mirror.as_slice()
        );
        // Inside a transaction the failed statement leaves no partial
        // writes behind; the transaction stays usable.
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET a = 0 WHERE k = 0").unwrap();
        assert!(s.execute(bad).is_err());
        s.execute("COMMIT").unwrap();
        let mut want = mirror;
        want[0][1] = Value::I64(0);
        assert_eq!(
            db.execute("SELECT k, a, b, s FROM t ORDER BY k").unwrap().rows(),
            want.as_slice()
        );
    }

    /// Zone maps survive deltas: one updated row must not turn pack
    /// skipping off for the whole table.
    #[test]
    fn one_updated_row_does_not_disable_pack_skipping() {
        use vectorwise::volcano::{collect_rows, ScalarExpr, TupleFilter, TupleValues};
        let n = 2_000i64;
        // A buffer pool smaller than one column of one pack: every chunk
        // a scan touches is a device read.
        let config = EngineConfig {
            pack_size: PACK as usize,
            buffer_pool_bytes: 1,
            ..EngineConfig::default()
        };
        let db = Database::open_with(config, SimulatedDisk::instant());
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, a BIGINT)").unwrap();
        let cols = vec![ColData::I64((0..n).collect()), ColData::I64((0..n).rev().collect())];
        bulk_load(&db, "t", &cols, &[None, None]).unwrap();
        let mut mirror: Vec<Row> =
            (0..n).map(|i| vec![Value::I64(i), Value::I64(n - 1 - i)]).collect();

        db.execute("UPDATE t SET a = -1 WHERE k = 1234").unwrap();
        mirror[1234][1] = Value::I64(-1);

        let reads_of = |sql: &str| {
            let before = db.disk().stats().reads;
            let rows = db.execute(sql).unwrap().rows().to_vec();
            (rows, db.disk().stats().reads - before)
        };
        let (all, full_reads) = reads_of("SELECT k, a FROM t ORDER BY k");
        assert_eq!(all, mirror);
        let (got, range_reads) =
            reads_of("SELECT k, a FROM t WHERE k >= 1200 AND k < 1300 ORDER BY k");
        assert!(
            range_reads * 4 < full_reads,
            "a one-pack range read {range_reads} blocks, the full scan {full_reads}"
        );
        // The same answer from the tuple-at-a-time engine over the mirror
        // — the updated row (k = 1234) is inside the range.
        let schema = db.execute("SELECT k, a FROM t WHERE k < 0").unwrap().schema.clone();
        let k_vs = |op, v| {
            let (k, v) = (ScalarExpr::Col(0), ScalarExpr::Lit(Value::I64(v)));
            Box::new(ScalarExpr::Cmp(op, Box::new(k), Box::new(v)))
        };
        let pred = ScalarExpr::And(k_vs(">=", 1200), k_vs("<", 1300));
        let mut volcano = TupleFilter::new(Box::new(TupleValues::new(schema, mirror)), pred);
        assert_eq!(got, collect_rows(&mut volcano).unwrap());
        assert!(got.contains(&vec![Value::I64(1234), Value::I64(-1)]));
    }

    /// Multi-table commit is all or nothing.
    #[test]
    fn conflict_on_a_later_table_leaves_earlier_tables_untouched() {
        let db = Database::open_in_memory();
        for t in ["a_first", "b_second"] {
            db.execute(&format!("CREATE TABLE {t} (x BIGINT)")).unwrap();
            db.execute(&format!("INSERT INTO {t} VALUES (1), (2)")).unwrap();
            db.execute(&format!("CHECKPOINT {t}")).unwrap();
        }
        let version = |t: &str| {
            let cat = db.catalog.read();
            let entry = cat.get(t).unwrap();
            let vectorwise::core::catalog::TableKind::Vectorwise { pdt, .. } = &entry.kind else {
                panic!("vectorwise table")
            };
            (pdt.snapshot().1, pdt.stats())
        };
        let before = version("a_first");

        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE a_first SET x = 10 WHERE x = 1").unwrap();
        s.execute("UPDATE b_second SET x = 10 WHERE x = 1").unwrap();
        // Another session commits a write to the same row of the table
        // that commits second (name order).
        db.execute("UPDATE b_second SET x = 20 WHERE x = 1").unwrap();
        assert!(matches!(s.execute("COMMIT"), Err(VwError::TxnConflict(_))));

        assert_eq!(version("a_first"), before, "first table: same version, no deltas");
        let r = db.execute("SELECT SUM(x) FROM a_first").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::I64(3));
        let r = db.execute("SELECT SUM(x) FROM b_second").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::I64(22));
    }
}

//! Cross-crate transaction behaviour: isolation, conflicts, checkpoints,
//! and DML/scan interaction through the PDT merge path.

use vectorwise::common::{ColData, EngineConfig, Value, VwError};
use vectorwise::core::{bulk_load, Database};
use vectorwise::storage::SimulatedDisk;

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
        use vectorwise::common::TypeId;
        use vectorwise::exec::expr::{CmpOp, PhysExpr};
        use vectorwise::volcano::{collect_rows, TupleFilter, TupleValues};
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
            let (k, v) =
                (PhysExpr::ColRef(0, TypeId::I64), PhysExpr::Const(Value::I64(v), TypeId::I64));
            PhysExpr::Cmp { op, lhs: Box::new(k), rhs: Box::new(v) }
        };
        let pred = PhysExpr::And(vec![k_vs(CmpOp::Ge, 1200), k_vs(CmpOp::Lt, 1300)]);
        let rows = Box::new(TupleValues::new(schema, mirror));
        let mut volcano = TupleFilter::new(rows, move |r| pred.selects_tuple(r));
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

/// Deltas never change an answer. A seeded run of random INSERT, UPDATE
/// and DELETE over a table of 20 packs is queried after every statement
/// with predicates the zone maps prune — on columns the updates modify
/// (`k`, `a`) and on one they do not touch in most statements (`b`) — and
/// must answer exactly as a twin database that runs CHECKPOINT after every
/// statement, whose scans read delta-free packs with zone maps that
/// describe every row. UPDATE and DELETE victim counts match too. It runs
/// at DOP {1, 4} × morsel_rows {64, default}.
#[test]
fn answers_are_invariant_under_checkpoint() {
    const ROWS: i64 = 2_000;
    let mut seed = 0x0c4e_c4b0_u64;
    let mut below = move |n: u64| {
        seed = vectorwise::common::hash::hash_u64(seed);
        (seed % n) as i64
    };
    for (dop, morsel_rows) in [(1, 64), (1, 16 * 1024), (4, 64), (4, 16 * 1024)] {
        let open = || {
            let config = EngineConfig { pack_size: 100, ..EngineConfig::default() };
            let db = Database::open_with(config, SimulatedDisk::instant());
            db.execute(&format!("SET dop = {dop}")).unwrap();
            db.execute(&format!("SET morsel_rows = {morsel_rows}")).unwrap();
            db.execute("CREATE TABLE t (k BIGINT NOT NULL, a BIGINT, b BIGINT NOT NULL)").unwrap();
            let columns = [
                ColData::I64((0..ROWS).collect()),
                ColData::I64((0..ROWS).map(|k| k / 10).collect()),
                ColData::I64((0..ROWS).map(|k| k / 50).collect()),
            ];
            bulk_load(&db, "t", &columns, &[None, None, None]).unwrap();
            db
        };
        let (live, twin) = (open(), open());
        let mut victims_total = 0;
        for step in 0..60 {
            let (x, w) = (below(ROWS as u64 + 200), below(40));
            let dml = match below(6) {
                0 => format!(
                    "INSERT INTO t VALUES ({x}, {}, {}), ({}, NULL, {w})",
                    x / 10,
                    x / 50,
                    x + w
                ),
                // Modifies a column the hint is not on.
                1 => format!("UPDATE t SET a = a + {w} WHERE k BETWEEN {x} AND {}", x + w),
                // Moves rows out of the range their pack's zone map holds.
                2 => format!("UPDATE t SET k = k + {} WHERE a = {}", 500 + w * 10, x / 10),
                3 => format!(
                    "UPDATE t SET b = b - {w}, k = {} WHERE k BETWEEN {x} AND {}",
                    ROWS * 2 - x,
                    x + 2
                ),
                4 => format!("DELETE FROM t WHERE k BETWEEN {x} AND {}", x + w / 4),
                _ => format!("DELETE FROM t WHERE b = {} AND a > {}", x / 50, x / 10),
            };
            let victims = live.execute(&dml).unwrap().affected;
            assert_eq!(victims, twin.execute(&dml).unwrap().affected, "step {step}: {dml}");
            victims_total += victims;
            twin.execute("CHECKPOINT t").unwrap();
            let (y, v) = (below(ROWS as u64 * 2), below(300));
            let queries = [
                format!("SELECT COUNT(*), SUM(a), SUM(b), MIN(k), MAX(k) FROM t WHERE k BETWEEN {y} AND {}", y + v),
                format!("SELECT COUNT(*), SUM(k), SUM(b) FROM t WHERE a >= {} AND a <= {}", y / 10, (y + v) / 10),
                format!("SELECT COUNT(*), SUM(k), SUM(a) FROM t WHERE b = {}", y / 50),
                format!("SELECT k, a, b FROM t WHERE k > {y} AND a < {} ORDER BY k, a, b", (y + v) / 10),
            ];
            for q in &queries {
                let (got, want) = (live.execute(q).unwrap(), twin.execute(q).unwrap());
                assert_eq!(
                    got.rows(),
                    want.rows(),
                    "dop {dop}, morsel_rows {morsel_rows}, step {step} after `{dml}`: {q}"
                );
            }
        }
        assert!(victims_total > 100, "the statements hit rows: {victims_total}");
        let all = "SELECT k, a, b FROM t ORDER BY k, a, b";
        assert_eq!(live.execute(all).unwrap().rows(), twin.execute(all).unwrap().rows());
    }
}

/// `bulk_load` checks that the table is delta-free and installs the next
/// generation in one step that commits wait for: a commit racing it lands
/// before the check (and the load is refused), or after the install (on
/// the loaded generation, or refused because its snapshot predates it). A
/// row whose INSERT returned `Ok` is never lost. Each round, another
/// session holds a transaction with one INSERT open, commits it while the
/// load runs, then runs 19 auto-commit INSERTs — from a session of its
/// own, so nothing but the engine orders them against the load.
#[test]
fn bulk_load_racing_commits_keeps_every_committed_row() {
    use std::sync::{Arc, Barrier};
    const LOAD: usize = 50_000;
    let db = Database::open_in_memory();
    for round in 0..100 {
        db.execute("DROP TABLE IF EXISTS t; CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
        let start = Arc::new(Barrier::new(2));
        let inserter = {
            let (db, start) = (db.clone(), start.clone());
            std::thread::spawn(move || {
                let mut s = db.session();
                s.execute("BEGIN; INSERT INTO t VALUES (0)").unwrap();
                start.wait();
                // Every order of this COMMIT and the load is correct; this
                // pause lands it inside the load, the order that lost it.
                std::thread::sleep(std::time::Duration::from_micros(100));
                let mut committed = 0i64;
                for i in 0..20 {
                    let sql = if i == 0 {
                        "COMMIT".to_string()
                    } else {
                        format!("INSERT INTO t VALUES ({i})")
                    };
                    match s.execute(&sql) {
                        Ok(_) => committed += 1,
                        Err(VwError::TxnConflict(_)) => {}
                        Err(e) => panic!("{sql}: {e}"),
                    }
                }
                committed
            })
        };
        start.wait();
        let loaded = match bulk_load(&db, "t", &[ColData::I64(vec![-1; LOAD])], &[None]) {
            Ok(_) => LOAD as i64,
            Err(VwError::TxnState(_)) => 0,
            Err(e) => panic!("bulk_load: {e}"),
        };
        let expected = loaded + inserter.join().unwrap();
        let count = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.scalar().unwrap(), &Value::I64(expected), "round {round}");
    }
}

/// A CHECKPOINT from another session racing `bulk_load` materializes the
/// generation before the load or the one after it, and installs it in the
/// same order commits are: the loaded rows are never replaced by a
/// generation built from the one before them.
#[test]
fn bulk_load_racing_checkpoint_keeps_every_loaded_row() {
    use std::sync::{Arc, Barrier};
    const BASE: i64 = 20_000;
    let db = Database::open_in_memory();
    for round in 0..100 {
        db.execute("DROP TABLE IF EXISTS t; CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
        bulk_load(&db, "t", &[ColData::I64((0..BASE).collect())], &[None]).unwrap();
        let start = Arc::new(Barrier::new(2));
        let checkpointer = {
            let (db, start) = (db.clone(), start.clone());
            std::thread::spawn(move || {
                let mut s = db.session();
                start.wait();
                s.execute("CHECKPOINT t").map(|r| r.affected)
            })
        };
        start.wait();
        // Every order is correct; this pause lets the CHECKPOINT read its
        // image before the load, the order that lost the loaded rows.
        std::thread::sleep(std::time::Duration::from_micros(200));
        bulk_load(&db, "t", &[ColData::I64(vec![-1; 10])], &[None]).unwrap();
        checkpointer.join().unwrap().unwrap();
        let count = db.execute("SELECT COUNT(*), SUM(k) FROM t").unwrap();
        let want = [Value::I64(BASE + 10), Value::I64(BASE * (BASE - 1) / 2 - 10)];
        assert_eq!(count.rows()[0], want, "round {round}");
    }
}

/// Snapshot isolation, checked on a history rather than on one answer (the
/// approach of Elle, Kingsbury & Alvaro, VLDB 2020). Two writer sessions
/// move amounts between 2–4 one-row tables, each move one transaction
/// (`BEGIN; UPDATE; UPDATE; COMMIT`), and now and then CHECKPOINT a table,
/// so every committed state sums to the same total. Reader sessions read
/// all tables meanwhile in three shapes — one statement with a scalar
/// subquery per further table, `BEGIN` plus one SELECT per table, and a
/// comma-FROM join — and every answer must sum to the total. It runs at
/// DOP {1, 4} over a fixed set of seeds; `VW_SERVICE_SEED` runs one seed
/// of its own.
#[test]
fn readers_see_each_transfer_whole_or_not_at_all() {
    let seeds = match std::env::var("VW_SERVICE_SEED") {
        Ok(s) => vec![s.trim().parse().unwrap_or_else(|_| panic!("bad VW_SERVICE_SEED: {s:?}"))],
        Err(_) => vec![1, 2, 3],
    };
    for seed in seeds {
        for dop in [1, 4] {
            transfer_history(seed, dop);
        }
    }
}

/// One history of [`readers_see_each_transfer_whole_or_not_at_all`].
fn transfer_history(seed: u64, dop: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    const READS: usize = 150;
    let tables = 2 + (seed % 3) as usize;
    let total = 1000 * tables as i64;
    let names: Vec<String> = (0..tables).map(|t| format!("h{t}")).collect();
    let db = Database::open_in_memory();
    for name in &names {
        db.execute(&format!("CREATE TABLE {name} (x BIGINT NOT NULL)")).unwrap();
        db.execute(&format!("INSERT INTO {name} VALUES (1000)")).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (db, stop, n) = (db.clone(), stop.clone(), tables as u64);
            std::thread::spawn(move || {
                let mut s = db.session();
                let mut rng = vectorwise::common::hash::hash_u64(seed * 2 + w);
                let mut next = move |below: u64| {
                    rng = vectorwise::common::hash::hash_u64(rng);
                    rng % below
                };
                let mut commits = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let (from, step, amount) = (next(n), 1 + next(n - 1), 1 + next(50));
                    let to = (from + step) % n;
                    let moved = format!(
                        "BEGIN; UPDATE h{from} SET x = x - {amount}; \
                         UPDATE h{to} SET x = x + {amount}; COMMIT"
                    );
                    match s.execute(&moved) {
                        Ok(_) => commits += 1,
                        Err(VwError::TxnConflict(_)) => {}
                        Err(e) => panic!("seed {seed}: {moved}: {e}"),
                    }
                    if next(20) == 0 {
                        s.execute(&format!("CHECKPOINT h{}", next(n))).unwrap();
                    }
                }
                commits
            })
        })
        .collect();

    let one_statement = {
        let subqueries: Vec<String> =
            names[1..].iter().map(|t| format!(" + (SELECT SUM(x) FROM {t})")).collect();
        format!("SELECT COUNT(*) FROM h0 WHERE x{} <> {total}", subqueries.concat())
    };
    let join = {
        let sum: Vec<String> = names.iter().map(|t| format!("{t}.x")).collect();
        format!("SELECT {} FROM {}", sum.join(" + "), names.join(", "))
    };
    let readers: Vec<_> = (0..3)
        .map(|shape| {
            let (db, names) = (db.clone(), names.clone());
            let (one_statement, join) = (one_statement.clone(), join.clone());
            std::thread::spawn(move || {
                let mut s = db.session();
                s.execute(&format!("SET dop = {dop}")).unwrap();
                let scalar = |r: vectorwise::core::QueryResult| match r.scalar().unwrap() {
                    Value::I64(v) => *v,
                    other => panic!("{other:?}"),
                };
                let mut torn = 0;
                for _ in 0..READS {
                    let sum = match shape {
                        0 => total + scalar(s.execute(&one_statement).unwrap()),
                        1 => {
                            s.execute("BEGIN").unwrap();
                            let sum = names
                                .iter()
                                .map(|t| {
                                    scalar(s.execute(&format!("SELECT SUM(x) FROM {t}")).unwrap())
                                })
                                .sum();
                            s.execute("COMMIT").unwrap();
                            sum
                        }
                        _ => scalar(s.execute(&join).unwrap()),
                    };
                    torn += usize::from(sum != total);
                }
                torn
            })
        })
        .collect();
    let torn: Vec<usize> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    let commits: u32 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(commits > 0, "seed {seed}, dop {dop}: no transfer committed");
    assert_eq!(
        torn,
        [0, 0, 0],
        "seed {seed}, dop {dop}, {tables} tables, {commits} commits: torn reads of \
         [one statement, BEGIN + a SELECT per table, join] out of {READS} each"
    );
    let final_sum: i64 = names
        .iter()
        .map(|t| match db.execute(&format!("SELECT SUM(x) FROM {t}")).unwrap().scalar().unwrap() {
            Value::I64(v) => *v,
            other => panic!("{other:?}"),
        })
        .sum();
    assert_eq!(final_sum, total, "seed {seed}, dop {dop}: the committed state");
}

/// How INSERT maps its source onto the table, pinned on both table kinds:
/// a column list in any order, an omitted nullable column filled with
/// NULL, integers cast into DOUBLE from a literal and from a BIGINT
/// column, and the exact texts of an omitted NOT NULL column and of both
/// count mismatches. A refused INSERT leaves the table as it was.
#[test]
fn insert_maps_the_column_list_casts_and_checks_not_null_on_both_table_kinds() {
    for kind in ["VECTORWISE", "HEAP"] {
        let db = Database::open_in_memory();
        db.execute(&format!(
            "CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR, c DOUBLE) WITH TYPE = {kind}"
        ))
        .unwrap();
        db.execute("INSERT INTO t (c, a, b) VALUES (1.5, 1, 'x')").unwrap();
        db.execute("INSERT INTO t (a, c) VALUES (2, 2.5)").unwrap();
        db.execute("INSERT INTO t VALUES (3, 'y', 7)").unwrap();
        let r = db.execute("INSERT INTO t (c, a) SELECT a, a + 10 FROM t WHERE a < 3").unwrap();
        assert_eq!(r.affected, 2, "{kind}");
        let r = db.execute("SELECT a, b, c FROM t ORDER BY a").unwrap();
        let row = |a, b: Option<&str>, c| {
            vec![Value::I64(a), b.map_or(Value::Null, |s| Value::Str(s.into())), Value::F64(c)]
        };
        let want = [
            row(1, Some("x"), 1.5),
            row(2, None, 2.5),
            row(3, Some("y"), 7.0),
            row(11, None, 1.0),
            row(12, None, 2.0),
        ];
        assert_eq!(r.rows(), &want, "{kind}");

        let refused = [
            ("INSERT INTO t (b, c) VALUES ('z', 1.0)", "NULL in NOT NULL column a"),
            ("INSERT INTO t VALUES (4, 'z')", "INSERT provides 2 values for 3 columns"),
            ("INSERT INTO t SELECT a, b FROM t", "INSERT provides 2 values for 3 columns"),
            ("INSERT INTO t (a, b) VALUES (4)", "INSERT column/value count mismatch"),
            ("INSERT INTO t (a) SELECT a, c FROM t", "INSERT column/value count mismatch"),
        ];
        for (sql, text) in refused {
            let err = db.execute(sql).unwrap_err();
            assert!(matches!(err, VwError::Exec(_)), "{kind}: {sql}: {err:?}");
            assert_eq!(err.to_string(), format!("E_EXEC: execution error: {text}"), "{kind}");
        }
        assert_eq!(db.execute("SELECT a, b, c FROM t ORDER BY a").unwrap().rows(), &want);
    }
}

/// INSERT … SELECT of 3 000 rows spans several vectors of the plan, and a
/// self-insert reads its target as of the statement's start. A NOT NULL
/// violation in the last row inserts nothing; inside `BEGIN` it leaves the
/// transaction as it was, own inserts included.
#[test]
fn insert_select_spans_batches_and_a_late_violation_inserts_nothing() {
    for kind in ["VECTORWISE", "HEAP"] {
        let db = Database::open_in_memory();
        db.execute("CREATE TABLE src (k BIGINT NOT NULL, v BIGINT)").unwrap();
        let values: Vec<String> = (0..3_000)
            .map(|k| if k % 10 == 0 { format!("({k}, NULL)") } else { format!("({k}, {k})") })
            .collect();
        db.execute(&format!("INSERT INTO src VALUES {}", values.join(", "))).unwrap();
        db.execute(&format!(
            "CREATE TABLE t (k BIGINT NOT NULL, v DOUBLE, s VARCHAR) WITH TYPE = {kind}"
        ))
        .unwrap();
        let r = db.execute("INSERT INTO t (k, v) SELECT k, v FROM src").unwrap();
        assert_eq!(r.affected, 3_000, "{kind}");
        let r = db.execute("INSERT INTO t SELECT k + 3000, v * 2, 'again' FROM t").unwrap();
        assert_eq!(r.affected, 3_000, "{kind}: the self-insert reads 3 000 rows");
        let summary = "SELECT COUNT(*), COUNT(v), COUNT(s), SUM(k), SUM(v) FROM t";
        let want = vec![
            Value::I64(6_000),
            Value::I64(5_400),
            Value::I64(3_000),
            Value::I64((0..6_000).sum()),
            Value::F64(3.0 * (0..3_000).filter(|k| k % 10 != 0).sum::<i64>() as f64),
        ];
        assert_eq!(db.execute(summary).unwrap().rows(), std::slice::from_ref(&want), "{kind}");

        let late = "INSERT INTO t (k, v) \
                    SELECT CASE WHEN k = 2999 THEN NULL ELSE k END, v FROM src";
        let err = db.execute(late).unwrap_err();
        assert_eq!(err.to_string(), "E_EXEC: execution error: NULL in NOT NULL column k");
        assert_eq!(db.execute(summary).unwrap().rows(), std::slice::from_ref(&want), "{kind}");

        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t (k, s) VALUES (-1, 'own')").unwrap();
        assert!(s.execute(late).is_err());
        let own = "SELECT COUNT(*), MIN(k) FROM t";
        assert_eq!(s.execute(own).unwrap().rows(), &[vec![Value::I64(6_001), Value::I64(-1)]]);
        s.execute("COMMIT").unwrap();
        assert_eq!(db.execute(own).unwrap().rows(), &[vec![Value::I64(6_001), Value::I64(-1)]]);
    }
}

/// `bulk_load` onto a table that already holds rows leaves statistics the
/// planner cannot trust describing only the new rows: it marks them stale,
/// as DML does, and the planner stops estimating from them until
/// CHECKPOINT rebuilds them over the whole table.
#[test]
fn bulk_load_onto_rows_marks_statistics_stale() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL)").unwrap();
    let stats = |db: &std::sync::Arc<Database>| {
        let s = db.image().get("t").unwrap().stats.read().clone();
        (s.n_rows, s.stale)
    };
    bulk_load(&db, "t", &[ColData::I64((0..100_000).collect())], &[None]).unwrap();
    assert_eq!(stats(&db), (100_000, false), "a load onto an empty table builds statistics");
    bulk_load(&db, "t", &[ColData::I64((100_000..100_010).collect())], &[None]).unwrap();
    assert!(stats(&db).1, "a load onto 100 000 rows describes 10 of them");
    let select_est = |db: &std::sync::Arc<Database>| -> u64 {
        let plan = db.execute("EXPLAIN SELECT k FROM t WHERE k < 50000").unwrap().text.unwrap();
        let select = plan.lines().find(|l| l.trim_start().starts_with("Select")).unwrap();
        select.rsplit("est~").next().unwrap().trim().parse().unwrap()
    };
    let est = select_est(&db);
    assert!((11..100_010).contains(&est), "neither all rows nor the 10 loaded: {est}");
    db.execute("CHECKPOINT t").unwrap();
    assert_eq!(stats(&db), (100_010, false));
    let est = select_est(&db);
    assert!(est.abs_diff(50_000) < 2_000, "the rebuilt histogram: {est}");
}

/// Rows at the start, middle and end of committed insert runs and of a
/// transaction's own runs are updated and deleted: every answer matches a
/// row-by-row mirror, inside the transaction, after its commit and after
/// CHECKPOINT.
#[test]
fn updates_and_deletes_cut_insert_runs_like_a_mirror() {
    use std::collections::BTreeMap;
    let db = Database::open_in_memory();
    let vs = db.config().vector_size as i64;
    db.execute("CREATE TABLE src (k BIGINT NOT NULL)").unwrap();
    bulk_load(&db, "src", &[ColData::I64((0..3 * vs).collect())], &[None]).unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)").unwrap();
    bulk_load(
        &db,
        "t",
        &[ColData::I64((0..10).collect()), ColData::I64(vec![0; 10])],
        &[None, None],
    )
    .unwrap();
    let mut mirror: BTreeMap<i64, Option<i64>> = (0..10).map(|k| (k, Some(0))).collect();
    let matches = |s: &mut vectorwise::core::Session, mirror: &BTreeMap<i64, Option<i64>>| {
        let want: Vec<Vec<Value>> = mirror
            .iter()
            .map(|(&k, &v)| vec![Value::I64(k), v.map_or(Value::Null, Value::I64)])
            .collect();
        assert_eq!(s.execute("SELECT k, v FROM t ORDER BY k").unwrap().rows(), &want[..]);
    };
    // Inserts `src` shifted by `base` (runs of a vector each, at DOP 1),
    // then cuts them at the start, middle and end of a run.
    let cut = |s: &mut vectorwise::core::Session, mirror: &mut BTreeMap<_, _>, base: i64| {
        let insert = format!("INSERT INTO t SELECT k + {base}, k FROM src");
        assert_eq!(s.execute(&insert).unwrap().affected, 3 * vs as u64);
        mirror.extend((0..3 * vs).map(|k| (base + k, Some(k))));
        matches(s, mirror);
        let (start, middle, end) = (base, base + vs + vs / 2, base + 3 * vs - 1);
        for (k, update) in [(start, true), (base + vs - 1, false), (middle, false), (end, true)] {
            let sql = match update {
                true => format!("UPDATE t SET v = NULL WHERE k = {k}"),
                false => format!("DELETE FROM t WHERE k = {k}"),
            };
            assert_eq!(s.execute(&sql).unwrap().affected, 1, "{sql}");
            match update {
                true => mirror.insert(k, None),
                false => mirror.remove(&k),
            };
            matches(s, mirror);
        }
    };
    let mut s = db.session();
    s.execute("SET dop = 1").unwrap();
    cut(&mut s, &mut mirror, 100);
    s.execute("BEGIN").unwrap();
    cut(&mut s, &mut mirror, 10_000);
    s.execute(&format!("UPDATE t SET v = -1 WHERE k = {}", 100 + vs)).unwrap();
    mirror.insert(100 + vs, Some(-1));
    matches(&mut s, &mirror);
    s.execute("COMMIT").unwrap();
    matches(&mut s, &mirror);
    s.execute("CHECKPOINT t").unwrap();
    matches(&mut s, &mirror);
}

/// UPDATE on VECTORWISE and HEAP: a BIGINT expression and an integer
/// literal written into a DOUBLE column are cast, NULL goes into a
/// nullable column and is refused in a NOT NULL one (a late violation
/// changes nothing), a column named twice in SET keeps the last value, and
/// rows re-updated with other columns — inside `BEGIN`, after COMMIT,
/// after CHECKPOINT, and inside an insert run — match a row mirror.
#[test]
fn update_casts_checks_not_null_and_re_updates_like_a_mirror_on_both_table_kinds() {
    type Row = [Value; 4];
    fn check(s: &mut vectorwise::core::Session, mirror: &[Row], what: &str) {
        let got = s.execute("SELECT k, a, b, c FROM t ORDER BY k").unwrap();
        let want: Vec<Vec<Value>> = mirror.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got.rows(), &want[..], "{what}");
    }
    let str = |s: &str| Value::Str(s.into());
    for kind in ["VECTORWISE", "HEAP"] {
        let db = Database::open_in_memory();
        db.execute(&format!(
            "CREATE TABLE t (k BIGINT NOT NULL, a BIGINT NOT NULL, b VARCHAR, c DOUBLE) \
             WITH TYPE = {kind}"
        ))
        .unwrap();
        let values: Vec<String> =
            (0..20).map(|k| format!("({k}, {}, 'r{k}', 0.5)", 10 * k)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        db.execute("CHECKPOINT t").unwrap();
        let mut mirror: Vec<Row> = (0..20)
            .map(|k| [Value::I64(k), Value::I64(10 * k), str(&format!("r{k}")), Value::F64(0.5)])
            .collect();
        let mut s = db.session();
        let step = |s: &mut vectorwise::core::Session,
                    mirror: &mut Vec<Row>,
                    sql: &str,
                    hit: &dyn Fn(i64) -> bool,
                    set: &dyn Fn(&mut Row)| {
            let n = mirror.iter().filter(|r| matches!(r[0], Value::I64(k) if hit(k))).count();
            assert_eq!(s.execute(sql).unwrap().affected, n as u64, "{kind}: {sql}");
            mirror.iter_mut().filter(|r| matches!(r[0], Value::I64(k) if hit(k))).for_each(set);
            check(s, mirror, &format!("{kind}: {sql}"));
        };

        // Casts into DOUBLE: a BIGINT expression, an integer literal.
        step(&mut s, &mut mirror, "UPDATE t SET c = a * 2 WHERE k < 5", &|k| k < 5, &|r| {
            let Value::I64(a) = r[1] else { unreachable!() };
            r[3] = Value::F64(2.0 * a as f64);
        });
        step(&mut s, &mut mirror, "UPDATE t SET c = 7 WHERE k = 5", &|k| k == 5, &|r| {
            r[3] = Value::F64(7.0)
        });
        // NULL into nullable columns; refused in a NOT NULL one, also when
        // only the last victim is NULL.
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET b = NULL, c = NULL WHERE k = 6",
            &|k| k == 6,
            &|r| (r[2], r[3]) = (Value::Null, Value::Null),
        );
        for sql in [
            "UPDATE t SET a = NULL WHERE k = 7",
            "UPDATE t SET a = CASE WHEN k = 19 THEN NULL ELSE -a END",
        ] {
            let err = s.execute(sql).unwrap_err();
            assert!(matches!(err, VwError::Exec(_)), "{kind}: {sql}: {err:?}");
            assert_eq!(err.to_string(), "E_EXEC: execution error: NULL in NOT NULL column a");
            check(&mut s, &mirror, &format!("{kind}: refused {sql}"));
        }
        // A column named twice keeps the last value.
        step(&mut s, &mut mirror, "UPDATE t SET a = 1, a = 2 WHERE k = 8", &|k| k == 8, &|r| {
            r[1] = Value::I64(2)
        });

        // Re-updates with other column sets: inside BEGIN, after COMMIT,
        // after CHECKPOINT.
        s.execute("BEGIN").unwrap();
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET a = 100 WHERE k BETWEEN 9 AND 11",
            &|k| (9..=11).contains(&k),
            &|r| r[1] = Value::I64(100),
        );
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET b = 'x', c = 1.5 WHERE k >= 10 AND k <= 12",
            &|k| (10..=12).contains(&k),
            &|r| (r[2], r[3]) = (str("x"), Value::F64(1.5)),
        );
        s.execute("COMMIT").unwrap();
        check(&mut s, &mirror, &format!("{kind}: committed"));
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET a = a + 1, c = NULL WHERE k BETWEEN 8 AND 12",
            &|k| (8..=12).contains(&k),
            &|r| {
                let Value::I64(a) = r[1] else { unreachable!() };
                (r[1], r[3]) = (Value::I64(a + 1), Value::Null);
            },
        );
        s.execute("CHECKPOINT t").unwrap();
        check(&mut s, &mirror, &format!("{kind}: checkpointed"));
        step(&mut s, &mut mirror, "UPDATE t SET b = 'y' WHERE k = 10", &|k| k == 10, &|r| {
            r[2] = str("y")
        });

        // Rows inside an insert run, updated twice with other columns.
        let r = s.execute("INSERT INTO t SELECT k + 100, a, b, c FROM t").unwrap();
        assert_eq!(r.affected, 20, "{kind}");
        let copies: Vec<Row> = mirror
            .iter()
            .map(|r| {
                let Value::I64(k) = r[0] else { unreachable!() };
                [Value::I64(k + 100), r[1].clone(), r[2].clone(), r[3].clone()]
            })
            .collect();
        mirror.extend(copies);
        check(&mut s, &mirror, &format!("{kind}: inserted"));
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET c = 0.25, b = 'run' WHERE k BETWEEN 103 AND 106",
            &|k| (103..=106).contains(&k),
            &|r| (r[2], r[3]) = (str("run"), Value::F64(0.25)),
        );
        step(
            &mut s,
            &mut mirror,
            "UPDATE t SET a = -k WHERE k >= 105 AND k < 110",
            &|k| (105..110).contains(&k),
            &|r| {
                let Value::I64(k) = r[0] else { unreachable!() };
                r[1] = Value::I64(-k);
            },
        );
        s.execute("CHECKPOINT t").unwrap();
        check(&mut s, &mirror, &format!("{kind}: insert run checkpointed"));
    }
}

//! Strings leave the scan coded: a scanned VARCHAR value costs no
//! allocation of its own until someone reads it. A counting allocator,
//! switched on for the current thread only, holds it — for a raw string
//! column scanned end to end, and for a point lookup that projects two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vectorwise::common::{ColData, Field, Schema, TypeId, Value};
use vectorwise::core::{bulk_load, Database};
use vectorwise::exec::op::VectorScan;
use vectorwise::exec::{CancelToken, Operator};
use vectorwise::storage::{BufferPool, SimulatedDisk, TableStorage};

struct Counting;

thread_local! {
    /// Allocations on this thread while counting is on (`Some`).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (COUNT.with(|c| c.replace(None)).unwrap(), out)
}

#[test]
fn scanning_a_raw_string_column_allocates_per_pack_and_batch_not_per_row() {
    const ROWS: usize = 100_000;
    const PACK: usize = 16 * 1024;
    const VECTOR: usize = 1024;
    let schema = Schema::new(vec![Field::not_null("s", TypeId::Str)]).unwrap();
    // Every value distinct and long: past the PDICT ratio, stored raw.
    let column = ColData::Str((0..ROWS).map(|i| format!("{i:09}#comment-{}", i % 13)).collect());
    let mut table = TableStorage::new(BufferPool::new(SimulatedDisk::instant(), 64 << 20), schema);
    table.append_columns(&[column], &[None], PACK).unwrap();
    let table = Arc::new(table);

    let scan_all = || {
        let items = VectorScan::stable_items(ROWS as u64);
        let mut scan = VectorScan::new(table.clone(), vec![0], items, VECTOR, CancelToken::new());
        let (mut rows, mut last) = (0, None);
        while let Some(b) = scan.next().unwrap() {
            let (_, arena) = b.columns[0].dict_parts().expect("strings leave the scan coded");
            assert!(!arena.distinct(), "a raw block's arena holds its rows");
            rows += b.rows();
            last = Some(b);
        }
        (rows, last.unwrap())
    };
    let (allocs, (rows, last)) = allocations(scan_all);
    assert_eq!(rows, ROWS);
    assert_eq!(last.row_values(last.rows() - 1), vec![Value::Str("000099999#comment-3".into())]);
    let (packs, batches) = (ROWS.div_ceil(PACK) as u64, ROWS.div_ceil(VECTOR) as u64);
    assert!(
        allocs <= 8 * (packs + batches),
        "scanning {ROWS} rows in {packs} packs and {batches} batches allocated {allocs} times"
    );
}

#[test]
fn a_point_lookup_allocates_only_the_strings_it_returns() {
    const ROWS: usize = 1_500;
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute(
        "CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_name VARCHAR NOT NULL, \
         c_acctbal DOUBLE NOT NULL, c_phone VARCHAR NOT NULL)",
    )
    .unwrap();
    let columns = [
        ColData::I64((1..=ROWS as i64).collect()),
        ColData::Str((1..=ROWS).map(|i| format!("Customer#{i:09}")).collect()),
        ColData::F64((0..ROWS).map(|i| i as f64 * 0.5).collect()),
        ColData::Str(
            (0..ROWS).map(|i| format!("{:02}-{:03}-{:04}", 10 + i % 25, i % 997, i)).collect(),
        ),
    ];
    assert_eq!(bulk_load(&db, "customer", &columns, &[None, None, None, None]).unwrap(), 1_500);

    // Statement by statement, the same plan but for the projection: what
    // the two strings cost is the difference.
    let lookup = |items: &str| {
        let sql = format!("SELECT {items} FROM customer WHERE c_custkey = 700");
        let run = || {
            let r = db.execute(&sql).unwrap();
            assert_eq!(r.rows().len(), 1);
            r.rows()[0].clone()
        };
        run(); // warm: first-use allocations are not the statement's
        (0..5).map(|_| allocations(run)).min_by_key(|(n, _)| *n).unwrap()
    };
    let (with_strings, row) = lookup("c_name, c_acctbal, c_phone");
    assert_eq!(
        row,
        vec![
            Value::Str("Customer#000000700".into()),
            Value::F64(349.5),
            Value::Str("34-699-0699".into())
        ]
    );
    let (without, _) = lookup("c_custkey, c_acctbal, c_custkey");
    assert!(
        with_strings <= without + 64,
        "projecting two strings of a {ROWS}-row pack took {with_strings} allocations, \
         {without} without them"
    );
}

/// A session at DOP 1 and no memory budget (the CI lanes set both through
/// the environment): every operator runs on this thread, unpartitioned.
fn serial_db() -> Arc<Database> {
    let db = Database::open_in_memory();
    db.execute("SET dop = 1").unwrap();
    db.execute("SET mem_budget = 0").unwrap();
    db
}

/// The fewest allocations `sql` makes over three warm runs (the result's
/// row view, built afterwards, is not counted), with its rows.
fn statement_allocations(db: &Arc<Database>, sql: &str) -> (u64, Vec<Vec<Value>>) {
    let run = || db.execute(sql).unwrap();
    run(); // warm: first-use allocations are not the statement's
    let (n, result) = (0..3).map(|_| allocations(run)).min_by_key(|(n, _)| *n).unwrap();
    (n, result.rows().to_vec())
}

/// `t(k BIGINT, s VARCHAR)` of `rows` rows whose every `s` is distinct
/// and long, so each pack stores its strings raw.
fn raw_string_table(db: &Arc<Database>, rows: usize) {
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, s VARCHAR NOT NULL)").unwrap();
    let columns = [
        ColData::I64((0..rows as i64).collect()),
        ColData::Str(
            (0..rows).map(|i| format!("{:02}-{i:09}#xcomment-y{}", i % 31, i % 13)).collect(),
        ),
    ];
    assert_eq!(bulk_load(db, "t", &columns, &[None, None]).unwrap(), rows as u64);
}

#[test]
fn string_functions_like_and_in_lists_allocate_per_pack_and_batch_not_per_row() {
    const ROWS: usize = 100_000;
    let db = serial_db();
    raw_string_table(&db, ROWS);
    let (packs, batches) = (ROWS.div_ceil(16 * 1024) as u64, ROWS.div_ceil(1024) as u64);
    // The same scan and aggregate with no string work is the baseline.
    let (base, _) = statement_allocations(&db, "SELECT COUNT(*) FROM t WHERE k >= 0");
    let cases = [
        (
            "SELECT COUNT(*) FROM t WHERE SUBSTR(s, 1, 2) IN ('00', '03', '07', '11', '19', '23', '30')",
            Value::I64((0..ROWS).filter(|i| [0, 3, 7, 11, 19, 23, 30].contains(&(i % 31))).count() as i64),
        ),
        (
            "SELECT COUNT(*) FROM t WHERE s LIKE '%x%y%'",
            Value::I64(ROWS as i64),
        ),
        (
            "SELECT COUNT(*) FROM t WHERE s NOT LIKE '%comment-_1%'",
            Value::I64((0..ROWS).filter(|i| i % 13 != 1 && i % 13 != 11 && i % 13 != 12 && i % 13 != 10).count() as i64),
        ),
    ];
    for (sql, want) in cases {
        let (allocs, rows) = statement_allocations(&db, sql);
        assert_eq!(rows, vec![vec![want]], "{sql}");
        assert!(
            allocs <= base + 8 * (packs + batches),
            "{sql}: {allocs} allocations, {base} for the same count without strings \
             ({packs} packs, {batches} batches)"
        );
    }
    // A string result costs its batch one arena, not a `String` per row.
    let (allocs, rows) = statement_allocations(&db, "SELECT UPPER(s) FROM t");
    assert_eq!(rows.len(), ROWS);
    assert_eq!(rows[ROWS - 1], vec![Value::Str("24-000099999#XCOMMENT-Y3".into())]);
    let (base, _) = statement_allocations(&db, "SELECT k + 1 FROM t");
    assert!(
        allocs <= base + 8 * (packs + batches),
        "SELECT UPPER(s): {allocs} allocations, {base} for SELECT k + 1"
    );
}

#[test]
fn a_join_build_keeping_few_strings_of_many_packs_allocates_per_kept_lane() {
    const ROWS: usize = 8 * 16 * 1024;
    let db = serial_db();
    raw_string_table(&db, ROWS);
    db.execute("CREATE TABLE p (pk BIGINT NOT NULL)").unwrap();
    // Every even key probes: the larger side, so t's filtered side builds.
    let keys: Vec<i64> = (0..ROWS as i64).step_by(2).collect();
    assert_eq!(bulk_load(&db, "p", &[ColData::I64(keys)], &[None]).unwrap(), ROWS as u64 / 2);
    let kept = ROWS.div_ceil(100) as u64;
    // The build is t's side, a Select straight over its scan, which keeps
    // the rows whose number ends in 00.
    let sql = "SELECT t.s FROM p, t WHERE p.pk = t.k AND t.s LIKE '%00#%'";
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().text.unwrap();
    let build = plan.find("build:").expect("a hash join");
    assert!(plan[build..].starts_with("build: Select"), "t's side must build:\n{plan}");
    let (allocs, rows) = statement_allocations(&db, sql);
    assert_eq!(rows.len() as u64, kept);
    let batches = (ROWS + ROWS / 2).div_ceil(1024) as u64;
    assert!(
        allocs <= 4 * kept + 16 * batches,
        "keeping {kept} strings of {ROWS} rows in 8 packs took {allocs} allocations \
         ({batches} batches in all)"
    );
}

#[test]
fn an_aggregate_input_comparing_strings_allocates_no_string() {
    const ROWS: usize = 100_000;
    let db = serial_db();
    raw_string_table(&db, ROWS);
    let (with_strings, rows) = statement_allocations(
        &db,
        "SELECT SUM(CASE WHEN s = '00-000000000#xcomment-y0' THEN 1 ELSE 0 END) FROM t",
    );
    assert_eq!(rows, vec![vec![Value::I64(1)]]);
    let (without, _) =
        statement_allocations(&db, "SELECT SUM(CASE WHEN k = 0 THEN 1 ELSE 0 END) FROM t");
    // Planning copies the string literal a few times; running it copies
    // it into one arena entry per batch register, reused across batches.
    assert!(
        with_strings <= without + 64,
        "comparing {ROWS} strings took {with_strings} allocations, {without} comparing integers"
    );
}

//! The four workloads: what each loads, which statements a round runs, and
//! the answer each statement must give for this seed where the benchmark
//! can compute it from its own columns.

use crate::gen::{self, Table};
use crate::oracle::Digest;
use crate::queries;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use vw_common::{ColData, Date, EngineConfig, Value};
use vw_core::{bulk_load, Database, Session};
use vw_storage::SimulatedDisk;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TpchPower,
    ScanAgg,
    JoinPar,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TpchPower, Workload::ScanAgg, Workload::JoinPar, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchPower => "tpch_power",
            Workload::ScanAgg => "scan_agg",
            Workload::JoinPar => "join_par",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TpchPower => {
                "20 TPC-H queries at SF 0.01, DOP 1, data fits the buffer pool: the paper's \
                 yardstick and the broad no-regression net; planning is a visible share"
            }
            Workload::ScanAgg => {
                "six scan-filter-aggregate statements over 1M rows with the buffer pool at a \
                 quarter of the table: decode, select/project programs and hash aggregation"
            }
            Workload::JoinPar => {
                "seven hash joins at DOP 1 and DOP 2 plus a grace spill: build, probe, exchange, \
                 the worker pool; the only workload with two engine threads"
            }
            Workload::ServeMix => {
                "one session under admission control: point lookup, plan-heavy join, wide \
                 results, insert/update/delete transactions and a read over live deltas"
            }
        }
    }
}

/// Table sizes; `--quick` divides them by eight.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub tpch_orders: usize,
    pub scan_rows: usize,
    pub join_lines: usize,
}

impl Sizes {
    pub const FULL: Sizes =
        Sizes { tpch_orders: 15_000, scan_rows: 1_000_000, join_lines: 200_000 };
    pub const QUICK: Sizes = Sizes { tpch_orders: 1_875, scan_rows: 125_000, join_lines: 25_000 };
}

pub struct Stmt {
    pub name: &'static str,
    /// `SET parallelism` for this statement.
    pub dop: usize,
    /// `SET mem_budget` for this statement (0 = unlimited).
    pub mem_budget: usize,
    /// Executed in order and timed together as one sample.
    pub sql: Vec<String>,
    /// Executions per sample, so a sub-millisecond statement still gives
    /// samples of at least a millisecond; the sample is divided by it.
    pub batch: usize,
    /// The answer computed from the generated columns, where that is direct.
    pub expect: Option<Digest>,
}

impl Stmt {
    fn select(name: &'static str, sql: impl Into<String>, expect: Option<Digest>) -> Stmt {
        Stmt { name, dop: 1, mem_budget: 0, sql: vec![sql.into()], batch: 1, expect }
    }

    fn dop(mut self, dop: usize) -> Stmt {
        self.dop = dop;
        self
    }
}

pub struct Instance {
    pub db: Arc<Database>,
    pub session: Session,
    pub config: EngineConfig,
    pub stmts: Vec<Stmt>,
    /// Raw bytes of the generated columns.
    pub user_bytes: u64,
    /// Engine-only part of the set-up: DDL, bulk load, statistics.
    pub load_s: f64,
    /// Tables whose pending PDT deltas must be the same after every round.
    pub delta_tables: Vec<&'static str>,
    /// Index of the statement the two-session measurement runs.
    pub two_session_stmt: usize,
    /// How to measure CHECKPOINT, for a workload that carries deltas.
    pub checkpoint: Option<CheckpointPlan>,
    /// Rows of the workload's largest table (the per-row layer metrics'
    /// denominator).
    pub fact_rows: u64,
    /// `disk().used_bytes()` right after the load.
    pub stored_bytes: u64,
}

/// Statement indices to run so the table carries one round's deltas, the
/// table to CHECKPOINT, the statements that undo the round, and the SELECT
/// whose delta-free time `pdt.merge_slowdown` divides by.
#[derive(Clone)]
pub struct CheckpointPlan {
    pub dirty: Vec<usize>,
    pub table: &'static str,
    pub cleanup: Vec<usize>,
    pub read: usize,
}

/// Every operational setting is explicit here; `main` has removed the
/// `VW_*` environment before this runs, so the rest are the engine's
/// compiled-in defaults.
fn config(buffer_pool_bytes: usize, global_mem_bytes: u64) -> EngineConfig {
    EngineConfig {
        workers: 2,
        parallelism: 1,
        mem_budget_bytes: 0,
        buffer_pool_bytes,
        global_mem_bytes,
        ..EngineConfig::default()
    }
}

const DEFAULT_POOL: usize = 64 << 20;

fn load(db: &Arc<Database>, t: &Table) {
    db.execute(t.ddl).unwrap_or_else(|e| panic!("DDL for {}: {e}", t.name));
    bulk_load(db, t.name, &t.cols, &vec![None; t.cols.len()])
        .unwrap_or_else(|e| panic!("bulk load of {}: {e}", t.name));
}

fn open(config: &EngineConfig, tables: &[Table]) -> (Arc<Database>, f64) {
    let t0 = Instant::now();
    let db = Database::open_with(config.clone(), SimulatedDisk::instant());
    for t in tables {
        load(&db, t);
    }
    (db, t0.elapsed().as_secs_f64())
}

pub fn setup(w: Workload, seed: u64, sizes: Sizes) -> Instance {
    match w {
        Workload::TpchPower => tpch_power(seed, sizes),
        Workload::ScanAgg => scan_agg(seed, sizes),
        Workload::JoinPar => join_par(seed, sizes),
        Workload::ServeMix => serve_mix(seed, sizes),
    }
}

// ---------------------------------------------------------------------------
// Reference answers shared by several workloads
// ---------------------------------------------------------------------------

struct Q1Cols<'a> {
    qty: &'a [i64],
    price: &'a [f64],
    disc: &'a [f64],
    tax: &'a [f64],
    flag: &'a [String],
    status: &'a [String],
    ship: &'a [i32],
}

/// TPC-H Q1 over the given columns plus `extra` rows of
/// (qty, price, disc, tax, flag, status, shipdate).
fn q1_digest(c: &Q1Cols, extra: &[(i64, f64, f64, f64, &str, &str, i32)]) -> Digest {
    #[derive(Default)]
    struct Acc {
        qty: i64,
        price: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        n: i64,
    }
    let cutoff = gen::date(1998, 12, 1) - 90;
    // A handful of groups: a linear search beats allocating a key per row.
    let mut groups: Vec<(String, String, Acc)> = Vec::new();
    let mut add =
        |qty: i64, price: f64, disc: f64, tax: f64, flag: &str, status: &str, ship: i32| {
            if ship > cutoff {
                return;
            }
            let at =
                groups.iter().position(|(f, s, _)| f == flag && s == status).unwrap_or_else(|| {
                    groups.push((flag.to_string(), status.to_string(), Acc::default()));
                    groups.len() - 1
                });
            let a = &mut groups[at].2;
            a.qty += qty;
            a.price += price;
            a.disc_price += price * (1.0 - disc);
            a.charge += price * (1.0 - disc) * (1.0 + tax);
            a.disc += disc;
            a.n += 1;
        };
    for i in 0..c.qty.len() {
        add(c.qty[i], c.price[i], c.disc[i], c.tax[i], &c.flag[i], &c.status[i], c.ship[i]);
    }
    for &(qty, price, disc, tax, flag, status, ship) in extra {
        add(qty, price, disc, tax, flag, status, ship);
    }
    let rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(flag, status, a)| {
            let n = a.n as f64;
            vec![
                Value::Str(flag),
                Value::Str(status),
                Value::I64(a.qty),
                Value::F64(a.price),
                Value::F64(a.disc_price),
                Value::F64(a.charge),
                Value::F64(a.qty as f64 / n),
                Value::F64(a.price / n),
                Value::F64(a.disc / n),
                Value::I64(a.n),
            ]
        })
        .collect();
    Digest::of_rows(&rows)
}

/// TPC-H Q6 (1994, discount 0.05–0.07, quantity < 24).
fn q6_digest(qty: &[i64], price: &[f64], disc: &[f64], ship: &[i32]) -> Digest {
    let (lo, hi) = (gen::date(1994, 1, 1), gen::date(1995, 1, 1));
    let mut sum = 0.0;
    let mut any = false;
    for i in 0..qty.len() {
        if ship[i] >= lo && ship[i] < hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
            sum += price[i] * disc[i];
            any = true;
        }
    }
    Digest::of_rows(&[vec![if any { Value::F64(sum) } else { Value::Null }]])
}

const Q1_SQL: &str = queries::TPCH[0].1;
const Q6_SQL: &str = queries::TPCH[5].1;

fn lineitem_q1(l: &Table) -> Q1Cols<'_> {
    Q1Cols {
        qty: l.cols[gen::L_QUANTITY].as_i64(),
        price: l.cols[gen::L_EXTENDEDPRICE].as_f64(),
        disc: l.cols[gen::L_DISCOUNT].as_f64(),
        tax: l.cols[gen::L_TAX].as_f64(),
        flag: l.cols[gen::L_RETURNFLAG].as_str(),
        status: l.cols[gen::L_LINESTATUS].as_str(),
        ship: dates(&l.cols[gen::L_SHIPDATE]),
    }
}

fn dates(c: &ColData) -> &[i32] {
    match c {
        ColData::Date(v) => v,
        other => panic!("expected a DATE column, got {:?}", other.type_id()),
    }
}

// ---------------------------------------------------------------------------
// tpch_power
// ---------------------------------------------------------------------------

fn tpch_power(seed: u64, sizes: Sizes) -> Instance {
    let tables = gen::tpch(seed, sizes.tpch_orders);
    let l = &tables[gen::LINEITEM];
    let q1 = q1_digest(&lineitem_q1(l), &[]);
    let q6 = q6_digest(
        l.cols[gen::L_QUANTITY].as_i64(),
        l.cols[gen::L_EXTENDEDPRICE].as_f64(),
        l.cols[gen::L_DISCOUNT].as_f64(),
        dates(&l.cols[gen::L_SHIPDATE]),
    );
    let stmts = queries::TPCH
        .iter()
        .map(|&(name, sql)| {
            let expect = match name {
                "q01" => Some(q1.clone()),
                "q06" => Some(q6.clone()),
                _ => None,
            };
            Stmt::select(name, sql, expect)
        })
        .collect();
    let config = config(DEFAULT_POOL, 0);
    let (db, load_s) = open(&config, &tables);
    Instance {
        session: db.session(),
        stored_bytes: db.disk().used_bytes() as u64,
        db,
        config,
        stmts,
        user_bytes: tables.iter().map(Table::user_bytes).sum(),
        load_s,
        delta_tables: Vec::new(),
        two_session_stmt: 0,
        checkpoint: None,
        fact_rows: tables[gen::LINEITEM].rows() as u64,
    }
}

// ---------------------------------------------------------------------------
// scan_agg
// ---------------------------------------------------------------------------

/// Stored bytes of the whole table, extrapolated from loading its first
/// pack into a throw-away engine (within 0.01 % of the real figure): the
/// buffer pool must be sized before the engine that holds the table opens.
fn estimate_stored_bytes(t: &Table) -> usize {
    let sample = (16 * 1024).min(t.rows());
    let head = Table {
        name: t.name,
        ddl: t.ddl,
        cols: t
            .cols
            .iter()
            .map(|c| {
                let mut h = ColData::with_capacity(c.type_id(), sample);
                h.extend_from_range(c, 0, sample);
                h
            })
            .collect(),
    };
    let (db, _) = open(&config(DEFAULT_POOL, 0), &[head]);
    (db.disk().used_bytes() as f64 * t.rows() as f64 / sample as f64) as usize
}

fn scan_agg(seed: u64, sizes: Sizes) -> Instance {
    let t = gen::scan_table(seed, sizes.scan_rows);
    let n = t.rows();
    let okey = t.cols[gen::SC_ORDERKEY].as_i64();
    let part = t.cols[gen::SC_PARTKEY].as_i64();
    let qty = t.cols[gen::SC_QUANTITY].as_i64();
    let price = t.cols[gen::SC_EXTENDEDPRICE].as_f64();
    let disc = t.cols[gen::SC_DISCOUNT].as_f64();
    let ship = dates(&t.cols[gen::SC_SHIPDATE]);
    let nation = t.cols[gen::SC_NATION].as_str();

    let scan_sum = Digest::of_rows(&[vec![Value::I64(qty.iter().sum()), Value::I64(n as i64)]]);

    let q1 = q1_digest(
        &Q1Cols {
            qty,
            price,
            disc,
            tax: t.cols[gen::SC_TAX].as_f64(),
            flag: t.cols[gen::SC_RETURNFLAG].as_str(),
            status: t.cols[gen::SC_LINESTATUS].as_str(),
            ship,
        },
        &[],
    );

    let mut by_nation: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for i in 0..n {
        if nation[i] != "FRANCE" {
            let e = by_nation.entry(nation[i].as_str()).or_default();
            e.0 += 1;
            e.1 += qty[i];
        }
    }
    let dict_rows: Vec<Vec<Value>> = by_nation
        .into_iter()
        .map(|(k, (c, q))| vec![Value::Str(k.to_string()), Value::I64(c), Value::I64(q)])
        .collect();

    // The clustered key's last tenth.
    let cut = okey[n - 1] * 9 / 10;
    let (mut zc, mut zs) = (0i64, 0.0);
    for i in 0..n {
        if okey[i] > cut {
            zc += 1;
            zs += price[i];
        }
    }

    const HIGH_MIN: u32 = 14;
    let mut per_part = vec![0u32; n / 4 + 2];
    for &p in part {
        per_part[p as usize] += 1;
    }
    let high_rows: Vec<Vec<Value>> = per_part
        .iter()
        .enumerate()
        .filter(|(_, &c)| c >= HIGH_MIN)
        .map(|(p, &c)| vec![Value::I64(p as i64), Value::I64(c as i64)])
        .collect();

    let stmts = vec![
        Stmt::select("scan_sum", "SELECT SUM(l_quantity), COUNT(*) FROM lineitem", Some(scan_sum)),
        Stmt::select("scan_filter_sum", Q6_SQL, Some(q6_digest(qty, price, disc, ship))),
        Stmt::select("scan_group_agg", Q1_SQL, Some(q1)),
        Stmt::select(
            "scan_dict_filter",
            "SELECT l_nation, COUNT(*), SUM(l_quantity) FROM lineitem \
             WHERE l_nation <> 'FRANCE' GROUP BY l_nation",
            Some(Digest::of_rows(&dict_rows)),
        ),
        Stmt::select(
            "scan_zone_skip",
            format!("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey > {cut}"),
            Some(Digest::of_rows(&[vec![Value::I64(zc), Value::F64(zs)]])),
        ),
        Stmt::select(
            "scan_group_high",
            format!(
                "SELECT l_partkey, COUNT(*) FROM lineitem GROUP BY l_partkey \
                 HAVING COUNT(*) >= {HIGH_MIN}"
            ),
            Some(Digest::of_rows(&high_rows)),
        ),
    ];

    // Larger than cache: every round takes the miss and evict path.
    let config = config(estimate_stored_bytes(&t) / 4, 0);
    let user_bytes = t.user_bytes();
    let (db, load_s) = open(&config, std::slice::from_ref(&t));
    Instance {
        session: db.session(),
        stored_bytes: db.disk().used_bytes() as u64,
        db,
        config,
        stmts,
        user_bytes,
        load_s,
        delta_tables: Vec::new(),
        two_session_stmt: 2,
        checkpoint: None,
        fact_rows: n as u64,
    }
}

// ---------------------------------------------------------------------------
// join_par
// ---------------------------------------------------------------------------

fn join_par(seed: u64, sizes: Sizes) -> Instance {
    let tables = gen::join_tables(seed, sizes.join_lines);
    let [l, o, c] = &tables;
    let n = l.rows();
    let link = l.cols[gen::JL_LINK].as_i64();
    let okey = l.cols[gen::JL_ORDERKEY].as_i64();
    let qty = l.cols[gen::JL_QUANTITY].as_i64();
    let price = l.cols[gen::JL_EXTENDEDPRICE].as_f64();
    let disc = l.cols[gen::JL_DISCOUNT].as_f64();
    let o_cust = o.cols[gen::JO_CUSTKEY].as_i64();
    let o_total = o.cols[gen::JO_TOTALPRICE].as_f64();
    let c_nation = c.cols[gen::JC_NATIONKEY].as_i64();
    let c_bal = c.cols[gen::JC_ACCTBAL].as_f64();
    let c_seg = c.cols[gen::JC_MKTSEGMENT].as_str();

    // Keys are dense: order k is row k-1 of orders, likewise customers.
    let self_join = Digest::of_rows(&[vec![
        Value::I64(n as i64),
        Value::F64(price.iter().sum()),
        Value::I64(link.iter().map(|&k| qty[k as usize - 1]).sum()),
    ]]);
    let self_sql = "SELECT COUNT(*), SUM(a.l_extendedprice), SUM(b.l_quantity) \
                    FROM lineitem a, lineitem b WHERE a.l_link = b.l_rowid";

    let mut by_nation: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for i in 0..n {
        let cust = o_cust[okey[i] as usize - 1] as usize - 1;
        if c_seg[cust] == "BUILDING" && c_bal[cust] > 5000.0 {
            let e = by_nation.entry(c_nation[cust]).or_default();
            e.0 += 1;
            e.1 += price[i] * (1.0 - disc[i]);
        }
    }
    let join3_rows: Vec<Vec<Value>> = by_nation
        .into_iter()
        .map(|(k, (cnt, rev))| vec![Value::I64(k), Value::I64(cnt), Value::F64(rev)])
        .collect();

    // The top percent of orders by price (prices are uniform).
    const TOP_PRICE: f64 = 495_010.0;
    let top: Vec<bool> = o_total.iter().map(|&p| p > TOP_PRICE).collect();
    let (mut bc, mut bs) = (0i64, 0.0);
    for (k, &is_top) in top.iter().enumerate() {
        if is_top {
            bc += 1;
            bs += o_total[k];
        }
    }
    let (mut pc, mut ps) = (0i64, 0.0);
    for i in 0..n {
        if top[okey[i] as usize - 1] {
            pc += 1;
            ps += price[i];
        }
    }

    const GROUP_MIN: i64 = 185;
    let mut per_order = vec![0i64; o.rows() + 1];
    for i in 0..n {
        per_order[okey[i] as usize] += qty[i];
    }
    let group_rows: Vec<Vec<Value>> = per_order
        .iter()
        .enumerate()
        .filter(|(_, &q)| q > GROUP_MIN)
        .map(|(k, &q)| vec![Value::I64(k as i64), Value::I64(q)])
        .collect();

    let mut spill = Stmt::select("join_spill_dop1", self_sql, Some(self_join.clone()));
    // A quarter of the build side's bytes (row id and quantity, 8 B each).
    spill.mem_budget = n * 16 / 4;

    let stmts = vec![
        Stmt::select("join_self_dop1", self_sql, Some(self_join.clone())),
        Stmt::select("join_self_dop2", self_sql, Some(self_join)).dop(2),
        Stmt::select(
            "join3_dop2",
            "SELECT c_nationkey, COUNT(*), SUM(l_extendedprice * (1 - l_discount)) \
             FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey \
             AND o_custkey = c_custkey AND c_mktsegment = 'BUILDING' AND c_acctbal > 5000.0 \
             GROUP BY c_nationkey",
            Some(Digest::of_rows(&join3_rows)),
        )
        .dop(2),
        Stmt::select(
            "join_build_heavy_dop2",
            format!(
                "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_totalprice > {TOP_PRICE:.1} \
                 AND o_orderkey IN (SELECT l_orderkey FROM lineitem)"
            ),
            Some(Digest::of_rows(&[vec![Value::I64(bc), Value::F64(bs)]])),
        )
        .dop(2),
        Stmt::select(
            "join_probe_heavy_dop1",
            format!(
                "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, orders \
                 WHERE l_orderkey = o_orderkey AND o_totalprice > {TOP_PRICE:.1}"
            ),
            Some(Digest::of_rows(&[vec![Value::I64(pc), Value::F64(ps)]])),
        ),
        Stmt::select(
            "join_group_dop2",
            format!(
                "SELECT o_orderkey, SUM(l_quantity) FROM lineitem, orders \
                 WHERE l_orderkey = o_orderkey GROUP BY o_orderkey \
                 HAVING SUM(l_quantity) > {GROUP_MIN}"
            ),
            Some(Digest::of_rows(&group_rows)),
        )
        .dop(2),
        spill,
    ];

    let config = config(DEFAULT_POOL, 0);
    let (db, load_s) = open(&config, &tables);
    Instance {
        session: db.session(),
        stored_bytes: db.disk().used_bytes() as u64,
        db,
        config,
        stmts,
        user_bytes: tables.iter().map(Table::user_bytes).sum(),
        load_s,
        delta_tables: Vec::new(),
        two_session_stmt: 2,
        checkpoint: None,
        fact_rows: n as u64,
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Keys of the rows `ins_txn` inserts start above this.
const INSERT_BASE: i64 = 9_000_000;
const INSERT_ORDERS: i64 = 8;
const INSERT_LINES_PER_ORDER: i64 = 4;
/// The value `upd_scatter` writes; outside the generated 0.00–0.10 range.
const VICTIM_DISCOUNT: f64 = 0.11;

fn serve_mix(seed: u64, sizes: Sizes) -> Instance {
    let mut tables = gen::tpch(seed, sizes.tpch_orders);
    let n_orders = tables[gen::ORDERS].rows() as i64;
    let n_cust = tables[gen::CUSTOMER].rows() as i64;
    let n_supp = tables[gen::SUPPLIER].rows() as i64;
    let user_bytes = tables.iter().map(Table::user_bytes).sum();

    let config = config(DEFAULT_POOL, 256 << 20);
    let (db, load_s) = open(&config, &tables);
    let mut session = db.session();

    // The victim set is the same every round, so the update deltas exist
    // from here on and every round sees the same table.
    let victim = n_supp / 2 + 1;
    let update =
        format!("UPDATE lineitem SET l_discount = {VICTIM_DISCOUNT} WHERE l_suppkey = {victim}");
    session.execute(&update).expect("initial upd_scatter");
    let mut victims = 0u64;
    {
        let l = &mut tables[gen::LINEITEM];
        let supp = l.cols[gen::L_SUPPKEY].as_i64().to_vec();
        let ColData::F64(disc) = &mut l.cols[gen::L_DISCOUNT] else { panic!("l_discount type") };
        for (i, &s) in supp.iter().enumerate() {
            if s == victim {
                disc[i] = VICTIM_DISCOUNT;
                victims += 1;
            }
        }
    }
    let l = &tables[gen::LINEITEM];
    let okey = l.cols[gen::L_ORDERKEY].as_i64();

    let lookup_key = n_cust / 2 + 1;
    let c = &tables[gen::CUSTOMER];
    let lookup_row: Vec<Value> =
        [1, 5, 4].iter().map(|&col| c.cols[col].get_value(lookup_key as usize - 1)).collect();

    // Suppliers in EUROPE (region 3) pair with each of its five nations.
    let mut europe: BTreeMap<&str, i64> = BTreeMap::new();
    for &nk in tables[gen::SUPPLIER].cols[gen::S_NATIONKEY].as_i64() {
        let (name, region) = gen::NATIONS[nk as usize];
        if region == 3 {
            *europe.entry(name).or_default() += 5;
        }
    }
    let plan_rows: Vec<Vec<Value>> =
        europe.into_iter().map(|(k, v)| vec![Value::Str(k.into()), Value::I64(v)]).collect();

    let project = |cols: &[usize], max_key: i64| {
        let mut d = Digest::default();
        for i in (0..l.rows()).filter(|&i| okey[i] <= max_key) {
            let row: Vec<Value> = cols.iter().map(|&c| l.cols[c].get_value(i)).collect();
            d.add_row(&row);
        }
        d
    };
    let all_cols: Vec<usize> = (0..l.cols.len()).collect();
    let (wide_key, str_key) = (n_orders / 3, n_orders / 2);

    let mut order_rows = Vec::new();
    let mut line_rows = Vec::new();
    let mut extra = Vec::new();
    let ship = Date::from_ymd(1998, 9, 1).expect("valid date").0;
    for k in 1..=INSERT_ORDERS {
        let key = INSERT_BASE + k;
        order_rows.push(format!(
            "({key}, 1, 'O', 1000.25, DATE '1998-08-02', '1-URGENT', 'Clerk#000000001', 0, \
             'benchmark insert')"
        ));
        for j in 1..=INSERT_LINES_PER_ORDER {
            let (qty, price) = (10 + j, 1000.5 * j as f64);
            line_rows.push(format!(
                "({key}, 1, 1, {j}, {qty}, {price:.1}, 0.05, 0.02, 'N', 'O', DATE '1998-09-01', \
                 DATE '1998-08-20', DATE '1998-09-10', 'NONE', 'MAIL', 'benchmark insert')"
            ));
            extra.push((qty, price, 0.05, 0.02, "N", "O", ship));
        }
    }
    let inserted = (INSERT_ORDERS * (1 + INSERT_LINES_PER_ORDER)) as u64;
    let txn = |name: &'static str, body: Vec<String>, affected: u64| {
        let mut sql = vec!["BEGIN".to_string()];
        sql.extend(body);
        sql.push("COMMIT".to_string());
        Stmt {
            name,
            dop: 1,
            mem_budget: 0,
            sql,
            batch: 1,
            expect: Some(Digest::affected(affected)),
        }
    };

    let mut pt_lookup = Stmt::select(
        "pt_lookup",
        format!("SELECT c_name, c_acctbal, c_phone FROM customer WHERE c_custkey = {lookup_key}"),
        Some(Digest::of_rows(&[lookup_row])),
    );
    pt_lookup.batch = 16;

    let stmts = vec![
        pt_lookup,
        Stmt::select(
            "plan_heavy",
            "SELECT n1.n_name, COUNT(*) FROM supplier, nation n1, region r1, nation n2, region r2 \
             WHERE s_nationkey = n1.n_nationkey AND n1.n_regionkey = r1.r_regionkey \
             AND n2.n_regionkey = r1.r_regionkey AND r2.r_regionkey = n2.n_regionkey \
             AND r1.r_name = 'EUROPE' GROUP BY n1.n_name ORDER BY n1.n_name",
            Some(Digest::of_rows(&plan_rows)),
        ),
        Stmt::select(
            "emit_wide",
            format!("SELECT * FROM lineitem WHERE l_orderkey <= {wide_key}"),
            Some(project(&all_cols, wide_key)),
        ),
        Stmt::select(
            "emit_narrow",
            "SELECT l_extendedprice, l_quantity FROM lineitem",
            Some(project(&[gen::L_EXTENDEDPRICE, gen::L_QUANTITY], i64::MAX)),
        ),
        Stmt::select(
            "emit_str",
            format!(
                "SELECT l_shipinstruct, l_shipmode, l_comment FROM lineitem \
                 WHERE l_orderkey <= {str_key}"
            ),
            Some(project(&[gen::L_SHIPINSTRUCT, gen::L_SHIPMODE, gen::L_COMMENT], str_key)),
        ),
        txn(
            "ins_txn",
            vec![
                format!("INSERT INTO orders VALUES {}", order_rows.join(", ")),
                format!("INSERT INTO lineitem VALUES {}", line_rows.join(", ")),
            ],
            inserted,
        ),
        txn("upd_scatter", vec![update], victims),
        Stmt::select("read_delta", Q1_SQL, Some(q1_digest(&lineitem_q1(l), &extra))),
        txn(
            "del_txn",
            vec![
                format!("DELETE FROM lineitem WHERE l_orderkey > {INSERT_BASE}"),
                format!("DELETE FROM orders WHERE o_orderkey > {INSERT_BASE}"),
            ],
            inserted,
        ),
    ];

    Instance {
        session,
        stored_bytes: db.disk().used_bytes() as u64,
        db,
        config,
        stmts,
        user_bytes,
        load_s,
        delta_tables: vec!["lineitem", "orders"],
        two_session_stmt: 7,
        checkpoint: Some(CheckpointPlan {
            dirty: vec![5, 6],
            table: "lineitem",
            cleanup: vec![8],
            read: 7,
        }),
        fact_rows: l.rows() as u64,
    }
}

//! A deterministic TPC-H-like `lineitem` generator.
//!
//! Substitution for the real dbgen: same distributions that
//! matter to the experiments — clustered ascending order keys, small
//! enumerated flag domains, uniform quantities/prices, a bounded date range
//! with the classic shipdate offsets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vw_common::{ColData, Date};

/// One generated lineitem row (columnar container below).
#[derive(Debug, Clone)]
pub struct Lineitem {
    /// Order key (clustered ascending, ~4 lines per order).
    pub orderkey: i64,
    /// Part key (uniform).
    pub partkey: i64,
    /// Quantity 1..=50.
    pub quantity: i64,
    /// Extended price.
    pub extendedprice: f64,
    /// Discount 0.00..=0.10.
    pub discount: f64,
    /// Tax 0.00..=0.08.
    pub tax: f64,
    /// Return flag: A/N/R.
    pub returnflag: &'static str,
    /// Line status: O/F.
    pub linestatus: &'static str,
    /// Ship date within 1992-01-01..1998-12-01.
    pub shipdate: Date,
}

/// Columnar lineitem table.
pub struct LineitemColumns {
    /// l_orderkey.
    pub orderkey: ColData,
    /// l_partkey.
    pub partkey: ColData,
    /// l_quantity.
    pub quantity: ColData,
    /// l_extendedprice.
    pub extendedprice: ColData,
    /// l_discount.
    pub discount: ColData,
    /// l_tax.
    pub tax: ColData,
    /// l_returnflag.
    pub returnflag: ColData,
    /// l_linestatus.
    pub linestatus: ColData,
    /// l_shipdate.
    pub shipdate: ColData,
}

impl LineitemColumns {
    /// As a column vector in schema order.
    pub fn into_columns(self) -> Vec<ColData> {
        vec![
            self.orderkey,
            self.partkey,
            self.quantity,
            self.extendedprice,
            self.discount,
            self.tax,
            self.returnflag,
            self.linestatus,
            self.shipdate,
        ]
    }
}

/// The lineitem DDL used by examples/benches.
pub const LINEITEM_DDL: &str = "CREATE TABLE lineitem (\
    l_orderkey BIGINT NOT NULL, \
    l_partkey BIGINT NOT NULL, \
    l_quantity BIGINT NOT NULL, \
    l_extendedprice DOUBLE NOT NULL, \
    l_discount DOUBLE NOT NULL, \
    l_tax DOUBLE NOT NULL, \
    l_returnflag VARCHAR NOT NULL, \
    l_linestatus VARCHAR NOT NULL, \
    l_shipdate DATE NOT NULL)";

/// Generate `n` rows deterministically (seeded).
pub fn gen_lineitem(n: usize, seed: u64) -> LineitemColumns {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = Date::from_ymd(1992, 1, 1).unwrap().0;
    let span = Date::from_ymd(1998, 12, 1).unwrap().0 - base;
    let mut orderkey = Vec::with_capacity(n);
    let mut partkey = Vec::with_capacity(n);
    let mut quantity = Vec::with_capacity(n);
    let mut extendedprice = Vec::with_capacity(n);
    let mut discount = Vec::with_capacity(n);
    let mut tax = Vec::with_capacity(n);
    let mut returnflag = Vec::with_capacity(n);
    let mut linestatus = Vec::with_capacity(n);
    let mut shipdate = Vec::with_capacity(n);
    for i in 0..n {
        let ok = (i / 4 + 1) as i64;
        orderkey.push(ok);
        partkey.push(rng.gen_range(1..=(n as i64 / 4).max(10)));
        let q = rng.gen_range(1..=50i64);
        quantity.push(q);
        let price = q as f64 * rng.gen_range(900.0..=11000.0) / 10.0;
        extendedprice.push((price * 100.0).round() / 100.0);
        discount.push(rng.gen_range(0..=10) as f64 / 100.0);
        tax.push(rng.gen_range(0..=8) as f64 / 100.0);
        let day = base + rng.gen_range(0..span);
        shipdate.push(day);
        let (flag, status) = if day < base + span / 2 {
            (if rng.gen_bool(0.5) { "A" } else { "R" }, "F")
        } else {
            ("N", "O")
        };
        returnflag.push(flag.to_string());
        linestatus.push(status.to_string());
    }
    LineitemColumns {
        orderkey: ColData::I64(orderkey),
        partkey: ColData::I64(partkey),
        quantity: ColData::I64(quantity),
        extendedprice: ColData::F64(extendedprice),
        discount: ColData::F64(discount),
        tax: ColData::F64(tax),
        returnflag: ColData::Str(returnflag),
        linestatus: ColData::Str(linestatus),
        shipdate: ColData::Date(shipdate),
    }
}

/// Create + bulk-load lineitem into a database.
pub fn load_lineitem(db: &std::sync::Arc<vw_core::Database>, n: usize, seed: u64) -> u64 {
    db.execute(LINEITEM_DDL).expect("ddl");
    let cols = gen_lineitem(n, seed).into_columns();
    let nulls = vec![None; cols.len()];
    vw_core::bulk_load(db, "lineitem", &cols, &nulls).expect("load")
}

// ---------------------------------------------------------------------------
// Full 8-table TPC-H micro schema
// ---------------------------------------------------------------------------
//
// The golden-file harness (`tests/tpch.rs`) runs all 22 TPC-H queries
// against this pinned micro-scale instance: every table, every column the
// queries touch, deterministic under a fixed seed so expected rows can be
// committed as goldens. Scale: region 5, nation 25, supplier 10, part 100,
// partsupp 400, customer 75, orders 750, lineitem ~3000 (1–4 lines per
// order). Value domains follow dbgen's shapes (Brand#MN, container pairs,
// priority enums, comment keywords) so the queries' predicates are all
// selective but non-empty.

/// DDL for the full TPC-H micro schema, one statement per table.
pub const TPCH_DDL: &[&str] = &[
    "CREATE TABLE region (\
        r_regionkey BIGINT NOT NULL, \
        r_name VARCHAR NOT NULL, \
        r_comment VARCHAR NOT NULL)",
    "CREATE TABLE nation (\
        n_nationkey BIGINT NOT NULL, \
        n_name VARCHAR NOT NULL, \
        n_regionkey BIGINT NOT NULL, \
        n_comment VARCHAR NOT NULL)",
    "CREATE TABLE supplier (\
        s_suppkey BIGINT NOT NULL, \
        s_name VARCHAR NOT NULL, \
        s_address VARCHAR NOT NULL, \
        s_nationkey BIGINT NOT NULL, \
        s_phone VARCHAR NOT NULL, \
        s_acctbal DOUBLE NOT NULL, \
        s_comment VARCHAR NOT NULL)",
    "CREATE TABLE part (\
        p_partkey BIGINT NOT NULL, \
        p_name VARCHAR NOT NULL, \
        p_mfgr VARCHAR NOT NULL, \
        p_brand VARCHAR NOT NULL, \
        p_type VARCHAR NOT NULL, \
        p_size BIGINT NOT NULL, \
        p_container VARCHAR NOT NULL, \
        p_retailprice DOUBLE NOT NULL, \
        p_comment VARCHAR NOT NULL)",
    "CREATE TABLE partsupp (\
        ps_partkey BIGINT NOT NULL, \
        ps_suppkey BIGINT NOT NULL, \
        ps_availqty BIGINT NOT NULL, \
        ps_supplycost DOUBLE NOT NULL, \
        ps_comment VARCHAR NOT NULL)",
    "CREATE TABLE customer (\
        c_custkey BIGINT NOT NULL, \
        c_name VARCHAR NOT NULL, \
        c_address VARCHAR NOT NULL, \
        c_nationkey BIGINT NOT NULL, \
        c_phone VARCHAR NOT NULL, \
        c_acctbal DOUBLE NOT NULL, \
        c_mktsegment VARCHAR NOT NULL, \
        c_comment VARCHAR NOT NULL)",
    "CREATE TABLE orders (\
        o_orderkey BIGINT NOT NULL, \
        o_custkey BIGINT NOT NULL, \
        o_orderstatus VARCHAR NOT NULL, \
        o_totalprice DOUBLE NOT NULL, \
        o_orderdate DATE NOT NULL, \
        o_orderpriority VARCHAR NOT NULL, \
        o_clerk VARCHAR NOT NULL, \
        o_shippriority BIGINT NOT NULL, \
        o_comment VARCHAR NOT NULL)",
    "CREATE TABLE lineitem (\
        l_orderkey BIGINT NOT NULL, \
        l_partkey BIGINT NOT NULL, \
        l_suppkey BIGINT NOT NULL, \
        l_linenumber BIGINT NOT NULL, \
        l_quantity BIGINT NOT NULL, \
        l_extendedprice DOUBLE NOT NULL, \
        l_discount DOUBLE NOT NULL, \
        l_tax DOUBLE NOT NULL, \
        l_returnflag VARCHAR NOT NULL, \
        l_linestatus VARCHAR NOT NULL, \
        l_shipdate DATE NOT NULL, \
        l_commitdate DATE NOT NULL, \
        l_receiptdate DATE NOT NULL, \
        l_shipinstruct VARCHAR NOT NULL, \
        l_shipmode VARCHAR NOT NULL, \
        l_comment VARCHAR NOT NULL)",
];

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations as (name, region index).
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_1: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
const CONTAINER_2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 10] =
    ["green", "blue", "red", "ivory", "salmon", "peach", "khaki", "orange", "plum", "linen"];
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
/// Filler words for generated comments (Q13/Q16 match word patterns).
const WORDS: [&str; 12] = [
    "quick", "brown", "fox", "lazy", "ironic", "pending", "final", "bold", "silent", "express",
    "careful", "dogged",
];

/// Row counts of the pinned micro-scale instance, in DDL order.
pub const TPCH_MICRO_ROWS: [(&str, usize); 8] = [
    ("region", 5),
    ("nation", 25),
    ("supplier", 10),
    ("part", 100),
    ("partsupp", 400),
    ("customer", 75),
    ("orders", 750),
    ("lineitem", 0), // 1–4 lines per order; exact count is seed-dependent
];

fn money(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn phone(rng: &mut SmallRng, nationkey: i64) -> String {
    format!(
        "{:02}-{:03}-{:03}-{:04}",
        10 + nationkey,
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10000)
    )
}

fn comment(rng: &mut SmallRng, n: usize) -> String {
    (0..n).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect::<Vec<_>>().join(" ")
}

/// Create and bulk-load the full micro-scale TPC-H instance. Bulk load
/// rebuilds statistics, so the cost-based optimizer sees real
/// cardinalities. Returns the lineitem row count.
pub fn load_tpch_micro(db: &std::sync::Arc<vw_core::Database>, seed: u64) -> u64 {
    for ddl in TPCH_DDL {
        db.execute(ddl).expect("tpch ddl");
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7c_b00c);
    let load = |db: &std::sync::Arc<vw_core::Database>, table: &str, cols: Vec<ColData>| {
        let nulls = vec![None; cols.len()];
        vw_core::bulk_load(db, table, &cols, &nulls).expect(table)
    };

    // region
    load(
        db,
        "region",
        vec![
            ColData::I64((0..5).collect()),
            ColData::Str(REGIONS.iter().map(|s| s.to_string()).collect()),
            ColData::Str((0..5).map(|_| comment(&mut rng, 4)).collect()),
        ],
    );

    // nation
    load(
        db,
        "nation",
        vec![
            ColData::I64((0..25).collect()),
            ColData::Str(NATIONS.iter().map(|(n, _)| n.to_string()).collect()),
            ColData::I64(NATIONS.iter().map(|&(_, r)| r).collect()),
            ColData::Str((0..25).map(|_| comment(&mut rng, 4)).collect()),
        ],
    );

    // supplier: 10 rows; ~1 in 5 comments carry the Q16 complaint marker.
    let ns = 10usize;
    let s_nation: Vec<i64> = (0..ns).map(|_| rng.gen_range(0..25i64)).collect();
    load(
        db,
        "supplier",
        vec![
            ColData::I64((1..=ns as i64).collect()),
            ColData::Str((1..=ns).map(|i| format!("Supplier#{i:09}")).collect()),
            ColData::Str((0..ns).map(|_| comment(&mut rng, 2)).collect()),
            ColData::I64(s_nation.clone()),
            ColData::Str(s_nation.iter().map(|&n| phone(&mut rng, n)).collect()),
            ColData::F64((0..ns).map(|_| money(rng.gen_range(-999.99..=9999.99))).collect()),
            ColData::Str(
                (0..ns)
                    .map(|i| {
                        if i % 5 == 0 {
                            format!("{} Customer uneasy Complaints {}", WORDS[i % 12], WORDS[i % 7])
                        } else {
                            comment(&mut rng, 5)
                        }
                    })
                    .collect(),
            ),
        ],
    );

    // part: 100 rows.
    let np = 100usize;
    load(
        db,
        "part",
        vec![
            ColData::I64((1..=np as i64).collect()),
            ColData::Str(
                (0..np)
                    .map(|_| {
                        let a = COLORS[rng.gen_range(0..COLORS.len())];
                        let b = COLORS[rng.gen_range(0..COLORS.len())];
                        format!("{a} {b}")
                    })
                    .collect(),
            ),
            ColData::Str(
                (0..np).map(|_| format!("Manufacturer#{}", rng.gen_range(1..=5))).collect(),
            ),
            ColData::Str(
                (0..np)
                    .map(|_| format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5)))
                    .collect(),
            ),
            ColData::Str(
                (0..np)
                    .map(|_| {
                        format!(
                            "{} {} {}",
                            TYPE_SYLL1[rng.gen_range(0..TYPE_SYLL1.len())],
                            TYPE_SYLL2[rng.gen_range(0..TYPE_SYLL2.len())],
                            TYPE_SYLL3[rng.gen_range(0..TYPE_SYLL3.len())]
                        )
                    })
                    .collect(),
            ),
            ColData::I64((0..np).map(|_| rng.gen_range(1..=50i64)).collect()),
            ColData::Str(
                (0..np)
                    .map(|_| {
                        format!(
                            "{} {}",
                            CONTAINER_1[rng.gen_range(0..CONTAINER_1.len())],
                            CONTAINER_2[rng.gen_range(0..CONTAINER_2.len())]
                        )
                    })
                    .collect(),
            ),
            ColData::F64((0..np).map(|_| money(rng.gen_range(900.0..=2000.0))).collect()),
            ColData::Str((0..np).map(|_| comment(&mut rng, 3)).collect()),
        ],
    );

    // partsupp: every part × 4 suppliers (wrapping the 10-supplier pool).
    let mut ps_part = Vec::new();
    let mut ps_supp = Vec::new();
    let mut ps_avail = Vec::new();
    let mut ps_cost = Vec::new();
    let mut ps_comment = Vec::new();
    for p in 1..=np as i64 {
        for s in 0..4i64 {
            ps_part.push(p);
            ps_supp.push((p + s * 3) % ns as i64 + 1);
            ps_avail.push(rng.gen_range(1..=9999i64));
            ps_cost.push(money(rng.gen_range(1.0..=1000.0)));
            ps_comment.push(comment(&mut rng, 3));
        }
    }
    load(
        db,
        "partsupp",
        vec![
            ColData::I64(ps_part),
            ColData::I64(ps_supp),
            ColData::I64(ps_avail),
            ColData::F64(ps_cost),
            ColData::Str(ps_comment),
        ],
    );

    // customer: 75 rows; ~1 in 8 comments carry the Q13 special-requests
    // marker.
    let nc = 75usize;
    let c_nation: Vec<i64> = (0..nc).map(|_| rng.gen_range(0..25i64)).collect();
    load(
        db,
        "customer",
        vec![
            ColData::I64((1..=nc as i64).collect()),
            ColData::Str((1..=nc).map(|i| format!("Customer#{i:09}")).collect()),
            ColData::Str((0..nc).map(|_| comment(&mut rng, 2)).collect()),
            ColData::I64(c_nation.clone()),
            ColData::Str(c_nation.iter().map(|&n| phone(&mut rng, n)).collect()),
            ColData::F64((0..nc).map(|_| money(rng.gen_range(-999.99..=9999.99))).collect()),
            ColData::Str((0..nc).map(|_| SEGMENTS[rng.gen_range(0..5)].to_string()).collect()),
            ColData::Str((0..nc).map(|_| comment(&mut rng, 5)).collect()),
        ],
    );

    // orders: 750 rows over the 1992–1998 date window.
    let base = Date::from_ymd(1992, 1, 1).unwrap().0;
    let span = Date::from_ymd(1998, 8, 2).unwrap().0 - base;
    let no = 750usize;
    let mut o_date = Vec::with_capacity(no);
    let mut o_status = Vec::with_capacity(no);
    for _ in 0..no {
        let d = base + rng.gen_range(0..span);
        o_date.push(d);
        // Orders old enough to be fully shipped are F, recent ones O.
        let cutoff = Date::from_ymd(1995, 6, 17).unwrap().0;
        o_status.push(if d < cutoff { "F" } else { "O" }.to_string());
    }
    load(
        db,
        "orders",
        vec![
            ColData::I64((1..=no as i64).collect()),
            // Like dbgen, a third of customers (custkey % 3 == 0) place no
            // orders — Q13's zero-order bucket and Q22's NOT EXISTS depend
            // on this hole.
            ColData::I64(
                (0..no)
                    .map(|_| loop {
                        let c = rng.gen_range(1..=nc as i64);
                        if c % 3 != 0 {
                            break c;
                        }
                    })
                    .collect(),
            ),
            ColData::Str(o_status),
            ColData::F64((0..no).map(|_| money(rng.gen_range(1000.0..=400_000.0))).collect()),
            ColData::Date(o_date.clone()),
            ColData::Str((0..no).map(|_| PRIORITIES[rng.gen_range(0..5)].to_string()).collect()),
            ColData::Str((0..no).map(|_| format!("Clerk#{:09}", rng.gen_range(1..=10))).collect()),
            ColData::I64(vec![0; no]),
            ColData::Str(
                (0..no)
                    .map(|i| {
                        if i % 8 == 3 {
                            format!("{} special packages requests {}", WORDS[i % 12], WORDS[i % 7])
                        } else {
                            comment(&mut rng, 6)
                        }
                    })
                    .collect(),
            ),
        ],
    );

    // lineitem: 1–4 lines per order; dates hang off the order date.
    let mut l = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut l_flag = Vec::new();
    let mut l_status = Vec::new();
    let mut l_ship = Vec::new();
    let mut l_commit = Vec::new();
    let mut l_receipt = Vec::new();
    let mut l_instruct = Vec::new();
    let mut l_mode = Vec::new();
    let mut l_comment = Vec::new();
    let today = Date::from_ymd(1995, 6, 17).unwrap().0;
    for (oi, &od) in o_date.iter().enumerate() {
        let lines = rng.gen_range(1..=4usize);
        for ln in 0..lines {
            l.0.push(oi as i64 + 1);
            l.1.push(rng.gen_range(1..=np as i64));
            l.2.push(rng.gen_range(1..=ns as i64));
            l.3.push(ln as i64 + 1);
            let q = rng.gen_range(1..=50i64);
            l.4.push(q);
            l.5.push(money(q as f64 * rng.gen_range(900.0..=11000.0) / 10.0));
            l.6.push(rng.gen_range(0..=10) as f64 / 100.0);
            l.7.push(rng.gen_range(0..=8) as f64 / 100.0);
            let ship = od + rng.gen_range(1..=121);
            let commit = od + rng.gen_range(30..=90);
            let receipt = ship + rng.gen_range(1..=30);
            l_ship.push(ship);
            l_commit.push(commit);
            l_receipt.push(receipt);
            let (flag, status) = if receipt <= today {
                (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
            } else {
                ("N", "O")
            };
            l_flag.push(flag.to_string());
            l_status.push(status.to_string());
            l_instruct.push(INSTRUCTS[rng.gen_range(0..4)].to_string());
            l_mode.push(SHIPMODES[rng.gen_range(0..7)].to_string());
            l_comment.push(comment(&mut rng, 4));
        }
    }
    load(
        db,
        "lineitem",
        vec![
            ColData::I64(l.0),
            ColData::I64(l.1),
            ColData::I64(l.2),
            ColData::I64(l.3),
            ColData::I64(l.4),
            ColData::F64(l.5),
            ColData::F64(l.6),
            ColData::F64(l.7),
            ColData::Str(l_flag),
            ColData::Str(l_status),
            ColData::Date(l_ship),
            ColData::Date(l_commit),
            ColData::Date(l_receipt),
            ColData::Str(l_instruct),
            ColData::Str(l_mode),
            ColData::Str(l_comment),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Value;

    #[test]
    fn micro_instance_is_deterministic() {
        let a = vw_core::Database::open_in_memory();
        let b = vw_core::Database::open_in_memory();
        let na = load_tpch_micro(&a, 1);
        let nb = load_tpch_micro(&b, 1);
        assert_eq!(na, nb);
        for q in [
            "SELECT COUNT(*), SUM(l_quantity) FROM lineitem",
            "SELECT COUNT(*) FROM orders WHERE o_orderdate < DATE '1995-01-01'",
            "SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%'",
        ] {
            let ra = a.execute(q).unwrap();
            let rb = b.execute(q).unwrap();
            assert_eq!(ra.rows(), rb.rows(), "{q}");
        }
        // Every query predicate domain is populated.
        let nonzero = |q: &str| {
            let r = a.execute(q).unwrap();
            let Value::I64(n) = r.scalar().unwrap() else { panic!("{q}") };
            assert!(*n > 0, "{q} matched nothing");
        };
        nonzero("SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%'");
        nonzero("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'");
        nonzero("SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%special%requests%'");
        nonzero("SELECT COUNT(*) FROM supplier WHERE s_comment LIKE '%Customer%Complaints%'");
        nonzero("SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP')");
        nonzero("SELECT COUNT(*) FROM lineitem WHERE l_receiptdate > l_commitdate");
    }

    #[test]
    fn deterministic() {
        let a = gen_lineitem(100, 7).into_columns();
        let b = gen_lineitem(100, 7).into_columns();
        assert_eq!(a, b);
        let c = gen_lineitem(100, 8).into_columns();
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_match_tpch() {
        let cols = gen_lineitem(1000, 1);
        // Orderkeys ascending, ~4 lines per order.
        let ok = cols.orderkey.as_i64();
        assert!(ok.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ok[999], 250);
        // Flags in the enumerated domain.
        for f in cols.returnflag.as_str() {
            assert!(["A", "N", "R"].contains(&f.as_str()));
        }
    }

    #[test]
    fn loads_into_database() {
        let db = vw_core::Database::open_in_memory();
        let n = load_lineitem(&db, 500, 42);
        assert_eq!(n, 500);
        let r = db.execute("SELECT COUNT(*) FROM lineitem").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::I64(500));
    }
}

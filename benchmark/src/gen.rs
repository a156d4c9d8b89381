//! Seeded data generators owned by the benchmark: a dbgen-shaped 8-table
//! TPC-H instance, the wide scan table, and the three-table join instance.
//! Row counts are parameters so `--quick` can shrink every workload.

use crate::rng::Rng;
use vw_common::date::days_from_ymd;
use vw_common::ColData;

pub struct Table {
    pub name: &'static str,
    pub ddl: &'static str,
    pub cols: Vec<ColData>,
}

impl Table {
    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// Raw size of the generated values: 8 B per numeric or date value,
    /// the string length for strings (the denominator of
    /// `stored_bytes_per_user_byte`).
    pub fn user_bytes(&self) -> u64 {
        self.cols
            .iter()
            .map(|c| match c {
                ColData::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
                other => 8 * other.len() as u64,
            })
            .sum()
    }
}

pub fn date(y: i32, m: u32, d: u32) -> i32 {
    days_from_ymd(y, m, d).expect("valid calendar date")
}

fn strs(it: impl Iterator<Item = String>) -> ColData {
    ColData::Str(it.collect())
}

// ---------------------------------------------------------------------------
// TPC-H
// ---------------------------------------------------------------------------

pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations as (name, region key).
pub const NATIONS: [(&str, i64); 25] = [
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

const TYPE_1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 20] = [
    "almond", "azure", "blue", "forest", "green", "ivory", "khaki", "lemon", "linen", "maroon",
    "navy", "olive", "orange", "peach", "plum", "red", "rose", "salmon", "tan", "white",
];
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
pub const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const WORDS: [&str; 24] = [
    "furiously",
    "slyly",
    "carefully",
    "blithely",
    "quickly",
    "fluffily",
    "ironic",
    "final",
    "pending",
    "bold",
    "express",
    "regular",
    "special",
    "even",
    "silent",
    "packages",
    "requests",
    "accounts",
    "deposits",
    "foxes",
    "ideas",
    "theodolites",
    "pinto",
    "beans",
];

fn text(rng: &mut Rng, lo: i64, hi: i64) -> String {
    let n = rng.range(lo, hi);
    let mut s = String::new();
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(rng.pick(&WORDS));
    }
    s
}

fn phone(rng: &mut Rng, nation: i64) -> String {
    format!(
        "{:02}-{:03}-{:03}-{:04}",
        10 + nation,
        rng.range(100, 999),
        rng.range(100, 999),
        rng.range(1000, 9999)
    )
}

fn retail_price(partkey: i64) -> f64 {
    (90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1000)) as f64 / 100.0
}

/// The `i`-th (0..4) supplier of `part`, dbgen's formula.
fn part_supplier(part: i64, i: i64, suppliers: i64) -> i64 {
    (part + i * (suppliers / 4 + (part - 1) / suppliers)) % suppliers + 1
}

// Column positions the oracles read.
pub const L_ORDERKEY: usize = 0;
pub const L_SUPPKEY: usize = 2;
pub const L_QUANTITY: usize = 4;
pub const L_EXTENDEDPRICE: usize = 5;
pub const L_DISCOUNT: usize = 6;
pub const L_TAX: usize = 7;
pub const L_RETURNFLAG: usize = 8;
pub const L_LINESTATUS: usize = 9;
pub const L_SHIPDATE: usize = 10;
pub const L_SHIPINSTRUCT: usize = 13;
pub const L_SHIPMODE: usize = 14;
pub const L_COMMENT: usize = 15;
pub const S_NATIONKEY: usize = 3;

/// Index of each table in [`tpch`]'s result.
pub const SUPPLIER: usize = 2;
pub const CUSTOMER: usize = 5;
pub const ORDERS: usize = 6;
pub const LINEITEM: usize = 7;

/// A dbgen-shaped instance sized by its order count (15 000 = SF 0.01):
/// customers = orders / 10, parts = orders × 2 / 15, suppliers = orders /
/// 150, four partsupp rows per part, 1–7 lineitems per order.
pub fn tpch(seed: u64, n_orders: usize) -> Vec<Table> {
    let n_supp = (n_orders / 150).max(4) as i64;
    let n_part = (n_orders * 2 / 15).max(8) as i64;
    let n_cust = (n_orders / 10).max(6) as i64;

    let mut rng = Rng::new(seed, 1);
    let region = Table {
        name: "region",
        ddl: "CREATE TABLE region (r_regionkey BIGINT NOT NULL, r_name VARCHAR NOT NULL, \
              r_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((0..5).collect()),
            strs(REGIONS.iter().map(|s| s.to_string())),
            strs((0..5).map(|_| text(&mut rng, 4, 12))),
        ],
    };
    let nation = Table {
        name: "nation",
        ddl: "CREATE TABLE nation (n_nationkey BIGINT NOT NULL, n_name VARCHAR NOT NULL, \
              n_regionkey BIGINT NOT NULL, n_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((0..25).collect()),
            strs(NATIONS.iter().map(|(n, _)| n.to_string())),
            ColData::I64(NATIONS.iter().map(|&(_, r)| r).collect()),
            strs((0..25).map(|_| text(&mut rng, 4, 12))),
        ],
    };

    let mut rng = Rng::new(seed, 2);
    let s_nation: Vec<i64> = (0..n_supp).map(|_| rng.range(0, 24)).collect();
    let supplier = Table {
        name: "supplier",
        ddl: "CREATE TABLE supplier (s_suppkey BIGINT NOT NULL, s_name VARCHAR NOT NULL, \
              s_address VARCHAR NOT NULL, s_nationkey BIGINT NOT NULL, s_phone VARCHAR NOT NULL, \
              s_acctbal DOUBLE NOT NULL, s_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_supp).collect()),
            strs((1..=n_supp).map(|i| format!("Supplier#{i:09}"))),
            strs((0..n_supp).map(|_| text(&mut rng, 2, 5))),
            ColData::I64(s_nation.clone()),
            strs(s_nation.iter().map(|&n| phone(&mut rng, n))),
            ColData::F64((0..n_supp).map(|_| rng.money(-99_999, 999_999)).collect()),
            strs((0..n_supp).map(|_| text(&mut rng, 4, 14))),
        ],
    };

    let mut rng = Rng::new(seed, 3);
    let part = Table {
        name: "part",
        ddl: "CREATE TABLE part (p_partkey BIGINT NOT NULL, p_name VARCHAR NOT NULL, \
              p_mfgr VARCHAR NOT NULL, p_brand VARCHAR NOT NULL, p_type VARCHAR NOT NULL, \
              p_size BIGINT NOT NULL, p_container VARCHAR NOT NULL, \
              p_retailprice DOUBLE NOT NULL, p_comment VARCHAR NOT NULL)",
        cols: {
            let mfgr: Vec<i64> = (0..n_part).map(|_| rng.range(1, 5)).collect();
            vec![
                ColData::I64((1..=n_part).collect()),
                strs((0..n_part).map(|_| {
                    let words: Vec<&str> = (0..5).map(|_| rng.pick(&COLORS)).collect();
                    words.join(" ")
                })),
                strs(mfgr.iter().map(|m| format!("Manufacturer#{m}"))),
                strs(mfgr.iter().map(|m| format!("Brand#{m}{}", rng.range(1, 5)))),
                strs((0..n_part).map(|_| {
                    format!("{} {} {}", rng.pick(&TYPE_1), rng.pick(&TYPE_2), rng.pick(&TYPE_3))
                })),
                ColData::I64((0..n_part).map(|_| rng.range(1, 50)).collect()),
                strs(
                    (0..n_part)
                        .map(|_| format!("{} {}", rng.pick(&CONTAINER_1), rng.pick(&CONTAINER_2))),
                ),
                ColData::F64((1..=n_part).map(retail_price).collect()),
                strs((0..n_part).map(|_| text(&mut rng, 1, 3))),
            ]
        },
    };

    let mut rng = Rng::new(seed, 4);
    let partsupp = Table {
        name: "partsupp",
        ddl: "CREATE TABLE partsupp (ps_partkey BIGINT NOT NULL, ps_suppkey BIGINT NOT NULL, \
              ps_availqty BIGINT NOT NULL, ps_supplycost DOUBLE NOT NULL, \
              ps_comment VARCHAR NOT NULL)",
        cols: {
            let n = (n_part * 4) as usize;
            vec![
                ColData::I64((1..=n_part).flat_map(|p| [p; 4]).collect()),
                ColData::I64(
                    (1..=n_part)
                        .flat_map(|p| (0..4).map(move |i| part_supplier(p, i, n_supp)))
                        .collect(),
                ),
                ColData::I64((0..n).map(|_| rng.range(1, 9999)).collect()),
                ColData::F64((0..n).map(|_| rng.money(100, 100_000)).collect()),
                strs((0..n).map(|_| text(&mut rng, 7, 24))),
            ]
        },
    };

    let mut rng = Rng::new(seed, 5);
    let c_nation: Vec<i64> = (0..n_cust).map(|_| rng.range(0, 24)).collect();
    let customer = Table {
        name: "customer",
        ddl: "CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_name VARCHAR NOT NULL, \
              c_address VARCHAR NOT NULL, c_nationkey BIGINT NOT NULL, c_phone VARCHAR NOT NULL, \
              c_acctbal DOUBLE NOT NULL, c_mktsegment VARCHAR NOT NULL, \
              c_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_cust).collect()),
            strs((1..=n_cust).map(|i| format!("Customer#{i:09}"))),
            strs((0..n_cust).map(|_| text(&mut rng, 2, 5))),
            ColData::I64(c_nation.clone()),
            strs(c_nation.iter().map(|&n| phone(&mut rng, n))),
            ColData::F64((0..n_cust).map(|_| rng.money(-99_999, 999_999)).collect()),
            strs((0..n_cust).map(|_| rng.pick(&SEGMENTS).to_string())),
            strs((0..n_cust).map(|_| text(&mut rng, 5, 16))),
        ],
    };

    // Orders and their lineitems are generated together: the order's total
    // price and status derive from its lines.
    let mut rng = Rng::new(seed, 6);
    let first_day = date(1992, 1, 1);
    let last_day = date(1998, 8, 2);
    let current = date(1995, 6, 17);
    let n_clerks = (n_orders / 15).max(1) as i64;

    let mut o_cust = Vec::with_capacity(n_orders);
    let mut o_status = Vec::with_capacity(n_orders);
    let mut o_total = Vec::with_capacity(n_orders);
    let mut o_date = Vec::with_capacity(n_orders);
    let mut o_prio = Vec::with_capacity(n_orders);
    let mut o_clerk = Vec::with_capacity(n_orders);
    let mut o_comment = Vec::with_capacity(n_orders);

    // 1–7 lines per order, 4 on average: room enough that no seed makes a
    // column reallocate (a doubling would move the process's peak RSS).
    let cap = n_orders * 9 / 2;
    let mut l_order = Vec::with_capacity(cap);
    let mut l_part = Vec::with_capacity(cap);
    let mut l_supp = Vec::with_capacity(cap);
    let mut l_line = Vec::with_capacity(cap);
    let mut l_qty = Vec::with_capacity(cap);
    let mut l_price = Vec::with_capacity(cap);
    let mut l_disc = Vec::with_capacity(cap);
    let mut l_tax = Vec::with_capacity(cap);
    let mut l_flag = Vec::with_capacity(cap);
    let mut l_status = Vec::with_capacity(cap);
    let mut l_ship = Vec::with_capacity(cap);
    let mut l_commit = Vec::with_capacity(cap);
    let mut l_receipt = Vec::with_capacity(cap);
    let mut l_instruct = Vec::with_capacity(cap);
    let mut l_mode = Vec::with_capacity(cap);
    let mut l_comment = Vec::with_capacity(cap);

    for o in 1..=n_orders as i64 {
        // Like dbgen, a third of the customers never order (Q13, Q22).
        let cust = loop {
            let c = rng.range(1, n_cust);
            if c % 3 != 0 {
                break c;
            }
        };
        let odate = rng.range(first_day as i64, last_day as i64) as i32;
        let lines = rng.range(1, 7);
        let mut total = 0.0;
        let mut shipped = 0;
        for ln in 1..=lines {
            let partkey = rng.range(1, n_part);
            let qty = rng.range(1, 50);
            let price = qty as f64 * retail_price(partkey);
            let disc = rng.range(0, 10) as f64 / 100.0;
            let tax = rng.range(0, 8) as f64 / 100.0;
            let ship = odate + rng.range(1, 121) as i32;
            let commit = odate + rng.range(30, 90) as i32;
            let receipt = ship + rng.range(1, 30) as i32;
            total += price * (1.0 + tax) * (1.0 - disc);
            l_order.push(o);
            l_part.push(partkey);
            l_supp.push(part_supplier(partkey, rng.range(0, 3), n_supp));
            l_line.push(ln);
            l_qty.push(qty);
            l_price.push((price * 100.0).round() / 100.0);
            l_disc.push(disc);
            l_tax.push(tax);
            let flag = if receipt <= current { rng.pick(&["R", "A"]) } else { "N" };
            l_flag.push(flag.to_string());
            let open = ship > current;
            shipped += !open as i64;
            l_status.push(if open { "O" } else { "F" }.to_string());
            l_ship.push(ship);
            l_commit.push(commit);
            l_receipt.push(receipt);
            l_instruct.push(rng.pick(&INSTRUCTS).to_string());
            l_mode.push(rng.pick(&SHIPMODES).to_string());
            l_comment.push(text(&mut rng, 2, 6));
        }
        o_cust.push(cust);
        o_status.push(
            if shipped == lines {
                "F"
            } else if shipped == 0 {
                "O"
            } else {
                "P"
            }
            .to_string(),
        );
        o_total.push((total * 100.0).round() / 100.0);
        o_date.push(odate);
        o_prio.push(rng.pick(&PRIORITIES).to_string());
        o_clerk.push(format!("Clerk#{:09}", rng.range(1, n_clerks)));
        o_comment.push(if rng.below(64) == 0 {
            format!("{} special packages requests {}", rng.pick(&WORDS), rng.pick(&WORDS))
        } else {
            text(&mut rng, 3, 12)
        });
    }

    let orders = Table {
        name: "orders",
        ddl: "CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_custkey BIGINT NOT NULL, \
              o_orderstatus VARCHAR NOT NULL, o_totalprice DOUBLE NOT NULL, \
              o_orderdate DATE NOT NULL, o_orderpriority VARCHAR NOT NULL, \
              o_clerk VARCHAR NOT NULL, o_shippriority BIGINT NOT NULL, \
              o_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_orders as i64).collect()),
            ColData::I64(o_cust),
            ColData::Str(o_status),
            ColData::F64(o_total),
            ColData::Date(o_date),
            ColData::Str(o_prio),
            ColData::Str(o_clerk),
            ColData::I64(vec![0; n_orders]),
            ColData::Str(o_comment),
        ],
    };
    let lineitem = Table {
        name: "lineitem",
        ddl: "CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL, \
              l_suppkey BIGINT NOT NULL, l_linenumber BIGINT NOT NULL, \
              l_quantity BIGINT NOT NULL, l_extendedprice DOUBLE NOT NULL, \
              l_discount DOUBLE NOT NULL, l_tax DOUBLE NOT NULL, l_returnflag VARCHAR NOT NULL, \
              l_linestatus VARCHAR NOT NULL, l_shipdate DATE NOT NULL, \
              l_commitdate DATE NOT NULL, l_receiptdate DATE NOT NULL, \
              l_shipinstruct VARCHAR NOT NULL, l_shipmode VARCHAR NOT NULL, \
              l_comment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64(l_order),
            ColData::I64(l_part),
            ColData::I64(l_supp),
            ColData::I64(l_line),
            ColData::I64(l_qty),
            ColData::F64(l_price),
            ColData::F64(l_disc),
            ColData::F64(l_tax),
            ColData::Str(l_flag),
            ColData::Str(l_status),
            ColData::Date(l_ship),
            ColData::Date(l_commit),
            ColData::Date(l_receipt),
            ColData::Str(l_instruct),
            ColData::Str(l_mode),
            ColData::Str(l_comment),
        ],
    };

    vec![region, nation, supplier, part, partsupp, customer, orders, lineitem]
}

// ---------------------------------------------------------------------------
// scan_agg: one wide lineitem-shaped table
// ---------------------------------------------------------------------------

pub const SC_ORDERKEY: usize = 0;
pub const SC_PARTKEY: usize = 1;
pub const SC_QUANTITY: usize = 2;
pub const SC_EXTENDEDPRICE: usize = 3;
pub const SC_DISCOUNT: usize = 4;
pub const SC_TAX: usize = 5;
pub const SC_RETURNFLAG: usize = 6;
pub const SC_LINESTATUS: usize = 7;
pub const SC_SHIPDATE: usize = 8;
pub const SC_NATION: usize = 9;

/// `n` rows clustered on an ascending order key (four lines per order),
/// part keys uniform over `n / 4` values, enumerated flag domains, and a
/// 25-value nation-name column.
pub fn scan_table(seed: u64, n: usize) -> Table {
    let mut rng = Rng::new(seed, 11);
    let first = date(1992, 1, 1);
    let last = date(1998, 12, 1);
    let mid = first + (last - first) / 2;
    let mut part = Vec::with_capacity(n);
    let mut qty = Vec::with_capacity(n);
    let mut price = Vec::with_capacity(n);
    let mut disc = Vec::with_capacity(n);
    let mut tax = Vec::with_capacity(n);
    let mut flag = Vec::with_capacity(n);
    let mut status = Vec::with_capacity(n);
    let mut ship = Vec::with_capacity(n);
    let mut nation = Vec::with_capacity(n);
    for _ in 0..n {
        part.push(rng.range(1, (n as i64 / 4).max(1)));
        let q = rng.range(1, 50);
        qty.push(q);
        price.push(q as f64 * rng.money(90_000, 200_000));
        disc.push(rng.range(0, 10) as f64 / 100.0);
        tax.push(rng.range(0, 8) as f64 / 100.0);
        let day = rng.range(first as i64, last as i64 - 1) as i32;
        ship.push(day);
        let (f, s) = if day < mid { (rng.pick(&["A", "R"]), "F") } else { ("N", "O") };
        flag.push(f.to_string());
        status.push(s.to_string());
        nation.push(rng.pick(&NATIONS).0.to_string());
    }
    Table {
        name: "lineitem",
        ddl: "CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL, \
              l_quantity BIGINT NOT NULL, l_extendedprice DOUBLE NOT NULL, \
              l_discount DOUBLE NOT NULL, l_tax DOUBLE NOT NULL, l_returnflag VARCHAR NOT NULL, \
              l_linestatus VARCHAR NOT NULL, l_shipdate DATE NOT NULL, l_nation VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((0..n as i64).map(|i| i / 4 + 1).collect()),
            ColData::I64(part),
            ColData::I64(qty),
            ColData::F64(price),
            ColData::F64(disc),
            ColData::F64(tax),
            ColData::Str(flag),
            ColData::Str(status),
            ColData::Date(ship),
            ColData::Str(nation),
        ],
    }
}

// ---------------------------------------------------------------------------
// join_par: lineitem / orders / customer, narrow
// ---------------------------------------------------------------------------

pub const JL_LINK: usize = 1;
pub const JL_ORDERKEY: usize = 2;
pub const JL_QUANTITY: usize = 3;
pub const JL_EXTENDEDPRICE: usize = 4;
pub const JL_DISCOUNT: usize = 5;
pub const JO_CUSTKEY: usize = 1;
pub const JO_TOTALPRICE: usize = 2;
pub const JC_NATIONKEY: usize = 1;
pub const JC_ACCTBAL: usize = 2;
pub const JC_MKTSEGMENT: usize = 3;

/// `n_line` lineitems (four per order), `n_line / 4` orders, `n_line / 40`
/// customers. `l_rowid` is unique and `l_link` is a uniform draw over the
/// row ids, so `l_link = l_rowid` is a self-join with random access into
/// the build side.
pub fn join_tables(seed: u64, n_line: usize) -> [Table; 3] {
    let n_ord = (n_line / 4).max(1);
    let n_cust = (n_line / 40).max(1);
    let mut rng = Rng::new(seed, 21);
    let lineitem = Table {
        name: "lineitem",
        ddl: "CREATE TABLE lineitem (l_rowid BIGINT NOT NULL, l_link BIGINT NOT NULL, \
              l_orderkey BIGINT NOT NULL, l_quantity BIGINT NOT NULL, \
              l_extendedprice DOUBLE NOT NULL, l_discount DOUBLE NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_line as i64).collect()),
            ColData::I64((0..n_line).map(|_| rng.range(1, n_line as i64)).collect()),
            ColData::I64((0..n_line as i64).map(|i| i / 4 + 1).collect()),
            ColData::I64((0..n_line).map(|_| rng.range(1, 50)).collect()),
            ColData::F64((0..n_line).map(|_| rng.money(90_000, 10_000_000)).collect()),
            ColData::F64((0..n_line).map(|_| rng.range(0, 10) as f64 / 100.0).collect()),
        ],
    };
    let mut rng = Rng::new(seed, 22);
    let orders = Table {
        name: "orders",
        ddl: "CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_custkey BIGINT NOT NULL, \
              o_totalprice DOUBLE NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_ord as i64).collect()),
            ColData::I64((0..n_ord).map(|_| rng.range(1, n_cust as i64)).collect()),
            ColData::F64((0..n_ord).map(|_| rng.money(100_000, 50_000_000)).collect()),
        ],
    };
    let mut rng = Rng::new(seed, 23);
    let customer = Table {
        name: "customer",
        ddl: "CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_nationkey BIGINT NOT NULL, \
              c_acctbal DOUBLE NOT NULL, c_mktsegment VARCHAR NOT NULL)",
        cols: vec![
            ColData::I64((1..=n_cust as i64).collect()),
            ColData::I64((0..n_cust).map(|_| rng.range(0, 24)).collect()),
            ColData::F64((0..n_cust).map(|_| rng.money(-99_999, 999_999)).collect()),
            strs((0..n_cust).map(|_| rng.pick(&SEGMENTS).to_string())),
        ],
    };
    [lineitem, orders, customer]
}

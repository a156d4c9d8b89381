//! The benchmark's own copies of the TPC-H query text, with the
//! specification's validation parameters, in the dialect the engine runs:
//! q13 filters `o_comment` in a derived table (LEFT JOIN takes equality
//! keys only), q17 and q20 compare `x * k` with the bare aggregate, q19
//! hoists the join key out of its disjunction. q11's fraction is the
//! spec's `0.0001 / SF` at SF 0.01. q16 and q21 are typed rejections in
//! this engine and are not part of the workload.

pub const TPCH: [(&str, &str); 20] = [
    (
        "q01",
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
         SUM(l_extendedprice) AS sum_base_price, \
         SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
         AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
         AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem \
         WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY \
         GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    ),
    (
        "q02",
        "SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
         FROM part, supplier, partsupp, nation, region \
         WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 \
         AND p_type LIKE '%BRASS' AND s_nationkey = n_nationkey \
         AND n_regionkey = r_regionkey AND r_name = 'EUROPE' \
         AND ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region \
         WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
         AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE') \
         ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100",
    ),
    (
        "q03",
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, \
         o_shippriority FROM customer, orders, lineitem \
         WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
         AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
         GROUP BY l_orderkey, o_orderdate, o_shippriority \
         ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10",
    ),
    (
        "q04",
        "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders \
         WHERE o_orderdate >= DATE '1993-07-01' \
         AND o_orderdate < DATE '1993-07-01' + INTERVAL '3' MONTH \
         AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey \
         AND l_commitdate < l_receiptdate) \
         GROUP BY o_orderpriority ORDER BY o_orderpriority",
    ),
    (
        "q05",
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem, supplier, nation, region \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
         AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey \
         AND n_regionkey = r_regionkey AND r_name = 'ASIA' \
         AND o_orderdate >= DATE '1994-01-01' \
         AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR \
         GROUP BY n_name ORDER BY revenue DESC",
    ),
    (
        "q06",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' \
         AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR \
         AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    ),
    (
        "q07",
        "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
         EXTRACT(YEAR FROM l_shipdate) AS l_year, \
         SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
         WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey \
         AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey \
         AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') \
         OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE')) \
         AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' \
         GROUP BY n1.n_name, n2.n_name, EXTRACT(YEAR FROM l_shipdate) \
         ORDER BY supp_nation, cust_nation, l_year",
    ),
    (
        "q08",
        "SELECT o_year, SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0.0 END) / SUM(volume) \
         AS mkt_share FROM (SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, \
         l_extendedprice * (1 - l_discount) AS volume, n2.n_name AS nation \
         FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
         WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
         AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey \
         AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA' \
         AND s_nationkey = n2.n_nationkey \
         AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' \
         AND p_type = 'ECONOMY ANODIZED STEEL') all_nations \
         GROUP BY o_year ORDER BY o_year",
    ),
    (
        "q09",
        "SELECT nation, o_year, SUM(amount) AS sum_profit FROM (SELECT n_name AS nation, \
         EXTRACT(YEAR FROM o_orderdate) AS o_year, \
         l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount \
         FROM part, supplier, lineitem, partsupp, orders, nation \
         WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
         AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
         AND p_name LIKE '%green%') profit \
         GROUP BY nation, o_year ORDER BY nation, o_year DESC",
    ),
    (
        "q10",
        "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
         c_acctbal, n_name, c_address, c_phone, c_comment \
         FROM customer, orders, lineitem, nation \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
         AND o_orderdate >= DATE '1993-10-01' \
         AND o_orderdate < DATE '1993-10-01' + INTERVAL '3' MONTH \
         AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
         GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
         ORDER BY revenue DESC, c_custkey LIMIT 20",
    ),
    (
        "q11",
        "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
         FROM partsupp, supplier, nation \
         WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY' \
         GROUP BY ps_partkey HAVING SUM(ps_supplycost * ps_availqty) > \
         (SELECT SUM(ps_supplycost * ps_availqty) * 0.01 FROM partsupp, supplier, nation \
         WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY') \
         ORDER BY value DESC, ps_partkey",
    ),
    (
        "q12",
        "SELECT l_shipmode, SUM(CASE WHEN o_orderpriority = '1-URGENT' \
         OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, \
         SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' \
         THEN 1 ELSE 0 END) AS low_line_count FROM orders, lineitem \
         WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP') \
         AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate \
         AND l_receiptdate >= DATE '1994-01-01' \
         AND l_receiptdate < DATE '1994-01-01' + INTERVAL '1' YEAR \
         GROUP BY l_shipmode ORDER BY l_shipmode",
    ),
    (
        "q13",
        "SELECT c_count, COUNT(*) AS custdist FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count \
         FROM customer LEFT JOIN (SELECT o_orderkey, o_custkey FROM orders \
         WHERE o_comment NOT LIKE '%special%requests%') o ON c_custkey = o_custkey \
         GROUP BY c_custkey) c_orders GROUP BY c_count ORDER BY custdist DESC, c_count DESC",
    ),
    (
        "q14",
        "SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' \
         THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) / \
         SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue FROM lineitem, part \
         WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01' \
         AND l_shipdate < DATE '1995-09-01' + INTERVAL '1' MONTH",
    ),
    (
        "q15",
        "WITH revenue AS (SELECT l_suppkey AS supplier_no, \
         SUM(l_extendedprice * (1 - l_discount)) AS total_revenue FROM lineitem \
         WHERE l_shipdate >= DATE '1996-01-01' \
         AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH GROUP BY l_suppkey) \
         SELECT s_suppkey, s_name, s_address, s_phone, total_revenue FROM supplier, revenue \
         WHERE s_suppkey = supplier_no \
         AND total_revenue = (SELECT MAX(total_revenue) FROM revenue) ORDER BY s_suppkey",
    ),
    (
        "q17",
        "SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly FROM lineitem, part \
         WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX' \
         AND l_quantity * 5 < (SELECT AVG(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)",
    ),
    (
        "q18",
        "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
         SUM(l_quantity) AS total_qty FROM customer, orders, lineitem \
         WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey \
         HAVING SUM(l_quantity) > 300) AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
         GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
         ORDER BY o_totalprice DESC, o_orderdate, o_orderkey LIMIT 100",
    ),
    (
        "q19",
        "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem, part \
         WHERE p_partkey = l_partkey AND l_shipinstruct = 'DELIVER IN PERSON' \
         AND (l_shipmode = 'AIR' OR l_shipmode = 'REG AIR') \
         AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
         AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5) \
         OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
         AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10) \
         OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
         AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))",
    ),
    (
        "q20",
        "SELECT s_name, s_address FROM supplier, nation WHERE s_suppkey IN \
         (SELECT ps_suppkey FROM partsupp WHERE ps_partkey IN \
         (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%') \
         AND ps_availqty * 2 > (SELECT SUM(l_quantity) FROM lineitem \
         WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey \
         AND l_shipdate >= DATE '1994-01-01' \
         AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR)) \
         AND s_nationkey = n_nationkey AND n_name = 'CANADA' ORDER BY s_name",
    ),
    (
        "q22",
        "SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal FROM \
         (SELECT SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal, c_custkey FROM customer \
         WHERE SUBSTR(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17') \
         AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0.00 \
         AND SUBSTR(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17'))) custsale \
         WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey) \
         GROUP BY cntrycode ORDER BY cntrycode",
    ),
];

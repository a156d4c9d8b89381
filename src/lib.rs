//! # vectorwise — a Rust reproduction of the X100/Vectorwise system
//!
//! Facade crate re-exporting the whole workspace. See `ARCHITECTURE.md`
//! for the crate map and the life of a query, and `benchmark/README.md`
//! for how performance is measured.
//!
//! ```
//! use vectorwise::core::Database;
//!
//! let db = Database::open_in_memory();
//! db.execute("CREATE TABLE t (x BIGINT)").unwrap();
//! db.execute("INSERT INTO t VALUES (41), (1)").unwrap();
//! let r = db.execute("SELECT SUM(x) FROM t").unwrap();
//! assert_eq!(r.scalar().unwrap(), &vectorwise::common::Value::I64(42));
//! ```

pub use vw_common as common;
pub use vw_compress as compress;
pub use vw_core as core;
pub use vw_exec as exec;
pub use vw_pdt as pdt;
pub use vw_rewriter as rewriter;
pub use vw_sql as sql;
pub use vw_storage as storage;
pub use vw_volcano as volcano;

//! # vw-storage — compressed column storage
//!
//! The "Compressed PAX/DSM storage" box of the paper's Figure 1, following
//! *Balancing vectorized query execution with bandwidth-optimized storage*
//! (Zukowski, 2009 — reference \[6\]). This engine implements its DSM half.
//!
//! Architecture:
//!
//! * a [simulated disk](disk) is the device all table data lives on: an
//!   in-memory block store that counts its traffic and injects seeded
//!   faults (substitution for the paper's disk arrays),
//! * tables are split into row ranges called **packs** (the compression
//!   granule); each pack's columns are compressed with [`vw_compress`]
//!   (auto-selected per chunk) into one block per column chunk, so scans
//!   read only the columns they touch,
//! * a pack owns its blocks, and a table's stable storage is a chain of
//!   immutable **generations** that scans pin: a block is freed when the
//!   last generation holding its pack drops ([`table`] explains the rule),
//! * a [buffer pool](buffer) caches raw (still compressed) blocks with CLOCK
//!   eviction; decompression happens per scan into cache-resident vectors,
//!   which is the X100 execution model,
//! * per-pack [MinMax summaries](table) support scan-range pruning,
//! * [table statistics](stats) (row counts, distinct estimates, equi-depth
//!   histograms) feed the Ingres-style optimizer.

pub mod buffer;
pub mod disk;
pub mod pack;
pub mod stats;
pub mod table;

pub use buffer::BufferPool;
pub use disk::{BlockId, DiskStats, SimulatedDisk, SpillFile};
pub use pack::{decode_chunk, decode_spill_batch, encode_chunk, encode_spill_batch};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::{Pack, ScanRange, TableStorage};

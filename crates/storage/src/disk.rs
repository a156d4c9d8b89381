//! A simulated block device: an in-memory block store with traffic
//! counters and deterministic fault injection.
//!
//! Storage in the paper is a disk array; here every block lives in memory
//! and the device makes I/O *volume* explicit instead of its time:
//!
//! * all traffic is counted in [`DiskStats`] (I/O volume is the
//!   policy-independent ground truth),
//! * a block is written once and never changed; its owner frees it.
//!
//! # Fault injection
//!
//! [`SimulatedDisk::arm_faults`] installs a seeded [`FaultConfig`]: per-op
//! read/write error probability, bit-flip/truncation corruption on read,
//! added latency, and a "fail the Nth write" trigger. Injection is
//! deterministic for a given (seed, operation sequence). When no faults are
//! armed the only cost is one relaxed atomic load per operation — none of
//! the machinery is constructed.
//!
//! Consumers detect in-flight corruption through [`SimulatedDisk::verify`]
//! (the stand-in for a real on-disk block checksum) and absorb transient
//! faults through [`retry_io`], the engine-wide bounded retry-with-backoff
//! policy. Retries are counted in [`DiskStats::io_retries`]. The full error
//! taxonomy, retry policy, and reclamation invariants are documented in the
//! repo-root ARCHITECTURE.md ("Failure model").

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vw_common::{FaultConfig, Result, VwError};

/// Identifies one block on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Monotonic traffic counters.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    /// Blocks read.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Blocks written.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Retry attempts absorbed by the [`retry_io`] policy (transient
    /// injected faults that never surfaced to a query).
    pub io_retries: u64,
    /// Faults the injector has fired (errors + corruptions + Nth-write).
    pub faults_injected: u64,
}

/// The seeded fault state: a splitmix64 stream plus the write counter the
/// Nth-write trigger watches. Constructed only by [`SimulatedDisk::arm_faults`].
struct FaultInjector {
    cfg: FaultConfig,
    /// splitmix64 state; Mutex keeps the draw sequence deterministic under
    /// concurrency (one lock per *armed* operation only).
    rng: Mutex<u64>,
    writes_seen: AtomicU64,
}

impl FaultInjector {
    fn new(cfg: FaultConfig) -> FaultInjector {
        let seed = cfg.seed;
        FaultInjector { cfg, rng: Mutex::new(seed), writes_seen: AtomicU64::new(0) }
    }

    /// Next 64 pseudo-random bits (splitmix64 — deterministic per seed).
    fn next_u64(&self) -> u64 {
        let mut s = self.rng.lock();
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli trial with probability `p`.
    fn roll(&self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Corrupt a copy of `data`: flip one bit or truncate the tail, at a
    /// position drawn from the seeded stream. Empty blocks truncate to
    /// empty (still a fresh allocation, so verification catches it).
    fn corrupt(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        let r = self.next_u64();
        if out.is_empty() {
            return out;
        }
        if r & 1 == 0 {
            let pos = (r >> 1) as usize % out.len();
            out[pos] ^= 1 << ((r >> 57) & 7);
        } else {
            out.truncate((r >> 1) as usize % out.len());
        }
        out
    }
}

/// The simulated device. Cheap to clone (`Arc` inside); thread-safe.
pub struct SimulatedDisk {
    blocks: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    next_id: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    io_retries: AtomicU64,
    faults_injected: AtomicU64,
    /// Fast gate: the fault-free path pays exactly this one relaxed load.
    fault_active: AtomicBool,
    fault: Mutex<Option<FaultInjector>>,
}

/// Retry attempts (after the first) the [`retry_io`] policy grants a
/// transient fault before surfacing it.
pub const MAX_IO_RETRIES: u32 = 4;

/// Engine-wide bounded retry-with-backoff for transient device faults:
/// up to [`MAX_IO_RETRIES`] retries with exponential backoff (50 µs
/// doubling), counting every retry in [`DiskStats::io_retries`]. Only
/// `VwError::Io { transient: true, .. }` is retried — terminal I/O errors,
/// `Storage` (unknown block), and everything else surface immediately.
///
/// The buffer pool wraps block reads (plus [`SimulatedDisk::verify`]) in
/// this; [`SpillFile`] wraps both directions; table/heap writers wrap
/// their block writes via [`SimulatedDisk::write_new_retrying`].
pub fn retry_io<T>(disk: &SimulatedDisk, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Err(VwError::Io { transient: true, .. }) if attempt < MAX_IO_RETRIES => {
                attempt += 1;
                disk.io_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50u64 << (attempt - 1)));
            }
            other => return other,
        }
    }
}

impl SimulatedDisk {
    /// Create an empty device.
    pub fn instant() -> Arc<SimulatedDisk> {
        Arc::new(SimulatedDisk {
            blocks: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            fault_active: AtomicBool::new(false),
            fault: Mutex::new(None),
        })
    }

    /// Install a fault injector (no-op for an inactive config). Arming
    /// resets the injector's RNG and write counter, so a fixed seed
    /// reproduces the same fault sequence from this point.
    pub fn arm_faults(&self, cfg: FaultConfig) {
        if !cfg.is_active() {
            return;
        }
        *self.fault.lock() = Some(FaultInjector::new(cfg));
        self.fault_active.store(true, Ordering::Release);
    }

    /// Remove the fault injector; subsequent operations are fault-free.
    pub fn disarm_faults(&self) {
        self.fault_active.store(false, Ordering::Release);
        *self.fault.lock() = None;
    }

    /// True while a fault injector is armed.
    pub fn faults_armed(&self) -> bool {
        self.fault_active.load(Ordering::Acquire)
    }

    /// Fire the armed write faults, if any. `Ok(())` = let the write through.
    fn inject_write_fault(&self) -> Result<()> {
        if !self.fault_active.load(Ordering::Relaxed) {
            return Ok(());
        }
        let guard = self.fault.lock();
        let Some(f) = guard.as_ref() else { return Ok(()) };
        if f.cfg.latency_us > 0 {
            std::thread::sleep(Duration::from_micros(f.cfg.latency_us));
        }
        let nth = f.writes_seen.fetch_add(1, Ordering::Relaxed) + 1;
        if f.cfg.fail_nth_write == Some(nth) {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            return Err(VwError::Io {
                transient: false,
                msg: format!("injected terminal fault on write #{nth}"),
            });
        }
        if f.roll(f.cfg.write_err) {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            return Err(VwError::Io {
                transient: true,
                msg: format!("injected write fault (write #{nth})"),
            });
        }
        Ok(())
    }

    /// Allocate a fresh block id and store `data` under it. Fails only
    /// under armed write faults; the fault-free path cannot fail.
    pub fn write_new(&self, data: Vec<u8>) -> Result<BlockId> {
        self.inject_write_fault()?;
        Ok(self.store(data))
    }

    /// [`write_new`](Self::write_new) under the [`retry_io`] policy — the
    /// data never has to be re-supplied, so writers that cannot cheaply
    /// clone their payload retry here instead of wrapping the call.
    pub fn write_new_retrying(&self, data: Vec<u8>) -> Result<BlockId> {
        retry_io(self, || self.inject_write_fault())?;
        Ok(self.store(data))
    }

    /// Store `data` under a fresh block id, counting the write.
    fn store(&self, data: Vec<u8>) -> BlockId {
        let id = BlockId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.blocks.lock().insert(id.0, Arc::new(data));
        id
    }

    /// Read a block.
    ///
    /// Under armed faults a read may fail with a transient
    /// [`VwError::Io`] or return a *corrupted copy*
    /// of the block — callers that cache or decode bytes pair this with
    /// [`verify`](Self::verify) inside a [`retry_io`] loop.
    pub fn read(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        let mut data = self
            .blocks
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| VwError::Storage(format!("read of unknown block {id:?}")))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(data.len() as u64, Ordering::Relaxed);
        if self.fault_active.load(Ordering::Relaxed) {
            let guard = self.fault.lock();
            if let Some(f) = guard.as_ref() {
                if f.cfg.latency_us > 0 {
                    std::thread::sleep(Duration::from_micros(f.cfg.latency_us));
                }
                if f.roll(f.cfg.read_err) {
                    self.faults_injected.fetch_add(1, Ordering::Relaxed);
                    return Err(VwError::Io {
                        transient: true,
                        msg: format!("injected read fault on block {id:?}"),
                    });
                }
                if f.roll(f.cfg.corrupt) {
                    self.faults_injected.fetch_add(1, Ordering::Relaxed);
                    data = Arc::new(f.corrupt(&data));
                }
            }
        }
        Ok(data)
    }

    /// Validate that `data` is the pristine content of block `id` — the
    /// simulation stand-in for an on-disk block checksum (the device holds
    /// the pristine copy, so the common case is an `Arc` pointer compare;
    /// an injected corruption allocates and therefore memcmps). Returns a
    /// *transient* [`VwError::Io`] on mismatch: the
    /// stored block is intact, so a re-read inside [`retry_io`] recovers.
    /// A block freed concurrently verifies clean (staleness is the block
    /// owner's protocol, not a device-integrity failure). Free when no
    /// faults are armed.
    pub fn verify(&self, id: BlockId, data: &Arc<Vec<u8>>) -> Result<()> {
        if !self.fault_active.load(Ordering::Relaxed) {
            return Ok(());
        }
        match self.blocks.lock().get(&id.0) {
            Some(pristine) if Arc::ptr_eq(pristine, data) || **pristine == **data => Ok(()),
            None => Ok(()),
            Some(_) => Err(VwError::Io {
                transient: true,
                msg: format!("checksum mismatch on block {id:?}"),
            }),
        }
    }

    /// Drop a block. Only its owner calls this, from its `Drop`: a spill
    /// file directly, a pack or heap table through [`BufferPool::free`](crate::BufferPool::free).
    pub fn free(&self, id: BlockId) {
        self.blocks.lock().remove(&id.0);
    }

    /// Size of a block in bytes without charging a read.
    pub fn block_size(&self, id: BlockId) -> Result<usize> {
        self.blocks
            .lock()
            .get(&id.0)
            .map(|b| b.len())
            .ok_or_else(|| VwError::Storage(format!("size of unknown block {id:?}")))
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Total bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.blocks.lock().values().map(|b| b.len()).sum()
    }
}

/// A temp spill file: an ordered run of blocks on the simulated device,
/// owned by one operator. The grace-spilling hash operators
/// (`vw-exec::spill`) append encoded batches during build/probe and read
/// them back chunk-by-chunk when a spilled partition is rehydrated.
///
/// Both directions run under the [`retry_io`] policy, and reads are
/// verified against the stored block, so transient injected faults are
/// absorbed and corruption is detected before decode.
///
/// Dropping the file frees every block — temp space is reclaimed whether
/// the query completes, errors, or is `KILL`ed mid-spill.
pub struct SpillFile {
    disk: Arc<SimulatedDisk>,
    chunks: Vec<BlockId>,
    bytes: u64,
}

impl SpillFile {
    /// An empty spill file on `disk`.
    pub fn new(disk: Arc<SimulatedDisk>) -> SpillFile {
        SpillFile { disk, chunks: Vec::new(), bytes: 0 }
    }

    /// Append one encoded chunk; returns its size in bytes. Transient
    /// write faults are retried; a terminal fault surfaces (and the file
    /// still frees every successfully written chunk on drop).
    pub fn append(&mut self, data: Vec<u8>) -> Result<usize> {
        let n = data.len();
        let id = self.disk.write_new_retrying(data)?;
        self.bytes += n as u64;
        self.chunks.push(id);
        Ok(n)
    }

    /// Number of chunks appended so far.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total bytes written (the rehydration cost estimate).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Read chunk `i` back (counted like any block read).
    /// The returned bytes are verified against the stored block; transient
    /// faults and detected corruption are retried before surfacing.
    pub fn read_chunk(&self, i: usize) -> Result<Arc<Vec<u8>>> {
        let id = *self
            .chunks
            .get(i)
            .ok_or_else(|| VwError::Storage(format!("spill chunk {i} out of range")))?;
        retry_io(&self.disk, || {
            let data = self.disk.read(id)?;
            self.disk.verify(id, &data)?;
            Ok(data)
        })
    }

    /// The device this file lives on.
    pub fn disk(&self) -> &Arc<SimulatedDisk> {
        &self.disk
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        for id in self.chunks.drain(..) {
            self.disk.free(id);
        }
    }
}

impl std::fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillFile")
            .field("chunks", &self.chunks.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let disk = SimulatedDisk::instant();
        let id = disk.write_new(vec![1, 2, 3]).unwrap();
        assert_eq!(*disk.read(id).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn unknown_block_errors() {
        let disk = SimulatedDisk::instant();
        assert!(disk.read(BlockId(999)).is_err());
        assert!(disk.block_size(BlockId(999)).is_err());
    }

    #[test]
    fn stats_count_traffic() {
        let disk = SimulatedDisk::instant();
        let a = disk.write_new(vec![0; 100]).unwrap();
        let b = disk.write_new(vec![0; 50]).unwrap();
        disk.read(a).unwrap();
        disk.read(b).unwrap();
        disk.read(a).unwrap();
        let s = disk.stats();
        assert_eq!(s.reads, 3);
        assert_eq!(s.bytes_read, 250);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 150);
        assert_eq!(s.io_retries, 0);
        assert_eq!(s.faults_injected, 0);
    }

    #[test]
    fn free_releases_space() {
        let disk = SimulatedDisk::instant();
        let id = disk.write_new(vec![0; 1000]).unwrap();
        assert_eq!(disk.used_bytes(), 1000);
        disk.free(id);
        assert_eq!(disk.used_bytes(), 0);
        assert!(disk.read(id).is_err());
    }

    #[test]
    fn spill_file_appends_reads_and_frees_on_drop() {
        let disk = SimulatedDisk::instant();
        let mut f = SpillFile::new(disk.clone());
        assert!(f.is_empty());
        assert_eq!(f.append(vec![1, 2, 3]).unwrap(), 3);
        assert_eq!(f.append(vec![4, 5]).unwrap(), 2);
        assert_eq!(f.n_chunks(), 2);
        assert_eq!(f.bytes_written(), 5);
        assert_eq!(*f.read_chunk(0).unwrap(), vec![1, 2, 3]);
        assert_eq!(*f.read_chunk(1).unwrap(), vec![4, 5]);
        assert!(f.read_chunk(2).is_err(), "out-of-range chunk is a typed error");
        assert_eq!(disk.used_bytes(), 5);
        drop(f);
        assert_eq!(disk.used_bytes(), 0, "temp blocks reclaimed on drop");
    }

    #[test]
    fn injected_read_faults_are_deterministic_and_counted() {
        let faults = FaultConfig { seed: 7, read_err: 0.5, ..Default::default() };
        let outcomes = |seed: u64| {
            let disk = SimulatedDisk::instant();
            let id = disk.write_new(vec![1; 16]).unwrap();
            disk.arm_faults(FaultConfig { seed, ..faults.clone() });
            (0..64).map(|_| disk.read(id).is_ok()).collect::<Vec<_>>()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same fault sequence");
        assert_ne!(a, outcomes(8), "different seed diverges");
        assert!(a.iter().any(|ok| !ok) && a.iter().any(|ok| *ok), "p=0.5 mixes");

        let disk = SimulatedDisk::instant();
        let id = disk.write_new(vec![1; 16]).unwrap();
        disk.arm_faults(FaultConfig { seed: 7, read_err: 1.0, ..Default::default() });
        assert!(matches!(disk.read(id), Err(VwError::Io { transient: true, .. })));
        assert!(disk.stats().faults_injected >= 1);
        disk.disarm_faults();
        assert!(disk.read(id).is_ok(), "disarm restores fault-free operation");
    }

    #[test]
    fn corruption_is_caught_by_verify_and_recovered_by_retry() {
        let disk = SimulatedDisk::instant();
        let id = disk.write_new((0..255).collect()).unwrap();
        disk.arm_faults(FaultConfig { seed: 3, corrupt: 1.0, ..Default::default() });
        // Every read corrupts; verify must flag every one of them.
        for _ in 0..16 {
            let data = disk.read(id).unwrap();
            assert!(matches!(disk.verify(id, &data), Err(VwError::Io { transient: true, .. })));
        }
        // At p=0.3 a verified retry loop recovers (pristine reads pass).
        disk.arm_faults(FaultConfig { seed: 3, corrupt: 0.3, ..Default::default() });
        for _ in 0..16 {
            let data = retry_io(&disk, || {
                let d = disk.read(id)?;
                disk.verify(id, &d)?;
                Ok(d)
            })
            .unwrap();
            assert_eq!(*data, (0..255).collect::<Vec<u8>>());
        }
        assert!(disk.stats().io_retries > 0, "recovery retries are counted");
    }

    #[test]
    fn fail_nth_write_is_terminal_and_not_retried() {
        let disk = SimulatedDisk::instant();
        disk.arm_faults(FaultConfig { seed: 1, fail_nth_write: Some(2), ..Default::default() });
        assert!(disk.write_new(vec![1]).is_ok());
        let retries_before = disk.stats().io_retries;
        let err = disk.write_new_retrying(vec![2]).unwrap_err();
        assert!(matches!(err, VwError::Io { transient: false, .. }));
        assert_eq!(disk.stats().io_retries, retries_before, "terminal faults never retry");
        assert!(disk.write_new(vec![3]).is_ok(), "only the Nth write fails");
    }

    #[test]
    fn transient_write_faults_absorbed_by_retrying_writer() {
        let disk = SimulatedDisk::instant();
        disk.arm_faults(FaultConfig { seed: 11, write_err: 0.4, ..Default::default() });
        let mut written = Vec::new();
        for i in 0..64u8 {
            // At p=0.4 a write may exhaust its retry budget (p^5 per
            // write) — that must be a typed transient error, never a
            // panic or a half-written block.
            match disk.write_new_retrying(vec![i]) {
                Ok(id) => written.push((id, i)),
                Err(e) => assert!(matches!(e, VwError::Io { transient: true, .. })),
            }
        }
        disk.disarm_faults();
        assert!(written.len() > 48, "retries absorb most faults: {}", written.len());
        assert!(disk.stats().io_retries > 0);
        for (id, i) in written {
            assert_eq!(*disk.read(id).unwrap(), vec![i], "retried writes landed intact");
        }
    }

    #[test]
    fn spill_file_survives_faulted_device() {
        let disk = SimulatedDisk::instant();
        disk.arm_faults(FaultConfig {
            seed: 5,
            read_err: 0.2,
            write_err: 0.2,
            corrupt: 0.2,
            ..Default::default()
        });
        let mut f = SpillFile::new(disk.clone());
        for i in 0..32u8 {
            f.append(vec![i; 64]).unwrap();
        }
        for i in 0..32usize {
            assert_eq!(*f.read_chunk(i).unwrap(), vec![i as u8; 64]);
        }
        drop(f);
        disk.disarm_faults();
        assert_eq!(disk.used_bytes(), 0, "temp blocks reclaimed even under faults");
    }

    #[test]
    fn latency_fault_slows_reads() {
        let disk = SimulatedDisk::instant();
        let id = disk.write_new(vec![0; 8]).unwrap();
        disk.arm_faults(FaultConfig { seed: 1, latency_us: 2000, ..Default::default() });
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            disk.read(id).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(10), "latency charged per op");
    }
}

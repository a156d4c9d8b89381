//! C12: flat vectorized hash table vs. the old `FxHashMap<u64, Vec<u32>>`.
//!
//! Reproduces the operator-internal data-structure experiment behind the
//! hash join / aggregation rewrite: build and probe throughput at varying
//! build cardinalities and probe match rates, old-map baseline vs. the
//! [`vw_exec::hashtable::JoinTable`]. Also proves the acceptance criterion
//! that the steady-state vectorized probe loop performs **zero heap
//! allocations** once its scratch buffers are warm, via a counting global
//! allocator — and the same for every rung of `HashAggregate`'s
//! group-resolution ladder (no keys, two dict-coded keys, one BIGINT key
//! of 1 000 or 250 k values on the direct rung, one past the direct map's
//! span cap on the fused rung, two BIGINT keys), each timed per row beside
//! it.
//!
//! String key hashing is timed per lane for a key coded over a small
//! dictionary, over a pack-sized raw-block arena, and flat.
//!
//! The bulk CSR build (`JoinTable::build`) is swept over 8 k → 1 M
//! rows, first call and warm, with allocated bytes per row, against the
//! layout it replaced (reconstructed here: 16-byte slots, a cursor clone of
//! the directory, one global histogram and scatter) and against the direct
//! layout over unique dense keys (`DirectBuild`, no hash), filled whole and
//! split by key range into two parts filled on two threads (as the two
//! sinks of a DOP-2 build fill it).
//! This sweep is what picked `CSR_RANGE_ROWS`.
//!
//! Build and probe run for both layouts: the hashed table over the hashes
//! of the build keys, and the direct one over the keys themselves (they
//! are `n` draws from `0..2n`, which the byte rule admits), at 5 %, 50 %
//! and 95 % of probe keys matching, with the same zero-allocation proof
//! for the direct probe loop.
//!
//! The runtime join filter's test is timed per lane against both layouts
//! at 5 %, 50 % and 95 % of lanes passing — the direct table's exact
//! membership test (`JoinTable::retain_direct`), and the hashed table's
//! bloom test over each lane's key hash, computed inline as the fused
//! probe kernel computes it (`JoinTable::retain_bloom`), as a scan runs
//! them — with the same zero-allocation proof.

use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use std::time::Instant;
use vw_common::hash::{hash_u64, FxHashMap};
use vw_common::{CancelToken, ColData, Field, Result, Schema, SelVec, TypeId};
use vw_exec::expr::PhysExpr;
use vw_exec::hashtable::{self, DirectBuild, JoinTable};
use vw_exec::op::{AggFunc, AggSpec, HashAggregate, Operator};
use vw_exec::program::ExprProgram;
use vw_exec::{Batch, StrArena, Vector};

// ---------------------------------------------------------------------------
// counting allocator (steady-state allocation proof)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

const VECTOR: usize = 1024;

/// Build-side keys: `n` uniform draws from a `2n` domain (≈ half distinct).
fn build_keys(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2 * n as i64)).collect()
}

/// Probe keys with roughly `match_pct`% of lanes drawn from the build
/// domain and the rest guaranteed misses.
fn probe_keys(n_probe: usize, build_domain: i64, match_pct: usize, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_probe)
        .map(|_| {
            if rng.gen_range(0..100usize) < match_pct {
                rng.gen_range(0..build_domain)
            } else {
                build_domain + rng.gen_range(0..build_domain)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// old-map baseline: FxHashMap<u64, Vec<u32>> exactly as the old operators
// kept it — bucket Vec per distinct hash, tuple-at-a-time probe.
// ---------------------------------------------------------------------------

fn map_build(keys: &[i64]) -> FxHashMap<u64, Vec<u32>> {
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (i, &k) in keys.iter().enumerate() {
        table.entry(hash_u64(k as u64)).or_default().push(i as u32);
    }
    table
}

fn map_probe(table: &FxHashMap<u64, Vec<u32>>, build: &[i64], probe: &[i64]) -> u64 {
    let mut hits = 0u64;
    for &k in probe {
        if let Some(bucket) = table.get(&hash_u64(k as u64)) {
            for &r in bucket {
                if build[r as usize] == k {
                    hits += 1;
                }
            }
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// flat table: vectorized build + probe through the real kernels
// ---------------------------------------------------------------------------

struct FlatSide {
    table: JoinTable,
    keys: Vec<Vector>,
}

/// The direct table over `keys`, as the join builds it: the range is the
/// keys' own, tracked batch by batch.
fn direct_build(keys: &[i64]) -> FlatSide {
    let (lo, hi) = keys.iter().fold((i64::MAX, i64::MIN), |(l, h), &k| (l.min(k), h.max(k)));
    assert!(JoinTable::fits_direct(keys.len(), lo, hi, 0), "the byte rule admits the build");
    let chunks: Vec<&[i64]> = keys.chunks(VECTOR).collect();
    let table = DirectBuild::new(keys.len(), lo, hi, 0);
    table.fill(&chunks, 0, 1);
    let table = table.finish();
    FlatSide { table, keys: vec![Vector::new(ColData::I64(keys.to_vec()))] }
}

fn flat_build(keys: &[i64]) -> FlatSide {
    let key_vec = vec![Vector::new(ColData::I64(keys.to_vec()))];
    let (mut lanes, mut hashes) = (Vec::new(), Vec::new());
    let mut staged = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(VECTOR) {
        let chunk_vec = vec![Vector::new(ColData::I64(chunk.to_vec()))];
        hashtable::hash_keys(&chunk_vec, chunk.len(), false, &mut lanes, &mut hashes);
        staged.extend_from_slice(&hashes);
    }
    FlatSide { table: JoinTable::build(&[&staged]), keys: key_vec }
}

/// Reusable probe scratch mirroring the operator's (allocation-free once
/// warm).
#[derive(Default)]
struct Scratch {
    buf: hashtable::ProbeBuf,
    matched_flags: Vec<bool>,
    out_probe: Vec<u32>,
    out_build: Vec<u32>,
}

/// The vectorized probe loop over pre-chunked probe vectors; the counted /
/// timed region is exactly what the operators run per batch — the fused
/// single-column i64 kernel (`JoinTable::probe_join`, or
/// `JoinTable::probe_direct` on a direct table) with reused scratch.
fn flat_probe(side: &FlatSide, chunks: &[Vec<Vector>], s: &mut Scratch) -> u64 {
    let mut hits = 0u64;
    let build = side.keys[0].data.as_i64();
    for chunk in chunks {
        let n = chunk[0].len();
        if s.matched_flags.len() < n {
            s.matched_flags.resize(n, false);
        }
        s.matched_flags[..n].fill(false);
        s.out_probe.clear();
        s.out_build.clear();
        let probe = chunk[0].data.as_i64();
        if side.table.is_direct() {
            side.table.probe_direct(
                n,
                None,
                true,
                |p| probe[p],
                &mut s.matched_flags,
                &mut s.out_probe,
                &mut s.out_build,
            );
        } else {
            side.table.probe_join(
                n,
                None,
                true,
                |p| hash_u64(probe[p] as u64),
                |p, row| probe[p] == build[row as usize],
                &mut s.matched_flags,
                &mut s.out_probe,
                &mut s.out_build,
                &mut s.buf,
            );
        }
        hits += s.out_probe.len() as u64;
    }
    hits
}

fn chunked(probe: &[i64]) -> Vec<Vec<Vector>> {
    probe.chunks(VECTOR).map(|c| vec![Vector::new(ColData::I64(c.to_vec()))]).collect()
}

/// Acceptance check: after one warm-up pass, a full probe pass over 64
/// batches must allocate nothing, in either layout.
fn steady_state_alloc_check() {
    let n = 1 << 16;
    let build = build_keys(n, 1);
    let probe = probe_keys(64 * VECTOR, 2 * n as i64, 50, 2);
    let chunks = chunked(&probe);
    let hashed = flat_build(&build);
    let mut expect = None;
    for (layout, side) in [("hashed", hashed), ("direct", direct_build(&build))] {
        let mut s = Scratch::default();
        let warm = flat_probe(&side, &chunks, &mut s); // warm the scratch
        let before = ALLOCS.load(Ordering::Relaxed);
        let hits = flat_probe(&side, &chunks, &mut s);
        let allocated = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(hits, warm);
        assert_eq!(*expect.get_or_insert(hits), hits, "{layout}: the layouts disagree");
        assert_eq!(allocated, 0, "{layout}: steady-state probe loop must not allocate");
        println!("steady-state {layout} probe allocations over 64 batches: {allocated} (OK)");
    }
}

// ---------------------------------------------------------------------------
// the group-resolution ladder: one HashAggregate build per rung
// ---------------------------------------------------------------------------

const RUNG_BATCHES: usize = 512;
/// Batches served before the allocation count starts: more than two
/// packs, so the dict rung's memo has met a dictionary change, and enough
/// rows that every one of the wide keys' values has arrived.
const RUNG_WARM: usize = 256;
/// Distinct values of the wide keys (`l_partkey`'s at 1 M rows).
const WIDE: i64 = 250_000;
/// The sparse key is the wide one times this: its values span 2 M, past
/// the direct map's 2^20 slots.
const SPARSE_STRIDE: i64 = 8;

/// Serves pre-built batches by value and notes the allocation counter and
/// the clock when the steady state starts and when the input ends.
struct Replay {
    schema: Schema,
    batches: std::vec::IntoIter<Batch>,
    served: usize,
    marks: Arc<[AtomicU64; 2]>,
    clock: Arc<Mutex<[Option<Instant>; 2]>>,
}

impl Operator for Replay {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn name(&self) -> &'static str {
        "Replay"
    }
    fn next(&mut self) -> Result<Option<Batch>> {
        let mark = |i: usize| {
            self.marks[i].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            self.clock.lock().unwrap()[i] = Some(Instant::now());
        };
        if self.served == RUNG_WARM {
            mark(0);
        }
        self.served += 1;
        let batch = self.batches.next();
        if batch.is_none() {
            mark(1);
        }
        Ok(batch)
    }
}

/// Columns: two dict-coded strings (3 × 2 values, one dictionary `Arc` per
/// 16-batch pack), two BIGINT keys (1000 × 7 values), one BIGINT value,
/// and the wide and sparse BIGINT keys: [`WIDE`] values, and the same
/// times [`SPARSE_STRIDE`]. The warm-up batches bring every wide value
/// once, in random order, so the steady state creates no group.
fn rung_batches() -> (Schema, Vec<Batch>) {
    let schema = Schema::new(vec![
        Field::not_null("flag", TypeId::Str),
        Field::not_null("status", TypeId::Str),
        Field::not_null("k1", TypeId::I64),
        Field::not_null("k2", TypeId::I64),
        Field::not_null("v", TypeId::I64),
        Field::not_null("wide", TypeId::I64),
        Field::not_null("sparse", TypeId::I64),
    ])
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(12);
    let mut wide: Vec<i64> = (0..WIDE).collect();
    for i in (1..wide.len()).rev() {
        wide.swap(i, rng.gen_range(0..=i));
    }
    assert!(wide.len() <= RUNG_WARM * VECTOR, "the warm-up brings every wide value");
    wide.extend((wide.len()..RUNG_BATCHES * VECTOR).map(|_| rng.gen_range(0..WIDE)));
    let mut dicts: Vec<Arc<StrArena>> = Vec::new();
    let batches = (0..RUNG_BATCHES)
        .map(|b| {
            if b % 16 == 0 {
                let dict =
                    |vals: &[&str]| Arc::new(StrArena::from_strs(vals.iter().copied(), true));
                dicts = vec![dict(&["A", "N", "R"]), dict(&["F", "O"])];
            }
            let mut cols: Vec<Vector> = dicts
                .iter()
                .map(|d| {
                    let codes = (0..VECTOR).map(|_| rng.gen_range(0..d.len() as u32)).collect();
                    Vector::from_dict(codes, d.clone(), None)
                })
                .collect();
            for domain in [1000i64, 7, 100] {
                let vals = (0..VECTOR).map(|_| rng.gen_range(0..domain)).collect();
                cols.push(Vector::new(ColData::I64(vals)));
            }
            let wide = &wide[b * VECTOR..(b + 1) * VECTOR];
            cols.push(Vector::new(ColData::I64(wide.to_vec())));
            cols.push(Vector::new(ColData::I64(wide.iter().map(|k| k * SPARSE_STRIDE).collect())));
            Batch::new(cols)
        })
        .collect();
    (schema, batches)
}

/// Per rung: build `COUNT(*), SUM(v)` grouped by `keys`, assert that the
/// steady-state batches allocate nothing, print their nanoseconds per row
/// (input batches stream cold from memory, 24 MiB of them: the figure is
/// the rung plus a column scan from DRAM, comparable across rungs).
fn resolution_rungs() {
    let (schema, batches) = rung_batches();
    let rungs: [(&str, &[usize]); 6] = [
        ("0 keys", &[]),
        ("2 dict keys", &[0, 1]),
        ("1 BIGINT key, 1000 distinct", &[2]),
        ("1 BIGINT key, 250 k distinct", &[5]),
        ("1 BIGINT key, sparse past the span cap", &[6]),
        ("2 BIGINT keys", &[2, 3]),
    ];
    for (name, keys) in rungs {
        let col = |c: usize| ExprProgram::compile(&PhysExpr::ColRef(c, schema.fields[c].ty));
        let mut fields: Vec<Field> = keys.iter().map(|&c| schema.fields[c].clone()).collect();
        fields.push(Field::not_null("cnt", TypeId::I64));
        fields.push(Field::nullable("sum", TypeId::I64));
        // Five builds; the fastest is reported (on a shared box noise only
        // adds time), every one must be allocation-free.
        let mut ns_per_row = f64::INFINITY;
        for _ in 0..5 {
            let marks = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let clock = Arc::new(Mutex::new([None; 2]));
            let input = Replay {
                schema: schema.clone(),
                batches: batches.clone().into_iter(),
                served: 0,
                marks: marks.clone(),
                clock: clock.clone(),
            };
            let mut agg = HashAggregate::new(
                Box::new(input),
                keys.iter().map(|&c| col(c)).collect(),
                vec![
                    AggSpec { func: AggFunc::CountStar, input: None, out_ty: TypeId::I64 },
                    AggSpec { func: AggFunc::Sum, input: Some(col(4)), out_ty: TypeId::I64 },
                ],
                Schema::unchecked(fields.clone()),
                VECTOR,
                CancelToken::new(),
            )
            .unwrap();
            black_box(agg.next().unwrap().expect("at least one group"));
            let [Some(t0), Some(t1)] = *clock.lock().unwrap() else { panic!("input not drained") };
            let steady_rows = ((RUNG_BATCHES - RUNG_WARM) * VECTOR) as f64;
            ns_per_row = ns_per_row.min((t1 - t0).as_nanos() as f64 / steady_rows);
            let allocated = marks[1].load(Ordering::Relaxed) - marks[0].load(Ordering::Relaxed);
            assert_eq!(allocated, 0, "{name}: a steady-state batch allocated");
        }
        println!(
            "group resolution, {name}: {ns_per_row:.2} ns/row, 0 allocations over {} \
             steady-state batches (OK)",
            RUNG_BATCHES - RUNG_WARM
        );
    }
}

// ---------------------------------------------------------------------------
// bulk CSR build: the layout `JoinTable::build` replaced, and the sweep
// ---------------------------------------------------------------------------

/// The table the join built before it split by radix ranges: full hash
/// and row in a 16-byte slot, zero-filled up front; one histogram and one
/// scatter over the whole directory; a cursor clone of the offsets.
#[allow(dead_code)]
struct OldCsr {
    offsets: Vec<u32>,
    slots: Vec<(u64, u32)>,
    bloom: Vec<u8>,
}

fn old_build_csr(hashes: &[u64]) -> OldCsr {
    let dir = (hashes.len().max(4) * 2).next_power_of_two();
    let mask = dir as u64 - 1;
    let mut offsets = vec![0u32; dir + 1];
    let mut bloom = vec![0u8; dir];
    for &h in hashes {
        let b = (h & mask) as usize;
        offsets[b + 1] += 1;
        bloom[b] |= 1u8 << ((h >> 57) & 7);
    }
    for b in 1..offsets.len() {
        offsets[b] += offsets[b - 1];
    }
    let mut cursor = offsets[..dir].to_vec();
    let mut slots = vec![(0u64, u32::MAX); hashes.len()];
    for (row, &h) in hashes.iter().enumerate() {
        let b = (h & mask) as usize;
        slots[cursor[b] as usize] = (h, row as u32);
        cursor[b] += 1;
    }
    OldCsr { offsets, slots, bloom }
}

/// ns/row of the first call and of the best of the following ones, and
/// bytes allocated per row by one call.
fn time_build<T>(hashes: &[u64], build: impl Fn(&[u64]) -> T) -> (f64, f64, f64) {
    let per_row = |t: Duration| t.as_nanos() as f64 / hashes.len() as f64;
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    black_box(build(black_box(hashes)));
    let first = per_row(t0.elapsed());
    let bytes = (ALLOC_BYTES.load(Ordering::Relaxed) - bytes0) as f64 / hashes.len() as f64;
    let reps = (4_000_000 / hashes.len()).clamp(5, 200);
    let warm = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(build(black_box(hashes)));
            per_row(t0.elapsed())
        })
        .fold(f64::MAX, f64::min);
    (first, warm, bytes)
}

fn csr_build_sweep() {
    println!("bulk CSR build, ns/row (first call / warm) and allocated B/row:");
    for n in [8_000usize, 25_000, 50_000, 100_000, 200_000, 500_000, 1_000_000] {
        // Distinct seeds per size so no run finds the other's pages warm.
        let hashes: Vec<u64> = (0..n as u64).map(|i| hash_u64(i ^ (n as u64) << 32)).collect();
        let (of, ow, ob) = time_build(&hashes, old_build_csr);
        let (nf, nw, nb) = time_build(&hashes, |h| JoinTable::build(&[h]));
        // The same rows keyed by a permutation of `0..n` (7 919 is prime
        // and divides no size here): one row per direct bucket.
        let keys: Vec<i64> = (0..n as i64).map(|i| i * 7919 % n as i64).collect();
        let hi = n as i64 - 1;
        let (df, dw, db) = time_build(&hashes, |_| {
            let table = DirectBuild::new(n, 0, hi, 0);
            table.fill(&[&keys[..]], 0, 1);
            table.finish()
        });
        // Split by key range into two parts, one per thread, as the two
        // sinks of a DOP-2 build fill it.
        let (sf, sw, _) = time_build(&hashes, |_| {
            let table = DirectBuild::new(n, 0, hi, 0);
            std::thread::scope(|s| {
                s.spawn(|| table.fill(&[&keys[..]], 1, 2));
                table.fill(&[&keys[..]], 0, 2);
            });
            table.finish()
        });
        println!(
            "  {n:>9} rows: old {of:>5.1} / {ow:>5.1}  {ob:>5.1} B/row   \
             new {nf:>5.1} / {nw:>5.1}  {nb:>5.1} B/row   warm x{:.2}   \
             direct {df:>5.1} / {dw:>5.1}  {db:>5.1} B/row   split x2 {sf:>5.1} / {sw:>5.1}",
            ow / nw
        );
    }
}

/// Key hashing of 1 024-lane batches whose string key is coded over a
/// 3-entry dictionary, coded over a pack-sized arena (a raw block's
/// 16 384 rows, each batch a sixteenth of them), or flat: ns per lane,
/// best of five passes over the pack's 16 batches. Hashing per arena
/// entry would cost the pack arena 16 entries per lane.
fn arena_key_hash() {
    const PACK: usize = 16 * VECTOR;
    let rows: Vec<String> =
        (0..PACK).map(|i| format!("Customer#{i:09}-{:08x}", hash_u64(i as u64) as u32)).collect();
    let arena = Arc::new(StrArena::from_strs(rows.iter().map(String::as_str), false));
    let flags = Arc::new(StrArena::from_strs(["A", "N", "R"], true));
    let pack = |f: &dyn Fn(usize) -> Vector| (0..PACK / VECTOR).map(f).collect::<Vec<_>>();
    let cases = [
        (
            "3-entry dictionary",
            pack(&|_| {
                let codes = (0..VECTOR as u32).map(|i| i % 3).collect();
                Vector::from_dict(codes, flags.clone(), None)
            }),
        ),
        (
            "16 384-entry pack arena",
            pack(&|b| {
                let codes = (b * VECTOR..(b + 1) * VECTOR).map(|i| i as u32).collect();
                Vector::from_dict(codes, arena.clone(), None)
            }),
        ),
        (
            "flat strings",
            pack(&|b| Vector::new(ColData::Str(rows[b * VECTOR..(b + 1) * VECTOR].to_vec()))),
        ),
    ];
    println!("string key hashing, ns/lane ({PACK} lanes in {VECTOR}-lane batches, best of 5):");
    for (name, vecs) in &cases {
        let (mut lanes, mut out) = (Vec::new(), Vec::new());
        let best = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for v in vecs {
                    hashtable::hash_keys([v], VECTOR, false, &mut lanes, &mut out);
                    black_box(&out);
                }
                t0.elapsed().as_nanos() as f64 / PACK as f64
            })
            .fold(f64::MAX, f64::min);
        println!("  {name:<24} {best:>7.2}");
    }
}

/// Probe keys of which `pass_pct`% are keys of `build` and the rest miss
/// every build key.
fn filter_keys(build: &[i64], n_probe: usize, pass_pct: usize, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let miss = 4 * build.len() as i64;
    (0..n_probe)
        .map(|_| match rng.gen_range(0..100usize) < pass_pct {
            true => build[rng.gen_range(0..build.len())],
            false => miss + rng.gen_range(0..miss),
        })
        .collect()
}

/// One pass of the runtime filter's test over `chunks`, as a scan runs
/// it per batch (into one reused selection); returns the lanes
/// kept.
fn filter_pass(side: &FlatSide, chunks: &[Vec<Vector>], out: &mut SelVec) -> usize {
    let mut kept = 0;
    for chunk in chunks {
        let n = chunk[0].len();
        if side.table.is_direct() {
            let keys = chunk[0].data.as_i64();
            side.table.retain_direct(n, None, |p| keys[p], out);
        } else {
            // A flat BIGINT key hashes inline, as the scan's test does.
            let keys = chunk[0].data.as_i64();
            side.table.retain_bloom(n, None, |p| hash_u64(keys[p] as u64), out);
        }
        kept += out.len();
    }
    kept
}

/// The runtime join filter's test: ns per lane against a direct and a
/// hashed table of 65 536 build rows at 5 %, 50 % and 95 % of lanes
/// passing (best of five passes over 64 batches), and 0 allocations per
/// batch once warm. The share kept is exact on the direct table; the
/// bloom bytes add their false positives.
fn runtime_filter() {
    let n = 1 << 16;
    let build = build_keys(n, 1);
    println!("runtime filter test, ns/lane ({n}-row build, 64 x {VECTOR} lanes, best of 5):");
    for (layout, side) in [("direct", direct_build(&build)), ("hashed", flat_build(&build))] {
        for pct in [5usize, 50, 95] {
            let chunks = chunked(&filter_keys(&build, 64 * VECTOR, pct, 11));
            let mut out = SelVec::new();
            let kept = filter_pass(&side, &chunks, &mut out); // warm
            let before = ALLOCS.load(Ordering::Relaxed);
            assert_eq!(filter_pass(&side, &chunks, &mut out), kept);
            let allocated = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(allocated, 0, "{layout}: the steady-state filter test allocated");
            let best = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(filter_pass(&side, &chunks, &mut out));
                    t0.elapsed().as_nanos() as f64 / (64 * VECTOR) as f64
                })
                .fold(f64::MAX, f64::min);
            let share = 100.0 * kept as f64 / (64 * VECTOR) as f64;
            println!(
                "  {layout} pass {pct:>2}%: {best:>5.2} ns/lane, kept {share:>5.1}%, \
                 0 allocations over 64 batches"
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    steady_state_alloc_check();
    runtime_filter();
    resolution_rungs();
    arena_key_hash();
    csr_build_sweep();

    let mut g = c.benchmark_group("c12_hashtable");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));

    for &n in &[1usize << 12, 1 << 16, 1 << 20] {
        let build = build_keys(n, 1);
        g.bench_function(format!("build_map_{n}"), |b| {
            b.iter(|| black_box(map_build(&build)).len())
        });
        g.bench_function(format!("build_flat_{n}"), |b| {
            b.iter(|| black_box(flat_build(&build)).table.len())
        });
        g.bench_function(format!("build_direct_{n}"), |b| {
            b.iter(|| black_box(direct_build(&build)).table.len())
        });

        let map = map_build(&build);
        let flat = flat_build(&build);
        let direct = direct_build(&build);
        let mut s = Scratch::default();
        for &pct in &[95usize, 50, 5] {
            let probe = probe_keys(64 * VECTOR, 2 * n as i64, pct, 7);
            let chunks = chunked(&probe);
            let expect = map_probe(&map, &build, &probe);
            assert_eq!(flat_probe(&flat, &chunks, &mut s), expect, "probe results differ");
            assert_eq!(flat_probe(&direct, &chunks, &mut s), expect, "probe results differ");
            g.bench_function(format!("probe_map_{n}_match{pct}"), |b| {
                b.iter(|| black_box(map_probe(&map, &build, &probe)))
            });
            g.bench_function(format!("probe_flat_{n}_match{pct}"), |b| {
                b.iter(|| black_box(flat_probe(&flat, &chunks, &mut s)))
            });
            g.bench_function(format!("probe_direct_{n}_match{pct}"), |b| {
                b.iter(|| black_box(flat_probe(&direct, &chunks, &mut s)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
}

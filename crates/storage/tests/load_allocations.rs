//! Loading allocates per pack and column, not per row: statistics and the
//! pack writer read the column in place and box no value. A counting
//! allocator, switched on for the current thread only, holds it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vw_common::{ColData, Field, Schema, TypeId};
use vw_storage::{BufferPool, SimulatedDisk, TableStats, TableStorage};

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
fn statistics_and_pack_writing_allocate_per_pack_not_per_row() {
    const ROWS: usize = 200_000;
    const PACK: usize = 16 * 1024;
    let schema = Schema::new(vec![Field::nullable("s", TypeId::Str)]).unwrap();
    // Every value distinct: a dictionary entry per row if the encoder
    // copied its dictionary, and past the per-pack ratio, so the raw
    // string block is written.
    let unique = ColData::Str((0..ROWS).map(|i| format!("{i:09}#customer")).collect());
    // A dictionary-coded column whose strings share an 8-byte prefix.
    let flags = ColData::Str((0..ROWS).map(|i| format!("status__{}", i % 7)).collect());
    let nulls = vec![Some((0..ROWS).map(|i| i % 11 == 0).collect::<Vec<bool>>())];
    for column in [unique, flags] {
        let columns = [column];
        let (stats_allocs, stats) = allocations(|| TableStats::build(&columns, &nulls, 32));
        assert!(stats.columns[0].histogram.is_some());
        assert!(stats_allocs <= 8, "TableStats::build allocated {stats_allocs} times");

        let mut table =
            TableStorage::new(BufferPool::new(SimulatedDisk::instant(), 64 << 20), schema.clone());
        let (write_allocs, written) = allocations(|| table.append_columns(&columns, &nulls, PACK));
        written.unwrap();
        let packs = table.n_packs() as u64;
        assert_eq!(packs, ROWS.div_ceil(PACK) as u64);
        assert!(
            write_allocs <= 128 * packs,
            "append_columns allocated {write_allocs} times for {packs} packs"
        );
    }
}

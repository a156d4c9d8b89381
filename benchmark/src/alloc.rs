//! A counting global allocator. It forwards to the system allocator and
//! counts only while switched on — the traced pass switches it on around
//! each statement of its allocation rounds — so the untraced, gated
//! measurement pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// All of these are statistics: none publishes other data.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting; live bytes restart from zero, so the peak is the largest
/// amount any one counted section held above where it started.
pub fn on() {
    LIVE.store(0, Relaxed);
    ON.store(true, Relaxed);
}

pub fn off() {
    ON.store(false, Relaxed);
}

/// (allocations, bytes requested, peak live bytes) over every counted
/// section so far.
pub fn totals() -> (u64, u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed), PEAK.load(Relaxed).max(0) as u64)
}

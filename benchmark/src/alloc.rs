//! A counting `#[global_allocator]`.
//!
//! Disarmed — the state of every timed phase — it forwards to the system
//! allocator behind one relaxed load. Armed, in the separate untimed heap
//! passes, it counts calls and bytes and tracks the net live heap since
//! arming, so `peak` reads "bytes above what was resident when the pass
//! began".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough on every access.
static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The allocator installed by `main.rs`.
pub struct Counting;

fn grow(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            grow(new_size);
        }
        // SAFETY: `ptr` came from this allocator with this layout, and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one armed region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// Allocator calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: usize,
    /// Bytes those calls asked for.
    pub bytes: usize,
    /// Highest net live heap above the level at arming, in bytes.
    pub peak: usize,
}

/// Runs `f` with the counters armed and returns what it allocated, on every
/// thread of the process.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let used = HeapUse {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed).max(0) as usize,
    };
    (out, used)
}

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

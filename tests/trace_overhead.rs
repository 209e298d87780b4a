//! Tracing overhead gate: the span hot path must be allocation-free after
//! tracer construction, so enabling tracing never perturbs the serving
//! tier's steady-state allocation profile (and leaving it disabled costs
//! one `Option` check).
//!
//! This lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-global: sharing a binary with other
//! tests would let their allocations race the counters. Even alone, the
//! harness's main thread allocates its bookkeeping for the test it has just
//! spawned, and now and then does so inside a measured window, so only the
//! test thread's allocations are counted.

use easz::server::{TraceConfig, TraceStage, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) the counted thread routes
/// through the global allocator; frees are not tracked — the gate is "no
/// new allocations".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that runs the measured loops.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// One #[test] on purpose: the harness runs tests on concurrent threads,
// and a second test's bookkeeping would race the measured windows.
#[test]
fn span_capture_is_allocation_free_after_construction() {
    COUNTED.with(|c| c.set(true));
    // Ring, slow log and accumulators are all sized at construction; every
    // capture after this point reuses them.
    let tracer = Tracer::new(TraceConfig {
        capacity: 64,
        sample_every: 2,
        slow_threshold_us: 1, // every span is "slow": exercises the slow log too
        slow_capacity: 8,
    });

    // Warm one full cycle (lazy clock/TLS init happens here, not in the
    // measured window).
    let mut span = tracer.begin(0x01, 7);
    span.stamp(TraceStage::Admitted);
    tracer.finish(span, true);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let mut span = tracer.begin(0x01, i);
        for stage in TraceStage::ALL {
            span.stamp(stage);
        }
        tracer.finish(span, i % 3 != 0);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "span begin/stamp/finish allocated {} times in steady state",
        after - before
    );

    let (finished, kept, _slow) = tracer.counters();
    assert_eq!(finished, 10_001);
    // Every even id is a sampling hit (5 001 of ids 0..=10 000); sub-µs
    // spans may dodge the slow threshold, so only the sampling floor is
    // exact.
    assert!(kept >= 5_001, "sampling must keep every 2nd span, kept {kept}");

    // The tracing-off path: the server carries `None` where the tracer
    // would be, and the instrumented sites reduce to this check.
    let disabled: Option<Tracer> = None;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let span = disabled.as_ref().map(|t| t.begin(0x01, i));
        if let (Some(t), Some(span)) = (disabled.as_ref(), span) {
            t.finish(span, true);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "the tracing-off path must not allocate");
}

//! Thread-parallel matmul kernels.
//!
//! The Easz reconstruction model trains on CPU, so the matrix products that
//! dominate its forward/backward passes are split across a **persistent
//! worker pool** once they are large enough to amortise the dispatch cost.
//! Small products run single-threaded.
//!
//! The pool (the private `pool` module) replaces the per-call `std::thread::scope`
//! spawn/join this module used previously: at transformer-forward sizes the
//! spawn cost rivalled the arithmetic, to the point that a single thread
//! beat eight. Workers park on a condvar between jobs, so an idle pool
//! costs nothing. Work partitioning is row-block based and every output
//! element is accumulated by exactly one worker in the same `k` order as
//! the serial kernel, so results are bit-identical to serial execution for
//! any worker count.
//!
//! The worker count — the `EASZ_MATMUL_THREADS` cap and the core count —
//! is read **once per process**: the pool's size and every product's row
//! chunking come from the same cached value. `available_parallelism`
//! re-reads cgroup files on each call: ≈ 20 µs on a 2-vCPU Xeon VM, or
//! ≈ 0.6 ms across the 34 products of a one-patch forward when it ran per
//! product.

use std::sync::OnceLock;

/// Work threshold (in multiply-accumulate ops) below which a product stays
/// single-threaded.
const PAR_THRESHOLD: usize = 1 << 17;

/// Default cap on matmul worker threads; override with the
/// `EASZ_MATMUL_THREADS` environment variable.
const DEFAULT_WORKER_CAP: usize = 8;

/// Threads a parallel product runs on (the pool's workers plus the
/// dispatcher): the available cores, capped by `EASZ_MATMUL_THREADS`.
fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let cap = std::env::var("EASZ_MATMUL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_WORKER_CAP);
        std::thread::available_parallelism().map(|n| n.get().min(cap)).unwrap_or(1)
    })
}

/// `C[m,n] = A[m,k] * B[k,n]`, parallelised across row blocks of `A`/`C`.
pub fn par_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let workers = worker_count();
    if m * n * k < PAR_THRESHOLD || workers <= 1 || m < 2 {
        matmul_rows(a, b, c, m, k, n);
        return;
    }
    let chunk = m.div_ceil(workers);
    let n_chunks = m.div_ceil(chunk);
    let c_base = SendPtr(c.as_mut_ptr());
    pool::run(n_chunks, &move |ci| {
        let c_base = c_base; // capture the Sync wrapper, not the raw field
        let row0 = ci * chunk;
        let rows = chunk.min(m - row0);
        // Safety: chunks index disjoint row ranges of `c`, and `pool::run`
        // does not return until every task has finished.
        let c_block = unsafe { std::slice::from_raw_parts_mut(c_base.0.add(row0 * n), rows * n) };
        matmul_rows(&a[row0 * k..(row0 + rows) * k], b, c_block, rows, k, n);
    });
}

/// Int8 twin of [`par_matmul`]: `C[m,n] = dequant(QA[m,k_pad] · QW)`,
/// parallelised across row blocks of `QA`/`C`.
///
/// Each output row is produced by exactly one worker from exact i32
/// accumulation, so the result is bit-identical for any worker count and
/// any row partition — the quantized tier keeps the determinism contract
/// of the f32 kernels.
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature; a struct would obscure the hot path
pub fn par_qmatmul(
    qa: &[i16],
    a_scales: &[f32],
    packed: &[i16],
    w_scales: &[f32],
    c: &mut [f32],
    m: usize,
    k_pad: usize,
    n: usize,
) {
    debug_assert_eq!(qa.len(), m * k_pad);
    debug_assert_eq!(a_scales.len(), m);
    debug_assert_eq!(packed.len(), k_pad * n);
    debug_assert_eq!(c.len(), m * n);
    let workers = worker_count();
    if m * n * k_pad < PAR_THRESHOLD || workers <= 1 || m < 2 {
        crate::kernels::qmatmul_rows(qa, a_scales, packed, w_scales, c, k_pad, n);
        return;
    }
    let chunk = m.div_ceil(workers);
    let n_chunks = m.div_ceil(chunk);
    let c_base = SendPtr(c.as_mut_ptr());
    pool::run(n_chunks, &move |ci| {
        let c_base = c_base; // capture the Sync wrapper, not the raw field
        let row0 = ci * chunk;
        let rows = chunk.min(m - row0);
        // Safety: chunks index disjoint row ranges of `c`, and `pool::run`
        // does not return until every task has finished.
        let c_block = unsafe { std::slice::from_raw_parts_mut(c_base.0.add(row0 * n), rows * n) };
        crate::kernels::qmatmul_rows(
            &qa[row0 * k_pad..(row0 + rows) * k_pad],
            &a_scales[row0..row0 + rows],
            packed,
            w_scales,
            c_block,
            k_pad,
            n,
        );
    });
}

/// Runs `f(0..n_tasks)` across the persistent worker pool, blocking until
/// every task has completed — the general-purpose face of the pool the
/// matmul kernels dispatch through. Data-parallel training shards batches
/// over it so the backward pass shares the same threads as the forward
/// kernels instead of spawning its own.
///
/// Scheduling notes, none of which may affect results (callers must keep
/// tasks independent and deterministic per index):
///
/// - Which thread runs which task is unspecified; tasks may all run on the
///   calling thread (pool busy, single-core host, or `n_tasks == 1`).
/// - A single task runs inline *without* claiming the pool's dispatch slot,
///   so nested `par_matmul` calls inside it keep their own parallelism.
/// - With multiple tasks the dispatch slot is held for the duration, so
///   nested pool calls (e.g. a large matmul inside a task) fall back to
///   inline execution — bit-identical either way.
///
/// # Panics
///
/// Propagates a panic if any task panics (the pool itself stays usable).
pub fn run_tasks(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks <= 1 {
        if n_tasks == 1 {
            f(0);
        }
        return;
    }
    pool::run(n_tasks, f);
}

/// Raw mutable base pointer that may cross thread boundaries; the row-block
/// partition guarantees disjoint access.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: the pointer is only dereferenced inside `pool::run` tasks, each on
// its own disjoint row block of the output, and `run` returns only after
// every task has finished, so the borrowed buffer outlives every access.
unsafe impl Send for SendPtr {}
// SAFETY: as for `Send`: shared copies are only used to form disjoint
// mutable row slices, never to alias one element.
unsafe impl Sync for SendPtr {}

/// Output-column block width of the register-tiled kernel: 16 lanes are two
/// AVX2 accumulators per row, so a [`ROW_TILE`]-row tile holds 8 of
/// x86-64's 16 vector registers. (The baseline SSE2 build needs all 16 for
/// the tile and spills; it runs only on CPUs without AVX2.)
const COL_BLOCK: usize = 16;

/// Sequential kernel over a row range of the output: dispatches to an AVX2
/// compilation of the register-tiled loop when the CPU has it, else the
/// baseline build. Same source body either way — and since each output
/// element is an independent scalar chain (ascending-`k` mul-then-add from
/// `0.0`, never fused), vector width cannot change results: every ISA
/// produces the same bits.
fn matmul_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // Safety: the `avx2` feature was just verified at runtime.
        unsafe { matmul_rows_avx2(a, b, c, rows, k, n) };
        return;
    }
    matmul_rows_generic(a, b, c, rows, k, n);
}

/// The register-tiled body recompiled with AVX2 enabled (the `inline`
/// generic body vectorizes to 256-bit lanes here). No FMA: fused rounding
/// would diverge from machines without it, separate mul+add is exactly
/// rounded everywhere.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    matmul_rows_generic(a, b, c, rows, k, n);
}

/// Output rows the register-tiled kernel accumulates together. One load
/// of a `b` block at each `k` step then feeds every row of the tile, and
/// the tile's `2 · ROW_TILE` vector accumulators are independent add
/// chains, where a lone row's two chains leave the adder waiting on its
/// own latency.
const ROW_TILE: usize = 4;

/// Register-tiled `ikj` kernel over `rows` output rows: each
/// [`ROW_TILE`] × [`COL_BLOCK`] tile of the output accumulates in locals
/// across the whole `k` loop; rows past the last full tile run one at a
/// time.
///
/// Every output element still starts at `0.0` and accumulates `a[i,k] *
/// b[k,j]` in ascending-`k` order, one multiply and one add at a time, so
/// results are bit-identical to the untiled kernel (the tests keep the
/// plain triple loop as the reference). No zero-skip on `av`: dense
/// activations almost never contain exact zeros and the branch pessimizes
/// the inner loop (measured; the `tensor.parallel.matmul_*_gflops` rows of
/// `benchmark/` re-check it).
#[inline(always)]
fn matmul_rows_generic(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let tiled = rows - rows % ROW_TILE;
    for r0 in (0..tiled).step_by(ROW_TILE) {
        let (a, c) = (&a[r0 * k..(r0 + ROW_TILE) * k], &mut c[r0 * n..(r0 + ROW_TILE) * n]);
        matmul_tile::<ROW_TILE>(a, b, c, k, n);
    }
    for r in tiled..rows {
        matmul_tile::<1>(&a[r * k..(r + 1) * k], b, &mut c[r * n..(r + 1) * n], k, n);
    }
}

/// `C[R, n] = A[R, k] · B[k, n]` for one tile of `R` rows (`k > 0`).
#[inline(always)]
fn matmul_tile<const R: usize>(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let arows = crate::kernels::rows_of::<R>(a, k);
    let mut j0 = 0usize;
    // Full blocks: fixed-size accumulators so the tile stays in registers
    // across the whole k loop.
    while j0 + COL_BLOCK <= n {
        let mut acc = [[0.0f32; COL_BLOCK]; R];
        for kk in 0..k {
            let brow: &[f32; COL_BLOCK] =
                b[kk * n + j0..kk * n + j0 + COL_BLOCK].try_into().expect("block width");
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[kk];
                for (cv, &bv) in accr.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        for (crow, accr) in c.chunks_exact_mut(n).zip(&acc) {
            crow[j0..j0 + COL_BLOCK].copy_from_slice(accr);
        }
        j0 += COL_BLOCK;
    }
    // Remainder columns (n not a multiple of the block width).
    if j0 < n {
        let jb = n - j0;
        let mut acc = [[0.0f32; COL_BLOCK]; R];
        for kk in 0..k {
            let brow = &b[kk * n + j0..kk * n + n];
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[kk];
                for (cv, &bv) in accr[..jb].iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        for (crow, accr) in c.chunks_exact_mut(n).zip(&acc) {
            crow[j0..].copy_from_slice(&accr[..jb]);
        }
    }
}

/// Batched `C[g,m,n] = A[g,m,k] * B[g,k,n]`, parallelised across the batch.
pub fn par_batch_matmul(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    g: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), g * m * k);
    debug_assert_eq!(b.len(), g * k * n);
    debug_assert_eq!(c.len(), g * m * n);
    let workers = worker_count();
    if g * m * n * k < PAR_THRESHOLD || workers <= 1 || g < 2 {
        for bi in 0..g {
            matmul_rows(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut c[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
        return;
    }
    let per = g.div_ceil(workers);
    let n_chunks = g.div_ceil(per);
    let c_base = SendPtr(c.as_mut_ptr());
    pool::run(n_chunks, &move |ci| {
        let c_base = c_base; // capture the Sync wrapper, not the raw field
        let g0 = ci * per;
        let batches = per.min(g - g0);
        for bi in 0..batches {
            // Safety: disjoint `c` slices per batch index; `pool::run`
            // blocks until all tasks finish.
            let c_block =
                unsafe { std::slice::from_raw_parts_mut(c_base.0.add((g0 + bi) * m * n), m * n) };
            matmul_rows(
                &a[(g0 + bi) * m * k..(g0 + bi + 1) * m * k],
                &b[(g0 + bi) * k * n..(g0 + bi + 1) * k * n],
                c_block,
                m,
                k,
                n,
            );
        }
    });
}

/// The persistent matmul worker pool.
///
/// `run(n_tasks, f)` executes `f(0..n_tasks)` across `worker_count() - 1`
/// long-lived worker threads plus the calling thread, and returns only when
/// every task has completed — the same blocking contract as the
/// `std::thread::scope` it replaces, without the per-call thread spawns.
/// When another thread is already dispatching (concurrent decodes on a
/// shared server), the caller simply runs its tasks inline: under real
/// concurrency, per-call parallelism has nothing left to win.
mod pool {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock, TryLockError};

    /// Type-erased task closure (`fn(task_index)`), valid for the duration
    /// of one `run` call.
    #[derive(Clone, Copy)]
    struct Job {
        f: *const (dyn Fn(usize) + Sync),
        n_tasks: usize,
    }
    // SAFETY: the closure behind `f` is `Sync`, and a worker only
    // dereferences it between adopting the job and decrementing `active`;
    // the dispatcher waits for `active == 0` and clears the slot (even when
    // unwinding, via `JobGuard`) before the closure's borrow ends.
    unsafe impl Send for Job {}

    #[derive(Default)]
    struct Slot {
        generation: u64,
        job: Option<Job>,
    }

    struct Shared {
        slot: Mutex<Slot>,
        wake: Condvar,
        /// Next unclaimed task index of the current job.
        next: AtomicUsize,
        /// Completed tasks of the current job (panicked tasks count too, so
        /// the dispatcher can never wedge waiting on a dead task).
        done: AtomicUsize,
        /// Workers currently holding a reference to the current job.
        active: AtomicUsize,
        /// Set when any task of the current job panicked.
        poisoned: AtomicBool,
    }

    struct Pool {
        shared: &'static Shared,
        /// Serialises dispatchers; contenders fall back to inline execution.
        dispatch: Mutex<()>,
    }

    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let shared: &'static Shared = Box::leak(Box::new(Shared {
                slot: Mutex::new(Slot::default()),
                wake: Condvar::new(),
                next: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                poisoned: AtomicBool::new(false),
            }));
            // The dispatcher participates too, so spawn cap - 1 workers.
            for i in 0..super::worker_count().saturating_sub(1) {
                let _ = std::thread::Builder::new()
                    .name(format!("easz-matmul-{i}"))
                    .spawn(move || worker_loop(shared));
            }
            Pool { shared, dispatch: Mutex::new(()) }
        })
    }

    fn worker_loop(shared: &'static Shared) {
        let mut seen = 0u64;
        loop {
            // Park until a job with a new generation is installed. `active`
            // is incremented under the slot lock, so a dispatcher that has
            // observed `active == 0` knows no worker still holds the
            // previous job pointer.
            let job = {
                let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if slot.generation != seen {
                        if let Some(job) = slot.job {
                            seen = slot.generation;
                            shared.active.fetch_add(1, Ordering::AcqRel);
                            break job;
                        }
                    }
                    slot = shared.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            // Safety: the dispatcher blocks in `run` until `done == n_tasks`
            // and quiesces on `active == 0` before installing the next job
            // (even when unwinding, via `JobGuard`), so `job.f` outlives
            // every dereference here.
            let f = unsafe { &*job.f };
            loop {
                let i = shared.next.fetch_add(1, Ordering::Relaxed);
                if i >= job.n_tasks {
                    break;
                }
                // Catch task panics so a failed task can neither kill the
                // worker (wedging every later `run`) nor leave `done` short
                // (wedging the current one); the dispatcher re-raises.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).is_err() {
                    shared.poisoned.store(true, Ordering::Release);
                }
                shared.done.fetch_add(1, Ordering::Release);
            }
            shared.active.fetch_sub(1, Ordering::Release);
        }
    }

    /// Cleans up the current job even if the dispatcher unwinds: stops new
    /// claims, waits for in-flight workers (whose tasks borrow the
    /// dispatcher's stack) to finish, and clears the job slot so no parked
    /// worker can later adopt a dangling closure pointer.
    struct JobGuard {
        shared: &'static Shared,
    }

    impl Drop for JobGuard {
        fn drop(&mut self) {
            self.shared.next.store(usize::MAX / 2, Ordering::Relaxed);
            let mut spins = 0u32;
            while self.shared.active.load(Ordering::Acquire) != 0 {
                backoff(&mut spins);
            }
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.job = None;
        }
    }

    /// Runs `f(0..n_tasks)`, blocking until all tasks complete.
    pub(super) fn run(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        let pool = global();
        // One dispatcher at a time; concurrent callers execute inline. The
        // mutex guards no data, so a dispatcher that unwound out of a
        // panicking job leaves nothing to repair: a poisoned lock is
        // acquired like a clean one, or one panic would serialise every
        // later job of the process.
        let _dispatch = match pool.dispatch.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                for i in 0..n_tasks {
                    f(i);
                }
                return;
            }
        };
        let shared = pool.shared;
        // Quiesce: no worker may still reference the previous job when the
        // claim counters reset.
        let mut spins = 0u32;
        while shared.active.load(Ordering::Acquire) != 0 {
            backoff(&mut spins);
        }
        // Safety: `run` does not return until `done == n_tasks`, so
        // extending the closure lifetime for the pool is sound.
        let f_static: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        };
        {
            let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            shared.next.store(0, Ordering::Relaxed);
            shared.done.store(0, Ordering::Relaxed);
            shared.poisoned.store(false, Ordering::Relaxed);
            slot.generation = slot.generation.wrapping_add(1);
            slot.job = Some(Job { f: f_static, n_tasks });
        }
        let guard = JobGuard { shared };
        shared.wake.notify_all();
        // The dispatcher claims tasks alongside the workers. A panic out of
        // its own `f(i)` unwinds through `guard`, which blocks until every
        // worker is out of the job before the borrowed closure dies.
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            f(i);
            shared.done.fetch_add(1, Ordering::Release);
        }
        // Tasks are sub-millisecond; spin (with escalating yields) rather
        // than paying a condvar round-trip on every job.
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) != n_tasks {
            backoff(&mut spins);
        }
        drop(guard);
        assert!(
            !shared.poisoned.load(Ordering::Acquire),
            "a matmul pool task panicked; see worker thread output"
        );
    }

    fn backoff(spins: &mut u32) {
        *spins += 1;
        if *spins > 64 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// The contract every product keeps: each output element is `0.0` plus
    /// the `a[i,k] * b[k,j]` products in ascending `k`, one multiply and
    /// one add at a time.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    /// Non-integral values in `[-1, 1)`, so that any change of summation
    /// order shows in the low bits.
    fn values(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_matches_naive_large() {
        // (96, 64, 96) and the ragged shapes after it take the pool; the
        // last three stay under `PAR_THRESHOLD` and run inline.
        for (case, (m, k, n)) in [
            (96usize, 64usize, 96usize),
            (97, 64, 95),
            (48, 64, 64),
            (33, 129, 65),
            (7, 17, 15),
            (1, 64, 48),
            (2, 5, 1),
        ]
        .into_iter()
        .enumerate()
        {
            let a = values(m * k, 2 * case as u32 + 1);
            let b = values(k * n, 2 * case as u32 + 2);
            let mut c = vec![0.0f32; m * n];
            par_matmul(&a, &b, &mut c, m, k, n);
            assert_eq!(bits(&c), bits(&naive(&a, &b, m, k, n)), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn both_matmul_bodies_match_naive_on_ragged_tiles() {
        // Row counts around the 4-row tile, column counts around the
        // 16-wide block, and `k = 0`; `naive` is the untiled reference.
        let mut case = 0u32;
        for rows in 1..=9 {
            for n in [1usize, 7, 15, 16, 17, 33, 48, 65] {
                for k in [0usize, 1, 7, 64] {
                    case += 1;
                    let a = values(rows * k, 2 * case + 1001);
                    let b = values(k * n, 2 * case + 1002);
                    let want = bits(&naive(&a, &b, rows, k, n));
                    let mut c = vec![f32::NAN; rows * n];
                    matmul_rows(&a, &b, &mut c, rows, k, n);
                    assert_eq!(bits(&c), want, "dispatched: rows={rows} k={k} n={n}");
                    c.fill(f32::NAN);
                    matmul_rows_generic(&a, &b, &mut c, rows, k, n);
                    assert_eq!(bits(&c), want, "generic: rows={rows} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn run_tasks_covers_every_index_exactly_once() {
        for n in [0usize, 1, 2, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every task index must run exactly once for n={n}"
            );
        }
    }

    #[test]
    fn parallel_batch_matches_naive() {
        // The first three take the pool; the last three run inline.
        for (case, (g, m, k, n)) in [
            (16usize, 24usize, 16usize, 24usize),
            (17, 13, 33, 19),
            (3, 48, 24, 48),
            (5, 7, 9, 17),
            (2, 1, 64, 1),
            (1, 9, 8, 65),
        ]
        .into_iter()
        .enumerate()
        {
            let a = values(g * m * k, 2 * case as u32 + 101);
            let b = values(g * k * n, 2 * case as u32 + 102);
            let mut c = vec![0.0f32; g * m * n];
            par_batch_matmul(&a, &b, &mut c, g, m, k, n);
            for bi in 0..g {
                let (ab, bb) = (&a[bi * m * k..(bi + 1) * m * k], &b[bi * k * n..(bi + 1) * k * n]);
                assert_eq!(
                    bits(&c[bi * m * n..(bi + 1) * m * n]),
                    bits(&naive(ab, bb, m, k, n)),
                    "g={g} m={m} k={k} n={n} batch {bi}"
                );
            }
        }
    }

    /// Whether the two tasks of one `run_tasks(2, ..)` ran at the same
    /// time: each spins up to 300 ms for the other to arrive.
    fn two_tasks_overlap() -> bool {
        let arrived = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        run_tasks(2, &|_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let start = Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 && start.elapsed() < Duration::from_millis(300)
            {
                std::hint::spin_loop();
            }
            if arrived.load(Ordering::SeqCst) == 2 {
                met.fetch_add(1, Ordering::SeqCst);
            }
        });
        met.load(Ordering::SeqCst) == 2
    }

    #[test]
    fn a_panicking_task_leaves_the_pool_parallel() {
        if worker_count() < 2 {
            return; // one thread: there is no parallelism to lose
        }
        // Another test of this binary may hold the dispatch slot for a
        // moment (its tasks then run inline), so allow a few attempts.
        let overlaps = || (0..10).any(|_| two_tasks_overlap());
        assert!(overlaps(), "two pool tasks never ran at the same time");
        let caught = std::panic::catch_unwind(|| {
            run_tasks(2, &|i| assert!(i != 1, "injected task panic"));
        });
        assert!(caught.is_err(), "a task panic must reach the caller");
        assert!(overlaps(), "after one task panicked, the pool ran every later job inline");
    }
}

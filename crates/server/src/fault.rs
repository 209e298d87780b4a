//! Deterministic fault injection for the serving stack.
//!
//! Production traffic delivers partial writes, EINTR storms, aborted
//! accepts, stalled decodes and poisoned payloads — but never on demand.
//! This module makes those faults *schedulable*: a seeded `FaultPlan`
//! installs a process-global `FaultInjector` whose decisions are a pure
//! function of the seed, so a chaos run that fails reproduces exactly from
//! its seed. Injection points are threaded through the reactor syscall
//! shim (spurious `epoll_wait` wakeups, aborted accepts, short reads and
//! writes), the protocol read/write paths (torn frame writes, simulated
//! EINTR), and the decode gateway (delayed decodes, refused submissions,
//! forced worker panics).
//!
//! The hooks compile to inlined `false`/`None` constants outside test
//! builds unless the non-default `fault-injection` cargo feature is on —
//! release binaries and benchmarks carry zero overhead.
//!
//! Only one plan can be active per process: `install` holds a
//! serialization lock for the guard's lifetime, so concurrently running
//! tests that inject faults queue behind each other instead of
//! cross-contaminating.

/// Message carried by every injected decode panic. The isolation
/// boundaries report it back inside the `INTERNAL` error, and the panic
/// hook `install`ed with a plan suppresses the default stderr backtrace
/// for exactly this message (real panics still print).
pub const INJECTED_PANIC: &str = "injected decode panic";

#[cfg(any(test, feature = "fault-injection"))]
mod active {
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    /// A seeded schedule of faults. Every `*_permille` field is the
    /// per-call probability (out of 1000) that the matching hook fires;
    /// the `*_oneshot` counters force the next N calls deterministically
    /// (consumed before any probability roll).
    #[derive(Debug, Clone, Default)]
    pub struct FaultPlan {
        /// Seed for the injector's xorshift stream; equal seeds and equal
        /// call sequences make identical decisions.
        pub seed: u64,
        /// Simulated transport EINTR before a blocking frame read.
        pub read_interrupt_permille: u16,
        /// Tear a frame write into two flushed chunks (short write).
        pub write_split_permille: u16,
        /// Fail an accept attempt as if the peer aborted the handshake.
        pub accept_abort_permille: u16,
        /// Return a spurious zero-event wakeup from `epoll_wait`.
        pub epoll_spurious_permille: u16,
        /// Clamp a reactor read to a single byte (short read).
        pub short_read_permille: u16,
        /// Stall a gateway decode by [`decode_delay_us`](Self::decode_delay_us).
        pub decode_delay_permille: u16,
        /// Microseconds each injected decode stall sleeps.
        pub decode_delay_us: u64,
        /// Panic inside the decode worker for this job.
        pub decode_panic_permille: u16,
        /// Refuse a gateway submission as if the queue were saturated.
        pub submit_refuse_permille: u16,
        /// Force the next N decodes to panic (before any roll).
        pub decode_panic_oneshot: u32,
        /// Force the next N decodes to stall (before any roll).
        pub decode_delay_oneshot: u32,
    }

    /// How many times each hook actually fired under the active plan —
    /// chaos tests assert on these so a schedule that injected nothing
    /// cannot pass vacuously.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultCounters {
        /// Simulated EINTRs taken by `protocol::read_frame`.
        pub read_interrupts: u64,
        /// Frame writes torn in two: by `protocol::write_flushed` (under
        /// `protocol::write_frame` and the threaded front end's replies)
        /// and by the reactor's write pump.
        pub write_splits: u64,
        /// Accept attempts failed in the reactor accept loop.
        pub accept_aborts: u64,
        /// Spurious zero-event wakeups returned by the epoll shim.
        pub epoll_spurious: u64,
        /// Reactor reads clamped to one byte.
        pub short_reads: u64,
        /// Decodes stalled by an injected delay.
        pub decode_delays: u64,
        /// Decodes panicked on purpose.
        pub decode_panics: u64,
        /// Gateway submissions refused as if the queue were full.
        pub submit_refusals: u64,
    }

    /// The installed plan plus its RNG stream and firing counters.
    #[derive(Debug)]
    pub struct FaultInjector {
        plan: FaultPlan,
        state: u64,
        counters: FaultCounters,
    }

    impl FaultInjector {
        fn new(plan: FaultPlan) -> Self {
            // Split-mix the seed into a never-zero xorshift state, the
            // same construction `tests/parse_fuzz.rs` uses.
            let state =
                plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x0123_4567_89AB_CDEF)
                    | 1;
            Self { plan, state, counters: FaultCounters::default() }
        }

        fn next(&mut self) -> u64 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.state
        }

        fn roll(&mut self, permille: u16) -> bool {
            permille > 0 && self.next() % 1000 < u64::from(permille)
        }
    }

    static ACTIVE: Mutex<Option<FaultInjector>> = Mutex::new(None);
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Uninstalls the plan (and releases the cross-test serialization
    /// lock) when dropped.
    #[must_use = "dropping the guard uninstalls the fault plan"]
    pub struct FaultGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }

    /// Installs `plan` process-wide until the returned guard drops.
    ///
    /// Blocks while another guard is alive: fault-injecting tests
    /// serialize instead of observing each other's faults. Also installs
    /// (once per process) a panic hook that silences the default stderr
    /// report for [`INJECTED_PANIC`](super::INJECTED_PANIC) panics —
    /// they are caught on purpose and would otherwise flood test output —
    /// while forwarding every other panic to the previous hook.
    pub fn install(plan: FaultPlan) -> FaultGuard {
        static HOOK: OnceLock<()> = OnceLock::new();
        HOOK.get_or_init(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(super::INJECTED_PANIC))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|s| s.contains(super::INJECTED_PANIC));
                if !injected {
                    previous(info);
                }
            }));
        });
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = Some(FaultInjector::new(plan));
        FaultGuard { _serial: serial }
    }

    /// Snapshot of the active plan's firing counters (all zero when no
    /// plan is installed).
    pub fn counters() -> FaultCounters {
        ACTIVE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|i| i.counters)
            .unwrap_or_default()
    }

    fn with<R>(default: R, f: impl FnOnce(&mut FaultInjector) -> R) -> R {
        let mut guard = ACTIVE.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_mut() {
            Some(injector) => f(injector),
            None => default,
        }
    }

    /// Hook: should this blocking frame read take a simulated-EINTR retry?
    pub fn read_interrupted() -> bool {
        with(false, |i| {
            let p = i.plan.read_interrupt_permille;
            i.roll(p) && {
                i.counters.read_interrupts += 1;
                true
            }
        })
    }

    /// Hook: tear a `len`-byte frame write at the returned offset
    /// (`None` = write it whole). Never fires for writes under 2 bytes.
    pub fn write_split(len: usize) -> Option<usize> {
        if len < 2 {
            return None;
        }
        with(None, |i| {
            let p = i.plan.write_split_permille;
            if i.roll(p) {
                i.counters.write_splits += 1;
                Some(1 + (i.next() as usize) % (len - 1))
            } else {
                None
            }
        })
    }

    /// Hook: should this accept attempt fail as an aborted handshake?
    pub fn accept_abort() -> bool {
        with(false, |i| {
            let p = i.plan.accept_abort_permille;
            i.roll(p) && {
                i.counters.accept_aborts += 1;
                true
            }
        })
    }

    /// Hook: should this `epoll_wait` return a spurious zero-event wake?
    pub fn epoll_spurious() -> bool {
        with(false, |i| {
            let p = i.plan.epoll_spurious_permille;
            i.roll(p) && {
                i.counters.epoll_spurious += 1;
                true
            }
        })
    }

    /// Hook: should this reactor read be clamped to a single byte?
    pub fn short_read() -> bool {
        with(false, |i| {
            let p = i.plan.short_read_permille;
            i.roll(p) && {
                i.counters.short_reads += 1;
                true
            }
        })
    }

    /// Hook: how long should this decode stall before starting (`None` =
    /// no stall)?
    pub fn decode_delay() -> Option<Duration> {
        with(None, |i| {
            let forced = i.plan.decode_delay_oneshot > 0;
            if forced {
                i.plan.decode_delay_oneshot -= 1;
            }
            let p = i.plan.decode_delay_permille;
            if forced || i.roll(p) {
                i.counters.decode_delays += 1;
                Some(Duration::from_micros(i.plan.decode_delay_us))
            } else {
                None
            }
        })
    }

    /// Hook: should this decode panic inside its isolation boundary?
    pub fn decode_panic() -> bool {
        with(false, |i| {
            let forced = i.plan.decode_panic_oneshot > 0;
            if forced {
                i.plan.decode_panic_oneshot -= 1;
            }
            let p = i.plan.decode_panic_permille;
            (forced || i.roll(p)) && {
                i.counters.decode_panics += 1;
                true
            }
        })
    }

    /// Hook: should this gateway submission be refused as queue-full?
    pub fn submit_refuse() -> bool {
        with(false, |i| {
            let p = i.plan.submit_refuse_permille;
            i.roll(p) && {
                i.counters.submit_refusals += 1;
                true
            }
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn hooks_are_inert_without_an_installed_plan() {
            assert!(!read_interrupted());
            assert!(write_split(1024).is_none());
            assert!(!accept_abort() && !epoll_spurious() && !short_read());
            assert!(decode_delay().is_none());
            assert!(!decode_panic() && !submit_refuse());
            assert_eq!(counters(), FaultCounters::default());
        }

        #[test]
        fn decisions_are_a_pure_function_of_the_seed() {
            let plan = FaultPlan {
                seed: 42,
                write_split_permille: 500,
                decode_panic_permille: 250,
                ..FaultPlan::default()
            };
            let run = |plan: FaultPlan| {
                let _guard = install(plan);
                let splits: Vec<Option<usize>> = (0..64).map(|_| write_split(100)).collect();
                let panics: Vec<bool> = (0..64).map(|_| decode_panic()).collect();
                (splits, panics, counters())
            };
            let a = run(plan.clone());
            let b = run(plan.clone());
            assert_eq!(a, b, "same seed, same call sequence, same decisions");
            let c = run(FaultPlan { seed: 43, ..plan });
            assert_ne!(a.0, c.0, "a different seed diverges");
            assert!(a.2.write_splits > 0 && a.2.decode_panics > 0, "plan must actually fire");
        }

        #[test]
        fn oneshots_fire_exactly_n_times_then_fall_back_to_the_roll() {
            let _guard = install(FaultPlan {
                decode_panic_oneshot: 2,
                decode_delay_oneshot: 1,
                decode_delay_us: 7,
                ..FaultPlan::default()
            });
            assert!(decode_panic() && decode_panic());
            assert!(!decode_panic(), "oneshot exhausted, permille is 0");
            assert_eq!(decode_delay(), Some(Duration::from_micros(7)));
            assert!(decode_delay().is_none());
            let c = counters();
            assert_eq!((c.decode_panics, c.decode_delays), (2, 1));
        }

        #[test]
        fn guard_drop_uninstalls() {
            {
                let _guard =
                    install(FaultPlan { submit_refuse_permille: 1000, ..FaultPlan::default() });
                assert!(submit_refuse());
            }
            assert!(!submit_refuse(), "plan must not outlive its guard");
        }

        #[test]
        fn write_split_always_leaves_both_chunks_nonempty() {
            let _guard = install(FaultPlan { write_split_permille: 1000, ..FaultPlan::default() });
            for len in 2..64 {
                let at = write_split(len).expect("permille 1000 always fires");
                assert!(at > 0 && at < len, "split {at} of {len}");
            }
            assert!(write_split(1).is_none(), "1-byte payloads cannot tear");
            assert!(write_split(0).is_none());
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use active::*;

/// Inert hook stubs: with the `fault-injection` feature off (and outside
/// this crate's own test builds) every decision is a constant the
/// optimizer deletes, so the default build pays nothing for the hooks.
#[cfg(not(any(test, feature = "fault-injection")))]
mod inert {
    use std::time::Duration;

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn read_interrupted() -> bool {
        false
    }

    /// Always `None` in default builds.
    #[inline(always)]
    pub fn write_split(_len: usize) -> Option<usize> {
        None
    }

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn accept_abort() -> bool {
        false
    }

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn epoll_spurious() -> bool {
        false
    }

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn short_read() -> bool {
        false
    }

    /// Always `None` in default builds.
    #[inline(always)]
    pub fn decode_delay() -> Option<Duration> {
        None
    }

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn decode_panic() -> bool {
        false
    }

    /// Always `false` in default builds.
    #[inline(always)]
    pub fn submit_refuse() -> bool {
        false
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
pub use inert::*;

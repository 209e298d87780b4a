//! What the four workloads share: the closed loop, the host-speed reading,
//! and turning a phase's samples into the timing metrics.

use crate::report::Report;
use crate::stats::{self, Sample, WINDOWS};
use std::time::Instant;

/// What `--workload … --seed … --seconds … --trace …` asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// When the process started: `setup_s` counts from here to warm-up.
    pub started: Instant,
    /// Seed of every timed input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Whether this is the traced pass (per-layer metrics) or the measured
    /// one (end-to-end metrics).
    pub traced: bool,
}

impl RunArgs {
    /// Length of each phase of a traced run: the traced pass replays the
    /// first quarter of the inputs, after an untraced quarter that gives
    /// the tracing overhead its base.
    pub fn quarter_s(&self) -> f64 {
        self.seconds as f64 / 4.0
    }

    /// `setup_s`, asked for when set-up is done and warm-up is about to
    /// start: wall time since the process started.
    pub fn setup_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Iterations of the host-speed loop.
const SPIN_ITERATIONS: u32 = 400_000;

/// The host-speed reading that "reference host speed" means: what
/// [`host_spin_ms`] reads on the development box at its best. Any constant
/// would do — it only fixes the unit every scaled timing is stated in, and a
/// ratio between two commits does not contain it.
pub const SPIN_REFERENCE_MS: f64 = 0.58;

/// A generator thread times the host-speed loop this often during a phase
/// (≈ 1.5 % of one core).
const SPIN_EVERY_S: f64 = 0.04;

/// The host-speed loop: a fixed scalar dependency chain that touches no
/// memory, timed. The program under test never runs it; it tells a slow host
/// from a slow program. Returns milliseconds.
///
/// The reference box does not run at one speed: timed once a second for four
/// minutes the loop read anything from 1× to 2.1× its best, in stretches of
/// seconds to minutes (see the README), so whole runs fall inside one
/// stretch and no statistic inside a run removes it. The loop slows by the
/// same factor as the encoder and the forward do, which is what lets
/// CPU-bound timings be brought to reference speed: see [`fill_timing`].
pub fn host_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..SPIN_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The host-speed reading taken before and after a phase, on an otherwise
/// idle process: the median of nine loops.
pub fn host_speed_ms() -> f64 {
    stats::median(&std::array::from_fn::<f64, 9, _>(|_| host_spin_ms()))
}

/// Adds a host-speed reading `(now_s, host_spin_ms)` to `readings` if the
/// last one is [`SPIN_EVERY_S`] old. The closed loop calls this between
/// operations, while the program under test is not running.
fn read_host_speed(readings: &mut Vec<(f64, f64)>, now_s: f64) {
    if readings.last().is_none_or(|&(at, _)| now_s - at >= SPIN_EVERY_S) {
        readings.push((now_s, host_spin_ms()));
    }
}

/// What a measured or traced phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// One per operation.
    pub samples: Vec<Sample>,
    /// Host-speed readings `(seconds from phase start, host_spin_ms)` taken
    /// between the operations of a closed loop; none on the serving loops.
    pub host: Vec<(f64, f64)>,
    /// [`host_speed_ms`] before and after the phase.
    pub host_around: [f64; 2],
}

/// Host factor of every window of a phase: the median host-speed reading in
/// the window over [`SPIN_REFERENCE_MS`] (the phase's median where a window
/// has no reading).
fn host_factors(host: &[(f64, f64)], seconds: f64) -> Vec<f64> {
    let all: Vec<f64> = host.iter().map(|&(_, ms)| ms).collect();
    let overall = if all.is_empty() { SPIN_REFERENCE_MS } else { stats::median(&all) };
    stats::cut_windows(host, seconds, WINDOWS)
        .iter()
        .map(|w| if w.is_empty() { overall } else { stats::median(w) } / SPIN_REFERENCE_MS)
        .collect()
}

/// A closed loop on the calling thread: operation `i` starts when `i - 1`
/// is done, for `seconds`. `op` is what is timed; `check` says, after the
/// clock has been read, whether what it returned was correct.
pub fn closed_loop<T>(
    seconds: f64,
    mut op: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T) -> bool,
) -> Phase {
    let mut phase = Phase { host_around: [host_speed_ms(), 0.0], ..Phase::default() };
    let start = Instant::now();
    loop {
        let due = start.elapsed().as_secs_f64();
        if due >= seconds {
            phase.host_around[1] = host_speed_ms();
            return phase;
        }
        let i = phase.samples.len();
        let out = op(i);
        let done = start.elapsed().as_secs_f64();
        let ok = check(i, out);
        phase.samples.push(Sample { due, sent: due, done, ok });
        read_host_speed(&mut phase.host, start.elapsed().as_secs_f64());
    }
}

/// The clock a workload's timings are stated on. Printed with every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The in-process closed loops (`edge_encode`, `decode_offline`), whose
    /// time is all the CPU's: a window's latencies are divided, and its work
    /// rate multiplied, by the window's host factor, which brings them to
    /// reference host speed (see [`host_spin_ms`]).
    Reference,
    /// The serving workloads: the wall clock, as a client has it. Their time
    /// is not all the CPU's — 40 of `serve_batch`'s 56 ms are the kernel's
    /// delayed-ACK timer, and `serve_steady` waits on sockets and wake-ups —
    /// and nothing can read the host's speed between their operations
    /// without the server running at the same time.
    Wall,
}

/// Fills the four metrics every workload derives from its measured phase:
/// `latency_p50_ms`, `latency_p90_ms`, `throughput_mpx_s` and `ok_share`.
///
/// The phase is cut into [`WINDOWS`] windows, and every window is first
/// brought to reference host speed as the workload's [`Clock`] says.
///
/// Each statistic is then computed inside every window, and the reading is
/// the **median of the ten window values**: a stall or a noisy neighbour
/// spoils a window or two, not the metric.
///
/// * `latency_p50_ms` — the median of the window medians;
/// * `latency_p90_ms` — that median times the 90th percentile of *latency
///   relative to its own window's median*, over every operation of the
///   phase. A percentile needs a hundred samples, which a single window
///   holds only on `serve_steady`; dividing by the window median first lets
///   all windows pool their samples without pooling their slowness;
/// * `throughput_mpx_s` — the median of the window work rates;
/// * `ok_share` — the median of the window shares.
///
/// `mpx` is the source megapixels one correct operation completes; an
/// operation is good when it was correct and, where the workload has a
/// latency limit, answered within `limit_ms` of its due time **on the wall
/// clock**: a deadline is the user's, whatever the host's speed.
///
/// # Errors
///
/// When the whole phase is too thin for a 90th percentile.
pub fn fill_timing(
    report: &mut Report,
    phase: &Phase,
    seconds: f64,
    mpx: f64,
    limit_ms: Option<f64>,
    clock: Clock,
) -> Result<(), String> {
    let samples = &phase.samples;
    report.host_spin_ms = phase.host_around;
    let factors = if clock == Clock::Wall {
        println!("clock: wall (no timing is scaled)");
        vec![1.0; WINDOWS]
    } else {
        let factors = host_factors(&phase.host, seconds);
        println!(
            "clock: reference host speed; host factor per window: {}",
            factors.iter().map(|f| format!("{f:.3}")).collect::<Vec<_>>().join(" ")
        );
        factors
    };
    let latency = |s: &Sample| {
        s.latency_ms() / stats::window_of(s.due, seconds, WINDOWS).map_or(1.0, |w| factors[w])
    };

    let wall: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    println!("latency_p50_ms on the wall clock, whole phase: {:.6}", stats::median(&wall));
    let latencies: Vec<(f64, f64)> = samples.iter().map(|s| (s.due, latency(s))).collect();
    let by_due = stats::cut_windows(&latencies, seconds, WINDOWS);
    let (p50, window_medians) = stats::median_of_windows(&by_due, stats::median);
    report.set_timing("latency_p50_ms", p50, samples.len(), window_medians);

    let relative: Vec<f64> = by_due
        .iter()
        .filter(|w| !w.is_empty())
        .flat_map(|w| {
            let local = stats::median(w);
            w.iter().map(move |latency| latency / local)
        })
        .collect();
    let tail = stats::tail_percentile(&relative, 0.9).ok_or_else(|| {
        format!(
            "{} operations are too few for a 90th percentile with ten samples beyond it",
            samples.len()
        )
    })?;
    report.set_timing("latency_p90_ms", p50 * tail, relative.len(), Vec::new());

    let rates: Vec<f64> = work_rate_per_window(samples, seconds, mpx)
        .iter()
        .zip(&factors)
        .map(|(rate, &f)| rate * f)
        .collect();
    report.set_timing("throughput_mpx_s", stats::median(&rates), samples.len(), rates);

    let good: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| {
            let in_time = limit_ms.is_none_or(|limit| s.latency_ms() <= limit);
            (s.due, f64::from(u8::from(s.ok && in_time)))
        })
        .collect();
    let (share, share_windows) =
        stats::median_of_windows(&stats::cut_windows(&good, seconds, WINDOWS), mean);
    report.set_timing("ok_share", share, samples.len(), share_windows);

    let failed = samples.iter().filter(|s| !s.ok).count();
    report.check("measured phase", samples.len() as u64, failed as u64);
    Ok(())
}

/// Work completed per second in each window of the phase. A correct
/// operation's `mpx` is spread evenly over the time it was in progress, so
/// one that straddles a window boundary counts in both windows by its share:
/// a closed loop of 40 ms operations then reads the same rate in every 2 s
/// window instead of flipping between 49 and 50 whole operations.
fn work_rate_per_window(samples: &[Sample], seconds: f64, mpx: f64) -> Vec<f64> {
    let window_s = seconds / WINDOWS as f64;
    let mut work = vec![0.0; WINDOWS];
    for s in samples.iter().filter(|s| s.ok) {
        let (from, to) = (s.sent, s.done.max(s.sent + 1e-9));
        for (w, total) in work.iter_mut().enumerate() {
            let (lo, hi) = (w as f64 * window_s, (w + 1) as f64 * window_s);
            *total += mpx * (to.min(hi) - from.max(lo)).max(0.0) / (to - from);
        }
    }
    work.into_iter().map(|done| done / window_s).collect()
}

/// The `bench.*` readings of a traced run that come from the samples of its
/// phases: whole-phase tail and maximum of the traced pass, generator
/// lateness, the failed share, and the overhead of tracing — the median of
/// `traced_op_ms`, the operation as timed inside the traced pass, against
/// the untraced phase's median.
pub fn fill_bench_layer(
    report: &mut Report,
    untraced: &Phase,
    traced: &Phase,
    traced_op_ms: &[f64],
) {
    let latencies: Vec<f64> = traced.samples.iter().map(Sample::latency_ms).collect();
    if let Some(p99) = stats::tail_percentile(&latencies, 0.99) {
        report.set_timing("bench.latency_p99_ms", p99, latencies.len(), Vec::new());
    }
    let max = latencies.iter().copied().fold(0.0, f64::max);
    report.set_timing("bench.latency_max_ms", max, latencies.len(), Vec::new());
    let lateness: Vec<f64> = traced.samples.iter().map(Sample::lateness_us).collect();
    if let Some(p99) = stats::tail_percentile(&lateness, 0.99) {
        report.set_timing("bench.generator_late_p99_us", p99, lateness.len(), Vec::new());
    }
    report.set("bench.generator_late_max_ms", lateness.iter().copied().fold(0.0, f64::max) / 1e3);

    let base: Vec<f64> = untraced.samples.iter().map(Sample::latency_ms).collect();
    report.set(
        "bench.trace_overhead_share",
        stats::median(traced_op_ms) / stats::median(&base) - 1.0,
    );
    let all = untraced.samples.iter().chain(&traced.samples);
    let (count, failed) = (all.clone().count(), all.filter(|s| !s.ok).count());
    report.set("bench.failed_share", failed as f64 / count as f64);
    report.check("traced run", count as u64, failed as u64);
    report.host_spin_ms = traced.host_around;
    report.set("bench.host_spin_ms", mean(&traced.host_around));
}

/// Mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_of(samples: Vec<Sample>) -> Phase {
        Phase { samples, ..Phase::default() }
    }

    #[test]
    fn the_closed_loop_starts_each_operation_when_the_last_is_done() {
        let phase = closed_loop(
            0.1,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            },
            // The check runs off the operation's clock, however long it takes.
            |i, out| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                out == i && i != 1
            },
        );
        let samples = &phase.samples;
        assert!(samples.len() >= 5 && samples.len() <= 50, "{} operations", samples.len());
        assert!(samples.windows(2).all(|p| p[1].due >= p[0].done));
        assert!(!samples[1].ok && samples[0].ok);
        assert!(samples.iter().all(|s| s.latency_ms() >= 2.0));
        assert!(samples.windows(2).all(|p| p[1].due - p[0].done >= 0.001), "checks are untimed");
        assert!(!phase.host.is_empty(), "the loop reads the host's speed between operations");
        assert!(phase.host_around.iter().all(|&ms| ms > 0.0), "and before and after the phase");
    }

    /// 1000 operations over 10 s, 4 ms each; every tenth takes 34 ms.
    fn steady_phase() -> Vec<Sample> {
        (0..1000)
            .map(|i| {
                let due = i as f64 * 0.01;
                let latency = if i % 10 == 9 { 0.034 } else { 0.004 };
                Sample { due, sent: due, done: due + latency, ok: true }
            })
            .collect()
    }

    #[test]
    fn timing_metrics_come_from_windows_and_misses_count_against_ok_share() {
        let mut report = Report::default();
        fill_timing(
            &mut report,
            &phase_of(steady_phase()),
            10.0,
            0.001024,
            Some(25.0),
            Clock::Wall,
        )
        .expect("1000 samples");
        let value = |name: &str| report.get(name).expect("filled").value;
        assert!((value("latency_p50_ms") - 4.0).abs() < 1e-6);
        assert!(
            (value("latency_p90_ms") - 4.0).abs() < 1e-6,
            "nearest rank 90 of 100 is still a fast one"
        );
        assert!((value("throughput_mpx_s") - 0.1024).abs() < 1e-9);
        assert!((value("ok_share") - 0.9).abs() < 1e-9);
        assert_eq!((report.attempted, report.failed), (1000, 0));
    }

    #[test]
    fn a_slow_host_is_taken_out_of_reference_timings_and_left_in_wall_ones() {
        // The host runs at half speed throughout: every reading is twice the
        // reference.
        let host: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.1, 2.0 * SPIN_REFERENCE_MS)).collect();
        let phase = Phase { samples: steady_phase(), host, ..Phase::default() };
        // A 3 ms limit, which the 4 ms operations miss on the wall clock — the
        // one a limit is on — though they take 2 ms at reference speed.
        let read = |clock: Clock| {
            let mut report = Report::default();
            fill_timing(&mut report, &phase, 10.0, 0.001024, Some(3.0), clock)
                .expect("1000 samples");
            let value = |name: &str| report.get(name).expect("filled").value;
            (value("latency_p50_ms"), value("throughput_mpx_s"), value("ok_share"))
        };
        let close = |a: (f64, f64, f64), b: (f64, f64, f64)| {
            (a.0 - b.0).abs() < 1e-6 && (a.1 - b.1).abs() < 1e-9 && (a.2 - b.2).abs() < 1e-9
        };
        assert!(close(read(Clock::Wall), (4.0, 0.1024, 0.0)));
        assert!(close(read(Clock::Reference), (2.0, 0.2048, 0.0)));
    }

    #[test]
    fn a_slow_stretch_of_the_host_spoils_its_windows_not_the_readings() {
        let mut samples = steady_phase();
        // Windows 3 to 6 run 1.6x slower, with no host reading to tell.
        for s in samples.iter_mut().filter(|s| (3.0..7.0).contains(&s.due)) {
            s.done = s.due + (s.done - s.due) * 1.6;
        }
        let mut report = Report::default();
        fill_timing(&mut report, &phase_of(samples), 10.0, 0.001024, None, Clock::Wall)
            .expect("1000 samples");
        assert!((report.get("latency_p50_ms").expect("filled").value - 4.0).abs() < 1e-6);
        assert!((report.get("throughput_mpx_s").expect("filled").value - 0.1024).abs() < 1e-6);
    }

    #[test]
    fn a_thin_phase_is_refused_instead_of_printing_a_thin_percentile() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                due: i as f64 * 0.1,
                sent: i as f64 * 0.1,
                done: i as f64 * 0.1 + 0.05,
                ok: true,
            })
            .collect();
        assert!(fill_timing(
            &mut Report::default(),
            &phase_of(samples),
            5.0,
            1.0,
            None,
            Clock::Wall
        )
        .is_err());
    }

    #[test]
    fn work_in_progress_across_a_window_boundary_counts_in_both_windows() {
        // One operation of 1 Mpx from 0.5 s to 1.5 s of a 10 s phase.
        let rates =
            work_rate_per_window(&[Sample { due: 0.5, sent: 0.5, done: 1.5, ok: true }], 10.0, 1.0);
        assert!((rates[0] - 0.5).abs() < 1e-12 && (rates[1] - 0.5).abs() < 1e-12);
        assert!(rates[2..].iter().all(|&r| r == 0.0));
    }
}

//! The statistics every timing metric goes through: window cutting, the
//! median of window values, tail percentiles that refuse thin samples, and
//! the quartiles `compare` and the steadiness check use.

/// Windows the measured phase is cut into.
pub const WINDOWS: usize = 10;

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// One timed operation of the measured phase, in seconds from phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the operation was due to start (closed loops: when it started).
    pub due: f64,
    /// When the generator actually issued it.
    pub sent: f64,
    /// When its result was in hand.
    pub done: f64,
    /// Whether the result passed the correctness check.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from the **due** time, so a stall that
    /// delays the generator is charged to the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator issued the operation.
    pub fn lateness_us(&self) -> f64 {
        (self.sent - self.due) * 1e6
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has a phase with work in it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1)`, refused (`None`) when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The window, of `n` equal ones in a phase `phase_s` long, that time `t`
/// falls in; `None` outside the phase.
pub fn window_of(t: f64, phase_s: f64, n: usize) -> Option<usize> {
    (t >= 0.0 && t < phase_s).then(|| ((t / phase_s * n as f64) as usize).min(n - 1))
}

/// Cuts `(time, value)` points of a phase `phase_s` long into `n` equal
/// windows by their time; points outside the phase are dropped.
pub fn cut_windows(points: &[(f64, f64)], phase_s: f64, n: usize) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); n];
    for &(t, value) in points {
        if let Some(w) = window_of(t, phase_s, n) {
            windows[w].push(value);
        }
    }
    windows
}

/// Applies `stat` inside every non-empty window and returns the median of
/// the window values with the window values themselves.
pub fn median_of_windows(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> (f64, Vec<f64>) {
    let values: Vec<f64> = windows.iter().filter(|w| !w.is_empty()).map(|w| stat(w)).collect();
    (median(&values), values)
}

/// Quartiles `(q1, q2, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windows_are_cut_by_time_and_points_outside_are_dropped() {
        let points = [(0.0, 1.0), (0.99, 2.0), (1.0, 3.0), (9.99, 4.0), (10.0, 5.0), (-0.1, 6.0)];
        let windows = cut_windows(&points, 10.0, 10);
        assert_eq!(windows[0], vec![1.0, 2.0]);
        assert_eq!(windows[1], vec![3.0]);
        assert_eq!(windows[9], vec![4.0]);
        assert_eq!(windows.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn one_spoilt_window_does_not_move_the_median_of_windows() {
        let mut windows: Vec<Vec<f64>> = (0..10).map(|_| vec![4.0, 5.0, 6.0]).collect();
        windows[3] = vec![540.0, 541.0, 542.0];
        let (value, per_window) = median_of_windows(&windows, median);
        assert_eq!(value, 5.0);
        assert_eq!(per_window.len(), 10);
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn latency_counts_from_the_due_time_when_the_writer_is_late() {
        let s = Sample { due: 1.000, sent: 1.030, done: 1.034, ok: true };
        assert!((s.latency_ms() - 34.0).abs() < 1e-9, "the 30 ms the writer lost is charged");
        assert!((s.lateness_us() - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 3, 7], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), (1.0, 3.0, 7.0));
    }
}

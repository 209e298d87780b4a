//! `compare A B`: the rule every later performance claim is judged by.
//!
//! `A` and `B` are result files written with `--out` (one JSON line per
//! run). Runs are paired by workload **and seed** — different seeds time
//! different inputs, so their readings are never pooled — and for every
//! (workload, seed, end-to-end metric) pairing the medians of the two sides'
//! runs are compared with the metric's direction and bound from
//! `BENCHMARK.json`:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `REGRESSION` — it is worse by more than the bound, and the two sides'
//!   spreads (first to third quartile of each side's runs) do not overlap;
//! * `unresolved` — it is worse by more than the bound but the spreads
//!   overlap, or either side's spread is itself wider than the bound, unless
//!   every run of B reads better than every run of A;
//! * `MISSING` — A has the pairing and B does not: the workload crashed,
//!   printed no result, or was not run.
//!
//! With a single run on a side its spread is that of the run's window
//! values. Each (workload, seed) also gets a `failed_share` row — operations
//! failed ÷ attempted over the side's runs, `FAILED` when B's exceeds A's by
//! more than [`FAILED_SHARE_BOUND`] — and a `host_spin_ms` row, which is
//! never judged: it says whether the two sides ran on the same host speed.
//! Exits non-zero on a regression, a missing pairing or a failed share.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;

/// How far B's failed share may exceed A's, absolute.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether a higher reading is better.
    pub higher_is_better: bool,
    /// The share of A's median by which B may be worse.
    pub bound: f64,
}

/// One side's readings of one pairing.
#[derive(Debug, Clone, Default, PartialEq)]
struct Side {
    /// One value per run.
    runs: Vec<f64>,
    /// Window values of every run, for a side with a single run.
    windows: Vec<f64>,
}

impl Side {
    fn median(&self) -> f64 {
        stats::median(&self.runs)
    }

    /// First and third quartile of the side's runs (of its windows when it
    /// has one run; the value itself when it has neither).
    fn spread(&self) -> (f64, f64) {
        let of = if self.runs.len() >= 2 { &self.runs } else { &self.windows };
        if of.len() >= 2 {
            let (q1, _, q3) = stats::quartiles(of);
            (q1, q3)
        } else {
            (self.median(), self.median())
        }
    }
}

/// One side's untraced runs of one workload on one seed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Runs {
    metrics: BTreeMap<String, Side>,
    attempted: f64,
    failed: f64,
    /// Every host-speed reading of the runs (before and after each phase).
    host_spin_ms: Vec<f64>,
}

impl Runs {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// What `compare` found for one pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows, beyond the spreads.
    Regression,
    /// The spreads are too wide to tell.
    Unresolved,
}

/// Reads the end-to-end rules out of `BENCHMARK.json`.
///
/// # Errors
///
/// When the document lacks a field this reads.
pub fn rules(spec: &Value) -> Result<Vec<Rule>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key).and_then(Value::as_str).ok_or(format!("a metric lacks {key}"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64).ok_or("a metric lacks its bound")?,
            })
        })
        .collect()
}

/// `(workload, seed) → runs` from the lines of one result file; traced runs
/// carry no end-to-end metric and are skipped.
fn read_side(text: &str) -> Result<BTreeMap<(String, u64), Runs>, String> {
    let mut sides: BTreeMap<(String, u64), Runs> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line)?;
        let number = |key: &str| {
            run.get(key).and_then(Value::as_f64).ok_or(format!("a result line lacks its {key}"))
        };
        if number("trace")? != 0.0 {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a result line lacks its workload")?;
        let runs = sides.entry((workload.to_string(), number("seed")? as u64)).or_default();
        runs.attempted += number("attempted")?;
        runs.failed += number("failed")?;
        let spins = run.get("host_spin_ms").and_then(Value::as_array).unwrap_or(&[]);
        runs.host_spin_ms.extend(spins.iter().filter_map(Value::as_f64));
        for (name, reading) in run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("a result line lacks its metrics")?
        {
            let side = runs.metrics.entry(name.clone()).or_default();
            side.runs.push(
                reading.get("value").and_then(Value::as_f64).ok_or("a reading lacks its value")?,
            );
            let windows = reading.get("windows").and_then(Value::as_array).unwrap_or(&[]);
            side.windows = windows.iter().filter_map(Value::as_f64).collect();
        }
    }
    Ok(sides)
}

/// Judges one pairing. Returns the verdict with how much worse B's median
/// is, as a share of A's (negative when it is better).
fn judge(rule: &Rule, a: &Side, b: &Side) -> (Verdict, f64) {
    let sign = if rule.higher_is_better { -1.0 } else { 1.0 };
    let base = a.median();
    let worse_by = sign * (b.median() - base) / base.abs();
    let ((a1, a3), (b1, b3)) = (a.spread(), b.spread());
    let wide = (a3 - a1) / base.abs() > rule.bound || (b3 - b1) / b.median().abs() > rule.bound;
    let apart = if rule.higher_is_better { b3 < a1 } else { b1 > a3 };
    let every_b_better = b.runs.iter().all(|&y| a.runs.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if worse_by > rule.bound {
        if apart {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if wide && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Compares two result files under `spec` and prints one row per pairing.
/// Returns whether B fails: a pairing regressed or is missing, or more
/// operations failed than the bound allows.
///
/// # Errors
///
/// When a file is not what `--out` writes.
pub fn compare(spec: &str, a: &str, b: &str) -> Result<bool, String> {
    let rules = rules(&json::parse(spec)?)?;
    let (a, b) = (read_side(a)?, read_side(b)?);
    if a.is_empty() {
        return Err("A holds no untraced run".into());
    }
    let mut bad = false;
    println!(
        "{:<16} {:>4} {:<18} {:>14} {:>14} {:>9} {:>8} {:>5}  verdict",
        "workload", "seed", "metric", "A median", "B median", "B/A", "worse by", "runs"
    );
    for ((workload, seed), runs_a) in &a {
        let head = format!("{workload:<16} {seed:>4}");
        let Some(runs_b) = b.get(&(workload.clone(), *seed)) else {
            bad = true;
            println!("{head} {:<18} MISSING: B has no untraced run of this workload and seed", "*");
            continue;
        };
        for rule in &rules {
            let Some(side_a) = runs_a.metrics.get(&rule.name) else { continue };
            let Some(side_b) = runs_b.metrics.get(&rule.name) else {
                bad = true;
                println!("{head} {:<18} MISSING in B", rule.name);
                continue;
            };
            let (verdict, worse_by) = judge(rule, side_a, side_b);
            bad |= verdict == Verdict::Regression;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{head} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>+7.2}% {:>2}/{:<2}  {word} (bound {:.1}% of A's {:.6})",
                rule.name,
                side_a.median(),
                side_b.median(),
                side_b.median() / side_a.median(),
                worse_by * 100.0,
                side_a.runs.len(),
                side_b.runs.len(),
                rule.bound * 100.0,
                side_a.median(),
            );
        }
        let (share_a, share_b) = (runs_a.failed_share(), runs_b.failed_share());
        let failed = share_b > share_a + FAILED_SHARE_BOUND;
        bad |= failed;
        println!(
            "{head} {:<18} {share_a:>14.6} {share_b:>14.6} {:>9} {:>+8.4} {:>5}  {} (bound +{FAILED_SHARE_BOUND} abs; B failed {} of {})",
            "failed_share",
            "",
            share_b - share_a,
            "",
            if failed { "FAILED" } else { "ok" },
            runs_b.failed,
            runs_b.attempted,
        );
        if !runs_a.host_spin_ms.is_empty() && !runs_b.host_spin_ms.is_empty() {
            let (spin_a, spin_b) =
                (stats::median(&runs_a.host_spin_ms), stats::median(&runs_b.host_spin_ms));
            println!(
                "{head} {:<18} {spin_a:>14.6} {spin_b:>14.6} {:>9.4}  (the host's speed, not judged)",
                "host_spin_ms",
                spin_b / spin_a
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(runs: &[f64]) -> Side {
        Side { runs: runs.to_vec(), windows: Vec::new() }
    }

    fn lower(bound: f64) -> Rule {
        Rule { name: "latency_p50_ms".into(), higher_is_better: false, bound }
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_with_tight_spreads_regresses() {
        let a = side(&[4.00, 4.02, 4.04]);
        assert_eq!(judge(&lower(0.08), &a, &side(&[4.10, 4.12, 4.14])).0, Verdict::Ok);
        let (verdict, worse_by) = judge(&lower(0.08), &a, &side(&[4.50, 4.52, 4.54]));
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse_by - 0.1244).abs() < 1e-3);
    }

    #[test]
    fn overlapping_spreads_leave_a_worse_median_unresolved() {
        let a = side(&[4.0, 4.1, 5.2]);
        let b = side(&[3.9, 4.6, 4.7]);
        assert_eq!(judge(&lower(0.08), &a, &b).0, Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_of_b_is_better() {
        let a = side(&[4.0, 4.6, 5.2]);
        assert_eq!(judge(&lower(0.08), &a, &side(&[4.1, 4.5, 5.0])).0, Verdict::Unresolved);
        assert_eq!(judge(&lower(0.08), &a, &side(&[3.0, 3.4, 3.9])).0, Verdict::Ok);
    }

    #[test]
    fn direction_is_taken_from_the_rule() {
        let rule = Rule { name: "throughput_mpx_s".into(), higher_is_better: true, bound: 0.06 };
        let a = side(&[1.00, 1.01, 1.02]);
        assert_eq!(judge(&rule, &a, &side(&[0.90, 0.91, 0.92])).0, Verdict::Regression);
        assert_eq!(judge(&rule, &a, &side(&[1.10, 1.11, 1.12])).0, Verdict::Ok);
    }

    const SPEC: &str = r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.08}]}"#;

    /// One `--out` line of `serve_steady`.
    fn line(seed: u64, value: f64, windows: &str, failed: u64) -> String {
        format!(
            r#"{{"workload": "serve_steady", "seed": {seed}, "seconds": 20, "trace": 0, "host_spin_ms": [0.58, 0.6], "correct": {}, "attempted": 1000, "failed": {failed}, "metrics": {{"latency_p50_ms": {{"value": {value}, "unit": "ms", "samples": 10, "windows": [{windows}]}}}}}}"#,
            failed == 0
        )
    }

    #[test]
    fn a_single_run_borrows_its_spread_from_its_windows() {
        // 12 % worse, but A's windows reach past B's: not resolved by one run.
        assert_eq!(
            compare(SPEC, &line(1, 4.0, "3.8, 4.0, 4.9", 0), &line(1, 4.5, "4.4, 4.5, 4.6", 0)),
            Ok(false)
        );
        assert_eq!(
            compare(SPEC, &line(1, 4.0, "3.9, 4.0, 4.1", 0), &line(1, 4.5, "4.4, 4.5, 4.6", 0)),
            Ok(true)
        );
    }

    #[test]
    fn runs_are_paired_by_seed_and_never_pooled_across_seeds() {
        // Seed 2's inputs read 20 % higher than seed 1's on both sides. Pooled,
        // a 12 % loss on each seed would hide inside that spread.
        let a =
            [line(1, 4.0, "", 0), line(1, 4.01, "", 0), line(2, 4.8, "", 0), line(2, 4.81, "", 0)];
        let same = a.join("\n");
        assert_eq!(compare(SPEC, &same, &same), Ok(false));
        let b =
            [line(1, 4.5, "", 0), line(1, 4.51, "", 0), line(2, 5.4, "", 0), line(2, 5.41, "", 0)];
        assert_eq!(compare(SPEC, &same, &b.join("\n")), Ok(true));
    }

    #[test]
    fn a_pairing_that_b_lacks_fails_the_comparison() {
        let a = [line(1, 4.0, "", 0), line(2, 4.0, "", 0)].join("\n");
        // B never ran seed 2.
        assert_eq!(compare(SPEC, &a, &line(1, 4.0, "", 0)), Ok(true));
        // B holds traced lines only: they are not end-to-end readings.
        let traced = a.replace("\"trace\": 0", "\"trace\": 1");
        assert_eq!(compare(SPEC, &a, &traced), Ok(true));
        // B's run lacks the metric.
        let bare = line(1, 4.0, "", 0).replace("latency_p50_ms", "something_else");
        assert_eq!(compare(SPEC, &line(1, 4.0, "", 0), &bare), Ok(true));
        assert!(compare(SPEC, "", &a).is_err(), "an empty A compares nothing");
    }

    #[test]
    fn more_failed_operations_than_the_bound_allows_fail_the_comparison() {
        let a = line(1, 4.0, "", 0);
        assert_eq!(compare(SPEC, &a, &line(1, 4.0, "", 1)), Ok(false), "1 of 1000 is the bound");
        assert_eq!(compare(SPEC, &a, &line(1, 4.0, "", 2)), Ok(true));
        assert_eq!(compare(SPEC, &line(1, 4.0, "", 2), &line(1, 4.0, "", 2)), Ok(false));
    }
}

//! Offline stand-in for the parts of [`criterion`](https://docs.rs/criterion)
//! this workspace uses: [`Criterion`] with the `sample_size` /
//! `measurement_time` / `warm_up_time` builders and `bench_function`,
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! The shim is *functional*, not a marker: it runs a real wall-clock
//! measurement loop (warm-up, then timed samples) and prints
//! `name  time: <mean> ns/iter (<samples> samples)` per benchmark, so
//! `cargo bench` produces usable relative numbers offline. It performs no
//! statistical analysis, HTML reporting, or outlier rejection.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup cost. The shim times setup and routine
/// together per batch but only counts routine executions; the variants only
/// affect batch sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs: large batches.
    SmallInput,
    /// Large per-iteration inputs: small batches.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Timing collector handed to the closure of [`Criterion::bench_function`].
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    /// (total elapsed, iterations) recorded by the last `iter*` call.
    result: Option<(Duration, u64)>,
}

impl Bencher {
    /// Time `routine` repeatedly: warm up for the configured duration, then
    /// run timed samples until the measurement budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        // Aim each sample at measurement_time / sample_size using the
        // warm-up rate as the iterations-per-sample estimate.
        let per_sample = self.measurement.as_secs_f64() / self.sample_size as f64;
        let rate = warm_iters.max(1) as f64 / self.warm_up.as_secs_f64().max(1e-9);
        let iters_per_sample = ((rate * per_sample) as u64).max(1);

        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        let budget = Instant::now();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            total += start.elapsed();
            iters += iters_per_sample;
            if budget.elapsed() > self.measurement * 2 {
                break; // routine much slower than the warm-up estimate
            }
        }
        self.result = Some((total, iters));
    }

    /// Time `routine` on fresh inputs from `setup`; only routine executions
    /// are counted as iterations.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            black_box(routine(setup()));
            warm_iters += 1;
        }
        let per_sample = self.measurement.as_secs_f64() / self.sample_size as f64;
        let rate = warm_iters.max(1) as f64 / self.warm_up.as_secs_f64().max(1e-9);
        let iters_per_sample = ((rate * per_sample) as u64).max(1);

        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        let budget = Instant::now();
        for _ in 0..self.sample_size {
            let inputs: Vec<I> = (0..iters_per_sample).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            total += start.elapsed();
            iters += iters_per_sample;
            if budget.elapsed() > self.measurement * 2 {
                break;
            }
        }
        self.result = Some((total, iters));
    }
}

/// Benchmark driver, stand-in for `criterion::Criterion`.
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
            sample_size: 20,
        }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the total timed-measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Set the warm-up duration per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Run one named benchmark and print its mean time per iteration.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some((total, iters)) if iters > 0 => {
                let ns = total.as_nanos() as f64 / iters as f64;
                println!("{name:<40} time: {} ({iters} iters)", format_ns(ns));
            }
            _ => println!("{name:<40} time: <no measurement recorded>"),
        }
        self
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:9.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:9.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:9.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:9.3}  s/iter", ns / 1_000_000_000.0)
    }
}

/// Group benchmark functions, stand-in for `criterion::criterion_group!`.
/// Supports both the plain `criterion_group!(name, fn, …)` form and the
/// `name = …; config = …; targets = …` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        #[allow(missing_docs)]
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emit `main` running the given groups, stand-in for `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_and_prints() {
        let mut c = Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut acc = 0u64;
        c.bench_function("smoke_iter", |b| b.iter(|| acc = acc.wrapping_add(1)));
        assert!(acc > 0);
        let mut ran = 0u32;
        c.bench_function("smoke_batched", |b| {
            b.iter_batched(|| 3u32, |x| ran += x, BatchSize::SmallInput)
        });
        assert!(ran > 0);
    }

    #[test]
    fn format_ns_scales_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
    }
}

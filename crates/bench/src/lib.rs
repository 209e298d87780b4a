//! # easz-bench
//!
//! Shared harness utilities for the per-figure/table benchmark binaries.
//! Each `[[bench]]` target (plain harness) regenerates one table or figure
//! of the paper and prints the same rows/series the paper reports; outputs
//! are also appended to `target/easz-results/` for EXPERIMENTS.md.
//!
//! Reproduction scope note: harnesses run on synthetic Kodak-like/CLIC-like
//! crops with the quick pretrained reconstructor, so absolute numbers are
//! not the paper's — the *shape* (orderings, rough factors, crossovers) is
//! the reproduction target (README "Reproduction scope").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use easz_core::zoo::{self, PretrainSpec};
use easz_core::{Reconstructor, ReconstructorConfig, TrainConfig};
use easz_data::Dataset;
use easz_image::ImageF32;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Evaluation images: crops of Kodak-like scenes (full frames keep the
/// no-reference metrics honest but cost minutes; crops keep every harness
/// in seconds while preserving content statistics).
pub fn kodak_eval_set(count: usize, w: usize, h: usize) -> Vec<ImageF32> {
    (0..count).map(|i| Dataset::KodakLike.image(100 + i).crop(64, 64, w, h)).collect()
}

/// Evaluation images from the CLIC-like corpus.
pub fn clic_eval_set(count: usize, w: usize, h: usize) -> Vec<ImageF32> {
    (0..count).map(|i| Dataset::ClicLike.image(200 + i).crop(64, 64, w, h)).collect()
}

/// The shared bench-grade reconstructor (n=32, b=4): quick spec, cached.
pub fn bench_model() -> Arc<Reconstructor> {
    zoo::pretrained(PretrainSpec::quick())
}

/// A pretrained model for an alternative sub-patch size `b` on 16-pixel
/// patches (the Fig. 3 / Fig. 7c/d patch-size ablations).
pub fn bench_model_b(b: usize) -> Arc<Reconstructor> {
    let spec = PretrainSpec {
        model: ReconstructorConfig {
            n: 16,
            b,
            d_model: 48,
            heads: 4,
            ffn: 96,
            ..ReconstructorConfig::fast()
        },
        train: TrainConfig { batch_size: 8, lr: 1e-3, ..TrainConfig::default() },
        steps: 200,
        corpus: 32,
    };
    zoo::pretrained(spec)
}

/// Result sink: prints to stdout and appends to
/// `target/easz-results/<name>.txt`.
pub struct ResultSink {
    name: String,
    lines: Vec<String>,
}

impl ResultSink {
    /// Creates a sink for one experiment.
    pub fn new(name: &str) -> Self {
        let banner = format!("== {name} ==");
        println!("{banner}");
        Self { name: name.to_string(), lines: vec![banner] }
    }

    /// Emits one row.
    pub fn row(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        println!("{line}");
        self.lines.push(line.to_string());
    }

    /// Writes the collected rows to the results directory.
    pub fn flush(&self) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/easz-results");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.txt", self.name));
        if let Ok(mut f) = std::fs::File::create(&path) {
            for l in &self.lines {
                let _ = writeln!(f, "{l}");
            }
        }
    }
}

impl Drop for ResultSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_sets_have_requested_shape() {
        let set = kodak_eval_set(2, 128, 96);
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|i| i.width() == 128 && i.height() == 96));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}

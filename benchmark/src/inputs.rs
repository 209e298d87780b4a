//! Seeded inputs. Frames, crops, mask seeds, erase-ratio draws and the
//! arrival schedule all come from `--seed` through the generator below, so
//! the same seed gives byte-identical wires and an identical schedule on
//! every run. The program under test only ever sees what is generated here.
//!
//! Seed 1 is the development seed; re-check any claim on seed 2 as well
//! (see the README). The evaluation inputs of the exact counts are those of
//! [`EVAL_SEED`] on every run.

use easz_codecs::{JpegLikeCodec, Quality};
use easz_core::{EaszConfig, EaszEncoded, EaszEncoder};
use easz_data::Dataset;
use easz_image::ImageF32;

/// Inner-codec quality of every container in the benchmark.
pub const QUALITY: u8 = 75;

/// The erase ratios the paper switches between without switching model.
pub const ERASE_RATIOS: [f64; 3] = [0.125, 0.25, 0.375];

/// Seed of the evaluation inputs. The exact counts — `wire_bpp`, `psnr_db`,
/// `peak_heap_mib` — are read on what the workload's generator makes of this
/// seed, whatever `--seed` the timed inputs came from: rate and quality are
/// compared to the last digit, which only means something on one fixed set
/// of images and masks (different images compress and reconstruct
/// differently by several percent).
pub const EVAL_SEED: u64 = 0;

/// SplitMix64, owned by the benchmark so that the input stream cannot move
/// when the workspace's `rand` stand-in is swapped for the registry crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, made distinct per use by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBC9));
        rng.next_u64();
        rng
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is small everywhere here, so the modulo bias
    /// is below 2^-40).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` distinct Kodak-like 768×512 frames chosen by `rng`.
pub fn frames(rng: &mut Rng, count: usize) -> Vec<ImageF32> {
    let mut indices: Vec<usize> = Vec::with_capacity(count);
    while indices.len() < count {
        let index = rng.below(1 << 16);
        if !indices.contains(&index) {
            indices.push(index);
        }
    }
    indices.into_iter().map(|i| Dataset::KodakLike.image(i)).collect()
}

/// `count` square crops of side `side`, frames and offsets chosen by `rng`.
pub fn crops(rng: &mut Rng, frames: &[ImageF32], side: usize, count: usize) -> Vec<ImageF32> {
    (0..count)
        .map(|_| {
            let frame = &frames[rng.below(frames.len())];
            let x = rng.below(frame.width() - side + 1);
            let y = rng.below(frame.height() - side + 1);
            frame.crop(x, y, side, side)
        })
        .collect()
}

/// An erase ratio drawn 1:2:1 from [`ERASE_RATIOS`].
pub fn draw_erase_ratio(rng: &mut Rng) -> f64 {
    ERASE_RATIOS[[0, 1, 1, 2][rng.below(4)]]
}

/// The edge configuration of one container: paper defaults (proposed mask,
/// horizontal squeeze) with the given erase ratio and mask seed.
pub fn edge_config(erase_ratio: f64, mask_seed: u64, synthesize_grain: bool) -> EaszConfig {
    EaszConfig { erase_ratio, mask_seed, synthesize_grain, ..EaszConfig::default() }
}

/// Encodes `image` as the edge would.
pub fn encode(image: &ImageF32, config: EaszConfig) -> EaszEncoded {
    EaszEncoder::new(config)
        .expect("benchmark configurations are valid")
        .compress(image, &JpegLikeCodec::new(), Quality::new(QUALITY))
        .expect("the JPEG-like codec encodes every generated image")
}

/// Arrival times, in seconds from phase start, of an open loop at `rate`
/// per second over `seconds`, cut into `windows` equal windows.
///
/// Arrivals are a Poisson process conditioned on its mean: every window
/// holds exactly `rate × window` arrivals at independent uniform times, so
/// bursts and gaps at the millisecond scale the batcher reacts to are kept,
/// while the per-window count — which would otherwise add ±4 % of noise to
/// every per-window statistic — is fixed.
pub fn schedule(rng: &mut Rng, rate: f64, seconds: f64, windows: usize) -> Vec<f64> {
    let window = seconds / windows as f64;
    let per_window = (rate * window).round() as usize;
    let mut due = Vec::with_capacity(per_window * windows);
    for w in 0..windows {
        let mut times: Vec<f64> =
            (0..per_window).map(|_| (w as f64 + rng.unit()) * window).collect();
        times.sort_by(f64::total_cmp);
        due.extend(times);
    }
    due
}

/// FNV-1a over `bytes`: the digest replies and wires are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(seed: u64) -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed, 1);
        let frames = frames(&mut rng, 1);
        crops(&mut rng, &frames, 64, 3)
            .iter()
            .map(|crop| {
                let ratio = draw_erase_ratio(&mut rng);
                encode(crop, edge_config(ratio, rng.next_u64(), true)).to_bytes()
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_wires_and_another_seed_does_not() {
        assert_eq!(wires(1), wires(1));
        assert_ne!(wires(1), wires(2));
    }

    #[test]
    fn the_generator_stream_is_pinned_across_commits() {
        // Golden values: if these move, every recorded result was measured
        // on other inputs than the next run will see.
        let mut rng = Rng::new(1, 0);
        assert_eq!(rng.next_u64(), 0xBEEB_8DA1_658E_EC67);
        let mut schedule_rng = Rng::new(1, 7);
        let due = schedule(&mut schedule_rng, 250.0, 2.0, 2);
        assert_eq!(due.len(), 500);
        assert_eq!(
            digest(&due.iter().flat_map(|t| t.to_le_bytes()).collect::<Vec<u8>>()),
            5245808261457117599
        );
        // The wires also pin the scene generator and the encoder: a change
        // to either gives the program other bytes to chew on.
        let wires: Vec<u64> = wires(1).iter().map(|w| digest(w)).collect();
        assert_eq!(wires, [15000850922999315740, 8725750948704130139, 4304209363106562251]);
    }

    #[test]
    fn the_schedule_repeats_and_keeps_its_mean_rate_in_every_window() {
        let a = schedule(&mut Rng::new(5, 7), 250.0, 20.0, 10);
        let b = schedule(&mut Rng::new(5, 7), 250.0, 20.0, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|p| p[0] <= p[1]), "due times are sorted");
        for w in 0..10 {
            let lo = w as f64 * 2.0;
            assert_eq!(a.iter().filter(|&&t| t >= lo && t < lo + 2.0).count(), 500);
        }
        // Gaps are exponential-like, not evenly spaced: their coefficient of
        // variation is near 1 (it is 0 for a metronome).
        let gaps: Vec<f64> = a.windows(2).map(|p| p[1] - p[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.004).abs() < 1e-4, "mean gap {mean}");
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn erase_ratios_are_drawn_one_two_one() {
        let mut rng = Rng::new(9, 3);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            let r = draw_erase_ratio(&mut rng);
            counts[ERASE_RATIOS.iter().position(|&x| x == r).expect("a known ratio")] += 1;
        }
        assert!(
            (900..1100).contains(&counts[0]) && (1900..2100).contains(&counts[1]),
            "{counts:?}"
        );
    }
}

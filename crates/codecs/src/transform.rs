//! Shared intra-prediction transform-coding engine.
//!
//! The BPG-like codec is one instance of this engine ([`EngineConfig::bpg`]).
//! `easz-testbed`'s simulated neural codecs (MBT-sim, Cheng-sim, the Ballé
//! tiers) are others, with their own [`EngineConfig`]s: block sizes, chroma
//! quantisation, dead-zone quantiser and loop-filter strength. This mirrors
//! reality — learned codecs are transform codecs with better
//! transforms/entropy models — and keeps the rate-quality *ordering*
//! (JPEG < BPG < MBT < Cheng) that the paper's experiments rely on.

use crate::codec::{CodecError, InnerHeader, Quality};
use crate::dct::{zigzag_order, DctBasis};
use crate::entropy::range::{decode_ue, encode_ue, BitModel, RangeDecoder, RangeEncoder};
use easz_image::resample::{resize, Filter};
use easz_image::{color, Channels, ImageF32};

/// Tuning of one transform-codec instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// 4-byte bitstream magic.
    pub magic: [u8; 4],
    /// Luma transform block size.
    pub luma_block: usize,
    /// Chroma transform block size (chroma is always 4:2:0 subsampled).
    pub chroma_block: usize,
    /// Chroma quantiser step multiplier (>= 1 quantises chroma coarser).
    pub chroma_step_scale: f32,
    /// Dead-zone rounding offset in `[0.5, 1.0)`; 0.5 = plain rounding,
    /// larger zeroes more near-threshold coefficients (better RD at low
    /// rates, the effect RD-optimised/learned quantisers give).
    pub deadzone: f32,
    /// Deblocking threshold multiplier on the quantiser step.
    pub deblock_scale: f32,
    /// Number of deblocking passes (neural codecs show fewer block
    /// artefacts; two passes emulate their smoother output).
    pub deblock_passes: u8,
    /// Global quantiser-step multiplier; < 1 models a codec with a more
    /// efficient transform/entropy stack (more quality per bit).
    pub step_scale: f32,
}

impl EngineConfig {
    /// The BPG-like (HEVC-intra-style) configuration.
    pub fn bpg() -> Self {
        Self {
            magic: *b"EBPG",
            luma_block: 16,
            chroma_block: 8,
            chroma_step_scale: 1.5,
            deadzone: 0.5,
            deblock_scale: 6.0,
            deblock_passes: 1,
            step_scale: 1.0,
        }
    }
}

/// Quantiser step from the 1..=100 quality knob (log-spaced like HEVC QP).
pub fn quality_to_step(quality: Quality) -> f32 {
    let q = quality.value() as f32;
    let qp = 51.0 - q * 0.5;
    0.002 * 2f32.powf(qp / 6.0)
}

/// Intra prediction modes (subset of HEVC's 35).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredMode {
    Dc,
    Horizontal,
    Vertical,
    Planar,
}

const MODES: [PredMode; 4] =
    [PredMode::Dc, PredMode::Horizontal, PredMode::Vertical, PredMode::Planar];

fn predict(mode: PredMode, size: usize, top: &[f32], left: &[f32]) -> Vec<f32> {
    let mut out = vec![0f32; size * size];
    let dc = {
        let mut acc = 0.0;
        let mut n = 0usize;
        for &v in top.iter().chain(left.iter()) {
            acc += v;
            n += 1;
        }
        if n == 0 {
            0.5
        } else {
            acc / n as f32
        }
    };
    match mode {
        PredMode::Dc => out.fill(dc),
        PredMode::Horizontal => {
            for y in 0..size {
                let v = left.get(y).copied().unwrap_or(dc);
                for x in 0..size {
                    out[y * size + x] = v;
                }
            }
        }
        PredMode::Vertical => {
            for x in 0..size {
                let v = top.get(x).copied().unwrap_or(dc);
                for y in 0..size {
                    out[y * size + x] = v;
                }
            }
        }
        PredMode::Planar => {
            let tr = top.last().copied().unwrap_or(dc);
            let bl = left.last().copied().unwrap_or(dc);
            for y in 0..size {
                let lv = left.get(y).copied().unwrap_or(dc);
                for x in 0..size {
                    let tv = top.get(x).copied().unwrap_or(dc);
                    let hor = lv * (size - 1 - x) as f32 + tr * (x + 1) as f32;
                    let ver = tv * (size - 1 - y) as f32 + bl * (y + 1) as f32;
                    out[y * size + x] = (hor + ver) / (2.0 * size as f32);
                }
            }
        }
    }
    out
}

/// Adaptive context set for one plane type.
struct CoeffModels {
    sig: Vec<BitModel>,
    mag: Vec<BitModel>,
    last: Vec<BitModel>,
    mode: Vec<BitModel>,
}

impl CoeffModels {
    fn new() -> Self {
        Self {
            sig: vec![BitModel::new(); 4],
            mag: vec![BitModel::new(); 8],
            last: vec![BitModel::new(); 8],
            mode: vec![BitModel::new(); 2],
        }
    }

    fn freq_class(k: usize, n2: usize) -> usize {
        if k == 0 {
            0
        } else if k < n2 / 8 {
            1
        } else if k < n2 / 2 {
            2
        } else {
            3
        }
    }
}

struct PlaneCodec<'a> {
    size: usize,
    basis: DctBasis,
    zz: Vec<usize>,
    step: f32,
    deadzone: f32,
    models: &'a mut CoeffModels,
}

impl<'a> PlaneCodec<'a> {
    fn new(size: usize, step: f32, deadzone: f32, models: &'a mut CoeffModels) -> Self {
        Self { size, basis: DctBasis::new(size), zz: zigzag_order(size), step, deadzone, models }
    }

    fn quantize(&self, c: f32) -> i32 {
        // Dead-zone quantiser: |q| = floor(|c|/step + 1 - deadzone).
        let a = c.abs() / self.step + 1.0 - self.deadzone;
        let q = a.floor().max(0.0) as i32;
        if c < 0.0 {
            -q
        } else {
            q
        }
    }

    fn encode_plane(&mut self, plane: &ImageF32, enc: &mut RangeEncoder) -> ImageF32 {
        let n = self.size;
        let (w, h) = (plane.width(), plane.height());
        let mut recon = ImageF32::new(w, h, Channels::Gray);
        let grid = easz_image::blocks::BlockGrid::new(w, h, n);
        for by in 0..grid.rows() {
            for bx in 0..grid.cols() {
                let block = easz_image::blocks::extract_block(plane, grid, bx, by, 0);
                let (top, left) = neighbours(&recon, grid, bx, by);
                let (mode_idx, pred) = MODES
                    .iter()
                    .enumerate()
                    .map(|(mi, &m)| (mi, predict(m, n, &top, &left)))
                    .min_by(|(_, pa), (_, pb)| {
                        sse(&block, pa).partial_cmp(&sse(&block, pb)).expect("finite sse")
                    })
                    .expect("non-empty mode list");
                enc.encode((mode_idx as u8 >> 1) & 1, &mut self.models.mode[0]);
                enc.encode(mode_idx as u8 & 1, &mut self.models.mode[1]);
                let resid: Vec<f32> = block.iter().zip(&pred).map(|(a, b)| a - b).collect();
                let coeffs = self.basis.forward(&resid);
                let q: Vec<i32> = self.zz.iter().map(|&i| self.quantize(coeffs[i])).collect();
                self.encode_coeffs(&q, enc);
                let rec_block = self.reconstruct(&q, &pred);
                easz_image::blocks::place_block(&mut recon, grid, bx, by, 0, &rec_block);
            }
        }
        recon
    }

    fn reconstruct(&self, q: &[i32], pred: &[f32]) -> Vec<f32> {
        let n = self.size;
        let mut deq = vec![0f32; n * n];
        for (k, &i) in self.zz.iter().enumerate() {
            deq[i] = q[k] as f32 * self.step;
        }
        let rec_resid = self.basis.inverse(&deq);
        rec_resid.iter().zip(pred).map(|(r, p)| (r + p).clamp(0.0, 1.0)).collect()
    }

    fn encode_coeffs(&mut self, q: &[i32], enc: &mut RangeEncoder) {
        let n2 = q.len();
        match q.iter().rposition(|&v| v != 0) {
            None => enc.encode(0, &mut self.models.last[0]),
            Some(last) => {
                enc.encode(1, &mut self.models.last[0]);
                encode_ue(enc, &mut self.models.last[1..], last as u32);
                for (k, &v) in q.iter().take(last + 1).enumerate() {
                    let class = CoeffModels::freq_class(k, n2);
                    if v == 0 {
                        enc.encode(0, &mut self.models.sig[class]);
                        continue;
                    }
                    enc.encode(1, &mut self.models.sig[class]);
                    encode_ue(enc, &mut self.models.mag, v.unsigned_abs() - 1);
                    enc.encode_bypass(u8::from(v < 0));
                }
            }
        }
    }

    fn decode_plane(&mut self, w: usize, h: usize, dec: &mut RangeDecoder<'_>) -> ImageF32 {
        let n = self.size;
        let mut recon = ImageF32::new(w, h, Channels::Gray);
        let grid = easz_image::blocks::BlockGrid::new(w, h, n);
        for by in 0..grid.rows() {
            for bx in 0..grid.cols() {
                let hi = dec.decode(&mut self.models.mode[0]);
                let lo = dec.decode(&mut self.models.mode[1]);
                let mode = MODES[((hi << 1) | lo) as usize];
                let (top, left) = neighbours(&recon, grid, bx, by);
                let pred = predict(mode, n, &top, &left);
                let q = self.decode_coeffs(n * n, dec);
                let rec_block = self.reconstruct(&q, &pred);
                easz_image::blocks::place_block(&mut recon, grid, bx, by, 0, &rec_block);
            }
        }
        recon
    }

    fn decode_coeffs(&mut self, n2: usize, dec: &mut RangeDecoder<'_>) -> Vec<i32> {
        let mut q = vec![0i32; n2];
        if dec.decode(&mut self.models.last[0]) == 0 {
            return q;
        }
        let last = (decode_ue(dec, &mut self.models.last[1..]) as usize).min(n2 - 1);
        for (k, slot) in q.iter_mut().take(last + 1).enumerate() {
            let class = CoeffModels::freq_class(k, n2);
            if dec.decode(&mut self.models.sig[class]) == 0 {
                continue;
            }
            let mag = decode_ue(dec, &mut self.models.mag) + 1;
            let neg = dec.decode_bypass() == 1;
            *slot = if neg { -(mag as i32) } else { mag as i32 };
        }
        q
    }
}

fn sse(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn neighbours(
    recon: &ImageF32,
    grid: easz_image::blocks::BlockGrid,
    bx: usize,
    by: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (x0, y0) = grid.origin(bx, by);
    let n = grid.size;
    let mut top = Vec::new();
    if y0 > 0 {
        for dx in 0..n.min(recon.width().saturating_sub(x0)) {
            top.push(recon.get(x0 + dx, y0 - 1, 0));
        }
    }
    let mut left = Vec::new();
    if x0 > 0 {
        for dy in 0..n.min(recon.height().saturating_sub(y0)) {
            left.push(recon.get(x0 - 1, y0 + dy, 0));
        }
    }
    (top, left)
}

/// In-loop deblocking: smooths across block boundaries where the step is
/// small (likely a quantisation artefact), preserving true edges.
pub fn deblock(img: &mut ImageF32, block: usize, strength: f32) {
    let (w, h) = (img.width(), img.height());
    let cc = img.channels().count();
    let threshold = strength;
    for bx in (block..w).step_by(block) {
        for y in 0..h {
            for c in 0..cc {
                let a = img.get(bx - 1, y, c);
                let b = img.get(bx, y, c);
                if (a - b).abs() < threshold {
                    let m = 0.5 * (a + b);
                    img.set(bx - 1, y, c, a + (m - a) * 0.5);
                    img.set(bx, y, c, b + (m - b) * 0.5);
                }
            }
        }
    }
    for by in (block..h).step_by(block) {
        for x in 0..w {
            for c in 0..cc {
                let a = img.get(x, by - 1, c);
                let b = img.get(x, by, c);
                if (a - b).abs() < threshold {
                    let m = 0.5 * (a + b);
                    img.set(x, by - 1, c, a + (m - a) * 0.5);
                    img.set(x, by, c, b + (m - b) * 0.5);
                }
            }
        }
    }
}

/// Encodes under a configuration (shared by all transform codecs).
///
/// # Errors
///
/// Returns [`CodecError::Unsupported`] for empty images.
pub fn encode_engine(
    img: &ImageF32,
    quality: Quality,
    cfg: &EngineConfig,
) -> Result<Vec<u8>, CodecError> {
    if img.width() == 0 || img.height() == 0 {
        return Err(CodecError::Unsupported("empty image".into()));
    }
    let step = quality_to_step(quality) * cfg.step_scale;
    let mut out = Vec::new();
    InnerHeader::write(&mut out, &cfg.magic, img, quality);
    let mut enc = RangeEncoder::new();
    match img.channels() {
        Channels::Gray => {
            let mut models = CoeffModels::new();
            let mut pc = PlaneCodec::new(cfg.luma_block, step, cfg.deadzone, &mut models);
            pc.encode_plane(img, &mut enc);
        }
        Channels::Rgb => {
            let ycc = color::image_rgb_to_ycbcr(img);
            let y = ycc.channel(0);
            let half_w = img.width().div_ceil(2).max(1);
            let half_h = img.height().div_ceil(2).max(1);
            let cb = resize(&ycc.channel(1), half_w, half_h, Filter::Bilinear);
            let cr = resize(&ycc.channel(2), half_w, half_h, Filter::Bilinear);
            let mut ymodels = CoeffModels::new();
            PlaneCodec::new(cfg.luma_block, step, cfg.deadzone, &mut ymodels)
                .encode_plane(&y, &mut enc);
            let mut cmodels = CoeffModels::new();
            let mut pc = PlaneCodec::new(
                cfg.chroma_block,
                step * cfg.chroma_step_scale,
                cfg.deadzone,
                &mut cmodels,
            );
            pc.encode_plane(&cb, &mut enc);
            pc.encode_plane(&cr, &mut enc);
        }
    }
    out.extend_from_slice(&enc.finish());
    Ok(out)
}

/// Decodes a bitstream produced by [`encode_engine`] with the same config.
///
/// # Errors
///
/// Returns [`CodecError::Format`] for malformed bitstreams.
pub fn decode_engine(bytes: &[u8], cfg: &EngineConfig) -> Result<ImageF32, CodecError> {
    let (InnerHeader { width, height, channels, quality }, mut c) =
        InnerHeader::parse(bytes, &cfg.magic)?;
    let step = quality_to_step(quality) * cfg.step_scale;
    let mut dec = RangeDecoder::new(c.rest());
    let mut img = match channels {
        1 => {
            let mut models = CoeffModels::new();
            let mut pc = PlaneCodec::new(cfg.luma_block, step, cfg.deadzone, &mut models);
            pc.decode_plane(width, height, &mut dec)
        }
        3 => {
            let half_w = width.div_ceil(2).max(1);
            let half_h = height.div_ceil(2).max(1);
            let mut ymodels = CoeffModels::new();
            let y = PlaneCodec::new(cfg.luma_block, step, cfg.deadzone, &mut ymodels)
                .decode_plane(width, height, &mut dec);
            let mut cmodels = CoeffModels::new();
            let mut pc = PlaneCodec::new(
                cfg.chroma_block,
                step * cfg.chroma_step_scale,
                cfg.deadzone,
                &mut cmodels,
            );
            let cb = pc.decode_plane(half_w, half_h, &mut dec);
            let cr = pc.decode_plane(half_w, half_h, &mut dec);
            let cb = resize(&cb, width, height, Filter::Bilinear);
            let cr = resize(&cr, width, height, Filter::Bilinear);
            let ycc = ImageF32::from_planes(&y, &cb, &cr);
            color::image_ycbcr_to_rgb(&ycc)
        }
        other => return Err(CodecError::Format(format!("bad channel count {other}"))),
    };
    for _ in 0..cfg.deblock_passes {
        deblock(&mut img, cfg.luma_block, (step * cfg.deblock_scale).min(0.12));
    }
    img.clamp01();
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_is_monotone_in_quality() {
        let mut prev = f32::INFINITY;
        for q in (1..=100).step_by(9) {
            let s = quality_to_step(Quality::new(q));
            assert!(s < prev, "step must shrink as quality grows");
            prev = s;
        }
    }

    #[test]
    fn deadzone_quantiser_matches_rounding_at_half() {
        let mut models = CoeffModels::new();
        let pc = PlaneCodec::new(8, 0.1, 0.5, &mut models);
        for &(c, expect) in
            &[(0.0f32, 0i32), (0.049, 0), (0.051, 1), (0.149, 1), (0.151, 2), (-0.2, -2)]
        {
            assert_eq!(pc.quantize(c), expect, "c = {c}");
        }
    }

    #[test]
    fn larger_deadzone_zeroes_more() {
        let mut m1 = CoeffModels::new();
        let mut m2 = CoeffModels::new();
        let plain = PlaneCodec::new(8, 0.1, 0.5, &mut m1);
        let dz = PlaneCodec::new(8, 0.1, 0.7, &mut m2);
        assert_eq!(plain.quantize(0.06), 1);
        assert_eq!(dz.quantize(0.06), 0, "deadzone should zero near-threshold values");
    }

    #[test]
    fn deblock_smooths_block_edges_only() {
        let mut img = ImageF32::new(32, 8, Channels::Gray);
        // A small step at the block boundary (x=16) and a big edge at x=8.
        for y in 0..8 {
            for x in 0..32 {
                let v = if x < 8 {
                    0.0
                } else if x < 16 {
                    0.50
                } else {
                    0.54
                };
                img.set(x, y, 0, v);
            }
        }
        deblock(&mut img, 16, 0.1);
        // The small artefact step shrank.
        assert!((img.get(16, 4, 0) - img.get(15, 4, 0)).abs() < 0.04);
        // The real edge at x=8 is untouched (0.5 step > threshold).
        assert_eq!(img.get(7, 4, 0), 0.0);
        assert_eq!(img.get(8, 4, 0), 0.50);
    }
}

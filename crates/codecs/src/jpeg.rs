//! A from-scratch baseline-JPEG-style codec.
//!
//! Pipeline (the same stages as libjpeg baseline): RGB → YCbCr, 4:2:0 chroma
//! subsampling, 8×8 orthonormal DCT, quality-scaled quantisation with the
//! Annex-K tables, zigzag scan, DC prediction, (run, size) run-length
//! symbols and per-image canonical Huffman tables. The bitstream is
//! self-contained (not interchange-format JPEG — see "Reproduction scope" in
//! the README).

use crate::codec::{CodecError, ImageCodec, InnerHeader, Quality};
use crate::dct::dct8;
use crate::entropy::bitio::{BitReader, BitWriter};
use crate::entropy::huffman::HuffmanTable;
use crate::registry::CodecId;
use crate::wire::Cursor;
use easz_image::resample::{resize, Filter};
use easz_image::{color, Channels, ImageF32};

const MAGIC: &[u8; 4] = b"EJPG";

/// JPEG Annex-K luminance quantisation table (raster order).
const LUMA_QTABLE: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex-K chrominance quantisation table (raster order).
const CHROMA_QTABLE: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Scales an Annex-K table by the libjpeg quality rule.
fn scaled_qtable(base: &[u16; 64], quality: Quality) -> [f32; 64] {
    let q = quality.value() as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0f32; 64];
    for i in 0..64 {
        let v = ((base[i] as i32 * scale + 50) / 100).clamp(1, 255);
        // The orthonormal DCT of a [-0.5, 0.5]-ranged block has DC up to 4;
        // rescale the integer table into that value range (divide by 255*8,
        // the scale of the classical JPEG pipeline on 0..255 pixels).
        out[i] = v as f32 / (255.0 * 8.0);
    }
    out
}

/// Zigzag scan of an 8×8 block: `ZIGZAG[k]` is the raster index of the
/// `k`-th coefficient, low frequencies first.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// The quantisation table of a plane at `quality`.
fn plane_qtable(chroma: bool, quality: Quality) -> [f32; 64] {
    scaled_qtable(if chroma { &CHROMA_QTABLE } else { &LUMA_QTABLE }, quality)
}

/// Block `(bx, by)` of a planar `w × h` channel, edges replicated where the
/// block overhangs the plane.
fn load_block(plane: &[f32], w: usize, h: usize, bx: usize, by: usize) -> [f32; 64] {
    let (x0, y0) = (bx * 8, by * 8);
    let mut block = [0f32; 64];
    if x0 + 8 <= w && y0 + 8 <= h {
        for (dy, row) in block.chunks_exact_mut(8).enumerate() {
            let at = (y0 + dy) * w + x0;
            row.copy_from_slice(&plane[at..at + 8]);
        }
    } else {
        for (dy, row) in block.chunks_exact_mut(8).enumerate() {
            let src = &plane[(y0 + dy).min(h - 1) * w..][..w];
            for (dx, v) in row.iter_mut().enumerate() {
                *v = src[(x0 + dx).min(w - 1)];
            }
        }
    }
    block
}

/// `x.round() as i16` — half away from zero, saturating, NaN to zero —
/// without the call into libm that keeps the quantiser loop scalar.
///
/// Exact, not approximate: after the clamp `x as i32` truncates without
/// overflow, and `x - trunc(x)` is exact in `f32` (the fraction of a float
/// needs no more mantissa bits than the float has), so the comparison with
/// one half sees the true fraction. Clamping first only merges values that
/// saturate to the same `i16` anyway.
#[inline]
fn round_to_i16(x: f32) -> i16 {
    let x = x.clamp(-32768.0, 32767.0);
    let whole = x as i32;
    let fraction = x - whole as f32;
    (whole + i32::from(fraction >= 0.5) - i32::from(fraction <= -0.5)) as i16
}

/// Transforms and quantises every 8×8 block of a plane: 64 zigzag-ordered
/// levels per block, blocks in raster order.
///
/// Levels are stored as `i16`: at the finest table (1/2040) that holds
/// coefficients up to ±16, four times what samples in `[0, 1]` can reach;
/// wilder input saturates.
fn quantize_plane(plane: &[f32], w: usize, h: usize, qtable: &[f32; 64]) -> Vec<i16> {
    let basis = dct8();
    let mut coeffs = [0f32; 64];
    let mut raster = [0i16; 64];
    let mut levels = Vec::with_capacity(h.div_ceil(8) * w.div_ceil(8) * 64);
    for by in 0..h.div_ceil(8) {
        for bx in 0..w.div_ceil(8) {
            let mut block = load_block(plane, w, h, bx, by);
            for v in &mut block {
                *v -= 0.5; // centre around zero like JPEG's -128
            }
            basis.forward_into(&block, &mut coeffs);
            for ((level, &c), &q) in raster.iter_mut().zip(&coeffs).zip(qtable) {
                *level = round_to_i16(c / q);
            }
            levels.extend(ZIGZAG.iter().map(|&i| raster[i]));
        }
    }
    levels
}

fn dequantize_block(q: &[i32], qtable: &[f32; 64]) -> [f32; 64] {
    let mut out = [0f32; 64];
    for (k, &i) in ZIGZAG.iter().enumerate() {
        out[i] = q[k] as f32 * qtable[i];
    }
    out
}

/// JPEG "size" category of a value (bits needed for |v|).
fn bit_size(v: i32) -> u8 {
    let a = v.unsigned_abs();
    (32 - a.leading_zeros()) as u8
}

/// JPEG amplitude encoding: negative values are stored as v + 2^size - 1.
fn amplitude_bits(v: i32, size: u8) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v + (1i32 << size) - 1) as u32
    }
}

fn amplitude_decode(bits: u32, size: u8) -> i32 {
    if size == 0 {
        return 0;
    }
    let half = 1u32 << (size - 1);
    if bits >= half {
        bits as i32
    } else {
        bits as i32 - (1i32 << size) + 1
    }
}

/// Index of the DC and of the AC Huffman table.
const DC: usize = 0;
const AC: usize = 1;

/// Walks the quantised planes as their entropy symbols, in bitstream
/// order. Per block: the category of the DC level's difference from the
/// previous block of the plane, then (run, size) symbols for the AC levels
/// up to the last nonzero one, with `ZRL` for every 16 zeros and `EOB` if
/// the block ends early. `emit` receives the table, the symbol, and the
/// count and value of the amplitude bits that follow it.
///
/// Both encoder passes — histogram, then emission — go through here, so
/// the tables are built from exactly the symbols that get written.
fn for_each_symbol(planes: &[Vec<i16>], mut emit: impl FnMut(usize, u8, u8, u32)) {
    for plane in planes {
        let mut prev_dc = 0i32;
        for q in plane.chunks_exact(64) {
            let diff = i32::from(q[0]) - prev_dc;
            prev_dc = i32::from(q[0]);
            let size = bit_size(diff);
            emit(DC, size, size, amplitude_bits(diff, size));
            let end = q.iter().rposition(|&v| v != 0).map_or(1, |k| k + 1);
            let mut run = 0u8;
            for &v in &q[1..end] {
                if v == 0 {
                    run += 1;
                    if run == 16 {
                        emit(AC, 0xF0, 0, 0); // ZRL
                        run = 0;
                    }
                    continue;
                }
                let size = bit_size(i32::from(v));
                emit(AC, (run << 4) | size, size, amplitude_bits(i32::from(v), size));
                run = 0;
            }
            if end < 64 {
                emit(AC, 0x00, 0, 0); // EOB
            }
        }
    }
}

/// Splits interleaved RGB into planar Y, Cb and Cr in one pass.
fn ycbcr_planes(img: &ImageF32) -> [Vec<f32>; 3] {
    let [mut y, mut cb, mut cr] = [(); 3].map(|()| vec![0f32; img.pixels()]);
    for (((px, y), cb), cr) in img.data().chunks_exact(3).zip(&mut y).zip(&mut cb).zip(&mut cr) {
        (*y, *cb, *cr) = color::rgb_to_ycbcr(px[0], px[1], px[2]);
    }
    [y, cb, cr]
}

/// The from-scratch JPEG-style codec.
///
/// ```
/// use easz_codecs::{ImageCodec, JpegLikeCodec, Quality};
/// use easz_image::{Channels, ImageF32};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let img = ImageF32::new(32, 24, Channels::Rgb);
/// let codec = JpegLikeCodec::new();
/// let bytes = codec.encode(&img, Quality::new(75))?;
/// let decoded = codec.decode(&bytes)?;
/// assert_eq!(decoded.width(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct JpegLikeCodec {
    _private: (),
}

impl JpegLikeCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }

    fn decode_plane(
        width: usize,
        height: usize,
        qtable: &[f32; 64],
        dc_table: &HuffmanTable,
        ac_table: &HuffmanTable,
        reader: &mut BitReader<'_>,
    ) -> Result<ImageF32, CodecError> {
        let basis = dct8();
        let mut block = [0f32; 64];
        let mut img = ImageF32::new(width, height, Channels::Gray);
        let grid = easz_image::blocks::BlockGrid::new(width, height, 8);
        let mut prev_dc = 0i32;
        let bad = || CodecError::Format("truncated entropy stream".into());
        for by in 0..grid.rows() {
            for bx in 0..grid.cols() {
                let mut q = [0i32; 64];
                let size = dc_table.decode(reader).ok_or_else(bad)?;
                // The size category is itself entropy-coded, so a corrupt
                // stream can claim any byte; past 30 bits the amplitude maths
                // leaves i32 (and a genuine DC diff never gets close).
                if size > 30 {
                    return Err(CodecError::Format("dc size category out of range".into()));
                }
                let bits = reader.read_bits(size).ok_or_else(bad)?;
                prev_dc += amplitude_decode(bits, size);
                q[0] = prev_dc;
                let mut k = 1usize;
                while k < 64 {
                    let sym = ac_table.decode(reader).ok_or_else(bad)?;
                    if sym == 0x00 {
                        break; // EOB
                    }
                    if sym == 0xF0 {
                        k += 16;
                        continue;
                    }
                    let run = (sym >> 4) as usize;
                    let size = sym & 0x0F;
                    k += run;
                    if k >= 64 {
                        return Err(CodecError::Format("ac index overflow".into()));
                    }
                    let bits = reader.read_bits(size).ok_or_else(bad)?;
                    q[k] = amplitude_decode(bits, size);
                    k += 1;
                }
                basis.inverse_into(&dequantize_block(&q, qtable), &mut block);
                for v in &mut block {
                    *v += 0.5;
                }
                easz_image::blocks::place_block(&mut img, grid, bx, by, 0, &block);
            }
        }
        Ok(img)
    }
}

fn write_table(out: &mut Vec<u8>, table: &HuffmanTable) {
    let entries: Vec<(u8, u8)> = table
        .lengths()
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0)
        .map(|(s, &l)| (s as u8, l))
        .collect();
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for (s, l) in entries {
        out.push(s);
        out.push(l);
    }
}

fn read_table(c: &mut Cursor<'_>) -> Result<HuffmanTable, CodecError> {
    let count = c.count_u16(2)?;
    let mut lengths = [0u8; 256];
    for entry in c.bytes(2 * count)?.chunks_exact(2) {
        lengths[usize::from(entry[0])] = entry[1];
    }
    HuffmanTable::try_from_lengths(lengths)
        .ok_or_else(|| CodecError::Format("invalid huffman table lengths".into()))
}

impl ImageCodec for JpegLikeCodec {
    fn name(&self) -> &str {
        "jpeg-like"
    }

    fn id(&self) -> CodecId {
        CodecId::JPEG_LIKE
    }

    fn encode(&self, img: &ImageF32, quality: Quality) -> Result<Vec<u8>, CodecError> {
        let (w, h) = (img.width(), img.height());
        if w == 0 || h == 0 {
            return Err(CodecError::Unsupported("empty image".into()));
        }
        let luma_q = plane_qtable(false, quality);
        let planes = match img.channels() {
            Channels::Gray => vec![quantize_plane(img.data(), w, h, &luma_q)],
            Channels::Rgb => {
                let chroma_q = plane_qtable(true, quality);
                let (half_w, half_h) = (w.div_ceil(2).max(1), h.div_ceil(2).max(1));
                let [y, cb, cr] = ycbcr_planes(img);
                // 4:2:0; a full-size chroma plane is dropped as soon as its
                // half-size version exists.
                let subsample = |full: Vec<f32>| {
                    let full = ImageF32::from_vec(w, h, Channels::Gray, full);
                    resize(&full, half_w, half_h, Filter::Bilinear)
                };
                let (cb, cr) = (subsample(cb), subsample(cr));
                vec![
                    quantize_plane(&y, w, h, &luma_q),
                    quantize_plane(cb.data(), half_w, half_h, &chroma_q),
                    quantize_plane(cr.data(), half_w, half_h, &chroma_q),
                ]
            }
        };

        // Pass 1: Huffman tables from the symbol histograms.
        let mut freq = [[0u64; 256]; 2];
        for_each_symbol(&planes, |table, symbol, _, _| freq[table][symbol as usize] += 1);
        // Every block has a DC symbol; a table needs at least one symbol
        // even if no block has an AC one.
        if freq[AC].iter().all(|&f| f == 0) {
            freq[AC][0] = 1;
        }
        let tables = freq.map(|f| HuffmanTable::from_frequencies(&f));

        let mut out = Vec::new();
        InnerHeader::write(&mut out, MAGIC, img, quality);
        write_table(&mut out, &tables[DC]);
        write_table(&mut out, &tables[AC]);

        // Pass 2: the entropy-coded payload.
        let mut bits = BitWriter::new();
        for_each_symbol(&planes, |table, symbol, size, amplitude| {
            tables[table].encode(symbol, &mut bits);
            bits.write_bits(amplitude, size);
        });
        out.extend_from_slice(&bits.finish());
        Ok(out)
    }

    fn decode(&self, bytes: &[u8]) -> Result<ImageF32, CodecError> {
        let (InnerHeader { width, height, channels, quality }, mut c) =
            InnerHeader::parse(bytes, MAGIC)?;
        let dc_table = read_table(&mut c)?;
        let ac_table = read_table(&mut c)?;
        let mut reader = BitReader::new(c.rest());
        let mut plane = |width, height, chroma| {
            let qtable = plane_qtable(chroma, quality);
            Self::decode_plane(width, height, &qtable, &dc_table, &ac_table, &mut reader)
        };
        match channels {
            1 => plane(width, height, false),
            3 => {
                let y = plane(width, height, false)?;
                let half_w = width.div_ceil(2).max(1);
                let half_h = height.div_ceil(2).max(1);
                let cb = plane(half_w, half_h, true)?;
                let cr = plane(half_w, half_h, true)?;
                let cb = resize(&cb, width, height, Filter::Bilinear);
                let cr = resize(&cr, width, height, Filter::Bilinear);
                let ycc = ImageF32::from_planes(&y, &cb, &cr);
                let mut rgb = color::image_ycbcr_to_rgb(&ycc);
                rgb.clamp01();
                Ok(rgb)
            }
            other => Err(CodecError::Format(format!("bad channel count {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_with;

    #[test]
    fn decode_bomb_header_is_rejected_before_allocating() {
        // A ~14-byte bitstream whose header declares a per-side-legal but
        // terabyte-scale canvas must be a typed error, not an allocation.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(1u32 << 14).to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 13).to_le_bytes());
        bytes.push(3); // channels
        bytes.push(75); // quality
        assert!(matches!(JpegLikeCodec::new().decode(&bytes), Err(CodecError::Format(_))));
    }

    #[test]
    fn round_to_i16_is_round_then_saturating_cast() {
        let check = |x: f32| assert_eq!(round_to_i16(x), x.round() as i16, "{x:e}");
        // Every tie in and just past the i16 range with its neighbours one
        // ulp either side, where a rounded `x + 0.5` would go wrong.
        for k in -33_000..=33_000 {
            let tie = k as f32 + 0.5;
            for x in [tie, f32::from_bits(tie.to_bits() - 1), f32::from_bits(tie.to_bits() + 1)] {
                check(x);
                check(-x);
            }
        }
        for x in [0.0, -0.0, 0.49999997, 1.0e-40, f32::MAX, f32::INFINITY, f32::NAN, 8_388_609.0] {
            check(x);
            check(-x);
        }
        // A sweep across every exponent and sign (all 2^32 patterns agree;
        // checking them takes 15 s, so the suite strides).
        for bits in (0..=u32::MAX).step_by(4099) {
            check(f32::from_bits(bits));
        }
    }

    #[test]
    fn zigzag_table_is_the_generated_scan() {
        assert_eq!(ZIGZAG.to_vec(), crate::dct::zigzag_order(8));
    }

    #[test]
    fn block_loads_agree_with_extract_block_inside_and_over_the_edge() {
        // 17×9: blocks (0,0) and (1,0) take the interior copy, the other
        // four overhang to the right, below, or both.
        let img = color::luma(&test_image(17, 9));
        let grid = easz_image::blocks::BlockGrid::new(17, 9, 8);
        for by in 0..grid.rows() {
            for bx in 0..grid.cols() {
                let want = easz_image::blocks::extract_block(&img, grid, bx, by, 0);
                assert_eq!(load_block(img.data(), 17, 9, bx, by).to_vec(), want, "({bx},{by})");
            }
        }
    }

    fn test_image(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h, Channels::Rgb);
        for y in 0..h {
            for x in 0..w {
                let r = 0.5 + 0.4 * ((x as f32 * 0.17).sin() * (y as f32 * 0.11).cos());
                let g = 0.3 + 0.3 * ((x + y) as f32 / (w + h) as f32);
                let b = if (x / 8 + y / 8) % 2 == 0 { 0.8 } else { 0.2 };
                img.set(x, y, 0, r.clamp(0.0, 1.0));
                img.set(x, y, 1, g.clamp(0.0, 1.0));
                img.set(x, y, 2, b);
            }
        }
        img
    }

    fn mse(a: &ImageF32, b: &ImageF32) -> f32 {
        a.data().iter().zip(b.data()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
            / a.data().len() as f32
    }

    #[test]
    fn round_trip_dimensions_and_quality() {
        let img = test_image(48, 40);
        let codec = JpegLikeCodec::new();
        let bytes = codec.encode(&img, Quality::new(90)).expect("encode");
        let dec = codec.decode(&bytes).expect("decode");
        assert_eq!(dec.width(), 48);
        assert_eq!(dec.height(), 40);
        assert!(mse(&img, &dec) < 0.01, "q90 mse {}", mse(&img, &dec));
    }

    #[test]
    fn higher_quality_means_lower_error_and_more_bits() {
        let img = test_image(64, 64);
        let codec = JpegLikeCodec::new();
        let lo = codec.encode(&img, Quality::new(10)).expect("encode");
        let hi = codec.encode(&img, Quality::new(95)).expect("encode");
        assert!(hi.len() > lo.len(), "rate must grow with quality");
        let dlo = codec.decode(&lo).expect("decode");
        let dhi = codec.decode(&hi).expect("decode");
        assert!(mse(&img, &dhi) < mse(&img, &dlo), "distortion must fall with quality");
    }

    #[test]
    fn grayscale_round_trip() {
        let rgb = test_image(32, 32);
        let img = color::luma(&rgb);
        let codec = JpegLikeCodec::new();
        let bytes = codec.encode(&img, Quality::new(80)).expect("encode");
        let dec = codec.decode(&bytes).expect("decode");
        assert_eq!(dec.channels(), Channels::Gray);
        assert!(mse(&img, &dec) < 0.01);
    }

    #[test]
    fn non_multiple_of_8_sizes() {
        for (w, h) in [(17, 9), (33, 31), (8, 8), (7, 7)] {
            let img = test_image(w, h);
            let codec = JpegLikeCodec::new();
            let bytes = codec.encode(&img, Quality::new(85)).expect("encode");
            let dec = codec.decode(&bytes).expect("decode");
            assert_eq!((dec.width(), dec.height()), (w, h));
        }
    }

    #[test]
    fn flat_image_is_tiny() {
        let img = ImageF32::new(128, 128, Channels::Rgb);
        let codec = JpegLikeCodec::new();
        let enc = encode_with(&codec, &img, Quality::new(50)).expect("encode");
        assert!(enc.bpp() < 0.1, "flat image bpp {}", enc.bpp());
    }

    #[test]
    fn garbage_input_rejected() {
        let codec = JpegLikeCodec::new();
        assert!(codec.decode(b"not a bitstream").is_err());
        assert!(codec.decode(b"EJPG").is_err());
        let mut fake = Vec::from(&b"EJPG"[..]);
        fake.extend_from_slice(&[0u8; 64]);
        assert!(codec.decode(&fake).is_err());
    }

    #[test]
    fn empty_image_unsupported() {
        let img = ImageF32::new(0, 0, Channels::Rgb);
        let codec = JpegLikeCodec::new();
        assert!(matches!(codec.encode(&img, Quality::new(50)), Err(CodecError::Unsupported(_))));
    }
}

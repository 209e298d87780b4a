//! The versioned `.easz` wire container — the transmitted form of an
//! Easz-compressed image.
//!
//! [`EaszEncoded`] used to be an in-memory struct of loose fields; this
//! module gives it a self-describing binary layout so a sensor can hand the
//! bytes to a radio and a server can decode them with *no* out-of-band
//! agreement beyond "it is an `.easz` stream". The header names the inner
//! codec by [`CodecId`], so the decoder resolves it from a
//! [`CodecRegistry`](easz_codecs::CodecRegistry) instead of trusting the
//! caller to pass the matching codec.
//!
//! The **normative byte layout lives in `docs/FORMAT.md`** at the
//! repository root (§1, "The `.easz` container"), together with the field
//! semantics, reserved values, `FORMAT_VERSION` bump rules, and the TCP
//! framing protocol that carries containers to an `easz-serve` decode
//! server. This module is the container's executable form; where the two
//! disagree, the spec wins and this file has a bug.
//!
//! In brief: a fixed [`HEADER_LEN`]-byte header (magic, version, codec id,
//! geometry, provenance) followed by the mask side channel and the
//! inner-codec payload. The container is *exact* — header plus announced
//! section lengths must equal the buffer length, so truncation and
//! trailing garbage are both detected — and every field is validated on
//! parse with typed [`EaszError`]s: untrusted bytes can never panic the
//! server. Bounds are checked in one place for the whole workspace:
//! every read goes through [`easz_codecs::wire::Cursor`] and the canvas is
//! held to [`easz_codecs::wire::canvas_fits`], the bound the inner codecs
//! and the encoder share.
//!
//! The mask seed, erase ratio and quality fields are not consumed by
//! decoding (the transmitted mask drives it); they are carried so the
//! container is a lossless serialization of [`EaszEncoded`]
//! (`from_bytes(to_bytes(e)) == e`) and an encode's provenance survives the
//! wire. If the 17 bytes ever matter at IoT scale, move them to an optional
//! section in a future `FORMAT_VERSION` (see the spec's bump rules).

use crate::config::{EaszConfig, MaskStrategy};
use crate::error::EaszError;
use crate::mask::EraseMask;
use crate::squeeze::Orientation;
use easz_codecs::wire::{self, Cursor, LengthError};
use easz_codecs::{CodecId, Quality};

/// Container magic, `"EASZ"`.
pub const MAGIC: [u8; 4] = *b"EASZ";
/// The baseline container format version.
pub const FORMAT_VERSION: u8 = 1;
/// The newest container format version this build parses. Version 2 keeps
/// the byte layout of version 1 identically and assigns meaning to flag
/// bit 2 (the quantized-tier opt-in, spec §1.4). Version 3 assigns the
/// formerly reserved header byte 9 as the zoo **model id** (spec §1.5).
/// Writers emit the lowest version that can express a container, so every
/// pre-existing container stays byte-identical.
pub const FORMAT_VERSION_MAX: u8 = 3;
/// The highest version whose features a container may use while staying at
/// version 2 (quantized-tier flag, no model id).
const FORMAT_VERSION_QUANT: u8 = 2;
/// Fixed header length in bytes (sections follow).
pub const HEADER_LEN: usize = 46;

const FLAG_GRAIN: u8 = 1 << 0;
const FLAG_VERTICAL: u8 = 1 << 1;
/// Version-2 flag: the edge opts this container into the server's int8
/// quantized decode tier (ε/PSNR-bounded, not bit-exact).
const FLAG_QUANT: u8 = 1 << 2;

/// The transmitted form of an Easz-compressed image.
///
/// Produced by [`EaszEncoder::compress`](crate::EaszEncoder::compress);
/// serialize with [`to_bytes`](Self::to_bytes), parse with
/// [`from_bytes`](Self::from_bytes), decode with
/// [`EaszDecoder::decode`](crate::EaszDecoder::decode).
#[derive(Debug, Clone, PartialEq)]
pub struct EaszEncoded {
    /// Inner-codec bitstream of the squeezed image.
    pub payload: Vec<u8>,
    /// Serialized erase mask (the paper's ~128-byte side channel).
    pub mask_bytes: Vec<u8>,
    /// Original image width.
    pub width: usize,
    /// Original image height.
    pub height: usize,
    /// Configuration used at the edge (the server needs `n`, `b` and the
    /// orientation to undo the squeeze).
    pub config: EaszConfig,
    /// Inner codec quality used.
    pub quality: Quality,
    /// Wire identity of the inner codec that produced [`payload`](Self::payload).
    pub codec_id: CodecId,
}

impl EaszEncoded {
    /// Total transmitted bytes (header + payload + mask side channel).
    pub fn total_bytes(&self) -> usize {
        HEADER_LEN + self.payload.len() + self.mask_bytes.len()
    }

    /// Bits per pixel against the original canvas, container overhead and
    /// mask included — the accounting the paper uses.
    pub fn bpp(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 / (self.width * self.height).max(1) as f64
    }

    /// The decode engine this container's standing preference selects: the
    /// int8 quantized tier iff the edge opted in
    /// ([`EaszConfig::allow_quantized`], flag bit 2), the bit-exact f32
    /// engine otherwise. Tiered server requests override this per call.
    pub fn preferred_engine(&self) -> crate::DecodeEngine {
        if self.config.allow_quantized {
            crate::DecodeEngine::QuantizedInt8
        } else {
            crate::DecodeEngine::TapeFree
        }
    }

    /// Serializes to the `.easz` container (see the module docs for the
    /// byte layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes());
        out.extend_from_slice(&MAGIC);
        let mut flags = 0u8;
        if self.config.synthesize_grain {
            flags |= FLAG_GRAIN;
        }
        if self.config.orientation == Orientation::Vertical {
            flags |= FLAG_VERTICAL;
        }
        if self.config.allow_quantized {
            flags |= FLAG_QUANT;
        }
        // Lowest sufficient version: a nonzero model id is the only
        // version-3 feature and the quantized-tier flag the only version-2
        // one, so containers using neither stay version 1 byte-for-byte.
        let version = if self.config.model_id != 0 {
            FORMAT_VERSION_MAX
        } else if flags & FLAG_QUANT != 0 {
            FORMAT_VERSION_QUANT
        } else {
            FORMAT_VERSION
        };
        out.push(version);
        out.push(self.codec_id.value());
        out.push(self.quality.value());
        out.push(self.config.strategy.wire_byte());
        out.push(flags);
        // Byte 9: the zoo model id from version 3 on; reserved-must-be-0
        // before that. Id 0 writes the identical byte either way.
        out.push(self.config.model_id);
        out.extend_from_slice(&(self.config.n as u16).to_le_bytes());
        out.extend_from_slice(&(self.config.b as u16).to_le_bytes());
        out.extend_from_slice(&(self.width as u32).to_le_bytes());
        out.extend_from_slice(&(self.height as u32).to_le_bytes());
        out.extend_from_slice(&self.config.mask_seed.to_le_bytes());
        out.extend_from_slice(&self.config.erase_ratio.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.mask_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.mask_bytes);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and validates an `.easz` container.
    ///
    /// Round-trips exactly: `EaszEncoded::from_bytes(&e.to_bytes()) == Ok(e)`.
    ///
    /// # Errors
    ///
    /// Typed [`EaszError`]s for every malformation: wrong magic, unknown
    /// version, truncation, invalid header fields, inconsistent section
    /// lengths, or a mask side channel that does not parse or disagrees
    /// with the header geometry. Never panics on untrusted input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EaszError> {
        let mut c = Cursor::new(bytes);
        // The whole fixed header first: a short buffer is `Truncated`
        // before any field is judged.
        let mut h = Cursor::new(c.bytes(HEADER_LEN)?);
        if h.bytes(4)? != MAGIC {
            return Err(EaszError::BadMagic);
        }
        let version = h.u8()?;
        if !(FORMAT_VERSION..=FORMAT_VERSION_MAX).contains(&version) {
            return Err(EaszError::UnsupportedVersion(version));
        }
        let codec_id = CodecId(h.u8()?);
        let quality = Quality::try_new(h.u8()?).map_err(EaszError::Codec)?;
        let strategy = MaskStrategy::from_wire_byte(h.u8()?)?;
        let flags = h.u8()?;
        // Each version rejects the flag bits it has not assigned: that is
        // the escape hatch that lets a later version give them meaning.
        let known = if version >= 2 {
            FLAG_GRAIN | FLAG_VERTICAL | FLAG_QUANT
        } else {
            FLAG_GRAIN | FLAG_VERTICAL
        };
        if flags & !known != 0 {
            return Err(EaszError::Malformed(format!(
                "unknown flag bits 0x{flags:02x} for version {version}"
            )));
        }
        // Byte 9 is the zoo model id from version 3 on; versions 1 and 2
        // keep rejecting nonzero values exactly as when it was reserved —
        // that rejection is what made reassigning the byte safe, and what
        // makes a parsed byte 9 the model id in every version.
        let byte9 = h.u8()?;
        if version < 3 && byte9 != 0 {
            return Err(EaszError::Malformed(format!("reserved byte 0x{byte9:02x} != 0")));
        }
        let n = usize::from(h.u16()?);
        let b = usize::from(h.u16()?);
        let width = h.u32()? as usize;
        let height = h.u32()? as usize;
        let mask_seed = h.u64()?;
        let erase_ratio = f64::from_bits(h.u64()?);
        let mask_len = h.u32()? as usize;
        let payload_len = h.u32()? as usize;

        if width == 0 || height == 0 || !wire::canvas_fits(width, height) {
            return Err(EaszError::Malformed(format!("implausible canvas {width}x{height}")));
        }
        let config = EaszConfig {
            n,
            b,
            erase_ratio,
            strategy,
            orientation: if flags & FLAG_VERTICAL != 0 {
                Orientation::Vertical
            } else {
                Orientation::Horizontal
            },
            mask_seed,
            synthesize_grain: flags & FLAG_GRAIN != 0,
            allow_quantized: flags & FLAG_QUANT != 0,
            model_id: byte9,
        };
        config.validate()?;

        let sections = mask_len
            .checked_add(payload_len)
            .ok_or_else(|| EaszError::Malformed("section lengths overflow".into()))?;
        let (mask_bytes, payload) = c.bytes(sections)?.split_at(mask_len);
        c.finish()?;
        let (mask_bytes, payload) = (mask_bytes.to_vec(), payload.to_vec());

        // The mask side channel must parse and match the announced grid so
        // a corrupt container is rejected here, not deep inside decode.
        let mask = EraseMask::from_bytes(&mask_bytes).map_err(EaszError::MaskChannel)?;
        if mask.n_grid() != n / b {
            return Err(EaszError::MaskChannel(format!(
                "mask grid {} does not match header grid {}",
                mask.n_grid(),
                n / b
            )));
        }

        Ok(Self { payload, mask_bytes, width, height, config, quality, codec_id })
    }
}

/// A container read past its end is `Truncated` (positions are offsets into
/// the whole buffer, so `needed`/`got` count from its first byte); one with
/// bytes left after its sections is `Malformed`.
impl From<LengthError> for EaszError {
    fn from(e: LengthError) -> Self {
        if e.is_trailing() {
            Self::Malformed(e.to_string())
        } else {
            Self::Truncated { needed: e.pos.saturating_add(e.needed), got: e.pos + e.have }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EaszConfig;

    fn sample() -> EaszEncoded {
        let config = EaszConfig::default();
        EaszEncoded {
            payload: vec![7u8; 300],
            mask_bytes: config.make_mask().to_bytes(),
            width: 96,
            height: 64,
            config,
            quality: Quality::new(75),
            codec_id: CodecId::JPEG_LIKE,
        }
    }

    #[test]
    fn exact_round_trip() {
        let enc = sample();
        let bytes = enc.to_bytes();
        assert_eq!(bytes.len(), enc.total_bytes());
        let back = EaszEncoded::from_bytes(&bytes).expect("parse");
        assert_eq!(back, enc);
    }

    #[test]
    fn vertical_and_no_grain_round_trip_via_flags() {
        let mut enc = sample();
        enc.config.orientation = Orientation::Vertical;
        enc.config.synthesize_grain = false;
        let back = EaszEncoded::from_bytes(&enc.to_bytes()).expect("parse");
        assert_eq!(back.config.orientation, Orientation::Vertical);
        assert!(!back.config.synthesize_grain);
    }

    #[test]
    fn header_overhead_is_charged_in_bpp() {
        let enc = sample();
        let sections = (enc.payload.len() + enc.mask_bytes.len()) as f64 * 8.0 / (96.0 * 64.0);
        assert!(enc.bpp() > sections, "header bytes must be part of the rate accounting");
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(EaszEncoded::from_bytes(&bad), Err(EaszError::BadMagic)));
        let mut bad = bytes;
        bad[4] = 99;
        assert!(matches!(EaszEncoded::from_bytes(&bad), Err(EaszError::UnsupportedVersion(99))));
    }

    #[test]
    fn quantized_opt_in_writes_version_2_and_round_trips() {
        let mut enc = sample();
        enc.config.allow_quantized = true;
        let bytes = enc.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION_QUANT, "quant opt-in needs version 2");
        assert_eq!(bytes[8] & FLAG_QUANT, FLAG_QUANT);
        let back = EaszEncoded::from_bytes(&bytes).expect("parse v2");
        assert_eq!(back, enc);
        assert!(back.config.allow_quantized);
        assert_eq!(back.preferred_engine(), crate::DecodeEngine::QuantizedInt8);
    }

    #[test]
    fn containers_without_quant_opt_in_stay_version_1() {
        // The compatibility contract: nothing about this change may move a
        // single byte of a pre-existing container.
        let enc = sample();
        assert!(!enc.config.allow_quantized);
        let bytes = enc.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION);
        assert_eq!(bytes[8] & FLAG_QUANT, 0);
        assert_eq!(enc.preferred_engine(), crate::DecodeEngine::TapeFree);
    }

    #[test]
    fn version_1_still_rejects_the_quant_flag_bit() {
        // Bit 2 only has meaning from version 2 on; a v1 container carrying
        // it is malformed, exactly as before this version existed.
        let mut bytes = sample().to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION);
        bytes[8] |= FLAG_QUANT;
        assert!(matches!(EaszEncoded::from_bytes(&bytes), Err(EaszError::Malformed(_))));
        // And every version still rejects the genuinely reserved bits 3-7.
        for version in [FORMAT_VERSION, FORMAT_VERSION_QUANT, FORMAT_VERSION_MAX] {
            let mut bad = sample().to_bytes();
            bad[4] = version;
            bad[8] |= 1 << 5;
            assert!(matches!(EaszEncoded::from_bytes(&bad), Err(EaszError::Malformed(_))));
        }
    }

    #[test]
    fn version_2_without_quant_flag_parses_leniently() {
        // Readers accept any v2 container; writers just never emit this
        // form (they pick the lowest sufficient version).
        let mut bytes = sample().to_bytes();
        bytes[4] = FORMAT_VERSION_QUANT;
        let back = EaszEncoded::from_bytes(&bytes).expect("lenient v2 parse");
        assert!(!back.config.allow_quantized);
    }

    #[test]
    fn nonzero_model_id_writes_version_3_and_round_trips() {
        let mut enc = sample();
        enc.config.model_id = 7;
        let bytes = enc.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION_MAX, "nonzero model id needs version 3");
        assert_eq!(bytes[9], 7);
        let back = EaszEncoded::from_bytes(&bytes).expect("parse v3");
        assert_eq!(back, enc);
        assert_eq!(back.config.model_id, 7);
    }

    #[test]
    fn model_id_zero_keeps_pre_zoo_containers_byte_identical() {
        // The compatibility contract of the version-3 bump: the generic
        // model (id 0) writes the exact bytes the pre-zoo encoder wrote.
        let enc = sample();
        assert_eq!(enc.config.model_id, 0);
        let bytes = enc.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION);
        assert_eq!(bytes[9], 0);
        let mut quant = sample();
        quant.config.allow_quantized = true;
        assert_eq!(quant.to_bytes()[4], FORMAT_VERSION_QUANT);
    }

    #[test]
    fn versions_before_3_still_reject_a_nonzero_byte_9() {
        // Byte 9 only names a model from version 3 on; earlier versions
        // treat any nonzero value as the malformed reserved byte they
        // always rejected.
        for version in [FORMAT_VERSION, FORMAT_VERSION_QUANT] {
            let mut bytes = sample().to_bytes();
            bytes[4] = version;
            bytes[9] = 1;
            match EaszEncoded::from_bytes(&bytes) {
                Err(EaszError::Malformed(m)) => assert!(m.contains("reserved"), "got {m:?}"),
                other => panic!("v{version} nonzero byte 9 must be malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_3_composes_model_id_with_the_quant_tier() {
        let mut enc = sample();
        enc.config.model_id = 2;
        enc.config.allow_quantized = true;
        let bytes = enc.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION_MAX);
        assert_eq!(bytes[8] & FLAG_QUANT, FLAG_QUANT);
        let back = EaszEncoded::from_bytes(&bytes).expect("parse v3 quant");
        assert_eq!(back, enc);
        assert_eq!(back.preferred_engine(), crate::DecodeEngine::QuantizedInt8);
    }

    #[test]
    fn rejects_canvases_over_the_pixel_budget() {
        // Per-side-legal but terabyte-scale canvases must die at parse,
        // before anything downstream sizes a buffer from them.
        let mut bytes = sample().to_bytes();
        bytes[14..18].copy_from_slice(&(1u32 << 14).to_le_bytes());
        bytes[18..22].copy_from_slice(&(1u32 << 13).to_le_bytes());
        assert!(matches!(EaszEncoded::from_bytes(&bytes), Err(EaszError::Malformed(_))));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(EaszEncoded::from_bytes(&bytes), Err(EaszError::Malformed(_))));
    }

    #[test]
    fn the_mask_section_is_exact_too() {
        // One byte past the mask cells, with `M` counting it: the section
        // lengths agree with the buffer, the mask does not.
        let mut enc = sample();
        enc.mask_bytes.push(0);
        match EaszEncoded::from_bytes(&enc.to_bytes()) {
            Err(EaszError::MaskChannel(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("a mask section one byte long must be MaskChannel, got {other:?}"),
        }
        // An odd grid (3×3 cells in two bytes) with a pad bit set.
        let mut enc = sample();
        enc.config = EaszConfig::builder().n(12).b(4).build().expect("3x3 grid");
        enc.mask_bytes = enc.config.make_mask().to_bytes();
        assert_eq!(EaszEncoded::from_bytes(&enc.to_bytes()).expect("clean pad"), enc);
        *enc.mask_bytes.last_mut().expect("cells") |= 1;
        match EaszEncoded::from_bytes(&enc.to_bytes()) {
            Err(EaszError::MaskChannel(m)) => assert!(m.contains("pad"), "{m}"),
            other => panic!("a set pad bit must be MaskChannel, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mask_grid_mismatch() {
        let mut enc = sample();
        // A valid mask for the wrong grid (16x16 instead of 8x8).
        enc.mask_bytes =
            EaszConfig::builder().n(32).b(2).build().expect("cfg").make_mask().to_bytes();
        assert!(matches!(EaszEncoded::from_bytes(&enc.to_bytes()), Err(EaszError::MaskChannel(_))));
    }
}

//! Golden digests of the edge encoder's bytes, recorded at commit `84e4781`
//! before its kernels were rewritten for speed. Byte identity is the
//! contract of that rewrite, not a tolerance: every wire, every inner-codec
//! payload and every decoded sample below must read exactly what the slow
//! code produced. The decoded-pixel digests are here because `resize` and
//! the DCT basis are shared with the decode side.
//!
//! Re-derive a value only from a commit known to be byte-correct, never
//! from the change under test.

use easz::codecs::{ImageCodec, JpegLikeCodec, Quality};
use easz::core::{EaszConfig, EaszEncoder, Orientation};
use easz::data::Dataset;
use easz::image::{color, ImageF32};

/// FNV-1a 64, the digest `benchmark/src/inputs.rs` compares wires by.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn sample_digest(img: &ImageF32) -> u64 {
    let bytes: Vec<u8> = img.data().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    digest(&bytes)
}

struct Wire {
    frame: ImageF32,
    config: EaszConfig,
    quality: u8,
    squeezed: (usize, usize),
    len: usize,
    digest: u64,
}

#[test]
fn container_wires_match_the_parent_commit() {
    let full = |i: usize, erase_ratio: f64, squeezed, len, digest| Wire {
        frame: Dataset::KodakLike.image(i),
        config: EaszConfig { erase_ratio, mask_seed: 1, ..EaszConfig::default() },
        quality: 75,
        squeezed,
        len,
        digest,
    };
    let cases = [
        full(0, 0.125, (672, 512), 206_147, 0xF75B_B2D4_649D_CAF2),
        full(1, 0.25, (576, 512), 179_734, 0x8C98_9404_D71E_BE5E),
        full(2, 0.375, (480, 512), 151_777, 0x1D13_5698_A9A4_3E95),
        // Not a multiple of the patch, squeezed upwards: edge replication in
        // both directions and the transposed gather.
        Wire {
            frame: Dataset::KodakLike.image(2).crop(3, 5, 100, 70),
            config: EaszConfig {
                erase_ratio: 0.25,
                orientation: Orientation::Vertical,
                mask_seed: 9,
                ..EaszConfig::default()
            },
            quality: 60,
            squeezed: (128, 72),
            len: 3772,
            digest: 0xE9D1_E7D5_FDA3_D1A7,
        },
    ];
    let codec = JpegLikeCodec::new();
    for (i, case) in cases.iter().enumerate() {
        let encoder = EaszEncoder::new(case.config).expect("valid configuration");
        let (canvas, _mask) = encoder.erase_and_squeeze(&case.frame);
        assert_eq!((canvas.width(), canvas.height()), case.squeezed, "case {i}: squeezed size");
        let wire = encoder
            .compress(&case.frame, &codec, Quality::new(case.quality))
            .expect("compress")
            .to_bytes();
        assert_eq!(wire.len(), case.len, "case {i}: wire length");
        assert_eq!(digest(&wire), case.digest, "case {i}: wire digest {:#018X}", digest(&wire));
    }
}

#[test]
fn jpeg_payloads_and_decoded_samples_match_the_parent_commit() {
    let frame = Dataset::KodakLike.image(1);
    let crop = |x, y, w, h| frame.crop(x, y, w, h);
    // (image, quality, payload length, payload digest, decoded-sample digest)
    let cases = [
        (crop(0, 0, 33, 31), 85, 889, 0xB301_2400_AE9B_F9FBu64, 0xDD19_4523_544A_E153u64),
        (crop(5, 7, 17, 9), 10, 103, 0x4A49_B73F_D4A8_244E, 0x5ABF_711B_35EF_8162),
        (crop(0, 0, 8, 8), 100, 203, 0x3B5C_ACEF_9FC1_E1CA, 0x9485_55D7_637F_D4F5),
        (crop(0, 0, 7, 7), 50, 80, 0x5074_E872_C235_0010, 0xED22_23DB_D564_B943),
        (crop(0, 0, 1, 1), 1, 26, 0x6066_F8F5_7246_8B5F, 0x3BD4_B979_D63A_2DA4),
        (color::luma(&crop(0, 0, 64, 48)), 75, 1863, 0x8FC4_049E_B921_1559, 0x220F_5AAB_3C7C_7DD7),
        (crop(100, 60, 256, 192), 75, 30_130, 0xB24C_20BA_1E01_A3A8, 0x6622_31F5_A1D3_E96E),
    ];
    let codec = JpegLikeCodec::new();
    for (i, (img, quality, len, payload_digest, decoded_digest)) in cases.iter().enumerate() {
        let payload = codec.encode(img, Quality::new(*quality)).expect("encode");
        assert_eq!(payload.len(), *len, "case {i}: payload length");
        assert_eq!(
            digest(&payload),
            *payload_digest,
            "case {i}: payload digest {:#018X}",
            digest(&payload)
        );
        let decoded = codec.decode(&payload).expect("decode");
        assert_eq!(
            sample_digest(&decoded),
            *decoded_digest,
            "case {i}: decoded digest {:#018X}",
            sample_digest(&decoded)
        );
    }
}

//! Cross-crate integration tests: the split Easz pipeline against every
//! codec, at several erase ratios, with a (quickly) trained reconstructor.

mod common;

use easz::codecs::{BpgLikeCodec, CodecRegistry, ImageCodec, JpegLikeCodec, Quality};
use easz::core::{EaszConfig, EaszDecoder, EaszEncoder, FillMethod, MaskStrategy, Orientation};
use easz::data::Dataset;
use easz::metrics::{mse, psnr};
use easz::testbed::{NeuralSimCodec, NeuralTier};

fn test_image() -> easz::image::ImageF32 {
    Dataset::KodakLike.image(42).crop(96, 96, 128, 96)
}

fn default_encoder() -> EaszEncoder {
    EaszEncoder::new(EaszConfig::default()).expect("default config is valid")
}

#[test]
fn pipeline_round_trips_across_all_codecs() {
    let model = common::quick_model();
    let encoder = default_encoder();
    // The simulated codecs are not served by default; register them.
    let mut registry = CodecRegistry::with_defaults();
    registry
        .register(Box::new(NeuralSimCodec::new(NeuralTier::Mbt)))
        .register(Box::new(NeuralSimCodec::new(NeuralTier::ChengAnchor)));
    let decoder = EaszDecoder::with_registry(&model, registry);
    let img = test_image();
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let mbt = NeuralSimCodec::new(NeuralTier::Mbt);
    let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
    let codecs: [&dyn ImageCodec; 4] = [&jpeg, &bpg, &mbt, &cheng];
    for codec in codecs {
        let enc = encoder.compress(&img, codec, Quality::new(75)).expect("compress");
        // The decoder resolves the inner codec from the bitstream header —
        // no codec object crosses the edge/server boundary.
        let out = decoder.decode(&enc).expect("decode");
        assert_eq!((out.width(), out.height()), (img.width(), img.height()), "{}", codec.name());
        let p = psnr(&img, &out);
        assert!(p > 18.0, "{}: psnr {p:.2} too low for q75 + trained model", codec.name());
    }
}

#[test]
fn pipeline_works_at_multiple_erase_ratios_with_one_model() {
    // The agility claim: the same weights serve every erase ratio, and the
    // edge retunes by rebuilding its model-free encoder.
    let model = common::quick_model();
    let decoder = EaszDecoder::new(&model);
    let img = test_image();
    let codec = JpegLikeCodec::new();
    let mut previous_bpp = f64::INFINITY;
    for ratio in [0.125, 0.25, 0.375, 0.5] {
        let cfg = EaszConfig::builder().erase_ratio(ratio).mask_seed(2).build().expect("cfg");
        let encoder = EaszEncoder::new(cfg).expect("encoder");
        let enc = encoder.compress(&img, &codec, Quality::new(70)).expect("compress");
        let out = decoder.decode(&enc).expect("decode");
        assert!(
            enc.bpp() < previous_bpp,
            "bpp must shrink as the erase ratio grows (ratio {ratio})"
        );
        previous_bpp = enc.bpp();
        assert!(psnr(&img, &out) > 15.0, "ratio {ratio}: quality collapsed");
    }
}

#[test]
fn trained_reconstruction_beats_neighbor_fill() {
    // The model must outperform the cheap no-model baseline (Fig. 2(b)'s
    // neighbour fill) on erased content. MSE comparison, so grain synthesis
    // (a deliberate MSE-for-naturalness trade) is off.
    let model = common::quick_model();
    let cfg = EaszConfig { synthesize_grain: false, ..EaszConfig::default() };
    let encoder = EaszEncoder::new(cfg).expect("encoder");
    let decoder = EaszDecoder::new(&model);
    let img = test_image();
    let geometry = cfg.geometry();
    let (squeezed, mask) = encoder.erase_and_squeeze(&img);

    // Neighbour-fill baseline, assembled patch by patch.
    let patched = easz::core::Patchified::from_image(&img, geometry);
    let sqw = geometry.n - mask.erased_per_row() * geometry.b;
    let mut nf_patches = Vec::new();
    for i in 0..patched.patches.len() {
        let (px, py) = (i % patched.cols, i / patched.cols);
        let sq = squeezed.crop(px * sqw, py * geometry.n, sqw, geometry.n);
        nf_patches.push(easz::core::unsqueeze_patch(
            &sq,
            geometry,
            &mask,
            Orientation::Horizontal,
            FillMethod::Neighbor,
        ));
    }
    let nf = easz::core::Patchified { patches: nf_patches, ..patched }.to_image();

    // Model reconstruction through the lossless-ish path.
    let codec = JpegLikeCodec::new();
    let enc = encoder.compress(&img, &codec, Quality::new(95)).expect("compress");
    let out = decoder.decode(&enc).expect("decode");

    let m_model = mse(&img, &out);
    let m_nf = mse(&img, &nf);
    assert!(m_model < m_nf, "transformer ({m_model:.6}) must beat neighbour fill ({m_nf:.6})");
}

#[test]
fn proposed_mask_reconstructs_better_than_random() {
    // Fig. 3b's claim at the integration level.
    let model = common::quick_model();
    let decoder = EaszDecoder::new(&model);
    let img = test_image();
    let codec = JpegLikeCodec::new();
    let run = |strategy: MaskStrategy| {
        let cfg = EaszConfig::builder().strategy(strategy).mask_seed(7).build().expect("cfg");
        let encoder = EaszEncoder::new(cfg).expect("encoder");
        let enc = encoder.compress(&img, &codec, Quality::new(90)).expect("compress");
        let out = decoder.decode(&enc).expect("decode");
        mse(&img, &out)
    };
    let proposed = run(MaskStrategy::Proposed);
    let random = run(MaskStrategy::Random);
    assert!(
        proposed <= random * 1.05,
        "proposed {proposed:.6} should not lose to random {random:.6}"
    );
}

#[test]
fn diagonal_strategy_matches_paper_degenerate_case() {
    let cfg = EaszConfig { strategy: MaskStrategy::Diagonal, ..Default::default() };
    let encoder = EaszEncoder::new(cfg).expect("encoder");
    let img = test_image();
    let (squeezed, mask) = encoder.erase_and_squeeze(&img);
    assert_eq!(mask.erased_per_row(), 1, "diagonal mask erases one block per row");
    // Width shrinks by exactly one sub-patch per patch.
    let expect_w = img.width() / cfg.n * (cfg.n - cfg.b);
    assert_eq!(squeezed.width(), expect_w);
}

#[test]
fn encoded_form_survives_mask_byte_round_trip() {
    let encoder = default_encoder();
    let img = test_image();
    let codec = JpegLikeCodec::new();
    let enc = encoder.compress(&img, &codec, Quality::new(60)).expect("compress");
    let mask = easz::core::EraseMask::from_bytes(&enc.mask_bytes).expect("mask parse");
    assert_eq!(mask.n_grid(), 8);
    assert_eq!(mask.erased_per_row(), 2);
}

#[test]
fn independently_built_encoders_are_byte_equivalent() {
    // Migrated from the (now deleted) `EaszPipeline` shim's equivalence
    // test: two independently constructed sessions over the same config
    // must produce byte-identical containers, and the wire bytes must
    // round-trip losslessly through serialize/parse/decode.
    let model = common::quick_model();
    let decoder = EaszDecoder::new(&model);
    let img = test_image();
    let codec = JpegLikeCodec::new();
    let a = default_encoder().compress(&img, &codec, Quality::new(70)).expect("compress a");
    let b = default_encoder().compress(&img, &codec, Quality::new(70)).expect("compress b");
    assert_eq!(a, b);
    assert_eq!(a.to_bytes(), b.to_bytes());
    let reparsed = easz::core::EaszEncoded::from_bytes(&a.to_bytes()).expect("parse");
    assert_eq!(reparsed, a);
    let via_wire = decoder.decode(&reparsed).expect("decode reparsed");
    let direct = decoder.decode(&a).expect("decode direct");
    assert_eq!((via_wire.width(), via_wire.height()), (img.width(), img.height()));
    assert_eq!(via_wire.data(), direct.data(), "wire trip must not change the decode");
}

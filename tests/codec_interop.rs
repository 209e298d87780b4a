//! Cross-codec interoperability and robustness: bitstreams are
//! self-identifying, codecs reject each other's streams, and rate
//! targeting lands near its goal across content types.

use easz::codecs::{encode_to_bpp, BpgLikeCodec, ImageCodec, JpegLikeCodec, Quality};
use easz::data::Dataset;
use easz::testbed::{NeuralSimCodec, NeuralTier};

#[test]
fn codecs_reject_each_others_bitstreams() {
    let img = Dataset::KodakLike.image(2).crop(0, 0, 64, 64);
    let codecs: [Box<dyn ImageCodec>; 6] = [
        Box::new(JpegLikeCodec::new()),
        Box::new(BpgLikeCodec::new()),
        Box::new(NeuralSimCodec::new(NeuralTier::BalleFactorized)),
        Box::new(NeuralSimCodec::new(NeuralTier::BalleHyperprior)),
        Box::new(NeuralSimCodec::new(NeuralTier::Mbt)),
        Box::new(NeuralSimCodec::new(NeuralTier::ChengAnchor)),
    ];
    for producer in &codecs {
        let bytes = producer.encode(&img, Quality::new(70)).expect("encode");
        for reader in &codecs {
            let decoded = reader.decode(&bytes);
            if reader.id() == producer.id() {
                assert!(decoded.is_ok(), "{} must read its own stream", reader.name());
            } else {
                assert!(
                    decoded.is_err(),
                    "{} must reject {} streams",
                    reader.name(),
                    producer.name()
                );
            }
        }
    }
}

#[test]
fn truncated_streams_fail_gracefully() {
    let img = Dataset::KodakLike.image(3).crop(0, 0, 64, 64);
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    for codec in [&jpeg as &dyn ImageCodec, &bpg] {
        let bytes = codec.encode(&img, Quality::new(60)).expect("encode");
        // Header-only truncation must error, not panic.
        assert!(codec.decode(&bytes[..10.min(bytes.len())]).is_err(), "{}", codec.name());
    }
    // Range-coded payload truncation cannot always be detected (the coder
    // pads with zeros), but it must never panic.
    let bytes = bpg.encode(&img, Quality::new(60)).expect("encode");
    let _ = bpg.decode(&bytes[..bytes.len() / 2]);
}

#[test]
fn rate_targeting_lands_within_tolerance() {
    let img = Dataset::KodakLike.image(4).crop(0, 0, 128, 96);
    let jpeg = JpegLikeCodec::new();
    for target in [0.9f64, 1.4, 2.2] {
        let (q, enc) =
            encode_to_bpp(&jpeg, &img, target, img.width(), img.height(), 8).expect("rate");
        let got = enc.bpp();
        assert!((got - target).abs() / target < 0.6, "target {target} got {got:.3} at {q}");
    }
}

#[test]
fn all_codecs_handle_tiny_and_odd_images() {
    let img = Dataset::KodakLike.image(5).crop(0, 0, 19, 13);
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let cheng = NeuralSimCodec::new(NeuralTier::ChengAnchor);
    for codec in [&jpeg as &dyn ImageCodec, &bpg, &cheng] {
        let bytes = codec.encode(&img, Quality::new(60)).expect("encode");
        let out = codec.decode(&bytes).expect("decode");
        assert_eq!((out.width(), out.height()), (19, 13), "{}", codec.name());
    }
}

#[test]
fn quality_knob_is_rate_monotone_for_all_codecs() {
    let img = Dataset::KodakLike.image(6).crop(0, 0, 96, 64);
    let jpeg = JpegLikeCodec::new();
    let bpg = BpgLikeCodec::new();
    let mbt = NeuralSimCodec::new(NeuralTier::Mbt);
    for codec in [&jpeg as &dyn ImageCodec, &bpg, &mbt] {
        let lo = codec.encode(&img, Quality::new(10)).expect("lo").len();
        let hi = codec.encode(&img, Quality::new(90)).expect("hi").len();
        assert!(hi > lo, "{}: {lo} !< {hi}", codec.name());
    }
}

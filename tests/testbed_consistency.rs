//! Consistency checks between the analytic testbed and the real encoders:
//! payload sizes feed the network model, breakdowns stay self-consistent,
//! and the paper's headline systems ratios hold end to end.

use easz::codecs::{encode_with, JpegLikeCodec, Quality};
use easz::core::ReconstructorConfig;
use easz::data::Dataset;
use easz::testbed::{DeviceModel, NetworkModel, NeuralTier, Testbed, WorkloadProfile};

#[test]
fn real_payload_drives_transmit_time() {
    let tb = Testbed::paper();
    let img = Dataset::KodakLike.image(8).crop(0, 0, 256, 192);
    let codec = JpegLikeCodec::new();
    let small = encode_with(&codec, &img, Quality::new(20)).expect("encode");
    let large = encode_with(&codec, &img, Quality::new(95)).expect("encode");
    let w = WorkloadProfile::jpeg_like();
    let t_small = tb.run(&w, img.pixels(), small.bytes.len()).transmit_s;
    let t_large = tb.run(&w, img.pixels(), large.bytes.len()).transmit_s;
    assert!(t_large > t_small, "bigger payloads must take longer on the link");
}

#[test]
fn easz_end_to_end_latency_reduction_matches_paper_ballpark() {
    // Paper §IV-F: ~89% end-to-end reduction vs MBT/Cheng at 512x768.
    let tb = Testbed::paper();
    let pixels = 512 * 768;
    let easz =
        WorkloadProfile::easz(&WorkloadProfile::jpeg_like(), &ReconstructorConfig::paper(), 0.25);
    let easz_total = tb.run(&easz, pixels, 20_000).total_s();
    let mbt_total = tb.run(&WorkloadProfile::neural(NeuralTier::Mbt), pixels, 20_000).total_s();
    let reduction = 1.0 - easz_total / mbt_total;
    assert!(
        (0.7..0.98).contains(&reduction),
        "latency reduction {reduction:.2} (easz {easz_total:.2}s, mbt {mbt_total:.2}s)"
    );
}

#[test]
fn weaker_edge_hurts_neural_codecs_more_than_easz() {
    // Moving from TX2 to a GPU-less Pi 4 should barely change Easz (its
    // edge work is trivial) but cripple neural encode.
    let tx2 = Testbed::paper();
    let pi = Testbed {
        edge: DeviceModel::raspberry_pi4(),
        server: DeviceModel::server_2080ti(),
        network: NetworkModel::wifi(),
    };
    let pixels = 512 * 768;
    let easz =
        WorkloadProfile::easz(&WorkloadProfile::jpeg_like(), &ReconstructorConfig::paper(), 0.25);
    let mbt = WorkloadProfile::neural(NeuralTier::Mbt);
    let easz_slowdown =
        pi.run(&easz, pixels, 20_000).total_s() / tx2.run(&easz, pixels, 20_000).total_s();
    let mbt_slowdown =
        pi.run(&mbt, pixels, 20_000).total_s() / tx2.run(&mbt, pixels, 20_000).total_s();
    assert!(
        mbt_slowdown > easz_slowdown * 1.5,
        "mbt slowdown {mbt_slowdown:.2} vs easz slowdown {easz_slowdown:.2}"
    );
}

#[test]
fn energy_follows_power_times_time() {
    let tb = Testbed::paper();
    let w = WorkloadProfile::neural(NeuralTier::ChengAnchor);
    let pixels = 512 * 768;
    let energy = tb.edge_encode_energy(&w, pixels, 20_000);
    let lat = tb.run(&w, pixels, 20_000);
    let expect = tb.edge_encode_power(&w).total_w() * (lat.erase_squeeze_s + lat.compression_s);
    assert!((energy - expect).abs() < 1e-9);
    // ~18 s at ~2.6 W is tens of joules per frame — the paper's motivation
    // for not encoding with neural codecs on battery-powered endpoints.
    assert!(energy > 10.0, "cheng encode energy {energy:.1} J");
}

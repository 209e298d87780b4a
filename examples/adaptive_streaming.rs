//! Adaptive compression under a fluctuating uplink — the paper's "agile"
//! story (§I): because the erase ratio is a free knob with *one* model and
//! zero edge-side model switching, an Easz sender can retune its rate every
//! frame, whereas a neural codec would reload a different network
//! (286-11600 ms, Fig. 1) for every level change.
//!
//! This example streams a sequence of frames through a bandwidth trace and
//! picks the smallest erase ratio whose estimated transmit time fits the
//! frame budget.
//!
//! ```sh
//! cargo run --release --example adaptive_streaming
//! ```

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{zoo, EaszConfig, EaszDecoder, EaszEncoder};
use easz::data::Dataset;
use easz::metrics::psnr;
use easz::testbed::{NetworkModel, NeuralTier, Testbed, WorkloadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::pretrained(zoo::PretrainSpec::quick());
    let decoder = EaszDecoder::new(&model);
    let codec = JpegLikeCodec::new();
    let quality = Quality::new(70);
    let frame_budget_s = 0.50;

    // A Wi-Fi link whose effective bandwidth swings (congestion).
    let bandwidths_mbps = [1.6, 1.2, 0.8, 0.5, 0.9, 1.6, 2.4];
    let ratios = [0.125, 0.25, 0.375, 0.5];

    println!(
        "{:<6} {:>10} {:>8} {:>10} {:>10} {:>9}",
        "frame", "bw (Mbps)", "ratio", "bytes", "tx (ms)", "psnr"
    );
    let mut switches = 0usize;
    let mut last_ratio = f64::NAN;
    for (frame, &bw) in bandwidths_mbps.iter().enumerate() {
        let image = Dataset::KodakLike.image(frame).crop(0, 0, 256, 192);
        let net = NetworkModel { bandwidth_bps: bw * 1e6, ..NetworkModel::wifi() };
        // Pick the smallest erase ratio that fits the frame budget.
        let mut chosen = None;
        for &ratio in &ratios {
            let cfg = EaszConfig::builder().erase_ratio(ratio).mask_seed(frame as u64).build()?;
            // The sender retunes its rate by rebuilding the model-free
            // encoder — no weights move, only the mask changes.
            let encoder = EaszEncoder::new(cfg)?;
            let enc = encoder.compress(&image, &codec, quality)?;
            let tx = net.transmit_seconds(enc.total_bytes());
            if tx <= frame_budget_s || ratio == *ratios.last().expect("nonempty") {
                let restored = decoder.decode(&enc)?;
                chosen = Some((ratio, enc.total_bytes(), tx, psnr(&image, &restored)));
                break;
            }
        }
        let (ratio, bytes, tx, q) = chosen.expect("a ratio is always chosen");
        if ratio != last_ratio && frame > 0 {
            switches += 1;
        }
        last_ratio = ratio;
        println!("{frame:<6} {bw:>10.1} {ratio:>8.3} {bytes:>10} {:>10.0} {q:>9.2}", tx * 1e3);
    }

    // What the same agility would cost a neural codec: one model reload per
    // level switch.
    let tb = Testbed::paper();
    let mbt_reload = tb.edge_load_seconds(&WorkloadProfile::neural(NeuralTier::Mbt));
    println!("\n{switches} level switches; Easz switch cost: 0 ms (same model, new mask)");
    println!(
        "equivalent MBT switch cost: {:.0} ms per switch = {:.1} s total",
        mbt_reload * 1e3,
        mbt_reload * switches as f64
    );
    Ok(())
}

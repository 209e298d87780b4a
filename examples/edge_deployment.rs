//! Edge-deployment planning with the simulated testbed: where does the
//! time, power and memory go when a Jetson TX2 (or a Raspberry Pi 4)
//! streams camera frames to a server, for Easz vs the neural baselines?
//!
//! Reproduces the reasoning behind the paper's Figs. 1 and 6 with a report
//! you can re-run for your own device/link constants.
//!
//! ```sh
//! cargo run --release --example edge_deployment
//! ```

use easz::core::ReconstructorConfig;
use easz::testbed::{DeviceModel, NetworkModel, NeuralTier, Testbed, WorkloadProfile};

fn main() {
    let pixels = 512 * 768;
    let payload = 20_000; // ~0.4 bpp at 512x768

    for edge in [DeviceModel::jetson_tx2(), DeviceModel::raspberry_pi4()] {
        let tb = Testbed {
            edge: edge.clone(),
            server: DeviceModel::server_2080ti(),
            network: NetworkModel::wifi(),
        };
        println!("=== edge: {} ===", edge.name);
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "scheme", "load(ms)", "enc(ms)", "tx(ms)", "total(ms)", "power(W)", "mem(GB)"
        );
        let schemes = [
            WorkloadProfile::jpeg_like(),
            WorkloadProfile::bpg_like(),
            WorkloadProfile::easz(
                &WorkloadProfile::jpeg_like(),
                &ReconstructorConfig::paper(),
                0.25,
            ),
            WorkloadProfile::neural(NeuralTier::BalleHyperprior),
            WorkloadProfile::neural(NeuralTier::Mbt),
            WorkloadProfile::neural(NeuralTier::ChengAnchor),
        ];
        for w in &schemes {
            let lat = tb.run(w, pixels, payload);
            let load = tb.edge_load_seconds(w);
            let power = tb.edge_encode_power(w);
            let mem = tb.edge_encode_memory(w, pixels) as f64 / 1e9;
            println!(
                "{:<16} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>9.2} {:>9.2}",
                w.name,
                load * 1e3,
                (lat.erase_squeeze_s + lat.compression_s) * 1e3,
                lat.transmit_s * 1e3,
                (load + lat.total_s()) * 1e3,
                power.total_w(),
                mem
            );
        }
        println!();
    }
    println!("note: neural encode on the pi4 falls back to CPU — the paper's");
    println!("\"many endpoints are less potent than the TX2\" argument in numbers.");
}

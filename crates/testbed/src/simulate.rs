//! End-to-end pipeline simulation: latency breakdowns, power and memory
//! (the machinery behind Fig. 1, Fig. 6 and Fig. 8d).

use crate::device::DeviceModel;
use crate::network::NetworkModel;
use crate::workload::WorkloadProfile;

/// One edge-server deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Testbed {
    /// The sending device (camera side).
    pub edge: DeviceModel,
    /// The receiving device.
    pub server: DeviceModel,
    /// The link between them.
    pub network: NetworkModel,
}

impl Testbed {
    /// The paper's testbed: Jetson TX2 edge, 2080Ti server, Wi-Fi.
    pub fn paper() -> Self {
        Self {
            edge: DeviceModel::jetson_tx2(),
            server: DeviceModel::server_2080ti(),
            network: NetworkModel::wifi(),
        }
    }
}

/// Latency breakdown of one image through one scheme, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Edge-side pre-transform (Easz's erase-and-squeeze; zero otherwise).
    pub erase_squeeze_s: f64,
    /// Edge-side encode (inner codec or neural encoder).
    pub compression_s: f64,
    /// Network transmission of the payload.
    pub transmit_s: f64,
    /// Server-side decode.
    pub decompression_s: f64,
    /// Server-side reconstruction (Easz's transformer; zero otherwise).
    pub reconstruction_s: f64,
}

impl LatencyBreakdown {
    /// End-to-end total.
    pub fn total_s(&self) -> f64 {
        self.erase_squeeze_s
            + self.compression_s
            + self.transmit_s
            + self.decompression_s
            + self.reconstruction_s
    }
}

/// Power draw during the edge-side encode phase, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// CPU rail.
    pub cpu_w: f64,
    /// GPU rail.
    pub gpu_w: f64,
}

impl PowerEstimate {
    /// Combined draw.
    pub fn total_w(&self) -> f64 {
        self.cpu_w + self.gpu_w
    }
}

impl Testbed {
    /// Simulates one image through a workload.
    ///
    /// * `pixels` — source image pixel count.
    /// * `payload_bytes` — actual compressed size to transmit (from a real
    ///   encode, so rate effects are genuine).
    pub fn run(
        &self,
        w: &WorkloadProfile,
        pixels: usize,
        payload_bytes: usize,
    ) -> LatencyBreakdown {
        let px = pixels as f64;
        // Easz's erase-and-squeeze shows up as a separate (tiny) stage; we
        // attribute the first 10 FLOPs/px of a model-free encode to it.
        let (es_flops, enc_flops) = if w.recon_flops_per_pixel > 0.0 {
            (10.0 * px, (w.encode_flops_per_pixel - 10.0).max(0.0) * px)
        } else {
            (0.0, w.encode_flops_per_pixel * px)
        };
        let erase_squeeze_s = self.edge.cpu_seconds(es_flops);
        let compression_s = if w.encode_on_gpu {
            self.edge.nn_seconds(enc_flops) * w.serial_penalty
        } else {
            self.edge.cpu_seconds(enc_flops)
        };
        let transmit_s = self.network.transmit_seconds(payload_bytes);
        let decompression_s = if w.decode_on_gpu {
            self.server.conv_seconds(w.decode_flops_per_pixel * px) * w.serial_penalty
        } else {
            self.server.cpu_seconds(w.decode_flops_per_pixel * px)
        };
        let reconstruction_s = self.server.nn_seconds(w.recon_flops_per_pixel * px);
        LatencyBreakdown {
            erase_squeeze_s,
            compression_s,
            transmit_s,
            decompression_s,
            reconstruction_s,
        }
    }

    /// Model-load (cold-start / level-switch) latency on the edge.
    ///
    /// The paper's Fig. 1 "Load Latency": switching compression level on a
    /// neural codec means loading a different model; Easz and classical
    /// codecs load nothing.
    pub fn edge_load_seconds(&self, w: &WorkloadProfile) -> f64 {
        let base = self.edge.model_load_seconds(w.edge_model_bytes);
        if base == 0.0 {
            0.0
        } else {
            base + w.extra_init_s
        }
    }

    /// Edge power draw while encoding.
    pub fn edge_encode_power(&self, w: &WorkloadProfile) -> PowerEstimate {
        let d = &self.edge;
        let cpu_w = d.cpu_idle_w + w.encode_cpu_utilisation * (d.cpu_active_w - d.cpu_idle_w);
        let gpu_w = if w.encode_on_gpu {
            d.gpu_idle_w + w.encode_gpu_utilisation * (d.gpu_active_w - d.gpu_idle_w)
        } else {
            0.0
        };
        PowerEstimate { cpu_w, gpu_w }
    }

    /// Edge memory footprint while encoding, bytes.
    pub fn edge_encode_memory(&self, w: &WorkloadProfile, pixels: usize) -> u64 {
        self.edge.base_memory
            + w.edge_model_bytes
            + (w.encode_mem_bytes_per_pixel * pixels as f64) as u64
    }

    /// Edge energy for one image's encode phase, joules.
    pub fn edge_encode_energy(
        &self,
        w: &WorkloadProfile,
        pixels: usize,
        payload_bytes: usize,
    ) -> f64 {
        let lat = self.run(w, pixels, payload_bytes);
        self.edge_encode_power(w).total_w() * (lat.erase_squeeze_s + lat.compression_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuralTier;
    use easz_core::ReconstructorConfig;

    const PIXELS_512X768: usize = 512 * 768;

    #[test]
    fn fig1_shape_load_and_encode_dwarf_transmission() {
        // The paper's headline gap: NN encode/load on the TX2 is orders of
        // magnitude above the ~0.15 s transmission.
        let tb = Testbed::paper();
        for tier in [NeuralTier::Mbt, NeuralTier::ChengAnchor] {
            let w = WorkloadProfile::neural(tier);
            let lat = tb.run(&w, PIXELS_512X768, 20_000);
            let load = tb.edge_load_seconds(&w);
            assert!(
                lat.compression_s > 10.0 * lat.transmit_s,
                "{}: encode {:.2}s vs transmit {:.3}s",
                w.name,
                lat.compression_s,
                lat.transmit_s
            );
            assert!(load > lat.transmit_s, "{}: load {load:.2}s", w.name);
        }
    }

    #[test]
    fn fig1_magnitudes_match_paper_ranges() {
        let tb = Testbed::paper();
        let mbt = WorkloadProfile::neural(NeuralTier::Mbt);
        let cheng = WorkloadProfile::neural(NeuralTier::ChengAnchor);
        let mbt_enc = tb.run(&mbt, PIXELS_512X768, 20_000).compression_s;
        let cheng_enc = tb.run(&cheng, PIXELS_512X768, 20_000).compression_s;
        // Paper: 17952 ms and 18015 ms.
        assert!((10.0..30.0).contains(&mbt_enc), "mbt encode {mbt_enc:.2}s");
        assert!((10.0..30.0).contains(&cheng_enc), "cheng encode {cheng_enc:.2}s");
        // Paper: load 1361 ms (MBT) and 11600 ms (Cheng; bundled rate points).
        let mbt_load = tb.edge_load_seconds(&mbt);
        assert!((0.4..3.0).contains(&mbt_load), "mbt load {mbt_load:.2}s");
    }

    #[test]
    fn fig6a_shape_easz_recon_dominates_but_total_is_far_below_neural() {
        let tb = Testbed::paper();
        let easz = WorkloadProfile::easz(
            &WorkloadProfile::jpeg_like(),
            &ReconstructorConfig::paper(),
            0.25,
        );
        let lat = tb.run(&easz, PIXELS_512X768, 20_000);
        let total = lat.total_s();
        // Paper: erase-and-squeeze is ~0.7% of end-to-end latency...
        assert!(
            lat.erase_squeeze_s / total < 0.05,
            "erase+squeeze fraction {:.3}",
            lat.erase_squeeze_s / total
        );
        // ...reconstruction is the largest slice (~74%)...
        assert!(
            lat.reconstruction_s / total > 0.4,
            "recon fraction {:.3}",
            lat.reconstruction_s / total
        );
        // ...and the total sits near the paper's 2.5 s, far below MBT/Cheng.
        assert!((0.5..6.0).contains(&total), "easz total {total:.2}s");
        let mbt_total =
            tb.run(&WorkloadProfile::neural(NeuralTier::Mbt), PIXELS_512X768, 20_000).total_s();
        assert!(mbt_total > 4.0 * total, "mbt {mbt_total:.1}s vs easz {total:.1}s");
    }

    #[test]
    fn fig6b_shape_easz_uses_no_gpu_power_and_less_total() {
        let tb = Testbed::paper();
        let easz = WorkloadProfile::easz(
            &WorkloadProfile::jpeg_like(),
            &ReconstructorConfig::paper(),
            0.25,
        );
        let p_easz = tb.edge_encode_power(&easz);
        assert_eq!(p_easz.gpu_w, 0.0, "easz must not touch the edge GPU");
        for tier in [NeuralTier::Mbt, NeuralTier::ChengAnchor] {
            let p = tb.edge_encode_power(&WorkloadProfile::neural(tier));
            // Paper: 71.3% / 59.9% total power reduction.
            let reduction = 1.0 - p_easz.total_w() / p.total_w();
            assert!((0.4..0.9).contains(&reduction), "{tier:?} power reduction {reduction:.2}");
        }
    }

    #[test]
    fn fig6c_shape_memory_footprints() {
        let tb = Testbed::paper();
        let easz = WorkloadProfile::easz(
            &WorkloadProfile::jpeg_like(),
            &ReconstructorConfig::paper(),
            0.25,
        );
        let gb = |b: u64| b as f64 / 1e9;
        let m_easz = gb(tb.edge_encode_memory(&easz, PIXELS_512X768));
        let m_mbt =
            gb(tb.edge_encode_memory(&WorkloadProfile::neural(NeuralTier::Mbt), PIXELS_512X768));
        let m_cheng = gb(tb
            .edge_encode_memory(&WorkloadProfile::neural(NeuralTier::ChengAnchor), PIXELS_512X768));
        // Paper: 1.05 / 1.93 / 1.98 GB.
        assert!((0.8..1.3).contains(&m_easz), "easz {m_easz:.2} GB");
        assert!((1.5..2.4).contains(&m_mbt), "mbt {m_mbt:.2} GB");
        assert!(m_cheng >= m_mbt, "cheng {m_cheng:.2} GB");
        // 45%+ reduction as the paper reports.
        assert!(1.0 - m_easz / m_mbt > 0.3);
    }

    #[test]
    fn breakdown_parts_sum_to_total() {
        let tb = Testbed::paper();
        let w = WorkloadProfile::bpg_like();
        let lat = tb.run(&w, 10_000, 5_000);
        let sum = lat.erase_squeeze_s
            + lat.compression_s
            + lat.transmit_s
            + lat.decompression_s
            + lat.reconstruction_s;
        assert!((sum - lat.total_s()).abs() < 1e-12);
    }

    #[test]
    fn a100_accelerates_reconstruction() {
        // The paper's remark: upgrading the server GPU shrinks the dominant
        // reconstruction slice.
        let mut tb = Testbed::paper();
        let easz = WorkloadProfile::easz(
            &WorkloadProfile::jpeg_like(),
            &ReconstructorConfig::paper(),
            0.25,
        );
        let before = tb.run(&easz, PIXELS_512X768, 20_000).reconstruction_s;
        tb.server = DeviceModel::server_a100();
        let after = tb.run(&easz, PIXELS_512X768, 20_000).reconstruction_s;
        assert!(after < before / 5.0, "{after:.3}s vs {before:.3}s");
    }
}

//! Device models for the simulated edge-server testbed.
//!
//! The paper's testbed is an NVIDIA Jetson TX2 edge device and an
//! i7-9700K + RTX 2080Ti server on Wi-Fi. Each device here is an analytic
//! model — sustained throughputs, load bandwidth and power rails — with
//! constants calibrated so the paper's measured magnitudes are reproduced
//! (see `profiles.rs` for the calibration notes).

/// An execution device (edge board or server).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Display name.
    pub name: String,
    /// Sustained CPU throughput for image-processing code, in FLOP/s.
    pub cpu_flops: f64,
    /// Sustained GPU throughput for NN inference (small-batch, fp16-ish
    /// efficiency already folded in), in FLOP/s. `None` = no usable GPU.
    pub gpu_flops: Option<f64>,
    /// Sustained GPU throughput for large, regular conv workloads (the
    /// neural codecs' analysis/synthesis transforms), FLOP/s.
    pub gpu_conv_flops: Option<f64>,
    /// Model-load bandwidth (storage read + weight unpacking), bytes/s.
    pub load_bandwidth: f64,
    /// Fixed framework/model initialisation overhead per load, seconds.
    pub load_overhead_s: f64,
    /// CPU power at idle, watts.
    pub cpu_idle_w: f64,
    /// CPU power under full load, watts.
    pub cpu_active_w: f64,
    /// GPU power at idle, watts.
    pub gpu_idle_w: f64,
    /// GPU power under full load, watts.
    pub gpu_active_w: f64,
    /// Baseline process memory (runtime + framework), bytes.
    pub base_memory: u64,
}

impl DeviceModel {
    /// NVIDIA Jetson TX2 (the paper's edge device).
    pub fn jetson_tx2() -> Self {
        Self {
            name: "jetson-tx2".into(),
            // Quad A57 + Denver2: a few GFLOP/s of sustained scalar image code.
            cpu_flops: 6.0e9,
            // 256-core Pascal, 1.33 TFLOPS fp16 peak, ~20% sustained on
            // small-batch conv/transformer workloads.
            gpu_flops: Some(266.0e9),
            gpu_conv_flops: Some(266.0e9),
            // eMMC + weight deserialisation.
            load_bandwidth: 100.0e6,
            load_overhead_s: 0.15,
            cpu_idle_w: 0.3,
            cpu_active_w: 1.2,
            gpu_idle_w: 0.1,
            gpu_active_w: 2.2,
            base_memory: 1_000_000_000, // OS + Python runtime footprint
        }
    }

    /// Raspberry Pi 4 (the weaker endpoint the paper argues for).
    pub fn raspberry_pi4() -> Self {
        Self {
            name: "raspberry-pi4".into(),
            cpu_flops: 3.0e9,
            gpu_flops: None,
            gpu_conv_flops: None,
            load_bandwidth: 40.0e6,
            load_overhead_s: 0.3,
            cpu_idle_w: 0.6,
            cpu_active_w: 3.8,
            gpu_idle_w: 0.0,
            gpu_active_w: 0.0,
            base_memory: 500_000_000,
        }
    }

    /// i7-9700K + RTX 2080Ti (the paper's server).
    pub fn server_2080ti() -> Self {
        Self {
            name: "server-2080ti".into(),
            cpu_flops: 50.0e9,
            // 13.4 TFLOPS fp32 peak; sustained small-batch transformer
            // inference lands far lower — calibrated against the paper's
            // ~1.9 s reconstruction slice for a 512×768 image (Fig. 6a).
            gpu_flops: Some(60.0e9),
            gpu_conv_flops: Some(2.0e12),
            load_bandwidth: 2.0e9,
            load_overhead_s: 0.05,
            cpu_idle_w: 10.0,
            cpu_active_w: 95.0,
            gpu_idle_w: 15.0,
            gpu_active_w: 250.0,
            base_memory: 2_000_000_000,
        }
    }

    /// Datacenter-class A100 (the paper's "can be significantly improved by
    /// upgrading" remark).
    pub fn server_a100() -> Self {
        Self {
            name: "server-a100".into(),
            cpu_flops: 100.0e9,
            gpu_flops: Some(1.2e12),
            gpu_conv_flops: Some(20.0e12),
            load_bandwidth: 10.0e9,
            load_overhead_s: 0.02,
            cpu_idle_w: 20.0,
            cpu_active_w: 150.0,
            gpu_idle_w: 40.0,
            gpu_active_w: 400.0,
            base_memory: 4_000_000_000,
        }
    }

    /// Seconds to load `bytes` of model weights on this device.
    pub fn model_load_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.load_overhead_s + bytes as f64 / self.load_bandwidth
    }

    /// Seconds to run `flops` of parallel NN work (GPU if present, CPU
    /// otherwise).
    pub fn nn_seconds(&self, flops: f64) -> f64 {
        flops / self.gpu_flops.unwrap_or(self.cpu_flops)
    }

    /// Seconds to run `flops` of large, regular conv work.
    pub fn conv_seconds(&self, flops: f64) -> f64 {
        flops / self.gpu_conv_flops.or(self.gpu_flops).unwrap_or(self.cpu_flops)
    }

    /// Seconds to run `flops` of scalar CPU work.
    pub fn cpu_seconds(&self, flops: f64) -> f64 {
        flops / self.cpu_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_time_scales_with_model_size() {
        let tx2 = DeviceModel::jetson_tx2();
        let small = tx2.model_load_seconds(12 * 1024 * 1024);
        let big = tx2.model_load_seconds(120 * 1024 * 1024);
        assert!(big > small * 3.0, "{small} vs {big}");
        assert_eq!(tx2.model_load_seconds(0), 0.0, "no model, no load");
    }

    #[test]
    fn server_is_faster_than_edge() {
        let tx2 = DeviceModel::jetson_tx2();
        let srv = DeviceModel::server_a100();
        let flops = 1.0e11;
        assert!(srv.nn_seconds(flops) < tx2.nn_seconds(flops));
        assert!(srv.cpu_seconds(flops) < tx2.cpu_seconds(flops));
    }

    #[test]
    fn cpu_only_device_falls_back_to_cpu() {
        let pi = DeviceModel::raspberry_pi4();
        assert_eq!(pi.gpu_flops, None);
        assert!((pi.nn_seconds(3.0e9) - 1.0).abs() < 1e-9);
    }
}

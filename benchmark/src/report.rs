//! The metric registry — the same names, units and order as
//! `BENCHMARK.json`, which a unit test holds it to — and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["edge_encode", "decode_offline", "serve_steady", "serve_batch"];

/// End-to-end metrics `(name, unit)`: printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_mpx_s", "Mpx/s"),
    ("wire_bpp", "bit/px"),
    ("psnr_db", "dB"),
    ("peak_heap_mib", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload's traced run;
/// a layer the workload does not enter reads 0.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("core.encoder.compress_ms", "ms"),
    ("core.encoder.self_ms", "ms"),
    ("core.encoder.alloc_count", "count"),
    ("core.encoder.alloc_mib", "MiB"),
    ("core.mask.make_mask_us", "us"),
    ("core.mask.side_channel_bytes", "bytes"),
    ("core.patchify.from_image_ms", "ms"),
    ("core.squeeze.erase_and_squeeze_ms", "ms"),
    ("core.squeeze.pixel_saving_share", "ratio"),
    ("codecs.jpeg.encode_ms", "ms"),
    ("codecs.jpeg.payload_bytes", "bytes"),
    ("codecs.jpeg.decode_ms", "ms"),
    ("core.container.to_bytes_us", "us"),
    ("core.container.parse_us", "us"),
    ("core.container.wire_bytes", "bytes"),
    ("core.decoder.decode_batch_ms", "ms"),
    ("core.decoder.stage_parse_ms", "ms"),
    ("core.decoder.stage_plan_ms", "ms"),
    ("core.decoder.stage_forward_ms", "ms"),
    ("core.decoder.stage_finish_ms", "ms"),
    ("core.decoder.self_ms", "ms"),
    ("core.decoder.fused_groups_per_batch", "count"),
    ("core.decoder.mean_group_width", "count"),
    ("core.decoder.f32_mpx_s", "Mpx/s"),
    ("core.decoder.q8_mpx_s", "Mpx/s"),
    ("core.plan.build_us", "us"),
    ("core.plan.multi_build_us", "us"),
    ("core.plan.cached_plans", "count"),
    ("core.plan.miss_share", "ratio"),
    ("core.model.infer_f32_small_ms", "ms"),
    ("core.model.infer_q8_small_ms", "ms"),
    ("core.model.infer_f32_large_ms", "ms"),
    ("core.model.infer_q8_large_ms", "ms"),
    ("core.model.flop_per_patch", "flop"),
    ("tensor.parallel.matmul_small_gflops", "Gflop/s"),
    ("tensor.parallel.matmul_large_gflops", "Gflop/s"),
    ("tensor.parallel.qmatmul_large_gops", "Gop/s"),
    ("tensor.parallel.batch_matmul_gflops", "Gflop/s"),
    ("tensor.infer.steady_allocs_per_decode", "count"),
    ("server.front.admit_p50_us", "us"),
    ("server.front.admit_p90_us", "us"),
    ("server.front.reply_p50_us", "us"),
    ("server.front.reply_p90_us", "us"),
    ("server.front.connections_accepted", "count"),
    ("server.front.requests_shed", "count"),
    ("server.batcher.window_wait_p50_us", "us"),
    ("server.batcher.window_wait_p90_us", "us"),
    ("server.batcher.dispatch_wait_p50_us", "us"),
    ("server.batcher.dispatch_wait_p90_us", "us"),
    ("server.batcher.windows", "count"),
    ("server.batcher.mean_width", "count"),
    ("server.batcher.fused_share", "ratio"),
    ("server.batcher.queue_peak", "count"),
    ("server.batcher.inline_decodes", "count"),
    ("server.batcher.deadlines_expired", "count"),
    ("server.metrics.service_p50_us", "us"),
    ("server.metrics.decode_p50_us", "us"),
    ("server.trace.span_total_p50_us", "us"),
    ("server.trace.span_total_p90_us", "us"),
    ("server.trace.decode_p50_us", "us"),
    ("server.protocol.wire_overhead_us", "us"),
    ("server.protocol.frame_bytes_in", "bytes"),
    ("server.protocol.frame_bytes_out", "bytes"),
    ("server.client.batch_rtt_minus_decode_ms", "ms"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.generator_late_max_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.latency_max_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.host_spin_ms", "ms"),
    ("bench.failed_share", "ratio"),
];

/// One metric reading with what it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// Samples behind it (0 for counts and computed values).
    pub samples: usize,
    /// The per-window values whose median it is (empty otherwise).
    pub windows: Vec<f64>,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase and the check phases.
    pub attempted: u64,
    /// Operations that errored, were refused or failed a correctness check.
    pub failed: u64,
    /// Why `failed` is what it is, one line per failing check.
    pub failures: Vec<String>,
    /// The host-speed loop (`harness::host_speed_ms`) before and after the
    /// phase the metrics come from: a diagnostic, to tell a noisy host from
    /// a slow program.
    pub host_spin_ms: [f64; 2],
    readings: BTreeMap<&'static str, Reading>,
}

impl Report {
    /// Records a count or computed value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_timing(name, value, 0, Vec::new());
    }

    /// Records a timing with its sample count and window values.
    pub fn set_timing(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        windows: Vec<f64>,
    ) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a registered metric"
        );
        self.readings.insert(name, Reading { value, samples, windows });
    }

    /// Counts a check over `ops` operations of which `bad` failed.
    pub fn check(&mut self, what: &str, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{what}: {bad} of {ops} failed"));
        }
    }

    /// A reading recorded earlier.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.readings.get(name)
    }

    /// The readings of `registry`, in its order. End-to-end readings must
    /// all be present and nonzero; a missing per-layer reading is a layer
    /// the workload never entered and reads 0.
    fn rows(&self, traced: bool) -> Result<Vec<(&'static str, &'static str, Reading)>, String> {
        let registry: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        registry
            .iter()
            .map(|&(name, unit)| match self.readings.get(name) {
                Some(r) if r.value.is_finite() && (traced || r.value != 0.0) => {
                    Ok((name, unit, r.clone()))
                }
                Some(r) => Err(format!("{name} read {}", r.value)),
                None if traced => {
                    Ok((name, unit, Reading { value: 0.0, samples: 0, windows: Vec::new() }))
                }
                None => Err(format!("{name} was not measured")),
            })
            .collect()
    }

    /// Prints every metric by name with its unit and sample count, then —
    /// as the last line of standard output — the result object. Returns the
    /// line written to `--out` files, which also carries the window values.
    ///
    /// # Errors
    ///
    /// When an end-to-end metric is missing, zero or not finite.
    pub fn print(
        &self,
        workload: &str,
        seed: u64,
        seconds: u64,
        traced: bool,
    ) -> Result<String, String> {
        let rows = self.rows(traced)?;
        let correct = self.failed == 0;
        println!("== {workload} seed={seed} seconds={seconds} trace={} ==", u8::from(traced));
        println!(
            "attempted={} ok={} failed={}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for line in &self.failures {
            println!("FAILED CHECK {line}");
        }
        let [spin_before, spin_after] = self.host_spin_ms;
        println!("host_spin_ms before and after the phase: {spin_before:.4} {spin_after:.4}");
        let mut metrics = String::new();
        let mut detailed = String::new();
        for (i, (name, unit, r)) in rows.iter().enumerate() {
            let spread = if r.windows.len() >= 2 {
                let (q1, _, q3) = crate::stats::quartiles(&r.windows);
                format!("  windows={} iqr={:.4}", r.windows.len(), q3 - q1)
            } else {
                String::new()
            };
            let samples = if r.samples > 0 { format!("  n={}", r.samples) } else { String::new() };
            println!("{name:<44} {:>14.6} {unit}{samples}{spread}", r.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                r.value
            );
            let windows: Vec<String> = r.windows.iter().map(f64::to_string).collect();
            let _ = write!(
                detailed,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}, \"windows\": [{}]}}",
                r.value,
                r.samples,
                windows.join(", ")
            );
        }
        let head = format!(
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
            self.attempted, self.failed
        );
        println!("{{{head}, \"metrics\": {{{metrics}}}}}");
        Ok(format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"host_spin_ms\": [{spin_before}, {spin_after}], {head}, \"metrics\": {{{detailed}}}}}",
            u8::from(traced)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` sits at the repository root, outside this package;
    /// where the package is checked out alone there is nothing to compare.
    fn spec() -> Option<Value> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path)
            .ok()
            .map(|text| json::parse(&text).expect("BENCHMARK.json parses"))
    }

    fn names_and_units(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Value::as_str).expect("a string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_registry_is_what_benchmark_json_declares() {
        let Some(spec) = spec() else { return };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names_and_units(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn an_untraced_report_needs_every_end_to_end_metric_nonzero() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        assert!(report.print("edge_encode", 1, 1, false).is_ok());
        report.set("psnr_db", 0.0);
        assert!(report.print("edge_encode", 1, 1, false).is_err());
    }

    #[test]
    fn a_traced_report_reads_zero_for_layers_never_entered() {
        let mut report = Report::default();
        report.set("core.encoder.compress_ms", 40.0);
        let line =
            report.print("edge_encode", 1, 1, true).expect("per-layer metrics may be absent");
        let parsed = json::parse(&line).expect("the result line is JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("server.batcher.windows")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(metrics.as_object().map(<[(String, Value)]>::len), Some(PER_LAYER.len()));
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut report = Report::default();
        report.check("round trip", 18, 0);
        report.check("canvas size", 18, 2);
        assert_eq!((report.attempted, report.failed), (36, 2));
        assert_eq!(report.failures.len(), 1);
    }
}

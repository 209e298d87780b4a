//! Per-layer probes of the traced pass that no workload loop reaches from
//! outside: the forward and the matmul kernels at the two shapes the
//! workloads use, plan building, container parsing, the inner codec's
//! decode, and the steady-state allocation count of a decode.
//!
//! Each probe calls a layer's public function directly and records the
//! calls as spans. `edge_encode` runs none of them.

use crate::alloc;
use crate::harness::mean;
use crate::inputs::Rng;
use crate::report::Report;
use crate::spans::Recorder;
use easz_codecs::CodecRegistry;
use easz_core::{
    DecodeEngine, DecodePlan, EaszConfig, EaszDecoder, EaszEncoded, EraseMask, MultiMaskPlan,
    Reconstructor, ReconstructorConfig, TokenBatch,
};
use easz_tensor::parallel::{par_batch_matmul, par_matmul};
use easz_tensor::{InferenceSession, ParamSet, QuantizedMatrix, ScratchArena, Tensor};
use std::hint::black_box;

/// Patches of the large shape: one `decode_offline` batch, four 128×128
/// containers of 16 patches each, fused into one multi-mask forward.
pub const LARGE_PATCHES: usize = 64;
/// Streams the large shape's patches belong to (one mask each).
const LARGE_STREAMS: usize = 4;

/// Calls `f(0..reps)` as spans named `name` and returns the mean µs, after
/// one unrecorded call that warms caches and arenas.
fn probe(rec: &Recorder, name: &'static str, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let durations: Vec<f64> =
        (0..reps).map(|i| rec.duration_us(rec.time(name, None, i as u64, || f(i)).1)).collect();
    mean(&durations)
}

fn pseudo_random(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.unit() as f32).collect()
}

fn token_batch(rng: &mut Rng, cfg: &ReconstructorConfig, patches: usize) -> TokenBatch {
    let tokens: Vec<Vec<Vec<f32>>> = (0..patches)
        .map(|_| (0..cfg.seq_len()).map(|_| pseudo_random(rng, cfg.token_dim())).collect())
        .collect();
    TokenBatch::from_patches(&tokens)
}

/// Floating-point operations of one patch's forward at `kept` un-erased
/// tokens, computed from the configuration (2 per multiply-accumulate;
/// matmuls only — norms, softmax and GELU are a few percent more).
pub fn flop_per_patch(cfg: &ReconstructorConfig, kept: usize) -> f64 {
    let (d, ffn, dim, seq) =
        (cfg.d_model as f64, cfg.ffn as f64, cfg.token_dim() as f64, cfg.seq_len() as f64);
    // Per block over `t` tokens: QKV and output projections (4·t·d²), the
    // scores and the weighted sum (2·t²·d), the feed-forward (2·t·d·ffn).
    let block = |t: f64| 4.0 * t * d * d + 2.0 * t * t * d + 2.0 * t * d * ffn;
    let m = kept as f64;
    2.0 * (m * dim * d
        + cfg.encoder_blocks as f64 * block(m)
        + cfg.decoder_blocks as f64 * block(seq)
        + seq * d * dim)
}

/// `core.model.*`: the forward on a warm arena at one patch (what a
/// `serve_steady` request costs) and at [`LARGE_PATCHES`] patches under four
/// masks (what a `decode_offline` batch costs), on both numeric tiers.
pub fn model(rec: &Recorder, report: &mut Report, model: &Reconstructor) {
    let cfg = model.config();
    let mut rng = Rng::new(0, 11);
    let masks: Vec<_> = (0..LARGE_STREAMS as u64)
        .map(|s| EaszConfig { mask_seed: 100 + s, ..Default::default() }.make_mask())
        .collect();
    let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
    let streams: Vec<(&DecodePlan, usize)> =
        plans.iter().map(|p| (p, LARGE_PATCHES / LARGE_STREAMS)).collect();
    let fused = MultiMaskPlan::new(&streams);
    let small = token_batch(&mut rng, cfg, 1);
    let large = token_batch(&mut rng, cfg, LARGE_PATCHES);
    let mut arena = ScratchArena::new();

    let us = probe(rec, "core.model.infer_f32_small", 200, |_| {
        black_box(model.infer_tokens(&small, &plans[0], &mut arena));
    });
    report.set_timing("core.model.infer_f32_small_ms", us / 1e3, 200, Vec::new());
    let us = probe(rec, "core.model.infer_q8_small", 200, |_| {
        black_box(model.infer_tokens_quant(&small, &plans[0], &mut arena));
    });
    report.set_timing("core.model.infer_q8_small_ms", us / 1e3, 200, Vec::new());
    let us = probe(rec, "core.model.infer_f32_large", 10, |_| {
        black_box(model.infer_tokens_multi(&large, &fused, &mut arena));
    });
    report.set_timing("core.model.infer_f32_large_ms", us / 1e3, 10, Vec::new());
    let us = probe(rec, "core.model.infer_q8_large", 10, |_| {
        black_box(model.infer_tokens_multi_quant(&large, &fused, &mut arena));
    });
    report.set_timing("core.model.infer_q8_large_ms", us / 1e3, 10, Vec::new());

    let flop = flop_per_patch(cfg, plans[0].kept().len());
    report.set("core.model.flop_per_patch", flop);
    println!(
        "core.model: {flop:.0} flop per patch at {} kept tokens (computed from the configuration)",
        plans[0].kept().len()
    );
}

/// `tensor.parallel.*`: the matmul kernels at the row counts the two model
/// shapes produce (`k = n = d_model`). Rates are operations as computed
/// (`2·m·k·n`) over time as measured; bytes moved are computed, not measured.
pub fn tensor(rec: &Recorder, report: &mut Report, cfg: &ReconstructorConfig) {
    let mut rng = Rng::new(0, 12);
    let d = cfg.d_model;
    let kept = cfg.seq_len() * 3 / 4;
    let b = pseudo_random(&mut rng, d * d);
    let mut dense = |name: &'static str, metric: &'static str, m: usize, reps: usize| {
        let a = pseudo_random(&mut rng, m * d);
        let mut c = vec![0.0f32; m * d];
        let us =
            probe(rec, name, reps, |_| par_matmul(black_box(&a), &b, black_box(&mut c), m, d, d));
        let flop = 2.0 * (m * d * d) as f64;
        report.set_timing(metric, flop / us / 1e3, reps, Vec::new());
        println!(
            "{name}: m={m} k=n={d}: {flop:.0} flop, {} bytes moved (computed)",
            (2 * m * d + d * d) * 4
        );
    };
    dense("tensor.parallel.matmul_small", "tensor.parallel.matmul_small_gflops", kept, 2000);
    dense(
        "tensor.parallel.matmul_large",
        "tensor.parallel.matmul_large_gflops",
        kept * LARGE_PATCHES,
        50,
    );

    // The int8 kernel, through the session call the `Linear` layers use
    // (row quantization included, as in a forward).
    let m = kept * LARGE_PATCHES;
    let weights =
        QuantizedMatrix::new(&Tensor::from_vec(b.iter().map(|v| v - 0.5).collect(), &[d, d]));
    let activations = Tensor::from_vec(pseudo_random(&mut rng, m * d), &[m, d]);
    let (params, mut arena) = (ParamSet::new(), ScratchArena::new());
    let us = probe(rec, "tensor.parallel.qmatmul_large", 50, |_| {
        let mut session = InferenceSession::new(&params, &mut arena);
        let out = session.qmatmul(black_box(&activations), &weights);
        session.free(out);
    });
    report.set_timing(
        "tensor.parallel.qmatmul_large_gops",
        2.0 * (m * d * d) as f64 / us / 1e3,
        50,
        Vec::new(),
    );

    // Attention scores of the large shape: one product per (patch, head).
    let (g, dh) = (LARGE_PATCHES * cfg.heads, d / cfg.heads);
    let q = pseudo_random(&mut rng, g * kept * dh);
    let k = pseudo_random(&mut rng, g * dh * kept);
    let mut scores = vec![0.0f32; g * kept * kept];
    let us = probe(rec, "tensor.parallel.batch_matmul", 50, |_| {
        par_batch_matmul(black_box(&q), &k, black_box(&mut scores), g, kept, dh, kept)
    });
    report.set_timing(
        "tensor.parallel.batch_matmul_gflops",
        2.0 * (g * kept * dh * kept) as f64 / us / 1e3,
        50,
        Vec::new(),
    );
}

/// `core.plan.*`, `core.container.parse_us` and `codecs.jpeg.decode_ms` on
/// the workload's own containers, plus the wire sizes.
pub fn containers(rec: &Recorder, report: &mut Report, wires: &[&[u8]]) {
    let registry = CodecRegistry::with_defaults();
    let parsed: Vec<EaszEncoded> =
        wires.iter().map(|w| EaszEncoded::from_bytes(w).expect("generated wires parse")).collect();
    let masks: Vec<EraseMask> = parsed
        .iter()
        .map(|e| EraseMask::from_bytes(&e.mask_bytes).expect("generated side channels parse"))
        .collect();
    let (reps, n) = (200, wires.len());
    let us = probe(rec, "core.container.parse", reps, |i| {
        drop(black_box(EaszEncoded::from_bytes(wires[i % n])))
    });
    report.set_timing("core.container.parse_us", us, reps, Vec::new());
    let us = probe(rec, "codecs.jpeg.decode", reps, |i| {
        let container = &parsed[i % n];
        let codec = registry.get(container.codec_id).expect("the JPEG-like codec is registered");
        black_box(codec.decode(&container.payload).expect("generated payloads decode"));
    });
    report.set_timing("codecs.jpeg.decode_ms", us / 1e3, reps, Vec::new());
    let us =
        probe(rec, "core.plan.build", reps, |i| drop(black_box(DecodePlan::new(&masks[i % n]))));
    report.set_timing("core.plan.build_us", us, reps, Vec::new());

    // Fusing needs equal kept-counts: take the streams that share the first
    // container's erase ratio, as the decoder's grouping would.
    let plans: Vec<DecodePlan> = masks
        .iter()
        .filter(|m| m.erased_per_row() == masks[0].erased_per_row())
        .take(8)
        .map(DecodePlan::new)
        .collect();
    let patches = parsed[0].width.div_ceil(parsed[0].config.n)
        * parsed[0].height.div_ceil(parsed[0].config.n);
    let streams: Vec<(&DecodePlan, usize)> = plans.iter().map(|p| (p, patches)).collect();
    let us = probe(rec, "core.plan.multi_build", reps, |_| {
        drop(black_box(MultiMaskPlan::new(&streams)))
    });
    report.set_timing("core.plan.multi_build_us", us, reps, Vec::new());

    report.set(
        "core.container.wire_bytes",
        mean(&wires.iter().map(|w| w.len() as f64).collect::<Vec<f64>>()),
    );
    report.set(
        "codecs.jpeg.payload_bytes",
        mean(&parsed.iter().map(|e| e.payload.len() as f64).collect::<Vec<f64>>()),
    );
    report.set(
        "core.mask.side_channel_bytes",
        mean(&parsed.iter().map(|e| e.mask_bytes.len() as f64).collect::<Vec<f64>>()),
    );
}

/// `tensor.infer.steady_allocs_per_decode`: allocator calls of one warm
/// serial decode. The engine's contract is none beyond the returned image
/// and the per-container staging around the forward.
pub fn steady_allocs(report: &mut Report, decoder: &EaszDecoder<'_>, container: &EaszEncoded) {
    for _ in 0..3 {
        black_box(
            decoder
                .decode_as(container, DecodeEngine::TapeFree)
                .expect("generated containers decode"),
        );
    }
    let (_, heap) =
        alloc::measure(|| black_box(decoder.decode_as(container, DecodeEngine::TapeFree)));
    report.set("tensor.infer.steady_allocs_per_decode", heap.calls as f64);
}

/// The share of `lookups`, in order, that a FIFO plan cache of `bound`
/// entries misses after `warm` went through it — what the input generator
/// knows about the decoder's plan cache (whose bound, 64, is not public).
pub fn fifo_miss_share(warm: &[u64], lookups: &[u64], bound: usize) -> f64 {
    let mut cache: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut misses = 0usize;
    for (i, &mask) in warm.iter().chain(lookups).enumerate() {
        if !cache.contains(&mask) {
            misses += usize::from(i >= warm.len());
            if cache.len() == bound {
                cache.pop_front();
            }
            cache.push_back(mask);
        }
    }
    misses as f64 / lookups.len().max(1) as f64
}

/// The decoder's plan-cache bound (`PlanCache::MAX_PLANS`, private).
pub const PLAN_CACHE_BOUND: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cyclic_walk_over_more_masks_than_the_cache_holds_always_misses() {
        let cyclic: Vec<u64> = (0..1024).map(|i| i % 256).collect();
        assert_eq!(fifo_miss_share(&cyclic[..256], &cyclic, PLAN_CACHE_BOUND), 1.0);
        let few: Vec<u64> = (0..1024).map(|i| i % 8).collect();
        assert_eq!(fifo_miss_share(&few[..8], &few, PLAN_CACHE_BOUND), 0.0);
        assert_eq!(fifo_miss_share(&[], &few, PLAN_CACHE_BOUND), 8.0 / 1024.0);
    }

    #[test]
    fn flop_per_patch_counts_the_fast_model() {
        // 48 kept of 64 tokens, d=64, ffn=128, token_dim=48, 2+2 blocks.
        let flop = flop_per_patch(&ReconstructorConfig::fast(), 48);
        assert!((1.5e7..2.2e7).contains(&flop), "{flop}");
    }
}

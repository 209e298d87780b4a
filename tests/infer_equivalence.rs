//! Tape vs tape-free equivalence: the inference engine must be
//! **byte-identical** to the autodiff `Graph` path — same kernels, same
//! floating-point operation order — across every mask strategy, batch size
//! and model geometry the pipeline ships.
//!
//! Also proves the `ScratchArena` steady state allocates nothing and the
//! decoder's `DecodePlan` cache behaves (one plan per effective mask).

use easz::codecs::{JpegLikeCodec, Quality};
use easz::core::{
    DecodePlan, EaszConfig, EaszDecoder, EaszEncoder, EraseMask, MaskKind, MultiMaskPlan,
    Reconstructor, ReconstructorConfig, RowSamplerConfig, TokenBatch,
};
use easz::data::Dataset;
use easz::tensor::ScratchArena;

/// The two model geometries under test: the pipeline default (n=32, b=4)
/// and the small-tile ablation geometry (n=16, b=2).
fn geometries() -> [ReconstructorConfig; 2] {
    [
        ReconstructorConfig::fast(),
        ReconstructorConfig {
            n: 16,
            b: 2,
            d_model: 32,
            heads: 2,
            ffn: 64,
            ..ReconstructorConfig::fast()
        },
    ]
}

/// Every shipped mask family at the given grid size.
fn mask_strategies(grid: usize, seed: u64) -> Vec<(&'static str, EraseMask)> {
    vec![
        (
            "row_conditional",
            MaskKind::RowConditional(RowSamplerConfig::with_ratio(grid, 0.25)).generate(seed),
        ),
        ("random_row", MaskKind::RandomRow { n_grid: grid, t: grid / 4 }.generate(seed)),
        ("diagonal", MaskKind::Diagonal { n_grid: grid }.generate(seed)),
    ]
}

fn random_patches(cfg: &ReconstructorConfig, bsz: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let (seq, dim) = (cfg.seq_len(), cfg.token_dim());
    (0..bsz)
        .map(|_| {
            (0..seq)
                .map(|_| {
                    (0..dim)
                        .map(|_| {
                            s ^= s << 13;
                            s ^= s >> 7;
                            s ^= s << 17;
                            ((s >> 40) as f32 / (1u64 << 24) as f32).clamp(0.0, 1.0)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn random_batch(cfg: &ReconstructorConfig, bsz: usize, seed: u64) -> TokenBatch {
    TokenBatch::from_patches(&random_patches(cfg, bsz, seed))
}

fn to_bits(tokens: &[Vec<Vec<f32>>]) -> Vec<u32> {
    tokens.iter().flatten().flatten().map(|v| v.to_bits()).collect()
}

#[test]
fn tape_free_is_byte_identical_across_masks_batches_and_geometries() {
    for cfg in geometries() {
        let model = Reconstructor::new(cfg);
        let grid = cfg.geometry().grid();
        for (strategy, mask) in mask_strategies(grid, 7) {
            for bsz in [1usize, 4, 8] {
                let batch = random_batch(&cfg, bsz, 1000 + bsz as u64);
                let tape = model.reconstruct_tokens_graph(&batch, &mask);
                let free = model.reconstruct_tokens(&batch, &mask);
                assert_eq!(
                    to_bits(&tape),
                    to_bits(&free),
                    "engines diverge: n={} b={} strategy={strategy} batch={bsz}",
                    cfg.n,
                    cfg.b,
                );
            }
        }
    }
}

#[test]
fn multi_mask_fused_forward_is_byte_identical_to_per_stream_serial() {
    // The mixed-fleet contract: streams sharing a geometry and erase
    // *count* but not erase positions are fused into one forward, and each
    // stream's output must match — bit for bit — what its own serial
    // forward produces (tape-free and, transitively, the Graph tape, which
    // the serial sweep above pins).
    for cfg in geometries() {
        let model = Reconstructor::new(cfg);
        let grid = cfg.geometry().grid();
        // Three distinct masks of the same family and ratio (same count),
        // with different per-stream patch counts.
        let masks: Vec<EraseMask> = [3u64, 17, 91]
            .iter()
            .map(|&seed| {
                MaskKind::RowConditional(RowSamplerConfig::with_ratio(grid, 0.25)).generate(seed)
            })
            .collect();
        assert!(masks.windows(2).all(|w| w[0] != w[1]), "seeds must yield distinct masks");
        let counts = [2usize, 1, 3];
        let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
        let streams: Vec<(&DecodePlan, usize)> = plans.iter().zip(counts).collect();
        let fused_plan = MultiMaskPlan::new(&streams);

        // Per-stream patch lists and one fused batch built from the same
        // raw values, so both paths centre bit-identically.
        let stream_patches: Vec<Vec<Vec<Vec<f32>>>> = counts
            .iter()
            .enumerate()
            .map(|(si, &c)| random_patches(&cfg, c, 500 + si as u64))
            .collect();
        let all_patches: Vec<Vec<Vec<f32>>> = stream_patches.iter().flatten().cloned().collect();
        let fused_batch = TokenBatch::from_patches(&all_patches);

        let mut arena = ScratchArena::new();
        let fused = model.infer_tokens_multi(&fused_batch, &fused_plan, &mut arena);
        let mut offset = 0usize;
        for (si, &c) in counts.iter().enumerate() {
            let serial = model
                .reconstruct_tokens(&TokenBatch::from_patches(&stream_patches[si]), &masks[si]);
            assert_eq!(
                to_bits(&serial),
                to_bits(&fused[offset..offset + c]),
                "mixed-mask fusion diverges from serial: n={} b={} stream={si}",
                cfg.n,
                cfg.b,
            );
            offset += c;
        }

        // Steady state: repeating the fused forward allocates nothing new.
        let (buffers, bytes) = (arena.allocated_buffers(), arena.allocated_bytes());
        let again = model.infer_tokens_multi(&fused_batch, &fused_plan, &mut arena);
        assert_eq!(to_bits(&fused), to_bits(&again), "fused forward must be deterministic");
        assert_eq!(
            (arena.allocated_buffers(), arena.allocated_bytes()),
            (buffers, bytes),
            "repeated fused forwards must not grow the arena"
        );
    }
}

#[test]
fn mixed_mask_decode_batch_is_byte_identical_end_to_end() {
    // Decode-level twin of the forward test: containers with distinct mask
    // seeds (and mixed canvas sizes) through one decode_batch, each image
    // compared bit-for-bit against its serial decode.
    let model = Reconstructor::new(ReconstructorConfig::fast());
    let decoder = EaszDecoder::new(&model);
    let codec = JpegLikeCodec::new();
    let containers: Vec<_> = [(1usize, 5u64, 32usize), (2, 55, 64), (3, 555, 96)]
        .iter()
        .map(|&(i, seed, side)| {
            let enc = EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
                .expect("encoder");
            let img = Dataset::KodakLike.image(i).crop(0, 0, side, side);
            enc.compress(&img, &codec, Quality::new(80)).expect("compress")
        })
        .collect();
    let batched = decoder.decode_batch(&containers);
    for (c, b) in containers.iter().zip(&batched) {
        let serial = decoder.decode(c).expect("serial decode");
        let b = b.as_ref().expect("batched decode");
        let sb: Vec<u32> = serial.data().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, bb, "mixed-mask decode_batch must match serial decode bit-for-bit");
    }
}

#[test]
fn scratch_arena_steady_state_allocates_nothing() {
    let cfg = ReconstructorConfig::fast();
    let model = Reconstructor::new(cfg);
    let mask = EaszConfig::default().make_mask();
    let plan = DecodePlan::new(&mask);
    let batch = random_batch(&cfg, 4, 42);
    let mut arena = ScratchArena::new();
    let first = model.infer_tokens(&batch, &plan, &mut arena);
    let (buffers, bytes) = (arena.allocated_buffers(), arena.allocated_bytes());
    assert!(buffers > 0, "the first forward must warm the arena");
    for _ in 0..5 {
        let again = model.infer_tokens(&batch, &plan, &mut arena);
        assert_eq!(to_bits(&first), to_bits(&again), "repeated forwards must be identical");
    }
    assert_eq!(
        (arena.allocated_buffers(), arena.allocated_bytes()),
        (buffers, bytes),
        "repeated forwards must not grow the arena"
    );
}

#[test]
fn decoder_caches_one_plan_per_effective_mask() {
    let model = Reconstructor::new(ReconstructorConfig::fast());
    let decoder = EaszDecoder::new(&model);
    let codec = JpegLikeCodec::new();
    let img = Dataset::KodakLike.image(3).crop(0, 0, 64, 64);
    let enc_a = EaszEncoder::new(EaszConfig::default())
        .expect("encoder")
        .compress(&img, &codec, Quality::new(75))
        .expect("compress");
    let enc_b = EaszEncoder::new(EaszConfig { mask_seed: 99, ..EaszConfig::default() })
        .expect("encoder")
        .compress(&img, &codec, Quality::new(75))
        .expect("compress");
    assert_eq!(decoder.cached_plans(), 0);
    decoder.decode(&enc_a).expect("decode a");
    decoder.decode(&enc_a).expect("decode a again");
    assert_eq!(decoder.cached_plans(), 1, "same mask must reuse one plan");
    decoder.decode(&enc_b).expect("decode b");
    assert_eq!(decoder.cached_plans(), 2, "distinct masks get distinct plans");
    decoder.decode_batch(&[enc_a, enc_b]).into_iter().for_each(|r| {
        r.expect("batch decode");
    });
    assert_eq!(decoder.cached_plans(), 2, "decode_batch reuses the serial-path plans");
}

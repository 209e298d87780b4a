//! Tape vs tape-free equivalence: the inference engine must be
//! **byte-identical** to the autodiff `Graph` path — same kernels, same
//! floating-point operation order — across every mask strategy, batch size
//! and model geometry the pipeline ships.
//!
//! The served decode predicts only the erased rows
//! (`Reconstructor::infer_erased`); each of those rows must be bit-equal to
//! its row of the full-row forward on both tiers, and whole decodes must
//! match digests recorded before the decode was restricted to those rows.
//!
//! Also proves the `ScratchArena` steady state allocates nothing and the
//! decoder's `DecodePlan` cache behaves (one plan per effective mask).

use easz::codecs::{ImageCodec, JpegLikeCodec, Quality};
use easz::core::{
    DecodeEngine, DecodePlan, DecodeStage, EaszConfig, EaszDecoder, EaszEncoded, EaszEncoder,
    EraseMask, MaskKind, MultiMaskPlan, Orientation, Reconstructor, ReconstructorConfig,
    RowSamplerConfig, TokenBatch,
};
use easz::data::Dataset;
use easz::tensor::ScratchArena;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// The transpose of `mask`: what a vertically squeezed container decodes
/// under.
fn transposed(mask: &EraseMask) -> EraseMask {
    let n = mask.n_grid();
    let cells = (0..n * n).map(|i| mask.is_erased(i % n, i / n)).collect();
    EraseMask::from_cells(n, cells)
}

/// The erased rows of a full-row forward's output: patch `pi` under
/// `erased(pi)`'s positions, in order.
fn erased_rows_of<'a>(full: &[Vec<Vec<f32>>], erased: impl Fn(usize) -> &'a [usize]) -> Vec<u32> {
    let mut out = Vec::new();
    for (pi, patch) in full.iter().enumerate() {
        for &p in erased(pi) {
            out.extend(patch[p].iter().map(|v| v.to_bits()));
        }
    }
    out
}

#[test]
fn served_erased_rows_match_the_full_row_forward_bitwise() {
    // For every erased row, the served decode's prediction must be the
    // full-row forward's, bit for bit: on both tiers, for uniform and
    // mixed-mask groups, at three erase ratios, four batch sizes and both
    // squeeze orientations. Pruned and full forwards alternate on one arena,
    // which must stop growing once both have run.
    let cfg = ReconstructorConfig::fast();
    let model = Reconstructor::new(cfg);
    let grid = cfg.geometry().grid();
    let mut arena = ScratchArena::new();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for engine in [DecodeEngine::TapeFree, DecodeEngine::QuantizedInt8] {
        for ratio in [0.125, 0.25, 0.375] {
            for orientation in [Orientation::Horizontal, Orientation::Vertical] {
                let masks: Vec<EraseMask> = [3u64, 17, 91]
                    .iter()
                    .map(|&seed| {
                        let sampler = RowSamplerConfig::with_ratio(grid, ratio);
                        let mask = MaskKind::RowConditional(sampler).generate(seed);
                        match orientation {
                            Orientation::Horizontal => mask,
                            Orientation::Vertical => transposed(&mask),
                        }
                    })
                    .collect();
                assert!(masks.windows(2).all(|w| w[0] != w[1]), "seeds must yield distinct masks");
                let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
                for bsz in [1usize, 4, 8, 64] {
                    let case = format!("{engine:?} ratio={ratio} {orientation:?} batch={bsz}");
                    let batch = random_batch(&cfg, bsz, 7000 + bsz as u64);

                    // Uniform group: one mask over the whole batch.
                    let plan = &plans[0];
                    let rows = MultiMaskPlan::new(&[(plan, bsz)]);
                    let full = |arena: &mut ScratchArena| match engine {
                        DecodeEngine::TapeFree => model.infer_tokens(&batch, plan, arena),
                        DecodeEngine::QuantizedInt8 => {
                            model.infer_tokens_quant(&batch, plan, arena)
                        }
                    };
                    let served =
                        |arena: &mut ScratchArena| model.infer_erased(&batch, &rows, arena, engine);
                    let expect = erased_rows_of(&full(&mut arena), |_| plan.erased());
                    let got = served(&mut arena);
                    assert_eq!(got.len(), bsz * plan.erased().len() * cfg.token_dim(), "{case}");
                    assert_eq!(bits(&got), expect, "uniform group diverges: {case}");
                    let warm = (arena.allocated_buffers(), arena.allocated_bytes());
                    assert_eq!(erased_rows_of(&full(&mut arena), |_| plan.erased()), expect);
                    assert_eq!(bits(&served(&mut arena)), expect, "{case}: not deterministic");
                    let now = (arena.allocated_buffers(), arena.allocated_bytes());
                    assert_eq!(now, warm, "{case}: alternating forwards grew the arena");

                    // Mixed-mask group: the batch split over the three masks.
                    let counts = [bsz - 2 * (bsz / 3), bsz / 3, bsz / 3];
                    let streams: Vec<(&DecodePlan, usize)> = plans.iter().zip(counts).collect();
                    let fused = MultiMaskPlan::new(&streams);
                    let mask_of: Vec<usize> =
                        counts.iter().enumerate().flat_map(|(si, &c)| vec![si; c]).collect();
                    let full = match engine {
                        DecodeEngine::TapeFree => {
                            model.infer_tokens_multi(&batch, &fused, &mut arena)
                        }
                        DecodeEngine::QuantizedInt8 => {
                            model.infer_tokens_multi_quant(&batch, &fused, &mut arena)
                        }
                    };
                    let expect = erased_rows_of(&full, |pi| plans[mask_of[pi]].erased());
                    let got = model.infer_erased(&batch, &fused, &mut arena, engine);
                    assert_eq!(bits(&got), expect, "mixed-mask group diverges: {case}");
                }
            }
        }
    }
}

/// FNV-1a 64 over `f32` bit patterns.
fn fnv(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of the images an untrained `fast()` model decodes on `engine`:
/// at erase ratios 0.125, 0.25 and 0.375, one serial decode and one
/// three-container mixed-mask window (6 patches per container).
fn served_decode_digest(orientation: Orientation, engine: DecodeEngine) -> u64 {
    let model = Reconstructor::new(ReconstructorConfig::fast());
    let decoder = EaszDecoder::new(&model);
    let codec = JpegLikeCodec::new();
    let mut values = Vec::new();
    for (k, ratio) in [0.125, 0.25, 0.375].into_iter().enumerate() {
        let containers: Vec<_> = [11u64, 12, 13]
            .iter()
            .map(|&seed| {
                let cfg = EaszConfig::builder()
                    .erase_ratio(ratio)
                    .orientation(orientation)
                    .mask_seed(seed)
                    .build()
                    .expect("config");
                let img = Dataset::KodakLike.image(k + 1).crop(0, 0, 96, 64);
                let enc = EaszEncoder::new(cfg).expect("encoder");
                enc.compress(&img, &codec, Quality::new(80)).expect("compress")
            })
            .collect();
        let serial = decoder.decode_as(&containers[0], engine).expect("serial decode");
        values.extend_from_slice(serial.data());
        let engines = vec![engine; containers.len()];
        for img in decoder.decode_batch_with(&containers, &engines) {
            values.extend_from_slice(img.expect("batch decode").data());
        }
    }
    fnv(values)
}

#[test]
fn served_decodes_match_the_parent_commit() {
    // Recorded at commit `db66182`, where the decoder still ran the last
    // decoder block and the output projection on every row and discarded
    // the kept ones. Re-derive a pin only from a commit known to be
    // bit-correct, never from the change under test.
    let pins = [
        (Orientation::Horizontal, DecodeEngine::TapeFree, 0x24fa_9ca3_91aa_9cff),
        (Orientation::Horizontal, DecodeEngine::QuantizedInt8, 0x8bd3_bba1_e988_db9b),
        (Orientation::Vertical, DecodeEngine::TapeFree, 0xbdc9_b56b_f19e_621f),
        (Orientation::Vertical, DecodeEngine::QuantizedInt8, 0x594c_7b3c_19d0_8e64),
    ];
    for (orientation, engine, pin) in pins {
        let got = served_decode_digest(orientation, engine);
        assert_eq!(got, pin, "{orientation:?} {engine:?} decode moved: {got:#018x}");
    }
}

#[test]
fn container_that_erases_nothing_decodes_to_its_payload_without_a_forward() {
    // A mask with T = 0 is a valid side channel: nothing is erased, so
    // the group has no row to predict and the decode is the inner codec's
    // image. A normal container in the same window is unaffected.
    let model = Reconstructor::new(ReconstructorConfig::fast());
    let mut decoder = EaszDecoder::new(&model);
    let forwards = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&forwards);
    decoder.set_stage_sink(Arc::new(move |stage, _| {
        if stage == DecodeStage::Forward {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    }));
    let codec = JpegLikeCodec::new();
    let img = Dataset::KodakLike.image(4).crop(0, 0, 64, 64);
    let normal = EaszEncoder::new(EaszConfig::default())
        .expect("encoder")
        .compress(&img, &codec, Quality::new(80))
        .expect("compress");
    let grid = normal.config.geometry().grid();
    let nothing = EraseMask::from_cells(grid, vec![false; grid * grid]).to_bytes();
    let payload = codec.encode(&img, Quality::new(80)).expect("encode");
    let crafted = EaszEncoded { payload, mask_bytes: nothing, ..normal.clone() };
    let crafted = EaszEncoded::from_bytes(&crafted.to_bytes()).expect("T = 0 parses");

    let mut expect = codec.decode(&crafted.payload).expect("inner decode");
    expect.clamp01();
    let bits =
        |img: &easz::image::ImageF32| img.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let got = decoder.decode(&crafted).expect("decode");
    assert_eq!(bits(&got), bits(&expect), "an erase-free container decodes to its payload");
    assert_eq!(forwards.load(Ordering::Relaxed), 0, "nothing erased, nothing to predict");

    let normal_serial = decoder.decode(&normal).expect("serial decode");
    assert_eq!(forwards.load(Ordering::Relaxed), 1);
    let window = decoder.decode_batch(&[crafted, normal]);
    assert_eq!(bits(window[0].as_ref().expect("erase-free")), bits(&expect));
    assert_eq!(bits(window[1].as_ref().expect("normal")), bits(&normal_serial));
    assert_eq!(forwards.load(Ordering::Relaxed), 2, "only the normal container's group runs");
}

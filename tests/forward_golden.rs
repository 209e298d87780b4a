//! Golden digests of the reconstruction transformer's output bits, recorded
//! at commit `0de5f6f` before the shared kernels (`par_matmul`, softmax,
//! layer norm, GELU) were rewritten for speed. `infer_equivalence` compares
//! the tape with the tape-free engine, and both call those kernels, so a
//! kernel that moved bits would move both sides and still pass; these
//! digests pin the bits themselves. Bit identity is the contract, not a
//! tolerance.
//!
//! The weights are the seeded, untrained `ReconstructorConfig::fast()` ones,
//! so nothing here depends on the trained-weights cache. Re-derive a value
//! only from a commit known to be bit-correct, never from the change under
//! test.

use easz::core::{
    DecodePlan, EraseMask, MaskKind, MultiMaskPlan, Reconstructor, ReconstructorConfig,
    RowSamplerConfig, TokenBatch,
};
use easz::tensor::{Graph, ScratchArena};

/// FNV-1a 64, the digest `edge_golden` pins wires by.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn f32_digest<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    digest(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn tokens_digest(tokens: &[Vec<Vec<f32>>]) -> u64 {
    f32_digest(tokens.iter().flatten().flatten())
}

/// `bsz` patches of xorshift token values in `[0, 1)`.
fn patches(cfg: &ReconstructorConfig, bsz: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1u64 << 24) as f32
    };
    (0..bsz)
        .map(|_| {
            (0..cfg.seq_len()).map(|_| (0..cfg.token_dim()).map(|_| next()).collect()).collect()
        })
        .collect()
}

fn mask(cfg: &ReconstructorConfig, ratio: f64, seed: u64) -> EraseMask {
    MaskKind::RowConditional(RowSamplerConfig::with_ratio(cfg.geometry().grid(), ratio))
        .generate(seed)
}

fn model() -> (ReconstructorConfig, Reconstructor) {
    let cfg = ReconstructorConfig::fast();
    (cfg, Reconstructor::new(cfg))
}

#[test]
fn one_patch_forward_matches_the_parent_commit() {
    let (cfg, model) = model();
    let batch = TokenBatch::from_patches(&patches(&cfg, 1, 1));
    let mut arena = ScratchArena::new();
    // (erase ratio, f32 digest, int8 digest)
    for (ratio, f32_want, q8_want) in [
        (0.25, 0x6C28_CEA8_C558_B88Fu64, 0xFD61_5E5C_3641_ED3Fu64),
        (0.375, 0x7A44_454E_C457_B9FA, 0xE81E_0D5F_E35F_8628),
    ] {
        let plan = DecodePlan::new(&mask(&cfg, ratio, 5));
        let got = tokens_digest(&model.infer_tokens(&batch, &plan, &mut arena));
        assert_eq!(got, f32_want, "f32 one patch at erase {ratio}: {got:#018X}");
        let got = tokens_digest(&model.infer_tokens_quant(&batch, &plan, &mut arena));
        assert_eq!(got, q8_want, "int8 one patch at erase {ratio}: {got:#018X}");
    }
}

#[test]
fn fused_multi_mask_forward_matches_the_parent_commit() {
    let (cfg, model) = model();
    let masks: Vec<EraseMask> = [3u64, 17, 91, 255].iter().map(|&s| mask(&cfg, 0.25, s)).collect();
    let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
    let streams: Vec<(&DecodePlan, usize)> = plans.iter().map(|p| (p, 4)).collect();
    let plan = MultiMaskPlan::new(&streams);
    let batch = TokenBatch::from_patches(&patches(&cfg, 16, 2));
    let mut arena = ScratchArena::new();
    let got = tokens_digest(&model.infer_tokens_multi(&batch, &plan, &mut arena));
    assert_eq!(got, 0x8844_5029_FE60_E820, "f32 16 patches under 4 masks: {got:#018X}");
    let got = tokens_digest(&model.infer_tokens_multi_quant(&batch, &plan, &mut arena));
    assert_eq!(got, 0xE07F_E7DA_B66A_0864, "int8 16 patches under 4 masks: {got:#018X}");
}

#[test]
fn tape_forward_and_gradients_match_the_parent_commit() {
    let (cfg, model) = model();
    let erase = mask(&cfg, 0.25, 7);
    let batch = TokenBatch::from_patches(&patches(&cfg, 4, 3));
    let got = tokens_digest(&model.reconstruct_tokens_graph(&batch, &erase));
    assert_eq!(got, 0x45DB_BA92_7CAD_30B8, "tape forward: {got:#018X}");

    let target = TokenBatch::from_patches(&patches(&cfg, 4, 4));
    let mut g = Graph::new(model.params());
    let pred = model.forward(&mut g, &batch, &erase);
    let loss = model.loss(&mut g, pred, &target, 0.3);
    let got = f32_digest(g.value(loss).data());
    assert_eq!(got, 0xAB12_AE8C_6D39_2D4A, "loss: {got:#018X}");
    let grads = g.backward(loss);
    let params = model.params();
    let got = digest(grads.iter().flat_map(|(id, t)| {
        let name = params.name(id).bytes();
        name.chain(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
    }));
    assert_eq!(got, 0x8DD0_8C6E_B8CE_65C1, "gradients in ParamId order: {got:#018X}");
}

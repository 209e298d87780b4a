//! Cached decode plans: the mask-derived index structures a transformer
//! forward needs, computed once per effective mask instead of per call.
//!
//! Fleets of edge senders share a handful of masks (that sharing is exactly
//! what [`EaszDecoder::decode_batch`](crate::EaszDecoder::decode_batch)
//! groups by), so the kept-position list, the encoder gather rows and the
//! decoder scatter/compose map would otherwise be rebuilt per container for
//! the same few masks. A [`DecodePlan`] hoists those structures out of the
//! hot path: built once per effective mask, it serves every container under
//! that mask and memoises the maps of the last few batch sizes, and the
//! position→rank table it carries builds the compose map in `O(seq)`.
//! Every forward reads its maps from a plan — the decoder's, the
//! [`MultiMaskPlan`] of a mixed group, and the training tape's
//! [`Reconstructor::forward`](crate::Reconstructor::forward) alike — so the
//! maps are defined in this module only.

use crate::mask::EraseMask;
use easz_tensor::ScratchArena;
use std::sync::{Arc, Mutex};

/// Precomputed index structures for reconstructing under one effective
/// mask.
///
/// Geometry-only — no dependency on the model weights or batch contents —
/// so one plan is shared freely across threads and containers. Per-batch-
/// size row maps are derived lazily, and those of the most recent few batch
/// sizes are memoised inside the plan.
#[derive(Debug)]
pub struct DecodePlan {
    /// Tokens per patch (`grid²`).
    seq: usize,
    /// Kept grid positions in raster order.
    kept: Vec<usize>,
    /// Erased grid positions in raster order: the rows a served decode
    /// predicts.
    erased: Vec<usize>,
    /// `rank_of[p]` = rank of position `p` among kept positions, `None` if
    /// erased. Replaces per-position binary search when building scatter
    /// maps.
    rank_of: Vec<Option<usize>>,
    /// Batch-size-keyed gather/compose maps, built on first use, oldest
    /// first.
    maps: Mutex<Vec<(usize, Arc<BatchMaps>)>>,
}

/// The per-batch-size row maps of a [`DecodePlan`]: everything the forward
/// needs that scales with the number of patches.
#[derive(Debug)]
pub struct BatchMaps {
    /// Encoder input gather: for each batch element, the row indices of its
    /// kept tokens inside the `[batch * seq, dim]` token matrix.
    pub kept_rows: Vec<usize>,
    /// Decoder compose map: `Some(row)` scatters encoder output row `row`,
    /// `None` fills the learned mask token.
    pub compose: Vec<Option<usize>>,
    /// For each batch element, the row indices of its erased tokens inside
    /// the `[batch * seq, dim]` token matrix: the rows a served decode
    /// predicts.
    pub erased_rows: Vec<usize>,
}

impl DecodePlan {
    /// Batch sizes whose maps stay memoised; the oldest is evicted beyond
    /// this. A uniform group's batch size is its total patch count, which
    /// clients set through canvas size and window packing, so the memo must
    /// not grow with what they send.
    const MAX_BATCH_SIZES: usize = 16;

    /// Builds the plan for one effective mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask erases everything (no tokens to encode).
    pub fn new(mask: &EraseMask) -> Self {
        let n = mask.n_grid();
        let seq = n * n;
        // Positions kept and erased by the mask, in grid-raster order
        // (ascending).
        let (erased, kept): (Vec<usize>, Vec<usize>) =
            (0..seq).partition(|&p| mask.is_erased(p / n, p % n));
        assert!(!kept.is_empty(), "mask erases everything");
        let mut rank_of = vec![None; seq];
        for (rank, &p) in kept.iter().enumerate() {
            rank_of[p] = Some(rank);
        }
        Self { seq, kept, erased, rank_of, maps: Mutex::new(Vec::new()) }
    }

    /// Tokens per patch this plan was built for.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Kept grid positions, ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Erased grid positions, ascending.
    pub fn erased(&self) -> &[usize] {
        &self.erased
    }

    /// Rank of a kept position among the kept set (`None` if erased).
    pub fn rank_of(&self, pos: usize) -> Option<usize> {
        self.rank_of[pos]
    }

    /// The gather/compose maps for a batch of `bsz` patches (memoised).
    pub fn maps_for(&self, bsz: usize) -> Arc<BatchMaps> {
        let mut maps = self.maps.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, m)) = maps.iter().find(|(size, _)| *size == bsz) {
            return Arc::clone(m);
        }
        let m = Arc::new(self.build_maps(bsz));
        if maps.len() >= Self::MAX_BATCH_SIZES {
            maps.remove(0);
        }
        maps.push((bsz, Arc::clone(&m)));
        m
    }

    /// The row view of a forward over `maps` (built by this plan): the
    /// encoder's positional rows are the kept positions, one `[m, d]` block
    /// broadcast over the batch.
    pub fn rows<'a>(&'a self, maps: &'a BatchMaps) -> RowMaps<'a> {
        RowMaps {
            kept_rows: &maps.kept_rows,
            pos_rows: &self.kept,
            compose: &maps.compose,
            erased_rows: &maps.erased_rows,
        }
    }

    fn build_maps(&self, bsz: usize) -> BatchMaps {
        let m = self.kept.len();
        let kept_rows: Vec<usize> =
            (0..bsz).flat_map(|bi| self.kept.iter().map(move |&p| bi * self.seq + p)).collect();
        let mut compose: Vec<Option<usize>> = Vec::with_capacity(bsz * self.seq);
        for bi in 0..bsz {
            for p in 0..self.seq {
                compose.push(self.rank_of[p].map(|rank| bi * m + rank));
            }
        }
        let erased_rows =
            (0..bsz).flat_map(|bi| self.erased.iter().map(move |&p| bi * self.seq + p)).collect();
        BatchMaps { kept_rows, compose, erased_rows }
    }
}

/// A fused decode plan for a batch of patches that share a geometry and an
/// erase *count* but not necessarily erase *positions* — the mixed-fleet
/// case where every edge sender rolls its own mask seed.
///
/// The transformer treats a batch as independent per-patch rows (attention
/// is confined within each patch; every other op is row-wise), so patches
/// under different masks can share one forward as long as each patch's rows
/// are gathered, positionally embedded and composed by *its own* mask. This
/// plan concatenates those per-stream maps. Outputs are byte-identical to
/// running each stream through its own uniform-mask forward: per element,
/// the very same kernel operations execute in the very same order — only
/// the batch dimension they are packed into differs.
///
/// The one structural difference from the uniform-mask path: the encoder's
/// positional embedding can no longer be a single `[m, d]` block broadcast
/// over the batch (each patch keeps different positions), so the plan
/// carries `pos_rows` — per-patch embedding row indices — and the forward
/// gathers a full `[patches * m, d]` embedding matrix instead.
#[derive(Debug)]
pub struct MultiMaskPlan {
    seq: usize,
    kept_per_patch: usize,
    patches: usize,
    /// Per patch, the row indices of its kept tokens inside the
    /// `[patches * seq, dim]` token matrix.
    kept_rows: Vec<usize>,
    /// Per patch, the `enc_pos` embedding row (= grid position) of each
    /// kept token, aligned with `kept_rows`.
    pos_rows: Vec<usize>,
    /// Decoder compose map: `Some(row)` scatters encoder output row `row`,
    /// `None` fills the learned mask token.
    compose: Vec<Option<usize>>,
    /// Per patch, the row indices of its erased tokens inside the
    /// `[patches * seq, dim]` token matrix.
    erased_rows: Vec<usize>,
}

impl MultiMaskPlan {
    /// Builds the fused plan from per-stream `(plan, patch count)` pairs;
    /// each stream contributes `count` consecutive patches under its plan's
    /// mask.
    ///
    /// # Panics
    ///
    /// Panics if the streams disagree on grid size or kept-token count
    /// (group by erase count first — see
    /// [`EaszDecoder::decode_batch`](crate::EaszDecoder::decode_batch)), or
    /// if no patches are contributed at all.
    pub fn new(streams: &[(&DecodePlan, usize)]) -> Self {
        let (first, _) = streams.first().expect("empty multi-mask plan");
        let (seq, m) = (first.seq(), first.kept().len());
        let patches: usize = streams.iter().map(|(_, count)| count).sum();
        assert!(patches > 0, "multi-mask plan without patches");
        let mut kept_rows = Vec::with_capacity(patches * m);
        let mut pos_rows = Vec::with_capacity(patches * m);
        let mut compose = Vec::with_capacity(patches * seq);
        let mut erased_rows = Vec::with_capacity(patches * (seq - m));
        let mut pi = 0usize;
        for (plan, count) in streams {
            assert_eq!(plan.seq(), seq, "multi-mask plan mixes grid sizes");
            assert_eq!(
                plan.kept().len(),
                m,
                "multi-mask plan mixes erase counts ({} kept vs {m})",
                plan.kept().len()
            );
            for _ in 0..*count {
                kept_rows.extend(plan.kept().iter().map(|&p| pi * seq + p));
                pos_rows.extend_from_slice(plan.kept());
                compose.extend((0..seq).map(|p| plan.rank_of(p).map(|rank| pi * m + rank)));
                erased_rows.extend(plan.erased().iter().map(|&p| pi * seq + p));
                pi += 1;
            }
        }
        Self { seq, kept_per_patch: m, patches, kept_rows, pos_rows, compose, erased_rows }
    }

    /// Tokens per patch.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Kept tokens per patch (shared by every stream in the plan).
    pub fn kept_per_patch(&self) -> usize {
        self.kept_per_patch
    }

    /// Total patches across all streams.
    pub fn patches(&self) -> usize {
        self.patches
    }

    /// Encoder input gather rows, `patches * kept_per_patch` long.
    pub fn kept_rows(&self) -> &[usize] {
        &self.kept_rows
    }

    /// Positional-embedding rows aligned with [`kept_rows`](Self::kept_rows).
    pub fn pos_rows(&self) -> &[usize] {
        &self.pos_rows
    }

    /// Decoder compose map, `patches * seq` long.
    pub fn compose(&self) -> &[Option<usize>] {
        &self.compose
    }

    /// Erased-token rows, `patches * (seq - kept_per_patch)` long: the
    /// rows a served decode predicts.
    pub fn erased_rows(&self) -> &[usize] {
        &self.erased_rows
    }

    /// The row view of a forward over this plan's patches.
    pub fn rows(&self) -> RowMaps<'_> {
        RowMaps {
            kept_rows: &self.kept_rows,
            pos_rows: &self.pos_rows,
            compose: &self.compose,
            erased_rows: &self.erased_rows,
        }
    }
}

/// The index lists one transformer forward reads, borrowed from the plan
/// that built them: a uniform group's [`DecodePlan`] (via
/// [`DecodePlan::rows`]) or a mixed group's [`MultiMaskPlan`].
#[derive(Debug, Clone, Copy)]
pub struct RowMaps<'a> {
    /// Encoder input gather rows inside the `[batch * seq, dim]` tokens.
    pub(crate) kept_rows: &'a [usize],
    /// `enc_pos` rows added to the encoder input: `[m]` broadcast over the
    /// batch, or `[batch * m]`, one block per patch.
    pub(crate) pos_rows: &'a [usize],
    /// Decoder compose map: `Some(row)` scatters encoder output row `row`,
    /// `None` fills the learned mask token.
    pub(crate) compose: &'a [Option<usize>],
    /// Erased-token rows inside the `[batch * seq, dim]` tokens, the same
    /// count per patch, patch after patch and ascending within a patch: the
    /// rows the served decode predicts (see
    /// [`Reconstructor::infer_erased`](crate::Reconstructor::infer_erased)).
    pub(crate) erased_rows: &'a [usize],
}

/// A bounded, mask-keyed cache of [`DecodePlan`]s shared by all decode
/// paths of an [`EaszDecoder`](crate::EaszDecoder).
///
/// Keyed by mask equality — the same key `decode_batch` groups by — with a
/// small FIFO bound so a stream of unique masks (hostile or misconfigured
/// fleets) cannot grow it without limit.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    inner: Mutex<Vec<(EraseMask, Arc<DecodePlan>)>>,
}

impl PlanCache {
    /// Retained plans; evicting the oldest beyond this. Fleets share a
    /// handful of masks, so 64 is generous.
    const MAX_PLANS: usize = 64;

    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `mask`, building and caching it on first sight.
    pub fn get_or_build(&self, mask: &EraseMask) -> Arc<DecodePlan> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, plan)) = inner.iter().find(|(m, _)| m == mask) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(DecodePlan::new(mask));
        if inner.len() >= Self::MAX_PLANS {
            inner.remove(0);
        }
        inner.push((mask.clone(), Arc::clone(&plan)));
        plan
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// A pool of [`ScratchArena`]s so concurrent decodes (one decoder shared
/// across server threads) each reuse a warmed-up arena instead of
/// contending on one or allocating fresh buffers per call.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    inner: Mutex<Vec<ScratchArena>>,
}

impl ArenaPool {
    /// Arenas retained when returned; beyond this (more simultaneous
    /// decodes than matmul workers would ever help) extras are dropped.
    const MAX_POOLED: usize = 16;

    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a (possibly warmed) arena from the pool.
    pub fn take(&self) -> ScratchArena {
        // Not `unwrap_or_default`: `ScratchArena::new` also applies the
        // one-time malloc tuning.
        match self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            Some(arena) => arena,
            None => ScratchArena::new(),
        }
    }

    /// Returns an arena for reuse.
    pub fn put(&self, arena: ScratchArena) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.len() < Self::MAX_POOLED {
            inner.push(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EaszConfig;

    #[test]
    fn plan_matches_mask_structure() {
        let mask = EaszConfig::default().make_mask();
        let plan = DecodePlan::new(&mask);
        let n = mask.n_grid();
        assert_eq!(plan.seq(), n * n);
        // kept + erased partition the grid; ranks are dense and ordered.
        let mut expect_rank = 0usize;
        for (r, c, erased) in mask.iter() {
            let p = r * n + c;
            if erased {
                assert_eq!(plan.rank_of(p), None);
            } else {
                assert_eq!(plan.rank_of(p), Some(expect_rank));
                assert_eq!(plan.kept()[expect_rank], p);
                expect_rank += 1;
            }
        }
        assert_eq!(plan.kept().len(), expect_rank);
        let erased: Vec<usize> = (0..n * n).filter(|&p| plan.rank_of(p).is_none()).collect();
        assert_eq!(plan.erased(), &erased[..]);
    }

    #[test]
    fn maps_are_memoised_per_batch_size() {
        let mask = EaszConfig::default().make_mask();
        let plan = DecodePlan::new(&mask);
        let a = plan.maps_for(4);
        let b = plan.maps_for(4);
        assert!(Arc::ptr_eq(&a, &b), "same batch size must share one map");
        assert_eq!(a.kept_rows.len(), 4 * plan.kept().len());
        assert_eq!(a.compose.len(), 4 * plan.seq());
        // Map contents match the definition.
        let m = plan.kept().len();
        for bi in 0..4 {
            for (rank, &p) in plan.kept().iter().enumerate() {
                assert_eq!(a.kept_rows[bi * m + rank], bi * plan.seq() + p);
                assert_eq!(a.compose[bi * plan.seq() + p], Some(bi * m + rank));
            }
            let t = plan.erased().len();
            for (k, &p) in plan.erased().iter().enumerate() {
                assert_eq!(a.erased_rows[bi * t + k], bi * plan.seq() + p);
            }
        }
    }

    #[test]
    fn batch_size_memo_stays_bounded() {
        // Batch sizes come from what clients send; sweeping them under one
        // mask must not pin a map per size.
        let plan = DecodePlan::new(&EaszConfig::default().make_mask());
        let n = 4 * DecodePlan::MAX_BATCH_SIZES;
        for bsz in 1..=n {
            assert_eq!(plan.maps_for(bsz).compose.len(), bsz * plan.seq());
        }
        assert_eq!(plan.maps.lock().expect("memo").len(), DecodePlan::MAX_BATCH_SIZES);
        let recent = plan.maps_for(n);
        assert!(Arc::ptr_eq(&recent, &plan.maps_for(n)), "a memoised size must share one map");
        assert_eq!(plan.maps.lock().expect("memo").len(), DecodePlan::MAX_BATCH_SIZES);
    }

    #[test]
    fn plan_cache_hits_by_mask_equality_and_stays_bounded() {
        let cache = PlanCache::new();
        let a = EaszConfig::default().make_mask();
        let b = EaszConfig { mask_seed: 99, ..EaszConfig::default() }.make_mask();
        let p1 = cache.get_or_build(&a);
        let p2 = cache.get_or_build(&a.clone());
        assert!(Arc::ptr_eq(&p1, &p2), "equal masks must share a plan");
        let _ = cache.get_or_build(&b);
        assert_eq!(cache.len(), 2);
        for seed in 0..200u64 {
            let m = EaszConfig { mask_seed: seed, ..EaszConfig::default() }.make_mask();
            let _ = cache.get_or_build(&m);
        }
        assert!(cache.len() <= PlanCache::MAX_PLANS, "cache must stay bounded");
    }

    #[test]
    #[should_panic(expected = "erases everything")]
    fn all_erased_mask_is_rejected() {
        let mask = EraseMask::from_cells(2, vec![true; 4]);
        let _ = DecodePlan::new(&mask);
    }

    #[test]
    fn multi_mask_plan_concatenates_per_stream_maps() {
        let a = EaszConfig::default().make_mask();
        let b = EaszConfig { mask_seed: 99, ..EaszConfig::default() }.make_mask();
        assert_ne!(a, b, "seeds must yield distinct masks for this test");
        let (pa, pb) = (DecodePlan::new(&a), DecodePlan::new(&b));
        assert_eq!(pa.kept().len(), pb.kept().len(), "same erase ratio, same kept count");
        let fused = MultiMaskPlan::new(&[(&pa, 2), (&pb, 1)]);
        assert_eq!(fused.patches(), 3);
        let (seq, m) = (pa.seq(), pa.kept().len());
        assert_eq!((fused.seq(), fused.kept_per_patch()), (seq, m));
        // Patches 0 and 1 follow plan a, patch 2 follows plan b.
        for (pi, plan) in [(0usize, &pa), (1, &pa), (2, &pb)] {
            for (rank, &p) in plan.kept().iter().enumerate() {
                assert_eq!(fused.kept_rows()[pi * m + rank], pi * seq + p);
                assert_eq!(fused.pos_rows()[pi * m + rank], p);
                assert_eq!(fused.compose()[pi * seq + p], Some(pi * m + rank));
            }
            for p in 0..seq {
                if plan.rank_of(p).is_none() {
                    assert_eq!(fused.compose()[pi * seq + p], None, "erased slot fills mask token");
                }
            }
            let t = seq - m;
            for (k, &p) in plan.erased().iter().enumerate() {
                assert_eq!(fused.erased_rows()[pi * t + k], pi * seq + p);
            }
        }
    }

    #[test]
    fn uniform_multi_mask_plan_matches_the_batch_maps() {
        // With one shared mask the fused maps must degenerate to exactly
        // the uniform-path BatchMaps (same gather rows, same compose map).
        let mask = EaszConfig::default().make_mask();
        let plan = DecodePlan::new(&mask);
        let fused = MultiMaskPlan::new(&[(&plan, 4)]);
        let maps = plan.maps_for(4);
        assert_eq!(fused.kept_rows(), &maps.kept_rows[..]);
        assert_eq!(fused.compose(), &maps.compose[..]);
        assert_eq!(fused.erased_rows(), &maps.erased_rows[..]);
    }

    #[test]
    #[should_panic(expected = "mixes erase counts")]
    fn multi_mask_plan_rejects_mixed_erase_counts() {
        let quarter = EaszConfig::default().make_mask();
        let half = EaszConfig::builder().erase_ratio(0.5).build().expect("cfg").make_mask();
        let (pq, ph) = (DecodePlan::new(&quarter), DecodePlan::new(&half));
        let _ = MultiMaskPlan::new(&[(&pq, 1), (&ph, 1)]);
    }
}

//! Decode plans: the mask-derived index structures a transformer forward
//! needs.
//!
//! Fleets of edge senders share a handful of masks (that sharing is exactly
//! what [`EaszDecoder::decode_batch`](crate::EaszDecoder::decode_batch)
//! groups by), so a [`DecodePlan`] holds the geometry of one effective
//! mask — its kept and erased positions and the position→rank table — built
//! once and shared by every container under that mask. A forward reads its
//! rows from a [`MultiMaskPlan`], which lays out a batch stream by stream,
//! each patch under its own mask's plan; a uniform batch is one stream.
//! Every forward — the decoder's, `infer_tokens*` and the training tape's
//! [`Reconstructor::forward`](crate::Reconstructor::forward) alike — reads
//! such a plan, so the row maps are defined in this module only.

use crate::mask::EraseMask;
use easz_tensor::ScratchArena;
use std::borrow::Borrow;
use std::sync::{Arc, Mutex};

/// The geometry of one effective mask: which grid positions it keeps and
/// erases, and each kept position's rank.
///
/// No dependency on the model weights or batch contents, so one plan is
/// shared freely across threads and containers.
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
    /// erased. Replaces per-position binary search when building compose
    /// maps.
    rank_of: Vec<Option<usize>>,
}

impl DecodePlan {
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
        Self { seq, kept, erased, rank_of }
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
}

/// The row plan of one transformer forward over a batch of patches that
/// share a geometry and an erase *count*: each patch's rows are gathered,
/// positionally embedded and composed by its own mask. A batch under one
/// mask is one stream; a mixed-fleet batch, where every edge sender rolls
/// its own mask seed, is one stream per mask.
///
/// The transformer treats a batch as independent per-patch rows (attention
/// is confined within each patch; every other op is row-wise), so patches
/// under different masks share one forward and each comes out
/// byte-identical to a forward over its stream alone: per element, the
/// very same kernel operations execute in the very same order — only the
/// batch dimension they are packed into differs.
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
    /// Builds the plan from per-stream `(plan, patch count)` pairs; each
    /// stream contributes `count` consecutive patches under its plan's
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
        let patches = streams.iter().map(|(_, count)| count).sum();
        let mut plan = Self::with_capacity(patches, first.seq(), first.kept().len());
        plan.refill(streams.iter().copied());
        plan
    }

    /// A plan of no patches with room for `patches` of `seq` tokens, `m` of
    /// them kept, for [`refill`](Self::refill) to fill.
    pub(crate) fn with_capacity(patches: usize, seq: usize, m: usize) -> Self {
        Self {
            seq: 0,
            kept_per_patch: 0,
            patches: 0,
            kept_rows: Vec::with_capacity(patches * m),
            pos_rows: Vec::with_capacity(patches * m),
            compose: Vec::with_capacity(patches * seq),
            erased_rows: Vec::with_capacity(patches * (seq - m)),
        }
    }

    /// Rebuilds this plan in place as [`new`](Self::new) builds it from
    /// `streams`, keeping the buffers' capacity: a pooled plan serves group
    /// after group without allocating once it has held the widest.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub(crate) fn refill<P: Borrow<DecodePlan>>(
        &mut self,
        streams: impl IntoIterator<Item = (P, usize)>,
    ) {
        let mut streams = streams.into_iter().peekable();
        let (first, _) = streams.peek().expect("empty multi-mask plan");
        let (seq, m) = (first.borrow().seq(), first.borrow().kept().len());
        self.kept_rows.clear();
        self.pos_rows.clear();
        self.compose.clear();
        self.erased_rows.clear();
        let mut pi = 0usize;
        for (plan, count) in streams {
            let plan = plan.borrow();
            assert_eq!(plan.seq(), seq, "multi-mask plan mixes grid sizes");
            assert_eq!(
                plan.kept().len(),
                m,
                "multi-mask plan mixes erase counts ({} kept vs {m})",
                plan.kept().len()
            );
            for _ in 0..count {
                self.kept_rows.extend(plan.kept().iter().map(|&p| pi * seq + p));
                self.pos_rows.extend_from_slice(plan.kept());
                self.compose.extend((0..seq).map(|p| plan.rank_of(p).map(|rank| pi * m + rank)));
                self.erased_rows.extend(plan.erased().iter().map(|&p| pi * seq + p));
                pi += 1;
            }
        }
        assert!(pi > 0, "multi-mask plan without patches");
        (self.seq, self.kept_per_patch, self.patches) = (seq, m, pi);
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

    /// Erased-token rows, `patches * (seq - kept_per_patch)` long, patch
    /// after patch and ascending within a patch: the rows a served decode
    /// predicts (see
    /// [`Reconstructor::infer_erased`](crate::Reconstructor::infer_erased)).
    pub fn erased_rows(&self) -> &[usize] {
        &self.erased_rows
    }
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

/// A pool of forward workspaces — a [`ScratchArena`] and the
/// [`MultiMaskPlan`] refilled per group, lent together under one lock — so
/// concurrent decodes (one decoder shared across server threads) each reuse
/// warmed-up buffers instead of contending on one or allocating fresh ones
/// per call.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    inner: Mutex<Vec<(ScratchArena, MultiMaskPlan)>>,
}

impl ArenaPool {
    /// Workspaces retained when returned; beyond this (more simultaneous
    /// decodes than matmul workers would ever help) extras are dropped.
    const MAX_POOLED: usize = 16;

    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a (possibly warmed) arena and row plan from the pool.
    pub fn take(&self) -> (ScratchArena, MultiMaskPlan) {
        // Not `unwrap_or_default`: `ScratchArena::new` also applies the
        // one-time malloc tuning.
        match self.inner.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            Some(workspace) => workspace,
            None => (ScratchArena::new(), MultiMaskPlan::with_capacity(0, 0, 0)),
        }
    }

    /// Returns an arena and its row plan for reuse.
    pub fn put(&self, arena: ScratchArena, plan: MultiMaskPlan) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.len() < Self::MAX_POOLED {
            inner.push((arena, plan));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EaszConfig;

    /// Checks every row list of `plan` against its definition, read off
    /// the masks directly: `masks[pi]` is the mask of patch `pi`.
    fn assert_rows_follow_masks(plan: &MultiMaskPlan, masks: &[&EraseMask]) {
        let n = masks[0].n_grid();
        let seq = n * n;
        let m = (0..seq).filter(|&p| !masks[0].is_erased(p / n, p % n)).count();
        let t = seq - m;
        assert_eq!((plan.seq(), plan.kept_per_patch(), plan.patches()), (seq, m, masks.len()));
        assert_eq!(plan.kept_rows().len(), masks.len() * m);
        assert_eq!(plan.pos_rows().len(), masks.len() * m);
        assert_eq!(plan.compose().len(), masks.len() * seq);
        assert_eq!(plan.erased_rows().len(), masks.len() * t);
        for (pi, mask) in masks.iter().enumerate() {
            let (mut rank, mut k) = (0usize, 0usize);
            for p in 0..seq {
                if mask.is_erased(p / n, p % n) {
                    assert_eq!(plan.compose()[pi * seq + p], None, "patch {pi} pos {p}");
                    assert_eq!(plan.erased_rows()[pi * t + k], pi * seq + p, "patch {pi} pos {p}");
                    k += 1;
                } else {
                    assert_eq!(plan.kept_rows()[pi * m + rank], pi * seq + p, "patch {pi} pos {p}");
                    assert_eq!(plan.pos_rows()[pi * m + rank], p, "patch {pi} pos {p}");
                    assert_eq!(plan.compose()[pi * seq + p], Some(pi * m + rank), "patch {pi}");
                    rank += 1;
                }
            }
            assert_eq!((rank, k), (m, t), "patch {pi} erases a different count");
        }
    }

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
    fn one_stream_plan_rows_follow_the_mask() {
        let mask = EaszConfig::default().make_mask();
        let plan = DecodePlan::new(&mask);
        for bsz in [1usize, 4, 8] {
            let rows = MultiMaskPlan::new(&[(&plan, bsz)]);
            assert_rows_follow_masks(&rows, &vec![&mask; bsz]);
        }
    }

    #[test]
    fn multi_mask_plan_concatenates_per_stream_maps() {
        let masks: Vec<EraseMask> = [7u64, 99, 1234]
            .iter()
            .map(|&seed| EaszConfig { mask_seed: seed, ..EaszConfig::default() }.make_mask())
            .collect();
        assert!(masks.windows(2).all(|w| w[0] != w[1]), "seeds must yield distinct masks");
        let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
        let rows = MultiMaskPlan::new(&[(&plans[0], 2), (&plans[1], 1), (&plans[2], 3)]);
        let per_patch: Vec<&EraseMask> =
            [0usize, 0, 1, 2, 2, 2].iter().map(|&i| &masks[i]).collect();
        assert_rows_follow_masks(&rows, &per_patch);
    }

    #[test]
    fn refilled_plan_equals_a_fresh_plan_with_no_stale_rows() {
        // A pooled plan serves a wide window, then a narrower one under
        // other masks: it must read exactly as a plan built for the
        // narrower window alone.
        let masks: Vec<EraseMask> = [5u64, 6]
            .iter()
            .map(|&seed| EaszConfig { mask_seed: seed, ..EaszConfig::default() }.make_mask())
            .collect();
        let plans: Vec<DecodePlan> = masks.iter().map(DecodePlan::new).collect();
        let mut pooled = MultiMaskPlan::with_capacity(0, 0, 0);
        pooled.refill([(&plans[0], 8), (&plans[1], 4)]);
        assert_eq!(pooled.patches(), 12);
        let narrow = [(&plans[1], 1), (&plans[0], 2)];
        pooled.refill(narrow);
        let fresh = MultiMaskPlan::new(&narrow);
        assert_eq!(pooled.patches(), fresh.patches());
        assert_eq!(pooled.kept_rows(), fresh.kept_rows());
        assert_eq!(pooled.pos_rows(), fresh.pos_rows());
        assert_eq!(pooled.compose(), fresh.compose());
        assert_eq!(pooled.erased_rows(), fresh.erased_rows());
        assert_rows_follow_masks(&pooled, &[&masks[1], &masks[0], &masks[0]]);
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
    #[should_panic(expected = "mixes erase counts")]
    fn multi_mask_plan_rejects_mixed_erase_counts() {
        let quarter = EaszConfig::default().make_mask();
        let half = EaszConfig::builder().erase_ratio(0.5).build().expect("cfg").make_mask();
        let (pq, ph) = (DecodePlan::new(&quarter), DecodePlan::new(&half));
        let _ = MultiMaskPlan::new(&[(&pq, 1), (&ph, 1)]);
    }
}

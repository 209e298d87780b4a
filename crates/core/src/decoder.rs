//! The server half of Easz: inner codec decode, un-squeeze, transformer
//! reconstruction of the erased sub-patches, plus the perceptual
//! post-passes (seam feathering, grain synthesis).
//!
//! [`EaszDecoder`] owns the [`CodecRegistry`] and borrows the
//! [`Reconstructor`], and resolves the inner codec *from the bitstream
//! header* — it decodes any `.easz` stream whose patch geometry matches the
//! model, with no out-of-band codec agreement.
//!
//! Decoding is staged so the transformer forward — the dominant cost — can
//! be amortised across streams: *prepare* (validate, inner-decode,
//! un-squeeze) and *finish* (scatter predictions, feather, grain, assemble)
//! are per-container, while the forward in between operates on one
//! [`TokenBatch`]. [`EaszDecoder::decode_batch`] exploits this by
//! concatenating the patches of every container that shares an effective
//! mask into a single batch, issuing **one forward per mask group** instead
//! of one per container, with bit-identical results (attention is confined
//! within each patch, and every remaining op is row-wise).

use crate::container::EaszEncoded;
use crate::error::EaszError;
use crate::mask::EraseMask;
use crate::model::{Reconstructor, TokenBatch};
use crate::patchify::{patch_tokens, place_token, PatchGeometry, Patchified};
use crate::plan::{ArenaPool, DecodePlan, MultiMaskPlan, PlanCache};
use crate::squeeze::{unsqueeze_patch, FillMethod, Orientation};
use easz_codecs::{CodecRegistry, ImageCodec};
use easz_image::{Channels, ImageF32};

/// Which numeric tier a decode's transformer forward runs on — the two a
/// client can ask for over the wire.
///
/// Both run forward-only on an [`InferenceSession`](easz_tensor::InferenceSession)
/// with cached decode plans and scratch-arena buffer reuse. The default
/// [`TapeFree`](DecodeEngine::TapeFree) tier is the f32 reference: its
/// tokens are byte-identical to the training tape's
/// ([`Reconstructor::reconstruct_tokens_graph`], gated by
/// `tests/infer_equivalence.rs`). The
/// [`QuantizedInt8`](DecodeEngine::QuantizedInt8) tier trades bit-exactness
/// for speed under an explicit numeric contract: per-pixel error ≤ ε and
/// ≥ 40 dB PSNR against the f32 reference decode (enforced by
/// `tests/quantized_divergence.rs`), while staying deterministic — the same
/// container yields the same bytes on every ISA, worker count and batch
/// composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeEngine {
    /// Forward-only f32 executor (the bit-exact production path).
    #[default]
    TapeFree,
    /// The int8 fast tier: per-column weight quantization, widening
    /// multiply-accumulate matmuls, f16-rounded activations. Bounded
    /// divergence from the f32 tier, not bit-equal.
    QuantizedInt8,
}

/// One served reconstructor with its own plan cache. Plans are built from
/// (mask, model geometry), so caches must not be shared across models with
/// different weights or shapes; the scratch [`ArenaPool`] is pure buffer
/// storage and *is* shared decoder-wide.
struct ModelSlot<'m> {
    id: u8,
    model: &'m Reconstructor,
    plans: PlanCache,
}

/// One fused forward group a batch decode dispatched: `(model id,
/// containers in the group)`.
pub type FusedGroup = (u8, usize);

/// The server-side session: the served reconstructors (the model zoo,
/// keyed by the container header's model id — byte 9, format version 3)
/// plus the codec registry used to resolve inner codecs named by bitstream
/// headers, plus the inference state that amortises decode cost across
/// calls (per-model cached [`DecodePlan`](crate::DecodePlan)s and pooled
/// scratch arenas).
pub struct EaszDecoder<'m> {
    /// Sorted by id; id 0 (the generic model) is always present.
    slots: Vec<ModelSlot<'m>>,
    registry: CodecRegistry,
    arenas: ArenaPool,
    /// Optional decode-stage timing subscriber (see [`crate::StageSink`]).
    /// `None` — the default — keeps every instrumented site a single
    /// inlined branch: no clock reads, no allocation.
    stage_sink: Option<crate::StageSink>,
}

impl<'m> std::fmt::Debug for EaszDecoder<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EaszDecoder")
            .field("models", &self.slots.iter().map(|s| s.id).collect::<Vec<_>>())
            .field("registry", &self.registry)
            .finish()
    }
}

impl<'m> EaszDecoder<'m> {
    /// Creates a decoder around a trained reconstructor (served as the
    /// generic model, id 0) with every codec shipped in `easz-codecs`
    /// registered ([`CodecRegistry::with_defaults`]: `jpeg-like` and
    /// `bpg-like`). A container naming any other codec — the simulated
    /// ones of `easz-testbed` included — fails with
    /// [`EaszError::UnknownCodec`]; use
    /// [`with_registry`](Self::with_registry) to decode those.
    pub fn new(model: &'m Reconstructor) -> Self {
        Self::with_registry(model, CodecRegistry::with_defaults())
    }

    /// Creates a decoder with a caller-supplied registry (e.g. extended
    /// with custom codecs, or stripped to an allow-list).
    pub fn with_registry(model: &'m Reconstructor, registry: CodecRegistry) -> Self {
        Self {
            slots: vec![ModelSlot { id: 0, model, plans: PlanCache::new() }],
            registry,
            arenas: ArenaPool::new(),
            stage_sink: None,
        }
    }

    /// Installs a decode-stage timing subscriber (see [`crate::StageSink`]):
    /// each parse / plan / forward / finish stage executed reports its wall
    /// time. Observation only — decode output is unaffected. Without a sink
    /// the stage sites cost one inlined branch and read no clocks.
    pub fn set_stage_sink(&mut self, sink: crate::StageSink) {
        self.stage_sink = Some(sink);
    }

    /// Starts timing one stage execution — `None` (free) when no sink is
    /// installed.
    #[inline]
    fn stage_start(&self) -> Option<std::time::Instant> {
        self.stage_sink.as_ref().map(|_| std::time::Instant::now())
    }

    /// Reports one stage execution started by [`stage_start`](Self::stage_start).
    #[inline]
    fn stage_end(&self, start: Option<std::time::Instant>, stage: crate::DecodeStage) {
        if let (Some(sink), Some(start)) = (&self.stage_sink, start) {
            sink(stage, start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
    }

    /// Serves `model` under container model id `id` (replacing any previous
    /// model at that id), with its own plan cache. Containers naming an id
    /// never registered are rejected with [`EaszError::UnknownModel`].
    pub fn add_model(&mut self, id: u8, model: &'m Reconstructor) {
        match self.slots.binary_search_by_key(&id, |s| s.id) {
            Ok(pos) => self.slots[pos] = ModelSlot { id, model, plans: PlanCache::new() },
            Err(pos) => self.slots.insert(pos, ModelSlot { id, model, plans: PlanCache::new() }),
        }
    }

    /// Builder-style [`add_model`](Self::add_model).
    pub fn with_model(mut self, id: u8, model: &'m Reconstructor) -> Self {
        self.add_model(id, model);
        self
    }

    /// The model ids this decoder serves, ascending (id 0 always present).
    pub fn model_ids(&self) -> impl Iterator<Item = u8> + '_ {
        self.slots.iter().map(|s| s.id)
    }

    fn slot(&self, id: u8) -> Result<&ModelSlot<'m>, EaszError> {
        self.slots
            .binary_search_by_key(&id, |s| s.id)
            .map(|pos| &self.slots[pos])
            .map_err(|_| EaszError::UnknownModel(id))
    }

    /// Number of decode plans currently cached across all served models
    /// (one per (model, effective mask) seen; bounded). Exposed for tests
    /// and server metrics.
    pub fn cached_plans(&self) -> usize {
        self.slots.iter().map(|s| s.plans.len()).sum()
    }

    /// The codec registry this decoder resolves inner codecs from.
    pub fn registry(&self) -> &CodecRegistry {
        &self.registry
    }

    /// The generic (id 0) reconstructor.
    pub fn model(&self) -> &Reconstructor {
        self.slot(0).expect("id 0 is always served").model
    }

    /// Parses an `.easz` container and decodes it — the one-call server
    /// path for bytes straight off the wire.
    ///
    /// # Errors
    ///
    /// Container parse errors (see [`EaszEncoded::from_bytes`]) plus
    /// everything [`decode`](Self::decode) can return.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Result<ImageF32, EaszError> {
        self.decode(&EaszEncoded::from_bytes(bytes)?)
    }

    /// Decodes a parsed container on its preferred tier (its quantized-tier
    /// opt-in flag), resolving the inner codec from the registry by the id
    /// stamped in the bitstream. A codec without a shipped wire identity is
    /// served by [`CodecRegistry::register`] +
    /// [`with_registry`](Self::with_registry).
    ///
    /// # Errors
    ///
    /// In the order they are checked: [`EaszError::UnknownModel`] if no
    /// model is served under the header's model id,
    /// [`EaszError::GeometryMismatch`] if that model's patch geometry is not
    /// the bitstream's, [`EaszError::MaskChannel`] for a corrupt mask side
    /// channel, [`EaszError::UnknownCodec`] if the registry has no codec
    /// under the bitstream's id, inner-codec errors, and
    /// [`EaszError::Malformed`] if the decoded payload's size disagrees with
    /// the announced geometry.
    pub fn decode(&self, encoded: &EaszEncoded) -> Result<ImageF32, EaszError> {
        self.decode_as(encoded, encoded.preferred_engine())
    }

    /// [`decode`](Self::decode) on an explicit tier, overriding the
    /// container's standing preference for this call. The server's tiered
    /// request frames route here. A window of one through
    /// [`decode_batch_with_stats`](Self::decode_batch_with_stats): serial
    /// and fused decodes are the same code, so they agree on every pixel
    /// and every error by construction.
    ///
    /// # Errors
    ///
    /// Everything [`decode`](Self::decode) can return.
    pub fn decode_as(
        &self,
        encoded: &EaszEncoded,
        engine: DecodeEngine,
    ) -> Result<ImageF32, EaszError> {
        let (mut window, _) =
            self.decode_batch_with_stats(std::slice::from_ref(encoded), &[engine]);
        window.pop().expect("a window of one yields one result")
    }

    /// Decodes a batch of containers, amortising the transformer across
    /// streams: every container sharing the model's geometry and an erase
    /// *count* (kept tokens per patch) is concatenated into one
    /// [`TokenBatch`] and costs a single forward pass instead of one per
    /// container. Containers whose effective masks are identical ride the
    /// uniform-mask plan; a mixed-mask group (distinct per-stream seeds —
    /// the realistic fleet case) is fused through a [`MultiMaskPlan`],
    /// which maps each patch by its own mask inside the shared forward.
    ///
    /// Errors are isolated per container — one corrupt or unresolvable
    /// stream never fails its batch mates — and every produced image is
    /// byte-identical to the one the equivalent serial
    /// [`decode`](Self::decode) call returns, in input order.
    ///
    /// Each container runs on its own preferred engine (its quantized-tier
    /// opt-in flag); containers on different engines never share a forward.
    pub fn decode_batch(&self, encoded: &[EaszEncoded]) -> Vec<Result<ImageF32, EaszError>> {
        let engines: Vec<DecodeEngine> = encoded.iter().map(|e| e.preferred_engine()).collect();
        self.decode_batch_with(encoded, &engines)
    }

    /// [`decode_batch`](Self::decode_batch) with an explicit per-container
    /// engine, overriding the containers' standing preferences. The engine
    /// joins the fusion key: only containers on the *same* engine (and
    /// kept-token count) share a forward, so a mixed-tier window never
    /// fuses f32 streams with quantized ones. Within each engine the serial
    /// byte-identity guarantee of [`decode_batch`](Self::decode_batch)
    /// holds — including on the quantized tier, whose per-row arithmetic
    /// makes fused and serial decodes bit-equal *to each other* (though
    /// only ε-close to the f32 tier).
    ///
    /// # Panics
    ///
    /// If `engines.len() != encoded.len()`.
    pub fn decode_batch_with(
        &self,
        encoded: &[EaszEncoded],
        engines: &[DecodeEngine],
    ) -> Vec<Result<ImageF32, EaszError>> {
        self.decode_batch_with_stats(encoded, engines).0
    }

    /// [`decode_batch_with`](Self::decode_batch_with), additionally
    /// reporting each fused forward group the window dispatched as
    /// `(model id, containers in the group)`, in dispatch order. A
    /// single-model window of k fusable containers reports `[(id, k)]`; a
    /// window spanning the zoo reports one entry per (model, kept count,
    /// engine) group — the server's batch-width histogram records these, so
    /// it can prove fusion never crossed a model boundary.
    pub fn decode_batch_with_stats(
        &self,
        encoded: &[EaszEncoded],
        engines: &[DecodeEngine],
    ) -> (Vec<Result<ImageF32, EaszError>>, Vec<FusedGroup>) {
        assert_eq!(engines.len(), encoded.len(), "one engine per container");
        // Cheap wire-level validation first: grouping needs every effective
        // mask before any pixel work, and the expensive stages then run
        // group-by-group so each stream's pixels stay warm from inner
        // decode through finish.
        let mut out: Vec<Option<Result<ImageF32, EaszError>>> =
            encoded.iter().map(|_| None).collect();
        let mut masks: Vec<Option<(EraseMask, EraseMask)>> = Vec::with_capacity(encoded.len());
        let mut model_slots: Vec<Option<&ModelSlot<'m>>> = Vec::with_capacity(encoded.len());
        for (e, slot) in encoded.iter().zip(&mut out) {
            match self.validate_masks(e) {
                Ok((model_slot, wire, eff)) => {
                    masks.push(Some((wire, eff)));
                    model_slots.push(Some(model_slot));
                }
                Err(error) => {
                    *slot = Some(Err(error));
                    masks.push(None);
                    model_slots.push(None);
                }
            }
        }
        // Group by (model id, kept-token count, engine): the geometry is
        // already pinned to the routed model's, so equal counts are
        // sufficient for one fused forward even when the erase positions
        // differ per stream — but only among streams decoded by the same
        // model on the same numeric tier. Fusing across models would run
        // one model's weights over another stream's pixels.
        let fusion_keys: Vec<Option<(u8, usize, DecodeEngine)>> = masks
            .iter()
            .zip(&model_slots)
            .zip(engines)
            .map(|((m, slot), &engine)| {
                m.as_ref().map(|(_, eff)| {
                    let id = slot.expect("validated streams have a model").id;
                    (id, eff.iter().filter(|&(_, _, e)| !e).count(), engine)
                })
            })
            .collect();
        let mut group_stats: Vec<(u8, usize)> = Vec::new();
        for group in batch_groups(&fusion_keys) {
            // Heavy per-stream stage; failures here (unresolvable codec,
            // corrupt payload) drop the stream from the forward, not the
            // batch.
            let engine = engines[group[0]];
            let slot = model_slots[group[0]].expect("grouped streams have a model");
            let mut members: Vec<(usize, PreparedStream)> = Vec::with_capacity(group.len());
            let mut tokens: Vec<Vec<Vec<f32>>> = Vec::new();
            for i in group {
                let (wire_mask, mask) = masks[i].take().expect("grouped streams have masks");
                let result = self
                    .registry
                    .get(encoded[i].codec_id)
                    .ok_or(EaszError::UnknownCodec(encoded[i].codec_id))
                    .and_then(|codec| self.prepare(&encoded[i], codec, wire_mask, mask));
                match result {
                    Ok(p) => {
                        tokens
                            .extend(p.patches.iter().map(|patch| patch_tokens(patch, p.geometry)));
                        members.push((i, p));
                    }
                    Err(error) => out[i] = Some(Err(error)),
                }
            }
            if members.is_empty() {
                continue;
            }
            group_stats.push((slot.id, members.len()));
            // One transformer forward for the whole group. The plan stage
            // picks the row view: a uniform-mask group keeps its cached
            // plan's broadcast positional rows, a mixed-mask group fuses
            // through a MultiMaskPlan. Everything this block builds, the
            // token batch included, is dropped before finish allocates the
            // output images.
            let recon = {
                let batch = TokenBatch::from_patches(&tokens);
                let t = self.stage_start();
                let (uniform, plans, streams, fused);
                let rows = if members.iter().all(|(_, p)| p.mask == members[0].1.mask) {
                    let plan = slot.plans.get_or_build(&members[0].1.mask);
                    uniform = (plan.maps_for(batch.batch), plan);
                    uniform.1.rows(&uniform.0)
                } else {
                    plans = members
                        .iter()
                        .map(|(_, p)| (slot.plans.get_or_build(&p.mask), p.patches.len()))
                        .collect::<Vec<_>>();
                    streams = plans
                        .iter()
                        .map(|(plan, count)| (plan.as_ref(), *count))
                        .collect::<Vec<(&DecodePlan, usize)>>();
                    fused = MultiMaskPlan::new(&streams);
                    fused.rows()
                };
                self.stage_end(t, crate::DecodeStage::Plan);
                let mut arena = self.arenas.take();
                let t = self.stage_start();
                let recon = slot.model.infer(&batch, rows, &mut arena, engine);
                self.stage_end(t, crate::DecodeStage::Forward);
                self.arenas.put(arena);
                recon
            };
            let mut offset = 0usize;
            let t = self.stage_start();
            for (i, p) in members {
                let count = p.patches.len();
                out[i] = Some(Ok(finish(p, &recon[offset..offset + count])));
                offset += count;
            }
            self.stage_end(t, crate::DecodeStage::Finish);
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every stream is either rejected or finished"))
            .collect();
        (results, group_stats)
    }

    /// Wire-level validation of one container: routes the
    /// container to its served model by header model id, checks the
    /// container's geometry against that model, parses the mask side
    /// channel and resolves the squeeze orientation. Cheap — no pixel work.
    ///
    /// Returns `(model slot, wire mask, effective mask)`: the slot that
    /// decodes this stream, the side channel as transmitted (which drives
    /// the un-squeeze layout) and its orientation-resolved form (which
    /// drives reconstruction and batch grouping). For horizontal squeeze
    /// the two masks are the same mask.
    fn validate_masks(
        &self,
        encoded: &EaszEncoded,
    ) -> Result<(&ModelSlot<'m>, EraseMask, EraseMask), EaszError> {
        let t = self.stage_start();
        let result = self.validate_masks_inner(encoded);
        self.stage_end(t, crate::DecodeStage::Parse);
        result
    }

    fn validate_masks_inner(
        &self,
        encoded: &EaszEncoded,
    ) -> Result<(&ModelSlot<'m>, EraseMask, EraseMask), EaszError> {
        let slot = self.slot(encoded.config.model_id)?;
        let model_cfg = slot.model.config();
        if (model_cfg.n, model_cfg.b) != (encoded.config.n, encoded.config.b) {
            return Err(EaszError::GeometryMismatch {
                model: (model_cfg.n, model_cfg.b),
                bitstream: (encoded.config.n, encoded.config.b),
            });
        }
        let mask = EraseMask::from_bytes(&encoded.mask_bytes).map_err(EaszError::MaskChannel)?;
        let geometry = encoded.config.geometry();
        // `from_bytes` already enforces this, but `EaszEncoded` has public
        // fields and a hand-assembled container never went through it, so
        // re-check here rather than index out of bounds below.
        if mask.n_grid() != geometry.grid() {
            return Err(EaszError::MaskChannel(format!(
                "mask grid {} does not match geometry grid {}",
                mask.n_grid(),
                geometry.grid()
            )));
        }
        // For vertical squeeze the mask indexes (col, row); reconstruction
        // operates on the grid directly, so transpose mask semantics by
        // transposing erased positions.
        let effective = match encoded.config.orientation {
            Orientation::Horizontal => mask.clone(),
            Orientation::Vertical => transpose_mask(&mask),
        };
        Ok((slot, mask, effective))
    }

    /// Stage 1 of decoding: inner-decode the payload and un-squeeze it back
    /// onto the patch grid (erased sub-patches zero-filled). Both masks
    /// come from [`validate_masks`](Self::validate_masks): the wire mask
    /// drives the squeeze layout, the effective mask rides along into the
    /// [`PreparedStream`] for reconstruction.
    fn prepare(
        &self,
        encoded: &EaszEncoded,
        codec: &dyn ImageCodec,
        wire_mask: EraseMask,
        mask: EraseMask,
    ) -> Result<PreparedStream, EaszError> {
        let t = self.stage_start();
        let result = self.prepare_inner(encoded, codec, wire_mask, mask);
        self.stage_end(t, crate::DecodeStage::Parse);
        result
    }

    fn prepare_inner(
        &self,
        encoded: &EaszEncoded,
        codec: &dyn ImageCodec,
        wire_mask: EraseMask,
        mask: EraseMask,
    ) -> Result<PreparedStream, EaszError> {
        let geometry = encoded.config.geometry();
        let squeezed = codec.decode(&encoded.payload)?;
        let orientation = encoded.config.orientation;
        let t_b = wire_mask.erased_per_row() * geometry.b;
        let (sq_w, sq_h) = match orientation {
            Orientation::Horizontal => (geometry.n - t_b, geometry.n),
            Orientation::Vertical => (geometry.n, geometry.n - t_b),
        };
        let (pad_w, pad_h) = geometry.padded_size(encoded.width, encoded.height);
        let (cols, rows) = (pad_w / geometry.n, pad_h / geometry.n);
        if squeezed.width() != cols * sq_w || squeezed.height() != rows * sq_h {
            return Err(EaszError::Malformed(format!(
                "squeezed payload {}x{} does not match geometry {}x{}",
                squeezed.width(),
                squeezed.height(),
                cols * sq_w,
                rows * sq_h
            )));
        }

        // Un-squeeze every patch with zero fill; the forward fills the holes.
        let mut patches: Vec<ImageF32> = Vec::with_capacity(cols * rows);
        for i in 0..cols * rows {
            let (px, py) = (i % cols, i / cols);
            let sq = squeezed.crop(px * sq_w, py * sq_h, sq_w, sq_h);
            patches.push(unsqueeze_patch(&sq, geometry, &wire_mask, orientation, FillMethod::Zero));
        }
        Ok(PreparedStream {
            patches,
            mask,
            geometry,
            cols,
            rows,
            width: encoded.width,
            height: encoded.height,
            channels: squeezed.channels(),
            synthesize_grain: encoded.config.synthesize_grain,
        })
    }
}

/// A container after stage 1 of decoding (validated, inner-decoded,
/// un-squeezed), waiting for its transformer predictions.
struct PreparedStream {
    /// Zero-filled patches on the full grid.
    patches: Vec<ImageF32>,
    /// Effective reconstruction mask (orientation already resolved).
    mask: EraseMask,
    geometry: PatchGeometry,
    cols: usize,
    rows: usize,
    width: usize,
    height: usize,
    channels: Channels,
    synthesize_grain: bool,
}

/// Stage 2 of decoding: scatter the model's predicted tokens into the
/// erased slots of each patch, run the perceptual post-passes and assemble
/// the canvas. `recon` holds one prediction list per patch, in patch order.
fn finish(mut prepared: PreparedStream, recon: &[Vec<Vec<f32>>]) -> ImageF32 {
    let geometry = prepared.geometry;
    let grid = geometry.grid();
    for (pi, patch) in prepared.patches.iter_mut().enumerate() {
        for (row, col, erased) in prepared.mask.iter() {
            if erased {
                let s = row * grid + col;
                place_token(patch, geometry, row, col, &recon[pi][s]);
            }
        }
        feather_erased_boundaries(patch, geometry, &prepared.mask);
        if prepared.synthesize_grain {
            synthesize_grain(patch, geometry, &prepared.mask, pi as u64);
        }
    }
    let patched = Patchified {
        geometry,
        orig_width: prepared.width,
        orig_height: prepared.height,
        channels: prepared.channels,
        cols: prepared.cols,
        rows: prepared.rows,
        patches: prepared.patches,
    };
    let mut out = patched.to_image();
    out.clamp01();
    out
}

/// Groups stream indices by a fusion key (today: model id, kept-token
/// count and execution engine), preserving first-seen order within and across groups
/// (`None` slots — failed validations — are skipped). Each returned group
/// is served by one transformer forward.
fn batch_groups<K: PartialEq>(keys: &[Option<K>]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let Some(key) = key else { continue };
        match groups.iter_mut().find(|(rep, _)| keys[*rep].as_ref() == Some(key)) {
            Some((_, members)) => members.push(i),
            None => groups.push((i, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Softens the 1-pixel seam between in-painted sub-patches and their kept
/// neighbours: predicted boundary pixels are averaged towards the adjacent
/// kept pixel. Removes the slight blockiness of hole-filling (it cannot
/// *add* information, only hide the discontinuity).
fn feather_erased_boundaries(patch: &mut ImageF32, geometry: PatchGeometry, mask: &EraseMask) {
    let b = geometry.b;
    let cc = patch.channels().count();
    let grid = geometry.grid();
    let blend = 0.5f32;
    for (row, col, erased) in mask.iter() {
        if !erased {
            continue;
        }
        let (x0, y0) = (col * b, row * b);
        // Left/right/top/bottom neighbours that are kept (or outside).
        let sides: [(bool, isize, isize); 4] = [
            (col > 0 && !mask.is_erased(row, col - 1), -1, 0),
            (col + 1 < grid && !mask.is_erased(row, col + 1), 1, 0),
            (row > 0 && !mask.is_erased(row - 1, col), 0, -1),
            (row + 1 < grid && !mask.is_erased(row + 1, col), 0, 1),
        ];
        for (kept, dx, dy) in sides {
            if !kept {
                continue;
            }
            for t in 0..b {
                // Boundary pixel inside the erased block and its kept
                // neighbour just outside.
                let (ex, ey, nx, ny) = match (dx, dy) {
                    (-1, 0) => (x0, y0 + t, x0 as isize - 1, (y0 + t) as isize),
                    (1, 0) => (x0 + b - 1, y0 + t, (x0 + b) as isize, (y0 + t) as isize),
                    (0, -1) => (x0 + t, y0, (x0 + t) as isize, y0 as isize - 1),
                    _ => (x0 + t, y0 + b - 1, (x0 + t) as isize, (y0 + b) as isize),
                };
                for c in 0..cc {
                    let e = patch.get(ex, ey, c);
                    let n = patch.get_clamped(nx, ny, c);
                    patch.set(ex, ey, c, e + blend * 0.5 * (n - e));
                }
            }
        }
    }
}

/// Adds seeded grain to in-painted sub-patches, amplitude-matched to the
/// fine detail of the surrounding kept pixels. In-painting predicts the
/// local mean, which looks unnaturally smooth inside textured content; the
/// grain restores the local statistics that no-reference metrics (and
/// viewers) expect. Purely synthetic — like GAN texture or AV1 film-grain
/// synthesis, it trades a little PSNR for naturalness.
fn synthesize_grain(patch: &mut ImageF32, geometry: PatchGeometry, mask: &EraseMask, seed: u64) {
    let b = geometry.b;
    let cc = patch.channels().count();
    // Estimate the patch's fine-detail amplitude from kept pixels: mean
    // absolute horizontal gradient inside kept sub-patches.
    let mut acc = 0.0f32;
    let mut count = 0usize;
    for (row, col, erased) in mask.iter() {
        if erased {
            continue;
        }
        let (x0, y0) = (col * b, row * b);
        for dy in 0..b {
            for dx in 0..b.saturating_sub(1) {
                acc += (patch.get(x0 + dx + 1, y0 + dy, 0) - patch.get(x0 + dx, y0 + dy, 0)).abs();
                count += 1;
            }
        }
    }
    if count == 0 {
        return;
    }
    // Uniform grain with peak-to-peak amplitude `a` has mean |adjacent
    // difference| = a/3, so matching the kept-region gradient needs 3x.
    let amplitude = (acc / count as f32 * 3.0).min(0.2);
    if amplitude < 0.005 {
        return; // smooth patch: no grain to match
    }
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5151_5151);
    for (row, col, erased) in mask.iter() {
        if !erased {
            continue;
        }
        let (x0, y0) = (col * b, row * b);
        for dy in 0..b {
            for dx in 0..b {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let g = ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * amplitude;
                for c in 0..cc {
                    let v = patch.get(x0 + dx, y0 + dy, c) + g;
                    patch.set(x0 + dx, y0 + dy, c, v.clamp(0.0, 1.0));
                }
            }
        }
    }
}

/// Transposes a mask (used to reuse the row-indexed reconstruction path for
/// vertically squeezed patches). The transpose of a row-uniform mask is
/// generally *not* row-uniform, so this goes through the unconstrained
/// constructor.
fn transpose_mask(mask: &EraseMask) -> EraseMask {
    let n = mask.n_grid();
    let mut cells = vec![false; n * n];
    for (r, c, erased) in mask.iter() {
        if erased {
            cells[c * n + r] = true;
        }
    }
    EraseMask::from_cells(n, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EaszConfig, MaskStrategy};
    use crate::encoder::EaszEncoder;
    use crate::model::ReconstructorConfig;
    use easz_codecs::{CodecId, JpegLikeCodec, Quality};
    use easz_data::Dataset;
    use easz_metrics::psnr;

    fn quick_model() -> Reconstructor {
        Reconstructor::new(ReconstructorConfig::fast())
    }

    fn encoder() -> EaszEncoder {
        EaszEncoder::new(EaszConfig::default()).expect("encoder")
    }

    #[test]
    fn compress_decode_round_trip_geometry() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(1).crop(0, 0, 96, 64);
        let enc =
            encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(85)).expect("compress");
        assert!(enc.bpp() > 0.0);
        let out = dec.decode(&enc).expect("decode");
        assert_eq!((out.width(), out.height()), (96, 64));
        // Even with an untrained model, kept pixels survive the inner codec,
        // so overall PSNR is bounded below by the erase ratio.
        assert!(psnr(&img, &out) > 10.0, "psnr {}", psnr(&img, &out));
    }

    #[test]
    fn stage_sink_reports_every_stage_without_changing_output() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let model = quick_model();
        let img = Dataset::KodakLike.image(2).crop(0, 0, 96, 64);
        let enc =
            encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(80)).expect("compress");
        let silent = EaszDecoder::new(&model);
        let reference = silent.decode(&enc).expect("decode without sink");

        let counts: Arc<[AtomicU64; crate::DECODE_STAGES]> =
            Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let mut traced = EaszDecoder::new(&model);
        let sink_counts = counts.clone();
        traced.set_stage_sink(Arc::new(move |stage: crate::DecodeStage, _us| {
            sink_counts[stage.index()].fetch_add(1, Ordering::Relaxed);
        }));
        let observed = traced.decode(&enc).expect("decode with sink");
        assert_eq!(observed.data(), reference.data(), "the sink must not perturb decode output");
        for stage in [
            crate::DecodeStage::Parse,
            crate::DecodeStage::Plan,
            crate::DecodeStage::Forward,
            crate::DecodeStage::Finish,
        ] {
            assert!(
                counts[stage.index()].load(Ordering::Relaxed) >= 1,
                "stage {} must report at least once",
                stage.name()
            );
        }
        // The batch path reports through the same sink.
        let before: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let batched = traced.decode_batch(std::slice::from_ref(&enc));
        assert!(batched[0].is_ok());
        let after: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert!(after > before, "batch decode must report stages too");
    }

    #[test]
    fn mask_side_channel_is_small() {
        // Paper: a 32x32 mask costs 128 bytes. Our grids are n/b = 8, so
        // the side channel is 12 bytes — negligible either way.
        let img = Dataset::KodakLike.image(2).crop(0, 0, 64, 64);
        let enc =
            encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("compress");
        assert!(enc.mask_bytes.len() <= 132, "mask bytes {}", enc.mask_bytes.len());
        assert!(enc.total_bytes() > enc.payload.len());
    }

    #[test]
    fn vertical_orientation_decodes() {
        let model = quick_model();
        let cfg = EaszConfig { orientation: Orientation::Vertical, ..Default::default() };
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(6).crop(0, 0, 64, 96);
        let encoded = enc.compress(&img, &JpegLikeCodec::new(), Quality::new(80)).expect("c");
        let out = dec.decode(&encoded).expect("decode");
        assert_eq!((out.width(), out.height()), (64, 96));
        assert!(psnr(&img, &out) > 10.0);
    }

    #[test]
    fn random_strategy_also_round_trips() {
        let model = quick_model();
        let cfg = EaszConfig { strategy: MaskStrategy::Random, ..Default::default() };
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(5).crop(0, 0, 64, 64);
        let encoded = enc.compress(&img, &JpegLikeCodec::new(), Quality::new(75)).expect("c");
        let out = dec.decode(&encoded).expect("decode");
        assert_eq!(out.width(), 64);
    }

    #[test]
    fn unregistered_codec_id_is_a_typed_error() {
        let model = quick_model();
        let dec = EaszDecoder::with_registry(&model, easz_codecs::CodecRegistry::empty());
        let img = Dataset::KodakLike.image(3).crop(0, 0, 64, 64);
        let encoded = encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        assert!(matches!(dec.decode(&encoded), Err(EaszError::UnknownCodec(CodecId::JPEG_LIKE))));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let model = quick_model(); // n=32, b=4
        let dec = EaszDecoder::new(&model);
        let cfg = EaszConfig::builder().n(16).b(2).build().expect("cfg");
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let img = Dataset::KodakLike.image(4).crop(0, 0, 64, 64);
        let encoded = enc.compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        assert!(matches!(dec.decode(&encoded), Err(EaszError::GeometryMismatch { .. })));
    }

    #[test]
    fn hand_built_mask_grid_mismatch_is_rejected_not_a_panic() {
        // `EaszEncoded` has public fields; a hand-assembled container whose
        // mask parses but disagrees with the header grid must be a typed
        // error at decode, not an index-out-of-bounds in reconstruction.
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(7).crop(0, 0, 64, 64);
        let codec = JpegLikeCodec::new();
        let mut encoded = encoder().compress(&img, &codec, Quality::new(70)).expect("c");
        // A valid 16-grid mask against the header's 8-grid geometry.
        let foreign = EaszConfig::builder().n(32).b(2).build().expect("cfg").make_mask().to_bytes();
        encoded.mask_bytes = foreign;
        assert!(matches!(dec.decode(&encoded), Err(EaszError::MaskChannel(_))));
    }

    #[test]
    fn decode_batch_is_byte_identical_to_serial_decode() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let enc = encoder();
        let codec = JpegLikeCodec::new();
        // Same encoder config => same mask => one shared forward; content
        // and canvas sizes differ per stream.
        let containers: Vec<EaszEncoded> = [(1usize, 96, 64), (2, 64, 64), (3, 128, 96)]
            .iter()
            .map(|&(i, w, h)| {
                let img = Dataset::KodakLike.image(i).crop(0, 0, w, h);
                enc.compress(&img, &codec, Quality::new(80)).expect("compress")
            })
            .collect();
        let batched = dec.decode_batch(&containers);
        assert_eq!(batched.len(), 3);
        for (c, b) in containers.iter().zip(&batched) {
            let serial = dec.decode(c).expect("serial decode");
            let b = b.as_ref().expect("batched decode");
            assert_eq!(serial.data(), b.data(), "batched decode must be byte-identical");
        }
    }

    #[test]
    fn decode_batch_isolates_per_stream_errors() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let codec = JpegLikeCodec::new();
        let img = Dataset::KodakLike.image(8).crop(0, 0, 64, 64);
        let good = encoder().compress(&img, &codec, Quality::new(70)).expect("compress");
        let mut corrupt = good.clone();
        corrupt.mask_bytes.truncate(1);
        let mut foreign = good.clone();
        foreign.codec_id = CodecId(200);
        let results = dec.decode_batch(&[good.clone(), corrupt, foreign, good]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EaszError::MaskChannel(_))));
        assert!(matches!(results[2], Err(EaszError::UnknownCodec(CodecId(200)))));
        let first = results[0].as_ref().expect("first decode");
        let last = results[3].as_ref().expect("last decode");
        assert_eq!(first.data(), last.data(), "identical streams decode identically");
    }

    #[test]
    fn serial_and_fused_decode_agree_on_error_precedence() {
        // A container wrong twice over gets one typed error, and it is the
        // served one: model, geometry and mask are validated before the
        // codec is resolved, whether the container decodes alone or beside
        // windowmates.
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(8).crop(0, 0, 64, 64);
        let good = encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        let mut unmounted = good.clone();
        unmounted.codec_id = CodecId(200);
        unmounted.config.model_id = 9;
        let mut corrupt = good.clone();
        corrupt.codec_id = CodecId(200);
        corrupt.mask_bytes.truncate(1);
        let tier = DecodeEngine::TapeFree;
        let alone_and_fused = |bad: EaszEncoded| {
            let alone = dec.decode_as(&bad, tier);
            let fused = dec.decode_batch_with(&[good.clone(), bad], &[tier, tier]).pop();
            [alone, fused.expect("two results")]
        };
        for result in alone_and_fused(unmounted) {
            assert!(matches!(result, Err(EaszError::UnknownModel(9))), "got {result:?}");
        }
        for result in alone_and_fused(corrupt) {
            assert!(matches!(result, Err(EaszError::MaskChannel(_))), "got {result:?}");
        }
    }

    #[test]
    fn decode_batch_of_nothing_is_empty() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        assert!(dec.decode_batch(&[]).is_empty());
    }

    #[test]
    fn batch_groups_share_one_forward_per_fusion_key() {
        // Keys are kept-token counts: streams fuse whenever counts match,
        // regardless of where their masks erase.
        let groups =
            batch_groups(&[Some(60usize), None, Some(48), Some(60), Some(60), None, Some(48)]);
        assert_eq!(groups, vec![vec![0, 3, 4], vec![2, 6]]);
        // N same-count streams collapse into a single forward group.
        let uniform = batch_groups(&[Some(60usize), Some(60), Some(60), Some(60)]);
        assert_eq!(uniform.len(), 1, "same-count streams must share one transformer forward");
        assert_eq!(uniform[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn mixed_tier_windows_never_fuse() {
        // The engine joins the fusion key: same kept count on different
        // tiers must land in different forward groups, in first-seen order.
        use DecodeEngine::{QuantizedInt8 as Q, TapeFree as F};
        let keys = [
            Some((0u8, 60usize, F)),
            Some((0, 60, Q)),
            Some((0, 60, F)),
            None,
            Some((0, 48, Q)),
            Some((0, 60, Q)),
        ];
        let groups = batch_groups(&keys);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 5], vec![4]]);
    }

    #[test]
    fn mixed_model_windows_never_fuse() {
        // The model id leads the fusion key: streams with equal kept counts
        // on the same tier but different zoo models must decode in separate
        // forward groups — fusing them would run one model's weights over
        // another stream's pixels.
        use DecodeEngine::TapeFree as F;
        let keys = [
            Some((0u8, 60usize, F)),
            Some((1, 60, F)),
            Some((0, 60, F)),
            Some((2, 60, F)),
            Some((1, 60, F)),
        ];
        let groups = batch_groups(&keys);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn unknown_model_id_is_a_typed_error() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(3).crop(0, 0, 64, 64);
        let cfg = EaszConfig { model_id: 9, ..EaszConfig::default() };
        let enc = EaszEncoder::new(cfg).expect("encoder");
        let encoded = enc.compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        assert!(matches!(dec.decode(&encoded), Err(EaszError::UnknownModel(9))));
        // The batch path isolates it like any other per-stream error.
        let ok = encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        let results = dec.decode_batch(&[encoded, ok]);
        assert!(matches!(results[0], Err(EaszError::UnknownModel(9))));
        assert!(results[1].is_ok());
    }

    #[test]
    fn multi_model_batch_routes_each_stream_to_its_own_model() {
        // Two genuinely different models served under ids 0 and 1: each
        // stream must decode exactly as a single-model decoder holding its
        // model would, and the per-group stats must show one group per
        // model with no cross-model fusion.
        let generic = quick_model();
        let other =
            Reconstructor::new(ReconstructorConfig { seed: 99, ..ReconstructorConfig::fast() });
        let dec = EaszDecoder::new(&generic).with_model(1, &other);
        assert_eq!(dec.model_ids().collect::<Vec<_>>(), vec![0, 1]);
        let codec = JpegLikeCodec::new();
        let img = Dataset::KodakLike.image(6).crop(0, 0, 64, 64);
        let on_model = |id: u8| {
            let cfg = EaszConfig { model_id: id, ..EaszConfig::default() };
            EaszEncoder::new(cfg)
                .expect("encoder")
                .compress(&img, &codec, Quality::new(80))
                .expect("c")
        };
        let containers = vec![on_model(0), on_model(1), on_model(0), on_model(1)];
        let engines = vec![DecodeEngine::TapeFree; containers.len()];
        let (results, stats) = dec.decode_batch_with_stats(&containers, &engines);
        assert_eq!(stats, vec![(0, 2), (1, 2)], "one fused group per model");
        let dec0 = EaszDecoder::new(&generic);
        let dec1 = EaszDecoder::new(&other);
        for (i, r) in results.iter().enumerate() {
            let single = if i % 2 == 0 { &dec0 } else { &dec1 };
            // The single-model reference decoder does not serve the
            // container's id; decode on a copy routed to id 0.
            let mut c = containers[i].clone();
            c.config.model_id = 0;
            let serial = single.decode(&c).expect("serial decode");
            assert_eq!(
                r.as_ref().expect("batched").data(),
                serial.data(),
                "stream {i} must decode on its own model exactly"
            );
        }
        // The two models must actually produce different pixels.
        assert_ne!(
            results[0].as_ref().expect("m0").data(),
            results[1].as_ref().expect("m1").data(),
            "distinct models must disagree somewhere"
        );
    }

    #[test]
    fn quantized_decode_is_deterministic_and_close_to_reference() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(1).crop(0, 0, 96, 64);
        let enc =
            encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(85)).expect("compress");
        let reference = dec.decode_as(&enc, DecodeEngine::TapeFree).expect("f32 decode");
        let quant = dec.decode_as(&enc, DecodeEngine::QuantizedInt8).expect("quant decode");
        let quant2 = dec.decode_as(&enc, DecodeEngine::QuantizedInt8).expect("quant decode 2");
        assert_eq!(quant.data(), quant2.data(), "quantized decode must be deterministic");
        assert_eq!((quant.width(), quant.height()), (96, 64));
        // Different numerics, same picture: bounded divergence from f32.
        let worst = reference
            .data()
            .iter()
            .zip(quant.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst > 0.0, "quantized tier should not be bit-equal to f32");
        assert!(worst < 0.25, "quantized divergence too large: {worst}");
    }

    #[test]
    fn quantized_batch_is_byte_identical_to_quantized_serial() {
        // The quant tier's per-row arithmetic means fusion cannot change
        // its output: batched quantized decodes must reproduce the serial
        // quantized decode bit-for-bit, for uniform and mixed masks alike.
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let codec = JpegLikeCodec::new();
        let containers: Vec<EaszEncoded> =
            [(1usize, 1u64, 96, 64), (2, 9, 64, 64), (3, 42, 64, 96)]
                .iter()
                .map(|&(i, seed, w, h)| {
                    let enc =
                        EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
                            .expect("encoder");
                    let img = Dataset::KodakLike.image(i).crop(0, 0, w, h);
                    enc.compress(&img, &codec, Quality::new(80)).expect("compress")
                })
                .collect();
        let engines = vec![DecodeEngine::QuantizedInt8; containers.len()];
        let batched = dec.decode_batch_with(&containers, &engines);
        for (c, b) in containers.iter().zip(&batched) {
            let serial = dec.decode_as(c, DecodeEngine::QuantizedInt8).expect("serial quant");
            let b = b.as_ref().expect("batched quant");
            assert_eq!(serial.data(), b.data(), "quant fusion must be byte-identical to serial");
        }
    }

    #[test]
    fn mixed_tier_batch_matches_per_tier_serial_decodes() {
        // A window mixing tiers: each stream must come back exactly as its
        // own tier's serial decode — fusion never leaks one tier's numerics
        // into another's output.
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let codec = JpegLikeCodec::new();
        let img = Dataset::KodakLike.image(5).crop(0, 0, 64, 64);
        let c = encoder().compress(&img, &codec, Quality::new(80)).expect("compress");
        let containers = vec![c.clone(), c.clone(), c.clone(), c];
        let engines = [
            DecodeEngine::TapeFree,
            DecodeEngine::QuantizedInt8,
            DecodeEngine::TapeFree,
            DecodeEngine::QuantizedInt8,
        ];
        let batched = dec.decode_batch_with(&containers, &engines);
        for ((c, &engine), b) in containers.iter().zip(&engines).zip(&batched) {
            let serial = dec.decode_as(c, engine).expect("serial decode");
            let b = b.as_ref().expect("batched decode");
            assert_eq!(serial.data(), b.data(), "tier {engine:?} must match its serial decode");
        }
        let f32_img = batched[0].as_ref().expect("f32");
        let q_img = batched[1].as_ref().expect("quant");
        assert_ne!(f32_img.data(), q_img.data(), "tiers must actually differ numerically");
    }

    #[test]
    fn mixed_mask_batch_is_byte_identical_to_serial_decode() {
        // The mixed-fleet case: same geometry and erase ratio, but every
        // stream rolls its own mask seed — one fused forward must still
        // reproduce each serial decode bit-for-bit.
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let codec = JpegLikeCodec::new();
        let containers: Vec<EaszEncoded> =
            [(1usize, 7u64, 96, 64), (2, 21, 64, 64), (3, 99, 128, 96)]
                .iter()
                .map(|&(i, seed, w, h)| {
                    let enc =
                        EaszEncoder::new(EaszConfig { mask_seed: seed, ..EaszConfig::default() })
                            .expect("encoder");
                    let img = Dataset::KodakLike.image(i).crop(0, 0, w, h);
                    enc.compress(&img, &codec, Quality::new(80)).expect("compress")
                })
                .collect();
        let masks: Vec<_> = containers.iter().map(|c| c.mask_bytes.clone()).collect();
        assert!(masks.windows(2).all(|w| w[0] != w[1]), "seeds must yield distinct masks");
        let batched = dec.decode_batch(&containers);
        for (c, b) in containers.iter().zip(&batched) {
            let serial = dec.decode(c).expect("serial decode");
            let b = b.as_ref().expect("batched decode");
            assert_eq!(serial.data(), b.data(), "mixed-mask fusion must be byte-identical");
        }
    }

    #[test]
    fn corrupt_mask_is_rejected() {
        let model = quick_model();
        let dec = EaszDecoder::new(&model);
        let img = Dataset::KodakLike.image(4).crop(0, 0, 64, 64);
        let mut encoded =
            encoder().compress(&img, &JpegLikeCodec::new(), Quality::new(70)).expect("c");
        encoded.mask_bytes.truncate(2);
        assert!(matches!(dec.decode(&encoded), Err(EaszError::MaskChannel(_))));
    }
}

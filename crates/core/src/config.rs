//! Pipeline configuration: the knobs shared by edge and server, plus the
//! fallible builder that validates them.

use crate::error::EaszError;
use crate::mask::{EraseMask, MaskKind, RowSamplerConfig};
use crate::patchify::PatchGeometry;
use crate::squeeze::Orientation;

/// Which mask family the pipeline uses (the Fig. 3 / Fig. 7 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskStrategy {
    /// The proposed row-based conditional sampler (δ = 1, Δ = 0 defaults).
    Proposed,
    /// Unconstrained per-row random erasure (the "random" baseline).
    Random,
    /// Fixed diagonal mask (T = 1, overrides the erase ratio).
    Diagonal,
}

impl MaskStrategy {
    /// The byte stamped into container headers.
    pub(crate) fn wire_byte(self) -> u8 {
        match self {
            MaskStrategy::Proposed => 0,
            MaskStrategy::Random => 1,
            MaskStrategy::Diagonal => 2,
        }
    }

    /// Parses a header byte.
    pub(crate) fn from_wire_byte(byte: u8) -> Result<Self, EaszError> {
        match byte {
            0 => Ok(MaskStrategy::Proposed),
            1 => Ok(MaskStrategy::Random),
            2 => Ok(MaskStrategy::Diagonal),
            other => Err(EaszError::Malformed(format!("unknown mask strategy byte {other}"))),
        }
    }
}

/// Pipeline configuration.
///
/// Prefer [`EaszConfig::builder`], which validates the invariants
/// ([`EaszEncoder::new`](crate::EaszEncoder::new) re-checks them for
/// configurations assembled by hand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EaszConfig {
    /// Patch side length `n`.
    pub n: usize,
    /// Sub-patch side length `b`.
    pub b: usize,
    /// Fraction of sub-patches erased per row.
    pub erase_ratio: f64,
    /// Mask family.
    pub strategy: MaskStrategy,
    /// Squeeze direction.
    pub orientation: Orientation,
    /// Seed for mask generation (shared edge/server; the mask itself is
    /// also transmitted, this seed only makes runs reproducible).
    pub mask_seed: u64,
    /// Synthesize film-grain-like detail in reconstructed sub-patches so
    /// in-painted regions match the local texture statistics (the same
    /// perceptual-over-PSNR trade learned decoders make; AV1's grain
    /// synthesis is the classical analogue). Disable for PSNR-optimal
    /// decoding.
    pub synthesize_grain: bool,
    /// Standing opt-in to the server's int8 quantized decode tier
    /// ([`DecodeEngine::QuantizedInt8`](crate::DecodeEngine::QuantizedInt8)):
    /// the edge declares it accepts ε/PSNR-bounded (not bit-exact) decodes
    /// in exchange for lower server latency. Stamped into the container as
    /// a flag bit (which bumps the written container version to 2); servers
    /// honour it by default, and tiered request frames can override it
    /// per request. Off by default — bit-exact f32 decoding.
    pub allow_quantized: bool,
    /// Which reconstructor in the server's model zoo decodes this stream.
    /// Id 0 is the generic model every server holds; nonzero ids name
    /// domain fine-tuned models ([`zoo::ModelRegistry`](crate::zoo::ModelRegistry))
    /// and bump the written container version to 3 (header byte 9, spec
    /// §1.5). A server without the named model rejects the stream with the
    /// typed [`EaszError::UnknownModel`](crate::EaszError::UnknownModel).
    pub model_id: u8,
}

impl Default for EaszConfig {
    fn default() -> Self {
        Self {
            n: 32,
            b: 4,
            erase_ratio: 0.25,
            strategy: MaskStrategy::Proposed,
            orientation: Orientation::Horizontal,
            mask_seed: 1,
            synthesize_grain: true,
            allow_quantized: false,
            model_id: 0,
        }
    }
}

impl EaszConfig {
    /// Starts a validated configuration from the paper defaults.
    pub fn builder() -> EaszConfigBuilder {
        EaszConfigBuilder { cfg: Self::default() }
    }

    /// Checks the invariants every constructor of the pipeline relies on.
    ///
    /// # Errors
    ///
    /// Returns [`EaszError::InvalidConfig`] when `n`/`b` do not form a
    /// sub-patch grid of at least 2×2, or the erase ratio leaves no room to
    /// both erase and keep sub-patches.
    pub fn validate(&self) -> Result<(), EaszError> {
        let fail = |m: String| Err(EaszError::InvalidConfig(m));
        if self.b == 0 || self.n == 0 {
            return fail(format!("patch geometry must be positive, got n={} b={}", self.n, self.b));
        }
        // The container header stores n and b as u16; bounding n (b <= n
        // follows from divisibility) keeps every valid config serializable.
        if self.n > u16::MAX as usize {
            return fail(format!("patch size n={} exceeds the wire limit {}", self.n, u16::MAX));
        }
        if !self.n.is_multiple_of(self.b) {
            return fail(format!("patch size n={} must be a multiple of b={}", self.n, self.b));
        }
        let grid = self.n / self.b;
        if grid < 2 {
            return fail(format!("grid n/b={grid} too small: need >= 2 to erase and keep"));
        }
        if !self.erase_ratio.is_finite() || self.erase_ratio <= 0.0 || self.erase_ratio >= 1.0 {
            return fail(format!("erase ratio must be in (0, 1), got {}", self.erase_ratio));
        }
        Ok(())
    }

    /// The patch geometry.
    pub fn geometry(&self) -> PatchGeometry {
        PatchGeometry::new(self.n, self.b)
    }

    /// Generates the erase mask for this configuration.
    pub fn make_mask(&self) -> EraseMask {
        let grid = self.geometry().grid();
        match self.strategy {
            MaskStrategy::Proposed => {
                MaskKind::RowConditional(RowSamplerConfig::with_ratio(grid, self.erase_ratio))
                    .generate(self.mask_seed)
            }
            MaskStrategy::Random => {
                let t = ((grid as f64 * self.erase_ratio).round() as usize).clamp(1, grid - 1);
                MaskKind::RandomRow { n_grid: grid, t }.generate(self.mask_seed)
            }
            MaskStrategy::Diagonal => MaskKind::Diagonal { n_grid: grid }.generate(self.mask_seed),
        }
    }
}

/// Fallible builder for [`EaszConfig`] (`EaszConfig::builder()`).
///
/// ```
/// use easz_core::{EaszConfig, MaskStrategy};
/// let cfg = EaszConfig::builder()
///     .n(16)
///     .b(2)
///     .erase_ratio(0.375)
///     .strategy(MaskStrategy::Proposed)
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.geometry().grid(), 8);
/// assert!(EaszConfig::builder().n(30).b(4).build().is_err()); // 30 % 4 != 0
/// ```
#[derive(Debug, Clone)]
pub struct EaszConfigBuilder {
    cfg: EaszConfig,
}

impl EaszConfigBuilder {
    /// Patch side length `n`.
    pub fn n(mut self, n: usize) -> Self {
        self.cfg.n = n;
        self
    }

    /// Sub-patch side length `b`.
    pub fn b(mut self, b: usize) -> Self {
        self.cfg.b = b;
        self
    }

    /// Fraction of sub-patches erased per row, in `(0, 1)`.
    pub fn erase_ratio(mut self, ratio: f64) -> Self {
        self.cfg.erase_ratio = ratio;
        self
    }

    /// Mask family.
    pub fn strategy(mut self, strategy: MaskStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Squeeze direction.
    pub fn orientation(mut self, orientation: Orientation) -> Self {
        self.cfg.orientation = orientation;
        self
    }

    /// Mask generation seed.
    pub fn mask_seed(mut self, seed: u64) -> Self {
        self.cfg.mask_seed = seed;
        self
    }

    /// Whether the server synthesizes film-grain detail in erased regions.
    pub fn synthesize_grain(mut self, on: bool) -> Self {
        self.cfg.synthesize_grain = on;
        self
    }

    /// Whether containers carry a standing opt-in to the server's int8
    /// quantized decode tier (bounded divergence instead of bit-exact f32;
    /// see [`EaszConfig::allow_quantized`]).
    pub fn allow_quantized(mut self, on: bool) -> Self {
        self.cfg.allow_quantized = on;
        self
    }

    /// Which zoo reconstructor decodes these containers (0 = the generic
    /// model; nonzero ids write format version 3 — see
    /// [`EaszConfig::model_id`]).
    pub fn model_id(mut self, id: u8) -> Self {
        self.cfg.model_id = id;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`EaszConfig::validate`].
    pub fn build(self) -> Result<EaszConfig, EaszError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(EaszConfig::default().validate().is_ok());
        assert_eq!(EaszConfig::builder().build().expect("default"), EaszConfig::default());
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        assert!(EaszConfig::builder().n(30).b(4).build().is_err());
        assert!(EaszConfig::builder().n(0).build().is_err());
        assert!(EaszConfig::builder().b(0).build().is_err());
        // n == b gives a 1x1 grid: nothing can be both erased and kept.
        assert!(EaszConfig::builder().n(4).b(4).build().is_err());
        // n beyond the u16 wire field would truncate in the container.
        assert!(EaszConfig::builder().n(65540).b(4).build().is_err());
        assert!(EaszConfig::builder().n(65532).b(4).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_erase_ratio() {
        for ratio in [0.0, 1.0, -0.5, 2.0, f64::NAN, f64::INFINITY] {
            assert!(
                EaszConfig::builder().erase_ratio(ratio).build().is_err(),
                "ratio {ratio} must be rejected"
            );
        }
        assert!(EaszConfig::builder().erase_ratio(0.5).build().is_ok());
    }

    #[test]
    fn strategy_wire_bytes_round_trip() {
        for s in [MaskStrategy::Proposed, MaskStrategy::Random, MaskStrategy::Diagonal] {
            assert_eq!(MaskStrategy::from_wire_byte(s.wire_byte()).expect("round trip"), s);
        }
        assert!(MaskStrategy::from_wire_byte(3).is_err());
        assert!(MaskStrategy::from_wire_byte(0xFF).is_err());
    }
}

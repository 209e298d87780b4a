//! # easz-testbed
//!
//! Everything the Easz reproduction (Mao et al., DAC 2025) *simulates*,
//! kept apart from what it serves. The paper's systems results (Fig. 1's
//! edge gap, Fig. 6's latency/power/memory, Fig. 8d's end-to-end latency)
//! come from a physical Jetson TX2 + RTX 2080Ti testbed on Wi-Fi, and its
//! strongest baselines are trained networks; this crate replaces both with
//! calibrated stand-ins (README, "Reproduction scope"):
//!
//! * [`DeviceModel`] — sustained compute throughputs, model-load bandwidth
//!   and power rails per device (TX2, Raspberry Pi 4, 2080Ti, A100).
//! * [`NetworkModel`] — effective Wi-Fi bandwidth + RTT.
//! * [`WorkloadProfile`] — per-scheme costs: classical codecs, the four
//!   neural baselines (with their published model sizes and autoregressive
//!   serial penalties), and Easz itself.
//! * [`Testbed`] — composes the above into latency breakdowns, power and
//!   memory estimates.
//! * [`NeuralSimCodec`] — the four neural baselines as real bitstreams:
//!   `easz-codecs`' transform engine tuned one quality tier above BPG.
//!   They keep their reserved wire ids (3–6) but are not in
//!   [`CodecRegistry::with_defaults`](easz_codecs::CodecRegistry::with_defaults);
//!   a caller that decodes them registers them itself.
//! * [`sr`] — classical upsamplers standing in for the SR models of the
//!   paper's Table I.
//!
//! ```
//! use easz_testbed::{Testbed, WorkloadProfile};
//! let tb = Testbed::paper();
//! let jpeg = WorkloadProfile::jpeg_like();
//! let lat = tb.run(&jpeg, 512 * 768, 20_000);
//! assert!(lat.total_s() < 1.0); // classical codecs are edge-friendly
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod network;
mod neural;
mod simulate;
pub mod sr;
mod workload;

pub use device::DeviceModel;
pub use network::NetworkModel;
pub use neural::{NeuralSimCodec, NeuralTier};
pub use simulate::{LatencyBreakdown, PowerEstimate, Testbed};
pub use workload::{estimate_params, WorkloadProfile};

//! # easz-testbed
//!
//! Analytic edge-server testbed simulator for the Easz reproduction
//! (Mao et al., DAC 2025). The paper's systems results (Fig. 1's edge gap,
//! Fig. 6's latency/power/memory, Fig. 8d's end-to-end latency) come from a
//! physical Jetson TX2 + RTX 2080Ti testbed on Wi-Fi; this crate replaces
//! that hardware with calibrated analytic models (README, "Reproduction
//! scope"):
//!
//! * [`DeviceModel`] — sustained compute throughputs, model-load bandwidth
//!   and power rails per device (TX2, Raspberry Pi 4, 2080Ti, A100).
//! * [`NetworkModel`] — effective Wi-Fi bandwidth + RTT.
//! * [`WorkloadProfile`] — per-scheme costs: classical codecs, the four
//!   neural baselines (with their published model sizes and autoregressive
//!   serial penalties), and Easz itself.
//! * [`Testbed`] — composes the above into latency breakdowns, power and
//!   memory estimates.
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
mod simulate;
mod workload;

pub use device::DeviceModel;
pub use network::NetworkModel;
pub use simulate::{LatencyBreakdown, PowerEstimate, Testbed};
pub use workload::{estimate_params, WorkloadProfile};

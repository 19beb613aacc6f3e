//! GPU hardware simulator for the HyperPower reproduction.
//!
//! The paper measures the inference-time **power** and **memory** of
//! candidate CNNs on two physical platforms — an NVIDIA GTX 1070 (via NVML)
//! and a Tegra TX1 (via `tegrastats`, which cannot report memory; the paper
//! therefore skips memory constraints on Tegra). No such hardware exists in
//! this environment, so this crate provides an analytical stand-in with the
//! properties the paper's method depends on (see DESIGN.md §2):
//!
//! * power and memory depend only on the *structural* hyper-parameters of
//!   the network (never on the trained weights) — the insight that makes
//!   them a-priori-known constraints (paper §3.2),
//! * both are smooth, monotone-ish functions of layer sizes, well — but not
//!   perfectly — approximated by the paper's linear models (Eq. 1–2); the
//!   ground truth here is a *roofline-style* non-linear model, so the
//!   linear predictor has realistic residuals (Table 1 reports 4–7% RMSPE),
//! * measurements carry sensor noise, and the Tegra memory sensor reports
//!   `Unsupported` exactly like the real board.
//!
//! The crate also hosts the [`VirtualClock`] and [`TrainingCostModel`] used
//! to run the paper's wall-clock-budgeted experiments (2 h / 5 h) in
//! simulated time. How several simulated GPUs share a schedule is not
//! simulation: `hyperpower::Study` owns each GPU's timeline and the commit
//! order.
//!
//! # Examples
//!
//! ```
//! use hyperpower_gpu_sim::{DeviceProfile, Gpu};
//! use hyperpower_nn::{ArchSpec, LayerSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ArchSpec::new((3, 32, 32), 10, vec![
//!     LayerSpec::conv(64, 5),
//!     LayerSpec::pool(2),
//!     LayerSpec::dense(512),
//! ])?;
//! use hyperpower_gpu_sim::{Mebibytes, Watts};
//! let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), 7);
//! let report = gpu.analyze(&spec);
//! let power = gpu.measure_power(&report);
//! assert!(power > Watts(45.0) && power < Watts(151.0));
//! let memory = gpu.measure_memory(&report)?;
//! assert!(memory > Mebibytes::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod clock;
mod device;
mod fault;
mod sensor;

pub use analysis::{analyze, InferenceReport};
pub use clock::{TrainingCostModel, VirtualClock};
pub use device::DeviceProfile;
pub use fault::{seeded_unit, FaultPlan, FaultProfile, TrainingFault};
// Measurement results carry their units in the type; re-exported so
// downstream crates can name them without depending on the linalg crate.
pub use hyperpower_linalg::units::{Joules, Mebibytes, Seconds, Watts};
pub use sensor::{Gpu, MeasurementError};

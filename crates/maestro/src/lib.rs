//! # maestro — analytical DNN-accelerator cost model
//!
//! A from-scratch Rust reimplementation of the analytical cost-model role
//! that [MAESTRO] plays inside ConfuciuX (Kao et al., MICRO 2020): a fast,
//! deterministic map from `(layer, dataflow, design point)` to hardware cost
//! (latency, energy, area, power) that captures the reuse behaviour of three
//! classic dataflow styles:
//!
//! * **NVDLA-style** — weight-stationary, parallel over output/input channels
//!   (`K`/`C`).
//! * **Eyeriss-style** — row-stationary, parallel over output rows and filter
//!   rows (`Y'`/`R`).
//! * **ShiDianNao-style** — output-stationary, parallel over output pixels
//!   (`Y'`/`X'`).
//!
//! A *design point* is a pair `(number of PEs, per-PE filter tile)`; the tile
//! determines the L1 buffer size through a per-dataflow formula (Table I of
//! the paper: NVDLA 3×3 filters give `10·kt + 9` bytes, i.e. 19, 29, …, 129).
//!
//! The model is intentionally analytical rather than cycle-accurate — what
//! the downstream search needs is the *shape* of the cost surface: more PEs
//! help until the layer runs out of parallelism, bigger tiles cut DRAM
//! traffic but cost area, depthwise convolutions cannot exploit channel
//! parallelism, and so on.
//!
//! [MAESTRO]: http://maestro.ece.gatech.edu/
//!
//! ```
//! use maestro::{CostModel, Dataflow, DesignPoint, Layer};
//!
//! # fn main() -> Result<(), maestro::MaestroError> {
//! let layer = Layer::conv2d("conv1", 64, 32, 56, 56, 3, 3, 1)?;
//! let model = CostModel::default();
//! let cost = model.evaluate(&layer, Dataflow::NvdlaStyle, DesignPoint::new(16, 4)?);
//! assert!(cost.latency_cycles > 0.0);
//! assert!(cost.energy_nj > 0.0);
//! # Ok(())
//! # }
//! ```

mod dataflow;
mod design;
mod engine;
mod error;
mod estimate;
mod kernel;
mod layer;
mod mapping;
mod report;
mod tech;

pub use dataflow::Dataflow;
pub use design::DesignPoint;
pub use engine::{threads_from_env, CostOracle, EvalEngine, EvalQuery, EvalStats};
pub use error::MaestroError;
pub use estimate::CostModel;
pub use kernel::{BatchQueries, LayerInvariants};
pub use layer::{Layer, LayerKind};
pub use mapping::SpatialMapping;
pub use report::{AreaBreakdown, CostReport, EnergyBreakdown};
pub use tech::TechModel;

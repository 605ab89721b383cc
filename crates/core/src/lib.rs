//! # confuciux — autonomous HW resource assignment for DNN accelerators
//!
//! A full reproduction of **ConfuciuX** (Kao, Jeong, Krishna — MICRO 2020):
//! given a DNN model, a dataflow style, a deployment scenario, an
//! optimization objective, and a platform constraint, find the per-layer
//! assignment of PEs and L1 buffers that minimizes the objective while
//! meeting the constraint.
//!
//! The search runs in two stages (§III):
//!
//! 1. **Global search** — a REINFORCE agent with an LSTM-128 policy walks
//!    the model layer by layer, choosing a coarse (PE level, buffer level)
//!    action pair per layer from Table I's 12-level menus; the MAESTRO-style
//!    cost model scores each choice and shaped rewards (Eq. 2) teach the
//!    agent both the objective and the budget.
//! 2. **Local fine-tuning** — a specialized genetic algorithm with local
//!    mutation and self-crossover polishes the coarse solution on the
//!    fine-grained integer space.
//!
//! ```no_run
//! use confuciux::{
//!     HwProblem, Objective, ConstraintKind, PlatformClass, Deployment,
//!     TwoStageConfig, two_stage_search,
//! };
//! use maestro::Dataflow;
//!
//! let problem = HwProblem::builder(dnn_models::mobilenet_v2())
//!     .dataflow(Dataflow::NvdlaStyle)
//!     .objective(Objective::Latency)
//!     .constraint(ConstraintKind::Area, PlatformClass::Iot)
//!     .deployment(Deployment::LayerPipelined)
//!     .build();
//! let result = two_stage_search(&problem, &TwoStageConfig::default(), 42);
//! if let Some(best) = &result.global.best {
//!     println!("optimized latency: {:.3e} cycles", best.cost);
//! }
//! ```

mod action;
mod assignment;
mod constraint;
mod critic_study;
mod design_space;
mod digest;
mod error;
mod hwenv;
mod job;
mod ls_sweep;
mod outcome;
mod problem;
mod report;
mod search;
mod vecenv;

pub use action::ActionSpace;
pub use assignment::{Assignment, LayerAssignment};
pub use constraint::{ConstraintKind, Deployment, Objective, PlatformClass};
pub use critic_study::{critic_study, CriticStudyConfig, CriticStudyResult};
pub use design_space::{log10_binomial, log10_coarse_action_space, log10_lp_design_space};
pub use digest::Fnv;
pub use error::SearchError;
pub use hwenv::{HwEnv, RewardConfig};
pub use job::{DataflowSpec, JobBudget, JobSpec};
pub use ls_sweep::{heuristic_a, heuristic_b, per_layer_optima, PerLayerOptimum};
// Evaluation-engine types re-exported so downstream binaries can reach
// them without a direct `maestro` dependency edge.
pub use maestro::{threads_from_env, CostOracle, EvalEngine, EvalQuery, EvalStats};
pub use outcome::SearchOutcome;
pub use problem::{HwProblem, HwProblemBuilder};
pub use report::{format_sci, write_json, ExperimentTable};
// The vectorized-environment trait is re-exported so downstream binaries
// can drive a `VecHwEnv` without a direct `rl_core` dependency edge.
pub use rl_core::VecEnv;
pub use search::{
    fine_tune, make_agent, run_baseline, run_rl_search, run_rl_search_vec,
    run_rl_search_vec_with_reward, two_stage_search, AlgorithmKind, BaselineKind, FineStageState,
    FineTuneResult, GlobalStageState, RlResultState, RlSearchResult, SearchBudget,
    SearchCheckpoint, TwoStageConfig, TwoStageResult, TwoStageRunner, SEARCH_CHECKPOINT_VERSION,
};
pub use vecenv::VecHwEnv;

//! A search job as data: the serializable [`JobSpec`].
//!
//! Every entry point used to wire a problem together from ad-hoc
//! arguments. `JobSpec` is the one description of "a search to run" —
//! the wire format the `confuciux-server` protocol submits, *and* the
//! construction path the bench binaries build their problems through —
//! so a job that ran on the command line can be replayed byte-for-byte
//! against the daemon.
//!
//! Every field is explicit (the vendored serde has no attribute support,
//! hence no defaults): a spec fully determines its problem and search,
//! and [`SearchOutcome::digest`](crate::SearchOutcome::digest) of two
//! runs of the same spec must agree.

use maestro::Dataflow;
use serde::{Deserialize, Serialize};

use crate::{
    AlgorithmKind, ConstraintKind, Deployment, HwProblem, Objective, PlatformClass, SearchError,
    TwoStageConfig, TwoStageRunner,
};

/// Dataflow selection of a job: one fixed style, or the MIX mode where
/// the agent picks a dataflow per layer (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowSpec {
    /// A fixed dataflow style for every layer.
    Fixed(Dataflow),
    /// Per-layer dataflow is part of the action space.
    Mix,
}

impl DataflowSpec {
    /// The fixed dataflow, or `None` for MIX.
    pub fn fixed(&self) -> Option<Dataflow> {
        match self {
            DataflowSpec::Fixed(df) => Some(*df),
            DataflowSpec::Mix => None,
        }
    }
}

/// Search budget of a job, both stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobBudget {
    /// Stage-1 RL epochs.
    pub global_epochs: usize,
    /// Stage-2 local-GA evaluations.
    pub fine_evaluations: usize,
}

/// A fully-specified search job: model, problem shape, budget, algorithm,
/// and seed. Building it yields the same [`HwProblem`] the legacy
/// builder-chain path produces (digest-checked in
/// `tests/jobspec_golden.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Model name resolved through [`dnn_models::by_name`] (aliases
    /// accepted, e.g. `"MbnetV2"` or `"mobilenet_v2"`).
    pub model: String,
    /// Platform class (budget fraction of `C_max`).
    pub platform: PlatformClass,
    /// Fixed dataflow or MIX mode.
    pub dataflow: DataflowSpec,
    /// Optimization objective.
    pub objective: Objective,
    /// Constraint kind.
    pub constraint: ConstraintKind,
    /// Deployment scenario.
    pub deployment: Deployment,
    /// Epoch/evaluation budget of both stages.
    pub budget: JobBudget,
    /// Stage-1 RL algorithm.
    pub algo: AlgorithmKind,
    /// Environment replicas rolled out in lockstep (1 = one replica).
    pub n_envs: usize,
    /// RNG seed; together with `n_envs` it fully determines the result.
    pub seed: u64,
    /// Wall-clock deadline in milliseconds, measured from the moment the
    /// job starts running. `None` means unbounded. When the deadline
    /// expires the runner is stopped at its next step boundary and the
    /// best-so-far [`SearchOutcome`](crate::SearchOutcome) is returned
    /// marked degraded — a partial answer, not an error.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with the paper-default problem shape (NVDLA-style dataflow,
    /// latency objective, area/IoT constraint, LP deployment) and the
    /// default two-stage budget — the same defaults as
    /// [`HwProblem::builder`] plus [`TwoStageConfig::default`].
    pub fn paper_default(model: &str) -> Self {
        let cfg = TwoStageConfig::default();
        JobSpec {
            model: model.to_string(),
            platform: PlatformClass::Iot,
            dataflow: DataflowSpec::Fixed(Dataflow::NvdlaStyle),
            objective: Objective::Latency,
            constraint: ConstraintKind::Area,
            deployment: Deployment::LayerPipelined,
            budget: JobBudget {
                global_epochs: cfg.global_epochs,
                fine_evaluations: cfg.fine_evaluations,
            },
            algo: cfg.algorithm,
            n_envs: cfg.n_envs,
            seed: 42,
            deadline_ms: None,
        }
    }

    /// Deadline as a [`Duration`](std::time::Duration), if bounded.
    pub fn deadline(&self) -> Option<std::time::Duration> {
        self.deadline_ms.map(std::time::Duration::from_millis)
    }

    /// Validates the spec without building anything.
    pub fn validate(&self) -> Result<(), SearchError> {
        if dnn_models::by_name(&self.model).is_none() {
            return Err(SearchError::InvalidSpec(format!(
                "unknown model `{}`",
                self.model
            )));
        }
        if self.n_envs == 0 {
            return Err(SearchError::InvalidSpec(
                "n_envs must be at least 1".to_string(),
            ));
        }
        if self.deadline_ms == Some(0) {
            return Err(SearchError::InvalidSpec(
                "deadline_ms must be at least 1 when set".to_string(),
            ));
        }
        Ok(())
    }

    /// Builds the problem this spec describes — the single construction
    /// path shared by bench binaries and the server.
    pub fn build(&self) -> Result<HwProblem, SearchError> {
        self.validate()?;
        let model = dnn_models::by_name(&self.model).expect("validate() checked the model name");
        let builder = HwProblem::builder(model)
            .objective(self.objective)
            .constraint(self.constraint, self.platform)
            .deployment(self.deployment);
        Ok(match self.dataflow.fixed() {
            Some(df) => builder.dataflow(df),
            None => builder.mix_dataflow(),
        }
        .build())
    }

    /// The two-stage configuration this spec describes.
    pub fn two_stage_config(&self) -> TwoStageConfig {
        TwoStageConfig {
            algorithm: self.algo,
            global_epochs: self.budget.global_epochs,
            fine_evaluations: self.budget.fine_evaluations,
            n_envs: self.n_envs,
        }
    }

    /// Builds the problem and a ready-to-step [`TwoStageRunner`] over it —
    /// the `build()` / `into_runner()` pair the server's job scheduler
    /// uses. The runner owns its problem handle; reach it through
    /// [`TwoStageRunner::problem`].
    pub fn into_runner(self) -> Result<TwoStageRunner, SearchError> {
        let problem = self.build()?;
        Ok(TwoStageRunner::new(
            &problem,
            &self.two_stage_config(),
            self.seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds() {
        let spec = JobSpec::paper_default("tiny_cnn");
        let p = spec.build().unwrap();
        assert!(p.budget() > 0.0);
        assert_eq!(p.dataflow(), Some(Dataflow::NvdlaStyle));
        assert_eq!(p.platform(), PlatformClass::Iot);
    }

    #[test]
    fn unknown_model_is_invalid_spec() {
        let spec = JobSpec::paper_default("no_such_net");
        assert!(matches!(spec.build(), Err(SearchError::InvalidSpec(_))));
    }

    #[test]
    fn zero_envs_is_invalid_spec() {
        let mut spec = JobSpec::paper_default("tiny_cnn");
        spec.n_envs = 0;
        assert!(matches!(spec.validate(), Err(SearchError::InvalidSpec(_))));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::paper_default("MbnetV2");
        spec.dataflow = DataflowSpec::Mix;
        spec.budget = JobBudget {
            global_epochs: 77,
            fine_evaluations: 333,
        };
        spec.algo = AlgorithmKind::Ppo2;
        spec.seed = 7;
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn runner_pair_runs_the_configured_search() {
        let mut spec = JobSpec::paper_default("tiny_cnn");
        spec.budget = JobBudget {
            global_epochs: 10,
            fine_evaluations: 40,
        };
        let runner = spec.clone().into_runner().unwrap();
        let result = runner.into_result();
        assert_eq!(result.global.trace.len(), 10);
    }
}

//! # confuciux-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5 for the
//! index), plus Criterion micro-benchmarks of the substrates. Binaries
//! print the paper-style rows to stdout and write JSON into `results/`.
//!
//! Every binary accepts:
//!
//! * `--epochs N` — search budget per run (default varies; the paper uses
//!   5,000, defaults here are scaled down for runtime).
//! * `--seed N` — RNG seed (default 42).
//! * `--out DIR` — results directory (default `results/`).
//! * `--full` — run the complete row set instead of the representative
//!   subset.
//! * `--n-envs N` — environment replicas for vectorized RL rollouts
//!   (default 4; `1` reproduces `run_rl_search`'s numbers bit-for-bit).
//! * `--checkpoint PATH` — in binaries that drive a two-stage search,
//!   periodically save a resumable [`SearchCheckpoint`] to `PATH`, so a
//!   killed run can be continued with `--resume`.
//! * `--resume PATH` — continue a search from a checkpoint written by
//!   `--checkpoint`. The seed and search configuration come from the
//!   checkpoint.
//! * `--checkpoint-every N` — steps between checkpoint saves (default 50;
//!   one step is a rollout round or a GA generation).
//!
//! [`SearchCheckpoint`]: confuciux::SearchCheckpoint

use std::path::PathBuf;

use confuciux::{
    ConstraintKind, DataflowSpec, Deployment, HwProblem, JobBudget, JobSpec, Objective,
    PlatformClass, SearchCheckpoint, TwoStageConfig, TwoStageResult, TwoStageRunner,
};
use maestro::Dataflow;

/// Common command-line arguments for experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Search budget in epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output directory for JSON results.
    pub out: PathBuf,
    /// Run the full row set.
    pub full: bool,
    /// Environment replicas for vectorized RL rollouts.
    pub n_envs: usize,
    /// Where to periodically save a resumable search checkpoint.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint to continue a killed search from.
    pub resume: Option<PathBuf>,
    /// Steps (rollout rounds / GA generations) between checkpoint saves.
    pub checkpoint_every: usize,
}

impl Args {
    /// Parses `std::env::args` with a default epoch budget.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_epochs: usize) -> Args {
        let mut args = Args {
            epochs: default_epochs,
            seed: 42,
            out: PathBuf::from("results"),
            full: false,
            n_envs: 4,
            checkpoint: None,
            resume: None,
            checkpoint_every: 50,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--epochs" => {
                    i += 1;
                    args.epochs = argv[i].parse().expect("--epochs takes an integer");
                }
                "--seed" => {
                    i += 1;
                    args.seed = argv[i].parse().expect("--seed takes an integer");
                }
                "--out" => {
                    i += 1;
                    args.out = PathBuf::from(&argv[i]);
                }
                "--full" => args.full = true,
                "--n-envs" => {
                    i += 1;
                    args.n_envs = argv[i].parse().expect("--n-envs takes an integer");
                    assert!(args.n_envs >= 1, "--n-envs must be at least 1");
                }
                "--checkpoint" => {
                    i += 1;
                    args.checkpoint = Some(PathBuf::from(&argv[i]));
                }
                "--resume" => {
                    i += 1;
                    args.resume = Some(PathBuf::from(&argv[i]));
                }
                "--checkpoint-every" => {
                    i += 1;
                    args.checkpoint_every = argv[i]
                        .parse()
                        .expect("--checkpoint-every takes an integer");
                    assert!(
                        args.checkpoint_every >= 1,
                        "--checkpoint-every must be >= 1"
                    );
                }
                other => panic!("unknown argument `{other}` (see crate docs)"),
            }
            i += 1;
        }
        args
    }
}

/// The [`JobSpec`] most single-model experiments run: LP deployment, the
/// default two-stage budget, seed 42. Binaries override budget/seed from
/// their [`Args`] — the same spec, submitted to a `confuciux-server`,
/// reproduces the command-line run bit-for-bit.
pub fn standard_spec(
    model: &str,
    dataflow: Dataflow,
    objective: Objective,
    constraint: ConstraintKind,
    platform: PlatformClass,
) -> JobSpec {
    let cfg = TwoStageConfig::default();
    JobSpec {
        model: model.to_string(),
        platform,
        dataflow: DataflowSpec::Fixed(dataflow),
        objective,
        constraint,
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

/// Builds the standard problem used by most single-model experiments —
/// through the [`JobSpec`] path, so bench binaries and the server share
/// one construction route.
pub fn standard_problem(
    model: &str,
    dataflow: Dataflow,
    objective: Objective,
    constraint: ConstraintKind,
    platform: PlatformClass,
) -> HwProblem {
    standard_spec(model, dataflow, objective, constraint, platform)
        .build()
        .expect("known model")
}

/// Drives a two-stage search through [`TwoStageRunner`], honouring the
/// `--checkpoint` / `--resume` / `--checkpoint-every` flags.
///
/// With `--resume`, the seed and configuration stored in the checkpoint
/// take precedence over `cfg`/`seed`. With `--checkpoint`, a
/// [`SearchCheckpoint`] is saved every `checkpoint_every` steps.
///
/// # Panics
///
/// Panics if the checkpoint file cannot be read or written.
pub fn run_two_stage_checkpointed(
    problem: &HwProblem,
    cfg: &TwoStageConfig,
    seed: u64,
    args: &Args,
) -> TwoStageResult {
    let mut runner = match &args.resume {
        Some(path) => {
            let checkpoint = SearchCheckpoint::load(path)
                .unwrap_or_else(|e| panic!("failed to load checkpoint {}: {e}", path.display()));
            TwoStageRunner::resume(problem, &checkpoint)
                .unwrap_or_else(|e| panic!("failed to resume from {}: {e}", path.display()))
        }
        None => TwoStageRunner::new(problem, cfg, seed),
    };
    let mut steps = 0usize;
    loop {
        let more = runner.step();
        steps += 1;
        if let Some(path) = &args.checkpoint {
            if more && steps.is_multiple_of(args.checkpoint_every) {
                let checkpoint = runner
                    .checkpoint()
                    .expect("a runner that can still step can checkpoint");
                checkpoint.save(path).unwrap_or_else(|e| {
                    panic!("failed to save checkpoint {}: {e}", path.display())
                });
            }
        }
        if !more {
            break;
        }
    }
    runner.into_result()
}

/// Parses a dataflow suffix as used in the paper's tables.
pub fn dataflow_by_suffix(suffix: &str) -> Dataflow {
    match suffix {
        "dla" => Dataflow::NvdlaStyle,
        "eye" => Dataflow::EyerissStyle,
        "shi" => Dataflow::ShiDianNaoStyle,
        other => panic!("unknown dataflow suffix `{other}`"),
    }
}

/// Formats a `Duration` as the paper's `h:mm` search-time entries
/// (here with seconds resolution: `m:ss`).
pub fn format_duration(d: std::time::Duration) -> String {
    let total = d.as_secs();
    format!("{}:{:02}", total / 60, total % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataflow_suffixes_resolve() {
        assert_eq!(dataflow_by_suffix("dla"), Dataflow::NvdlaStyle);
        assert_eq!(dataflow_by_suffix("eye"), Dataflow::EyerissStyle);
        assert_eq!(dataflow_by_suffix("shi"), Dataflow::ShiDianNaoStyle);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(std::time::Duration::from_secs(125)), "2:05");
        assert_eq!(format_duration(std::time::Duration::from_secs(5)), "0:05");
    }

    #[test]
    fn standard_problem_builds() {
        let p = standard_problem(
            "tiny_cnn",
            Dataflow::NvdlaStyle,
            Objective::Latency,
            ConstraintKind::Area,
            PlatformClass::Iot,
        );
        assert!(p.budget() > 0.0);
    }
}

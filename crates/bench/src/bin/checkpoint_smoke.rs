//! CI kill-and-resume smoke test: runs a two-stage search uninterrupted,
//! then kills the same search mid-stage, saves a checkpoint to disk,
//! resumes it on a *fresh* problem, and fails if the resumed result is not
//! bit-identical — including the engine's hit/miss counters, which the
//! checkpoint carries for the steps before the kill.
//!
//! Exercised for both a mid-global (RL stage) and a mid-fine (GA stage)
//! kill point, at the default `--n-envs`, for the layer-pipelined spec
//! and for the same spec deployed layer-sequentially. In LS every episode
//! is one step from the LSTM's zero state, so the LSTM's recurrent weights
//! stay at rest and the checkpoint stores them with no Adam moments.

use std::path::Path;

use confuciux::{
    two_stage_search, ConstraintKind, Deployment, EvalStats, Fnv, HwProblem, JobSpec, Objective,
    PlatformClass, SearchCheckpoint, TwoStageConfig, TwoStageResult, TwoStageRunner,
};
use confuciux_bench::{standard_spec, Args};
use maestro::Dataflow;

/// The spec every scenario runs, layer-pipelined; the LS scenarios run it
/// with only `deployment` changed. One [`JobSpec`] describes the whole job.
fn smoke_spec(args: &Args) -> JobSpec {
    let mut spec = standard_spec(
        "tiny_cnn",
        Dataflow::NvdlaStyle,
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    );
    spec.budget.global_epochs = args.epochs;
    spec.budget.fine_evaluations = args.epochs.max(50) * 3;
    spec.n_envs = args.n_envs;
    spec.seed = args.seed;
    spec
}

fn fresh_problem(spec: &JobSpec) -> HwProblem {
    spec.clone().build().expect("valid job spec")
}

fn push_stats(fnv: &mut Fnv, stats: &EvalStats) {
    fnv.push(stats.hits);
    fnv.push(stats.misses);
}

/// Digest over every seed-determined field of a result: traces, costs,
/// convergence epoch, and the eval-engine counters of both stages.
fn digest(result: &TwoStageResult) -> u64 {
    let mut fnv = Fnv::new();
    fnv.push(result.final_cost().map_or(0, f64::to_bits));
    fnv.push(result.global.initial_valid_cost.map_or(0, f64::to_bits));
    fnv.push(
        result
            .global
            .epochs_to_converge
            .map_or(u64::MAX, |e| e as u64),
    );
    fnv.push(result.global.param_count as u64);
    for c in &result.global.trace {
        fnv.push(c.to_bits());
    }
    push_stats(&mut fnv, &result.global.eval_stats);
    if let Some(fine) = &result.fine {
        for c in &fine.trace {
            fnv.push(c.to_bits());
        }
        fnv.push(fine.evaluations as u64);
        push_stats(&mut fnv, &fine.eval_stats);
    }
    fnv.finish()
}

/// Predicate deciding when a scenario kills the running search.
type KillFn = fn(&TwoStageRunner) -> bool;

/// Kills the search once `kill` fires, checkpoints to disk, resumes on a
/// fresh problem, and finishes.
fn killed_and_resumed(
    spec: &JobSpec,
    cfg: &TwoStageConfig,
    checkpoint_path: &Path,
    kill: impl Fn(&TwoStageRunner) -> bool,
) -> TwoStageResult {
    let victim = fresh_problem(spec);
    let mut runner = TwoStageRunner::new(&victim, cfg, spec.seed);
    while !kill(&runner) {
        assert!(runner.step(), "search finished before the kill point");
    }
    let checkpoint = runner.checkpoint().expect("mid-run checkpoint");
    checkpoint.save(checkpoint_path).expect("save checkpoint");
    drop(runner);
    drop(victim);

    let resumed_problem = fresh_problem(spec);
    let reloaded = SearchCheckpoint::load(checkpoint_path).expect("load checkpoint");
    TwoStageRunner::resume(&resumed_problem, &reloaded)
        .expect("resume from checkpoint")
        .into_result()
}

fn main() {
    let args = Args::parse(60);
    let mut failed = false;
    for (prefix, deployment) in [
        ("", Deployment::LayerPipelined),
        ("ls_", Deployment::LayerSequential),
    ] {
        let spec = JobSpec {
            deployment,
            ..smoke_spec(&args)
        };
        let cfg = spec.two_stage_config();

        let uninterrupted = two_stage_search(&fresh_problem(&spec), &cfg, spec.seed);
        let reference = digest(&uninterrupted);
        println!("{prefix}uninterrupted_digest={reference:#018x}");

        let scenarios: [(&str, KillFn); 2] = [
            ("mid_global", |r| r.global_epochs_done() >= 8),
            ("mid_fine", |r| r.fine_evaluations_done() > 30),
        ];
        for (name, kill) in scenarios {
            let name = format!("{prefix}{name}");
            let path = args.out.join(format!("checkpoint_smoke_{name}.ckpt.json"));
            let resumed = killed_and_resumed(&spec, &cfg, &path, kill);
            let got = digest(&resumed);
            let stats = resumed.global.eval_stats;
            println!(
                "{name}_digest={got:#018x} global_hits={} global_misses={} hit_rate={:.3}",
                stats.hits,
                stats.misses,
                stats.hit_rate()
            );
            if got != reference {
                eprintln!("FAIL: {name} resume diverged from the uninterrupted run");
                failed = true;
            }
            if stats != uninterrupted.global.eval_stats {
                eprintln!(
                    "FAIL: {name} counters diverged (expected {:?}, got {stats:?})",
                    uninterrupted.global.eval_stats
                );
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "kill-and-resume smoke passed: all four kill points (LP and LS) resume bit-identically"
    );
}

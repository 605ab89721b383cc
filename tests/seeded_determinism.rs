//! Seeded determinism of the full two-stage pipeline: the same seed must
//! produce bit-identical results across runs and resume points. Future
//! batching work must preserve this (or introduce an explicit opt-out),
//! because every table/figure binary reports seed-tagged numbers.

use confuciux::{
    run_rl_search_vec, two_stage_search, AlgorithmKind, ConstraintKind, Deployment, HwProblem,
    Objective, PlatformClass, RlSearchResult, SearchBudget, SearchCheckpoint, TwoStageConfig,
    TwoStageResult, TwoStageRunner,
};
use maestro::Dataflow;

fn problem() -> HwProblem {
    HwProblem::builder(dnn_models::tiny_cnn())
        .dataflow(Dataflow::NvdlaStyle)
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Iot)
        .deployment(Deployment::LayerPipelined)
        .build()
}

fn config() -> TwoStageConfig {
    TwoStageConfig {
        global_epochs: 120,
        fine_evaluations: 300,
        ..TwoStageConfig::default()
    }
}

/// Asserts every seed-dependent field matches bit-for-bit, engine counters
/// included (wall-clock times are the only fields allowed to differ).
fn assert_bit_identical(a: &TwoStageResult, b: &TwoStageResult) {
    assert_eq!(a.global.algorithm, b.global.algorithm);
    assert_eq!(
        a.global.best, b.global.best,
        "global best assignments differ"
    );
    let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a.global.trace),
        bits(&b.global.trace),
        "global best-so-far traces differ"
    );
    assert_eq!(
        a.global.initial_valid_cost.map(f64::to_bits),
        b.global.initial_valid_cost.map(f64::to_bits)
    );
    assert_eq!(a.global.epochs_to_converge, b.global.epochs_to_converge);
    assert_eq!(a.global.param_count, b.global.param_count);
    assert_eq!(
        a.global.eval_stats, b.global.eval_stats,
        "global hit/miss counters differ"
    );

    assert_eq!(a.fine.is_some(), b.fine.is_some());
    if let (Some(fa), Some(fb)) = (&a.fine, &b.fine) {
        assert_eq!(fa.best, fb.best, "fine-tuned best assignments differ");
        assert_eq!(bits(&fa.trace), bits(&fb.trace), "fine-stage traces differ");
        assert_eq!(fa.evaluations, fb.evaluations);
        assert_eq!(
            fa.eval_stats, fb.eval_stats,
            "fine hit/miss counters differ"
        );
    }

    assert_eq!(
        a.final_cost().map(f64::to_bits),
        b.final_cost().map(f64::to_bits),
        "final costs differ"
    );
}

#[test]
fn two_stage_search_is_bit_identical_across_runs() {
    let p = problem();
    let cfg = config();
    let r1 = two_stage_search(&p, &cfg, 42);
    let r2 = two_stage_search(&p, &cfg, 42);
    assert!(
        r1.final_cost().is_some(),
        "seed 42 must find a feasible assignment on tiny_cnn/IoT"
    );
    assert_bit_identical(&r1, &r2);
}

#[test]
fn determinism_holds_on_a_fresh_problem_instance() {
    // Rebuilding the problem from scratch must not perturb the result:
    // no hidden global state, interior mutability, or address-dependent
    // iteration order anywhere in the pipeline.
    let cfg = config();
    let r1 = two_stage_search(&problem(), &cfg, 7);
    let r2 = two_stage_search(&problem(), &cfg, 7);
    assert_bit_identical(&r1, &r2);
}

/// Asserts every seed-dependent field of two RL-stage results matches
/// bit-for-bit (only wall time may differ).
fn assert_same_search(a: &RlSearchResult, b: &RlSearchResult) {
    assert_eq!(a.algorithm, b.algorithm);
    assert_eq!(a.best, b.best, "best assignments differ");
    let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.trace), bits(&b.trace), "traces differ");
    assert_eq!(
        a.initial_valid_cost.map(f64::to_bits),
        b.initial_valid_cost.map(f64::to_bits)
    );
    assert_eq!(a.epochs_to_converge, b.epochs_to_converge);
    assert_eq!(a.param_count, b.param_count);
    assert_eq!(a.eval_stats, b.eval_stats, "hit/miss counters differ");
}

#[test]
fn vectorized_rollouts_are_deterministic() {
    // n_envs = 4: the result, counters included, must be a pure function
    // of (seed, n_envs) — identical on a repeat run over the same problem
    // and over a fresh one, even though each synchronized step batches its
    // cost queries.
    let budget = SearchBudget { epochs: 50 };
    let p = problem();
    let reference = run_rl_search_vec(&p, AlgorithmKind::Reinforce, budget, 42, 4);
    // 50 epochs over 4 replicas = 12 full rounds + a partial round of 2;
    // the budget must be spent exactly.
    assert_eq!(reference.trace.len(), 50);
    let repeat = run_rl_search_vec(&p, AlgorithmKind::Reinforce, budget, 42, 4);
    assert_same_search(&reference, &repeat);
    let fresh = run_rl_search_vec(&problem(), AlgorithmKind::Reinforce, budget, 42, 4);
    assert_same_search(&reference, &fresh);
}

#[test]
fn two_stage_with_vectorized_stage1_is_deterministic() {
    let cfg = TwoStageConfig {
        global_epochs: 60,
        fine_evaluations: 200,
        n_envs: 4,
        ..TwoStageConfig::default()
    };
    let r1 = two_stage_search(&problem(), &cfg, 42);
    let r2 = two_stage_search(&problem(), &cfg, 42);
    assert_bit_identical(&r1, &r2);
}

/// Runs `cfg` with seed 42, killing the search at `kill` and resuming
/// from a JSON round-tripped checkpoint — on the same problem instance, or
/// on a freshly built one when `fresh` is set.
fn killed_and_resumed(
    cfg: &TwoStageConfig,
    kill: impl Fn(&TwoStageRunner) -> bool,
    fresh: bool,
) -> TwoStageResult {
    let p = problem();
    let mut runner = TwoStageRunner::new(&p, cfg, 42);
    while !kill(&runner) {
        assert!(runner.step(), "search finished before the kill point");
    }
    let checkpoint = SearchCheckpoint::from_json(&runner.checkpoint().unwrap().to_json())
        .expect("checkpoint survives a JSON round trip");
    drop(runner);
    let p = if fresh { problem() } else { p };
    TwoStageRunner::resume(&p, &checkpoint)
        .expect("resume from checkpoint")
        .into_result()
}

#[test]
fn killed_and_resumed_search_is_bit_identical_serial_and_vectorized() {
    // The checkpoint/resume contract for both pipeline stages: killing a
    // run mid-stage-1 or mid-stage-2 and resuming from the saved state
    // reproduces the uninterrupted run bit for bit — with the serial
    // stage 1 (n_envs = 1) and with vectorized rollouts (n_envs = 4).
    for n_envs in [1, 4] {
        let cfg = TwoStageConfig {
            global_epochs: 60,
            fine_evaluations: 200,
            n_envs,
            ..TwoStageConfig::default()
        };
        let uninterrupted = two_stage_search(&problem(), &cfg, 42);
        assert!(
            uninterrupted.fine.is_some(),
            "seed 42 must reach the fine stage (n_envs = {n_envs})"
        );

        let mid_global = killed_and_resumed(&cfg, |r| r.global_epochs_done() >= 10, false);
        assert_bit_identical(&mid_global, &uninterrupted);

        let mid_fine = killed_and_resumed(&cfg, |r| r.fine_evaluations_done() > 40, false);
        assert_bit_identical(&mid_fine, &uninterrupted);
    }
}

#[test]
fn resume_on_fresh_problem_reproduces_stats() {
    // Cross-process resume: a checkpoint resumed on a fresh problem, with
    // nothing carried over but the checkpoint, reproduces the outcome and
    // the hit/miss counters of both stages (`assert_bit_identical` checks
    // both), since each step's counters depend only on its own queries.
    let cfg = TwoStageConfig {
        global_epochs: 60,
        fine_evaluations: 200,
        n_envs: 4,
        ..TwoStageConfig::default()
    };
    let uninterrupted = two_stage_search(&problem(), &cfg, 42);
    let kills: [fn(&TwoStageRunner) -> bool; 2] = [
        |r| r.global_epochs_done() >= 10,
        |r| r.fine_evaluations_done() > 40,
    ];
    for kill in kills {
        let resumed = killed_and_resumed(&cfg, kill, true);
        assert!(resumed.global.eval_stats.total() > 0);
        assert_bit_identical(&resumed, &uninterrupted);
    }
}

#[test]
fn two_stage_digest_matches_frozen_value() {
    // Frozen end-to-end fingerprint of the whole pipeline: the digest
    // folds the best assignment, budgets spent, and the bit-exact
    // best-so-far traces of both stages, so *any* change to cost-model
    // semantics, RNG streams, or search control flow moves it. Pinned
    // after the PR 8 reuse-analysis bugfixes; infrastructure changes
    // (batching, the SoA cost kernel, removing the memo cache and worker
    // pool) must leave it untouched. If a later model-semantics fix moves it on purpose,
    // re-pin in that commit and say why.
    let r = two_stage_search(&problem(), &config(), 42);
    assert_eq!(r.outcome().digest(), 8761028034292673676);
}

#[test]
fn different_seeds_explore_differently() {
    // Not a strict requirement of the paper, but if two seeds ever walk
    // identical global traces the seeding is almost certainly broken.
    // The epoch-by-epoch REINFORCE trajectory over a continuous-cost
    // surface makes an accidental full-trace collision implausible.
    let p = problem();
    let cfg = config();
    let r1 = two_stage_search(&p, &cfg, 1);
    let r2 = two_stage_search(&p, &cfg, 2);
    let differs = r1.global.trace != r2.global.trace
        || r1.global.best != r2.global.best
        || r1.final_cost().map(f64::to_bits) != r2.final_cost().map(f64::to_bits);
    assert!(differs, "seeds 1 and 2 produced bit-identical searches");
}

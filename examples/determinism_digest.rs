//! Prints a canonical, bit-exact digest of a fixed-seed search, so two
//! builds (or two machines) can be diffed line for line: if a change moved
//! any result or counter, the digests diverge. Wall-clock fields are
//! deliberately excluded — everything printed here must be a pure
//! function of the seed.
//!
//! Usage: `cargo run --release --example determinism_digest`

use confuciux::{
    run_rl_search_vec, two_stage_search, AlgorithmKind, ConstraintKind, CostOracle, Deployment,
    Fnv, HwProblem, Objective, PlatformClass, SearchBudget, TwoStageConfig,
};
use maestro::{Dataflow, DesignPoint, EvalQuery};

fn main() {
    let problem = HwProblem::builder(dnn_models::tiny_cnn())
        .dataflow(Dataflow::NvdlaStyle)
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Iot)
        .deployment(Deployment::LayerPipelined)
        .build();
    let cfg = TwoStageConfig {
        global_epochs: 120,
        fine_evaluations: 300,
        ..TwoStageConfig::default()
    };
    let result = two_stage_search(&problem, &cfg, 42);

    println!(
        "final_cost_bits={:#018x}",
        result.final_cost().map_or(0, f64::to_bits)
    );
    let mut trace = Fnv::new();
    for c in &result.global.trace {
        trace.push(c.to_bits());
    }
    if let Some(fine) = &result.fine {
        for c in &fine.trace {
            trace.push(c.to_bits());
        }
    }
    println!("trace_fnv={:#018x}", trace.finish());
    if let Some(best) = &result.global.best {
        println!(
            "global_best_bits={:#018x} used_bits={:#018x} layers={}",
            best.cost.to_bits(),
            best.constraint_used.to_bits(),
            best.layers.len()
        );
    }
    let stats = problem.eval_stats();
    println!("eval_hits={} eval_misses={}", stats.hits, stats.misses);

    // Vectorized RL-stage digest: the Stage-1 search at n_envs = 1 and 4.
    // The two lines differ from each other by design — four replicas draw
    // from four RNG streams.
    for n_envs in [1usize, 4] {
        let r = run_rl_search_vec(
            &problem,
            AlgorithmKind::Reinforce,
            SearchBudget { epochs: 60 },
            7,
            n_envs,
        );
        let mut fnv = Fnv::new();
        for c in &r.trace {
            fnv.push(c.to_bits());
        }
        println!(
            "rl_vec_n{}_trace_fnv={:#018x} best_bits={:#018x}",
            n_envs,
            fnv.finish(),
            r.best_cost().map_or(0, f64::to_bits)
        );
    }

    // Raw engine batch digest: every report field of a fixed query batch,
    // bit for bit, straight off the batch kernel.
    let mut batch = Fnv::new();
    let queries: Vec<EvalQuery> = (0..200)
        .map(|i| EvalQuery {
            layer: i % problem.model().len(),
            dataflow: Dataflow::ALL[i % Dataflow::ALL.len()],
            point: DesignPoint::new(1 + (i as u64 * 13) % 1024, 1 + (i as u64 * 5) % 24)
                .expect("positive"),
        })
        .collect();
    for report in problem.engine().evaluate_batch(&queries) {
        for v in [
            report.latency_cycles,
            report.energy_nj,
            report.area_um2,
            report.power_mw,
            report.utilization,
            report.dram_bytes,
        ] {
            batch.push(v.to_bits());
        }
    }
    println!("batch_fnv={:#018x}", batch.finish());
}

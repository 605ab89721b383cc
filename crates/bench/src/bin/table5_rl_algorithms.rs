//! Table V: the RL-algorithm deep-dive — optimized result, wall-clock
//! search time, and memory overhead (trainable parameters) for A2C, ACKTR,
//! PPO2, DDPG, SAC, TD3 vs Con'X (global).
//!
//! Default runs the six MobileNet-V2 rows; `--full` adds the ResNet-50 and
//! MnasNet rows of the paper (slow).
//!
//! Rollouts are vectorized (`--n-envs`, default 4): each search runs
//! `n_envs` environment replicas in lockstep and batches their cost
//! queries through the evaluation engine. Per-algorithm engine counters
//! (queries issued, and the share priced as in-batch duplicates) are
//! reported after each row, as `table4_optimizers` already does for the
//! classical baselines.

use confuciux::{
    format_sci, run_rl_search_vec, write_json, AlgorithmKind, ConstraintKind, Objective,
    PlatformClass, SearchBudget,
};
use confuciux_bench::{format_duration, standard_problem, Args};
use maestro::Dataflow;

const ROWS: [(&str, Objective, ConstraintKind, PlatformClass); 14] = [
    (
        "MbnetV2",
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    ),
    (
        "MbnetV2",
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::IotX,
    ),
    (
        "MbnetV2",
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::Iot,
    ),
    (
        "MbnetV2",
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::IotX,
    ),
    (
        "MbnetV2",
        Objective::Energy,
        ConstraintKind::Area,
        PlatformClass::Iot,
    ),
    (
        "MbnetV2",
        Objective::Energy,
        ConstraintKind::Power,
        PlatformClass::Iot,
    ),
    (
        "ResNet50",
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Cloud,
    ),
    (
        "ResNet50",
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::Cloud,
    ),
    (
        "ResNet50",
        Objective::Energy,
        ConstraintKind::Area,
        PlatformClass::Cloud,
    ),
    (
        "ResNet50",
        Objective::Energy,
        ConstraintKind::Power,
        PlatformClass::Cloud,
    ),
    (
        "MnasNet",
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    ),
    (
        "MnasNet",
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::Iot,
    ),
    (
        "MnasNet",
        Objective::Energy,
        ConstraintKind::Area,
        PlatformClass::Iot,
    ),
    (
        "MnasNet",
        Objective::Energy,
        ConstraintKind::Power,
        PlatformClass::Iot,
    ),
];

fn main() {
    let args = Args::parse(300);
    let budget = SearchBudget {
        epochs: args.epochs,
    };
    let rows: Vec<_> = if args.full {
        ROWS.to_vec()
    } else {
        ROWS[..6].to_vec()
    };
    let mut header = vec!["Model".to_string(), "Obj.".to_string(), "Cstr.".to_string()];
    for a in AlgorithmKind::TABLE5 {
        header.push(format!("{} result", a.name()));
        header.push(format!("{} time", a.name()));
    }
    let columns: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = confuciux::ExperimentTable::new(
        "Table V — RL algorithms: converged solutions and search time",
        &columns,
    );
    let mut params: Vec<(String, usize)> = Vec::new();
    for (model, objective, constraint, platform) in rows {
        let problem =
            standard_problem(model, Dataflow::NvdlaStyle, objective, constraint, platform);
        let mut cells = vec![
            model.to_string(),
            objective.to_string(),
            format!("{constraint}: {platform}"),
        ];
        for kind in AlgorithmKind::TABLE5 {
            let r = run_rl_search_vec(&problem, kind, budget, args.seed, args.n_envs);
            cells.push(format_sci(r.best_cost()));
            cells.push(format_duration(r.wall_time));
            if params.iter().all(|(n, _)| n != kind.name()) {
                params.push((kind.name().to_string(), r.param_count));
            }
            eprintln!(
                "  {}: {} evals ({:.0}% deduplicated)",
                kind.name(),
                r.eval_stats.total(),
                r.eval_stats.hit_rate() * 100.0
            );
            eprintln!(
                "done: {model} {objective} {constraint} {platform} {}",
                kind.name()
            );
        }
        table.push_row(cells);
    }
    println!("{table}");
    let mut mem = confuciux::ExperimentTable::new(
        "Table V (bottom) — memory overhead (trainable parameters)",
        &["Algorithm", "Parameters"],
    );
    for (name, count) in &params {
        mem.push_row(vec![name.clone(), count.to_string()]);
    }
    println!("{mem}");
    write_json(&args.out.join("table5_rl_algorithms.json"), &table).expect("write results");
    write_json(&args.out.join("table5_param_counts.json"), &mem).expect("write results");
}

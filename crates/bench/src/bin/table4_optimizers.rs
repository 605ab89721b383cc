//! Table IV: converged solutions for the classical optimization baselines
//! vs Con'X (global) across the four platform classes, for MobileNet-V2,
//! NVDLA-style, LP deployment — 14 (objective, constraint, platform) rows.

use confuciux::{
    format_sci, run_baseline, run_rl_search_vec, write_json, BaselineKind, ConstraintKind,
    Objective, PlatformClass, SearchBudget,
};
use confuciux_bench::{standard_spec, Args};
use maestro::Dataflow;

const ROWS: [(Objective, ConstraintKind, PlatformClass); 14] = [
    (
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Unlimited,
    ),
    (
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Cloud,
    ),
    (Objective::Latency, ConstraintKind::Area, PlatformClass::Iot),
    (
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::IotX,
    ),
    (
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::Cloud,
    ),
    (
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::Iot,
    ),
    (
        Objective::Latency,
        ConstraintKind::Power,
        PlatformClass::IotX,
    ),
    (
        Objective::Energy,
        ConstraintKind::Area,
        PlatformClass::Unlimited,
    ),
    (
        Objective::Energy,
        ConstraintKind::Area,
        PlatformClass::Cloud,
    ),
    (Objective::Energy, ConstraintKind::Area, PlatformClass::Iot),
    (Objective::Energy, ConstraintKind::Area, PlatformClass::IotX),
    (
        Objective::Energy,
        ConstraintKind::Power,
        PlatformClass::Cloud,
    ),
    (Objective::Energy, ConstraintKind::Power, PlatformClass::Iot),
    (
        Objective::Energy,
        ConstraintKind::Power,
        PlatformClass::IotX,
    ),
];

fn main() {
    let args = Args::parse(400);
    let budget = SearchBudget {
        epochs: args.epochs,
    };
    let rows: Vec<_> = if args.full {
        ROWS.to_vec()
    } else {
        vec![
            ROWS[0], ROWS[2], ROWS[3], ROWS[5], ROWS[7], ROWS[9], ROWS[12],
        ]
    };
    let mut table = confuciux::ExperimentTable::new(
        "Table IV — optimizer deep-dive (MobileNet-V2, NVDLA-style, LP)",
        &[
            "Objective",
            "Constraint",
            "Grid",
            "Random",
            "SA",
            "GA",
            "Bayes.Opt.",
            "Con'X (global)",
        ],
    );
    for (objective, constraint, platform) in rows {
        // One JobSpec per row — the same spec a `confuciux-server` client
        // would submit — and one construction path behind it.
        let mut spec = standard_spec(
            "MbnetV2",
            Dataflow::NvdlaStyle,
            objective,
            constraint,
            platform,
        );
        spec.budget.global_epochs = args.epochs;
        spec.seed = args.seed;
        spec.n_envs = args.n_envs;
        let problem = spec.build().expect("valid job spec");
        let mut cells = vec![objective.to_string(), format!("{constraint}: {platform}")];
        for kind in BaselineKind::TABLE4 {
            let r = run_baseline(&problem, kind, budget, spec.seed);
            cells.push(format_sci(r.best_cost()));
            eprintln!(
                "  {}: {} evals ({:.0}% deduplicated)",
                r.algorithm,
                r.eval_stats.total(),
                r.eval_stats.hit_rate() * 100.0
            );
        }
        let conx = run_rl_search_vec(&problem, spec.algo, budget, spec.seed, spec.n_envs);
        cells.push(format_sci(conx.best_cost()));
        eprintln!(
            "  {}: {} evals ({:.0}% deduplicated)",
            conx.algorithm,
            conx.eval_stats.total(),
            conx.eval_stats.hit_rate() * 100.0
        );
        table.push_row(cells);
        eprintln!("done: {objective} {constraint} {platform}");
    }
    println!("{table}");
    write_json(&args.out.join("table4_optimizers.json"), &table).expect("write results");
}

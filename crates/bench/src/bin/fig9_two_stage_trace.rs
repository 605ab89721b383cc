//! Fig. 9: overall latency as a function of epochs across the two-stage
//! optimization (MobileNet-V2, Obj: latency, Cstr: IoT area) — the
//! REINFORCE global-search trace followed by the local-GA fine-tuning
//! trace.
//!
//! Supports `--checkpoint PATH` / `--resume PATH` for long budgets: a
//! killed run resumed from its checkpoint produces a bit-identical trace.

use confuciux::{format_sci, write_json, ConstraintKind, Objective, PlatformClass};
use confuciux_bench::{run_two_stage_checkpointed, standard_spec, Args};
use maestro::Dataflow;
use serde::Serialize;

#[derive(Serialize)]
struct TwoStageTrace {
    global: Vec<f64>,
    fine: Vec<f64>,
    initial_valid: Option<f64>,
    global_best: Option<f64>,
    final_best: Option<f64>,
}

fn main() {
    let args = Args::parse(600);
    // The run is fully described by one JobSpec; problem and search
    // config both derive from it.
    let mut spec = standard_spec(
        "MbnetV2",
        Dataflow::NvdlaStyle,
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    );
    spec.budget.global_epochs = args.epochs;
    spec.budget.fine_evaluations = args.epochs * 2;
    spec.n_envs = args.n_envs;
    spec.seed = args.seed;
    let problem = spec.build().expect("valid job spec");
    let result = run_two_stage_checkpointed(&problem, &spec.two_stage_config(), spec.seed, &args);
    let trace = TwoStageTrace {
        global: result.global.trace.clone(),
        fine: result
            .fine
            .as_ref()
            .map(|f| f.trace.clone())
            .unwrap_or_default(),
        initial_valid: result.global.initial_valid_cost,
        global_best: result.global.best_cost(),
        final_best: result.final_cost(),
    };
    println!("Fig. 9 — two-stage optimization trace (MobileNet-V2, IoT area)\n");
    println!("initial valid value : {}", format_sci(trace.initial_valid));
    println!("REINFORCE converged : {}", format_sci(trace.global_best));
    println!("GA fine-tuned       : {}", format_sci(trace.final_best));
    println!("\nsampled best-so-far (global || fine):");
    let sample = |t: &[f64]| -> String {
        if t.is_empty() {
            return "-".to_string();
        }
        (0..8)
            .map(|i| {
                let idx = (i * (t.len() - 1)) / 7;
                format_sci(if t[idx].is_finite() {
                    Some(t[idx])
                } else {
                    None
                })
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("  global: {}", sample(&trace.global));
    println!("  fine  : {}", sample(&trace.fine));
    write_json(&args.out.join("fig9_two_stage_trace.json"), &trace).expect("write results");
}

//! Criterion benchmarks of one search epoch on the real MobileNet-V2
//! problem: a full RL training episode per algorithm plus a whole-model
//! evaluation — the sample-cost comparison behind Table V's search times.

use confuciux::{
    make_agent, AlgorithmKind, ConstraintKind, Deployment, HwEnv, HwProblem, Objective,
    PlatformClass,
};
use criterion::{criterion_group, criterion_main, Criterion};
use maestro::Dataflow;
use tinynn::{Rng, SeedableRng};

fn problem() -> HwProblem {
    HwProblem::builder(dnn_models::mobilenet_v2())
        .dataflow(Dataflow::NvdlaStyle)
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Iot)
        .deployment(Deployment::LayerPipelined)
        .build()
}

fn bench_rl_epoch(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("search_epoch");
    group.sample_size(10);
    for kind in [
        AlgorithmKind::Reinforce,
        AlgorithmKind::Ppo2,
        AlgorithmKind::Ddpg,
    ] {
        let mut rng = Rng::seed_from_u64(3);
        let mut env = HwEnv::new(&p);
        let mut agent = make_agent(kind, &env, &mut rng);
        group.bench_function(kind.name(), |b| {
            b.iter(|| agent.train_epoch(&mut env, &mut rng))
        });
    }
    group.finish();
}

fn bench_full_model_eval(c: &mut Criterion) {
    let p = problem();
    let point = maestro::DesignPoint::new(16, 3).unwrap();
    let layers: Vec<confuciux::LayerAssignment> = (0..p.model().len())
        .map(|_| confuciux::LayerAssignment {
            dataflow: Dataflow::NvdlaStyle,
            point,
        })
        .collect();
    c.bench_function("evaluate_lp", |b| b.iter(|| p.evaluate_lp(&layers)));
}

criterion_group!(benches, bench_rl_epoch, bench_full_model_eval);
criterion_main!(benches);

//! Criterion micro-benchmarks of the policy network: action sampling,
//! full-episode backprop and the clipped Adam update for the paper's
//! LSTM-128 policy and the MLP ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use rl_core::{PolicyBackboneKind, PolicyNet};
use std::hint::black_box;
use tinynn::{Adam, Rng, SeedableRng};

fn bench_act(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let mut group = c.benchmark_group("policy_act");
    for (name, kind) in [
        ("rnn128", PolicyBackboneKind::Rnn),
        ("mlp128", PolicyBackboneKind::Mlp),
    ] {
        let policy = PolicyNet::new(10, &[12, 12], kind, 128, &mut rng);
        let obs = [0.1f32; 10];
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut state = policy.initial_state();
                policy.act(black_box(&obs), &mut state, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_episode_backward(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(2);
    let mut group = c.benchmark_group("policy_episode_update");
    group.sample_size(20);
    for (name, kind) in [
        ("rnn128_52steps", PolicyBackboneKind::Rnn),
        ("mlp128_52steps", PolicyBackboneKind::Mlp),
    ] {
        let mut policy = PolicyNet::new(10, &[12, 12], kind, 128, &mut rng);
        let obs = [0.1f32; 10];
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut state = policy.initial_state();
                let steps: Vec<_> = (0..52)
                    .map(|_| policy.act(&obs, &mut state, &mut rng))
                    .collect();
                let coefs = vec![0.5f32; steps.len()];
                policy.backward_episode(&steps, &coefs, 0.01, None, None);
                policy.zero_grad();
            })
        });
    }
    group.finish();
}

/// `apply_update`: the global-norm pass plus the fused scale → Adam → zero
/// pass over every parameter. The norm pass skips all-zero gradient
/// blocks, so each iteration first restores the gradients one 52-step
/// backward left (a copy of every gradient, timed with the update).
fn bench_apply_update(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(3);
    let mut group = c.benchmark_group("policy_apply_update");
    for (name, kind) in [
        ("rnn128", PolicyBackboneKind::Rnn),
        ("mlp128", PolicyBackboneKind::Mlp),
    ] {
        let mut policy = PolicyNet::new(10, &[12, 12], kind, 128, &mut rng);
        let mut opt = Adam::new(3e-3);
        let obs = [0.1f32; 10];
        let mut state = policy.initial_state();
        let steps: Vec<_> = (0..52)
            .map(|_| policy.act(&obs, &mut state, &mut rng))
            .collect();
        policy.backward_episode(&steps, &vec![0.5f32; steps.len()], 0.01, None, None);
        let grads: Vec<Vec<f32>> = policy
            .params_mut()
            .iter()
            .map(|p| p.g.data().to_vec())
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                for (p, g) in policy.params_mut().into_iter().zip(&grads) {
                    p.g.data_mut().copy_from_slice(g);
                }
                policy.apply_update(&mut opt, black_box(5.0))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_act,
    bench_episode_backward,
    bench_apply_update
);
criterion_main!(benches);

//! CI perf-smoke: a short fixed-budget `two_stage_search` plus
//! microbenches of the [`EvalEngine`], the pricing kernel, RL rollouts,
//! policy inference and the policy-gradient update, and the same search
//! served by an in-process daemon, emitting a `BENCH_ci.json` artifact
//! (wall time, evals/sec, steps/sec and their ratios) and failing on
//! a >30% regression against the checked-in baseline
//! (`ci/bench_baseline.json`).
//!
//! * Ratio floors (and the daemon overhead's ceiling) compare two loops on
//!   the same machine and need no baseline; `machine_local_failures`
//!   holds them, and a unit test runs the checked-in baseline through it
//!   so a baseline that fails its own floors cannot be committed. Each
//!   ratio is the median of interleaved pairs, so machine drift hits both
//!   sides of every pair alike.
//! * `--epochs`/`--seed`/`--out` behave as in every other binary; the
//!   artifact lands at `<out>/BENCH_ci.json`.
//! * `CONFX_BENCH_BASELINE` overrides the baseline path.
//! * `CONFX_BENCH_UPDATE=1` rewrites the baseline from this run instead of
//!   comparing (use after an intentional perf change, on the CI runner
//!   class the gate runs on).
//! * The absolute-rate gates only apply when this machine has as many
//!   cores as the one the baseline was recorded on. The two-stage query
//!   count is exact, so it must not exceed the baseline's on any machine.
//!
//! The checked-in baseline was seeded from the development container; the
//! first run on a new runner class should refresh it (see README).

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use confuciux::{
    two_stage_search, ConstraintKind, CostOracle, Deployment, EvalEngine, EvalQuery, HwEnv,
    HwProblem, JobSpec, Objective, PlatformClass, VecHwEnv,
};
use confuciux_bench::{standard_spec, Args};
use confuciux_server::{read_frame, write_frame, Event, Request, Server, ServerConfig};
use maestro::{BatchQueries, CostModel, CostReport, Dataflow, DesignPoint, LayerInvariants};
use rl_core::{collect_vec_rollout, Env, PolicyBackboneKind, PolicyNet, PolicyScratch, PolicyStep};
use serde::{Deserialize, Serialize};
use tinynn::{Adam, LstmState, Rng, SeedableRng};

/// Allowed relative regression on every gated metric.
const TOLERANCE: f64 = 0.30;
/// Queries in the engine and kernel microbench batches: a GA generation
/// (population 100) over MobileNet-V2's 52 layers issues ~5200 fused
/// layer queries, so this matches the shape the optimizers actually
/// produce.
const BATCH_QUERIES: usize = 5200;
/// Episodes rolled out by the RL-rollout microbench (identical for the
/// serial and vectorized configurations, so the work is the same).
const RL_EPISODES: usize = 192;
/// Replicas in the vectorized rollout configuration. Layer-Sequential
/// episodes are single-step, so one synchronized step of N replicas fuses
/// N full-model evaluations (N x 52 layer queries on MobileNet-V2) into
/// one engine batch — the shape `VecHwEnv` is built for.
const RL_VEC_ENVS: usize = 64;
/// Floor on the median vectorized-over-serial rollout throughput ratio,
/// gated on every machine class (it does not depend on core count). The
/// rollout microbench drives real policy-driven episodes —
/// `collect_vec_rollout` with the paper's LSTM-128 policy acting for every
/// replica — so one synchronized step fuses N policy forwards into one
/// GEMM-shaped batch and N env steps into one engine round. The two sides
/// run within a few percent of each other, so the ratio comes from
/// [`RL_PAIRS`] interleaved serial/vectorized repetitions, and the gate
/// reads their median. Twenty-seven runs on the 2-vCPU dev VM gave medians
/// of 1.05–1.17x (single pairs 0.51–2.29x); the floor sits below the
/// medians' whole spread, so it catches a vectorized path that falls
/// clearly behind serial rather than flipping a coin at 1.0.
const RL_MIN_SPEEDUP: f64 = 0.85;
/// Interleaved serial/vectorized repetitions behind `rl_vec_speedup`.
const RL_PAIRS: usize = 15;
/// Decisions per episode in the update microbench: MobileNet-V2's 52
/// layers, one Layer-Pipelined decision each.
const UPDATE_EPISODE_STEPS: usize = 52;
/// Policy-gradient updates timed per repetition of the update microbench.
const UPDATE_EPISODES: usize = 40;
/// Floor on the median batched policy-inference speedup over a
/// per-replica serial `act` loop at [`RL_VEC_ENVS`] replicas, over
/// [`POLICY_PAIRS`] interleaved serial/batch pairs. Both sides run
/// single-threaded on this machine, so the ratio is hardware-local and
/// gates on every machine class. The bit-exactness contract pins the LSTM
/// gate nonlinearities to the same calls on both paths: `tanh` is
/// `tinynn`'s own host-identical port, run lane-wide over whole rows, and
/// `exp` stays the scalar libm call (3 per hidden unit per step), since
/// glibc picks its `expf` build by CPU features and no port matches it on
/// every CPU. These per-row costs bound the fair-fight ratio well below
/// the GEMM ratio; the floor locks in the batching win without inviting a
/// bit-breaking "fast math" fix to clear an impossible bar. Twenty-seven
/// runs on the 2-vCPU dev VM gave medians of 1.20–1.49x (single pairs
/// 0.68–1.93x) with libm `tanh`; with the port, three runs gave
/// 1.40–1.49x against 1.14–1.17x for libm `tanh` runs interleaved with
/// them. Since `gemm_nn` keeps a lone row's outputs in registers and runs
/// 4×16 tiles and padded tails, which speed up both sides, fifteen runs
/// gave medians of 1.52–1.73x (single pairs 1.08–2.42x) against
/// 1.34–1.68x for runs of the previous kernels interleaved with them. The
/// floor sits below the medians' whole spread.
const POLICY_MIN_SPEEDUP: f64 = 1.10;
/// Interleaved serial/batch repetitions behind `policy_batch_speedup`.
const POLICY_PAIRS: usize = 15;
/// Synchronized policy steps measured per side of each policy pair.
const POLICY_ROUNDS: usize = 32;
/// Floor on the median single-thread speedup of the batch pricing kernel
/// over the scalar `CostModel::evaluate` loop on a GA-shaped batch, over
/// [`KERNEL_PAIRS`] interleaved scalar/batch pairs. The batch revisits
/// layers, tiles and array sizes the way a GA generation does, which is
/// the shape the engine prices in production, so the ratio includes the
/// kernel's in-batch dedup. Hardware-local ratio, so it gates on every
/// machine class. Seventeen runs on the 2-vCPU dev VM gave medians of
/// 3.54–4.12x (single pairs 1.76–20x, the top one a scalar side caught by
/// an interrupt); the floor sits below the medians' whole spread.
const KERNEL_MIN_SPEEDUP: f64 = 3.0;
/// Interleaved scalar/batch repetitions behind `kernel_batch_speedup`.
const KERNEL_PAIRS: usize = 31;
/// Passes over the batch per side of each kernel pair: one pass takes well
/// under a millisecond, short enough for a single interrupt to swing it.
const KERNEL_PASSES: usize = 8;
/// Ceiling on the median daemon overhead ratio: Submit→`Done` latency of
/// the perf-smoke spec on an in-process daemon over loopback, minus the
/// library run of the same spec, over the library run, across
/// [`DAEMON_PAIRS`] interleaved pairs. A daemon job should cost its search
/// plus a few frames. Over ten alternating runs per side on the 2-vCPU dev
/// VM, a daemon that snapshotted the job after every step gave medians of
/// 2.46–3.00 (single pairs 1.55–5.56), and snapshotting only at a clean
/// stop gave medians of 0.01–0.08 (pairs −0.31–0.43). The ceiling sits
/// between the two spreads.
const DAEMON_OVERHEAD_MAX: f64 = 0.5;
/// Interleaved library/daemon repetitions behind `daemon_overhead_ratio`.
const DAEMON_PAIRS: usize = 15;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchCi {
    /// Wall time of the fixed-budget two-stage pipeline, in ms.
    two_stage_wall_ms: f64,
    /// Cost queries issued by the two-stage pipeline. A pure function of
    /// the spec, so it is gated on every machine: it must not exceed the
    /// baseline's.
    two_stage_queries: u64,
    /// Unique queries in the engine microbench batch.
    batch_queries: usize,
    /// Engine throughput on that batch of unique queries.
    engine_evals_per_sec: f64,
    /// Single-thread scalar `CostModel::evaluate` loop throughput on a
    /// GA-shaped batch.
    kernel_evals_per_sec_scalar: f64,
    /// Single-thread `CostModel::evaluate_batch_into` throughput on the
    /// same batch.
    kernel_evals_per_sec_batch: f64,
    /// Median `batch / scalar` kernel throughput ratio over
    /// [`KERNEL_PAIRS`] interleaved pairs.
    kernel_batch_speedup: f64,
    /// Smallest of those pair ratios.
    kernel_batch_speedup_min: f64,
    /// Largest of those pair ratios.
    kernel_batch_speedup_max: f64,
    /// Serial (1 replica) RL-rollout throughput in env steps/sec.
    rl_env_steps_per_sec_serial: f64,
    /// Vectorized ([`RL_VEC_ENVS`] replicas) RL-rollout throughput.
    rl_env_steps_per_sec_vec: f64,
    /// Median `vec / serial` throughput ratio over [`RL_PAIRS`] interleaved
    /// repetitions.
    rl_vec_speedup: f64,
    /// Smallest of those pair ratios.
    rl_vec_speedup_min: f64,
    /// Largest of those pair ratios.
    rl_vec_speedup_max: f64,
    /// Replicas used by the vectorized rollout configuration.
    rl_n_envs: usize,
    /// Per-replica policy-inference throughput (steps/sec) of a serial
    /// `act` loop over [`RL_VEC_ENVS`] replicas.
    policy_steps_per_sec_serial: f64,
    /// The same work fused into one `act_batch` call per synchronized step.
    policy_steps_per_sec_batch: f64,
    /// Median `batch / serial` policy-inference throughput ratio over
    /// [`POLICY_PAIRS`] interleaved pairs.
    policy_batch_speedup: f64,
    /// Smallest of those pair ratios.
    policy_batch_speedup_min: f64,
    /// Largest of those pair ratios.
    policy_batch_speedup_max: f64,
    /// Policy-gradient updates per second: one [`UPDATE_EPISODE_STEPS`]-step
    /// LSTM-128 `backward_episode` plus one `apply_update` each.
    update_episodes_per_sec: f64,
    /// Median over [`DAEMON_PAIRS`] interleaved pairs of
    /// `(daemon − library) / library`: the Submit→`Done` latency of the
    /// two-stage spec on an in-process daemon over loopback against the
    /// in-process library run of the same spec.
    daemon_overhead_ratio: f64,
    /// Smallest of those pair ratios.
    daemon_overhead_ratio_min: f64,
    /// Largest of those pair ratios.
    daemon_overhead_ratio_max: f64,
    /// Cores of the machine the run was recorded on; absolute rates only
    /// compare between runs with the same count.
    cores: usize,
}

/// The median, smallest and largest of a run's pair ratios.
fn spread(mut ratios: Vec<f64>) -> [f64; 3] {
    ratios.sort_by(f64::total_cmp);
    [
        ratios[ratios.len() / 2],
        ratios[0],
        ratios[ratios.len() - 1],
    ]
}

/// The daemon's cost over the library as [`DAEMON_PAIRS`] back-to-back
/// pairs: the in-process run of `spec` (problem build included), then the
/// same spec submitted to an in-process [`Server`] over loopback and
/// followed to `Done` on one connection. Each `Done` digest must equal the
/// library run's. Returns the median, min and max of the per-pair
/// `(daemon − library) / library` ratios.
fn daemon_overhead_pairs(spec: &JobSpec) -> [f64; 3] {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let serve = thread::spawn(move || server.serve_listener(listener));
    let mut conn = TcpStream::connect(addr).expect("connect to the in-process daemon");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    let next = |conn: &mut TcpStream| -> Event {
        read_frame(conn)
            .expect("read a daemon frame")
            .expect("daemon closed the connection")
    };
    let mut ratios = Vec::with_capacity(DAEMON_PAIRS);
    for _ in 0..DAEMON_PAIRS {
        let start = Instant::now();
        let library = spec
            .clone()
            .into_runner()
            .expect("valid job spec")
            .into_result()
            .outcome();
        let library_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        write_frame(&mut conn, &Request::Submit { spec: spec.clone() }).expect("submit");
        let outcome = loop {
            match next(&mut conn) {
                Event::Done { outcome, .. } => break outcome,
                Event::Submitted { .. }
                | Event::Attached { .. }
                | Event::Started { .. }
                | Event::Progress { .. } => {}
                other => panic!("daemon job did not finish: {other:?}"),
            }
        };
        let daemon_s = start.elapsed().as_secs_f64();
        assert_eq!(
            outcome.digest(),
            library.digest(),
            "the daemon's answer differs from the library run"
        );
        ratios.push((daemon_s - library_s) / library_s.max(1e-9));
    }
    write_frame(&mut conn, &Request::Shutdown).expect("request shutdown");
    while !matches!(next(&mut conn), Event::ShuttingDown) {}
    drop(conn);
    serve
        .join()
        .expect("daemon serve thread")
        .expect("daemon served until shutdown");
    spread(ratios)
}

/// Throughput (policy steps/sec) of one repetition of real policy-driven
/// rollouts through a [`VecHwEnv`]: Layer-Sequential MobileNet-V2 with an
/// unlimited budget and the paper's LSTM-128 policy acting for every
/// replica. The measurement covers the whole hot loop the RL search
/// actually runs — policy inference, action sampling, and engine-backed
/// env stepping — with one batched forward per synchronized step on the
/// vectorized side and `n_envs = 1` (a 1-row batch, the serial float-op
/// sequence) on the serial side.
fn rl_rollout_steps_per_sec(n_envs: usize) -> f64 {
    let problem = HwProblem::builder(dnn_models::mobilenet_v2())
        .mix_dataflow()
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
        .deployment(Deployment::LayerSequential)
        .build();
    let mut venv = VecHwEnv::new(&problem, n_envs);
    let mut rng = Rng::seed_from_u64(9);
    let policy = PolicyNet::new(
        venv.env(0).obs_dim(),
        &venv.env(0).action_dims(),
        PolicyBackboneKind::Rnn,
        128,
        &mut rng,
    );
    let start = Instant::now();
    let mut episodes = 0usize;
    let mut steps_done = 0usize;
    while episodes < RL_EPISODES {
        let k = n_envs.min(RL_EPISODES - episodes);
        // Fresh per-episode streams so both configurations sample the
        // same number of independent episodes.
        let mut rngs: Vec<Rng> = (0..k)
            .map(|i| Rng::seed_from_u64(0x5eed ^ (episodes + i) as u64))
            .collect();
        let rollout = collect_vec_rollout(&policy, &mut venv, &mut rngs);
        steps_done += rollout.steps.iter().map(Vec::len).sum::<usize>();
        episodes += k;
    }
    steps_done as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The rollout microbench as [`RL_PAIRS`] back-to-back serial/vectorized
/// pairs, so machine drift hits both sides of each ratio alike: the best
/// serial and vectorized throughputs, then the median, min and max of the
/// per-pair `vec / serial` ratios.
fn rl_rollout_pairs() -> (f64, f64, [f64; 3]) {
    let (mut serial_best, mut vec_best) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(RL_PAIRS);
    for _ in 0..RL_PAIRS {
        let serial = rl_rollout_steps_per_sec(1);
        let vec = rl_rollout_steps_per_sec(RL_VEC_ENVS);
        serial_best = serial_best.max(serial);
        vec_best = vec_best.max(vec);
        ratios.push(vec / serial);
    }
    (serial_best, vec_best, spread(ratios))
}

/// Best-of-3 policy-gradient update throughput (updates/sec) for the
/// paper's LSTM-128 policy: one `backward_episode` over a recorded
/// [`UPDATE_EPISODE_STEPS`]-step episode plus one clipped `apply_update` —
/// the REINFORCE update that dominates a Layer-Pipelined search.
fn update_episodes_per_sec(obs_dim: usize, action_dims: &[usize]) -> f64 {
    let mut rng = Rng::seed_from_u64(13);
    let mut policy = PolicyNet::new(obs_dim, action_dims, PolicyBackboneKind::Rnn, 128, &mut rng);
    let mut state = policy.initial_state();
    let steps: Vec<PolicyStep> = (0..UPDATE_EPISODE_STEPS)
        .map(|t| {
            let obs: Vec<f32> = (0..obs_dim)
                .map(|j| ((t * 31 + j * 17) % 97) as f32 / 97.0)
                .collect();
            policy.act(&obs, &mut state, &mut rng)
        })
        .collect();
    let coefs: Vec<f32> = (0..steps.len())
        .map(|t| if t % 2 == 0 { 0.5 } else { -0.5 })
        .collect();
    let mut opt = Adam::new(3e-3);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..UPDATE_EPISODES {
            policy.backward_episode(&steps, &coefs, 0.01, None, None);
            policy.apply_update(&mut opt, 5.0);
        }
        best = best.max(UPDATE_EPISODES as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Pure policy inference as [`POLICY_PAIRS`] back-to-back serial/batch
/// pairs at [`RL_VEC_ENVS`] replicas: the best serial and batch
/// throughputs in per-replica steps/sec, then the median, min and max of
/// the per-pair `batch / serial` ratios. The serial side calls `act` once
/// per replica per synchronized step, the batch side fuses the same work
/// into one `act_batch` call. Same LSTM-128 policy, same observations,
/// same per-replica RNG streams, no environment — the ratio isolates the
/// GEMM-shaped inference win itself.
fn policy_pairs(obs_dim: usize, action_dims: &[usize]) -> (f64, f64, [f64; 3]) {
    let mut rng = Rng::seed_from_u64(11);
    let policy = PolicyNet::new(obs_dim, action_dims, PolicyBackboneKind::Rnn, 128, &mut rng);
    let obs: Vec<Vec<f32>> = (0..RL_VEC_ENVS)
        .map(|i| {
            (0..obs_dim)
                .map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0)
                .collect()
        })
        .collect();
    let steps_per_rep = (RL_VEC_ENVS * POLICY_ROUNDS) as f64;
    let mut serial_best = 0.0f64;
    let mut batch_best = 0.0f64;
    let mut ratios = Vec::with_capacity(POLICY_PAIRS);
    for _ in 0..POLICY_PAIRS {
        let mut states: Vec<LstmState> = (0..RL_VEC_ENVS).map(|_| policy.initial_state()).collect();
        let mut rngs: Vec<Rng> = (0..RL_VEC_ENVS)
            .map(|i| Rng::seed_from_u64(100 + i as u64))
            .collect();
        let start = Instant::now();
        for _ in 0..POLICY_ROUNDS {
            for ((o, state), r) in obs.iter().zip(&mut states).zip(&mut rngs) {
                std::hint::black_box(policy.act(o, state, r));
            }
        }
        let serial = steps_per_rep / start.elapsed().as_secs_f64().max(1e-9);

        let mut states: Vec<LstmState> = (0..RL_VEC_ENVS).map(|_| policy.initial_state()).collect();
        let mut rngs: Vec<Rng> = (0..RL_VEC_ENVS)
            .map(|i| Rng::seed_from_u64(100 + i as u64))
            .collect();
        let mut scratch = PolicyScratch::new();
        let obs_refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
        let start = Instant::now();
        for _ in 0..POLICY_ROUNDS {
            let mut state_refs: Vec<&mut LstmState> = states.iter_mut().collect();
            let mut rng_refs: Vec<&mut Rng> = rngs.iter_mut().collect();
            std::hint::black_box(policy.act_batch(
                &obs_refs,
                &mut state_refs,
                &mut rng_refs,
                &mut scratch,
            ));
        }
        let batch = steps_per_rep / start.elapsed().as_secs_f64().max(1e-9);
        serial_best = serial_best.max(serial);
        batch_best = batch_best.max(batch);
        ratios.push(batch / serial);
    }
    (serial_best, batch_best, spread(ratios))
}

fn main() {
    let args = Args::parse(120);

    // --- Fixed-budget two-stage pipeline (the end-to-end smoke). ---
    // Best-of-3 on a fresh problem each time: the run is ~100ms, so a
    // single scheduling hiccup on a busy runner would otherwise dominate
    // the wall-time gate. The query count comes from the first run.
    let mut spec = standard_spec(
        "tiny_cnn",
        Dataflow::NvdlaStyle,
        Objective::Latency,
        ConstraintKind::Area,
        PlatformClass::Iot,
    );
    spec.budget.global_epochs = args.epochs;
    spec.budget.fine_evaluations = 300;
    spec.n_envs = args.n_envs;
    spec.seed = args.seed;
    let cfg = spec.two_stage_config();
    let mut two_stage_wall_ms = f64::MAX;
    let mut two_stage_queries = 0;
    for rep in 0..3 {
        let problem = spec.clone().build().expect("valid job spec");
        let start = Instant::now();
        let result = two_stage_search(&problem, &cfg, spec.seed);
        two_stage_wall_ms = two_stage_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            two_stage_queries = problem.eval_stats().total();
        }
        assert!(
            result.final_cost().is_some(),
            "perf smoke found no feasible assignment — the search itself is broken"
        );
    }

    // --- Engine microbench: a batch of unique queries. ---
    let layers = dnn_models::mobilenet_v2().layers().to_vec();
    let queries: Vec<EvalQuery> = (0..BATCH_QUERIES)
        .map(|i| EvalQuery {
            layer: i % layers.len(),
            dataflow: Dataflow::ALL[i % Dataflow::ALL.len()],
            // `num_pes` is unique per query, so the kernel prices every
            // query and the bench measures raw evaluation throughput.
            point: DesignPoint::new(1 + i as u64, 1 + (i % 24) as u64).expect("positive"),
        })
        .collect();
    let engine_evals_per_sec = best_throughput(&layers, &queries);

    // --- Batch pricing kernel microbench: scalar loop vs. SoA kernel. ---
    let (kernel_evals_per_sec_scalar, kernel_evals_per_sec_batch, kernel_spread) =
        kernel_pairs(&layers);

    // --- RL-rollout microbench: serial vs vectorized policy rollouts. ---
    let (rl_env_steps_per_sec_serial, rl_env_steps_per_sec_vec, rl_spread) = rl_rollout_pairs();

    // --- Pure policy-inference microbench: serial act loop vs act_batch,
    // sized from the same env the rollout bench steps through. ---
    let probe = HwProblem::builder(dnn_models::mobilenet_v2())
        .mix_dataflow()
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Unlimited)
        .deployment(Deployment::LayerSequential)
        .build();
    let probe_env = HwEnv::new(&probe);
    let (policy_steps_per_sec_serial, policy_steps_per_sec_batch, policy_spread) =
        policy_pairs(probe_env.obs_dim(), &probe_env.action_dims());

    // --- Policy-gradient update microbench, sized like an LP episode. ---
    let lp_probe = HwProblem::builder(dnn_models::mobilenet_v2())
        .dataflow(Dataflow::NvdlaStyle)
        .objective(Objective::Latency)
        .constraint(ConstraintKind::Area, PlatformClass::Iot)
        .deployment(Deployment::LayerPipelined)
        .build();
    let lp_env = HwEnv::new(&lp_probe);
    let update_episodes_per_sec = update_episodes_per_sec(lp_env.obs_dim(), &lp_env.action_dims());

    // --- The same search served by a daemon vs. run in-process. ---
    let daemon_spread = daemon_overhead_pairs(&spec);

    let report = BenchCi {
        two_stage_wall_ms,
        two_stage_queries,
        batch_queries: BATCH_QUERIES,
        engine_evals_per_sec,
        kernel_evals_per_sec_scalar,
        kernel_evals_per_sec_batch,
        kernel_batch_speedup: kernel_spread[0],
        kernel_batch_speedup_min: kernel_spread[1],
        kernel_batch_speedup_max: kernel_spread[2],
        rl_env_steps_per_sec_serial,
        rl_env_steps_per_sec_vec,
        rl_vec_speedup: rl_spread[0],
        rl_vec_speedup_min: rl_spread[1],
        rl_vec_speedup_max: rl_spread[2],
        rl_n_envs: RL_VEC_ENVS,
        policy_steps_per_sec_serial,
        policy_steps_per_sec_batch,
        policy_batch_speedup: policy_spread[0],
        policy_batch_speedup_min: policy_spread[1],
        policy_batch_speedup_max: policy_spread[2],
        update_episodes_per_sec,
        daemon_overhead_ratio: daemon_spread[0],
        daemon_overhead_ratio_min: daemon_spread[1],
        daemon_overhead_ratio_max: daemon_spread[2],
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let artifact = args.out.join("BENCH_ci.json");
    confuciux::write_json(&artifact, &report).expect("write BENCH_ci.json");
    println!("perf-smoke: {report:#?}");
    println!("artifact: {}", artifact.display());

    // --- Gate against the checked-in baseline. ---
    let baseline_path = std::env::var("CONFX_BENCH_BASELINE")
        .unwrap_or_else(|_| "ci/bench_baseline.json".to_string());
    if std::env::var("CONFX_BENCH_UPDATE").is_ok_and(|v| v == "1") {
        confuciux::write_json(std::path::Path::new(&baseline_path), &report)
            .expect("rewrite baseline");
        println!("baseline updated at {baseline_path}; no comparison performed");
        return;
    }
    let baseline: BenchCi = serde_json::from_str(
        &std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}")),
    )
    .expect("parse baseline JSON");

    let mut failures = Vec::new();
    // Absolute wall-time / evals-per-sec numbers only compare within one
    // machine class. A core-count mismatch means the baseline came from
    // different hardware (e.g. seeded on the dev container, now running on
    // a CI runner): skip the cross-hardware comparison rather than fail on
    // a phantom regression, and tell the operator to re-seed.
    if baseline.cores != report.cores {
        println!(
            "baseline/hardware mismatch ({} baseline cores vs {} now): absolute gates \
             skipped; refresh with CONFX_BENCH_UPDATE=1 on this runner class",
            baseline.cores, report.cores
        );
    } else {
        if report.two_stage_wall_ms > baseline.two_stage_wall_ms * (1.0 + TOLERANCE) {
            failures.push(format!(
                "two-stage wall time regressed: {:.0}ms vs baseline {:.0}ms (+{:.0}% allowed)",
                report.two_stage_wall_ms,
                baseline.two_stage_wall_ms,
                TOLERANCE * 100.0
            ));
        }
        for (name, now, base) in [
            (
                "engine evals/sec",
                report.engine_evals_per_sec,
                baseline.engine_evals_per_sec,
            ),
            (
                "kernel scalar evals/sec",
                report.kernel_evals_per_sec_scalar,
                baseline.kernel_evals_per_sec_scalar,
            ),
            (
                "kernel batch evals/sec",
                report.kernel_evals_per_sec_batch,
                baseline.kernel_evals_per_sec_batch,
            ),
            (
                "serial rl env-steps/sec",
                report.rl_env_steps_per_sec_serial,
                baseline.rl_env_steps_per_sec_serial,
            ),
            (
                "vectorized rl env-steps/sec",
                report.rl_env_steps_per_sec_vec,
                baseline.rl_env_steps_per_sec_vec,
            ),
            (
                "serial policy steps/sec",
                report.policy_steps_per_sec_serial,
                baseline.policy_steps_per_sec_serial,
            ),
            (
                "batched policy steps/sec",
                report.policy_steps_per_sec_batch,
                baseline.policy_steps_per_sec_batch,
            ),
            (
                "policy-gradient updates/sec",
                report.update_episodes_per_sec,
                baseline.update_episodes_per_sec,
            ),
        ] {
            if now < base * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "{name} regressed: {now:.0} vs baseline {base:.0} (-{:.0}% allowed)",
                    TOLERANCE * 100.0
                ));
            }
        }
    }
    // The query count is exact and machine-independent, so it is gated
    // whatever the hardware. The RL environment prices each layer once
    // per episode, and the fine stage only the layers a GA child changed;
    // pricing a layer again keeps every cost and digest bit-identical,
    // and only this count shows it.
    if report.two_stage_queries > baseline.two_stage_queries {
        failures.push(format!(
            "two-stage pipeline issued {} engine queries, more than the baseline's {}",
            report.two_stage_queries, baseline.two_stage_queries
        ));
    }
    failures.extend(machine_local_failures(&report));
    if failures.is_empty() {
        println!("perf-smoke gate passed against {baseline_path}");
    } else {
        eprintln!("perf-smoke gate FAILED against {baseline_path}:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// The gates that need no baseline: ratios of two loops run on this
/// machine. Each failure is one message.
fn machine_local_failures(report: &BenchCi) -> Vec<String> {
    let mut failures = Vec::new();
    if report.kernel_batch_speedup < KERNEL_MIN_SPEEDUP {
        failures.push(format!(
            "batch kernel speedup {:.2}x (median of {KERNEL_PAIRS} pairs, {:.2}–{:.2}x) \
             below the {KERNEL_MIN_SPEEDUP:.2}x floor",
            report.kernel_batch_speedup,
            report.kernel_batch_speedup_min,
            report.kernel_batch_speedup_max
        ));
    }
    if report.policy_batch_speedup < POLICY_MIN_SPEEDUP {
        failures.push(format!(
            "batched policy inference {:.2}x of serial (median of {POLICY_PAIRS} pairs, \
             {:.2}–{:.2}x), below the {POLICY_MIN_SPEEDUP:.2}x floor ({RL_VEC_ENVS} replicas)",
            report.policy_batch_speedup,
            report.policy_batch_speedup_min,
            report.policy_batch_speedup_max
        ));
    }
    if report.daemon_overhead_ratio > DAEMON_OVERHEAD_MAX {
        failures.push(format!(
            "daemon overhead {:.2}x of the library run (median of {DAEMON_PAIRS} pairs, \
             {:.2}–{:.2}x) above the {DAEMON_OVERHEAD_MAX:.2}x ceiling",
            report.daemon_overhead_ratio,
            report.daemon_overhead_ratio_min,
            report.daemon_overhead_ratio_max
        ));
    }
    if report.rl_vec_speedup < RL_MIN_SPEEDUP {
        failures.push(format!(
            "vectorized rollout throughput {:.2}x of serial (median of {RL_PAIRS} pairs, \
             {:.2}–{:.2}x), below the {RL_MIN_SPEEDUP:.2}x floor ({RL_VEC_ENVS} replicas)",
            report.rl_vec_speedup, report.rl_vec_speedup_min, report.rl_vec_speedup_max
        ));
    }
    failures
}

/// The raw [`CostModel`] — no engine — on a GA-shaped batch as
/// [`KERNEL_PAIRS`] back-to-back scalar/batch pairs: the best
/// single-thread scalar and batch throughputs, then the median, min and
/// max of the per-pair `batch / scalar` ratios. The batch is one
/// generation over the model's layers with mixed dataflows and a modest
/// grid of design points, so it revisits keys the way the engine's
/// production batches do (unlike the all-unique worst case the engine
/// microbench uses).
fn kernel_pairs(layers: &[maestro::Layer]) -> (f64, f64, [f64; 3]) {
    let model = CostModel::default();
    let invariants = LayerInvariants::new(layers);
    let n = BATCH_QUERIES;
    let mut lis = Vec::with_capacity(n);
    let mut dfs = Vec::with_capacity(n);
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        lis.push(i % layers.len());
        dfs.push(Dataflow::ALL[i % Dataflow::ALL.len()]);
        pts.push(DesignPoint::new(1u64 << (i % 12), 1 + (i % 24) as u64).expect("positive"));
    }
    let queries = BatchQueries {
        layers: &lis,
        dataflows: &dfs,
        points: &pts,
    };
    let mut out = vec![CostReport::default(); n];
    let mut scalar_best = 0.0f64;
    let mut batch_best = 0.0f64;
    let mut ratios = Vec::with_capacity(KERNEL_PAIRS);
    let evals = (n * KERNEL_PASSES) as f64;
    for _ in 0..KERNEL_PAIRS {
        let start = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for i in 0..n {
                out[i] = model.evaluate(&layers[lis[i]], dfs[i], pts[i]);
            }
        }
        let scalar = evals / start.elapsed().as_secs_f64().max(1e-9);
        let start = Instant::now();
        for _ in 0..KERNEL_PASSES {
            model.evaluate_batch_into(&invariants, &queries, &mut out);
        }
        let batch = evals / start.elapsed().as_secs_f64().max(1e-9);
        scalar_best = scalar_best.max(scalar);
        batch_best = batch_best.max(batch);
        ratios.push(batch / scalar);
    }
    (scalar_best, batch_best, spread(ratios))
}

/// Best-of-3 throughput (evals/sec) of the engine on `queries`.
fn best_throughput(layers: &[maestro::Layer], queries: &[EvalQuery]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let engine = EvalEngine::new(CostModel::default(), layers.to_vec());
        let start = Instant::now();
        let reports = engine.evaluate_batch(queries);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(reports.len(), queries.len());
        best = best.max(queries.len() as f64 / secs);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline that fails its own floors cannot be committed: the
    /// checked-in `ci/bench_baseline.json` must pass every gate that needs
    /// no baseline.
    #[test]
    fn checked_in_baseline_passes_the_machine_local_floors() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/bench_baseline.json");
        let text = std::fs::read_to_string(path).expect("read ci/bench_baseline.json");
        let baseline: BenchCi = serde_json::from_str(&text).expect("parse the baseline");
        let failures = machine_local_failures(&baseline);
        assert!(
            failures.is_empty(),
            "baseline fails its floors: {failures:#?}"
        );
    }
}

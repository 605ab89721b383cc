//! End-to-end daemon tests over real TCP sockets: per-job evaluation
//! counters for concurrent and back-to-back jobs, reconnect-with-catchup
//! after a killed client, cancel/resume with the runner a clean stop
//! parks, restart from the spec, and the fault-injection paths.

use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use confuciux::{AlgorithmKind, EvalStats, JobBudget, JobSpec, SearchOutcome};
use confuciux_server::{read_frame, write_frame, Event, FaultPlan, Request, Server, ServerConfig};

fn start_server(config: ServerConfig) -> (thread::JoinHandle<()>, SocketAddr) {
    let server = Arc::new(Server::new(config));
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        server
            .serve_addr("127.0.0.1:0", |addr| addr_tx.send(addr).unwrap())
            .unwrap();
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    (handle, addr)
}

fn small_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::paper_default("tiny_cnn");
    spec.budget = JobBudget {
        global_epochs: 30,
        fine_evaluations: 150,
    };
    spec.seed = seed;
    spec
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect to test daemon")
}

fn next_event(stream: &mut TcpStream) -> Event {
    read_frame(stream)
        .expect("read event frame")
        .expect("daemon closed the stream unexpectedly")
}

/// Submits a job and returns the stream its events arrive on.
fn submit(addr: SocketAddr, spec: JobSpec) -> TcpStream {
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    match next_event(&mut stream) {
        Event::Submitted { .. } => stream,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// Follows a submitted job's stream to `Done` and returns its outcome.
fn finish(mut stream: TcpStream) -> SearchOutcome {
    loop {
        let event = next_event(&mut stream);
        if let Event::Done { outcome, .. } = event {
            return outcome;
        }
        assert!(
            !matches!(event, Event::Failed { .. } | Event::Cancelled { .. }),
            "job ended early: {event:?}"
        );
    }
}

/// Submits a job and follows its stream to `Done`.
fn submit_and_finish(addr: SocketAddr, spec: JobSpec) -> SearchOutcome {
    finish(submit(addr, spec))
}

fn shut_down(addr: SocketAddr) {
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Shutdown).unwrap();
    // Drain until the daemon confirms; it closes after ShuttingDown.
    while let Ok(Some(event)) = read_frame::<_, Event>(&mut stream) {
        if matches!(event, Event::ShuttingDown) {
            break;
        }
    }
}

fn job_seqs(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
        .collect()
}

/// `(epochs, evaluations, stats)`: how far a search has got.
type Position = (usize, usize, EvalStats);

/// The uninterrupted in-process run of `spec`: its outcome, and the
/// position reached after each of its steps.
fn library_run(spec: &JobSpec) -> (SearchOutcome, Vec<Position>) {
    let mut runner = spec.clone().into_runner().unwrap();
    let mut steps = Vec::new();
    loop {
        let more = runner.step();
        steps.push((
            runner.global_epochs_done(),
            runner.fine_evaluations_done(),
            runner.eval_stats(),
        ));
        if !more {
            return (runner.result().unwrap().outcome(), steps);
        }
    }
}

/// The position every `Progress` in `events` reports.
fn progress(events: &[Event]) -> Vec<Position> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Progress {
                epochs,
                evaluations,
                stats,
                ..
            } => Some((*epochs, *evaluations, *stats)),
            _ => None,
        })
        .collect()
}

/// The job id of the `Submitted` that must be the stream's next frame.
fn submitted_job(stream: &mut TcpStream) -> u64 {
    match next_event(stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// One connection submits `spec`, cancels the job after the first
/// `Progress` with `evaluations >= cancel_at_evaluations`, and resumes it
/// once `Cancelled` arrives. Returns the events up to `Cancelled` and the
/// events after the resume up to `Done`.
fn submit_cancel_resume(
    addr: SocketAddr,
    spec: JobSpec,
    cancel_at_evaluations: usize,
) -> (Vec<Event>, Vec<Event>) {
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = submitted_job(&mut stream);
    let mut before = Vec::new();
    // Let it make some progress, then cancel.
    loop {
        let event = next_event(&mut stream);
        let progressed = matches!(
            event,
            Event::Progress { evaluations, .. } if evaluations >= cancel_at_evaluations
        );
        before.push(event);
        if progressed {
            break;
        }
    }
    write_frame(&mut stream, &Request::Cancel { job }).unwrap();
    loop {
        let event = next_event(&mut stream);
        match &event {
            Event::Cancelled { .. } => {
                before.push(event);
                break;
            }
            Event::Progress { .. } | Event::Started { .. } | Event::Attached { .. } => {
                before.push(event)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    // Resume on the same connection, which still follows the job, and
    // follow it to Done.
    write_frame(&mut stream, &Request::Resume { job }).unwrap();
    let mut after = Vec::new();
    loop {
        let event = next_event(&mut stream);
        match &event {
            Event::Done { .. } => {
                after.push(event);
                return (before, after);
            }
            Event::Failed { error, .. } => panic!("resumed job failed: {error}"),
            Event::Error { message } => panic!("resume refused: {message}"),
            _ => after.push(event),
        }
    }
}

#[test]
fn every_job_reports_the_eval_stats_of_its_library_run() {
    let (serve, addr) = start_server(ServerConfig::default());
    let spec = small_spec(11);
    // The ground truth: the same spec run in-process.
    let library = spec.clone().into_runner().unwrap().into_result().outcome();

    // Two jobs of one model submitted back to back run concurrently on
    // the two workers; a third runs after both.
    let first = submit(addr, spec.clone());
    let second = submit(addr, spec.clone());
    let concurrent = [finish(first), finish(second)];
    let after = submit_and_finish(addr, spec);

    // Each job builds its own problem, so its counters hold only its own
    // cost queries: neither the other job's nor anything that ran before.
    for outcome in concurrent.iter().chain([&after]) {
        assert_eq!(outcome.digest(), library.digest());
        assert_eq!(outcome.eval_stats, library.eval_stats);
    }

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn killed_client_reattaches_and_catches_up() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let spec = small_spec(23);
    // The ground truth: the same spec run uninterrupted, in-process.
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    // Submit, read a couple of events, then "die" without saying goodbye.
    let job = {
        let mut doomed = connect(addr);
        write_frame(&mut doomed, &Request::Submit { spec }).unwrap();
        let job = match next_event(&mut doomed) {
            Event::Submitted { job } => job,
            other => panic!("expected Submitted, got {other:?}"),
        };
        let _ = next_event(&mut doomed);
        job
        // dropped here: socket closes mid-job
    };

    // Reconnect and catch up from the very first event.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Attach { job, from_seq: 0 }).unwrap();
    match next_event(&mut stream) {
        Event::Attached {
            job: j, from_seq, ..
        } => {
            assert_eq!(j, job);
            assert_eq!(from_seq, 0);
        }
        other => panic!("expected Attached, got {other:?}"),
    }
    let mut events = Vec::new();
    let outcome = loop {
        let event = next_event(&mut stream);
        events.push(event.clone());
        if let Event::Done { outcome, .. } = event {
            break outcome;
        }
    };

    // Catch-up replays the full history: seqs are gapless from 0, and the
    // final result is bit-identical to the uninterrupted run.
    let seqs = job_seqs(&events);
    let want: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, want, "replay + live events must be gapless");
    assert_eq!(outcome.digest(), expected);

    shut_down(addr);
    serve.join().unwrap();
}

fn cancel_spec() -> JobSpec {
    let mut spec = JobSpec::paper_default("tiny_cnn");
    spec.budget = JobBudget {
        global_epochs: 60,
        fine_evaluations: 150,
    };
    spec.seed = 37;
    spec
}

/// Checks a submit-cancel-resume run against the uninterrupted library
/// run of the same spec: the same outcome and counters, a resume that
/// continues at the step after the last one reported before the cancel
/// (neither from the spec nor from an older point, and counting no query
/// twice), cumulative progress counters that end at `Done`'s, and a
/// connection that follows the job once, so every event of the resumed
/// run arrives exactly once.
fn assert_resumed_exactly(spec: JobSpec, before: &[Event], after: &[Event]) {
    let (expected, steps) = library_run(&spec);
    let outcome = match after.last() {
        Some(Event::Done { outcome, .. }) => outcome,
        other => panic!("expected Done, got {other:?}"),
    };
    assert_eq!(
        outcome.digest(),
        expected.digest(),
        "cancel + resume must not change the result"
    );
    assert_eq!(outcome.eval_stats, expected.eval_stats);

    let (pre, post) = (progress(before), progress(after));
    let last = pre.last().expect("progress before the cancel");
    let stopped = steps
        .iter()
        .position(|s| s == last)
        .expect("pre-cancel progress is a step of the library run");
    assert_eq!(post.first(), steps.get(stopped + 1));

    let counters: Vec<EvalStats> = pre.iter().chain(&post).map(|p| p.2).collect();
    for pair in counters.windows(2) {
        assert!(
            pair[1].hits >= pair[0].hits && pair[1].misses >= pair[0].misses,
            "counters fell: {:?} -> {:?}",
            pair[0],
            pair[1]
        );
    }
    assert_eq!(post.last().unwrap().2, outcome.eval_stats);

    let horizon = job_seqs(before).last().copied().unwrap() + 1;
    let seqs = job_seqs(after);
    let want: Vec<u64> = (horizon..horizon + seqs.len() as u64).collect();
    assert_eq!(seqs, want, "resumed events must arrive exactly once");
}

#[test]
fn cancel_then_resume_finishes_bit_identically() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    // PPO2 holds an in-flight episode buffer that no saved state covers:
    // only the parked runner resumes it at the step it stopped at.
    let mut ppo2 = cancel_spec();
    ppo2.algo = AlgorithmKind::Ppo2;
    ppo2.budget = JobBudget {
        global_epochs: 10,
        fine_evaluations: 40,
    };
    for spec in [cancel_spec(), ppo2] {
        let (before, after) = submit_cancel_resume(addr, spec.clone(), 0);
        assert_resumed_exactly(spec, &before, &after);
    }

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn cancel_in_the_fine_stage_resumes_exactly() {
    let (serve, addr) = start_server(ServerConfig::default());
    // A long fine stage, cancelled mid-fine: the parked runner resumes
    // the GA at the generation it stopped at, and counts each query once.
    let mut spec = cancel_spec();
    spec.budget.fine_evaluations = 20_000;
    let (before, after) = submit_cancel_resume(addr, spec.clone(), 1);
    assert!(progress(&before).last().unwrap().1 < spec.budget.fine_evaluations);
    assert_resumed_exactly(spec, &before, &after);

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn worker_panic_fails_job_but_daemon_survives() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 2,
        faults: FaultPlan::parse("panic_worker@step=2").unwrap(),
        ..ServerConfig::default()
    });

    // First job trips the one-shot injected panic mid-search...
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        &Request::Submit {
            spec: small_spec(3),
        },
    )
    .unwrap();
    let error = loop {
        match next_event(&mut stream) {
            Event::Failed { error, .. } => break error,
            Event::Done { .. } => panic!("job should have hit the injected panic"),
            _ => {}
        }
    };
    assert!(
        error.contains("worker panicked") && error.contains("injected fault"),
        "diagnostic should name the injected panic, got: {error}"
    );

    // ...and the daemon (and its worker pool) keeps serving: the same
    // connection stays usable and a fresh job runs to completion.
    let outcome = submit_and_finish(addr, small_spec(3));
    assert!(outcome.best_cost().is_some());

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn job_failed_before_its_first_step_resumes_from_its_spec() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        faults: FaultPlan::parse("panic_worker@step=0").unwrap(),
        ..ServerConfig::default()
    });
    let spec = small_spec(5);
    let (expected, _) = library_run(&spec);

    // The injected panic fires before the job's first step, so no clean
    // stop ever parked its runner.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = submitted_job(&mut stream);
    loop {
        match next_event(&mut stream) {
            Event::Failed { .. } => break,
            Event::Started { .. } | Event::Attached { .. } => {}
            other => panic!("expected the injected panic, got {other:?}"),
        }
    }

    // Resume from a fresh connection: the job restarts from its spec and
    // reaches the uninterrupted run's outcome.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Resume { job }).unwrap();
    assert_eq!(submitted_job(&mut stream), job);
    let outcome = loop {
        match next_event(&mut stream) {
            Event::Done { outcome, .. } => break outcome,
            Event::Failed { error, .. } => panic!("resumed job failed: {error}"),
            _ => {}
        }
    };
    assert_eq!(outcome.digest(), expected.digest());
    assert_eq!(outcome.eval_stats, expected.eval_stats);

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn deadline_expiry_returns_degraded_best_so_far() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // A budget far beyond what the deadline allows.
    let mut spec = small_spec(7);
    spec.budget = JobBudget {
        global_epochs: 1_000_000,
        fine_evaluations: 1_000_000,
    };
    spec.deadline_ms = Some(300);

    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut stream) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let (reason, outcome) = loop {
        match next_event(&mut stream) {
            Event::Degraded {
                reason, outcome, ..
            } => break (reason, outcome),
            Event::Done { .. } => panic!("job should have hit its deadline first"),
            Event::Failed { error, .. } => panic!("job failed instead of degrading: {error}"),
            _ => {}
        }
    };

    // A partial answer, not an error: the outcome is a valid summary
    // carrying the degradation reason, and the job's terminal state is
    // `degraded`.
    assert!(reason.contains("deadline"), "reason: {reason}");
    assert!(outcome.is_degraded());
    assert!(
        outcome.epochs < 1_000_000,
        "a 300ms deadline cannot have afforded the full budget"
    );
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Jobs).unwrap();
    match next_event(&mut stream) {
        Event::JobList { jobs } => {
            let summary = jobs.iter().find(|j| j.job == job).expect("job listed");
            assert_eq!(summary.state, "degraded");
        }
        other => panic!("expected JobList, got {other:?}"),
    }

    // The deadline stop parked the job's runner: a resume continues from
    // the step it stopped at (one epoch per step), with a fresh deadline
    // window. Then cancel it.
    write_frame(&mut stream, &Request::Resume { job }).unwrap();
    assert_eq!(submitted_job(&mut stream), job);
    let first = loop {
        match next_event(&mut stream) {
            Event::Progress {
                epochs,
                evaluations,
                ..
            } => break (epochs, evaluations),
            Event::Started { .. } | Event::Attached { .. } => {}
            other => panic!("expected the resumed run's progress, got {other:?}"),
        }
    };
    assert_eq!(first, (outcome.epochs + 1, 0));
    write_frame(&mut stream, &Request::Cancel { job }).unwrap();
    loop {
        match next_event(&mut stream) {
            Event::Cancelled { .. } | Event::Degraded { .. } => break,
            Event::Progress { .. } => {}
            other => panic!("expected the job to stop, got {other:?}"),
        }
    }

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn over_capacity_submit_is_rejected_with_retry_hint() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        max_active: 1,
        ..ServerConfig::default()
    });

    // Occupy the single admission slot with a long-running job.
    let mut occupant = connect(addr);
    let mut spec = small_spec(13);
    spec.budget = JobBudget {
        global_epochs: 1_000_000,
        fine_evaluations: 1_000_000,
    };
    write_frame(&mut occupant, &Request::Submit { spec }).unwrap();
    let job = match next_event(&mut occupant) {
        Event::Submitted { job } => job,
        other => panic!("expected Submitted, got {other:?}"),
    };

    // The next submit bounces with a positive retry hint and no job id.
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        &Request::Submit {
            spec: small_spec(14),
        },
    )
    .unwrap();
    match next_event(&mut stream) {
        Event::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Free the slot and the same submit goes through.
    write_frame(&mut occupant, &Request::Cancel { job }).unwrap();
    while !matches!(next_event(&mut occupant), Event::Cancelled { .. }) {}
    let outcome = submit_and_finish(addr, small_spec(14));
    assert!(outcome.best_cost().is_some());

    shut_down(addr);
    serve.join().unwrap();
}

#[test]
fn dropped_connection_reattach_is_gapless_and_digest_identical() {
    let (serve, addr) = start_server(ServerConfig {
        workers: 1,
        faults: FaultPlan::parse("drop_conn@frame=3").unwrap(),
        ..ServerConfig::default()
    });
    let spec = small_spec(21);
    let expected = spec
        .clone()
        .into_runner()
        .unwrap()
        .into_result()
        .outcome()
        .digest();

    // The daemon hard-closes this connection after its third frame.
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Submit { spec }).unwrap();
    let mut job = None;
    let mut events: Vec<Event> = Vec::new();
    while let Ok(Some(event)) = read_frame::<_, Event>(&mut stream) {
        if let Event::Submitted { job: id } = &event {
            job = Some(*id);
        }
        events.push(event);
    }
    let job = job.expect("Submitted must arrive before the injected drop");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::Done { .. } | Event::Failed { .. })),
        "the drop must have cut the stream before the job finished"
    );

    // Re-attach from the first unseen seq, exactly as a resilient client
    // would, and follow to Done.
    let last_seq = events
        .iter()
        .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
        .max();
    let from_seq = last_seq.map_or(0, |s| s + 1);
    let mut stream = connect(addr);
    write_frame(&mut stream, &Request::Attach { job, from_seq }).unwrap();
    match next_event(&mut stream) {
        Event::Attached { job: j, .. } => assert_eq!(j, job),
        other => panic!("expected Attached, got {other:?}"),
    }
    let outcome = loop {
        let event = next_event(&mut stream);
        events.push(event.clone());
        if let Event::Done { outcome, .. } = event {
            break outcome;
        }
    };

    // Stitched-together log: gapless, duplicate-free seqs from 0, and the
    // interrupted stream did not perturb the search itself.
    let seqs = job_seqs(&events);
    let want: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, want, "pre-drop + re-attached events must be gapless");
    assert_eq!(outcome.digest(), expected);

    shut_down(addr);
    serve.join().unwrap();
}

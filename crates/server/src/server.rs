//! The daemon: a worker pool draining a job queue, plus connection
//! handlers speaking the frame protocol over TCP or stdin/stdout.
//!
//! Jobs outlive connections. A submit auto-subscribes the submitting
//! connection, but the job keeps running (and buffering events) if that
//! connection dies; any later connection can `Attach` and catch up.
//! Shutdown — by request or SIGTERM — cancels running jobs at their next
//! step boundary and drains the pool. Each job builds its own problem, so
//! its progress counters and outcome count only its own cost queries.
//!
//! A running job is never snapshotted. When it stops at a step boundary
//! (cancel, shutdown, deadline) its live runner is parked in the registry,
//! and `Resume` hands it back to a worker, which steps on from that point.
//! A job without a parked runner (a worker panic takes its runner with it)
//! restarts from its spec. The spec and seed fix the search, so either
//! way the job ends with the uninterrupted run's digest.
//!
//! Hardening (see [`crate::faults`] for the chaos harness that tests it):
//!
//! * Worker panics are caught per job: the job emits `Failed{diagnostic}`
//!   and the worker moves on; every registry/server lock uses the
//!   poison-recovering idiom (`registry::lock_recovering`).
//! * Per-job deadlines: a job whose `deadline_ms` expires is stopped at
//!   its next step boundary and reports its best-so-far outcome marked
//!   degraded — a partial answer, not an error. Cancelled and shutdown
//!   jobs report no outcome; they stop the same way, ready to resume.
//! * Admission control: submits beyond [`ServerConfig::max_active`]
//!   queued+running jobs get `Rejected{retry_after_ms}` instead of an
//!   unbounded queue.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use confuciux::{JobSpec, SearchError, TwoStageRunner};

use crate::faults::{FaultInjector, FaultPlan};
use crate::protocol::{poll_frame, write_frame, Event, FrameError, Polled, Request};
use crate::registry::{lock_recovering, JobStatus, Registry};

/// How long blocking polls (frame reads, queue receives) wait before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps when no connection is pending. A client
/// that connects during the sleep waits it out before its first frame is
/// read, so it is kept to a few milliseconds.
const ACCEPT_IDLE: Duration = Duration::from_millis(2);

/// Write timeout on daemon TCP streams: a peer that stops draining its
/// socket stalls only its own writer thread, and only this long, instead
/// of wedging it forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running jobs concurrently.
    pub workers: usize,
    /// Admission bound: submits while this many jobs are already queued
    /// or running get `Rejected{retry_after_ms}` instead of growing the
    /// queue without limit.
    pub max_active: usize,
    /// Deterministic fault schedule (no-op by default); see
    /// [`crate::faults`].
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_active: 64,
            faults: FaultPlan::default(),
        }
    }
}

/// What became of a submit under admission control.
enum Submission {
    Accepted(u64),
    Rejected { retry_after_ms: u64 },
}

struct Inner {
    registry: Registry,
    config: ServerConfig,
    queue: Mutex<mpsc::Sender<u64>>,
    shutdown: Arc<AtomicBool>,
    faults: Arc<FaultInjector>,
}

impl Inner {
    /// Validates a job and, if the active-job bound admits it, enqueues
    /// it. Over-limit submits are rejected with a retry hint scaled to
    /// the backlog per worker — no job is created.
    fn submit(&self, spec: JobSpec) -> Result<Submission, SearchError> {
        spec.validate()?;
        let active = self.registry.active_jobs();
        if active >= self.config.max_active {
            let workers = self.config.workers.max(1) as u64;
            let backlog = active as u64 + 1;
            let retry_after_ms = (250 * (backlog + workers - 1) / workers).clamp(100, 10_000);
            return Ok(Submission::Rejected { retry_after_ms });
        }
        let id = self.registry.insert(spec);
        lock_recovering(&self.queue)
            .send(id)
            .map_err(|_| SearchError::Unsupported("daemon is shutting down".to_string()))?;
        Ok(Submission::Accepted(id))
    }

    /// Re-enqueues a cancelled/failed/degraded job. It continues with the
    /// runner its last clean stop parked, or restarts from its spec if it
    /// has none. Resumes bypass admission control: the job was already
    /// admitted once and still holds its slot in the registry.
    fn resume(&self, id: u64) -> Result<(), String> {
        let accepted = self.registry.with_job(id, |state| {
            let resumable = matches!(
                state.status,
                JobStatus::Cancelled | JobStatus::Failed | JobStatus::Degraded
            );
            if resumable {
                state.status = JobStatus::Queued;
            }
            resumable
        });
        match accepted {
            None => Err(format!("unknown job {id}")),
            Some(false) => Err(format!(
                "job {id} is not resumable (must be cancelled/failed/degraded)"
            )),
            Some(true) => {
                if let Some(flag) = self.registry.cancel_flag(id) {
                    flag.store(false, Ordering::Relaxed);
                }
                lock_recovering(&self.queue)
                    .send(id)
                    .map_err(|_| "daemon is shutting down".to_string())
            }
        }
    }
}

/// The search daemon. Construct with [`Server::new`], then drive it with
/// [`Server::serve_listener`] (TCP) or [`Server::serve_stdio`]; both
/// return once the shutdown flag is set and the workers have drained.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    pub fn new(config: ServerConfig) -> Self {
        let (tx, rx) = mpsc::channel::<u64>();
        let faults = Arc::new(FaultInjector::new(config.faults.clone()));
        if !faults.plan().is_noop() {
            eprintln!("confuciux-server: fault plan armed: {}", faults.plan());
        }
        let inner = Arc::new(Inner {
            registry: Registry::new(),
            config,
            queue: Mutex::new(tx),
            shutdown: Arc::new(AtomicBool::new(false)),
            faults,
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                let rx = rx.clone();
                thread::spawn(move || worker_loop(&inner, &rx))
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The flag that stops the daemon; share it with a signal handler to
    /// make SIGTERM a graceful shutdown.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.inner.shutdown.clone()
    }

    /// Accepts connections until shutdown, then drains workers. Use
    /// `listener.local_addr()` before calling if you bound port 0.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.inner.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let inner = self.inner.clone();
                    conns.push(thread::spawn(move || handle_tcp_conn(inner, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_IDLE);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        self.finish();
        Ok(())
    }

    /// Binds `addr` and serves it; returns the actual bound address
    /// (useful with port 0) through the callback before blocking.
    pub fn serve_addr(&self, addr: &str, on_bound: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        on_bound(listener.local_addr()?);
        self.serve_listener(listener)
    }

    /// Serves one session over stdin/stdout (the process-child transport),
    /// then shuts the daemon down when the session ends.
    pub fn serve_stdio(&self) {
        serve_connection(&self.inner, std::io::stdin(), std::io::stdout(), None);
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.finish();
    }

    /// Sets the shutdown flag and joins the workers.
    fn finish(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for worker in lock_recovering(&self.workers).drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<mpsc::Receiver<u64>>>) {
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let next = lock_recovering(rx).recv_timeout(POLL_INTERVAL);
        match next {
            Ok(id) => run_job(inner, id),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn fail_job(inner: &Inner, id: u64, error: String) {
    inner
        .registry
        .with_job(id, |state| state.status = JobStatus::Failed);
    inner.registry.publish(id, |seq| Event::Failed {
        job: id,
        seq,
        error,
    });
}

/// Stops a job cleanly at a step boundary: parks its runner and sets its
/// status under one job lock, so a `Resume` that sees the new status also
/// finds the runner.
fn park(inner: &Inner, id: u64, runner: TwoStageRunner, status: JobStatus) {
    inner.registry.with_job(id, |state| {
        state.status = status;
        state.runner = Some(runner);
    });
}

/// Renders a caught panic payload for a `Failed{diagnostic}` event.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job on the calling worker thread. Panics inside the search —
/// injected or genuine — are caught here: the job fails with a
/// diagnostic, the worker survives to take the next job, and the
/// poison-recovering locks keep the registry usable for everyone else.
fn run_job(inner: &Arc<Inner>, id: u64) {
    let Some(job) = inner.registry.job(id) else {
        return;
    };
    let (spec, parked) = {
        let mut state = lock_recovering(&job);
        if state.status != JobStatus::Queued {
            return;
        }
        state.status = JobStatus::Running;
        (state.spec.clone(), state.runner.take())
    };
    inner
        .registry
        .publish(id, |seq| Event::Started { job: id, seq });
    let drove = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive_job(inner, id, &spec, parked)
    }));
    if let Err(payload) = drove {
        fail_job(
            inner,
            id,
            format!("worker panicked: {}", panic_message(payload.as_ref())),
        );
    }
}

/// Steps the job's runner (the one its last clean stop parked, or a fresh
/// one from its spec) to completion, deadline expiry, or cancellation,
/// publishing progress along the way. Every early stop parks the runner:
/// a cancel or a shutdown reports nothing more, and a deadline also
/// reports the best-so-far outcome ([`TwoStageRunner::partial_result`]).
fn drive_job(inner: &Arc<Inner>, id: u64, spec: &JobSpec, parked: Option<TwoStageRunner>) {
    let mut runner = match parked.map_or_else(|| spec.clone().into_runner(), Ok) {
        Ok(runner) => runner,
        Err(e) => return fail_job(inner, id, e.to_string()),
    };
    let cancel = inner
        .registry
        .cancel_flag(id)
        .expect("every registered job has a cancel flag");
    // The deadline window restarts on resume: it bounds how long a worker
    // is held per run, not the job's cumulative lifetime.
    let deadline = spec.deadline();
    let started = Instant::now();
    let mut step: u64 = 0;

    loop {
        if cancel.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            park(inner, id, runner, JobStatus::Cancelled);
            inner
                .registry
                .publish(id, |seq| Event::Cancelled { job: id, seq });
            return;
        }
        if deadline.is_some_and(|limit| started.elapsed() >= limit) {
            let reason = format!("deadline {}ms expired", spec.deadline_ms.unwrap_or(0));
            let outcome = runner.partial_result().outcome().into_degraded(&reason);
            park(inner, id, runner, JobStatus::Degraded);
            inner.registry.publish(id, |seq| Event::Degraded {
                job: id,
                seq,
                reason,
                outcome,
            });
            return;
        }
        inner.faults.maybe_panic_worker(step);
        let more = runner.step();
        step += 1;
        inner.registry.publish(id, |seq| Event::Progress {
            job: id,
            seq,
            epochs: runner.global_epochs_done(),
            evaluations: runner.fine_evaluations_done(),
            best_cost_bits: runner.best_cost_so_far().map(f64::to_bits),
            stats: runner.eval_stats(),
        });
        if !more {
            break;
        }
    }

    let outcome = runner
        .result()
        .expect("step() returned false, so the runner is done")
        .outcome();
    inner
        .registry
        .with_job(id, |state| state.status = JobStatus::Done);
    inner.registry.publish(id, |seq| Event::Done {
        job: id,
        seq,
        outcome,
    });
}

fn handle_tcp_conn(inner: Arc<Inner>, stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Frames are small and latency-bound (acks, progress events): send each
    // as soon as it is written instead of letting Nagle batch it behind the
    // peer's delayed ACK.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    // A peer that stops draining its socket must stall only its own
    // writer thread, and only briefly — not wedge it forever.
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    // Hard-close hook for the drop_conn fault: shutting down both
    // directions makes the drop visible to the client as a real torn
    // TCP session, not a polite EOF.
    let kill = stream.try_clone().ok().map(|s| {
        Box::new(move || {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }) as Box<dyn FnOnce() + Send>
    });
    serve_connection(&inner, stream, writer, kill);
}

/// Speaks the protocol on one connection: a writer thread drains the
/// event channel (which the registry's publishers also feed) while this
/// thread reads requests. The writer thread is also where write-side
/// faults act: `delay_write` before each frame, `drop_conn` (via `kill`)
/// after the configured frame count.
fn serve_connection<R: Read, W: Write + Send + 'static>(
    inner: &Arc<Inner>,
    mut reader: R,
    mut writer: W,
    kill: Option<Box<dyn FnOnce() + Send>>,
) {
    let (tx, rx) = mpsc::channel::<Event>();
    let conn_done = Arc::new(AtomicBool::new(false));
    let writer_done = conn_done.clone();
    let faults = inner.faults.clone();
    let writer_thread = thread::spawn(move || {
        let mut kill = kill;
        let mut frames_written: u64 = 0;
        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(event) => {
                    faults.delay_write();
                    if write_frame(&mut writer, &event).is_err() {
                        return;
                    }
                    frames_written += 1;
                    if faults.should_drop_conn(frames_written) {
                        if let Some(kill) = kill.take() {
                            kill();
                        }
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if writer_done.load(Ordering::Relaxed) {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    });

    let mut following = HashSet::new();
    loop {
        match poll_frame::<_, Request>(&mut reader) {
            Ok(Polled::Frame(request)) => {
                if handle_request(inner, &tx, &mut following, request) {
                    break;
                }
            }
            Ok(Polled::Closed) => break,
            Ok(Polled::Idle) => {
                if inner.shutdown.load(Ordering::Relaxed) {
                    let _ = tx.send(Event::ShuttingDown);
                    break;
                }
            }
            // Framing survived; report and keep the connection.
            Err(FrameError::Malformed(message)) => {
                let _ = tx.send(Event::Error { message });
            }
            // Stream out of sync or broken; nothing more to salvage.
            Err(_) => break,
        }
    }
    // Give the writer a moment to drain queued events, then stop it. The
    // registry still holds subscriber clones of `tx`; those get pruned on
    // their next failed send.
    drop(tx);
    conn_done.store(true, Ordering::Relaxed);
    let _ = writer_thread.join();
}

/// Replays `job`'s events from `from_seq` onto the connection and
/// subscribes it to the live ones, unless it already follows the job: a
/// connection follows a job at most once, or every later event would
/// reach it twice. `following` holds the jobs this connection follows.
/// Returns `false` for an unknown job.
fn follow(
    inner: &Inner,
    tx: &mpsc::Sender<Event>,
    following: &mut HashSet<u64>,
    job: u64,
    from_seq: u64,
) -> bool {
    let subscribe = !following.contains(&job);
    let attached = inner
        .registry
        .attach(job, from_seq, tx.clone(), subscribe)
        .is_some();
    if attached {
        following.insert(job);
    }
    attached
}

/// Executes one request; returns `true` when the connection should close.
fn handle_request(
    inner: &Arc<Inner>,
    tx: &mpsc::Sender<Event>,
    following: &mut HashSet<u64>,
    request: Request,
) -> bool {
    match request {
        Request::Ping => {
            let _ = tx.send(Event::Pong);
        }
        Request::Submit { spec } => match inner.submit(spec) {
            Ok(Submission::Accepted(job)) => {
                let _ = tx.send(Event::Submitted { job });
                // The worker may start publishing between submit() and
                // here; a bare subscribe() would drop those events. Attach
                // from seq 0 instead — it replays the gap atomically.
                follow(inner, tx, following, job, 0);
            }
            Ok(Submission::Rejected { retry_after_ms }) => {
                let _ = tx.send(Event::Rejected { retry_after_ms });
            }
            Err(e) => {
                let _ = tx.send(Event::Error {
                    message: e.to_string(),
                });
            }
        },
        Request::Attach { job, from_seq } => {
            if !follow(inner, tx, following, job, from_seq) {
                let _ = tx.send(Event::Error {
                    message: format!("unknown job {job}"),
                });
            }
        }
        Request::Cancel { job } => {
            if !inner.registry.cancel(job) {
                let _ = tx.send(Event::Error {
                    message: format!("unknown job {job}"),
                });
            }
        }
        Request::Resume { job } => {
            // Snapshot the seq horizon before re-enqueueing, so the attach
            // below replays exactly the resumed run's events (racing the
            // worker like Submit does) and none of the previous run's.
            let from_seq = inner
                .registry
                .with_job(job, |state| state.events_emitted())
                .unwrap_or(0);
            match inner.resume(job) {
                Ok(()) => {
                    let _ = tx.send(Event::Submitted { job });
                    // A connection that already follows the job has every
                    // event so far and gets the resumed run's live.
                    if !following.contains(&job) {
                        follow(inner, tx, following, job, from_seq);
                    }
                }
                Err(message) => {
                    let _ = tx.send(Event::Error { message });
                }
            }
        }
        Request::Jobs => {
            let _ = tx.send(Event::JobList {
                jobs: inner.registry.summaries(),
            });
        }
        Request::Stats => {
            let (jobs_total, jobs_running) = inner.registry.stats();
            let _ = tx.send(Event::ServerStats {
                jobs_total,
                jobs_running,
            });
        }
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::Relaxed);
            let _ = tx.send(Event::ShuttingDown);
            return true;
        }
    }
    false
}

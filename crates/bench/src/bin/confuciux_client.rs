//! `confuciux-client` — command-line driver for a running
//! `confuciux-server` daemon.
//!
//! Speaks the length-prefixed JSON protocol over TCP. One invocation
//! performs one action:
//!
//! * `--submit MODEL` — submit a job and stream its events until `Done`
//!   (default action when `--submit` is given; `--no-follow` returns
//!   right after the `Submitted` acknowledgement).
//! * `--attach JOB [--from-seq N]` — reconnect to a job and catch up on
//!   its buffered events from sequence `N` (default 0), then stream live.
//! * `--cancel JOB` / `--resume JOB` — stop or continue a job.
//! * `--jobs` / `--stats` / `--ping` / `--shutdown` — daemon queries.
//!
//! Job parameters (`--epochs`, `--fine-evals`, `--seed`, `--n-envs`,
//! `--deadline-ms`) override the paper-default [`JobSpec`]. On `Done`
//! (or `Degraded`) the client prints the outcome summary plus its
//! determinism digest, so two runs of the same spec can be diffed with
//! `grep digest`.
//!
//! ## Resilience
//!
//! The client survives a flaky daemon link without losing events:
//!
//! * Connects (and reconnects) with up to `--retries` attempts, spaced
//!   by seeded exponential backoff with jitter starting at
//!   `--backoff-ms` — deterministic for a given `--seed`.
//! * If the stream dies mid-follow (TCP reset, daemon-side drop,
//!   `--timeout-ms` of silence), it reconnects and re-attaches from
//!   `last_seq + 1`; the registry's replay makes the interruption
//!   invisible in the printed event log (no gap, no duplicate).
//! * A `Rejected{retry_after_ms}` admission response is honoured by
//!   sleeping `max(retry_after_ms, backoff)` and resubmitting, counting
//!   against the same retry budget.

use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

use confuciux::JobSpec;
use confuciux_server::{read_frame, write_frame, Event, Request};

struct ClientArgs {
    addr: String,
    action: Action,
    epochs: Option<usize>,
    fine_evals: Option<usize>,
    seed: Option<u64>,
    n_envs: Option<usize>,
    deadline_ms: Option<u64>,
    follow: bool,
    from_seq: u64,
    retries: u32,
    backoff_ms: u64,
    timeout_ms: u64,
}

enum Action {
    Submit(String),
    Attach(u64),
    Cancel(u64),
    Resume(u64),
    Jobs,
    Stats,
    Ping,
    Shutdown,
}

const USAGE: &str = "confuciux-client — talk to a confuciux-server daemon

USAGE:
  confuciux-client [--addr HOST:PORT] ACTION [PARAMS]

ACTIONS (exactly one):
  --submit MODEL     submit a search job and stream events until Done
  --attach JOB       re-attach to a job and catch up from --from-seq
  --cancel JOB       cancel a running or queued job
  --resume JOB       resume a cancelled/failed/degraded job (streams events)
  --jobs             list jobs
  --stats            server statistics
  --ping             liveness check
  --shutdown         ask the daemon to shut down

PARAMS:
  --addr HOST:PORT   daemon address (default 127.0.0.1:7464)
  --epochs N         stage-1 budget override for --submit
  --fine-evals N     stage-2 budget override for --submit
  --seed N           RNG seed override for --submit (also seeds backoff jitter)
  --n-envs N         vectorized-rollout replicas for --submit
  --deadline-ms N    per-run deadline for --submit; on expiry the job
                     returns its best-so-far outcome marked degraded
  --from-seq N       first event sequence to replay for --attach (default 0)
  --no-follow        with --submit: return after the Submitted ack
  --retries N        reconnect/resubmit attempts on failure (default 3)
  --backoff-ms N     base retry backoff, doubled per attempt + jitter
                     (default 200)
  --timeout-ms N     read-silence budget before declaring the stream dead
                     and re-attaching; 0 disables (default 0)
";

fn parse_args() -> ClientArgs {
    let mut out = ClientArgs {
        addr: "127.0.0.1:7464".to_string(),
        action: Action::Ping,
        epochs: None,
        fine_evals: None,
        seed: None,
        n_envs: None,
        deadline_ms: None,
        follow: true,
        from_seq: 0,
        retries: 3,
        backoff_ms: 200,
        timeout_ms: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut action = None;
    let mut i = 0;
    let take = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| {
                eprintln!("{USAGE}");
                exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => out.addr = take(&mut i),
            "--submit" => action = Some(Action::Submit(take(&mut i))),
            "--attach" => {
                action = Some(Action::Attach(
                    take(&mut i).parse().expect("--attach takes a job id"),
                ))
            }
            "--cancel" => {
                action = Some(Action::Cancel(
                    take(&mut i).parse().expect("--cancel takes a job id"),
                ))
            }
            "--resume" => {
                action = Some(Action::Resume(
                    take(&mut i).parse().expect("--resume takes a job id"),
                ))
            }
            "--jobs" => action = Some(Action::Jobs),
            "--stats" => action = Some(Action::Stats),
            "--ping" => action = Some(Action::Ping),
            "--shutdown" => action = Some(Action::Shutdown),
            "--epochs" => out.epochs = Some(take(&mut i).parse().expect("--epochs: integer")),
            "--fine-evals" => {
                out.fine_evals = Some(take(&mut i).parse().expect("--fine-evals: integer"))
            }
            "--seed" => out.seed = Some(take(&mut i).parse().expect("--seed: integer")),
            "--n-envs" => out.n_envs = Some(take(&mut i).parse().expect("--n-envs: integer")),
            "--deadline-ms" => {
                out.deadline_ms = Some(take(&mut i).parse().expect("--deadline-ms: integer"))
            }
            "--from-seq" => out.from_seq = take(&mut i).parse().expect("--from-seq: integer"),
            "--no-follow" => out.follow = false,
            "--retries" => out.retries = take(&mut i).parse().expect("--retries: integer"),
            "--backoff-ms" => out.backoff_ms = take(&mut i).parse().expect("--backoff-ms: integer"),
            "--timeout-ms" => out.timeout_ms = take(&mut i).parse().expect("--timeout-ms: integer"),
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                exit(2);
            }
        }
        i += 1;
    }
    out.action = action.unwrap_or_else(|| {
        eprintln!("{USAGE}");
        exit(2);
    });
    out
}

/// Seeded exponential backoff with jitter: attempt `k` sleeps a
/// deterministic duration in `[base·2ᵏ/2, base·2ᵏ]`. Deterministic for a
/// given seed so chaos runs are reproducible.
struct Backoff {
    base_ms: u64,
    attempt: u32,
    state: u64,
}

impl Backoff {
    fn new(base_ms: u64, seed: u64) -> Self {
        Backoff {
            base_ms: base_ms.max(1),
            attempt: 0,
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// splitmix64 step — the same tiny deterministic mixer the server's
    /// fault injector uses, so no RNG dependency is needed here.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_delay(&mut self) -> Duration {
        let ceiling = self
            .base_ms
            .saturating_mul(1u64 << self.attempt.min(10) as u64);
        self.attempt = self.attempt.saturating_add(1);
        let floor = ceiling / 2;
        let jitter = self.next_u64() % (ceiling - floor + 1);
        Duration::from_millis(floor + jitter)
    }

    /// Back to the base delay once traffic flows again.
    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Connects to the daemon, retrying with backoff on refusal. Exits the
/// process when the retry budget is spent. Decrements `retries_left` per
/// failed attempt so connect failures and stream drops share one budget.
fn connect_with_retry(
    addr: &str,
    retries_left: &mut u32,
    backoff: &mut Backoff,
    timeout_ms: u64,
) -> TcpStream {
    loop {
        match TcpStream::connect(addr) {
            Ok(conn) => {
                // Requests are small frames; don't let Nagle hold them back.
                let _ = conn.set_nodelay(true);
                if timeout_ms > 0 {
                    let _ = conn.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
                }
                let _ = conn.set_write_timeout(Some(Duration::from_secs(5)));
                return conn;
            }
            Err(e) => {
                if *retries_left == 0 {
                    eprintln!("connect to {addr}: {e} (retries exhausted)");
                    exit(1);
                }
                *retries_left -= 1;
                let delay = backoff.next_delay();
                eprintln!(
                    "connect to {addr} failed ({e}); retrying in {}ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
        }
    }
}

/// Prints one event in a stable, grep-friendly line format. Returns
/// `true` while the stream is worth following further.
fn print_event(event: &Event) -> bool {
    match event {
        Event::Pong => println!("pong"),
        Event::Submitted { job } => println!("submitted job={job}"),
        Event::Started { job, seq } => println!("started job={job} seq={seq}"),
        Event::Progress {
            job,
            seq,
            epochs,
            evaluations,
            best_cost_bits,
            stats,
        } => {
            let best = best_cost_bits.map(f64::from_bits);
            println!(
                "progress job={job} seq={seq} epochs={epochs} evals={evaluations} \
                 best={} hit_rate={:.3}",
                best.map_or("-".to_string(), |c| format!("{c:.6e}")),
                stats.hit_rate()
            );
        }
        Event::Done { job, seq, outcome } => {
            println!(
                "done job={job} seq={seq} algorithm='{}' best={} epochs={} evals={} \
                 hit_rate={:.3} wall_ms={:.1} digest={:#018x}",
                outcome.algorithm,
                outcome
                    .best_cost()
                    .map_or("-".to_string(), |c| format!("{c:.6e}")),
                outcome.epochs,
                outcome.evaluations,
                outcome.hit_rate(),
                outcome.wall_time().as_secs_f64() * 1e3,
                outcome.digest(),
            );
            return false;
        }
        Event::Degraded {
            job,
            seq,
            reason,
            outcome,
        } => {
            println!(
                "degraded job={job} seq={seq} reason='{reason}' best={} epochs={} evals={} \
                 wall_ms={:.1} digest={:#018x}",
                outcome
                    .best_cost()
                    .map_or("-".to_string(), |c| format!("{c:.6e}")),
                outcome.epochs,
                outcome.evaluations,
                outcome.wall_time().as_secs_f64() * 1e3,
                outcome.digest(),
            );
            return false;
        }
        Event::Failed { job, seq, error } => {
            println!("failed job={job} seq={seq} error={error}");
            return false;
        }
        Event::Rejected { retry_after_ms } => {
            // Handled by the resubmit loop in main; printed here for the
            // event log.
            println!("rejected retry_after_ms={retry_after_ms}");
        }
        Event::Cancelled { job, seq } => {
            println!("cancelled job={job} seq={seq}");
            return false;
        }
        Event::Attached {
            job,
            from_seq,
            replayed,
        } => println!("attached job={job} from_seq={from_seq} replayed={replayed}"),
        Event::JobList { jobs } => {
            println!("jobs={}", jobs.len());
            for j in jobs {
                println!(
                    "  job={} model={} state={} events={}",
                    j.job, j.model, j.state, j.events
                );
            }
        }
        Event::ServerStats {
            jobs_total,
            jobs_running,
        } => println!("stats jobs_total={jobs_total} jobs_running={jobs_running}"),
        Event::Error { message } => {
            eprintln!("server error: {message}");
            exit(1);
        }
        Event::ShuttingDown => println!("shutting-down"),
    }
    true
}

fn main() {
    let args = parse_args();
    let mut backoff = Backoff::new(args.backoff_ms, args.seed.unwrap_or(0xC0FF_EE00));
    let mut retries_left = args.retries;
    let mut conn = connect_with_retry(&args.addr, &mut retries_left, &mut backoff, args.timeout_ms);

    let (request, follow) = match &args.action {
        Action::Submit(model) => {
            let mut spec = JobSpec::paper_default(model);
            if let Some(e) = args.epochs {
                spec.budget.global_epochs = e;
            }
            if let Some(f) = args.fine_evals {
                spec.budget.fine_evaluations = f;
            }
            if let Some(s) = args.seed {
                spec.seed = s;
            }
            if let Some(n) = args.n_envs {
                spec.n_envs = n;
            }
            if let Some(d) = args.deadline_ms {
                spec.deadline_ms = Some(d);
            }
            (Request::Submit { spec }, args.follow)
        }
        Action::Attach(job) => (
            Request::Attach {
                job: *job,
                from_seq: args.from_seq,
            },
            true,
        ),
        Action::Cancel(job) => (Request::Cancel { job: *job }, args.follow),
        Action::Resume(job) => (Request::Resume { job: *job }, args.follow),
        Action::Jobs => (Request::Jobs, false),
        Action::Stats => (Request::Stats, false),
        Action::Ping => (Request::Ping, false),
        Action::Shutdown => (Request::Shutdown, false),
    };

    write_frame(&mut conn, &request).expect("send request");
    // A cancel has no ack of its own; attach to the job so the terminal
    // `Cancelled` (or `Done`, if the job beat the flag) event confirms it.
    if let (Action::Cancel(job), true) = (&args.action, follow) {
        write_frame(
            &mut conn,
            &Request::Attach {
                job: *job,
                from_seq: args.from_seq,
            },
        )
        .expect("send attach");
    }
    if !follow && matches!(args.action, Action::Cancel(_)) {
        // Fire-and-forget cancel: nothing to read back.
        return;
    }

    // The job we're following (known up front for attach/cancel/resume,
    // learned from `Submitted` for submits) and the last job-scoped seq
    // we printed — the re-attach point after a dropped stream.
    let mut job: Option<u64> = match &args.action {
        Action::Attach(id) | Action::Cancel(id) | Action::Resume(id) => Some(*id),
        _ => None,
    };
    let mut last_seq: Option<u64> = args.from_seq.checked_sub(1);

    loop {
        match read_frame::<_, Event>(&mut conn) {
            Ok(Some(Event::Rejected { retry_after_ms })) => {
                print_event(&Event::Rejected { retry_after_ms });
                if retries_left == 0 {
                    eprintln!("submit rejected and retries exhausted");
                    exit(3);
                }
                retries_left -= 1;
                let delay = backoff
                    .next_delay()
                    .max(Duration::from_millis(retry_after_ms));
                eprintln!("resubmitting in {}ms", delay.as_millis());
                std::thread::sleep(delay);
                write_frame(&mut conn, &request).expect("resend request");
            }
            Ok(Some(event)) => {
                if let Some((_, seq)) = event.job_seq() {
                    // A replayed duplicate after re-attach; drop it so the
                    // printed log stays gapless *and* duplicate-free.
                    if last_seq.is_some_and(|ls| seq <= ls) {
                        continue;
                    }
                    last_seq = Some(seq);
                    backoff.reset();
                }
                if let Event::Submitted { job: id } = &event {
                    job = Some(*id);
                }
                if !print_event(&event) || !follow {
                    return;
                }
            }
            // EOF or read error (including `--timeout-ms` of silence): if
            // we're mid-follow on a known job, reconnect and re-attach
            // from the next unseen seq; the server replays the gap.
            outcome @ (Ok(None) | Err(_)) => {
                let (Some(id), true) = (job, follow) else {
                    match outcome {
                        Ok(None) => return,
                        Err(e) => {
                            eprintln!("protocol error: {e}");
                            exit(1);
                        }
                        Ok(Some(_)) => unreachable!(),
                    }
                };
                if retries_left == 0 {
                    eprintln!("stream lost and retries exhausted");
                    exit(1);
                }
                retries_left -= 1;
                let from_seq = last_seq.map_or(0, |s| s + 1);
                let delay = backoff.next_delay();
                eprintln!(
                    "stream lost; re-attaching job {id} from seq {from_seq} in {}ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
                conn = connect_with_retry(
                    &args.addr,
                    &mut retries_left,
                    &mut backoff,
                    args.timeout_ms,
                );
                write_frame(&mut conn, &Request::Attach { job: id, from_seq })
                    .expect("send re-attach");
            }
        }
    }
}

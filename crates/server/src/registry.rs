//! In-memory state of the daemon: jobs and their event rings.
//!
//! Jobs are detached from connections: a client may submit, disconnect,
//! and later [`Registry::attach`] from a fresh connection to replay the
//! buffered events and keep streaming. Replay and subscription happen
//! under the same job lock that publishers hold, so an attaching client
//! never sees events out of order or duplicated.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use confuciux::{JobSpec, TwoStageRunner};

use crate::protocol::{Event, JobSummary};

/// Locks a mutex, recovering from poisoning. Poisoning only records that
/// *some* thread panicked while holding the guard; the daemon's locked
/// state (job registries, event rings, the job queue) is written
/// atomically under the lock, so the data is still valid, and propagating
/// the poison would punish every surviving thread for a bug that already
/// unwound.
pub(crate) fn lock_recovering<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Buffered events kept per job for reconnect catch-up. Oldest events are
/// dropped first once the ring is full; `Attach` from a sequence that was
/// evicted simply replays what remains.
pub const EVENT_RING_CAP: usize = 4096;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    /// Stopped early (deadline expired) with a usable best-so-far
    /// outcome — a terminal success state, not a failure.
    Degraded,
    Failed,
    Cancelled,
}

impl JobStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// True for jobs that still hold (or will hold) a worker: queued or
    /// running. What admission control counts against its bound.
    pub fn is_active(&self) -> bool {
        matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Everything the daemon remembers about one job.
pub struct JobState {
    pub spec: JobSpec,
    pub status: JobStatus,
    /// Ring of the most recent events, each carrying its own `seq`.
    ring: VecDeque<Event>,
    /// Sequence number the next event will get.
    next_seq: u64,
    /// Live event streams; pruned when a send fails (client gone).
    subscribers: Vec<mpsc::Sender<Event>>,
    /// The live runner of a job that stopped cleanly at a step boundary
    /// (cancel, shutdown, deadline), parked here until a resume takes it
    /// back. A job without one (never stopped cleanly, or failed since)
    /// restarts from its spec.
    pub runner: Option<TwoStageRunner>,
}

impl JobState {
    fn new(spec: JobSpec) -> Self {
        JobState {
            spec,
            status: JobStatus::Queued,
            ring: VecDeque::new(),
            next_seq: 0,
            subscribers: Vec::new(),
            runner: None,
        }
    }

    pub fn events_emitted(&self) -> u64 {
        self.next_seq
    }
}

/// Shared registry of jobs.
#[derive(Default)]
pub struct Registry {
    jobs: Mutex<HashMap<u64, Arc<Mutex<JobState>>>>,
    next_job: AtomicU64,
    /// One cancel flag per job, reachable without the job lock so a
    /// `Cancel` request never waits behind a stepping worker.
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a new job and returns its id.
    pub fn insert(&self, spec: JobSpec) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(Mutex::new(JobState::new(spec)));
        lock_recovering(&self.jobs).insert(id, state);
        lock_recovering(&self.cancels).insert(id, Arc::new(AtomicBool::new(false)));
        id
    }

    pub fn job(&self, id: u64) -> Option<Arc<Mutex<JobState>>> {
        lock_recovering(&self.jobs).get(&id).cloned()
    }

    pub fn cancel_flag(&self, id: u64) -> Option<Arc<AtomicBool>> {
        lock_recovering(&self.cancels).get(&id).cloned()
    }

    /// Requests cancellation; `false` for unknown jobs.
    pub fn cancel(&self, id: u64) -> bool {
        match self.cancel_flag(id) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Stamps the next sequence number onto `make`'s event, buffers it,
    /// and fans it out to live subscribers — all under the job lock.
    pub fn publish(&self, id: u64, make: impl FnOnce(u64) -> Event) {
        let Some(job) = self.job(id) else { return };
        let mut state = lock_recovering(&job);
        let seq = state.next_seq;
        state.next_seq += 1;
        let event = make(seq);
        if state.ring.len() == EVENT_RING_CAP {
            state.ring.pop_front();
        }
        let terminal = matches!(
            event,
            Event::Done { .. }
                | Event::Degraded { .. }
                | Event::Failed { .. }
                | Event::Cancelled { .. }
        );
        state.ring.push_back(event.clone());
        if terminal {
            // The registry keeps a stopped job's ring for replay, so give
            // back the growth slack; a resumed job regrows it.
            state.ring.shrink_to_fit();
        }
        state
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Reconnect catch-up: sends an [`Event::Attached`] header, replays
    /// every buffered event with `seq >= from_seq` into `tx`, and, if
    /// `subscribe`, subscribes it for live events — all atomically with
    /// respect to [`Registry::publish`], so the client sees no gap and no
    /// duplicate between replayed and live events. A stream that already
    /// follows the job passes `subscribe = false`. Returns the number of
    /// events replayed, or `None` for an unknown job.
    pub fn attach(
        &self,
        id: u64,
        from_seq: u64,
        tx: mpsc::Sender<Event>,
        subscribe: bool,
    ) -> Option<u64> {
        let job = self.job(id)?;
        let mut state = lock_recovering(&job);
        let replay: Vec<Event> = state
            .ring
            .iter()
            .filter(|e| e.job_seq().is_some_and(|(_, seq)| seq >= from_seq))
            .cloned()
            .collect();
        let replayed = replay.len() as u64;
        let _ = tx.send(Event::Attached {
            job: id,
            from_seq,
            replayed,
        });
        for event in replay {
            if tx.send(event).is_err() {
                break;
            }
        }
        if subscribe {
            state.subscribers.push(tx);
        }
        Some(replayed)
    }

    /// Runs `f` on the locked state of a job.
    pub fn with_job<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut MutexGuard<'_, JobState>) -> T,
    ) -> Option<T> {
        let job = self.job(id)?;
        let mut state = lock_recovering(&job);
        Some(f(&mut state))
    }

    /// One [`JobSummary`] per job, ordered by id.
    pub fn summaries(&self) -> Vec<JobSummary> {
        let jobs = lock_recovering(&self.jobs);
        let mut out: Vec<(u64, JobSummary)> = jobs
            .iter()
            .map(|(id, job)| {
                let state = lock_recovering(job);
                (
                    *id,
                    JobSummary {
                        job: *id,
                        model: state.spec.model.clone(),
                        state: state.status.as_str().to_string(),
                        events: state.events_emitted(),
                    },
                )
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Jobs currently queued or running — the admission-control load.
    pub fn active_jobs(&self) -> usize {
        lock_recovering(&self.jobs)
            .values()
            .filter(|j| lock_recovering(j).status.is_active())
            .count()
    }

    /// `(total jobs, running jobs)`.
    pub fn stats(&self) -> (u64, u64) {
        let jobs = lock_recovering(&self.jobs);
        let total = jobs.len() as u64;
        let running = jobs
            .values()
            .filter(|j| lock_recovering(j).status == JobStatus::Running)
            .count() as u64;
        (total, running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::paper_default("tiny_cnn")
    }

    #[test]
    fn publish_assigns_monotonic_seqs() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..3 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let seqs: Vec<u64> = reg
            .with_job(id, |s| {
                s.ring
                    .iter()
                    .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
                    .collect()
            })
            .unwrap();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn attach_replays_from_seq_then_streams_live() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..5 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let (tx, rx) = mpsc::channel();
        let replayed = reg.attach(id, 3, tx, true).unwrap();
        assert_eq!(replayed, 2);
        reg.publish(id, |seq| Event::Cancelled { job: id, seq });
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(
            events[0],
            Event::Attached {
                job: id,
                from_seq: 3,
                replayed: 2
            }
        );
        let got: Vec<u64> = events
            .iter()
            .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
            .collect();
        assert_eq!(got, vec![3, 4, 5]);
    }

    #[test]
    fn attach_without_subscribing_only_replays() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..2 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let (tx, rx) = mpsc::channel();
        assert_eq!(reg.attach(id, 1, tx, false), Some(1));
        reg.publish(id, |seq| Event::Cancelled { job: id, seq });
        let got: Vec<u64> = rx
            .try_iter()
            .filter_map(|e| e.job_seq().map(|(_, seq)| seq))
            .collect();
        assert_eq!(
            got,
            vec![1],
            "a stream that already follows gets no second live copy"
        );
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..(EVENT_RING_CAP + 10) {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let (front, len) = reg
            .with_job(id, |s| {
                (
                    s.ring.front().and_then(|e| e.job_seq()).map(|(_, q)| q),
                    s.ring.len(),
                )
            })
            .unwrap();
        assert_eq!(len, EVENT_RING_CAP);
        assert_eq!(front, Some(10));
    }

    #[test]
    fn terminal_event_releases_spare_ring_capacity() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        for _ in 0..300 {
            reg.publish(id, |seq| Event::Started { job: id, seq });
        }
        let spare = reg.with_job(id, |s| s.ring.capacity() > s.ring.len());
        assert_eq!(spare, Some(true), "a growing ring keeps slack");
        reg.publish(id, |seq| Event::Failed {
            job: id,
            seq,
            error: "stop".into(),
        });
        let (len, capacity, last) = reg
            .with_job(id, |s| {
                let last = s.ring.back().and_then(|e| e.job_seq()).map(|(_, q)| q);
                (s.ring.len(), s.ring.capacity(), last)
            })
            .unwrap();
        assert_eq!((len, last), (301, Some(300)));
        assert_eq!(capacity, len);
    }

    #[test]
    fn dead_subscribers_are_pruned() {
        let reg = Registry::new();
        let id = reg.insert(spec());
        let (tx, rx) = mpsc::channel();
        assert_eq!(reg.attach(id, 0, tx, true), Some(0));
        drop(rx);
        reg.publish(id, |seq| Event::Started { job: id, seq });
        let n = reg.with_job(id, |s| s.subscribers.len()).unwrap();
        assert_eq!(n, 0);
    }
}

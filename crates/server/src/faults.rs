//! Deterministic fault injection for the daemon.
//!
//! A [`FaultPlan`] is parsed from `--faults` / the `CONFX_FAULTS` env var
//! and describes *exactly* which failures to inject and when, e.g.
//!
//! ```text
//! drop_conn@frame=7;panic_worker@step=40;delay_write=50ms
//! ```
//!
//! The plan is a no-op by default and deterministic: the same plan against
//! the same request sequence trips the same faults at the same points.
//! That turns every failure path — dropped connections, panicking workers,
//! slow peers — into a deterministic CI test instead of a production
//! surprise.
//!
//! The armed runtime state lives in a [`FaultInjector`]: point faults
//! (`drop_conn`, `panic_worker`) trip exactly once per daemon lifetime, so
//! the run after the injected failure exercises the *recovery*, not a
//! failure loop. `delay_write` applies to every frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Environment variable consulted when `--faults` is not given.
pub const FAULTS_ENV: &str = "CONFX_FAULTS";

/// A parsed fault schedule. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Drop (hard-close) the first connection that has written this many
    /// event frames, mid-stream — the client sees a torn TCP session.
    pub drop_conn_at_frame: Option<u64>,
    /// Panic the worker running the first job that reaches this step
    /// index, exercising `catch_unwind` isolation.
    pub panic_worker_at_step: Option<u64>,
    /// Sleep this long before every event-frame write, simulating a slow
    /// network or a stalled peer.
    pub delay_write: Option<Duration>,
}

impl FaultPlan {
    /// True when the plan injects nothing (the production default).
    pub fn is_noop(&self) -> bool {
        self.drop_conn_at_frame.is_none()
            && self.panic_worker_at_step.is_none()
            && self.delay_write.is_none()
    }

    /// Parses the `;`-separated fault grammar. Entries:
    ///
    /// * `drop_conn@frame=N`
    /// * `panic_worker@step=N`
    /// * `delay_write=Nms` (also accepts a bare `N`, in milliseconds)
    ///
    /// Whitespace around entries is ignored; empty entries are allowed
    /// (so a trailing `;` is fine). Unknown names or malformed values are
    /// errors — a typoed fault silently injecting nothing would defeat
    /// the point of a chaos test.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, value) = match entry.split_once('=') {
                Some((n, v)) => (n.trim(), Some(v.trim())),
                None => (entry, None),
            };
            let number = |what: &str| -> Result<u64, String> {
                value
                    .ok_or_else(|| format!("`{entry}`: {what} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("`{entry}`: {e}"))
            };
            match name {
                "drop_conn@frame" => plan.drop_conn_at_frame = Some(number("drop_conn@frame")?),
                "panic_worker@step" => {
                    plan.panic_worker_at_step = Some(number("panic_worker@step")?)
                }
                "delay_write" => {
                    let raw =
                        value.ok_or_else(|| format!("`{entry}`: delay_write needs a value"))?;
                    let ms = raw
                        .strip_suffix("ms")
                        .unwrap_or(raw)
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| format!("`{entry}`: {e}"))?;
                    plan.delay_write = Some(Duration::from_millis(ms));
                }
                other => return Err(format!("unknown fault `{other}` in `{entry}`")),
            }
        }
        Ok(plan)
    }

    /// The plan from [`FAULTS_ENV`], or the no-op default when unset.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(n) = self.drop_conn_at_frame {
            parts.push(format!("drop_conn@frame={n}"));
        }
        if let Some(n) = self.panic_worker_at_step {
            parts.push(format!("panic_worker@step={n}"));
        }
        if let Some(d) = self.delay_write {
            parts.push(format!("delay_write={}ms", d.as_millis()));
        }
        write!(f, "{}", parts.join(";"))
    }
}

/// Armed runtime state of a [`FaultPlan`]: each point fault carries a
/// consumed flag so it trips exactly once per daemon lifetime.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    drop_conn_used: AtomicBool,
    panic_used: AtomicBool,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// The schedule this injector was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Called by a connection's writer thread after writing its
    /// `frames_written`-th event frame (1-based); `true` means "hard-close
    /// this connection now". Trips once, on the first connection to reach
    /// the configured frame count.
    pub fn should_drop_conn(&self, frames_written: u64) -> bool {
        match self.plan.drop_conn_at_frame {
            Some(at) if frames_written >= at => !self.drop_conn_used.swap(true, Ordering::Relaxed),
            _ => false,
        }
    }

    /// Called by a worker before each runner step (0-based step index
    /// within the current job). Panics — deliberately — when the step
    /// matches the plan; the worker's `catch_unwind` turns it into a
    /// `Failed{diagnostic}` event. Trips once.
    pub fn maybe_panic_worker(&self, step: u64) {
        if let Some(at) = self.plan.panic_worker_at_step {
            if step >= at && !self.panic_used.swap(true, Ordering::Relaxed) {
                panic!("injected fault: panic_worker@step={at}");
            }
        }
    }

    /// Sleeps the configured write delay, if any. Applies to every frame.
    pub fn delay_write(&self) {
        if let Some(d) = self.plan.delay_write {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::parse("").unwrap().is_noop());
        assert!(FaultPlan::parse(" ; ").unwrap().is_noop());
    }

    #[test]
    fn full_grammar_parses() {
        let plan =
            FaultPlan::parse("drop_conn@frame=7;panic_worker@step=40;delay_write=50ms").unwrap();
        assert_eq!(plan.drop_conn_at_frame, Some(7));
        assert_eq!(plan.panic_worker_at_step, Some(40));
        assert_eq!(plan.delay_write, Some(Duration::from_millis(50)));
        assert!(!plan.is_noop());
    }

    #[test]
    fn display_round_trips() {
        let plan = FaultPlan::parse("drop_conn@frame=3;delay_write=5ms").unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn delay_accepts_bare_millis() {
        let plan = FaultPlan::parse("delay_write=25").unwrap();
        assert_eq!(plan.delay_write, Some(Duration::from_millis(25)));
    }

    #[test]
    fn unknown_and_malformed_entries_are_errors() {
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("drop_conn@frame=").is_err());
        assert!(FaultPlan::parse("drop_conn@frame=seven").is_err());
        assert!(FaultPlan::parse("panic_worker@step").is_err());
        assert!(FaultPlan::parse("delay_write").is_err());
    }

    #[test]
    fn point_faults_trip_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::parse("drop_conn@frame=2").unwrap());
        assert!(!inj.should_drop_conn(1));
        assert!(inj.should_drop_conn(2));
        assert!(!inj.should_drop_conn(2));
        assert!(!inj.should_drop_conn(99));
    }

    #[test]
    fn injected_panic_fires_once_at_the_step() {
        let inj = FaultInjector::new(FaultPlan::parse("panic_worker@step=1").unwrap());
        inj.maybe_panic_worker(0);
        let hit = std::panic::catch_unwind(|| inj.maybe_panic_worker(1));
        assert!(hit.is_err());
        // Consumed: later steps are safe.
        inj.maybe_panic_worker(1);
        inj.maybe_panic_worker(7);
    }

    #[test]
    fn noop_injector_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default());
        assert!(!inj.should_drop_conn(1_000));
        inj.maybe_panic_worker(1_000_000);
    }
}

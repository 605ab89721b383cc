//! # confuciux-server — search-as-a-service for the ConfuciuX suite
//!
//! A persistent daemon that accepts [`confuciux::JobSpec`] search jobs
//! over a length-prefixed JSON protocol (TCP or stdin/stdout), runs them
//! concurrently on a worker pool, and streams progress events back. Each
//! job builds its own problem, so a job's result and counters are exactly
//! those of the same spec run in-process.
//!
//! See [`protocol`] for the wire format, [`server`] for the daemon, and
//! the repository README for a transcript of a typical session.

pub mod faults;
pub mod protocol;
pub mod registry;
pub mod server;

pub use faults::{FaultInjector, FaultPlan, FAULTS_ENV};
pub use protocol::{
    poll_frame, read_frame, write_frame, Event, FrameError, JobSummary, Polled, Request,
    MAX_FRAME_LEN,
};
pub use registry::{JobStatus, Registry, EVENT_RING_CAP};
pub use server::{Server, ServerConfig};

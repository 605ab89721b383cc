//! `confuciux-server` binary: serve search jobs over TCP or stdio.
//!
//! ```text
//! confuciux-server [--listen ADDR] [--stdio] [--workers N]
//!                  [--max-active N] [--faults PLAN]
//! ```
//!
//! Defaults: `--listen 127.0.0.1:7464`, 2 workers. SIGTERM/SIGINT trigger
//! the same graceful shutdown as a `Shutdown` request: running jobs stop
//! at their next step boundary.
//!
//! `--faults` (or the `CONFX_FAULTS` environment variable) arms a
//! deterministic chaos plan for testing, e.g.
//! `drop_conn@frame=7;panic_worker@step=40`; see
//! [`confuciux_server::faults`]. The flag wins over the variable.

use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use confuciux_server::{FaultPlan, Server, ServerConfig};

const DEFAULT_ADDR: &str = "127.0.0.1:7464";

/// Set by the signal handler; bridged onto the server's shutdown flag by
/// a monitor thread (signal handlers must only do async-signal-safe
/// work, and an atomic store qualifies).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    listen: String,
    stdio: bool,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: DEFAULT_ADDR.to_string(),
        stdio: false,
        config: ServerConfig::default(),
    };
    args.config.faults = FaultPlan::from_env().map_err(|e| format!("CONFX_FAULTS: {e}"))?;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--stdio" => args.stdio = true,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-active" => {
                args.config.max_active = value("--max-active")?
                    .parse()
                    .map_err(|e| format!("--max-active: {e}"))?
            }
            "--faults" => {
                args.config.faults =
                    FaultPlan::parse(&value("--faults")?).map_err(|e| format!("--faults: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: confuciux-server [--listen ADDR] [--stdio] [--workers N] \
                     [--max-active N] [--faults PLAN]"
                );
                exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("confuciux-server: {msg}");
            exit(2);
        }
    };
    install_signal_handlers();

    let server = Arc::new(Server::new(args.config));
    let shutdown = server.shutdown_flag();
    thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::Relaxed) {
            shutdown.store(true, Ordering::Relaxed);
            return;
        }
        thread::sleep(Duration::from_millis(100));
    });

    if args.stdio {
        server.serve_stdio();
        return;
    }
    let result = server.serve_addr(&args.listen, |addr| {
        eprintln!("confuciux-server: listening on {addr}");
    });
    if let Err(e) = result {
        eprintln!("confuciux-server: {e}");
        exit(1);
    }
}

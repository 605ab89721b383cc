//! Protocol smoke for the `confuciux-client` driver binary: starts an
//! in-process daemon, then exercises the real client executable against
//! it — ping, submit-and-follow, stats — asserting on the stable line
//! format the CI server-smoke job greps.

use std::net::SocketAddr;
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use confuciux_server::{Server, ServerConfig};

fn start_server() -> (thread::JoinHandle<()>, SocketAddr) {
    let server = Arc::new(Server::new(ServerConfig::default()));
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        server
            .serve_addr("127.0.0.1:0", |addr| addr_tx.send(addr).unwrap())
            .unwrap();
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    (handle, addr)
}

fn client(addr: SocketAddr, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_confuciux_client"))
        .arg("--addr")
        .arg(addr.to_string())
        .args(args)
        .output()
        .expect("run confuciux-client");
    assert!(
        out.status.success(),
        "client {args:?} failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("client output is UTF-8")
}

#[test]
fn client_binary_speaks_the_protocol() {
    let (serve, addr) = start_server();

    assert_eq!(client(addr, &["--ping"]).trim(), "pong");

    let run = client(
        addr,
        &[
            "--submit",
            "tiny_cnn",
            "--epochs",
            "20",
            "--fine-evals",
            "100",
            "--seed",
            "5",
        ],
    );
    assert!(
        run.starts_with("submitted job="),
        "missing submit ack:\n{run}"
    );
    assert!(run.contains("\nstarted job="), "missing Started:\n{run}");
    assert!(run.contains("\nprogress job="), "missing Progress:\n{run}");
    let done = run
        .lines()
        .find(|l| l.starts_with("done job="))
        .unwrap_or_else(|| panic!("missing Done line:\n{run}"));
    assert!(done.contains("digest=0x"), "no digest in: {done}");

    // The same spec a second time finishes with the same digest — the
    // client surfaces enough to diff determinism from the shell.
    let rerun = client(
        addr,
        &[
            "--submit",
            "tiny_cnn",
            "--epochs",
            "20",
            "--fine-evals",
            "100",
            "--seed",
            "5",
        ],
    );
    let digest_of = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("done job="))
            .and_then(|l| l.split("digest=").nth(1).map(str::to_string))
            .expect("done line carries a digest")
    };
    assert_eq!(digest_of(&run), digest_of(&rerun));

    let stats = client(addr, &["--stats"]);
    assert!(
        stats.starts_with("stats jobs_total=2"),
        "unexpected stats: {stats}"
    );

    let jobs = client(addr, &["--jobs"]);
    assert!(jobs.starts_with("jobs=2"), "unexpected jobs: {jobs}");
    assert_eq!(jobs.matches("state=done").count(), 2, "jobs: {jobs}");

    let bye = client(addr, &["--shutdown"]);
    assert_eq!(bye.trim(), "shutting-down");
    serve.join().expect("daemon thread exits after shutdown");
}

#[test]
fn unknown_model_is_rejected_with_an_error_frame() {
    let (serve, addr) = start_server();
    let out = Command::new(env!("CARGO_BIN_EXE_confuciux_client"))
        .arg("--addr")
        .arg(addr.to_string())
        .args(["--submit", "not_a_model"])
        .output()
        .expect("run confuciux-client");
    assert!(!out.status.success(), "bogus model must fail the client");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("server error"), "stderr: {err}");

    client(addr, &["--shutdown"]);
    serve.join().expect("daemon thread exits after shutdown");
}

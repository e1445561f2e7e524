//! `bonsai-serve` judges its own `--workers`/`--queue-depth` at startup:
//! each BON05x finding goes to stderr as a warning before the server
//! binds.
//!
//! Each case points the server at an address this test already holds,
//! so its bind fails with `AddrInUse` (exit 1) before the runtime spawns
//! a worker: the warnings are all the run does.

use std::net::TcpListener;
use std::process::Command;

/// Runs `bonsai-serve` with `args` against a taken port; returns its
/// exit code and stderr.
fn serve_on_taken_port(args: &[&str]) -> (i32, String) {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind loopback ephemeral port");
    let addr = taken.local_addr().expect("bound address").to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_bonsai-serve"))
        .args(["--addr", &addr])
        .args(args)
        .output()
        .expect("bonsai-serve runs");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    (out.status.code().expect("not signal-killed"), stderr)
}

#[test]
fn a_queue_shallower_than_the_pool_is_warned_at_startup() {
    let (code, stderr) = serve_on_taken_port(&["--workers", "2", "--queue-depth", "1"]);
    let warning = stderr.find("bonsai-serve: BON055 [warning]");
    let bind_failure = stderr.find("bind 127.0.0.1");
    assert!(warning.is_some() && warning < bind_failure, "{stderr}");
    assert_eq!(code, 1, "{stderr}");
}

#[test]
fn default_flags_draw_no_topology_warning() {
    let (code, stderr) = serve_on_taken_port(&[]);
    assert!(!stderr.contains("BON05"), "{stderr}");
    assert!(stderr.contains("bind 127.0.0.1"), "{stderr}");
    assert_eq!(code, 1, "{stderr}");
}

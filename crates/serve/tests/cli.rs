//! `gmr-serve` command-line surface, driven through the built binary.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `gmr-serve` with `args` and return its exit code and stderr. Fails
/// the test if it is still running after `deadline` (killing it first).
fn run_expecting_exit(args: &[&str], deadline: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gmr-serve"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gmr-serve");
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll gmr-serve") {
            break status;
        }
        if t0.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("gmr-serve {args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

/// A flag the binary does not know (misspelt, or since removed, like
/// `--window-ms`) must stop `serve` and `cluster` with the usage text and
/// exit code 2 before anything binds — never be silently ignored.
#[test]
fn unknown_flags_exit_2_with_usage_before_binding() {
    let dir = std::env::temp_dir().join(format!("gmr-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let port_file = port_file.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["serve", "--no-such-flag", "1", "--port-file", port_file],
        &["serve", "--window-ms", "2", "--port-file", port_file],
        &["serve", "--port-file", port_file, "--days"],
        // `--backends 0` keeps a build that ignores unknown flags from
        // spawning backends: it exits on the count instead, without usage.
        &["cluster", "--backends", "0", "--no-such-flag", "1"],
    ];
    for args in cases {
        let (code, stderr) = run_expecting_exit(args, Duration::from_secs(10));
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: gmr-serve"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("[--dir DIR] [--restart-budget N]"),
            "{stderr}"
        );
        assert!(
            !std::path::Path::new(port_file).exists(),
            "{args:?} bound a port"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-edited artifact that lists a parameter past the 17 river priors
/// and names it without `[value]` is refused like any malformed artifact:
/// `artifact load failed` and exit 1, not a panic.
#[test]
fn artifact_with_an_unknown_bare_parameter_fails_to_load_without_panicking() {
    let dir = std::env::temp_dir().join(format!("gmr-serve-cli-art-{}", std::process::id()));
    let artifacts = dir.join("artifacts");
    std::fs::create_dir_all(&artifacts).unwrap();
    let mut a = gmr_serve::ModelArtifact::builtin_manual();
    a.params.push("CXTRA".into());
    a.equations[0] = format!("{} + CXTRA", a.equations[0]);
    a.save(artifacts.join("bad.json")).unwrap();
    let port_file = dir.join("port");
    let (code, stderr) = run_expecting_exit(
        &[
            "serve",
            "--no-builtin",
            "--artifacts",
            artifacts.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ],
        Duration::from_secs(10),
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("artifact load failed"), "{stderr}");
    assert!(stderr.contains("'CXTRA'"), "{stderr}");
    assert!(!port_file.exists(), "a refused load bound a port");
    std::fs::remove_dir_all(&dir).ok();
}

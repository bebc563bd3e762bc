//! The experiment and bench binaries refuse flags they do not know: a
//! misspelt `--quick` must exit 2 with a usage line at once, not start a
//! default-scale run that takes minutes.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(10);

/// Run `bin` with `args`, killing it at [`DEADLINE`]. Returns the exit
/// code and stderr, or `None` when the deadline passed.
fn run_briefly(bin: &str, args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            let mut err = String::new();
            child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut err)
                .expect("read stderr");
            return Some((status.code(), err));
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn experiment_binaries_exit_2_on_unknown_flags() {
    let cases = [
        (env!("CARGO_BIN_EXE_exp_table5"), "--no-such-flag"),
        (env!("CARGO_BIN_EXE_exp_table5"), "--quik"),
        (env!("CARGO_BIN_EXE_exp_fig9"), "--no-such-flag"),
        (env!("CARGO_BIN_EXE_exp_fig10"), "--no-such-flag"),
        (env!("CARGO_BIN_EXE_exp_fig11"), "--no-such-flag"),
        (env!("CARGO_BIN_EXE_exp_ablation"), "--no-such-flag"),
        // Each binary reads only its own flags.
        (env!("CARGO_BIN_EXE_exp_sensitivity"), "--full"),
        (env!("CARGO_BIN_EXE_exp_paperscale"), "--quick"),
    ];
    for (bin, flag) in cases {
        let name = Path::new(bin).file_stem().unwrap().to_string_lossy();
        let (code, err) = run_briefly(bin, &[flag]).unwrap_or_else(|| {
            panic!("{name} {flag} still running after {DEADLINE:?}; it must refuse the flag")
        });
        assert_eq!(code, Some(2), "{name} {flag} exit code; stderr:\n{err}");
        assert!(
            err.contains(&format!("usage: {name} ")),
            "{name} {flag} printed no usage line:\n{err}"
        );
    }
}

#[test]
fn bench_binaries_exit_2_on_unknown_flags_and_missing_values() {
    let cases: [(&str, &[&str]); 8] = [
        (env!("CARGO_BIN_EXE_bench_vm"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_bench_vm"), &["--quick", "--out"]),
        (env!("CARGO_BIN_EXE_bench_vm"), &["--validate"]),
        (env!("CARGO_BIN_EXE_bench_engine"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_bench_engine"), &["--quik"]),
        (env!("CARGO_BIN_EXE_bench_engine"), &["--quick", "--out"]),
        (env!("CARGO_BIN_EXE_bench_engine"), &["--validate"]),
        (
            env!("CARGO_BIN_EXE_bench_engine"),
            &["--quick", "--journal"],
        ),
    ];
    for (bin, args) in cases {
        let name = Path::new(bin).file_stem().unwrap().to_string_lossy();
        let (code, err) = run_briefly(bin, args).unwrap_or_else(|| {
            panic!("{name} {args:?} still running after {DEADLINE:?}; it must refuse the flags")
        });
        assert_eq!(code, Some(2), "{name} {args:?} exit code; stderr:\n{err}");
        assert!(
            err.contains(&format!("usage: {name} ")),
            "{name} {args:?} printed no usage line:\n{err}"
        );
    }
}

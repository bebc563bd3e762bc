//! End-to-end tests for the `gmr-trace` binary: a journal written through
//! the library round-trips through `validate`, `summary` and `chrome`, and
//! corrupt/truncated journals are rejected with a non-zero exit.

use gmr_obsv::{Event, Journal};
use std::path::PathBuf;
use std::process::Command;

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_gmr-trace")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gmr-obsv-cli-{}-{name}", std::process::id()));
    p
}

fn sample_journal_text() -> String {
    let j = Journal::new(1024);
    for generation in 0..4u64 {
        j.push(Event::Span {
            name: "gen.evaluate",
            tid: 0,
            depth: 0,
            start_us: generation * 100,
            dur_us: 90,
            arg: Some(generation),
        });
        j.push(Event::Gen {
            seed: 7,
            generation,
            best: 10.0 - generation as f64,
            mean: 12.0,
            evaluations: 16 * (generation + 1),
            steps: 512 * (generation + 1),
            elapsed_us: 95,
            d_evals: 16,
            d_fulls: 15,
            d_shorts: 1,
            d_cache_hits: generation,
            d_cache_misses: 16 - generation,
        });
    }
    j.push(Event::EliteChange {
        seed: 7,
        generation: 3,
        fitness: 7.0,
        size: 9,
        origin: "crossover",
    });
    j.to_jsonl()
}

#[test]
fn validate_accepts_good_journal_and_summary_renders() {
    let path = tmp("good.jsonl");
    std::fs::write(&path, sample_journal_text()).unwrap();

    let out = Command::new(trace_bin())
        .args(["validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `--validate` flag spelling works too.
    let out = Command::new(trace_bin())
        .args(["--validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = Command::new(trace_bin())
        .args(["summary", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gen.evaluate"), "{text}");
    assert!(text.contains("seed 7"), "{text}");
    assert!(text.contains("elite changes"), "{text}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn chrome_conversion_emits_parsable_trace_events() {
    let path = tmp("chrome-src.jsonl");
    let out_path = tmp("chrome-out.json");
    std::fs::write(&path, sample_journal_text()).unwrap();

    let out = Command::new(trace_bin())
        .args([
            "chrome",
            path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let chrome = std::fs::read_to_string(&out_path).unwrap();
    let v = gmr_obsv::json::parse(&chrome).expect("chrome output must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(gmr_obsv::json::Value::as_arr)
        .expect("traceEvents array");
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(gmr_obsv::json::Value::as_str) == Some("X")
            && e.get("name").and_then(gmr_obsv::json::Value::as_str) == Some("gen.evaluate")
    }));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&out_path).ok();
}

fn access(trace: u64, parent: u64, path: &'static str, status: u16) -> Event {
    Event::Access {
        trace,
        span: trace ^ 0x5555,
        parent,
        method: "POST".into(),
        path,
        model: "table5-manual".into(),
        table: "target".into(),
        status,
        shed: false,
        batched: false,
        queue_us: 10,
        sim_us: 100,
        dur_us: 150,
    }
}

#[test]
fn stitch_cli_merges_journals_and_fails_on_orphans() {
    let gw_path = tmp("stitch-gw.jsonl");
    let b0_path = tmp("stitch-b0.jsonl");
    let out_path = tmp("stitch-out.json");

    let gw = Journal::new(256);
    gw.push(access(0xbeef, 0, "gw:/simulate", 200));
    std::fs::write(&gw_path, gw.to_jsonl()).unwrap();

    let b0 = Journal::new(256);
    b0.push(access(0xbeef, 0x1111, "/simulate", 200));
    b0.push(Event::Span {
        name: "serve.sweep.member",
        tid: 0,
        depth: 1,
        start_us: 40,
        dur_us: 100,
        arg: Some(0xbeef),
    });
    std::fs::write(&b0_path, b0.to_jsonl()).unwrap();

    let out = Command::new(trace_bin())
        .args([
            "stitch",
            gw_path.to_str().unwrap(),
            b0_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = std::fs::read_to_string(&out_path).unwrap();
    let v = gmr_obsv::json::parse(&chrome).expect("stitched output must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(gmr_obsv::json::Value::as_arr)
        .expect("traceEvents array");
    // One flow start + finish pair connecting the gateway hop to the
    // backend, in distinct processes.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(gmr_obsv::json::Value::as_str) == Some("s")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(gmr_obsv::json::Value::as_str) == Some("f")));
    assert!(events
        .iter()
        .any(|e| e.get("pid").and_then(gmr_obsv::json::Value::as_u64) == Some(2)));

    // A gateway hop no backend recorded is an orphan: non-zero exit.
    let gw2 = Journal::new(256);
    gw2.push(access(0xdead, 0, "gw:/simulate", 200));
    std::fs::write(&gw_path, gw2.to_jsonl()).unwrap();
    let out = Command::new(trace_bin())
        .args([
            "stitch",
            gw_path.to_str().unwrap(),
            b0_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "orphaned hop must fail the stitch");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("orphaned"), "{err}");

    // Too few inputs is a usage error.
    let out = Command::new(trace_bin())
        .args(["stitch", gw_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&gw_path).ok();
    std::fs::remove_file(&b0_path).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn validate_rejects_truncated_journal() {
    let text = sample_journal_text();
    let cut = &text[..text.len() - 25]; // chop mid-way through the last line
    let path = tmp("truncated.jsonl");
    std::fs::write(&path, cut).unwrap();

    let out = Command::new(trace_bin())
        .args(["validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "truncated journal must fail validation"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("INVALID"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn validate_rejects_corrupt_journal() {
    let mut text = sample_journal_text();
    text.push_str("{\"seq\": 0, \"t_us\": 0, \"type\": \"span\"}\n"); // seq regression + missing fields
    let path = tmp("corrupt.jsonl");
    std::fs::write(&path, text).unwrap();

    let out = Command::new(trace_bin())
        .args(["validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Wrong schema tag is also fatal.
    let bad_schema = sample_journal_text().replace("gmr-journal/v1", "other/v9");
    std::fs::write(&path, bad_schema).unwrap();
    let out = Command::new(trace_bin())
        .args(["validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    for args in [&["opcodes"][..], &["opcodes", "run.jsonl"], &["bogus", "x"]] {
        let out = Command::new(trace_bin()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: gmr-trace"), "{args:?}: {err}");
    }
}

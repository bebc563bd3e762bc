//! End-to-end tests for the `gmr-lint` binary: exit-code discipline
//! (0 = warnings at most, 1 = at least one Error, 2 = unusable invocation —
//! identical across `--builtin`, `--expr` and `--artifact` file input),
//! strict JSON output, and the `--bytecode` / `--safety-out` path.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gmr_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmr-lint"))
        .args(args)
        .output()
        .expect("gmr-lint runs")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gmr-lint-cli-{}-{name}", std::process::id()));
    p
}

/// A minimal river-schema `gmr-model/v1` document around the given
/// equation texts.
fn artifact_json(equations: &[&str]) -> String {
    artifact_json_for(&gmr_bio::name_table(), equations)
}

/// [`artifact_json`] with an arbitrary name table.
fn artifact_json_for(names: &gmr_expr::NameTable, equations: &[&str]) -> String {
    let list = |items: &[String]| -> String {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let eqs = equations
        .iter()
        .map(|text| format!("{{\"label\": \"eq\", \"text\": \"{text}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"schema\": \"gmr-model/v1\", \"name\": \"cli-test\", \
         \"equations\": [{eqs}], \"vars\": [{}], \"states\": [{}], \
         \"params\": [{}], \"provenance\": {{\"source\": \"test\"}}}}",
        list(&names.vars),
        list(&names.states),
        list(&names.params)
    )
}

#[test]
fn builtin_is_clean_and_exits_zero() {
    let out = gmr_lint(&["--builtin"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s)"), "{text}");
}

#[test]
fn warnings_only_exit_zero_errors_exit_one_across_input_modes() {
    // `BPhy + Vtmp` is a unit clash: Error under strict, Warn under the
    // revision policy. The exit code must track severity, not finding
    // count, for both --expr and --artifact input.
    let strict = gmr_lint(&["--expr", "BPhy + Vtmp"]);
    assert_eq!(strict.status.code(), Some(1), "{strict:?}");

    let revision = gmr_lint(&["--expr", "BPhy + Vtmp", "--revision"]);
    assert_eq!(revision.status.code(), Some(0), "{revision:?}");
    let text = String::from_utf8_lossy(&revision.stdout);
    assert!(
        text.contains("warn[") && text.contains("0 error(s)"),
        "warnings expected on stdout:\n{text}"
    );

    let path = tmp_path("exitcodes.json");
    std::fs::write(&path, artifact_json(&["BPhy + Vtmp"])).unwrap();
    let strict_art = gmr_lint(&["--artifact", path.to_str().unwrap()]);
    assert_eq!(strict_art.status.code(), Some(1), "{strict_art:?}");
    let revision_art = gmr_lint(&["--artifact", path.to_str().unwrap(), "--revision"]);
    assert_eq!(revision_art.status.code(), Some(0), "{revision_art:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unusable_input_exits_two() {
    assert_eq!(gmr_lint(&["--nonsense"]).status.code(), Some(2));
    assert_eq!(gmr_lint(&["--expr"]).status.code(), Some(2));
    // `--tier` is not an option: both tiers compile the same bytecode.
    assert_eq!(gmr_lint(&["--tier", "warp"]).status.code(), Some(2));
    assert_eq!(
        gmr_lint(&["--artifact", "/nonexistent/x.json"])
            .status
            .code(),
        Some(2)
    );
    // A parameter past the 17 river priors, named without `[value]`: an
    // equation that does not parse, not a panic.
    let path = tmp_path("extra-param.json");
    let mut names = gmr_bio::name_table();
    names.params.push("CXTRA".into());
    let manual = gmr_bio::manual_system()[0].display(&names).to_string();
    std::fs::write(
        &path,
        artifact_json_for(&names, &[&format!("{manual} + CXTRA")]),
    )
    .unwrap();
    let out = gmr_lint(&["--artifact", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("'CXTRA'"),
        "{out:?}"
    );
    std::fs::remove_file(&path).ok();
    // Valid JSON, wrong schema: still an input error, not a finding.
    let path = tmp_path("badschema.json");
    std::fs::write(&path, "{\"schema\": \"gmr-model/v0\"}").unwrap();
    assert_eq!(
        gmr_lint(&["--artifact", path.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_output_reparses_strictly() {
    let out = gmr_lint(&["--builtin", "--json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let v = gmr_json::parse(text.trim()).expect("--json output parses strictly");
    assert_eq!(v.get("errors").and_then(|n| n.as_u64()), Some(0));
    assert!(v.get("diagnostics").and_then(|d| d.as_arr()).is_some());
}

#[test]
fn bytecode_mode_analyzes_builtin_and_writes_safety_report() {
    let safety = tmp_path("safety.json");
    let out = gmr_lint(&[
        "--builtin",
        "--bytecode",
        "--quiet",
        "--safety-out",
        safety.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&safety).expect("safety report written");
    let v = gmr_json::parse(&text).expect("safety JSON parses strictly");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("gmr-safety/v1")
    );
    assert_eq!(v.get("proved"), Some(&gmr_json::Value::Bool(true)));
    std::fs::remove_file(&safety).ok();
}

#[test]
fn bytecode_mode_verifies_artifacts_at_every_tier() {
    // Both tiers compile the same bytecode, so there is one verification
    // to run per artifact.
    let names = gmr_bio::name_table();
    let eqs = gmr_bio::manual_system();
    let texts: Vec<String> = eqs.iter().map(|e| e.display(&names).to_string()).collect();
    let path = tmp_path("manual-artifact.json");
    std::fs::write(
        &path,
        artifact_json(&texts.iter().map(String::as_str).collect::<Vec<_>>()),
    )
    .unwrap();
    let out = gmr_lint(&["--artifact", path.to_str().unwrap(), "--bytecode"]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(&path).ok();
}

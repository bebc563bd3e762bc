//! The `gmr-lint` command-line driver.
//!
//! ```text
//! gmr-lint --builtin            lint the built-in river grammar + expert eqs
//! gmr-lint --expr '<equation>'  lint one equation (canonical names)
//! gmr-lint --artifact m.json    lint an exported gmr-model/v1 artifact
//! ```
//!
//! Options: `--json` for machine-readable output, `--revision` to grade
//! dimensional findings under the evolved-model policy (default strict),
//! `--bytecode` to additionally compile each input system through the
//! register-VM pipeline and run the abstract interpreter over the compiled
//! programs (`--safety-out` writes the unsafe-access
//! [`SafetyReport`](gmr_lint::SafetyReport) as JSON), and `--quiet` to
//! suppress output and only set the exit code.
//!
//! Exit status — identical for every input mode: 0 when no `Error`-level
//! diagnostics (warnings and notes alone never fail), 1 when at least one
//! finding is an `Error`, 2 when the invocation itself is unusable (bad
//! flags, unreadable or unparseable input).

use gmr_expr::{CompiledSystem, Expr, NameTable, Tier};
use gmr_lint::{
    analyze_system, env_for_arity, lint_builtin, lint_grammar, EquationLinter, IntervalEnv, Policy,
    Report, SafetyReport,
};
use std::process::ExitCode;

const USAGE: &str = "\
gmr-lint: static analysis for GMR grammars and evolved equations

USAGE:
    gmr-lint [MODE] [OPTIONS]

MODES:
    --builtin        Lint the built-in river grammar and expert equations
                     (the default when no mode is given)
    --expr <SRC>     Lint a single equation written with the canonical
                     variable/parameter names (e.g. 'BPhy * CUA - Vtmp');
                     repeatable, equations are labelled in order
    --artifact <F>   Lint the equations of a gmr-model/v1 artifact file;
                     repeatable, each file is one system

OPTIONS:
    --bytecode       Also compile each input system through the register-VM
                     pipeline and verify the compiled bytecode (intervals,
                     prefix state-independence, dead code, unsafe bounds)
    --safety-out <F> Write the --bytecode SafetyReport ('gmr-safety/v1'
                     JSON; an array when several systems are analyzed)
    --json           Emit the report as JSON instead of human-readable text
    --revision       Grade dimensional findings under the evolved-model
                     policy (mismatches warn instead of erroring)
    --quiet          No output; communicate through the exit status only
    -h, --help       Show this help
";

struct Opts {
    builtin: bool,
    exprs: Vec<String>,
    artifacts: Vec<String>,
    bytecode: bool,
    safety_out: Option<String>,
    json: bool,
    policy: Policy,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        builtin: false,
        exprs: Vec::new(),
        artifacts: Vec::new(),
        bytecode: false,
        safety_out: None,
        json: false,
        policy: Policy::Strict,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--builtin" => opts.builtin = true,
            "--expr" => match it.next() {
                Some(src) => opts.exprs.push(src.clone()),
                None => return Err("--expr needs an argument".into()),
            },
            "--artifact" => match it.next() {
                Some(path) => opts.artifacts.push(path.clone()),
                None => return Err("--artifact needs a file argument".into()),
            },
            "--bytecode" => opts.bytecode = true,
            "--safety-out" => match it.next() {
                Some(path) => opts.safety_out = Some(path.clone()),
                None => return Err("--safety-out needs a file argument".into()),
            },
            "--json" => opts.json = true,
            "--revision" => opts.policy = Policy::Revision,
            "--strict" => opts.policy = Policy::Strict,
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !opts.builtin && opts.exprs.is_empty() && opts.artifacts.is_empty() {
        opts.builtin = true;
    }
    Ok(Some(opts))
}

/// One system of equations to lint, with the schema it indexes.
struct InputSystem {
    label: String,
    eqs: Vec<Expr>,
    n_vars: usize,
    n_states: usize,
}

/// Minimal `gmr-model/v1` reader. The full artifact type lives in
/// `gmr-serve` — which depends on this crate, so the linter parses the
/// document itself through the shared `gmr-json` parser (schema tag, the
/// equation texts, and the embedded name table; topology and provenance
/// are irrelevant to analysis).
fn load_artifact(path: &str) -> Result<InputSystem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let v = gmr_json::parse(&text).map_err(|e| format!("'{path}' is not valid JSON: {e}"))?;
    let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if schema != "gmr-model/v1" {
        return Err(format!(
            "'{path}': schema tag is {schema:?}, expected \"gmr-model/v1\""
        ));
    }
    let label = v
        .get("name")
        .and_then(|s| s.as_str())
        .unwrap_or("artifact")
        .to_string();
    let texts: Vec<&str> = v
        .get("equations")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| format!("'{path}': missing \"equations\""))?
        .iter()
        .map(|eq| {
            eq.get("text")
                .and_then(|t| t.as_str())
                .ok_or_else(|| format!("'{path}': equation without \"text\""))
        })
        .collect::<Result<_, _>>()?;
    if texts.is_empty() {
        return Err(format!("'{path}': no equations"));
    }
    let str_list = |key: &str| -> Result<Vec<String>, String> {
        v.get(key)
            .and_then(|l| l.as_arr())
            .ok_or_else(|| format!("'{path}': missing {key:?}"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("'{path}': non-string in {key:?}"))
            })
            .collect()
    };
    let names = NameTable {
        vars: str_list("vars")?,
        states: str_list("states")?,
        params: str_list("params")?,
    };
    let eqs = texts
        .iter()
        .enumerate()
        .map(|(i, src)| {
            gmr_expr::parse_with_defaults(src, &names, gmr_bio::params::prior_mean)
                .map_err(|e| format!("'{path}': equation {i} does not parse: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(InputSystem {
        label,
        eqs,
        n_vars: names.vars.len(),
        n_states: names.states.len(),
    })
}

fn run(opts: &Opts) -> Result<(Report, Vec<SafetyReport>), String> {
    let mut report = Report::new();
    let mut systems: Vec<InputSystem> = Vec::new();
    let river = IntervalEnv::river();
    let river_arity = (river.vars.len(), river.states.len());

    if opts.builtin {
        if opts.policy == Policy::Strict {
            report.extend(lint_builtin());
        } else {
            let rg = gmr_bio::river_grammar();
            report.extend(lint_grammar(&rg.grammar));
            let linter = EquationLinter::river(opts.policy);
            report.extend(linter.lint(&gmr_bio::manual_system()));
        }
        systems.push(InputSystem {
            label: "builtin".into(),
            eqs: gmr_bio::manual_system().to_vec(),
            n_vars: river_arity.0,
            n_states: river_arity.1,
        });
    }
    if !opts.exprs.is_empty() {
        let names = gmr_bio::name_table();
        let linter = EquationLinter::river(opts.policy);
        let mut eqs = Vec::new();
        for src in &opts.exprs {
            let eq = gmr_expr::parse(src, &names, |k| gmr_bio::params::spec(k).mean)
                .map_err(|e| format!("cannot parse '{src}': {e}"))?;
            eqs.push(eq);
        }
        report.extend(linter.lint(&eqs));
        systems.push(InputSystem {
            label: "exprs".into(),
            eqs,
            n_vars: river_arity.0,
            n_states: river_arity.1,
        });
    }
    for path in &opts.artifacts {
        let sys = load_artifact(path)?;
        // AST-level lints apply when the artifact uses the river schema;
        // an alien schema still gets full bytecode verification.
        if (sys.n_vars, sys.n_states) == river_arity {
            report.extend(EquationLinter::river(opts.policy).lint(&sys.eqs));
        }
        systems.push(sys);
    }

    let mut safety = Vec::new();
    if opts.bytecode {
        for sys in &systems {
            // Both tiers compile the same bytecode; the threaded tier is
            // the one whose arithmetic the interval analysis models.
            let compiled =
                CompiledSystem::compile_checked(&sys.eqs, sys.n_vars, sys.n_states, Tier::Threaded)
                    .map_err(|e| format!("'{}' does not compile: {e}", sys.label))?;
            let env = env_for_arity(sys.n_vars, sys.n_states);
            let analysis = analyze_system(&compiled, &env, &sys.label);
            report.extend(analysis.report);
            safety.push(analysis.safety);
        }
    }
    Ok((report, safety))
}

fn write_safety(path: &str, safety: &[SafetyReport]) -> Result<(), String> {
    let body = match safety {
        [one] => one.render_json(),
        many => {
            let mut out = String::from("[");
            for (i, s) in many.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(s.render_json().trim_end());
            }
            out.push_str("\n]\n");
            out
        }
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write '{path}': {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, safety) = match run(&opts) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.safety_out {
        if let Err(msg) = write_safety(path, &safety) {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        if opts.json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_human());
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

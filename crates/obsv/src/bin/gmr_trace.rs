//! `gmr-trace` — inspect `gmr-journal/v1` JSONL files.
//!
//! ```text
//! gmr-trace summary RUN.jsonl          # human summary: spans, gens, pool,
//!                                      # served requests
//! gmr-trace chrome RUN.jsonl [--out T] # Chrome trace-event JSON (Perfetto)
//! gmr-trace validate RUN.jsonl         # schema check; exit 1 on failure
//! gmr-trace --validate RUN.jsonl       # same, flag spelling
//! gmr-trace json FILE.json             # strict-parse any JSON document;
//!                                      # exit 1 on malformed input
//! gmr-trace stitch GATEWAY.jsonl BACKEND.jsonl... [--out TRACE.json]
//!                                      # merge cluster journals into one
//!                                      # cross-process Chrome trace; exit 1
//!                                      # on orphaned gateway hops
//! ```

use gmr_obsv::trace;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gmr-trace <summary|chrome|validate|json> FILE [--out FILE]\n\
         \x20      gmr-trace stitch GATEWAY.jsonl BACKEND.jsonl... [--out FILE]\n\
         \n\
         summary    print spans / generations / pool utilization / lineage /\n\
                    served requests\n\
         chrome     convert to Chrome trace-event JSON (load in Perfetto)\n\
         validate   check the gmr-journal/v1 schema; exit 1 when invalid\n\
         json       strict-parse a standalone JSON document (reports the\n\
                    byte offset of the first error); exit 1 when malformed\n\
         stitch     merge a gateway journal plus backend journals into one\n\
                    cross-process Chrome trace (flows connect each gateway\n\
                    hop to the backend access + sweep spans that served\n\
                    it); exit 1 when any hop is orphaned\n\
         \n\
         `--validate` is accepted as a flag spelling of `validate`."
    );
    ExitCode::from(2)
}

/// The `stitch` subcommand: first journal is the gateway, the rest are
/// backends. Exit 1 when any gateway hop cannot be resolved to exactly
/// one backend access span.
fn run_stitch(args: &[String]) -> ExitCode {
    let mut journals: Vec<String> = Vec::new();
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("gmr-trace: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            _ if !a.starts_with('-') => journals.push(a.clone()),
            _ => {
                eprintln!("gmr-trace: unexpected argument {a:?}");
                return ExitCode::from(2);
            }
        }
    }
    if journals.len() < 2 {
        eprintln!("gmr-trace: stitch needs a gateway journal plus at least one backend journal");
        return ExitCode::from(2);
    }
    let mut inputs = Vec::with_capacity(journals.len());
    for path in &journals {
        match read(path) {
            Ok(s) => inputs.push((path.clone(), s)),
            Err(code) => return code,
        }
    }
    let stitched = match trace::stitch(&inputs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gmr-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "stitch: {} journal(s), {} gateway hop(s), {} resolved",
        journals.len(),
        stitched.hops,
        stitched.resolved
    );
    match &out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &stitched.chrome) {
                eprintln!("gmr-trace: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {p}");
        }
        None => print!("{}", stitched.chrome),
    }
    if stitched.orphans.is_empty() {
        ExitCode::SUCCESS
    } else {
        for o in &stitched.orphans {
            eprintln!("gmr-trace: orphaned hop: {o}");
        }
        eprintln!(
            "gmr-trace: {} orphaned hop(s) — a journal is missing or a backend never recorded \
             the request",
            stitched.orphans.len()
        );
        ExitCode::FAILURE
    }
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("gmr-trace: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("stitch") {
        return run_stitch(&args[1..]);
    }
    let mut cmd = None;
    let mut journal = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "summary" | "chrome" | "validate" | "json" if cmd.is_none() => cmd = Some(a.as_str()),
            "--validate" if cmd.is_none() => cmd = Some("validate"),
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("gmr-trace: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => return usage(),
            _ if journal.is_none() && !a.starts_with('-') => journal = Some(a.clone()),
            _ => {
                eprintln!("gmr-trace: unexpected argument {a:?}");
                return usage();
            }
        }
    }
    let (Some(cmd), Some(journal)) = (cmd, journal) else {
        return usage();
    };
    let src = match read(&journal) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match cmd {
        "validate" => {
            let errs = trace::validate(&src);
            if errs.is_empty() {
                println!("{journal}: valid {}", gmr_obsv::SCHEMA);
                ExitCode::SUCCESS
            } else {
                for e in &errs {
                    eprintln!("{journal}: {e}");
                }
                eprintln!("{journal}: INVALID ({} problems)", errs.len());
                ExitCode::FAILURE
            }
        }
        "json" => match gmr_obsv::json::parse(&src) {
            Ok(_) => {
                println!("{journal}: valid JSON");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{journal}: INVALID JSON: {e}");
                ExitCode::FAILURE
            }
        },
        "summary" => match trace::summary(&src) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gmr-trace: {e}");
                ExitCode::FAILURE
            }
        },
        "chrome" => match trace::to_chrome(&src) {
            Ok(json) => match out_path {
                Some(p) => match std::fs::write(&p, json) {
                    Ok(()) => {
                        eprintln!("wrote {p}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("gmr-trace: cannot write {p}: {e}");
                        ExitCode::FAILURE
                    }
                },
                None => {
                    print!("{json}");
                    ExitCode::SUCCESS
                }
            },
            Err(e) => {
                eprintln!("gmr-trace: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

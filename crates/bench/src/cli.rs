//! Shared CLI plumbing for the experiment binaries.
//!
//! Every `exp_*` command line is parsed here, in [`parse`]. All binaries
//! accept three shared flags:
//!
//! * `--quiet` / `-q` — warnings only;
//! * `-v` / `--verbose` — diagnostic logging *and* fine span detail
//!   (per-candidate VM spans, per-station network timings);
//! * `--journal PATH` — flush the run journal to `gmr-journal/v1` JSONL
//!   at exit, ready for `gmr-trace summary|chrome|validate`.
//!
//! Each binary adds the flags its [`Flags`] names. Any other argument
//! exits with status 2 and a usage line, so a misspelt `--quik` cannot
//! silently start a default-scale run.
//!
//! Binaries call [`init`] first thing in `main` and [`finish_obsv`]
//! last; [`write_report`] drops a full [`RunReport`] (pool statistics and
//! metric snapshot included) next to an experiment's other `results/`
//! outputs.

use crate::Scale;
use gmr_gp::RunReport;
use gmr_obsv::log::Level;

/// The flags one experiment binary reads on top of the shared ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flags {
    /// `--quick` / `--full`: the [`Scale`] presets.
    Scale,
    /// `--quick` only.
    Quick,
    /// `--runs N` only.
    Runs,
}

impl Flags {
    fn usage(self) -> &'static str {
        match self {
            Flags::Scale => "[--quick | --full]",
            Flags::Quick => "[--quick]",
            Flags::Runs => "[--runs N]",
        }
    }
}

/// A parsed experiment command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick` was given.
    pub quick: bool,
    /// `--full` was given.
    pub full: bool,
    /// The value of `--runs`.
    pub runs: Option<usize>,
}

impl Args {
    /// The scale preset the flags select: `--quick` over `--full` over
    /// the default.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else if self.full {
            Scale::full()
        } else {
            Scale::default_scale()
        }
    }
}

/// Parse an experiment command line (without the program name), refusing
/// any argument `flags` and the shared flags do not cover.
pub fn parse<S: AsRef<str>>(args: &[S], flags: Flags) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(a) = it.next() {
        match (a, flags) {
            ("--quiet" | "-q" | "-v" | "--verbose", _) => {}
            ("--journal", _) => {
                it.next().ok_or("--journal needs a path")?;
            }
            ("--quick", Flags::Scale | Flags::Quick) => out.quick = true,
            ("--full", Flags::Scale) => out.full = true,
            ("--runs", Flags::Runs) => {
                let v = it.next().ok_or("--runs needs a count")?;
                let n = v
                    .parse()
                    .map_err(|_| format!("bad value for --runs: {v}"))?;
                out.runs = Some(n);
            }
            _ => return Err(format!("unrecognised argument: {a}")),
        }
    }
    Ok(out)
}

/// Parse `std::env::args` for a binary reading `flags` and install the
/// observability state ([`init_obsv_from`]). On a bad command line,
/// print the problem and a usage line, and exit with status 2.
pub fn init(flags: Flags) -> (Obsv, Args) {
    let argv: Vec<String> = std::env::args().collect();
    let rest = argv.get(1..).unwrap_or_default();
    match parse(rest, flags) {
        Ok(args) => (init_obsv_from(rest), args),
        Err(e) => usage_exit(
            &format!(
                "{} [--quiet | -q] [-v | --verbose] [--journal PATH]",
                flags.usage()
            ),
            &e,
        ),
    }
}

/// Print `err` and `usage` (the arguments part of the usage line) under
/// the running binary's name, and exit with status 2.
pub fn usage_exit(usage: &str, err: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or("exp");
    eprintln!("{bin}: {err}");
    eprintln!("usage: {bin} {usage}");
    std::process::exit(2);
}

/// A `bench_*` command line, checked as strictly as an experiment's: each
/// argument is one of the binary's switches, or one of its value flags
/// followed by its value. Anything else is refused, so a misspelt flag in
/// a script stops the bench instead of silently running its default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl BenchArgs {
    /// Parse `args` (without the program name).
    pub fn parse<S: AsRef<str>>(
        args: &[S],
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(a) = it.next() {
            if value_flags.contains(&a) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.values.push((a.to_string(), v.to_string()));
            } else if switches.contains(&a) {
                out.switches.push(a.to_string());
            } else {
                return Err(format!("unrecognised argument: {a}"));
            }
        }
        Ok(out)
    }

    /// [`BenchArgs::parse`] over `std::env::args`; a bad command line
    /// exits through [`usage_exit`].
    pub fn from_env(usage: &str, value_flags: &[&str], switches: &[&str]) -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::parse(&argv, value_flags, switches).unwrap_or_else(|e| usage_exit(usage, &e))
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The value of `flag` (its last occurrence).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` as a count of at least `min`; `default` when
    /// the flag is absent.
    pub fn count(&self, flag: &str, default: usize, min: usize) -> Result<usize, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!(
                    "bad value for {flag}: {v} (want an integer >= {min})"
                )),
            },
        }
    }
}

/// Observability state shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Obsv {
    /// Where `--journal` asked the run journal to be flushed.
    pub journal: Option<String>,
    /// The verbosity the shared flags resolved to.
    pub level: Level,
}

/// Install the global observability state the shared flags in `args`
/// ask for: log level, journal ring, and span detail (raised to
/// [`gmr_obsv::Detail::Fine`] under `-v`).
pub fn init_obsv_from<S: AsRef<str>>(args: &[S]) -> Obsv {
    let level = gmr_obsv::log::level_from_args(args);
    gmr_obsv::log::set_level(level);
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    if level == Level::Debug {
        gmr_obsv::span::set_detail(gmr_obsv::Detail::Fine);
    }
    let journal = args
        .iter()
        .position(|a| a.as_ref() == "--journal")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_ref().to_string());
    Obsv { journal, level }
}

/// Flush the journal to the `--journal` path, if one was given. Call at
/// the end of `main`, after the last run completed.
pub fn finish_obsv(obsv: &Obsv) {
    let Some(path) = &obsv.journal else { return };
    match gmr_obsv::write_jsonl(path) {
        Ok(()) => gmr_obsv::info!("wrote journal {path}"),
        Err(e) => gmr_obsv::warn!("cannot write journal {path}: {e}"),
    }
}

/// Serialize a [`RunReport`] to `results/<stem>-report.json` — the full
/// picture (per-generation history, pool worker statistics, metric
/// snapshot) behind a table's summary row. Best-effort: experiments never
/// fail over a results directory.
pub fn write_report(stem: &str, report: &RunReport) {
    if std::fs::create_dir_all("results").is_err() {
        return;
    }
    let path = format!("results/{stem}-report.json");
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => gmr_obsv::info!("wrote {path}"),
        Err(e) => gmr_obsv::warn!("cannot write {path}: {e}"),
    }
}

/// Export a finished GMR champion as a `gmr-model/v1` serving artifact at
/// `results/<stem>-model.json` — equations with constants embedded,
/// train/test scores and the journal hash as provenance — ready for
/// `gmr-serve serve --artifacts results/`. Best-effort like
/// [`write_report`].
pub fn write_artifact(stem: &str, result: &gmr_core::GmrResult, seed: u64) {
    if std::fs::create_dir_all("results").is_err() {
        return;
    }
    let artifact = gmr_serve::ModelArtifact::from_gmr(stem, result, seed);
    let path = format!("results/{stem}-model.json");
    match artifact.save(&path) {
        Ok(()) => gmr_obsv::info!("wrote {path}"),
        Err(e) => gmr_obsv::warn!("cannot write {path}: {e}"),
    }
}

/// Lower-case a variant label into a filename stem chunk: alphanumerics
/// kept, everything else collapsed to single dashes.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_flag_takes_the_following_argument() {
        let o = init_obsv_from(&["exp", "--journal", "run.jsonl", "--quick"]);
        assert_eq!(o.journal.as_deref(), Some("run.jsonl"));
        let o = init_obsv_from(&["exp", "--quick"]);
        assert_eq!(o.journal, None);
    }

    #[test]
    fn each_binary_accepts_only_its_own_flags() {
        let shared = ["-q", "--verbose", "--journal", "run.jsonl"];
        for flags in [Flags::Scale, Flags::Quick, Flags::Runs] {
            assert_eq!(parse(&shared, flags), Ok(Args::default()));
        }
        let scale = |args: &[&str]| parse(args, Flags::Scale).unwrap().scale().name;
        assert_eq!(scale(&[]), "default");
        assert_eq!(scale(&["--full"]), "full");
        assert_eq!(scale(&["--quick", "--full"]), "quick");
        assert!(parse(&["--quick"], Flags::Quick).unwrap().quick);
        assert!(parse(&["--full"], Flags::Quick).is_err());
        assert_eq!(parse(&["--runs", "3"], Flags::Runs).unwrap().runs, Some(3));
        assert!(parse(&["--quick"], Flags::Runs).is_err());
        assert!(parse(&["--runs", "x"], Flags::Runs).is_err());
        assert!(parse(&["--runs"], Flags::Runs).is_err());
        assert!(parse(&["--runs", "3"], Flags::Scale).is_err());
        assert!(parse(&["--journal"], Flags::Scale).is_err());
        assert!(parse(&["--quik"], Flags::Scale).is_err());
        assert!(parse(&["extra"], Flags::Scale).is_err());
    }

    #[test]
    fn bench_args_refuse_unknown_flags_and_bad_counts() {
        let parse = |args: &[&str]| BenchArgs::parse(args, &["--out", "--backends"], &["--quick"]);
        let a = parse(&["--quick", "--out", "x.json", "--backends", "3"]).unwrap();
        assert!(a.has("--quick"));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(a.count("--backends", 4, 2), Ok(3));
        assert_eq!(parse(&[]).unwrap().count("--backends", 4, 2), Ok(4));
        assert!(parse(&["--quik"]).is_err());
        assert!(parse(&["--out"]).is_err(), "a value flag needs its value");
        assert!(parse(&["x.json"]).is_err());
        for bad in ["abc", "1", "-2", ""] {
            let a = parse(&["--backends", bad]).unwrap();
            assert!(a.count("--backends", 4, 2).is_err(), "--backends {bad:?}");
        }
    }

    #[test]
    fn slug_collapses_punctuation() {
        assert_eq!(slug("ES opt-1.0"), "es-opt-1-0");
        assert_eq!(slug("paper-letter"), "paper-letter");
        assert_eq!(slug("  TH 0.7  "), "th-0-7");
    }
}

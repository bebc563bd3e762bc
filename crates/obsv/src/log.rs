//! Leveled progress logging for the bench/experiment binaries.
//!
//! Replaces the ad-hoc `eprintln!` progress lines: one global level, set
//! once from the shared `--quiet` / `-v` flags, consulted by the
//! [`info!`](crate::info)/[`debug!`](crate::debug)/[`warn!`](crate::warn)
//! macros. Output goes to stderr (experiment *results* go to stdout, as
//! before).

use std::sync::atomic::{AtomicU8, Ordering};

/// Verbosity level, in increasing order of chattiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Warnings only (`--quiet`).
    Quiet,
    /// Progress lines (default).
    Info,
    /// Extra diagnostics (`-v`); also raises span detail to Fine.
    Debug,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Set the global verbosity.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether a message at `l` should print.
#[inline]
pub fn should_log(l: Level) -> bool {
    l as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Parse the shared verbosity flags out of a CLI argument list:
/// `--quiet`/`-q` → [`Level::Quiet`], `-v`/`--verbose` → [`Level::Debug`],
/// otherwise [`Level::Info`]. The one place every binary agrees on.
pub fn level_from_args<S: AsRef<str>>(args: &[S]) -> Level {
    let mut level = Level::Info;
    for a in args {
        match a.as_ref() {
            "--quiet" | "-q" => level = Level::Quiet,
            "-v" | "--verbose" => level = Level::Debug,
            _ => {}
        }
    }
    level
}

/// Progress line, visible at the default verbosity.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::should_log($crate::log::Level::Info) {
            eprintln!($($arg)*);
        }
    };
}

/// Diagnostic line, visible under `-v`.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::should_log($crate::log::Level::Debug) {
            eprintln!($($arg)*);
        }
    };
}

/// Warning line, visible even under `--quiet`.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::should_log($crate::log::Level::Quiet) {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_last_wins() {
        assert_eq!(level_from_args(&["exp", "--quick"]), Level::Info);
        assert_eq!(level_from_args(&["exp", "--quiet"]), Level::Quiet);
        assert_eq!(level_from_args(&["exp", "-v"]), Level::Debug);
        assert_eq!(level_from_args(&["exp", "--quiet", "-v"]), Level::Debug);
    }

    #[test]
    fn level_ordering_gates_messages() {
        // Note: global level; keep the default restored for other tests.
        set_level(Level::Quiet);
        assert!(should_log(Level::Quiet));
        assert!(!should_log(Level::Info));
        set_level(Level::Debug);
        assert!(should_log(Level::Info));
        assert!(should_log(Level::Debug));
        set_level(Level::Info);
    }
}

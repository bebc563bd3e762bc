//! `gmr-obsv` — zero-dependency structured observability for the GMR
//! stack.
//!
//! The paper's GMR searches are long (50 generations × 500 individuals ×
//! multi-station ODE simulation); the only windows into a run used to be
//! `RunReport`'s terminal aggregates and scattered `eprintln!` lines. This
//! crate gives every layer the same three instruments:
//!
//! * **[`span`]s** — RAII scoped timers with thread-safe nesting and two
//!   detail levels, recorded as completed-span events;
//! * **[`metrics`]** — lock-free counters and histograms behind a named
//!   [`metrics::Registry`], absorbing the engine's one-off atomic counters
//!   into one snapshot-able sheet;
//! * **the [`journal`]** — a bounded ring buffer of typed events
//!   (generation stats, elite lineage, cache evictions, pool rounds,
//!   worker stalls, served requests) flushed to `gmr-journal/v1` JSONL, which the
//!   `gmr-trace` CLI summarizes, validates, and converts to Chrome
//!   trace-event JSON for Perfetto / `about://tracing`.
//!
//! Design constraints, in order:
//!
//! 1. **Off the fitness path.** Instrumentation reads clocks and pushes
//!    events; it never touches RNG streams, baselines or fitness values,
//!    so the engine's thread-count determinism contract holds with
//!    observability on or off (pinned by `gp/tests/determinism.rs`).
//! 2. **Cheap when idle, gone when compiled out.** Until [`init`] installs
//!    the global journal every span is one relaxed atomic load; without
//!    the `enabled` cargo feature the span/journal/log call sites compile
//!    to nothing (the [`metrics`] counter types remain — they are program
//!    semantics, see the module docs).
//! 3. **Zero dependencies.** `std` only — the build environment has no
//!    crates.io access, and observability must never constrain the build.

pub mod journal;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

/// The shared zero-dependency JSON module, re-exported from [`gmr_json`]
/// under its historical path (`gmr_obsv::json::{parse, Value, …}`) — the
/// module lived here before the serving/artifact layers needed it too.
pub use gmr_json as json;

pub use journal::{Event, Journal, Record, SCHEMA};
pub use span::{Detail, Span};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Journal> = OnceLock::new();

/// Default journal capacity: enough for a paper-scale run's coarse events
/// (~10 events/generation × 100 generations × 60 runs) with fine-detail
/// headroom.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Install the global journal (idempotent; the first capacity wins).
/// Returns whether this call performed the installation.
pub fn init(capacity: usize) -> bool {
    if cfg!(not(feature = "enabled")) {
        return false;
    }
    let mut installed = false;
    GLOBAL.get_or_init(|| {
        installed = true;
        Journal::new(capacity)
    });
    installed
}

/// The global journal, when [`init`] has run (and the `enabled` feature is
/// compiled in).
pub fn global() -> Option<&'static Journal> {
    #[cfg(feature = "enabled")]
    {
        GLOBAL.get()
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

/// Whether events are currently being recorded. Callers with non-trivial
/// event-assembly cost should check this first.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "enabled") && global().is_some()
}

/// Append an event to the global journal (no-op before [`init`]).
#[inline]
pub fn emit(event: Event) {
    if let Some(j) = global() {
        j.push(event);
    }
}

/// Microseconds since the global journal started (0 before [`init`]).
pub fn now_us() -> u64 {
    global().map(Journal::now_us).unwrap_or(0)
}

/// Serialize the global journal to a JSONL file (no-op before [`init`]).
pub fn write_jsonl(path: &str) -> std::io::Result<()> {
    match global() {
        Some(j) => j.write_to_path(path),
        None => Ok(()),
    }
}

/// Remove and return every event currently in the global journal (empty
/// before [`init`]). Primarily for tests.
pub fn drain() -> Vec<Record> {
    global().map(Journal::drain).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_before_init_is_a_silent_no_op() {
        // Runs before `global_init_collects` in no particular order, so it
        // cannot assert the global is uninstalled — only that emit never
        // panics and enabled() agrees with global().
        emit(Event::Note {
            name: "x",
            msg: "pre-init".into(),
        });
        assert_eq!(enabled(), global().is_some());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn global_init_collects_and_flushes() {
        init(1024);
        assert!(enabled());
        emit(Event::Note {
            name: "lib-test",
            msg: "hello".into(),
        });
        let recs = global().unwrap().snapshot();
        assert!(recs.iter().any(|r| matches!(
            &r.event,
            Event::Note {
                name: "lib-test",
                ..
            }
        )));
        // Spans now record too.
        {
            let _sp = span!("test.phase");
        }
        assert!(global().unwrap().snapshot().iter().any(|r| matches!(
            &r.event,
            Event::Span {
                name: "test.phase",
                ..
            }
        )));
    }
}

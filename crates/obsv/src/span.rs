//! Scoped spans: RAII timers that record a completed-span event on drop.
//!
//! Thread-safe nesting is per-thread state: each thread carries a journal-
//! local `tid` and a depth counter, so spans opened concurrently on
//! different workers never interfere, and nested spans on one thread
//! record their depth for flamegraph reconstruction.
//!
//! Two detail levels keep instrumentation off the fitness path's budget:
//! [`Detail::Coarse`] (default) records phase-scale spans only;
//! [`Detail::Fine`] adds per-candidate and per-claim spans (`vm.compile`,
//! `netsim.station`; `pool.drain`, and `vm.simulate`, which covers one
//! claimed chunk of an evaluation round scored as a group, its argument
//! the member count). Until [`crate::init`] installs the journal, opening
//! a span is one atomic load and the guard records nothing.

use crate::journal::Event;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

/// Span granularity a call site declares; recorded only when the global
/// detail level includes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detail {
    /// Phase-scale spans (per generation, per station batch).
    Coarse,
    /// Per-candidate / per-claim spans — opt-in, higher volume.
    Fine,
}

static DETAIL: AtomicU8 = AtomicU8::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Set the global detail level.
pub fn set_detail(d: Detail) {
    DETAIL.store(if d == Detail::Fine { 1 } else { 0 }, Ordering::Relaxed);
}

/// The global detail level.
pub fn detail() -> Detail {
    if DETAIL.load(Ordering::Relaxed) == 1 {
        Detail::Fine
    } else {
        Detail::Coarse
    }
}

/// This thread's journal-local id (assigned on first use).
pub fn tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

struct Active {
    name: &'static str,
    arg: Option<u64>,
    start: Instant,
    start_us: u64,
    depth: u16,
}

/// RAII span guard; records a [`Event::Span`] when dropped.
pub struct Span(Option<Active>);

impl Span {
    /// Open a span carrying an optional numeric argument (generation
    /// index, station id, trace id…); it records only when the journal is
    /// installed and the global detail level includes `min_detail`. Call
    /// sites use [`span!`](crate::span!) and [`span_fine!`](crate::span_fine!).
    #[inline]
    pub fn begin(name: &'static str, arg: Option<u64>, min_detail: Detail) -> Span {
        let Some(journal) = crate::global().filter(|_| min_detail <= detail()) else {
            return Span(None);
        };
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span(Some(Active {
            name,
            arg,
            start: Instant::now(),
            start_us: journal.now_us(),
            depth,
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        crate::emit(Event::Span {
            name: active.name,
            tid: tid(),
            depth: active.depth,
            start_us: active.start_us,
            dur_us: active.start.elapsed().as_micros() as u64,
            arg: active.arg,
        });
    }
}

/// Record an externally timed span (for per-item timings accumulated in
/// a loop rather than scoped): `start_us` from [`crate::now_us`], plus
/// a measured duration.
pub fn record_external(name: &'static str, start_us: u64, dur_us: u64, arg: Option<u64>) {
    if crate::global().is_none() {
        return;
    }
    crate::emit(Event::Span {
        name,
        tid: tid(),
        depth: DEPTH.with(|d| d.get()),
        start_us,
        dur_us,
        arg,
    });
}

/// Open a scoped span: `let _sp = obsv::span!("gen.breed");` or
/// `obsv::span!("gen.breed", gen as u64)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::begin($name, None, $crate::Detail::Coarse)
    };
    ($name:expr, $arg:expr) => {
        $crate::span::Span::begin($name, Some($arg), $crate::Detail::Coarse)
    };
}

/// Fine-detail variant of [`span!`] (per-candidate volume; recorded only
/// under [`Detail::Fine`]).
#[macro_export]
macro_rules! span_fine {
    ($name:expr) => {
        $crate::span::Span::begin($name, None, $crate::Detail::Fine)
    };
    ($name:expr, $arg:expr) => {
        $crate::span::Span::begin($name, Some($arg), $crate::Detail::Fine)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_journal_is_inert() {
        // Tests in this crate share the process-global journal; this test
        // only asserts the detail gate, which is journal-independent.
        set_detail(Detail::Coarse);
        assert_eq!(detail(), Detail::Coarse);
        set_detail(Detail::Fine);
        assert_eq!(detail(), Detail::Fine);
        set_detail(Detail::Coarse);
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = tid();
        let b = tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(tid).join().unwrap();
        assert_ne!(a, other);
    }
}

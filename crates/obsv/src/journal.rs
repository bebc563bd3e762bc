//! The run journal: a bounded ring buffer of typed events, flushed to
//! `gmr-journal/v1` JSONL.
//!
//! Events are pushed from any thread (one short mutex section per event —
//! event rates are generation- and round-scale, with per-candidate detail
//! opt-in via [`crate::span::Detail::Fine`]); the ring drops the *oldest*
//! events once `capacity` is reached and counts what it dropped, so a
//! stalled run's journal always holds the most recent window. The JSONL
//! format is one header line (`schema`, totals) followed by one event per
//! line with a monotone `seq` and a `t_us` timestamp taken under the ring
//! lock (so timestamps are non-decreasing in file order — `gmr-trace
//! --validate` checks both).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Schema tag written in the header line and required by the validator.
pub const SCHEMA: &str = "gmr-journal/v1";

/// Fixed-width lowercase hex rendering of a trace or span id — the form
/// used in both the `X-Gmr-Trace` header and the `access` event, so the
/// header value greps straight into the journal.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a [`hex_id`]-rendered id (exactly 16 lowercase hex digits).
pub fn parse_hex_id(s: &str) -> Option<u64> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// One typed journal event. Variant names map 1:1 to the JSONL `type` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span (scoped timer).
    Span {
        /// Span name (dotted, `layer.phase`; see DESIGN.md).
        name: &'static str,
        /// Journal-local thread id (0 = first thread seen).
        tid: u32,
        /// Nesting depth within the thread at entry.
        depth: u16,
        /// Start time, µs since journal start.
        start_us: u64,
        /// Duration in µs.
        dur_us: u64,
        /// Optional numeric argument (generation, station, epoch…).
        arg: Option<u64>,
    },
    /// Per-generation search statistics (the `GenStats` record, plus the
    /// §III-D counter deltas for this generation — `d_shorts` is the
    /// number of short-circuit fires).
    Gen {
        /// Engine seed (distinguishes interleaved runs in one journal).
        seed: u64,
        /// Generation index.
        generation: u64,
        /// Best fitness in the population.
        best: f64,
        /// Mean finite fitness.
        mean: f64,
        /// Cumulative fitness evaluations.
        evaluations: u64,
        /// Cumulative integrated steps.
        steps: u64,
        /// Wall time of the generation, µs.
        elapsed_us: u64,
        /// Evaluations this generation.
        d_evals: u64,
        /// Full evaluations this generation.
        d_fulls: u64,
        /// Short-circuit fires this generation.
        d_shorts: u64,
        /// Tree-cache hits this generation.
        d_cache_hits: u64,
        /// Tree-cache misses this generation.
        d_cache_misses: u64,
    },
    /// The population's best individual changed — elite lineage, with the
    /// operator that produced the new elite.
    EliteChange {
        /// Engine seed.
        seed: u64,
        /// Generation at which the change was observed.
        generation: u64,
        /// New best fitness.
        fitness: f64,
        /// Chromosome (derivation-tree) size.
        size: u64,
        /// The genetic operator that created the new elite (the revision
        /// applied): `init`, `crossover`, `subtree-mut`, `gauss-mut`,
        /// `replicate`, `ls-insert`, `ls-delete`, `ls-tweak`.
        origin: &'static str,
    },
    /// The tree cache shed entries.
    CacheEvict {
        /// Surrogate (short-circuited) entries dropped.
        shed_surrogate: u64,
        /// Fully-evaluated entries dropped.
        shed_full: u64,
        /// Cache occupancy after the wave.
        len_after: u64,
    },
    /// Evaluation-pool round boundary: cumulative pool accounting
    /// snapshotted so a run killed mid-generation still leaves numbers.
    Round {
        /// Engine seed.
        seed: u64,
        /// Round counter (monotone over the run).
        round: u64,
        /// What the round evaluated (`evaluate`, `local-search`).
        kind: &'static str,
        /// Candidates in the round.
        len: u64,
        /// Worker count.
        workers: u64,
        /// Cumulative candidates processed (all workers).
        candidates: u64,
        /// Cumulative busy time, µs.
        busy_us: u64,
        /// Cumulative idle time, µs.
        idle_us: u64,
    },
    /// A worker processed nothing during a round large enough that every
    /// worker should have claimed work — a scheduling or starvation
    /// warning.
    Stall {
        /// Round counter.
        round: u64,
        /// The idle worker's index.
        worker: u32,
        /// Round wall time, µs.
        round_us: u64,
    },
    /// Free-form annotation.
    Note {
        /// Event name.
        name: &'static str,
        /// Message.
        msg: String,
    },
    /// One answered HTTP request: the serving stack's access log, and its
    /// only per-request record. It carries the propagated trace context
    /// (`X-Gmr-Trace`), so `gmr-trace stitch` can connect a gateway hop
    /// to the backend span that served it and a user can grep any
    /// journal for their own request id.
    Access {
        /// Trace id shared by every hop of one client request.
        trace: u64,
        /// This hop's span id.
        span: u64,
        /// The upstream hop's span id (0 = this hop minted the trace).
        parent: u64,
        /// HTTP method verb.
        method: String,
        /// Endpoint path tag (`/simulate`, `gw:/simulate`…).
        path: &'static str,
        /// Model routed or simulated (empty when none was involved).
        model: String,
        /// Forcing-table reference (`(inline)` for inline forcings,
        /// empty when no simulation ran).
        table: String,
        /// HTTP status returned.
        status: u16,
        /// Request was shed (429) before any simulation ran.
        shed: bool,
        /// Simulation was coalesced with at least one other request.
        batched: bool,
        /// Wait from simulation enqueue to batcher pickup, µs.
        queue_us: u64,
        /// Simulation wall time inside the sweep, µs.
        sim_us: u64,
        /// Total dequeue-to-response time, µs.
        dur_us: u64,
    },
    /// A cluster backend lifecycle transition (the supervisor's log).
    Backend {
        /// Backend slot index.
        idx: u32,
        /// Bound address, when known (empty before first spawn succeeds).
        addr: String,
        /// Transition: `spawned`, `up`, `down`, `restarted`, `gave-up`,
        /// `drained`.
        state: &'static str,
        /// Restarts consumed so far for this slot.
        restarts: u32,
    },
}

impl Event {
    /// The JSONL `type` tag.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::Gen { .. } => "gen",
            Event::EliteChange { .. } => "elite",
            Event::CacheEvict { .. } => "cache_evict",
            Event::Round { .. } => "round",
            Event::Stall { .. } => "stall",
            Event::Note { .. } => "note",
            Event::Access { .. } => "access",
            Event::Backend { .. } => "backend",
        }
    }
}

/// A sequenced, timestamped event as stored in the ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotone sequence number (gaps = dropped events).
    pub seq: u64,
    /// Microseconds since journal start, taken under the ring lock.
    pub t_us: u64,
    /// The event.
    pub event: Event,
}

struct Inner {
    buf: VecDeque<Record>,
    seq: u64,
    dropped: u64,
}

/// A bounded event journal. Cheap to share behind an `Arc` or a global.
pub struct Journal {
    inner: Mutex<Inner>,
    capacity: usize,
    start: std::time::Instant,
    t0_unix_us: u64,
}

impl Journal {
    /// Create with an event capacity (oldest events are dropped beyond it).
    pub fn new(capacity: usize) -> Self {
        let t0_unix_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Journal {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                seq: 0,
                dropped: 0,
            }),
            capacity: capacity.max(1),
            start: std::time::Instant::now(),
            t0_unix_us,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Microseconds since the journal was created.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Append an event (timestamped now).
    pub fn push(&self, event: Event) {
        let mut inner = self.lock();
        let t_us = self.start.elapsed().as_micros() as u64;
        let seq = inner.seq;
        inner.seq += 1;
        if inner.buf.len() >= self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(Record { seq, t_us, event });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Remove and return everything currently held.
    pub fn drain(&self) -> Vec<Record> {
        self.lock().buf.drain(..).collect()
    }

    /// Copy of everything currently held.
    pub fn snapshot(&self) -> Vec<Record> {
        self.lock().buf.iter().cloned().collect()
    }

    /// Serialize to `gmr-journal/v1` JSONL: header line then one event per
    /// line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(64 * inner.buf.len() + 128);
        // `t0_unix_us` anchors this journal's relative `t_us` timeline to
        // the wall clock so `gmr-trace stitch` can align journals from
        // different processes on one trace timeline.
        out.push_str(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"events\": {}, \"dropped\": {}, \"next_seq\": {}, \"t0_unix_us\": {}}}\n",
            inner.buf.len(),
            inner.dropped,
            inner.seq,
            self.t0_unix_us
        ));
        for rec in &inner.buf {
            write_record(&mut out, rec);
            out.push('\n');
        }
        out
    }

    /// Write the JSONL rendering to a file.
    pub fn write_to_path(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// What a journal field holds, as `write_record` writes it and
/// `gmr-trace validate` requires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldKind {
    /// A non-negative JSON integer.
    Int,
    /// Any `u64` (a run seed, a span's `arg`), written with
    /// [`crate::json::push_u64`]: a number below 2^53, a decimal string
    /// from there up.
    WideU64,
    /// A JSON string.
    Str,
    /// A JSON boolean.
    Bool,
    /// A [`hex_id`]-rendered trace or span id.
    HexId,
    /// A float, `null` when it is not finite.
    NumOrNull,
}

impl FieldKind {
    /// Whether `v` (the field's value, `None` when absent) is of this kind.
    pub(crate) fn accepts(self, v: Option<&crate::json::Value>) -> bool {
        use crate::json::Value;
        match self {
            FieldKind::Int => v.and_then(Value::as_u64).is_some(),
            FieldKind::WideU64 => v.and_then(crate::json::read_u64).is_some(),
            FieldKind::Str => v.and_then(Value::as_str).is_some(),
            FieldKind::Bool => v.and_then(Value::as_bool).is_some(),
            FieldKind::HexId => v.and_then(Value::as_str).and_then(parse_hex_id).is_some(),
            FieldKind::NumOrNull => matches!(v, Some(Value::Num(_) | Value::Null)),
        }
    }

    /// The kind, as a validation error names it.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            FieldKind::Int | FieldKind::WideU64 => "an integer",
            FieldKind::Str => "a string",
            FieldKind::Bool => "a boolean",
            FieldKind::HexId => "a 16-digit lowercase hex id",
            FieldKind::NumOrNull => "a number or null",
        }
    }
}

/// Every event type's `type` tag and the fields `write_record` writes for
/// it after `seq`, `t_us` and `type`, in order: the one list `gmr-trace
/// validate` checks each line against. A `span`'s `arg` (a
/// [`FieldKind::WideU64`]) is written only when set, so it is not listed.
#[rustfmt::skip]
pub(crate) const EVENT_FIELDS: [(&str, &[(&str, FieldKind)]); 9] = {
    use FieldKind::{Bool, HexId, Int, NumOrNull as Num, Str, WideU64 as Wide};
    [
        ("span", &[("name", Str), ("tid", Int), ("depth", Int), ("start_us", Int), ("dur_us", Int)]),
        ("gen", &[
            ("seed", Wide), ("generation", Int), ("best", Num), ("mean", Num),
            ("evaluations", Int), ("steps", Int), ("elapsed_us", Int), ("d_evals", Int),
            ("d_fulls", Int), ("d_shorts", Int), ("d_cache_hits", Int), ("d_cache_misses", Int),
        ]),
        ("elite", &[
            ("seed", Wide), ("generation", Int), ("fitness", Num), ("size", Int), ("origin", Str),
        ]),
        ("cache_evict", &[("shed_surrogate", Int), ("shed_full", Int), ("len_after", Int)]),
        ("round", &[
            ("seed", Wide), ("round", Int), ("kind", Str), ("len", Int), ("workers", Int),
            ("candidates", Int), ("busy_us", Int), ("idle_us", Int),
        ]),
        ("stall", &[("round", Int), ("worker", Int), ("round_us", Int)]),
        ("note", &[("name", Str), ("msg", Str)]),
        ("access", &[
            ("trace", HexId), ("span", HexId), ("parent", HexId), ("method", Str), ("path", Str),
            ("model", Str), ("table", Str), ("status", Int), ("shed", Bool), ("batched", Bool),
            ("queue_us", Int), ("sim_us", Int), ("dur_us", Int),
        ]),
        ("backend", &[("idx", Int), ("addr", Str), ("state", Str), ("restarts", Int)]),
    ]
};

/// The [`EVENT_FIELDS`] entry for a `type` tag; `None` for an unknown one.
pub(crate) fn event_fields(tag: &str) -> Option<&'static [(&'static str, FieldKind)]> {
    EVENT_FIELDS
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, fields)| *fields)
}

fn write_record(out: &mut String, rec: &Record) {
    use crate::json::{push_escaped, push_f64, push_u64};
    out.push_str(&format!(
        "{{\"seq\": {}, \"t_us\": {}, \"type\": \"{}\"",
        rec.seq,
        rec.t_us,
        rec.event.type_tag()
    ));
    match &rec.event {
        Event::Span {
            name,
            tid,
            depth,
            start_us,
            dur_us,
            arg,
        } => {
            out.push_str(", \"name\": ");
            push_escaped(out, name);
            out.push_str(&format!(
                ", \"tid\": {tid}, \"depth\": {depth}, \"start_us\": {start_us}, \"dur_us\": {dur_us}"
            ));
            if let Some(a) = arg {
                out.push_str(", \"arg\": ");
                push_u64(out, *a);
            }
        }
        Event::Gen {
            seed,
            generation,
            best,
            mean,
            evaluations,
            steps,
            elapsed_us,
            d_evals,
            d_fulls,
            d_shorts,
            d_cache_hits,
            d_cache_misses,
        } => {
            out.push_str(", \"seed\": ");
            push_u64(out, *seed);
            out.push_str(&format!(", \"generation\": {generation}, \"best\": "));
            push_f64(out, *best);
            out.push_str(", \"mean\": ");
            push_f64(out, *mean);
            out.push_str(&format!(
                ", \"evaluations\": {evaluations}, \"steps\": {steps}, \"elapsed_us\": {elapsed_us}, \
                 \"d_evals\": {d_evals}, \"d_fulls\": {d_fulls}, \"d_shorts\": {d_shorts}, \
                 \"d_cache_hits\": {d_cache_hits}, \"d_cache_misses\": {d_cache_misses}"
            ));
        }
        Event::EliteChange {
            seed,
            generation,
            fitness,
            size,
            origin,
        } => {
            out.push_str(", \"seed\": ");
            push_u64(out, *seed);
            out.push_str(&format!(", \"generation\": {generation}, \"fitness\": "));
            push_f64(out, *fitness);
            out.push_str(&format!(", \"size\": {size}, \"origin\": "));
            push_escaped(out, origin);
        }
        Event::CacheEvict {
            shed_surrogate,
            shed_full,
            len_after,
        } => {
            out.push_str(&format!(
                ", \"shed_surrogate\": {shed_surrogate}, \"shed_full\": {shed_full}, \"len_after\": {len_after}"
            ));
        }
        Event::Round {
            seed,
            round,
            kind,
            len,
            workers,
            candidates,
            busy_us,
            idle_us,
        } => {
            out.push_str(", \"seed\": ");
            push_u64(out, *seed);
            out.push_str(&format!(", \"round\": {round}, \"kind\": "));
            push_escaped(out, kind);
            out.push_str(&format!(
                ", \"len\": {len}, \"workers\": {workers}, \"candidates\": {candidates}, \
                 \"busy_us\": {busy_us}, \"idle_us\": {idle_us}"
            ));
        }
        Event::Stall {
            round,
            worker,
            round_us,
        } => {
            out.push_str(&format!(
                ", \"round\": {round}, \"worker\": {worker}, \"round_us\": {round_us}"
            ));
        }
        Event::Note { name, msg } => {
            out.push_str(", \"name\": ");
            push_escaped(out, name);
            out.push_str(", \"msg\": ");
            push_escaped(out, msg);
        }
        Event::Access {
            trace,
            span,
            parent,
            method,
            path,
            model,
            table,
            status,
            shed,
            batched,
            queue_us,
            sim_us,
            dur_us,
        } => {
            out.push_str(", \"trace\": ");
            push_escaped(out, &hex_id(*trace));
            out.push_str(", \"span\": ");
            push_escaped(out, &hex_id(*span));
            out.push_str(", \"parent\": ");
            push_escaped(out, &hex_id(*parent));
            out.push_str(", \"method\": ");
            push_escaped(out, method);
            out.push_str(", \"path\": ");
            push_escaped(out, path);
            out.push_str(", \"model\": ");
            push_escaped(out, model);
            out.push_str(", \"table\": ");
            push_escaped(out, table);
            out.push_str(&format!(
                ", \"status\": {status}, \"shed\": {shed}, \"batched\": {batched}, \
                 \"queue_us\": {queue_us}, \"sim_us\": {sim_us}, \"dur_us\": {dur_us}"
            ));
        }
        Event::Backend {
            idx,
            addr,
            state,
            restarts,
        } => {
            out.push_str(&format!(", \"idx\": {idx}, \"addr\": "));
            push_escaped(out, addr);
            out.push_str(", \"state\": ");
            push_escaped(out, state);
            out.push_str(&format!(", \"restarts\": {restarts}"));
        }
    }
    out.push('}');
}

/// One event of every variant, in [`EVENT_FIELDS`] order: the fixture the
/// field-table test and the `gmr-trace` reader tests share.
#[cfg(test)]
pub(crate) fn every_event() -> Vec<Event> {
    vec![
        Event::Span {
            name: "gen.evaluate",
            tid: 0,
            depth: 0,
            start_us: 5,
            dur_us: 100,
            arg: Some(1),
        },
        Event::Gen {
            seed: 42,
            generation: 0,
            best: 2.0,
            mean: f64::INFINITY, // must serialize as null, not break JSON
            evaluations: 32,
            steps: 2048,
            elapsed_us: 900,
            d_evals: 32,
            d_fulls: 30,
            d_shorts: 2,
            d_cache_hits: 0,
            d_cache_misses: 32,
        },
        Event::EliteChange {
            seed: 42,
            generation: 0,
            fitness: 2.0,
            size: 5,
            origin: "init",
        },
        Event::CacheEvict {
            shed_surrogate: 3,
            shed_full: 1,
            len_after: 60,
        },
        Event::Round {
            seed: 42,
            round: 1,
            kind: "evaluate",
            len: 32,
            workers: 4,
            candidates: 32,
            busy_us: 800,
            idle_us: 100,
        },
        Event::Stall {
            round: 1,
            worker: 2,
            round_us: 900,
        },
        Event::Note {
            name: "test",
            msg: "hello".into(),
        },
        Event::Access {
            trace: 0x0123_4567_89ab_cdef,
            span: 0xfedc_ba98_7654_3210,
            parent: 0,
            method: "POST".into(),
            path: "/simulate",
            model: "table5-manual".into(),
            table: "t".into(),
            status: 200,
            shed: false,
            batched: true,
            queue_us: 12,
            sim_us: 340,
            dur_us: 360,
        },
        Event::Backend {
            idx: 0,
            addr: "127.0.0.1:9000".into(),
            state: "up",
            restarts: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn note(i: u64) -> Event {
        Event::Note {
            name: "test",
            msg: format!("event {i}"),
        }
    }

    /// The fixture written to JSONL and parsed back, header first.
    fn fixture_lines() -> Vec<Value> {
        let j = Journal::new(64);
        for e in every_event() {
            j.push(e);
        }
        let text = j.to_jsonl();
        text.lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect()
    }

    /// The writer and the validator's table cannot drift apart: every
    /// variant writes exactly its table entry's fields, each of its kind.
    #[test]
    fn every_variant_writes_exactly_its_table_fields() {
        let mut tags = Vec::new();
        for v in &fixture_lines()[1..] {
            let Value::Obj(obj) = v else {
                panic!("not an object: {v:?}")
            };
            let tag = v.get("type").and_then(Value::as_str).unwrap();
            let fields = event_fields(tag).unwrap_or_else(|| panic!("{tag:?} has no table entry"));
            let mut keys: Vec<&str> = obj
                .keys()
                .map(String::as_str)
                .filter(|k| !matches!(*k, "seq" | "t_us" | "type" | "arg"))
                .collect();
            let mut want: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            want.sort_unstable();
            assert_eq!(keys, want, "{tag}");
            for (key, kind) in fields {
                assert!(
                    kind.accepts(v.get(key)),
                    "{tag}.{key} is not {}",
                    kind.describe()
                );
            }
            if let Some(arg) = v.get("arg") {
                assert_eq!(tag, "span");
                assert!(FieldKind::WideU64.accepts(Some(arg)));
            }
            tags.push(tag.to_string());
        }
        let table: Vec<&str> = EVENT_FIELDS.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, table, "one event per table entry");
    }

    #[test]
    fn push_assigns_monotone_seq_and_time() {
        let j = Journal::new(16);
        for i in 0..5 {
            j.push(note(i));
        }
        let recs = j.snapshot();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        for w in recs.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let j = Journal::new(8);
        for i in 0..20 {
            j.push(note(i));
        }
        assert_eq!(j.len(), 8);
        assert_eq!(j.dropped(), 12);
        let recs = j.snapshot();
        // The survivors are the *newest* 8 — seq 12..20.
        assert_eq!(recs.first().unwrap().seq, 12);
        assert_eq!(recs.last().unwrap().seq, 19);
    }

    #[test]
    fn jsonl_header_and_lines_parse() {
        let lines = fixture_lines();
        let header = &lines[0];
        assert_eq!(header.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            header.get("events").and_then(Value::as_u64),
            Some(EVENT_FIELDS.len() as u64)
        );
        let span = &lines[1];
        assert_eq!(
            span.get("name").and_then(Value::as_str),
            Some("gen.evaluate")
        );
        assert_eq!(span.get("arg").and_then(Value::as_u64), Some(1));
        let gen = &lines[2];
        assert_eq!(gen.get("type").and_then(Value::as_str), Some("gen"));
        assert_eq!(gen.get("mean"), Some(&Value::Null));
        assert_eq!(gen.get("d_shorts").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn access_event_round_trips_with_hex_trace_ids() {
        let lines = fixture_lines();
        assert!(lines[0].get("t0_unix_us").and_then(Value::as_u64).is_some());
        let e = lines
            .iter()
            .find(|v| v.get("type").and_then(Value::as_str) == Some("access"))
            .unwrap();
        let trace = e.get("trace").and_then(Value::as_str).unwrap();
        assert_eq!(trace, "0123456789abcdef");
        assert_eq!(parse_hex_id(trace), Some(0x0123_4567_89ab_cdef));
        assert_eq!(
            e.get("parent").and_then(Value::as_str),
            Some("0000000000000000")
        );
        assert_eq!(e.get("batched"), Some(&Value::Bool(true)));
        assert_eq!(e.get("queue_us").and_then(Value::as_u64), Some(12));
        // Rejects the shapes a header value must never take.
        assert_eq!(parse_hex_id("0123"), None);
        assert_eq!(parse_hex_id("0123456789ABCDEF"), None);
        assert_eq!(parse_hex_id("0123456789abcdeg"), None);
    }

    #[test]
    fn drain_empties_but_keeps_seq_counter() {
        let j = Journal::new(8);
        j.push(note(0));
        j.push(note(1));
        assert_eq!(j.drain().len(), 2);
        assert!(j.is_empty());
        j.push(note(2));
        assert_eq!(j.snapshot()[0].seq, 2, "seq keeps counting after drain");
    }

    #[test]
    fn concurrent_pushes_never_lose_seq() {
        let j = std::sync::Arc::new(Journal::new(100_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let j = std::sync::Arc::clone(&j);
                s.spawn(move || {
                    for i in 0..1000 {
                        j.push(note(i));
                    }
                });
            }
        });
        let recs = j.snapshot();
        assert_eq!(recs.len(), 4000);
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..4000).collect::<Vec<u64>>());
    }
}

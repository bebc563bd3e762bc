//! Reading side of the journal: schema validation, human summaries, and
//! Chrome trace-event conversion. Backs the `gmr-trace` CLI and the
//! round-trip tests.

use crate::journal::{event_fields, parse_hex_id, FieldKind, SCHEMA};
use crate::json::{parse, push_escaped, push_u64, Value};
use std::collections::BTreeMap;

/// A parsed journal: the header object and one [`Value`] per event line.
pub struct ParsedJournal {
    /// The header line.
    pub header: Value,
    /// Event lines, file order.
    pub events: Vec<Value>,
}

/// Parse without validating beyond per-line JSON well-formedness.
pub fn parse_journal(src: &str) -> Result<ParsedJournal, String> {
    let mut lines = src.lines();
    let first = lines.next().ok_or_else(|| "empty journal".to_string())?;
    let header = parse(first).map_err(|e| format!("header line: {e}"))?;
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse(line).map_err(|e| format!("line {}: {e}", i + 2))?);
    }
    Ok(ParsedJournal { header, events })
}

/// An event's `type` tag.
fn type_of(e: &Value) -> Option<&str> {
    e.get("type").and_then(Value::as_str)
}

/// The events tagged `tag`, in file order.
fn of_type<'a>(events: &'a [Value], tag: &'a str) -> impl Iterator<Item = &'a Value> {
    events.iter().filter(move |e| type_of(e) == Some(tag))
}

/// An integer field, 0 when absent or mistyped.
fn num(e: &Value, key: &str) -> u64 {
    e.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// A string field, `default` when absent or mistyped.
fn text<'a>(e: &'a Value, key: &str, default: &'a str) -> &'a str {
    e.get(key).and_then(Value::as_str).unwrap_or(default)
}

/// A field that can hold any `u64` (a run seed, a span's trace-id `arg`),
/// written with [`crate::json::push_u64`]: a number below 2^53, a decimal
/// string from there up.
fn wide_u64(obj: &Value, key: &str) -> Option<u64> {
    obj.get(key).and_then(crate::json::read_u64)
}

/// Push an error for every field in `fields` that `obj` lacks or holds
/// with the wrong kind.
fn require(obj: &Value, fields: &[(&str, FieldKind)], line: usize, errs: &mut Vec<String>) {
    for &(key, kind) in fields {
        if !kind.accepts(obj.get(key)) {
            errs.push(format!(
                "line {line}: field {key:?} must be {}",
                kind.describe()
            ));
        }
    }
}

/// Validate a `gmr-journal/v1` JSONL text. Returns every failure found
/// (empty = valid): bad schema tag, unparsable lines (truncation), event
/// count mismatches, unknown event types, missing or mistyped per-type
/// fields (checked against `journal::EVENT_FIELDS`), and
/// non-monotone `seq` / `t_us`.
pub fn validate(src: &str) -> Vec<String> {
    use FieldKind::Int;
    let mut errs = Vec::new();
    let mut lines = src.lines();
    let Some(first) = lines.next() else {
        return vec!["empty journal".into()];
    };
    let header = match parse(first) {
        Ok(h) => h,
        Err(e) => return vec![format!("header line unparsable: {e}")],
    };
    match header.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => errs.push(format!("schema is {s:?}, expected {SCHEMA:?}")),
        None => errs.push("header missing \"schema\"".into()),
    }
    require(
        &header,
        &[("events", Int), ("dropped", Int), ("next_seq", Int)],
        1,
        &mut errs,
    );

    let mut count = 0usize;
    let mut prev_seq: Option<u64> = None;
    let mut prev_t: Option<u64> = None;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line.trim().is_empty() {
            errs.push(format!("line {lineno}: blank line inside journal"));
            continue;
        }
        let obj = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                errs.push(format!(
                    "line {lineno}: unparsable ({e}) — truncated journal?"
                ));
                continue;
            }
        };
        count += 1;
        require(&obj, &[("seq", Int), ("t_us", Int)], lineno, &mut errs);
        match type_of(&obj) {
            Some(t) => match event_fields(t) {
                Some(fields) => require(&obj, fields, lineno, &mut errs),
                None => errs.push(format!("line {lineno}: unknown event type {t:?}")),
            },
            None => errs.push(format!("line {lineno}: missing \"type\"")),
        }
        if let Some(seq) = obj.get("seq").and_then(Value::as_u64) {
            if let Some(p) = prev_seq {
                if seq <= p {
                    errs.push(format!("line {lineno}: seq {seq} not after {p}"));
                }
            }
            prev_seq = Some(seq);
        }
        if let Some(t) = obj.get("t_us").and_then(Value::as_u64) {
            if let Some(p) = prev_t {
                if t < p {
                    errs.push(format!("line {lineno}: t_us {t} went backwards from {p}"));
                }
            }
            prev_t = Some(t);
        }
    }
    if let Some(declared) = header.get("events").and_then(Value::as_u64) {
        if declared as usize != count {
            errs.push(format!(
                "header declares {declared} events but {count} parsed — truncated journal?"
            ));
        }
    }
    errs
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Served requests sharing one path and status.
#[derive(Default)]
struct AccessAgg {
    count: u64,
    total_us: u64,
    queue_us: u64,
    sim_us: u64,
    batched: u64,
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Render the human summary: top spans, per-generation timing per run
/// (seed), pool utilization, elite lineage, served requests, cache/stall
/// counts. Sums of journal durations saturate at `u64::MAX`.
pub fn summary(src: &str) -> Result<String, String> {
    let j = parse_journal(src)?;
    let mut out = String::new();
    out.push_str(&format!(
        "journal: {} events ({} dropped to the ring bound)\n",
        j.events.len(),
        num(&j.header, "dropped")
    ));

    // --- spans ---
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for e in of_type(&j.events, "span") {
        let dur = num(e, "dur_us");
        let agg = spans.entry(text(e, "name", "?").to_string()).or_default();
        agg.count += 1;
        agg.total_us = agg.total_us.saturating_add(dur);
        agg.max_us = agg.max_us.max(dur);
    }
    if !spans.is_empty() {
        out.push_str("\ntop spans by total time:\n");
        out.push_str(&format!(
            "  {:<22} {:>8} {:>12} {:>10} {:>10}\n",
            "span", "count", "total ms", "mean ms", "max ms"
        ));
        let mut rows: Vec<(&String, &SpanAgg)> = spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_us));
        for (name, agg) in rows.into_iter().take(12) {
            out.push_str(&format!(
                "  {:<22} {:>8} {:>12.3} {:>10.3} {:>10.3}\n",
                name,
                agg.count,
                ms(agg.total_us),
                ms(agg.total_us) / agg.count.max(1) as f64,
                ms(agg.max_us)
            ));
        }
    }

    // --- per-generation tables, grouped by seed ---
    let mut by_seed: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
    for e in of_type(&j.events, "gen") {
        let seed = wide_u64(e, "seed").unwrap_or(0);
        by_seed.entry(seed).or_default().push(e);
    }
    for (seed, gens) in &by_seed {
        out.push_str(&format!("\nrun seed {seed}: {} generations\n", gens.len()));
        out.push_str(&format!(
            "  {:>4} {:>12} {:>12} {:>8} {:>8} {:>8} {:>10}\n",
            "gen", "best", "mean", "evals", "fulls", "shorts", "ms"
        ));
        let shown: Vec<&&Value> = if gens.len() > 12 {
            gens.iter()
                .take(6)
                .chain(gens.iter().rev().take(6).rev())
                .collect()
        } else {
            gens.iter().collect()
        };
        let mut last_gen = None;
        for e in shown {
            let gen = num(e, "generation");
            if let Some(lg) = last_gen {
                if gen > lg + 1 {
                    out.push_str("   ...\n");
                }
            }
            last_gen = Some(gen);
            let best = e.get("best").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let mean = e.get("mean").and_then(Value::as_f64).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "  {:>4} {:>12.4} {:>12.4} {:>8} {:>8} {:>8} {:>10.2}\n",
                gen,
                best,
                mean,
                num(e, "d_evals"),
                num(e, "d_fulls"),
                num(e, "d_shorts"),
                ms(num(e, "elapsed_us")),
            ));
        }
    }

    // --- pool utilization: the final round event per seed carries the
    // cumulative busy/idle totals ---
    let mut last_round: BTreeMap<u64, &Value> = BTreeMap::new();
    for e in of_type(&j.events, "round") {
        last_round.insert(wide_u64(e, "seed").unwrap_or(0), e);
    }
    if !last_round.is_empty() {
        out.push_str("\npool utilization (cumulative at last round):\n");
        for (seed, e) in &last_round {
            let (busy, idle) = (num(e, "busy_us"), num(e, "idle_us"));
            let util = match busy.saturating_add(idle) {
                0 => 0.0,
                total => 100.0 * busy as f64 / total as f64,
            };
            out.push_str(&format!(
                "  seed {seed}: {} rounds, {} workers, {} candidates, busy {:.1} ms / idle {:.1} ms ({util:.1}% busy)\n",
                num(e, "round"),
                num(e, "workers"),
                num(e, "candidates"),
                ms(busy),
                ms(idle),
            ));
        }
    }

    // --- elite lineage ---
    let elites: Vec<&Value> = of_type(&j.events, "elite").collect();
    if !elites.is_empty() {
        out.push_str(&format!("\nelite changes: {}\n", elites.len()));
        for e in elites.iter().take(10) {
            out.push_str(&format!(
                "  seed {} gen {:>4}: fitness {:.5} (size {}, via {})\n",
                wide_u64(e, "seed").unwrap_or(0),
                num(e, "generation"),
                e.get("fitness").and_then(Value::as_f64).unwrap_or(f64::NAN),
                num(e, "size"),
                text(e, "origin", "?"),
            ));
        }
        if elites.len() > 10 {
            out.push_str(&format!("  ... and {} more\n", elites.len() - 10));
        }
    }

    // --- served requests (the `access` log) ---
    let mut access: BTreeMap<(String, u64), AccessAgg> = BTreeMap::new();
    for e in of_type(&j.events, "access") {
        let key = (text(e, "path", "?").to_string(), num(e, "status"));
        let agg = access.entry(key).or_default();
        agg.count += 1;
        agg.total_us = agg.total_us.saturating_add(num(e, "dur_us"));
        agg.queue_us = agg.queue_us.saturating_add(num(e, "queue_us"));
        agg.sim_us = agg.sim_us.saturating_add(num(e, "sim_us"));
        if e.get("batched").and_then(Value::as_bool) == Some(true) {
            agg.batched += 1;
        }
    }
    if !access.is_empty() {
        out.push_str("\nserved requests by path and status:\n");
        out.push_str(&format!(
            "  {:<16} {:>6} {:>8} {:>10} {:>10} {:>10} {:>8}\n",
            "path", "status", "count", "mean ms", "queue ms", "sim ms", "batched"
        ));
        for ((path, status), a) in &access {
            let mean = |us: u64| ms(us) / a.count as f64;
            out.push_str(&format!(
                "  {path:<16} {status:>6} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>7.1}%\n",
                a.count,
                mean(a.total_us),
                mean(a.queue_us),
                mean(a.sim_us),
                100.0 * a.batched as f64 / a.count as f64,
            ));
        }
    }

    let evicts = of_type(&j.events, "cache_evict").count();
    let stalls = of_type(&j.events, "stall").count();
    out.push_str(&format!(
        "\ncache eviction waves: {evicts}   worker stall warnings: {stalls}\n"
    ));
    Ok(out)
}

/// The synthetic Chrome tid `access` events render on (they carry no
/// worker thread id of their own).
const ACCESS_TID: u64 = 1_000_000;

/// Chrome trace-event JSON under construction: the
/// `{"traceEvents": [...]}` form Perfetto and `about://tracing` load.
struct ChromeTrace {
    out: String,
    first: bool,
}

impl ChromeTrace {
    fn new() -> ChromeTrace {
        ChromeTrace {
            out: String::from("{\"traceEvents\": [\n"),
            first: true,
        }
    }

    fn push(&mut self, event: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("  ");
        self.out.push_str(event);
    }

    /// A flow arrow `name`/`id` from `pid`'s access track at `ts` to the
    /// slice enclosing `to`.
    fn push_flow(&mut self, name: &str, id: &str, pid: usize, ts: u64, to: &Hit) {
        self.push(&format!(
            "{{\"name\": \"{name}\", \"cat\": \"trace\", \"ph\": \"s\", \"id\": \"{id}\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \"ts\": {ts}}}"
        ));
        self.push(&format!(
            "{{\"name\": \"{name}\", \"cat\": \"trace\", \"ph\": \"f\", \"bp\": \"e\", \"id\": \"{id}\", \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
            to.pid, to.tid, to.ts
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// `s` as a JSON string literal.
fn escaped(s: &str) -> String {
    let mut out = String::new();
    push_escaped(&mut out, s);
    out
}

/// A span's `arg` as Chrome `args`, rendered so that a trace id above 2^53
/// keeps every bit; empty when the span has none.
fn span_args(e: &Value) -> String {
    let Some(a) = wide_u64(e, "arg") else {
        return String::new();
    };
    let mut out = String::from(", \"args\": {\"arg\": ");
    push_u64(&mut out, a);
    out.push('}');
    out
}

/// Where an `access` event starts on a timeline shifted by `offset` µs:
/// the event is journaled when the response is written, so it covers
/// `[t_us - dur_us, t_us]`.
fn access_start(e: &Value, offset: u64) -> u64 {
    num(e, "t_us")
        .saturating_sub(num(e, "dur_us"))
        .saturating_add(offset)
}

/// Render one journal's events as Chrome trace events of process `pid`, on
/// a timeline shifted by `offset` µs (times saturate rather than wrap):
/// spans and `access` events become `X` complete events (`access` on its
/// own track), `gen` best fitness a `C` counter track, `elite` and
/// `stall` events `i` instants; then a `thread_name` record for every
/// span thread and, when the journal served requests, the access track.
fn render_process(chrome: &mut ChromeTrace, events: &[Value], pid: usize, offset: u64) {
    let mut tids: Vec<u64> = Vec::new();
    let mut served = false;
    for e in events {
        let ts = num(e, "t_us").saturating_add(offset);
        match type_of(e) {
            Some("span") => {
                let tid = num(e, "tid");
                if !tids.contains(&tid) {
                    tids.push(tid);
                }
                chrome.push(&format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \"dur\": {}{}}}",
                    escaped(text(e, "name", "?")),
                    num(e, "start_us").saturating_add(offset),
                    num(e, "dur_us"),
                    span_args(e),
                ));
            }
            Some("gen") => {
                let seed = wide_u64(e, "seed").unwrap_or(0);
                if let Some(best) = e.get("best").and_then(Value::as_f64) {
                    if best.is_finite() {
                        chrome.push(&format!(
                            "{{\"name\": \"best fitness (seed {seed})\", \"ph\": \"C\", \"pid\": {pid}, \"ts\": {ts}, \"args\": {{\"best\": {best}}}}}"
                        ));
                    }
                }
            }
            Some("elite") => {
                let name = format!(
                    "elite via {} (seed {})",
                    text(e, "origin", "?"),
                    wide_u64(e, "seed").unwrap_or(0)
                );
                chrome.push(&format!(
                    "{{\"name\": {}, \"ph\": \"i\", \"s\": \"g\", \"pid\": {pid}, \"tid\": 0, \"ts\": {ts}}}",
                    escaped(&name)
                ));
            }
            Some("stall") => {
                let worker = num(e, "worker");
                chrome.push(&format!(
                    "{{\"name\": \"worker {worker} stalled\", \"ph\": \"i\", \"s\": \"p\", \"pid\": {pid}, \"tid\": {worker}, \"ts\": {ts}}}"
                ));
            }
            Some("access") => {
                served = true;
                let mut args = String::new();
                for key in ["trace", "span", "parent", "model", "table"] {
                    args.push_str(&format!(", \"{key}\": {}", escaped(text(e, key, ""))));
                }
                chrome.push(&format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"status\": {}, \"queue_us\": {}, \
                     \"sim_us\": {}, \"shed\": {}, \"batched\": {}{args}}}}}",
                    escaped(&format!("access {}", text(e, "path", "?"))),
                    access_start(e, offset),
                    num(e, "dur_us"),
                    num(e, "status"),
                    num(e, "queue_us"),
                    num(e, "sim_us"),
                    e.get("shed").and_then(Value::as_bool).unwrap_or(false),
                    e.get("batched").and_then(Value::as_bool).unwrap_or(false),
                ));
            }
            _ => {}
        }
    }
    for tid in tids {
        chrome.push(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"worker-{tid}\"}}}}"
        ));
    }
    if served {
        chrome.push(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \"args\": {{\"name\": \"access\"}}}}"
        ));
    }
}

/// Convert to Chrome trace-event JSON (the `{"traceEvents": [...]}` form
/// Perfetto and `about://tracing` load): the journal as one process, see
/// [`stitch`] for several.
pub fn to_chrome(src: &str) -> Result<String, String> {
    let j = parse_journal(src)?;
    let mut chrome = ChromeTrace::new();
    render_process(&mut chrome, &j.events, 1, 0);
    Ok(chrome.finish())
}

/// The result of stitching one gateway journal plus N backend journals.
pub struct Stitched {
    /// Chrome trace-event JSON covering every process.
    pub chrome: String,
    /// Gateway `/simulate` hops that carried a trace id and succeeded.
    pub hops: usize,
    /// Hops that resolved to exactly one backend `access` span.
    pub resolved: usize,
    /// Human-readable descriptions of every unresolved or ambiguous hop.
    pub orphans: Vec<String>,
}

/// Where a flow arrow ends: an aligned event start on one process's track.
struct Hit {
    pid: usize,
    ts: u64,
    tid: u64,
}

/// Merge journals from the gateway (first input) and its backends (the
/// rest) into one cross-process Chrome trace: one `pid` per process, each
/// rendered as [`to_chrome`] renders one journal on a wall-clock-aligned
/// timeline, and flow arrows connecting each gateway hop to the backend
/// `access` span that served it and each backend `access` span to the
/// VM-sweep span its simulation ran in (batch members fan into their
/// shared sweep).
///
/// Inputs are `(label, jsonl)` pairs. Every journal is strictly
/// validated first; any validation failure aborts the stitch. A
/// successfully proxied gateway `/simulate` hop (status 200) that does
/// not match exactly one backend `access` event is reported in
/// `orphans` — the CLI turns a non-empty list into a non-zero exit.
pub fn stitch(inputs: &[(String, String)]) -> Result<Stitched, String> {
    if inputs.len() < 2 {
        return Err("stitch needs a gateway journal plus at least one backend journal".into());
    }
    let mut parsed = Vec::new();
    for (label, src) in inputs {
        let errs = validate(src);
        if !errs.is_empty() {
            return Err(format!("journal {label:?} invalid: {}", errs.join("; ")));
        }
        let j = parse_journal(src)?;
        let t0 = j
            .header
            .get("t0_unix_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| {
                format!("journal {label:?} has no t0_unix_us anchor — cannot align timelines")
            })?;
        parsed.push((label.as_str(), t0, j));
    }
    let base = parsed.iter().map(|(_, t0, _)| *t0).min().unwrap_or(0);

    // Backend access events by trace id, and per-backend sweep spans by
    // trace id (the batcher stamps each member span's `arg` with the
    // member's trace id), collected up front so the gateway's hops
    // resolve in one pass.
    let mut backend_access: BTreeMap<&str, Vec<Hit>> = BTreeMap::new();
    let mut sweep_members: BTreeMap<(usize, u64), Vec<Hit>> = BTreeMap::new();
    for (pid0, (_, t0, j)) in parsed.iter().enumerate().skip(1) {
        let pid = pid0 + 1;
        let offset = t0 - base;
        for e in &j.events {
            match type_of(e) {
                Some("access") => {
                    if let Some(trace) = e.get("trace").and_then(Value::as_str) {
                        backend_access.entry(trace).or_default().push(Hit {
                            pid,
                            ts: access_start(e, offset),
                            tid: ACCESS_TID,
                        });
                    }
                }
                Some("span") if text(e, "name", "") == "serve.sweep.member" => {
                    if let Some(trace) = wide_u64(e, "arg") {
                        sweep_members.entry((pid, trace)).or_default().push(Hit {
                            pid,
                            ts: num(e, "start_us").saturating_add(offset),
                            tid: num(e, "tid"),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    let mut chrome = ChromeTrace::new();
    let mut hops = 0usize;
    let mut resolved = 0usize;
    let mut orphans = Vec::new();
    for (pid0, (label, t0, j)) in parsed.iter().enumerate() {
        let pid = pid0 + 1;
        let offset = t0 - base;
        chrome.push(&format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": {}}}}}",
            escaped(label)
        ));
        render_process(&mut chrome, &j.events, pid, offset);
        for e in of_type(&j.events, "access") {
            // `validate` passed, so the id is 16 hex digits: safe to
            // splice into a flow id unescaped.
            let trace = text(e, "trace", "");
            let start = access_start(e, offset);
            if pid == 1 {
                // A successfully proxied simulate hop must have landed on
                // exactly one backend.
                if text(e, "path", "") != "gw:/simulate" || num(e, "status") != 200 {
                    continue;
                }
                hops += 1;
                match backend_access.get(trace).map(Vec::as_slice) {
                    Some([hit]) => {
                        resolved += 1;
                        chrome.push_flow("hop", trace, 1, start, hit);
                    }
                    Some(hits) => orphans.push(format!(
                        "trace {trace}: gateway hop matches {} backend access spans",
                        hits.len()
                    )),
                    None => orphans.push(format!(
                        "trace {trace}: gateway hop has no backend access span"
                    )),
                }
            } else if let Some(id) = parse_hex_id(trace) {
                // Backend access → the sweep-member span its simulation
                // ran in (batch members share a sweep).
                for hit in sweep_members.get(&(pid, id)).into_iter().flatten() {
                    chrome.push_flow("sweep", &format!("{trace}-sweep"), pid, start, hit);
                }
            }
        }
    }
    Ok(Stitched {
        chrome: chrome.finish(),
        hops,
        resolved,
        orphans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Event, Journal};

    fn sample_journal() -> String {
        let j = Journal::new(256);
        for e in crate::journal::every_event() {
            j.push(e);
        }
        j.to_jsonl()
    }

    #[test]
    fn valid_journal_passes() {
        let errs = validate(&sample_journal());
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn wrapped_ring_round_trips_through_the_strict_parser() {
        // Overfill a tiny ring: the flushed JSONL must still validate, and
        // the parsed header must account for every dropped event.
        let j = Journal::new(8);
        for i in 0..20u64 {
            j.push(Event::Note {
                name: "wrap",
                msg: format!("event {i}"),
            });
        }
        let text = j.to_jsonl();
        let errs = validate(&text);
        assert!(errs.is_empty(), "{errs:?}");
        let parsed = parse_journal(&text).expect("round-trip parse");
        assert_eq!(parsed.events.len(), 8);
        let h = |k| parsed.header.get(k).and_then(Value::as_u64);
        assert_eq!(h("dropped"), Some(12));
        assert_eq!(h("next_seq"), Some(20));
        // The survivors are the newest events, seq-contiguous.
        let seq = |v: &Value| v.get("seq").and_then(Value::as_u64);
        assert_eq!(seq(parsed.events.first().unwrap()), Some(12));
        assert_eq!(seq(parsed.events.last().unwrap()), Some(19));
    }

    #[test]
    fn truncated_journal_fails() {
        let text = sample_journal();
        // Cut mid-way through the final line.
        let cut = &text[..text.len() - 20];
        let errs = validate(cut);
        assert!(!errs.is_empty(), "truncation must be detected");
        assert!(errs.iter().any(|e| e.contains("truncated")), "{errs:?}");
    }

    #[test]
    fn wrong_schema_fails() {
        let text = sample_journal().replace("gmr-journal/v1", "gmr-journal/v0");
        assert!(validate(&text).iter().any(|e| e.contains("schema")));
    }

    #[test]
    fn unknown_event_type_fails() {
        // `request` and `metrics` were event types of earlier builds.
        for tag in ["mystery", "request", "metrics"] {
            let text =
                sample_journal().replace("\"type\": \"gen\"", &format!("\"type\": \"{tag}\""));
            let want = format!("unknown event type {tag:?}");
            assert!(validate(&text).iter().any(|e| e.contains(&want)), "{tag}");
        }
    }

    #[test]
    fn garbage_line_fails() {
        let mut text = sample_journal();
        text.push_str("not json at all\n");
        assert!(!validate(&text).is_empty());
    }

    #[test]
    fn summary_mentions_spans_pool_and_elites() {
        let s = summary(&sample_journal()).unwrap();
        assert!(s.contains("gen.evaluate"), "{s}");
        assert!(s.contains("pool utilization"), "{s}");
        assert!(s.contains("elite changes"), "{s}");
        assert!(s.contains("seed 42"), "{s}");
        assert!(s.contains("served requests by path and status"), "{s}");
        assert!(s.contains("/simulate"), "{s}");
    }

    /// A duration `validate` accepts that overflows when summed twice.
    const HUGE_US: u64 = 18_446_744_073_709_549_568;

    fn huge_span(start_us: u64, dur_us: u64) -> Event {
        Event::Span {
            name: "huge",
            tid: 0,
            depth: 0,
            start_us,
            dur_us,
            arg: None,
        }
    }

    #[test]
    fn summary_saturates_durations_past_u64_max() {
        let j = Journal::new(8);
        j.push(huge_span(0, HUGE_US));
        j.push(huge_span(0, HUGE_US));
        let text = j.to_jsonl();
        assert!(validate(&text).is_empty());
        let s = summary(&text).unwrap();
        assert!(s.contains("huge"), "{s}");
    }

    /// `j` as JSONL with its header's wall-clock anchor set to `t0`.
    fn anchored(j: &Journal, t0: u64) -> String {
        let text = j.to_jsonl();
        let (head, rest) = text.split_once('\n').unwrap();
        let at = head.find("\"t0_unix_us\"").unwrap();
        format!("{}\"t0_unix_us\": {t0}}}\n{rest}", &head[..at])
    }

    #[test]
    fn stitch_saturates_shifted_times_past_u64_max() {
        let be = Journal::new(8);
        be.push(huge_span(HUGE_US, 1));
        let inputs = vec![
            ("gateway".to_string(), anchored(&Journal::new(8), 0)),
            ("backend-0".to_string(), anchored(&be, 1_000_000)),
        ];
        assert!(inputs.iter().all(|(_, j)| validate(j).is_empty()));
        let s = stitch(&inputs).expect("stitch");
        let v = crate::json::parse(&s.chrome).expect("chrome JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("huge"))
            .expect("span rendered");
        assert_eq!(
            span.get("ts").and_then(Value::as_f64),
            Some(u64::MAX as f64)
        );
    }

    fn access(trace: u64, parent: u64, path: &'static str, status: u16) -> Event {
        Event::Access {
            trace,
            span: trace ^ 0xff,
            parent,
            method: "POST".into(),
            path,
            model: "m".into(),
            table: "t".into(),
            status,
            shed: false,
            batched: true,
            queue_us: 5,
            sim_us: 80,
            dur_us: 100,
        }
    }

    /// Stitch a gateway and a backend journal carrying two proxied hops,
    /// the first of which ran inside a sweep-member span, and check every
    /// flow start and end is emitted.
    fn assert_stitches_hops_and_sweep_member(a: u64, b: u64) {
        let gw = Journal::new(64);
        gw.push(access(a, 0, "gw:/simulate", 200));
        gw.push(access(b, 0, "gw:/simulate", 200));
        let be = Journal::new(64);
        be.push(access(a, a ^ 0xff, "/simulate", 200));
        be.push(access(b, b ^ 0xff, "/simulate", 200));
        be.push(Event::Span {
            name: "serve.sweep.member",
            tid: 3,
            depth: 1,
            start_us: 50,
            dur_us: 80,
            arg: Some(a),
        });
        let inputs = vec![
            ("gateway".to_string(), gw.to_jsonl()),
            ("backend-0".to_string(), be.to_jsonl()),
        ];
        let s = stitch(&inputs).expect("stitch");
        assert_eq!(s.hops, 2);
        assert_eq!(s.resolved, 2);
        assert!(s.orphans.is_empty(), "{:?}", s.orphans);
        let v = crate::json::parse(&s.chrome).expect("chrome JSON");
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let ph = |tag: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(tag))
                .count()
        };
        assert_eq!(ph("s"), 3, "2 hop flows + 1 sweep flow start");
        assert_eq!(ph("f"), 3);
        assert!(events
            .iter()
            .any(|e| e.get("pid").and_then(Value::as_u64) == Some(2)));
        // Both hop flow ids carry the greppable hex trace id.
        assert!(s.chrome.contains(&crate::journal::hex_id(a)));
        // The member span's Chrome `args` keep the trace id bit for bit.
        let member = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("serve.sweep.member"))
            .expect("member span rendered");
        let arg = member.get("args").and_then(|x| x.get("arg"));
        assert_eq!(arg.and_then(crate::json::read_u64), Some(a));
    }

    #[test]
    fn stitch_connects_gateway_hops_to_backend_spans() {
        assert_stitches_hops_and_sweep_member(0xaaaa, 0xbbbb);
    }

    #[test]
    fn stitch_links_sweep_spans_by_trace_ids_above_2_pow_53() {
        // Trace ids are `splitmix64` outputs, almost always 2^53 or more,
        // which an `f64` cannot hold exactly: the member span's `arg` must
        // round-trip bit for bit, or its sweep flow is lost.
        assert_stitches_hops_and_sweep_member(0xaaaa_bbbb_cccc_dddd, 0x1111_2222_3333_4444);
    }

    #[test]
    fn seeds_above_2_pow_53_validate_and_render_exactly() {
        let j = Journal::new(16);
        for mut e in crate::journal::every_event() {
            match &mut e {
                Event::Gen { seed, .. } | Event::EliteChange { seed, .. } => *seed = u64::MAX,
                Event::Round { seed, .. } => *seed = u64::MAX - 1,
                _ => {}
            }
            j.push(e);
        }
        let text = j.to_jsonl();
        let errs = validate(&text);
        assert!(errs.is_empty(), "{errs:?}");
        let s = summary(&text).unwrap();
        assert!(s.contains(&format!("run seed {}", u64::MAX)), "{s}");
        assert!(s.contains(&format!("seed {} gen", u64::MAX)), "{s}");
        assert!(s.contains(&format!("seed {}:", u64::MAX - 1)), "{s}");
        let chrome = to_chrome(&text).unwrap();
        assert!(chrome.contains(&format!("(seed {})", u64::MAX)), "{chrome}");
        // Below 2^53 a seed still renders as a plain JSON number.
        assert!(sample_journal().contains("\"seed\": 42,"));
    }

    #[test]
    fn stitch_reports_orphaned_hops_and_rejects_invalid_journals() {
        let gw = Journal::new(64);
        gw.push(access(0xcccc, 0, "gw:/simulate", 200));
        let be = Journal::new(64);
        be.push(access(0xdddd, 0, "/simulate", 200));
        let inputs = vec![
            ("gateway".to_string(), gw.to_jsonl()),
            ("backend-0".to_string(), be.to_jsonl()),
        ];
        let s = stitch(&inputs).expect("stitch");
        assert_eq!(s.hops, 1);
        assert_eq!(s.resolved, 0);
        assert_eq!(s.orphans.len(), 1);
        assert!(s.orphans[0].contains("no backend access span"));
        // A truncated backend journal aborts the stitch entirely.
        let text = be.to_jsonl();
        let cut = text[..text.len() - 10].to_string();
        let bad = vec![
            ("gateway".to_string(), gw.to_jsonl()),
            ("b".to_string(), cut),
        ];
        assert!(stitch(&bad).is_err());
        // A lone journal is not a stitch.
        assert!(stitch(&inputs[..1]).is_err());
    }

    #[test]
    fn chrome_output_is_valid_json_with_x_events() {
        let chrome = to_chrome(&sample_journal()).unwrap();
        let v = crate::json::parse(&chrome).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
    }

    /// Every reader over `text`; `stitch` pairs it with the fixture
    /// anchored at the epoch, which shifts `text`'s times by its whole
    /// wall-clock anchor. Panicking is the failure the properties below
    /// look for.
    fn read_all(text: &str) {
        let _ = validate(text);
        let _ = summary(text);
        let _ = to_chrome(text);
        let epoch = anchored(&Journal::new(1), 0);
        let _ = stitch(&[("a".into(), epoch.clone()), ("b".into(), text.into())]);
        let _ = stitch(&[("a".into(), text.into()), ("b".into(), epoch)]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn truncated_journals_never_panic_a_reader(cut in 0.0_f64..1.0) {
            let text = sample_journal();
            let mut at = (text.len() as f64 * cut) as usize;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            read_all(&text[..at]);
        }

        #[test]
        fn byte_flipped_journals_never_panic_a_reader(
            flips in prop::collection::vec((0.0_f64..1.0, any::<u8>()), 1..6),
        ) {
            let mut bytes = sample_journal().into_bytes();
            for (pos, byte) in flips {
                let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
                bytes[at] = byte;
            }
            read_all(&String::from_utf8_lossy(&bytes));
        }

        /// Rewrites whole numbers, so most edits keep the journal valid
        /// and reach the renderers, often with the largest integer a
        /// journal can hold.
        #[test]
        fn digit_edited_journals_never_panic_a_reader(
            edits in prop::collection::vec(
                (0.0_f64..1.0, prop_oneof![Just(HUGE_US), any::<u64>(), 0u64..1000]),
                1..6,
            ),
        ) {
            let mut text = sample_journal();
            for (pos, value) in edits {
                let digits: Vec<usize> = text
                    .bytes()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                let at = digits[((digits.len() as f64 * pos) as usize).min(digits.len() - 1)];
                let bytes = text.as_bytes();
                let start = (0..at).rev().take_while(|&i| bytes[i].is_ascii_digit()).last().unwrap_or(at);
                let end = (at..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(bytes.len());
                text.replace_range(start..end, &value.to_string());
            }
            read_all(&text);
        }
    }
}

//! Reading side of the journal: schema validation, human summaries, and
//! Chrome trace-event conversion. Backs the `gmr-trace` CLI and the
//! round-trip tests.

use crate::journal::SCHEMA;
use crate::json::{parse, Value};
use std::collections::BTreeMap;

/// Event `type` tags the validator accepts.
pub const KNOWN_TYPES: [&str; 11] = [
    "span",
    "gen",
    "elite",
    "cache_evict",
    "round",
    "stall",
    "metrics",
    "note",
    "request",
    "access",
    "backend",
];

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

fn require_u64(obj: &Value, key: &str, line: usize, errs: &mut Vec<String>) {
    if obj.get(key).and_then(Value::as_u64).is_none() {
        errs.push(format!("line {line}: missing or non-integer field {key:?}"));
    }
}

fn require_str(obj: &Value, key: &str, line: usize, errs: &mut Vec<String>) {
    if obj.get(key).and_then(Value::as_str).is_none() {
        errs.push(format!("line {line}: missing or non-string field {key:?}"));
    }
}

fn require_bool(obj: &Value, key: &str, line: usize, errs: &mut Vec<String>) {
    if obj.get(key).and_then(Value::as_bool).is_none() {
        errs.push(format!("line {line}: missing or non-boolean field {key:?}"));
    }
}

fn require_hex_id(obj: &Value, key: &str, line: usize, errs: &mut Vec<String>) {
    let ok = obj
        .get(key)
        .and_then(Value::as_str)
        .and_then(crate::journal::parse_hex_id)
        .is_some();
    if !ok {
        errs.push(format!(
            "line {line}: field {key:?} must be a 16-digit lowercase hex id"
        ));
    }
}

fn require_num_or_null(obj: &Value, key: &str, line: usize, errs: &mut Vec<String>) {
    match obj.get(key) {
        Some(Value::Num(_)) | Some(Value::Null) => {}
        _ => errs.push(format!(
            "line {line}: missing field {key:?} (number or null)"
        )),
    }
}

/// Validate a `gmr-journal/v1` JSONL text. Returns every failure found
/// (empty = valid): bad schema tag, unparsable lines (truncation), event
/// count mismatches, unknown event types, missing per-type fields, and
/// non-monotone `seq` / `t_us`.
pub fn validate(src: &str) -> Vec<String> {
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
    for key in ["events", "dropped", "next_seq"] {
        require_u64(&header, key, 1, &mut errs);
    }

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
        require_u64(&obj, "seq", lineno, &mut errs);
        require_u64(&obj, "t_us", lineno, &mut errs);
        let ty = obj.get("type").and_then(Value::as_str);
        match ty {
            Some(t) if KNOWN_TYPES.contains(&t) => {}
            Some(t) => errs.push(format!("line {lineno}: unknown event type {t:?}")),
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
        match ty {
            Some("span") => {
                require_str(&obj, "name", lineno, &mut errs);
                for key in ["tid", "depth", "start_us", "dur_us"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
            }
            Some("gen") => {
                for key in [
                    "seed",
                    "generation",
                    "evaluations",
                    "steps",
                    "elapsed_us",
                    "d_evals",
                    "d_fulls",
                    "d_shorts",
                    "d_cache_hits",
                    "d_cache_misses",
                ] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
                require_num_or_null(&obj, "best", lineno, &mut errs);
                require_num_or_null(&obj, "mean", lineno, &mut errs);
            }
            Some("elite") => {
                for key in ["seed", "generation", "size"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
                require_num_or_null(&obj, "fitness", lineno, &mut errs);
                require_str(&obj, "origin", lineno, &mut errs);
            }
            Some("cache_evict") => {
                for key in ["shed_surrogate", "shed_full", "len_after"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
            }
            Some("round") => {
                require_str(&obj, "kind", lineno, &mut errs);
                for key in [
                    "seed",
                    "round",
                    "len",
                    "workers",
                    "candidates",
                    "steals",
                    "busy_us",
                    "idle_us",
                ] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
            }
            Some("stall") => {
                for key in ["round", "worker", "round_us"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
            }
            Some("metrics") => {
                require_str(&obj, "scope", lineno, &mut errs);
                if !matches!(obj.get("registry"), Some(Value::Obj(_))) {
                    errs.push(format!("line {lineno}: \"registry\" must be an object"));
                }
            }
            Some("note") => {
                require_str(&obj, "name", lineno, &mut errs);
                require_str(&obj, "msg", lineno, &mut errs);
            }
            Some("request") => {
                require_str(&obj, "endpoint", lineno, &mut errs);
                for key in ["status", "dur_us", "batch"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
            }
            Some("access") => {
                for key in ["trace", "span", "parent"] {
                    require_hex_id(&obj, key, lineno, &mut errs);
                }
                for key in ["method", "path", "model", "table"] {
                    require_str(&obj, key, lineno, &mut errs);
                }
                for key in ["status", "queue_us", "sim_us", "dur_us"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
                for key in ["shed", "batched"] {
                    require_bool(&obj, key, lineno, &mut errs);
                }
            }
            Some("backend") => {
                for key in ["idx", "restarts"] {
                    require_u64(&obj, key, lineno, &mut errs);
                }
                for key in ["addr", "state"] {
                    require_str(&obj, key, lineno, &mut errs);
                }
            }
            _ => {}
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

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Render the human summary: top spans, per-generation timing per run
/// (seed), pool utilization, elite lineage, cache/stall counts.
pub fn summary(src: &str) -> Result<String, String> {
    let j = parse_journal(src)?;
    let mut out = String::new();
    let dropped = j.header.get("dropped").and_then(Value::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "journal: {} events ({} dropped to the ring bound)\n",
        j.events.len(),
        dropped
    ));

    // --- spans ---
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for e in &j.events {
        if e.get("type").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let name = e.get("name").and_then(Value::as_str).unwrap_or("?");
        let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
        let agg = spans.entry(name.to_string()).or_default();
        agg.count += 1;
        agg.total_us += dur;
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
    for e in &j.events {
        if e.get("type").and_then(Value::as_str) == Some("gen") {
            let seed = e.get("seed").and_then(Value::as_u64).unwrap_or(0);
            by_seed.entry(seed).or_default().push(e);
        }
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
            let gen = e.get("generation").and_then(Value::as_u64).unwrap_or(0);
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
                e.get("d_evals").and_then(Value::as_u64).unwrap_or(0),
                e.get("d_fulls").and_then(Value::as_u64).unwrap_or(0),
                e.get("d_shorts").and_then(Value::as_u64).unwrap_or(0),
                ms(e.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0)),
            ));
        }
    }

    // --- pool utilization: the final round event per seed carries the
    // cumulative busy/idle totals ---
    let mut last_round: BTreeMap<u64, &Value> = BTreeMap::new();
    for e in &j.events {
        if e.get("type").and_then(Value::as_str) == Some("round") {
            let seed = e.get("seed").and_then(Value::as_u64).unwrap_or(0);
            last_round.insert(seed, e);
        }
    }
    if !last_round.is_empty() {
        out.push_str("\npool utilization (cumulative at last round):\n");
        for (seed, e) in &last_round {
            let busy = e.get("busy_us").and_then(Value::as_u64).unwrap_or(0);
            let idle = e.get("idle_us").and_then(Value::as_u64).unwrap_or(0);
            let util = if busy + idle == 0 {
                0.0
            } else {
                100.0 * busy as f64 / (busy + idle) as f64
            };
            out.push_str(&format!(
                "  seed {seed}: {} rounds, {} workers, {} candidates, {} steals, busy {:.1} ms / idle {:.1} ms ({util:.1}% busy)\n",
                e.get("round").and_then(Value::as_u64).unwrap_or(0),
                e.get("workers").and_then(Value::as_u64).unwrap_or(0),
                e.get("candidates").and_then(Value::as_u64).unwrap_or(0),
                e.get("steals").and_then(Value::as_u64).unwrap_or(0),
                ms(busy),
                ms(idle),
            ));
        }
    }

    // --- elite lineage ---
    let elites: Vec<&Value> = j
        .events
        .iter()
        .filter(|e| e.get("type").and_then(Value::as_str) == Some("elite"))
        .collect();
    if !elites.is_empty() {
        out.push_str(&format!("\nelite changes: {}\n", elites.len()));
        for e in elites.iter().take(10) {
            out.push_str(&format!(
                "  seed {} gen {:>4}: fitness {:.5} (size {}, via {})\n",
                e.get("seed").and_then(Value::as_u64).unwrap_or(0),
                e.get("generation").and_then(Value::as_u64).unwrap_or(0),
                e.get("fitness").and_then(Value::as_f64).unwrap_or(f64::NAN),
                e.get("size").and_then(Value::as_u64).unwrap_or(0),
                e.get("origin").and_then(Value::as_str).unwrap_or("?"),
            ));
        }
        if elites.len() > 10 {
            out.push_str(&format!("  ... and {} more\n", elites.len() - 10));
        }
    }

    // --- served requests (the serving stack's access log) ---
    let mut req_agg: BTreeMap<(String, u64), (u64, u64, u64)> = BTreeMap::new();
    for e in &j.events {
        if e.get("type").and_then(Value::as_str) != Some("request") {
            continue;
        }
        let endpoint = e
            .get("endpoint")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let status = e.get("status").and_then(Value::as_u64).unwrap_or(0);
        let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
        let batch = e.get("batch").and_then(Value::as_u64).unwrap_or(0);
        let slot = req_agg.entry((endpoint, status)).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += dur;
        slot.2 += batch;
    }
    if !req_agg.is_empty() {
        out.push_str(&format!(
            "\n{:<16} {:>6} {:>8} {:>10} {:>10}\n",
            "endpoint", "status", "count", "mean ms", "mean batch"
        ));
        for ((endpoint, status), (count, dur_us, batch)) in &req_agg {
            out.push_str(&format!(
                "{endpoint:<16} {status:>6} {count:>8} {:>10.3} {:>10.2}\n",
                ms(*dur_us / (*count).max(1)),
                *batch as f64 / (*count).max(1) as f64,
            ));
        }
    }

    let count_of = |tag: &str| {
        j.events
            .iter()
            .filter(|e| e.get("type").and_then(Value::as_str) == Some(tag))
            .count()
    };
    let (evicts, stalls) = (count_of("cache_evict"), count_of("stall"));
    out.push_str(&format!(
        "\ncache eviction waves: {evicts}   worker stall warnings: {stalls}\n"
    ));
    Ok(out)
}

/// Convert to Chrome trace-event JSON (the `{"traceEvents": [...]}` form
/// Perfetto and `about://tracing` load): spans become `X` complete events,
/// generation stats become `C` counter tracks, elite changes become `i`
/// instants.
pub fn to_chrome(src: &str) -> Result<String, String> {
    let j = parse_journal(src)?;
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&body);
    };
    let mut tids_seen: Vec<u64> = Vec::new();
    for e in &j.events {
        let t_us = e.get("t_us").and_then(Value::as_u64).unwrap_or(0);
        match e.get("type").and_then(Value::as_str) {
            Some("span") => {
                let name = e.get("name").and_then(Value::as_str).unwrap_or("?");
                let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
                let start = e.get("start_us").and_then(Value::as_u64).unwrap_or(0);
                let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                if !tids_seen.contains(&tid) {
                    tids_seen.push(tid);
                }
                let mut esc = String::new();
                crate::json::push_escaped(&mut esc, name);
                let arg = e
                    .get("arg")
                    .and_then(Value::as_u64)
                    .map(|a| format!(", \"args\": {{\"arg\": {a}}}"))
                    .unwrap_or_default();
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\": {esc}, \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {start}, \"dur\": {dur}{arg}}}"
                    ),
                );
            }
            Some("gen") => {
                let seed = e.get("seed").and_then(Value::as_u64).unwrap_or(0);
                if let Some(best) = e.get("best").and_then(Value::as_f64) {
                    if best.is_finite() {
                        push_event(
                            &mut out,
                            format!(
                                "{{\"name\": \"best fitness (seed {seed})\", \"ph\": \"C\", \"pid\": 1, \"ts\": {t_us}, \"args\": {{\"best\": {best}}}}}"
                            ),
                        );
                    }
                }
            }
            Some("elite") => {
                let seed = e.get("seed").and_then(Value::as_u64).unwrap_or(0);
                let origin = e.get("origin").and_then(Value::as_str).unwrap_or("?");
                let mut esc = String::new();
                crate::json::push_escaped(&mut esc, &format!("elite via {origin} (seed {seed})"));
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\": {esc}, \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, \"ts\": {t_us}}}"
                    ),
                );
            }
            Some("stall") => {
                let worker = e.get("worker").and_then(Value::as_u64).unwrap_or(0);
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\": \"worker {worker} stalled\", \"ph\": \"i\", \"s\": \"p\", \"pid\": 1, \"tid\": {worker}, \"ts\": {t_us}}}"
                    ),
                );
            }
            Some("access") => {
                push_event(&mut out, access_x_event(e, 1, 0));
            }
            _ => {}
        }
    }
    for tid in tids_seen {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"worker-{tid}\"}}}}"
            ),
        );
    }
    out.push_str("\n]}\n");
    Ok(out)
}

/// The synthetic Chrome tid `access` events render on (they carry no
/// worker thread id of their own).
const ACCESS_TID: u64 = 1_000_000;

/// Render one `access` event as a Chrome `X` complete event on `pid`'s
/// access track, time-shifted by `offset` µs. The span covers
/// `[t_us - dur_us, t_us]` — the event is emitted when the response is
/// written, so its end is the record timestamp.
fn access_x_event(e: &Value, pid: usize, offset: u64) -> String {
    let path = e.get("path").and_then(Value::as_str).unwrap_or("?");
    let t_us = e.get("t_us").and_then(Value::as_u64).unwrap_or(0);
    let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
    let start = t_us.saturating_sub(dur) + offset;
    let mut esc = String::new();
    crate::json::push_escaped(&mut esc, &format!("access {path}"));
    let s = |key: &str| e.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    let n = |key: &str| e.get(key).and_then(Value::as_u64).unwrap_or(0);
    let b = |key: &str| e.get(key).and_then(Value::as_bool).unwrap_or(false);
    let mut args = String::new();
    for key in ["trace", "span", "parent", "model", "table"] {
        args.push_str(&format!(", \"{key}\": "));
        crate::json::push_escaped(&mut args, &s(key));
    }
    format!(
        "{{\"name\": {esc}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \
         \"ts\": {start}, \"dur\": {dur}, \"args\": {{\"status\": {}, \"queue_us\": {}, \
         \"sim_us\": {}, \"shed\": {}, \"batched\": {}{args}}}}}",
        n("status"),
        n("queue_us"),
        n("sim_us"),
        b("shed"),
        b("batched"),
    )
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

/// Merge journals from the gateway (first input) and its backends (the
/// rest) into one cross-process Chrome trace: one `pid` per process,
/// every span and `access` event on a wall-clock-aligned timeline, and
/// flow arrows connecting each gateway hop to the backend `access` span
/// that served it and each backend `access` span to the VM-sweep span
/// its simulation ran in (batch members fan into their shared sweep).
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

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&body);
    };

    // Backend access events by trace id, and per-backend sweep spans by
    // trace id (the batcher stamps each member span's `arg` with the
    // member's trace id), collected up front so the gateway pass can
    // resolve hops and emit flows in one sweep.
    struct Hit {
        pid: usize,
        ts: u64, // aligned start of the target event
        tid: u64,
    }
    let mut backend_access: BTreeMap<String, Vec<Hit>> = BTreeMap::new();
    let mut sweep_members: BTreeMap<(usize, u64), Vec<Hit>> = BTreeMap::new();
    for (pid0, (_, t0, j)) in parsed.iter().enumerate().skip(1) {
        let pid = pid0 + 1;
        let offset = t0 - base;
        for e in &j.events {
            match e.get("type").and_then(Value::as_str) {
                Some("access") => {
                    if let Some(trace) = e.get("trace").and_then(Value::as_str) {
                        let t_us = e.get("t_us").and_then(Value::as_u64).unwrap_or(0);
                        let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                        backend_access
                            .entry(trace.to_string())
                            .or_default()
                            .push(Hit {
                                pid,
                                ts: t_us.saturating_sub(dur) + offset,
                                tid: ACCESS_TID,
                            });
                    }
                }
                Some("span")
                    if e.get("name").and_then(Value::as_str) == Some("serve.sweep.member") =>
                {
                    if let Some(trace) = e.get("arg").and_then(Value::as_u64) {
                        let start = e.get("start_us").and_then(Value::as_u64).unwrap_or(0);
                        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
                        sweep_members.entry((pid, trace)).or_default().push(Hit {
                            pid,
                            ts: start + offset,
                            tid,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    let mut hops = 0usize;
    let mut resolved = 0usize;
    let mut orphans = Vec::new();
    for (pid0, (label, t0, j)) in parsed.iter().enumerate() {
        let pid = pid0 + 1;
        let offset = t0 - base;
        let mut esc = String::new();
        crate::json::push_escaped(&mut esc, label);
        push_event(
            &mut out,
            format!("{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": {esc}}}}}"),
        );
        let mut tids_seen: Vec<u64> = Vec::new();
        for e in &j.events {
            match e.get("type").and_then(Value::as_str) {
                Some("span") => {
                    let name = e.get("name").and_then(Value::as_str).unwrap_or("?");
                    let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
                    let start = e.get("start_us").and_then(Value::as_u64).unwrap_or(0) + offset;
                    let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                    if !tids_seen.contains(&tid) {
                        tids_seen.push(tid);
                    }
                    let mut esc = String::new();
                    crate::json::push_escaped(&mut esc, name);
                    let arg = e
                        .get("arg")
                        .and_then(Value::as_u64)
                        .map(|a| format!(", \"args\": {{\"arg\": {a}}}"))
                        .unwrap_or_default();
                    push_event(
                        &mut out,
                        format!(
                            "{{\"name\": {esc}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {start}, \"dur\": {dur}{arg}}}"
                        ),
                    );
                }
                Some("access") => {
                    push_event(&mut out, access_x_event(e, pid, offset));
                    let trace = e.get("trace").and_then(Value::as_str).unwrap_or("");
                    let t_us = e.get("t_us").and_then(Value::as_u64).unwrap_or(0);
                    let dur = e.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                    let start = t_us.saturating_sub(dur) + offset;
                    if pid == 1 {
                        // A successfully proxied simulate hop must have
                        // landed on exactly one backend.
                        let path = e.get("path").and_then(Value::as_str).unwrap_or("");
                        let status = e.get("status").and_then(Value::as_u64).unwrap_or(0);
                        if path == "gw:/simulate" && status == 200 {
                            hops += 1;
                            match backend_access.get(trace).map(Vec::as_slice) {
                                Some([hit]) => {
                                    resolved += 1;
                                    push_event(
                                        &mut out,
                                        format!(
                                            "{{\"name\": \"hop\", \"cat\": \"trace\", \"ph\": \"s\", \"id\": \"{trace}\", \"pid\": 1, \"tid\": {ACCESS_TID}, \"ts\": {start}}}"
                                        ),
                                    );
                                    push_event(
                                        &mut out,
                                        format!(
                                            "{{\"name\": \"hop\", \"cat\": \"trace\", \"ph\": \"f\", \"bp\": \"e\", \"id\": \"{trace}\", \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
                                            hit.pid, hit.tid, hit.ts
                                        ),
                                    );
                                }
                                Some(hits) => orphans.push(format!(
                                    "trace {trace}: gateway hop matches {} backend access spans",
                                    hits.len()
                                )),
                                None => orphans.push(format!(
                                    "trace {trace}: gateway hop has no backend access span"
                                )),
                            }
                        }
                    } else if let Some(id) = crate::journal::parse_hex_id(trace) {
                        // Backend access → the sweep-member span its
                        // simulation ran in (batch members share a sweep).
                        if let Some(hits) = sweep_members.get(&(pid, id)) {
                            for hit in hits {
                                push_event(
                                    &mut out,
                                    format!(
                                        "{{\"name\": \"sweep\", \"cat\": \"trace\", \"ph\": \"s\", \"id\": \"{trace}-sweep\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \"ts\": {start}}}"
                                    ),
                                );
                                push_event(
                                    &mut out,
                                    format!(
                                        "{{\"name\": \"sweep\", \"cat\": \"trace\", \"ph\": \"f\", \"bp\": \"e\", \"id\": \"{trace}-sweep\", \"pid\": {}, \"tid\": {}, \"ts\": {}}}",
                                        hit.pid, hit.tid, hit.ts
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for tid in tids_seen {
            push_event(
                &mut out,
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"worker-{tid}\"}}}}"
                ),
            );
        }
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {ACCESS_TID}, \"args\": {{\"name\": \"access\"}}}}"
            ),
        );
    }
    out.push_str("\n]}\n");
    Ok(Stitched {
        chrome: out,
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
        j.push(Event::Span {
            name: "gen.evaluate",
            tid: 0,
            depth: 0,
            start_us: 5,
            dur_us: 100,
            arg: Some(1),
        });
        j.push(Event::Gen {
            seed: 42,
            generation: 0,
            best: 2.0,
            mean: 3.0,
            evaluations: 32,
            steps: 2048,
            elapsed_us: 900,
            d_evals: 32,
            d_fulls: 30,
            d_shorts: 2,
            d_cache_hits: 0,
            d_cache_misses: 32,
        });
        j.push(Event::EliteChange {
            seed: 42,
            generation: 0,
            fitness: 2.0,
            size: 5,
            origin: "init",
        });
        j.push(Event::Round {
            seed: 42,
            round: 1,
            kind: "evaluate",
            len: 32,
            workers: 4,
            candidates: 32,
            steals: 3,
            busy_us: 800,
            idle_us: 100,
        });
        j.push(Event::Request {
            endpoint: "/simulate",
            status: 200,
            dur_us: 350,
            batch: 4,
        });
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
        let text = sample_journal().replace("\"type\": \"gen\"", "\"type\": \"mystery\"");
        assert!(validate(&text)
            .iter()
            .any(|e| e.contains("unknown event type")));
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

    #[test]
    fn stitch_connects_gateway_hops_to_backend_spans() {
        let gw = Journal::new(64);
        gw.push(access(0xaaaa, 0, "gw:/simulate", 200));
        gw.push(access(0xbbbb, 0, "gw:/simulate", 200));
        let be = Journal::new(64);
        be.push(access(0xaaaa, 0xaaaa ^ 0xff, "/simulate", 200));
        be.push(access(0xbbbb, 0xbbbb ^ 0xff, "/simulate", 200));
        be.push(Event::Span {
            name: "serve.sweep.member",
            tid: 3,
            depth: 1,
            start_us: 50,
            dur_us: 80,
            arg: Some(0xaaaa),
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
        assert!(s.chrome.contains(&crate::journal::hex_id(0xaaaa)));
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
}

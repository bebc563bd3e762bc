//! The result line, traced-run files, and the `compare` mode.

use gmr_json::Value;
use std::collections::BTreeMap;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered metric list, rendered as the `metrics` object.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        self.0.push(Metric { name, unit, value });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values
    /// render as `null` (strict JSON has no NaN).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            gmr_json::push_escaped(&mut o, m.name);
            o.push_str(": {\"value\": ");
            gmr_json::push_f64(&mut o, m.value);
            o.push_str(", \"unit\": ");
            gmr_json::push_escaped(&mut o, m.unit);
            o.push('}');
        }
        o.push('}');
        o
    }
}

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The last stdout line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// A traced run's layer file: workload, seed and per-layer metrics.
pub fn layer_file(workload: &str, seed: u64, metrics: &Metrics) -> String {
    let mut o = String::from("{\"workload\": ");
    gmr_json::push_escaped(&mut o, workload);
    o.push_str(&format!(", \"seed\": {seed}, \"metrics\": "));
    o.push_str(&metrics.to_json());
    o.push_str("}\n");
    o
}

/// `workload -> metric -> (value, unit)` read from one layer file or a
/// directory of them (several seeds of one workload average together).
pub type Layers = BTreeMap<String, BTreeMap<String, (f64, String)>>;

pub fn load_layers(path: &std::path::Path) -> Result<Layers, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".layers.json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut sums: BTreeMap<String, BTreeMap<String, (f64, String, u32)>> = BTreeMap::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let v = gmr_json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", f.display()))?;
        let Some(Value::Obj(ms)) = v.get("metrics") else {
            return Err(format!("{}: no metrics object", f.display()));
        };
        let slot = sums.entry(workload.to_string()).or_default();
        for (name, m) in ms {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let e = slot
                .entry(name.clone())
                .or_insert((0.0, unit.to_string(), 0));
            e.0 += value;
            e.2 += 1;
        }
    }
    if sums.is_empty() {
        return Err(format!("{}: no layer files", path.display()));
    }
    Ok(sums
        .into_iter()
        .map(|(w, ms)| {
            let ms = ms
                .into_iter()
                .map(|(n, (sum, unit, k))| (n, (sum / k as f64, unit)))
                .collect();
            (w, ms)
        })
        .collect())
}

/// Per-workload, per-layer delta table: old, new, absolute and relative
/// change. Layers a workload does not exercise (zero on both sides) are
/// skipped.
pub fn compare(old: &Layers, new: &Layers) -> String {
    let mut o = String::new();
    for (workload, new_ms) in new {
        let Some(old_ms) = old.get(workload) else {
            o.push_str(&format!("== {workload}: only in the new run\n"));
            continue;
        };
        o.push_str(&format!(
            "== {workload}\n{:<28} {:>8} {:>14} {:>14} {:>14} {:>8}\n",
            "layer", "unit", "old", "new", "delta", "rel"
        ));
        for (name, (nv, unit)) in new_ms {
            let Some((ov, _)) = old_ms.get(name) else {
                continue;
            };
            if *ov == 0.0 && *nv == 0.0 {
                continue;
            }
            let rel = if *ov != 0.0 {
                format!("{:+.1}%", (nv - ov) / ov.abs() * 100.0)
            } else {
                "-".into()
            };
            o.push_str(&format!(
                "{name:<28} {unit:>8} {ov:>14.4} {nv:>14.4} {:>+14.4} {rel:>8}\n",
                nv - ov
            ));
        }
    }
    for workload in old.keys().filter(|w| !new.contains_key(*w)) {
        o.push_str(&format!("== {workload}: only in the old run\n"));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked() {
        assert!(valid_name("gp.short_circuit.rate"));
        assert!(valid_name("p99_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.add("p50_ms", "ms", 1.25);
        m.add("setup_s", "s", 0.5);
        let line = result_line(true, 10, 0, &m);
        let v = gmr_json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        let p50 = v.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn compare_prints_deltas_per_workload() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, v: f64| {
            let mut m = Metrics::default();
            m.add("gateway.self_ms", "ms", v);
            m.add("gp.engine.self_ms", "ms", 0.0);
            let p = dir.join(name);
            std::fs::write(&p, layer_file("serve_simulate", 1, &m)).unwrap();
            p
        };
        let old = load_layers(&write("a.layers.json", 0.5)).unwrap();
        let new = load_layers(&write("b.layers.json", 0.25)).unwrap();
        let table = compare(&old, &new);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(table.contains("== serve_simulate"), "{table}");
        assert!(table.contains("gateway.self_ms"), "{table}");
        assert!(table.contains("-50.0%"), "{table}");
        // Zero on both sides: the workload does not run that layer.
        assert!(!table.contains("gp.engine.self_ms"), "{table}");
    }
}

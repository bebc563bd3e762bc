//! Lock-free metric primitives and a named registry.
//!
//! Counters and histograms are plain atomics — safe to hammer from every
//! evaluation-pool worker without locks — and a [`Registry`] names them so
//! a whole sheet can be snapshotted and dumped into run reports or a
//! service's `/metrics` body. The engine's own counters (`evals`,
//! `pheno_builds`, cache hits, …) live here too: `RunReport` reads them,
//! and they cost what the ad-hoc `AtomicU64` fields they replace did.
//!
//! A snapshot crosses processes as JSON: [`snapshot_json`] writes it,
//! [`parse_sample`] reads one field back, and [`merge_snapshots`] adds
//! several processes' snapshots into one (the gateway's `fleet` view).
//! Quantiles are left to whoever reads the document
//! ([`quantile_from_buckets`]).

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts values `v`
/// with `ilog2(v+1) == i`, so bucket 0 is `{0}`, bucket 1 is `{1, 2}`, …
pub const HIST_BUCKETS: usize = 40;

/// A lock-free power-of-two histogram for non-negative integer samples
/// (durations in microseconds, sizes, counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = ((v + 1).ilog2() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as sparse `(bucket_index, count)` pairs in
    /// index order (index = `ilog2(v+1)`): the form [`Sample::Histogram`]
    /// carries and `/metrics` ships across processes.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

/// Upper-bound estimate of the `q`-quantile (`q` in `[0,1]`) over sparse
/// `(bucket_index, count)` pairs ([`Histogram::buckets`],
/// [`parse_sample`]): the inclusive upper edge of the bucket holding that
/// rank (bucket `i` holds samples `v` with `ilog2(v+1) == i`, so the edge
/// is `2^(i+1) - 2`). Buckets need not be sorted; 0 when empty. Counts
/// from another process may be anything, so they sum saturating.
pub fn quantile_from_buckets(buckets: &[(usize, u64)], q: f64) -> u64 {
    let n = buckets.iter().fold(0u64, |n, &(_, c)| n.saturating_add(c));
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut sorted: Vec<(usize, u64)> = buckets.to_vec();
    sorted.sort_unstable();
    let mut seen = 0u64;
    for (i, c) in sorted {
        seen = seen.saturating_add(c);
        if seen >= rank {
            return if i >= 63 {
                u64::MAX
            } else {
                (1 << (i + 1)) - 2
            };
        }
    }
    u64::MAX
}

/// Merge one sparse bucket snapshot into an accumulator, summing counts
/// per bucket index. Because every process buckets by the same
/// `ilog2(v+1)` rule, a quantile over the merged buckets equals the
/// quantile the fleet would report had every sample landed in one
/// histogram (to bucket resolution).
pub fn merge_buckets(acc: &mut Vec<(usize, u64)>, other: &[(usize, u64)]) {
    for &(i, c) in other {
        match acc.iter_mut().find(|(j, _)| *j == i) {
            Some((_, n)) => *n = n.saturating_add(c),
            None => acc.push((i, c)),
        }
    }
    acc.sort_unstable();
}

/// One snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// Counter value.
    Counter(u64),
    /// Histogram: count, sum, and non-empty `(bucket_index, count)` pairs.
    Histogram {
        /// Sample count.
        count: u64,
        /// Sample sum.
        sum: u64,
        /// Sparse bucket counts.
        buckets: Vec<(usize, u64)>,
    },
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named sheet of metrics. Registration takes a lock; the returned
/// handles are lock-free atomics, so the hot path never contends.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Sample)> {
        self.lock()
            .iter()
            .map(|(name, m)| {
                let sample = match m {
                    Metric::Counter(c) => Sample::Counter(c.get()),
                    Metric::Histogram(h) => Sample::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                };
                (name.clone(), sample)
            })
            .collect()
    }
}

/// Render a snapshot as a JSON object string: counters as numbers,
/// histograms as `{"count", "sum", "buckets": [[index, count]…]}`
/// ([`parse_sample`] reads one field back).
pub fn snapshot_json(snapshot: &[(String, Sample)]) -> String {
    let mut out = String::from("{");
    for (i, (name, sample)) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        crate::json::push_escaped(&mut out, name);
        out.push_str(": ");
        match sample {
            Sample::Counter(v) => out.push_str(&v.to_string()),
            Sample::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(&format!(
                    "{{\"count\": {count}, \"sum\": {sum}, \"buckets\": ["
                ));
                for (j, (idx, c)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{idx}, {c}]"));
                }
                out.push_str("]}");
            }
        }
    }
    out.push('}');
    out
}

/// Read one field of a [`snapshot_json`] object back. An integer is a
/// counter; `{count, sum, buckets}` with integer `count` and `sum` and
/// `buckets` an array of `[index, count]` integer pairs, every index below
/// [`HIST_BUCKETS`], is a histogram. Anything else is `None`.
pub fn parse_sample(v: &Value) -> Option<Sample> {
    if let Some(n) = v.as_u64() {
        return Some(Sample::Counter(n));
    }
    let int = |key| v.get(key).and_then(Value::as_u64);
    let buckets = v
        .get("buckets")
        .and_then(Value::as_arr)?
        .iter()
        .map(|pair| match pair.as_arr()? {
            [i, c] => {
                let i = usize::try_from(i.as_u64()?)
                    .ok()
                    .filter(|&i| i < HIST_BUCKETS)?;
                Some((i, c.as_u64()?))
            }
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Sample::Histogram {
        count: int("count")?,
        sum: int("sum")?,
        buckets,
    })
}

/// Add several processes' [`snapshot_json`] objects into one snapshot,
/// sorted by name: counters add, and histograms add their count, sum and
/// buckets. A field [`parse_sample`] cannot read, or one whose kind
/// differs from the first snapshot that has it, is skipped; a non-object
/// adds nothing. Every sum saturates, because the input comes from other
/// processes.
pub fn merge_snapshots<'a>(
    snapshots: impl IntoIterator<Item = &'a Value>,
) -> Vec<(String, Sample)> {
    let mut acc: BTreeMap<String, Sample> = BTreeMap::new();
    for snapshot in snapshots {
        let Value::Obj(fields) = snapshot else {
            continue;
        };
        for (name, v) in fields {
            let Some(sample) = parse_sample(v) else {
                continue;
            };
            if let Some(total) = acc.get_mut(name) {
                total.add(sample);
            } else {
                acc.insert(name.clone(), sample);
            }
        }
    }
    acc.into_iter().collect()
}

impl Sample {
    /// Add `other` into `self`, saturating; a sample of the other kind is
    /// ignored.
    fn add(&mut self, other: Sample) {
        match (self, other) {
            (Sample::Counter(n), Sample::Counter(m)) => *n = n.saturating_add(m),
            (
                Sample::Histogram {
                    count,
                    sum,
                    buckets,
                },
                Sample::Histogram {
                    count: c,
                    sum: s,
                    buckets: b,
                },
            ) => {
                *count = count.saturating_add(c);
                *sum = sum.saturating_add(s);
                merge_buckets(buckets, &b);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = Registry::new();
        let c = r.counter("evals");
        c.inc();
        c.add(4);
        // Same name returns the same underlying metric.
        assert_eq!(r.counter("evals").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 7, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 112);
        let q = |q| quantile_from_buckets(&h.buckets(), q);
        // Median falls in the {1,2} bucket.
        assert!(q(0.5) >= 1 && q(0.5) < 7);
        assert!(q(1.0) >= 100);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&h.buckets(), q), 0);
        }
        let mut acc = Vec::new();
        merge_buckets(&mut acc, &[]);
        assert_eq!(quantile_from_buckets(&acc, 0.5), 0);
    }

    /// Property: for pseudo-random sample sets split across N process
    /// histograms, the quantile over the *merged* sparse buckets must
    /// land in the same bucket as the quantile over one histogram fed
    /// the concatenation of every sample — i.e. within one power-of-two
    /// bucket of the truth the fleet would see centrally.
    #[test]
    fn merged_quantile_matches_concatenated_to_bucket_resolution() {
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..50 {
            let shards = 1 + (case % 4);
            let mut merged: Vec<(usize, u64)> = Vec::new();
            let concat = Histogram::new();
            for _ in 0..shards {
                let h = Histogram::new();
                let n = 1 + next() % 200;
                for _ in 0..n {
                    // Mix magnitudes: exercise buckets 0..~20.
                    let v = next() % (1 << (1 + next() % 20));
                    h.record(v);
                    concat.record(v);
                }
                merge_buckets(&mut merged, &h.buckets());
            }
            for q in [0.5, 0.9, 0.99, 1.0] {
                let got = quantile_from_buckets(&merged, q);
                let want = quantile_from_buckets(&concat.buckets(), q);
                assert_eq!(
                    got, want,
                    "case {case} q {q}: merged {got} vs concatenated {want}"
                );
            }
        }
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("z").add(1);
        r.counter("a").add(2);
        r.histogram("m").record(3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
        let json = snapshot_json(&snap);
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("z").and_then(|v| v.as_u64()), Some(1));
        // 3 lands in bucket ilog2(4) = 2.
        let m = parsed.get("m").expect("histogram rendered");
        let want = Sample::Histogram {
            count: 1,
            sum: 3,
            buckets: vec![(2, 1)],
        };
        assert_eq!(parse_sample(m), Some(want));
        // An index past the last bucket is not a snapshot this build wrote.
        let far = crate::json::parse(r#"{"count": 1, "sum": 0, "buckets": [[40, 1]]}"#).unwrap();
        assert_eq!(parse_sample(&far), None);
    }

    /// The fleet merge: counters and histograms add field by field across
    /// snapshots; a malformed histogram, a float, a string or a
    /// non-object is skipped; and a sum that would overflow saturates.
    #[test]
    fn merge_adds_counters_and_histograms_skips_the_rest_and_saturates() {
        // The largest integer below 2^64 that a JSON number carries.
        let big = u64::MAX - 2047;
        let docs = [
            format!(
                r#"{{"n": 3, "big": {big}, "h": {{"count": 2, "sum": {big}, "buckets": [[1, 1], [2, {big}]]}},
                    "bad": {{"count": 1, "sum": 1, "buckets": [[40, 1]]}}, "x": 0.5}}"#
            ),
            format!(
                r#"{{"n": 4, "big": {big}, "h": {{"count": 3, "sum": 9, "buckets": [[2, {big}], [5, 1]]}},
                    "bad": {{"count": 1, "buckets": [[1, 1]]}}, "x": "s"}}"#
            ),
            "[1, 2]".to_string(),
        ]
        .map(|d| crate::json::parse(&d).unwrap());
        let h = Sample::Histogram {
            count: 5,
            sum: big + 9,
            buckets: vec![(1, 1), (2, u64::MAX), (5, 1)],
        };
        let want = [
            ("big", Sample::Counter(u64::MAX)),
            ("h", h),
            ("n", Sample::Counter(7)),
        ];
        assert_eq!(
            merge_snapshots(&docs),
            want.map(|(n, s)| (n.to_string(), s))
        );
        assert!(merge_snapshots(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.histogram("x");
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}

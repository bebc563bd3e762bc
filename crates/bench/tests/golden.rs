//! Golden check: the paper's quick-scale results, byte for byte.
//!
//! Four pins, each against a committed file, so a failure says what
//! moved:
//!
//! * the generated river dataset (an FNV-1a fingerprint over every `f64`);
//! * every Table V row at quick scale (`results/table5-quick.csv`, the
//!   file `exp_table5 --quick` writes);
//! * one fixed-seed, one-thread GMR search: its work counters and the
//!   champion's train/test RMSE as exact bits;
//! * Figure 10's fixed workload under each of the eight technique
//!   combinations: the fully evaluated trees and the fitness checksum
//!   `exp_fig10` prints, as exact bits.
//!
//! Code that only reorganises how results are computed must leave all
//! four unchanged. On a failure the test prints the text it produced;
//! a deliberate change to a golden file needs a CHANGES.md line saying
//! why.

use gmr_bench::fig10::{self, Workload, COMBOS};
use gmr_bench::methods::run_all;
use gmr_bench::table::render_csv;
use gmr_bench::{dataset, Scale};
use gmr_core::{Gmr, RiverEvaluator};
use gmr_hydro::RiverDataset;
use std::path::{Path, PathBuf};

const SEED: u64 = 20260708;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn assert_golden(rel: &str, actual: &str) {
    let expected = std::fs::read_to_string(repo_path(rel))
        .unwrap_or_else(|e| panic!("cannot read golden file {rel}: {e}"));
    assert!(
        expected == actual,
        "{rel} no longer matches; this run produced:\n{actual}"
    );
}

/// 64-bit FNV-1a, fed 8 bytes at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of everything the methods read from a dataset: its shape,
/// the train/test split, the target, and every station's forcings, flow
/// and chlorophyll-a as raw `f64` bits.
fn fingerprint(ds: &RiverDataset) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in [
        ds.days,
        ds.stations.len(),
        ds.target.0,
        ds.train.start,
        ds.train.end,
        ds.test.start,
        ds.test.end,
    ] {
        h.word(w as u64);
    }
    for s in &ds.stations {
        for row in &s.vars {
            row.iter().for_each(|v| h.word(v.to_bits()));
        }
        s.flow.iter().for_each(|v| h.word(v.to_bits()));
        s.chla.iter().for_each(|v| h.word(v.to_bits()));
    }
    format!(
        "days = {}\nstations = {}\nfnv1a = {:#018x}\n",
        ds.days,
        ds.stations.len(),
        h.0
    )
}

#[test]
fn quick_dataset_fingerprint_is_golden() {
    let ds = dataset(&Scale::quick());
    assert_golden(
        "crates/bench/tests/golden/dataset-quick.txt",
        &fingerprint(&ds),
    );
}

#[test]
fn quick_table5_rows_are_golden() {
    let scale = Scale::quick();
    let (rows, _) = run_all(&dataset(&scale), &scale, SEED);
    assert_golden("results/table5-quick.csv", &render_csv(&rows));
}

#[test]
fn one_thread_search_counters_are_golden() {
    let scale = Scale::quick();
    let ds = dataset(&scale);
    let mut gp = scale.gp_config(SEED);
    gp.threads = 1;
    let result = Gmr::new(&ds).run(&gp);
    let r = &result.report;
    let rmse = |v: f64| format!("{:#018x} ({v})", v.to_bits());
    let actual = format!(
        "evaluations = {}\nevaluated_steps = {}\nfull_evaluations = {}\n\
         short_circuited = {}\ncache_hits = {}\ncache_misses = {}\n\
         pheno_builds = {}\ntrain_rmse = {}\ntest_rmse = {}\n",
        r.evaluations,
        r.evaluated_steps,
        r.full_evaluations,
        r.short_circuited,
        r.cache_hits,
        r.cache_misses,
        r.pheno_builds,
        rmse(result.train_rmse),
        rmse(result.test_rmse),
    );
    assert_golden("crates/bench/tests/golden/search-quick.txt", &actual);
}

#[test]
fn quick_fig10_combos_are_golden() {
    let scale = Scale::quick();
    let ds = dataset(&scale);
    let gmr = Gmr::new(&ds);
    let evaluator = RiverEvaluator::new(gmr.train.clone());
    let workload = Workload::new(&gmr, &scale);
    let mut actual = format!("evaluations = {}\n", workload.evaluations());
    for combo in &COMBOS {
        let run = fig10::run(&gmr, &evaluator, &workload, combo);
        actual.push_str(&format!(
            "{} full = {} checksum = {:#018x} ({})\n",
            combo.label,
            run.full,
            run.checksum.to_bits(),
            run.checksum
        ));
    }
    assert_golden("crates/bench/tests/golden/fig10-quick.txt", &actual);
}

//! Criterion microbenches behind Figure 10: the per-technique cost of one
//! fitness evaluation — interpreted vs compiled simulation, cache-key
//! hashing and cache hits, and short-circuited vs full evaluation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gmr_bio::manual::manual_system;
use gmr_bio::RiverProblem;
use gmr_expr::{simplify, CompiledSystem, Tier};
use gmr_gp::cache::{CachedFitness, TreeCache};
use gmr_hydro::{generate, SyntheticConfig};
use std::hint::black_box;

fn problem() -> RiverProblem {
    let ds = generate(&SyntheticConfig {
        start_year: 1996,
        end_year: 1998,
        train_end_year: 1997,
        ..Default::default()
    });
    RiverProblem::from_dataset(&ds, ds.train)
}

fn bench_simulation(c: &mut Criterion) {
    let p = problem();
    let eqs = manual_system();
    let compiled = CompiledSystem::compile(&eqs, Tier::Threaded);

    let mut g = c.benchmark_group("simulation");
    g.bench_function("interpreted", |b| {
        b.iter(|| black_box(p.simulate(black_box(&eqs))))
    });
    g.bench_function("compiled", |b| {
        b.iter(|| black_box(p.simulate_compiled(black_box(&compiled))))
    });
    g.bench_function("compile_cost", |b| {
        b.iter(|| black_box(CompiledSystem::compile(black_box(&eqs), Tier::Threaded)))
    });
    g.finish();
}

fn bench_short_circuit(c: &mut Criterion) {
    let p = problem();
    let eqs = manual_system();
    let mut g = c.benchmark_group("short_circuit");
    g.bench_function("full_evaluation", |b| {
        b.iter(|| black_box(p.evaluate_with(black_box(&eqs), true, &mut |_, _| true)))
    });
    g.bench_function("stop_after_64_cases", |b| {
        b.iter(|| black_box(p.evaluate_with(black_box(&eqs), true, &mut |_, done| done < 64)))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let eqs = manual_system();
    let simplified: Vec<_> = eqs.iter().map(simplify).collect();
    let keys: Vec<_> = simplified.iter().map(|e| e.structural_hash()).collect();
    let mut g = c.benchmark_group("tree_cache");
    g.bench_function("simplify_and_hash", |b| {
        b.iter(|| {
            let s: Vec<_> = eqs.iter().map(simplify).collect();
            let k: Vec<_> = s.iter().map(|e| e.structural_hash()).collect();
            black_box(TreeCache::system_key(&k))
        })
    });
    g.bench_function("hit", |b| {
        let cache = TreeCache::new(1024);
        let key = TreeCache::system_key(&keys);
        cache.insert(
            key,
            CachedFitness {
                fitness: 1.0,
                full: true,
            },
        );
        b.iter(|| black_box(cache.get(black_box(key))))
    });
    g.bench_function("miss_and_insert", |b| {
        let cache = TreeCache::new(1 << 16);
        let mut i = 0u64;
        b.iter_batched(
            || {
                i += 1;
                (i, i.rotate_left(13))
            },
            |key| {
                let _ = cache.get(key);
                cache.insert(
                    key,
                    CachedFitness {
                        fitness: 1.0,
                        full: true,
                    },
                );
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simulation, bench_short_circuit, bench_cache
}
criterion_main!(benches);

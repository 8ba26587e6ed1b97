//! Experiment B8 — component-wise evaluation: monolithic engines vs
//! SCC-condensation / product-form enumeration.
//!
//! Workload: [`olp_workload::defeating_cliques`] — k disjoint 3-atom
//! choice cliques (`p_i.` vs `-p_i.` from incomparable modules, plus
//! `q_i ← p_i` and `r_i ← -p_i` in the consumer). The dependency graph
//! splits into k independent groups and unit propagation is powerless
//! inside each clique, so:
//!
//! * `af_monolithic` / `stable_monolithic` — the propagating search
//!   interleaves the per-clique choices: its tree (and for stable, the
//!   quadratic maximality filter) grows with the *product* of
//!   per-clique model counts;
//! * `af_decomposed` / `stable_decomposed` — each clique is solved
//!   separately (constant-size search, constant-size maximality
//!   filter) and the per-clique model sets are combined as a cartesian
//!   product — the exponential part is reduced to materialising the
//!   answer.
//!
//! Expected shape: the decomposed engines win by a factor that grows
//! with k (the acceptance gate checked by `experiments` is ≥10x on the
//! stable enumeration at k = 6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_core::{Budget, World};
use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
use olp_semantics::reference::stable_models_monolithic_budgeted;
use olp_semantics::{
    enumerate_assumption_free_decomposed_budgeted, enumerate_assumption_free_propagating,
    stable_models,
};
use olp_workload::defeating_cliques;
use std::hint::black_box;
use std::time::Duration;

fn bench_decomp(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomp");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &k in &[2usize, 4, 6] {
        let mut world = World::new();
        let prog = defeating_cliques(&mut world, k);
        let ground = ground_exhaustive(&mut world, &prog, &GroundConfig::default()).unwrap();
        let consumer = olp_core::CompId(0);

        group.bench_with_input(BenchmarkId::new("af_monolithic", k), &k, |b, _| {
            let view = FlatView::new(&ground, consumer);
            b.iter(|| black_box(enumerate_assumption_free_propagating(&view)));
        });
        group.bench_with_input(BenchmarkId::new("af_decomposed", k), &k, |b, _| {
            let view = FlatView::new(&ground, consumer);
            b.iter(|| {
                black_box(
                    enumerate_assumption_free_decomposed_budgeted(
                        &view,
                        &Budget::unlimited(),
                        None,
                    )
                    .into_value(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("stable_monolithic", k), &k, |b, _| {
            let view = FlatView::new(&ground, consumer);
            b.iter(|| {
                black_box(
                    stable_models_monolithic_budgeted(&view, &Budget::unlimited(), None)
                        .into_value(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("stable_decomposed", k), &k, |b, _| {
            let view = FlatView::new(&ground, consumer);
            b.iter(|| black_box(stable_models(&view)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decomp);
criterion_main!(benches);

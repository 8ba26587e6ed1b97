//! Experiment E3/B2 — Fig. 2 (defeating) at scale.
//!
//! Workload: `defeating_pairs(N)` — N incomparable pro/con component
//! pairs asserting contradictory facts, all inherited by one consumer.
//! The consumer's least model is empty (everything defeats), so the
//! engine does maximal attack bookkeeping for zero derivations — the
//! worst case for the defeat machinery.
//!
//! Measured:
//! * `consumer_least_model/N` — fixpoint in the consumer's view (all
//!   2N+1 components);
//! * `expert_least_model/N` — fixpoint in one expert's own view
//!   (constant-size) as the baseline;
//! * `order_closure/N` — transitive-closure cost of the 2N+1-component
//!   poset.
//!
//! Expected shape: consumer cost grows linearly in N while remaining
//! sublinear against the naive all-pairs attack scan (precomputed
//! attacker lists, ablation #4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_bench::ground_built_smart;
use olp_core::{CompId, World};
use olp_ground::FlatView;
use olp_semantics::least_model;
use olp_workload::defeating_pairs;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_defeating");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[16usize, 64, 256] {
        let mut world = World::new();
        let prog = defeating_pairs(&mut world, n);
        let ground = ground_built_smart(&mut world, &prog);
        let consumer = CompId(0);
        let one_expert = CompId(1);

        group.bench_with_input(BenchmarkId::new("consumer_least_model", n), &n, |b, _| {
            let view = FlatView::new(&ground, consumer);
            b.iter(|| {
                let m = least_model(&view);
                assert!(m.is_empty(), "defeating must suppress everything");
                black_box(m)
            });
        });
        group.bench_with_input(BenchmarkId::new("expert_least_model", n), &n, |b, _| {
            let view = FlatView::new(&ground, one_expert);
            b.iter(|| black_box(least_model(&view)));
        });
        group.bench_with_input(BenchmarkId::new("order_closure", n), &n, |b, _| {
            b.iter(|| black_box(prog.order().unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);

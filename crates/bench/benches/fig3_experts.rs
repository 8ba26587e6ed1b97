//! Experiment E4/B3 — Fig. 3 (the loan program) at scale.
//!
//! Workload: `expert_panel(N, inflation, loan_rate)` — N threshold
//! experts (pro-loan on inflation, anti-loan on loan rate, with
//! refinement edges exactly like Expert3 < Expert4 in the paper) above
//! a `myself` component holding the scenario facts.
//!
//! Measured: end-to-end advice (smart grounding + fixpoint in
//! `myself`) and fixpoint-only cost, across panel sizes and the
//! paper's §1 indicator scenarios.
//!
//! Expected shape: grounding dominates (comparison evaluation over the
//! numeric domain); fixpoint cost stays tiny because each expert
//! contributes O(1) ground rules per derivable indicator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_bench::ground_built_smart;
use olp_core::{CompId, World};
use olp_ground::FlatView;
use olp_semantics::least_model;
use olp_workload::expert_panel;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_experts");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[4usize, 16, 64] {
        // Scenario 3 of the paper: refinement decides.
        let mut world = World::new();
        let prog = expert_panel(&mut world, n, 19, 16);
        let ground = ground_built_smart(&mut world, &prog);
        let myself = CompId(0);

        group.bench_with_input(BenchmarkId::new("end_to_end", n), &n, |b, _| {
            b.iter(|| {
                let mut w = world.clone();
                let g = ground_built_smart(&mut w, &prog);
                black_box(least_model(&FlatView::new(&g, myself)))
            });
        });
        group.bench_with_input(BenchmarkId::new("fixpoint_only", n), &n, |b, _| {
            let view = FlatView::new(&ground, myself);
            b.iter(|| black_box(least_model(&view)));
        });
    }
    // Scenario sweep at fixed panel size: the three §1 situations.
    for (label, infl, rate) in [
        ("inflation_only", 12, 0),
        ("conflict", 12, 16),
        ("refined", 19, 16),
    ] {
        let mut world = World::new();
        let prog = expert_panel(&mut world, 16, infl, rate);
        let ground = ground_built_smart(&mut world, &prog);
        group.bench_function(BenchmarkId::new("scenario", label), |b| {
            let view = FlatView::new(&ground, CompId(0));
            b.iter(|| black_box(least_model(&view)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);

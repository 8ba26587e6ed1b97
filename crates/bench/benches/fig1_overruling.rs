//! Experiment E1/B1 — Fig. 1 (overruling) at scale.
//!
//! Workload: `taxonomy_chain(N, 4)` — N species under a 4-deep chain of
//! exception layers (exceptions-to-exceptions). Measured:
//!
//! * `least_model/N` — the incremental worklist `V` fixpoint in the
//!   most specific component;
//! * `least_model_naive/N` — ablation #2 (DESIGN.md §5): the full-pass
//!   transcription of Definition 4;
//! * `view_build/N` — ablation #4: attacker-list precomputation cost;
//! * `ground_smart/N` vs `ground_exhaustive/N` — ablation #3;
//! * `prove_one_query/N` — the goal-directed prover answering a single
//!   species query over its constant-size relevance cone.
//!
//! Expected shape: the incremental engine is linear in the ground view
//! and beats the naive engine by a growing factor; smart grounding
//! beats exhaustive by an order of magnitude already at N = 256
//! (instantiation over derivable atoms only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_bench::{big_config, ground_built_smart};
use olp_core::{Budget, CompId, World};
use olp_ground::{ground_exhaustive, FlatView};
use olp_parser::parse_ground_literal;
use olp_semantics::reference::least_model_naive;
use olp_semantics::{least_model, least_model_budgeted, prove};
use olp_workload::taxonomy_chain;
use std::hint::black_box;
use std::time::Duration;

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_overruling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[64usize, 256, 1024] {
        // Shared setup (outside the timed region).
        let mut world = World::new();
        let prog = taxonomy_chain(&mut world, n, 4);
        let ground = ground_built_smart(&mut world, &prog);
        let most_specific = CompId(0);

        group.bench_with_input(BenchmarkId::new("least_model", n), &n, |b, _| {
            let view = FlatView::new(&ground, most_specific);
            b.iter(|| black_box(least_model(&view)));
        });
        // Governor overhead guard: the same fixpoint under a generous
        // budget (never trips, so the entire delta is tick accounting).
        // Target: within 5% of the unbudgeted `least_model` at N = 256.
        group.bench_with_input(BenchmarkId::new("budget_overhead", n), &n, |b, _| {
            let view = FlatView::new(&ground, most_specific);
            let budget = Budget::with_steps(u64::MAX);
            b.iter(|| black_box(least_model_budgeted(&view, &budget)));
        });
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("least_model_naive", n), &n, |b, _| {
                let view = FlatView::new(&ground, most_specific);
                b.iter(|| black_box(least_model_naive(&view)));
            });
        }
        // Goal-directed single query vs materialising the whole model:
        // the relevance cone of one species is constant-size.
        group.bench_with_input(BenchmarkId::new("prove_one_query", n), &n, |b, _| {
            let view = FlatView::new(&ground, most_specific);
            let mut w = world.clone();
            let q = parse_ground_literal(&mut w, "fly(s0)").unwrap();
            b.iter(|| black_box(prove(&view, q)));
        });
        group.bench_with_input(BenchmarkId::new("view_build", n), &n, |b, _| {
            b.iter(|| black_box(FlatView::new(&ground, most_specific)));
        });
        group.bench_with_input(BenchmarkId::new("ground_smart", n), &n, |b, _| {
            b.iter(|| {
                let mut w = world.clone();
                black_box(ground_built_smart(&mut w, &prog))
            });
        });
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("ground_exhaustive", n), &n, |b, _| {
                b.iter(|| {
                    let mut w = world.clone();
                    black_box(ground_exhaustive(&mut w, &prog, &big_config()).unwrap())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);

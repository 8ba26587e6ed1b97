//! Experiment E8/B4 — Example 6 (ancestor over a database relation).
//!
//! Workload: the recursive `anc` program over chain / binary-tree
//! `parent` relations of N nodes. Measured:
//!
//! * `ground_smart/shape/N` vs `ground_exhaustive/shape/N` — ablation
//!   #3: join-based relevance-restricted grounding against full
//!   `|HU|^k` instantiation (k = 3 for the recursive rule, so
//!   exhaustive is N³ and is capped at small N);
//! * `ordered_fixpoint/shape/N` — the ordered engine computing the
//!   least model of the (positive) ground program;
//! * `classical_tp/shape/N` — the classical `T_P` semi-naive baseline
//!   on the same ground rules: the price of the ordered machinery on
//!   plain Datalog.
//!
//! Expected shape: smart grounding ~O(|anc| · degree); exhaustive N³;
//! the ordered fixpoint tracks `T_P` within a small constant factor
//! (attack lists are empty for positive programs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_bench::{big_config, ground_built_smart};
use olp_classic::{least_model_positive, NafProgram};
use olp_core::{CompId, World};
use olp_ground::{ground_exhaustive, FlatView};
use olp_semantics::least_model;
use olp_workload::{ancestor, GraphShape};
use std::hint::black_box;
use std::time::Duration;

fn bench_ancestor(c: &mut Criterion) {
    let mut group = c.benchmark_group("ancestor");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for (shape, label) in [
        (GraphShape::Chain, "chain"),
        (GraphShape::BinaryTree, "tree"),
    ] {
        for &n in &[32usize, 128] {
            let mut world = World::new();
            let prog = ancestor(&mut world, shape, n);
            let ground = ground_built_smart(&mut world, &prog);
            let naf = NafProgram::from_ground(&ground).expect("positive program");

            group.bench_with_input(
                BenchmarkId::new(format!("ground_smart/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut w = world.clone();
                        black_box(ground_built_smart(&mut w, &prog))
                    });
                },
            );
            if n <= 32 {
                group.bench_with_input(
                    BenchmarkId::new(format!("ground_exhaustive/{label}"), n),
                    &n,
                    |b, _| {
                        b.iter(|| {
                            let mut w = world.clone();
                            black_box(ground_exhaustive(&mut w, &prog, &big_config()).unwrap())
                        });
                    },
                );
            }
            group.bench_with_input(
                BenchmarkId::new(format!("ordered_fixpoint/{label}"), n),
                &n,
                |b, _| {
                    let view = FlatView::new(&ground, CompId(0));
                    b.iter(|| black_box(least_model(&view)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("classical_tp/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| black_box(least_model_positive(&naf)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ancestor);
criterion_main!(benches);

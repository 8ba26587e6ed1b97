//! Experiment B10 — the parallel evaluation pipeline: multi-threaded
//! grounding, the morsel-driven flat least model, and the
//! selectivity-driven join planner.
//!
//! Workload: [`olp_workload::ancestor`] over a random edge relation —
//! one big recursive component whose semi-naive frontier batches are
//! wide enough to shard, plus [`olp_workload::defeating_cliques`] as
//! the many-strata shape for the morsel scheduler. Three groups:
//!
//! * `ground` — `ground_smart` at 1/2/4/8 threads (the BSP closure is
//!   bit-deterministic, so every thread count produces the identical
//!   program; only wall-clock changes);
//! * `least_model` — the morsel engine at 1 thread (its sequential flat
//!   path) and at 2/4/8 threads on the same compiled arena;
//! * `planner` — grounding with the join planner on vs off at a single
//!   thread, isolating the literal-reordering / positional-index win
//!   from the parallelism win.
//!
//! The acceptance gates (≥2.5x grounding at 8 threads on the scaled
//! ancestor, ≥1.3x planner-alone at 1 thread) are checked by the
//! `experiments` binary; this bench is the fine-grained Criterion view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_core::{Budget, CompId, World};
use olp_ground::{ground_smart, FlatView, GroundConfig, GroundProgram};
use olp_semantics::{least_model_morsel, MorselCfg};
use olp_workload::{ancestor, defeating_cliques, GraphShape};
use std::hint::black_box;
use std::time::Duration;

const ANCESTOR_NODES: usize = 120;
const ANCESTOR_EDGES: usize = 360;

fn ancestor_ground(threads: usize, plan: bool) -> (World, GroundProgram) {
    let mut world = World::new();
    let prog = ancestor(
        &mut world,
        GraphShape::Random {
            edges: ANCESTOR_EDGES,
            seed: 42,
        },
        ANCESTOR_NODES,
    );
    let cfg = GroundConfig {
        threads,
        plan,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut world, &prog, &cfg).expect("ancestor grounds");
    (world, g)
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("ground/ancestor", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(ancestor_ground(threads, true))),
        );
    }

    // The morsel scheduler over one precomputed arena per workload:
    // the ancestor component, and many independent strata (defeating
    // cliques, the shape where a per-level barrier once cost 27x).
    let (_w, ga) = ancestor_ground(1, true);
    let mut world = World::new();
    let prog = defeating_cliques(&mut world, 12);
    let gd = ground_smart(&mut world, &prog, &GroundConfig::default()).expect("cliques ground");
    for (name, gp) in [("ancestor", &ga), ("cliques", &gd)] {
        let fv = FlatView::new(gp, CompId(0));
        for &threads in &[1usize, 2, 4, 8] {
            let cfg = MorselCfg::with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("least_model/{name}/morsel"), threads),
                &threads,
                |b, _| b.iter(|| black_box(least_model_morsel(&fv, &cfg, &Budget::unlimited()))),
            );
        }
    }

    // Planner ablation at one thread: textual join order + full scans
    // vs selectivity-greedy order + positional indexes.
    group.bench_function(BenchmarkId::new("planner/ancestor", "on"), |b| {
        b.iter(|| black_box(ancestor_ground(1, true)))
    });
    group.bench_function(BenchmarkId::new("planner/ancestor", "off"), |b| {
        b.iter(|| black_box(ancestor_ground(1, false)))
    });

    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);

//! Experiment B5 — stable model enumeration: ordered engine vs
//! classical baselines.
//!
//! Workload: random seminegative programs (seeded). The same program is
//! solved three ways:
//!
//! * `ordered_stable` — stable models of `OV(C)` in `C` via the naive
//!   ordered enumeration (Definition 9 search over derivable atoms);
//! * `ordered_stable_propagating` — the same with Def.-3 unit
//!   propagation (ablation: how much forced structure prunes);
//! * `sz_partial_stable` — Saccà–Zaniolo partial stable models via
//!   3-valued enumeration (the Cor. 1 right-hand side);
//! * `gl_total_stable` — Gelfond–Lifschitz total stable models via the
//!   WFS-seeded DPLL search.
//!
//! Expected shape: all three are exponential in the residual
//! (WFS-undefined) atoms; the GL search is fastest (2-valued, strong
//! propagation), the ordered enumeration pays for generality (3-valued
//! branching), and SZ enumeration over the full atom set is slowest —
//! the ordered engine's derivability pruning is the difference
//! (ablation: it matches SZ results while searching a smaller space).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_classic::{partial_stable_models, stable_models_total, NafProgram};
use olp_core::World;
use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
use olp_semantics::reference::stable_models_naive;
use olp_semantics::stable_models;
use olp_transform::ordered_version;
use olp_workload::{random_seminegative, RandomCfg};
use std::hint::black_box;
use std::time::Duration;

fn bench_stable(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_enum");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n_atoms in &[6usize, 8, 10] {
        let cfg = RandomCfg {
            n_atoms,
            n_rules: n_atoms * 2,
            max_body: 2,
            neg_head_prob: 0.0,
            neg_body_prob: 0.5,
            n_components: 1,
            edge_prob: 0.0,
        };
        let gc = GroundConfig::default();
        // Fixed seed per size for comparability across solvers.
        let mut world = World::new();
        let flat = random_seminegative(&mut world, &cfg, 1234);
        let rules = flat.components[0].rules.clone();
        let flat_ground = ground_exhaustive(&mut world, &flat, &gc).unwrap();
        let (ov_prog, ov_c) = ordered_version(&mut world, &rules);
        let ov = ground_exhaustive(&mut world, &ov_prog, &gc).unwrap();
        let n = world.atoms.len();
        let mut naf = NafProgram::from_ground(&flat_ground).unwrap();
        naf.n_atoms = n;

        group.bench_with_input(
            BenchmarkId::new("ordered_stable", n_atoms),
            &n_atoms,
            |b, _| {
                let view = FlatView::new(&ov, ov_c);
                b.iter(|| black_box(stable_models_naive(&view)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ordered_stable_propagating", n_atoms),
            &n_atoms,
            |b, _| {
                let view = FlatView::new(&ov, ov_c);
                b.iter(|| black_box(stable_models(&view)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sz_partial_stable", n_atoms),
            &n_atoms,
            |b, _| {
                b.iter(|| black_box(partial_stable_models(&naf)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gl_total_stable", n_atoms),
            &n_atoms,
            |b, _| {
                b.iter(|| black_box(stable_models_total(&naf)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stable);
criterion_main!(benches);

//! Experiment B6 — well-founded semantics vs the ordered least model.
//!
//! Workload: the win/move game (a chain with a draw cycle — the
//! canonical program where WFS leaves atoms undefined). Three ways to
//! compute a 3-valued verdict for the same program:
//!
//! * `wfs_alternating` — the classical alternating fixpoint of `Γ²`;
//! * `ordered_ov_lfp` — the `V` fixpoint of `OV(C)` in `C` (the
//!   paper's CWA reading; note: NOT equal to WFS in general — it is
//!   the least assumption-free model, more cautious);
//! * `ordered_ev_lfp` — the `V` fixpoint of `EV(C)` (reflexive rules
//!   suppress CWA defaults: maximally cautious).
//!
//! Expected shape: **WFS wins this comparison.** The alternating
//! fixpoint converges in a handful of `Γ` steps over the small NAF
//! ground program, while the ordered readings pay for their
//! generality twice — the transformed programs ground to several times
//! more instances (CWA instances plus attack bookkeeping), and the `V`
//! engine maintains overruler/defeater counters WFS never needs. The
//! honest take-away is the *price of generality*: ordered logic
//! subsumes WFS-adjacent semantics but is not a drop-in replacement
//! for a specialised WFS engine on plain NAF programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use olp_bench::win_move_src;
use olp_classic::{well_founded_model, NafProgram};
use olp_core::World;
use olp_ground::{ground_smart, FlatView, GroundConfig};
use olp_parser::parse_program;
use olp_semantics::least_model;
use olp_transform::{extended_version, ordered_version};
use std::hint::black_box;
use std::time::Duration;

fn bench_wfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfs_vs_ordered");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[16usize, 64, 256] {
        let src = win_move_src(n);
        let gc = GroundConfig::default();

        let mut world = World::new();
        let flat = parse_program(&mut world, &src).unwrap();
        let rules = flat.components[0].rules.clone();
        let flat_ground = ground_smart(&mut world, &flat, &gc).unwrap();
        let naf = NafProgram::from_ground(&flat_ground).unwrap();

        let (ov_prog, ov_c) = ordered_version(&mut world, &rules);
        let ov = ground_smart(&mut world, &ov_prog, &gc).unwrap();
        let (ev_prog, ev_c) = extended_version(&mut world, &rules);
        let ev = ground_smart(&mut world, &ev_prog, &gc).unwrap();

        group.bench_with_input(BenchmarkId::new("wfs_alternating", n), &n, |b, _| {
            b.iter(|| black_box(well_founded_model(&naf)));
        });
        group.bench_with_input(BenchmarkId::new("ordered_ov_lfp", n), &n, |b, _| {
            let view = FlatView::new(&ov, ov_c);
            b.iter(|| black_box(least_model(&view)));
        });
        group.bench_with_input(BenchmarkId::new("ordered_ev_lfp", n), &n, |b, _| {
            let view = FlatView::new(&ev, ev_c);
            b.iter(|| black_box(least_model(&view)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wfs);
criterion_main!(benches);

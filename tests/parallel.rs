//! Differential property tests for the parallel evaluation pipeline:
//!
//! * the batch-synchronous grounder emits a **byte-identical** ground
//!   program at every thread count (same `rules` vector, same render);
//! * the flat-arena least model (sequential and forced work-stealing
//!   morsel scheduling) agrees with the sequential interpretive engine,
//!   and every `Kb` / `KbSnapshot` read — least, stable, skeptical,
//!   credulous, capped or not — answers identically at every thread
//!   count;
//! * morsel partitioning tiles the flat rule range exactly, and
//!   budget cancellation under work stealing leaves a sound prefix;
//! * the selectivity-driven join planner changes join *order* only —
//!   with it disabled the instance set, and hence every model, is
//!   identical;
//! * incremental mutations through a parallel delta grounder match a
//!   sequential KB mutation-for-mutation.
//!
//! No `with_cases` override here: the default (256 cases) is the
//! acceptance bar, and `PROPTEST_CASES` can scale it.

use olp_workload::{random_datalog, random_ordered, DatalogCfg, RandomCfg};
use ordered_logic::kb::KbSnapshot;
use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::least_model_monolithic;
use ordered_logic::semantics::{least_model, least_model_morsel_forced};
use proptest::prelude::*;

fn datalog_cfg() -> DatalogCfg {
    DatalogCfg {
        n_consts: 5,
        n_unary: 3,
        n_binary: 2,
        n_facts: 10,
        n_rules: 8,
        neg_head_prob: 0.25,
        neg_body_prob: 0.3,
        n_components: 2,
    }
}

/// Grounds the seeded workload in a **fresh world** (interning order
/// must be reproduced by the run under test, not inherited).
fn ground_at(seed: u64, threads: usize, plan: bool) -> (World, GroundProgram) {
    let mut w = World::new();
    let p = random_datalog(&mut w, &datalog_cfg(), seed);
    let cfg = GroundConfig {
        threads,
        plan,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut w, &p, &cfg).expect("bounded workloads ground");
    (w, g)
}

/// Least, stable, skeptical and credulous answers rendered in answer
/// order, each with its interruption reason.
fn render_reads(
    w: &World,
    least: Eval<std::sync::Arc<Interpretation>>,
    stable: Eval<Vec<Interpretation>>,
    skeptical: Eval<Interpretation>,
    credulous: Eval<Vec<GLit>>,
) -> Vec<String> {
    let models: Vec<String> = stable.value().iter().map(|m| m.render(w)).collect();
    let lits: Vec<String> = credulous.value().iter().map(|&l| w.glit_str(l)).collect();
    vec![
        format!("{:?} {}", least.reason(), least.value().render(w)),
        format!("{:?} {models:?}", stable.reason()),
        format!("{:?} {}", skeptical.reason(), skeptical.value().render(w)),
        format!("{:?} {lits:?}", credulous.reason()),
    ]
}

/// Every read of `object` through a `Kb` under `opts`, rendered.
fn kb_reads(kb: &mut Kb, object: &str, opts: &QueryOptions) -> Vec<String> {
    let least = kb.model_with(object, opts).unwrap();
    let stable = kb.stable_with(object, opts).unwrap();
    let skeptical = kb.skeptical_with(object, opts).unwrap();
    let credulous = kb.credulous_with(object, opts).unwrap();
    render_reads(kb.world(), least, stable, skeptical, credulous)
}

/// [`kb_reads`] through a snapshot.
fn snapshot_reads(snap: &KbSnapshot, object: &str, opts: &QueryOptions) -> Vec<String> {
    let least = snap.model_with(object, opts).unwrap();
    let stable = snap.stable_with(object, opts).unwrap();
    let skeptical = snap.skeptical_with(object, opts).unwrap();
    let credulous = snap.credulous_with(object, opts).unwrap();
    render_reads(snap.world(), least, stable, skeptical, credulous)
}

/// A fresh KB over `prog` whose unbudgeted reads run at `threads`, with
/// every profile warm so snapshots take the same fast paths.
fn kb_at(world: World, prog: OrderedProgram, threads: usize) -> Kb {
    let cfg = GroundConfig {
        threads,
        ..GroundConfig::default()
    };
    let mut kb = KbBuilder::from_parts(world, prog)
        .build_with(GroundStrategy::Smart, &cfg)
        .expect("bounded workloads ground");
    kb.set_threads(threads);
    kb.warm_profiles();
    kb
}

/// Ten independent copies of Example 5 (2 stable models each).
fn ten_p5_groups() -> (World, OrderedProgram) {
    let mut up = String::new();
    let mut low = String::new();
    for i in 0..10 {
        up.push_str(&format!("a{i}. b{i}. c{i}. "));
        low.push_str(&format!(
            "-a{i} :- b{i}, c{i}. -b{i} :- a{i}. -b{i} :- -b{i}. "
        ));
    }
    let mut w = World::new();
    let p = parse_program(
        &mut w,
        &format!("module up {{ {up} }} module low < up {{ {low} }}"),
    )
    .expect("parses");
    (w, p)
}

/// Regression: capped stable reads at two threads returned partial
/// interpretations that were not stable models (the prefix-splitting
/// parallel enumerator capped and filtered the product of the groups'
/// assumption-free sets). Every answer must be the one-thread answer.
#[test]
fn ten_p5_groups_capped_at_two_threads_are_total_stable_models() {
    let (w, p) = ten_p5_groups();
    let mut kb = kb_at(w, p, 2);
    let n_atoms = kb.ground_program().n_atoms;
    let opts = QueryOptions::new().threads(2).max_models(16);
    let capped = kb.stable_with("low", &opts).unwrap();
    assert_eq!(
        capped.reason(),
        Some(ordered_logic::core::InterruptReason::ModelCap)
    );
    assert_eq!(capped.value().len(), 16);
    assert!(capped.value().iter().all(|m| m.is_total(n_atoms)));
    let snap = kb.snapshot();
    assert_eq!(
        snapshot_reads(&snap, "low", &opts),
        kb_reads(&mut kb, "low", &opts)
    );
    let all = kb
        .stable_with("low", &QueryOptions::new().threads(2))
        .unwrap();
    assert!(all.is_complete());
    assert_eq!(all.value().len(), 1024);
}

proptest! {
    /// The ground program is bit-identical across thread counts: the
    /// BSP closure freezes its inputs per batch and commits in item
    /// order, so neither batch composition nor interning order can
    /// depend on scheduling.
    #[test]
    fn thread_count_is_invisible_in_the_ground_program(seed in 0u64..20_000) {
        let (w1, g1) = ground_at(seed, 1, true);
        for threads in [2usize, 8] {
            let (wt, gt) = ground_at(seed, threads, true);
            prop_assert!(
                g1.rules == gt.rules,
                "rule vectors differ at {} threads (seed {})", threads, seed
            );
            prop_assert_eq!(
                g1.render(&w1), gt.render(&wt),
                "rendered programs differ at {} threads (seed {})", threads, seed
            );
        }
    }

    /// Disabling the join planner (textual join order, unfiltered
    /// candidate scans) yields the same instance set and the same
    /// least model per component. The two runs intern atoms in
    /// separate worlds, and a ground body is ordered by atom id, so
    /// each rule is compared with its body literals sorted by name.
    #[test]
    fn planner_changes_join_order_not_results(seed in 0u64..20_000) {
        let (wp, gp) = ground_at(seed, 1, true);
        let (wn, gn) = ground_at(seed, 1, false);
        let lines = |w: &World, g: &GroundProgram| {
            let mut v: Vec<String> = g
                .rules
                .iter()
                .map(|r| {
                    let mut body: Vec<String> = r.body.iter().map(|&l| w.glit_str(l)).collect();
                    body.sort();
                    format!("[{}] {} :- {}", r.comp.0, w.glit_str(r.head), body.join(", "))
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(
            lines(&wp, &gp), lines(&wn, &gn),
            "planned and unplanned instance sets differ (seed {})", seed
        );
        for ci in 0..gp.order.len() {
            let c = CompId(ci as u32);
            prop_assert_eq!(
                least_model(&FlatView::new(&gp, c)).render(&wp),
                least_model(&FlatView::new(&gn, c)).render(&wn),
                "least models differ with planner off in component {} (seed {})", ci, seed
            );
        }
    }

    /// `Kb` and `KbSnapshot` reads — least, stable, skeptical and
    /// credulous, uncapped and with `max_models(3)` — answer at 2 and 8
    /// threads exactly as at one thread, per component, including the
    /// order of the stable models.
    #[test]
    fn parallel_engines_agree_with_sequential(seed in 0u64..20_000) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let build = |threads: usize| {
            let mut w = World::new();
            let p = random_ordered(&mut w, &cfg, seed);
            kb_at(w, p, threads)
        };
        for cap in [None, Some(3)] {
            let opts = |threads: usize| {
                let o = QueryOptions::new().threads(threads);
                match cap {
                    Some(cap) => o.max_models(cap),
                    None => o,
                }
            };
            let mut seq = build(1);
            let objects: Vec<String> = seq.objects().iter().map(|o| o.to_string()).collect();
            for threads in [2usize, 8] {
                let mut par = build(threads);
                let snap = build(threads).snapshot();
                for object in &objects {
                    let want = kb_reads(&mut seq, object, &opts(1));
                    prop_assert_eq!(
                        &kb_reads(&mut par, object, &opts(threads)), &want,
                        "Kb reads of {} differ at {} threads, cap {:?} (seed {})",
                        object, threads, cap, seed
                    );
                    prop_assert_eq!(
                        &snapshot_reads(&snap, object, &opts(threads)), &want,
                        "KbSnapshot reads of {} differ at {} threads, cap {:?} (seed {})",
                        object, threads, cap, seed
                    );
                }
            }
        }
    }

    /// A KB whose grounding, delta maintenance, and queries all run at
    /// 8 threads answers every query identically to a `--threads 1` KB
    /// across a mutation script (parallel delta grounding is
    /// bit-deterministic too).
    #[test]
    fn parallel_kb_mutations_match_sequential(seed in 0u64..5_000) {
        use ordered_logic::kb::GroundStrategy;
        let build = |threads: usize| {
            let mut w = World::new();
            let p = random_datalog(&mut w, &datalog_cfg(), seed);
            let cfg = GroundConfig { threads, ..GroundConfig::default() };
            let mut kb = ordered_logic::kb::KbBuilder::from_parts(w, p)
                .build_with(GroundStrategy::Smart, &cfg)
                .expect("bounded workloads ground");
            kb.set_threads(threads);
            kb
        };
        let mut seq = build(1);
        let mut par = build(8);
        let script: &[(&str, bool)] = &[
            ("u0(k0).", true),
            ("b0(k0, k1).", true),
            ("u1(X) :- u0(X), b0(X, Y).", true),
            ("u0(k0).", false),
            ("u2(k9).", true),
        ];
        for &(rule, is_assert) in script {
            if is_assert {
                seq.assert_rule("c0", rule).unwrap();
                par.assert_rule("c0", rule).unwrap();
            } else {
                prop_assert_eq!(
                    seq.retract_rule("c0", rule).unwrap(),
                    par.retract_rule("c0", rule).unwrap()
                );
            }
            prop_assert_eq!(
                seq.ground_program().render(seq.world()),
                par.ground_program().render(par.world()),
                "ground programs diverged after `{}` (seed {})", rule, seed
            );
            let ms = seq.model("c0").unwrap().clone();
            let mp = par.model("c0").unwrap().clone();
            prop_assert_eq!(
                seq.render(&ms), par.render(&mp),
                "least models diverged after `{}` (seed {})", rule, seed
            );
        }
    }

    /// The flat arena engine and the work-stealing morsel scheduler are
    /// byte-identical to the interpretive monolithic engine on random
    /// *ordered* programs (overruling + defeat), per component. The
    /// morsel path is **forced** — bypassing the small-program
    /// sequential fallback — at the finest possible granularity (one
    /// stratum per morsel), the worst case for publish/merge bugs.
    #[test]
    fn flat_and_morsel_match_interpretive(seed in 0u64..20_000) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let fv = FlatView::new(&g, c);
            let reference = least_model_monolithic(&fv).render(&w);
            prop_assert_eq!(
                least_model(&fv).render(&w), reference.clone(),
                "flat engine differs from interpretive in component {} (seed {})", ci, seed
            );
            let morsels = fv.morsels(1);
            for threads in [2usize, 4, 8] {
                let ev = least_model_morsel_forced(&fv, &morsels, threads, &Budget::unlimited());
                prop_assert!(
                    ev.reason().is_none(),
                    "unlimited morsel run interrupted (seed {})", seed
                );
                prop_assert_eq!(
                    ev.value().render(&w), reference.clone(),
                    "forced morsel engine differs at {} threads in component {} (seed {})",
                    threads, ci, seed
                );
            }
        }
    }

    /// Morsel partitioning tiles the flat rule range exactly at every
    /// target weight: every rule and every stratum lands in exactly one
    /// morsel (nothing dropped, nothing duplicated), morsels never
    /// split a stratum, and never span dependency levels.
    #[test]
    fn morsels_partition_rules_exactly(seed in 0u64..20_000, target in 1u64..5_000) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let fv = FlatView::new(&g, c);
            let ms = fv.morsels(target);
            if fv.is_empty() {
                prop_assert!(ms.is_empty(), "empty view produced morsels (seed {})", seed);
                continue;
            }
            let mut next_rule = 0u32;
            let mut next_stratum = 0u32;
            for m in &ms {
                prop_assert_eq!(
                    m.rule_lo, next_rule,
                    "rule gap or overlap before morsel (seed {}, target {})", seed, target
                );
                prop_assert_eq!(
                    m.stratum_lo, next_stratum,
                    "stratum gap or overlap before morsel (seed {}, target {})", seed, target
                );
                prop_assert!(m.stratum_hi > m.stratum_lo, "empty morsel (seed {})", seed);
                // Morsel boundaries coincide with stratum boundaries
                // (a split stratum would break the sequential-worklist
                // invariant inside eval_strata).
                prop_assert_eq!(fv.stratum(m.stratum_lo as usize).0, m.rule_lo);
                prop_assert_eq!(fv.stratum(m.stratum_hi as usize - 1).1, m.rule_hi);
                // All contained strata share the morsel's level.
                let (slo, shi) = fv.level(m.level as usize);
                prop_assert!(
                    slo <= m.stratum_lo && m.stratum_hi <= shi,
                    "morsel spans levels (seed {}, target {})", seed, target
                );
                next_rule = m.rule_hi;
                next_stratum = m.stratum_hi;
            }
            prop_assert_eq!(
                next_rule as usize, fv.len(),
                "morsels do not cover all rules (seed {}, target {})", seed, target
            );
            prop_assert_eq!(
                next_stratum as usize, fv.n_strata(),
                "morsels do not cover all strata (seed {}, target {})", seed, target
            );
        }
    }

    /// Cancellation under work stealing: a step budget that trips
    /// mid-run leaves a **sound monotone prefix** — every literal in
    /// the partial result also holds in the full least model — and
    /// never a crash, hang, or over-claimed literal, regardless of
    /// which worker hits the limit first.
    #[test]
    fn morsel_cancellation_leaves_sound_prefix(seed in 0u64..5_000, max_steps in 1u64..40) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let fv = FlatView::new(&g, c);
            if fv.is_empty() {
                continue;
            }
            let full = least_model(&fv);
            let morsels = fv.morsels(1);
            let budget = Budget::limited(Some(max_steps), None);
            let ev = least_model_morsel_forced(&fv, &morsels, 4, &budget);
            let partial = ev.value();
            for lit in partial.literals() {
                prop_assert!(
                    full.holds(lit),
                    "interrupted run over-claimed {} (seed {}, steps {})",
                    w.glit_str(lit), seed, max_steps
                );
            }
            if ev.reason().is_none() {
                prop_assert_eq!(
                    partial.render(&w), full.render(&w),
                    "uninterrupted run differs from full model (seed {})", seed
                );
            }
        }
    }
}

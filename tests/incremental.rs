//! Differential mutation fuzzing for incremental KB maintenance.
//!
//! Random assert/retract sequences run against two knowledge bases
//! built from the same seeded `random_ordered` program:
//!
//! * the **system under test** — Smart-grounded, incremental
//!   maintenance on (delta grounding, stratum-local cache
//!   revalidation, stable-group memoisation);
//! * the **oracle** — Exhaustive-grounded, every mutation a full
//!   rebuild from scratch.
//!
//! After *every* step the two must agree on the least model and the
//! stable-model set of every component (compared rendered, the worlds
//! are independent), and retraction must report the same hit/miss. At
//! the end of each sequence the paper-level oracle runs on the small
//! instance: Theorem 1b (the least model is the intersection of *all*
//! models, enumerated per Definition 3) and stable ⊆ models.
//!
//! Run with `PROPTEST_CASES=256` for the deep nightly configuration.

use olp_workload::{random_ordered, RandomCfg};
use ordered_logic::core::CompId;
use ordered_logic::ground::FlatView;
use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::enumerate_models;
use ordered_logic::semantics::{interp_intersection, least_model};
use proptest::prelude::*;

const N_ATOMS: usize = 6;
const N_COMPONENTS: usize = 3;

/// The generator config for the base program: small enough for the
/// 3^n model-enumeration oracle, contested enough to exercise
/// overruling and defeating on every path.
fn base_cfg() -> RandomCfg {
    RandomCfg {
        n_atoms: N_ATOMS,
        n_rules: 10,
        max_body: 3,
        neg_head_prob: 0.3,
        neg_body_prob: 0.4,
        n_components: N_COMPONENTS,
        edge_prob: 0.5,
    }
}

fn build_kb(seed: u64, strategy: GroundStrategy) -> Kb {
    let mut world = World::new();
    let prog = random_ordered(&mut world, &base_cfg(), seed);
    KbBuilder::from_parts(world, prog)
        .build_with(strategy, &GroundConfig::default())
        .expect("propositional programs always ground")
}

/// One random mutation: target component, assert-vs-retract, and a
/// propositional rule in surface syntax over the generator's atom
/// names (`p0`…). Retract texts are drawn from the same distribution,
/// so they sometimes hit an earlier assert (or even a base rule) and
/// sometimes miss — both KBs must agree either way.
fn mutation() -> impl Strategy<Value = (usize, bool, String)> {
    (
        0..N_COMPONENTS,
        any::<bool>(),
        (
            any::<bool>(),
            0..N_ATOMS,
            proptest::collection::vec((any::<bool>(), 0..N_ATOMS), 0..3),
        ),
    )
        .prop_map(|(comp, is_assert, (head_pos, head, body))| {
            let lit = |pos: bool, a: usize| format!("{}p{a}", if pos { "" } else { "-" });
            let head = lit(head_pos, head);
            let rule = if body.is_empty() {
                format!("{head}.")
            } else {
                let body: Vec<String> = body.iter().map(|&(s, a)| lit(s, a)).collect();
                format!("{head} :- {}.", body.join(", "))
            };
            (comp, is_assert, rule)
        })
}

/// Rendered least model of one object.
fn render_model(kb: &mut Kb, obj: &str) -> String {
    let m = kb.model(obj).expect("known object").clone();
    kb.render(&m)
}

/// Rendered stable models of one object, sorted for set comparison.
fn render_stable(kb: &mut Kb, obj: &str) -> Vec<String> {
    let mut v: Vec<String> = kb
        .stable(obj)
        .expect("known object")
        .iter()
        .map(|m| kb.render(m))
        .collect();
    v.sort();
    v
}

proptest! {
    #[test]
    fn incremental_kb_matches_full_rebuild(
        seed in 0u64..300,
        steps in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mut inc = build_kb(seed, GroundStrategy::Smart);
        let mut full = build_kb(seed, GroundStrategy::Exhaustive);
        full.set_incremental(false);
        prop_assert!(inc.is_incremental());
        prop_assert!(!full.is_incremental());
        for (step, (comp, is_assert, rule)) in steps.iter().enumerate() {
            let obj = format!("c{comp}");
            if *is_assert {
                inc.assert_rule(&obj, rule).expect("assert grounds");
                full.assert_rule(&obj, rule).expect("assert grounds");
            } else {
                let a = inc.retract_rule(&obj, rule).expect("retract grounds");
                let b = full.retract_rule(&obj, rule).expect("retract grounds");
                prop_assert_eq!(
                    a, b,
                    "retract hit/miss diverged at step {} ({} {})", step, obj, rule
                );
            }
            for c in 0..N_COMPONENTS {
                let obj = format!("c{c}");
                prop_assert_eq!(
                    render_model(&mut inc, &obj),
                    render_model(&mut full, &obj),
                    "least models diverged in {} after step {} ({} into {})",
                    obj, step, rule, comp
                );
                prop_assert_eq!(
                    render_stable(&mut inc, &obj),
                    render_stable(&mut full, &obj),
                    "stable models diverged in {} after step {}",
                    obj, step
                );
            }
        }
        // Paper-level oracle on the final state (small instance): the
        // least model is the intersection of all models (Thm 1b), and
        // every stable model is a model (Def. 9 via Def. 3).
        for c in 0..N_COMPONENTS {
            let obj = format!("c{c}");
            let least = render_model(&mut full, &obj);
            let stable = render_stable(&mut full, &obj);
            let view = FlatView::new(full.ground_program(), CompId(c as u32));
            let n_atoms = full.ground_program().n_atoms;
            let models = enumerate_models(&view, n_atoms, None);
            prop_assert!(!models.is_empty(), "the least model is always a model");
            let meet = interp_intersection(&models);
            prop_assert_eq!(
                full.render(&meet), least,
                "Thm 1b violated in {}", obj
            );
            let rendered: Vec<String> = models.iter().map(|m| full.render(m)).collect();
            for s in &stable {
                prop_assert!(
                    rendered.contains(s),
                    "stable model {} of {} is not a model", s, obj
                );
            }
        }
    }

    /// The incremental ground program itself stays exact: after any
    /// mutation sequence it renders identically to grounding the
    /// mutated program from scratch with the same (smart) grounder.
    #[test]
    fn incremental_grounding_matches_scratch_rebuild(
        seed in 0u64..300,
        steps in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mut inc = build_kb(seed, GroundStrategy::Smart);
        let mut scratch = build_kb(seed, GroundStrategy::Smart);
        scratch.set_incremental(false);
        for (comp, is_assert, rule) in &steps {
            let obj = format!("c{comp}");
            if *is_assert {
                inc.assert_rule(&obj, rule).expect("assert grounds");
                scratch.assert_rule(&obj, rule).expect("assert grounds");
            } else {
                prop_assert_eq!(
                    inc.retract_rule(&obj, rule).expect("retract grounds"),
                    scratch.retract_rule(&obj, rule).expect("retract grounds")
                );
            }
            prop_assert_eq!(
                inc.ground_program().render(inc.world()),
                scratch.ground_program().render(scratch.world())
            );
        }
    }

    /// The flat mutation path end to end: after **every** step of a
    /// random mutation script, the incremental KB's stale-cache
    /// revalidation — [`least_model_delta_flat`] over arenas maintained
    /// by `FlatView::apply_delta` inside `Kb::commit` — must render
    /// byte-identically to a from-scratch reground of the mutated
    /// program evaluated with [`least_model`] on a freshly
    /// compiled arena, at 1 and 4 worker threads.
    ///
    /// The model caches are warmed before each mutation, so every
    /// post-step query takes the stale → delta path (not a fresh
    /// computation), and the arenas it runs over are the
    /// patched-or-rebuilt ones the commit left behind.
    ///
    /// [`least_model_delta_flat`]: ordered_logic::semantics::least_model_delta_flat
    /// [`least_model`]: ordered_logic::semantics::least_model
    #[test]
    fn flat_delta_revalidation_matches_scratch_flat(
        seed in 0u64..300,
        steps in proptest::collection::vec(mutation(), 1..6),
    ) {
        for threads in [1usize, 4] {
            let mut inc = build_kb(seed, GroundStrategy::Smart);
            inc.set_threads(threads);
            for c in 0..N_COMPONENTS {
                let _ = render_model(&mut inc, &format!("c{c}"));
            }
            for (step, (comp, is_assert, rule)) in steps.iter().enumerate() {
                let obj = format!("c{comp}");
                if *is_assert {
                    inc.assert_rule(&obj, rule).expect("assert grounds");
                } else {
                    inc.retract_rule(&obj, rule).expect("retract grounds");
                }
                let scratch = KbBuilder::from_parts(inc.world().clone(), inc.program().clone())
                    .build_with(GroundStrategy::Smart, &GroundConfig::default())
                    .expect("propositional programs always ground");
                for c in 0..N_COMPONENTS {
                    let obj = format!("c{c}");
                    let fv = FlatView::new(scratch.ground_program(), CompId(c as u32));
                    let reference = scratch.render(&least_model(&fv));
                    prop_assert_eq!(
                        render_model(&mut inc, &obj),
                        reference,
                        "flat delta path diverged in {} after step {} ({} into c{}, {} threads)",
                        obj, step, rule, comp, threads
                    );
                }
            }
        }
    }
}

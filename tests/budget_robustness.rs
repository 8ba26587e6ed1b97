//! Fault-injection tests for the resource governor: random workloads
//! are interrupted at random points (step budgets, expired deadlines,
//! cancellation) and every partial result must uphold its documented
//! anytime guarantee:
//!
//! * no panic anywhere in the engine;
//! * a partial fixpoint is a **subset** of the unbudgeted least model
//!   (sound under-approximation);
//! * partial model enumerations (assumption-free — reference,
//!   propagating and decomposed — and stable) are **subsets of the
//!   unbudgeted assumption-free enumeration** — every member is a
//!   genuine model, only coverage is
//!   lost (for interrupted stable lists maximality is relative to the
//!   explored portion, so the reference is the AF enumeration, not the
//!   stable list);
//! * a partial `prove` never answers `true` wrongly;
//! * an interrupted **incremental mutation** is not applied: the KB
//!   stays queryable and exactly consistent with its pre-mutation
//!   state;
//! * unlimited budgets always complete with the exact answers.

use olp_workload::{random_ordered, RandomCfg};
use ordered_logic::core::{Budget, Eval, InterruptReason, World};
use ordered_logic::ground::{
    ground_exhaustive, FlatView, GroundConfig, GroundError, GroundProgram,
};
use ordered_logic::kb::{GroundStrategy, Kb, KbBuilder, QueryOptions};
use ordered_logic::semantics::reference::{
    enumerate_assumption_free_budgeted, least_model_naive_budgeted,
};
use ordered_logic::semantics::{
    enumerate_assumption_free_decomposed_budgeted, enumerate_assumption_free_propagating,
    enumerate_assumption_free_propagating_budgeted, explain_budgeted, least_model,
    least_model_budgeted, prove_budgeted, stable_models_decomposed, Why,
};
use proptest::prelude::*;

fn workload(seed: u64) -> (World, GroundProgram) {
    let kb = workload_kb(seed);
    (kb.world().clone(), kb.ground_program().clone())
}

/// The seeded workload as a knowledge base (objects `c0`…`c2`).
fn workload_kb(seed: u64) -> Kb {
    let mut w = World::new();
    let cfg = RandomCfg {
        n_atoms: 6,
        n_rules: 12,
        max_body: 3,
        neg_head_prob: 0.35,
        neg_body_prob: 0.4,
        n_components: 3,
        edge_prob: 0.5,
    };
    let prog = random_ordered(&mut w, &cfg, seed);
    let g = ground_exhaustive(&mut w, &prog, &GroundConfig::default())
        .expect("propositional programs always ground");
    Kb::from_ground_parts(w, prog, g)
}

/// Canonical form for set-membership checks across enumerations.
fn lits_of(m: &ordered_logic::core::Interpretation) -> Vec<ordered_logic::core::GLit> {
    let mut v: Vec<_> = m.literals().collect();
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn partial_fixpoints_under_approximate(seed in 0u64..40, steps in 0u64..3000) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            for eval in [
                least_model_budgeted(&view, &Budget::with_steps(steps)),
                least_model_naive_budgeted(&view, &Budget::with_steps(steps)),
            ] {
                match eval {
                    Eval::Complete(m) => prop_assert_eq!(&m, &full),
                    Eval::Interrupted(i) => {
                        prop_assert_eq!(i.reason, InterruptReason::Steps);
                        prop_assert!(
                            i.partial.is_subset(&full),
                            "partial fixpoint must under-approximate (seed {})",
                            seed
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_enumerations_are_subsets(seed in 0u64..25, steps in 0u64..4000) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let full: Vec<Vec<_>> = enumerate_assumption_free_propagating(&view)
                .iter()
                .map(lits_of)
                .collect();
            let budgeted = [
                enumerate_assumption_free_budgeted(
                    &view, &Budget::with_steps(steps), None),
                enumerate_assumption_free_propagating_budgeted(
                    &view, &Budget::with_steps(steps), None),
                enumerate_assumption_free_decomposed_budgeted(
                    &view, &Budget::with_steps(steps), None),
                stable_models_decomposed(
                    &view, &Budget::with_steps(steps), None, None),
            ];
            for eval in budgeted {
                for m in eval.value() {
                    prop_assert!(
                        full.contains(&lits_of(m)),
                        "every (partial) member must be a genuine AF model (seed {})",
                        seed
                    );
                }
            }
        }
    }

    #[test]
    fn partial_prove_never_lies(seed in 0u64..40, steps in 0u64..800) {
        let (mut w, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            for atom_i in 0..3u32 {
                let q = ordered_logic::parser::parse_ground_literal(
                    &mut w, &format!("p{atom_i}")).expect("atom parses");
                match prove_budgeted(&view, q, &Budget::with_steps(steps)) {
                    Eval::Complete(ans) => prop_assert_eq!(ans, full.holds(q)),
                    Eval::Interrupted(i) => {
                        if i.partial {
                            prop_assert!(full.holds(q), "partial `true` must be final");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_explanations_are_genuine_proofs(seed in 0u64..30, steps in 0u64..1500) {
        let (mut w, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let full = least_model(&view);
            let q = ordered_logic::parser::parse_ground_literal(&mut w, "p0")
                .expect("atom parses");
            if let Eval::Interrupted(i) =
                explain_budgeted(&view, q, &Budget::with_steps(steps))
            {
                if let Why::Proved(proof) = i.partial {
                    // A proof built on a partial model is valid in the
                    // full least model too.
                    prop_assert!(full.holds(proof.lit));
                }
            }
        }
    }

    #[test]
    fn model_cap_is_respected(seed in 0u64..25, cap in 1usize..4) {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let full_count =
                enumerate_assumption_free_propagating(&view).len();
            let eval = enumerate_assumption_free_propagating_budgeted(
                &view, &Budget::unlimited(), Some(cap));
            match eval {
                Eval::Complete(ms) => prop_assert!(ms.len() <= cap && full_count <= cap),
                Eval::Interrupted(i) => {
                    prop_assert_eq!(i.reason, InterruptReason::ModelCap);
                    prop_assert!(i.partial.len() >= cap.min(full_count));
                }
            }
        }
    }

    #[test]
    fn consequence_partials_do_not_panic(seed in 0u64..25, steps in 0u64..2000) {
        let mut kb = workload_kb(seed);
        let g = kb.ground_program().clone();
        let opts = QueryOptions::new().max_steps(steps).threads(1);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            let object = format!("c{ci}");
            // Credulous partials under-approximate: every literal is
            // witnessed by a genuine AF model.
            let full_af = enumerate_assumption_free_propagating(&view);
            let cred = kb.credulous_with(&object, &opts).expect("known object");
            for &l in cred.value() {
                prop_assert!(full_af.iter().any(|m| m.holds(l)));
            }
            // Skeptical partials are documented over-approximations;
            // here we only require no panic and a consistent result.
            let _ = kb.skeptical_with(&object, &opts).expect("known object");
        }
    }

    #[test]
    fn grounding_budget_interrupts_cleanly(seed in 0u64..20, steps in 1u64..200) {
        let mut w = World::new();
        let prog = olp_workload::taxonomy_chain(&mut w, 8, 2);
        let cfg = GroundConfig {
            budget: Budget::with_steps(steps),
            ..GroundConfig::default()
        };
        match ground_exhaustive(&mut w, &prog, &cfg) {
            Ok(_) => {}
            Err(GroundError::Interrupted(r)) => {
                prop_assert_eq!(r, InterruptReason::Steps);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        // Unused but keeps the strategy exercised across seeds.
        let _ = seed;
    }
}

#[test]
fn expired_deadline_interrupts_immediately() {
    let (_, g) = workload(7);
    let view = FlatView::new(&g, ordered_logic::core::CompId(0));
    let budget = Budget::limited(None, Some(std::time::Instant::now()));
    // Deadlines are probed, not checked every tick, so a small prefix of
    // work may complete; the result must still be sound.
    let full = least_model(&view);
    match least_model_budgeted(&view, &budget) {
        Eval::Complete(m) => assert_eq!(m, full),
        Eval::Interrupted(i) => {
            assert_eq!(i.reason, InterruptReason::Deadline);
            assert!(i.partial.is_subset(&full));
        }
    }
}

#[test]
fn cancellation_stops_parallel_grounding_promptly() {
    // A cancelled budget must stop every grounding worker at the next
    // spend-pool flush: the call returns `Cancelled` without grounding
    // the whole (deliberately large) workload, and well within a bound
    // that full grounding of a hung worker would blow through.
    use olp_workload::GraphShape;
    let mut w = World::new();
    let prog = olp_workload::ancestor(
        &mut w,
        GraphShape::Random {
            edges: 900,
            seed: 5,
        },
        300,
    );
    let budget = Budget::cancellable();
    budget.cancel();
    let cfg = GroundConfig {
        budget: budget.clone(),
        threads: 8,
        ..GroundConfig::default()
    };
    let start = std::time::Instant::now();
    let res = ordered_logic::ground::ground_smart(&mut w, &prog, &cfg);
    assert!(
        matches!(
            res,
            Err(GroundError::Interrupted(InterruptReason::Cancelled))
        ),
        "pre-cancelled budget must interrupt parallel grounding, got {res:?}"
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "workers did not observe cancellation promptly"
    );
}

#[test]
fn cancellation_stops_the_morsel_fixpoint() {
    // Same contract for the work-stealing least model: every worker
    // shares the budget, so a cancellation trips all in-flight morsels
    // and the merged partial under-approximates the least model.
    use ordered_logic::semantics::least_model_morsel_forced;
    let (_, g) = workload(11);
    for ci in 0..g.order.len() {
        let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
        let full = least_model(&view);
        let budget = Budget::cancellable();
        budget.cancel();
        match least_model_morsel_forced(&view, &view.morsels(1), 4, &budget) {
            // An empty level schedule can finish before the first probe.
            Eval::Complete(m) => assert_eq!(m, full),
            Eval::Interrupted(i) => {
                assert_eq!(i.reason, InterruptReason::Cancelled);
                assert!(i.partial.is_subset(&full));
            }
        }
    }
}

#[test]
fn cancellation_stops_the_enumerator() {
    let (_, g) = workload(3);
    let view = FlatView::new(&g, ordered_logic::core::CompId(g.order.len() as u32 - 1));
    let budget = Budget::cancellable();
    budget.cancel();
    for eval in [
        enumerate_assumption_free_decomposed_budgeted(&view, &budget, None),
        stable_models_decomposed(&view, &budget, None, None),
    ] {
        match eval {
            // Tiny searches may finish inside the first probe interval.
            Eval::Complete(_) => {}
            Eval::Interrupted(i) => assert_eq!(i.reason, InterruptReason::Cancelled),
        }
    }
}

proptest! {
    /// A budget that trips mid-incremental-update must leave the KB
    /// queryable and **exactly** consistent with its pre-mutation
    /// state: interrupted mutations are not applied (no torn ground
    /// programs, no half-invalidated caches), and the same KB keeps
    /// accepting unbudgeted mutations afterwards.
    #[test]
    fn interrupted_incremental_mutation_keeps_kb_consistent(
        seed in 0u64..40,
        steps in 0u64..400,
        is_assert in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut world = World::new();
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let prog = random_ordered(&mut world, &cfg, seed);
        // `threads` exercises budget atomicity on both the sequential
        // and the parallel (BSP) delta-grounding paths: a tripped
        // mutation must be all-or-nothing regardless of how many
        // workers were in flight when the budget ran out.
        let gcfg = GroundConfig {
            threads,
            ..GroundConfig::default()
        };
        let mut kb = KbBuilder::from_parts(world, prog)
            .build_with(GroundStrategy::Smart, &gcfg)
            .expect("propositional programs always ground");
        kb.set_threads(threads);
        let objects = ["c0", "c1", "c2"];
        let before: Vec<String> = objects
            .iter()
            .map(|o| {
                let m = kb.model(o).expect("known object").clone();
                kb.render(&m)
            })
            .collect();
        let epoch_before = kb.epoch();
        let opts = QueryOptions::new().max_steps(steps).threads(threads);
        let ev = if is_assert {
            kb.assert_rule_with("c0", "p0 :- p1, -p2.", &opts)
                .expect("no hard error")
                .map(|()| true)
        } else {
            kb.retract_rule_with("c0", "p0 :- p1, -p2.", &opts)
                .expect("no hard error")
        };
        if ev.is_partial() {
            prop_assert_eq!(kb.epoch(), epoch_before, "interrupted mutation must not commit");
            for (o, expected) in objects.iter().zip(&before) {
                let m = kb.model(o).expect("still queryable").clone();
                prop_assert_eq!(
                    &kb.render(&m), expected,
                    "KB diverged from pre-mutation state after interrupted mutation"
                );
            }
        }
        // Interrupted or not, the KB remains fully usable: an
        // unbudgeted mutation applies and is immediately visible (the
        // probe atom is outside the generator's vocabulary, so nothing
        // in the random program can overrule or defeat it).
        kb.assert_rule("c1", "probe_alive.").expect("unbudgeted assert succeeds");
        prop_assert!(kb.ask("c1", "probe_alive").expect("queryable"));
        // …and a budgeted revalidation of the now-stale caches yields a
        // sound under-approximation of the new least model.
        let ev = kb
            .model_with("c0", &QueryOptions::new().max_steps(steps).threads(threads))
            .expect("queryable");
        let partial = ev.into_value();
        let full = kb.model("c0").expect("queryable");
        prop_assert!(partial.is_subset(full), "partial revalidation must under-approximate");
    }
}

#[test]
fn unlimited_budget_is_always_complete() {
    for seed in 0..10 {
        let (_, g) = workload(seed);
        for ci in 0..g.order.len() {
            let view = FlatView::new(&g, ordered_logic::core::CompId(ci as u32));
            assert!(least_model_budgeted(&view, &Budget::unlimited()).is_complete());
            assert!(
                stable_models_decomposed(&view, &Budget::unlimited(), None, None).is_complete()
            );
        }
    }
}

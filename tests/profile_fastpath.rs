//! Differential fuzzing for analysis-guided fast paths.
//!
//! The `ProgramProfile` lets the KB skip machinery the analysis proved
//! unnecessary: definite (negation-free) components run the flat
//! fixpoint without blocked/overruled bookkeeping, and provably
//! single-model components answer `stable`/`skeptical`/`credulous`
//! from the least model without enumeration. None of that may ever
//! change an answer: this harness runs random ordered programs through
//! random mutation streams twice — once profile-guided (the default)
//! and once with the guidance disabled, i.e. the general engine — and
//! demands byte-identical renderings of the least model, the
//! stable-model set, and the skeptical and credulous consequences of
//! every component after every step, at 1 and 4 worker threads.
//!
//! A second property pins the cache: after any mutation stream, the
//! per-epoch cached profile must equal a from-scratch analysis of the
//! mutated program.
//!
//! Run with `PROPTEST_CASES=256` for the deep nightly configuration.

use olp_workload::{random_ordered, RandomCfg};
use ordered_logic::core::CompId;
use ordered_logic::prelude::*;
use proptest::prelude::*;

const N_ATOMS: usize = 6;
const N_COMPONENTS: usize = 3;

/// Same base distribution as `tests/incremental.rs`: small enough to
/// enumerate, contested enough that some components are unstratified
/// (multi-model) and some collapse to a single model — both sides of
/// every fast-path gate get exercised.
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

fn build_kb(seed: u64, guided: bool, threads: usize) -> Kb {
    let mut world = World::new();
    let prog = random_ordered(&mut world, &base_cfg(), seed);
    let mut kb = KbBuilder::from_parts(world, prog)
        .build_with(GroundStrategy::Smart, &GroundConfig::default())
        .expect("propositional programs always ground");
    kb.set_profile_guided(guided);
    kb.set_threads(threads);
    kb
}

/// One random propositional mutation (component, assert?, rule text).
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

fn render_model(kb: &mut Kb, obj: &str) -> String {
    let m = kb.model(obj).expect("known object").clone();
    kb.render(&m)
}

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

fn render_skeptical(kb: &mut Kb, obj: &str) -> String {
    let m = kb.skeptical(obj).expect("known object");
    kb.render(&m)
}

fn render_credulous(kb: &mut Kb, obj: &str) -> Vec<String> {
    let ls = kb
        .credulous_with(obj, &QueryOptions::new())
        .expect("known object")
        .expect_complete("unlimited credulous read");
    ls.iter().map(|&l| kb.world().glit_str(l)).collect()
}

fn apply(kb: &mut Kb, obj: &str, is_assert: bool, rule: &str) -> bool {
    if is_assert {
        kb.assert_rule(obj, rule).expect("assert grounds");
        true
    } else {
        kb.retract_rule(obj, rule).expect("retract grounds")
    }
}

proptest! {
    /// Analysis-guided evaluation is byte-identical to the general
    /// engine across random programs, mutation streams, semantics, and
    /// thread counts.
    #[test]
    fn profile_fastpath_matches_general(
        seed in 0u64..300,
        steps in proptest::collection::vec(mutation(), 1..6),
    ) {
        for threads in [1usize, 4] {
            let mut guided = build_kb(seed, true, threads);
            let mut general = build_kb(seed, false, threads);
            prop_assert!(guided.profile_guided());
            prop_assert!(!general.profile_guided());
            for (step, (comp, is_assert, rule)) in steps.iter().enumerate() {
                let obj = format!("c{comp}");
                let a = apply(&mut guided, &obj, *is_assert, rule);
                let b = apply(&mut general, &obj, *is_assert, rule);
                prop_assert_eq!(a, b, "retract hit/miss diverged at step {}", step);
                for c in 0..N_COMPONENTS {
                    let obj = format!("c{c}");
                    prop_assert_eq!(
                        render_model(&mut guided, &obj),
                        render_model(&mut general, &obj),
                        "least models diverged in {} after step {} ({} into c{}, {} threads)",
                        obj, step, rule, comp, threads
                    );
                    prop_assert_eq!(
                        render_stable(&mut guided, &obj),
                        render_stable(&mut general, &obj),
                        "stable sets diverged in {} after step {} ({} threads)",
                        obj, step, threads
                    );
                    prop_assert_eq!(
                        render_skeptical(&mut guided, &obj),
                        render_skeptical(&mut general, &obj),
                        "skeptical sets diverged in {} after step {} ({} threads)",
                        obj, step, threads
                    );
                    prop_assert_eq!(
                        render_credulous(&mut guided, &obj),
                        render_credulous(&mut general, &obj),
                        "credulous sets diverged in {} after step {} ({} threads)",
                        obj, step, threads
                    );
                }
            }
        }
    }

    /// The per-epoch profile cache revalidates correctly: after any
    /// mutation stream, the cached profile of every component equals a
    /// from-scratch analysis of the mutated program.
    #[test]
    fn cached_profile_matches_scratch_analysis(
        seed in 0u64..300,
        steps in proptest::collection::vec(mutation(), 1..6),
    ) {
        let mut kb = build_kb(seed, true, 1);
        // Touch every profile up front so the mutation loop exercises
        // the stale-entry path, not just first computation.
        kb.warm_profiles();
        for (comp, is_assert, rule) in &steps {
            let obj = format!("c{comp}");
            apply(&mut kb, &obj, *is_assert, rule);
        }
        let order = kb.program().order().expect("order stays valid");
        for c in 0..N_COMPONENTS {
            let obj = format!("c{c}");
            let cached = kb
                .component_profile(&obj)
                .expect("known object")
                .expect("valid order");
            let fresh =
                ordered_logic::analyze::component_profile(kb.program(), &order, CompId(c as u32));
            prop_assert_eq!(
                &*cached, &fresh,
                "cached profile of {} diverged from scratch analysis", obj
            );
        }
    }
}

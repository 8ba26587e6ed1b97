//! Property-based validation of the paper's §2 theorems on random
//! ordered programs (experiments T1–T2 of DESIGN.md).
//!
//! Programs are small random propositional ordered programs from
//! `olp-workload`; each property is the literal statement of a lemma,
//! proposition or theorem.

use olp_workload::{random_ordered, RandomCfg};
use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::{enumerate_models, least_model_naive, v_step};
use ordered_logic::semantics::{
    extend_to_exhaustive, greatest_assumption_set, has_no_assumption_set, is_exhaustive,
};
use proptest::prelude::*;

fn small_cfg(n_atoms: usize, n_rules: usize, n_components: usize) -> RandomCfg {
    RandomCfg {
        n_atoms,
        n_rules,
        max_body: 3,
        neg_head_prob: 0.35,
        neg_body_prob: 0.4,
        n_components,
        edge_prob: 0.5,
    }
}

fn setup(seed: u64, cfg: &RandomCfg) -> (World, OrderedProgram, GroundProgram) {
    let mut w = World::new();
    let p = random_ordered(&mut w, cfg, seed);
    let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).expect("grounds");
    (w, p, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1: V is monotone — I ⊆ J ⇒ V(I) ⊆ V(J) — checked on the
    /// increasing Kleene chain and on random model pairs.
    #[test]
    fn lemma1_v_monotone_on_chain(seed in 0u64..10_000) {
        let cfg = small_cfg(5, 8, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let mut cur = Interpretation::new();
            for _ in 0..20 {
                let next = v_step(&v, &cur);
                prop_assert!(cur.is_subset(&next) || cur == next,
                    "Kleene chain must be increasing");
                if next == cur { break; }
                cur = next;
            }
        }
    }

    /// Lemma 1 again, on arbitrary ⊆-ordered pairs (not just the Kleene
    /// chain): take any model J and any subinterpretation I ⊆ J, then
    /// V(I) ⊆ V(J).
    #[test]
    fn lemma1_v_monotone_on_pairs(seed in 0u64..10_000) {
        let cfg = small_cfg(4, 7, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for j in enumerate_models(&v, g.n_atoms, None).into_iter().take(8) {
                // I = every-other-literal subset of J (deterministic).
                let mut i = Interpretation::new();
                for (k, lit) in j.literals().enumerate() {
                    if k % 2 == 0 {
                        i.insert(lit).expect("subset of a consistent set");
                    }
                }
                let vi = v_step(&v, &i);
                let vj = v_step(&v, &j);
                prop_assert!(vi.is_subset(&vj), "V not monotone");
            }
        }
    }

    /// Proposition 1 + Theorem 1b: the least fixpoint V^∞(∅) is a
    /// model, is assumption-free (both characterisations agree), and is
    /// contained in every model (= the intersection of all models).
    #[test]
    fn thm1b_lfp_is_least_assumption_free_model(seed in 0u64..10_000) {
        let cfg = small_cfg(4, 7, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let lm = least_model(&v);
            prop_assert_eq!(&lm, &least_model_naive(&v), "engines agree");
            prop_assert!(is_model(&v, &lm, g.n_atoms));
            prop_assert!(is_assumption_free(&v, &lm));
            prop_assert!(has_no_assumption_set(&v, &lm));
            for m in enumerate_models(&v, g.n_atoms, None) {
                prop_assert!(lm.is_subset(&m));
            }
        }
    }

    /// Theorem 1a vs the direct Definition 7 check: on every *model*,
    /// `T_{C^M}^∞(∅) = M` iff no subset of M is an assumption set.
    #[test]
    fn thm1a_equivalence_of_af_checks(seed in 0u64..10_000) {
        let cfg = small_cfg(4, 7, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for m in enumerate_models(&v, g.n_atoms, None) {
                prop_assert_eq!(
                    is_assumption_free(&v, &m),
                    has_no_assumption_set(&v, &m),
                    "characterisations disagree on a model"
                );
            }
        }
    }

    /// Proposition 2: every model is a subset of an exhaustive model.
    #[test]
    fn prop2_every_model_extends_to_exhaustive(seed in 0u64..10_000) {
        let cfg = small_cfg(3, 6, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for m in enumerate_models(&v, g.n_atoms, None) {
                let e = extend_to_exhaustive(&v, &m, g.n_atoms);
                prop_assert!(m.is_subset(&e));
                prop_assert!(is_exhaustive(&v, &e, g.n_atoms));
            }
        }
    }

    /// Definition 9 sanity: stable models are assumption-free models,
    /// pairwise ⊆-incomparable, contain the least model, and every
    /// assumption-free model is ⊆ some stable model.
    #[test]
    fn def9_stable_model_structure(seed in 0u64..10_000) {
        let cfg = small_cfg(4, 8, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let lm = least_model(&v);
            let af = ordered_logic::semantics::reference::enumerate_assumption_free(&v);
            let stable = stable_models(&v);
            prop_assert!(!stable.is_empty(), "an AF model always exists (lfp)");
            for s in &stable {
                prop_assert!(is_model(&v, s, g.n_atoms));
                prop_assert!(is_assumption_free(&v, s));
                prop_assert!(lm.is_subset(s));
                for s2 in &stable {
                    prop_assert!(!s.is_proper_subset(s2));
                }
            }
            for m in &af {
                prop_assert!(
                    stable.iter().any(|s| m.is_subset(s)),
                    "AF model not below any stable model"
                );
            }
        }
    }

    /// The goal-directed prover agrees with the global least model on
    /// every literal of every component.
    #[test]
    fn prover_agrees_with_least_model(seed in 0u64..10_000) {
        use ordered_logic::semantics::prove;
        use ordered_logic::core::{AtomId, GLit, Sign};
        let cfg = small_cfg(5, 9, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let m = least_model(&v);
            for a in 0..g.n_atoms as u32 {
                for sign in [Sign::Pos, Sign::Neg] {
                    let q = GLit::new(sign, AtomId(a));
                    prop_assert_eq!(prove(&v, q), m.holds(q));
                }
            }
        }
    }

    /// The propagating stable solver is set-equal to the naive
    /// enumerator on random ordered programs.
    #[test]
    fn propagating_solver_agrees(seed in 0u64..10_000) {
        use ordered_logic::semantics::enumerate_assumption_free_propagating;
        use ordered_logic::semantics::reference::enumerate_assumption_free;
        let cfg = small_cfg(5, 9, 3);
        let (w, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let mut a: Vec<String> = enumerate_assumption_free(&v)
                .iter().map(|m| m.render(&w)).collect();
            let mut b: Vec<String> = enumerate_assumption_free_propagating(&v)
                .iter().map(|m| m.render(&w)).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "solvers disagree (seed {}, comp {})", seed, ci);
        }
    }

    /// Component-wise evaluation (the SCC-stratified flat fixpoint,
    /// product-form enumeration over independent rule groups) is
    /// set-equal to the monolithic engines on random ordered programs —
    /// the differential correctness gate for the decomposition.
    #[test]
    fn decomposed_engines_agree_with_monolithic(seed in 0u64..10_000) {
        use ordered_logic::semantics::enumerate_assumption_free_decomposed_budgeted;
        use ordered_logic::semantics::enumerate_assumption_free_propagating;
        use ordered_logic::semantics::reference::{
            least_model_monolithic, stable_models_monolithic_budgeted,
        };
        let cfg = small_cfg(5, 9, 3);
        let (w, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            prop_assert_eq!(
                least_model(&v), least_model_monolithic(&v),
                "stratified lfp differs (seed {}, comp {})", seed, ci);
            let mut a: Vec<String> = enumerate_assumption_free_propagating(&v)
                .iter().map(|m| m.render(&w)).collect();
            let mut b: Vec<String> = enumerate_assumption_free_decomposed_budgeted(
                &v, &Budget::unlimited(), None)
                .into_value().iter().map(|m| m.render(&w)).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "AF sets differ (seed {}, comp {})", seed, ci);
            let mut sa: Vec<String> =
                stable_models_monolithic_budgeted(&v, &Budget::unlimited(), None)
                    .into_value().iter().map(|m| m.render(&w)).collect();
            let mut sb: Vec<String> = stable_models(&v)
                .iter().map(|m| m.render(&w)).collect();
            sa.sort();
            sb.sort();
            prop_assert_eq!(sa, sb, "stable sets differ (seed {}, comp {})", seed, ci);
        }
    }

    /// Skeptical consequences sit between the least model and every
    /// stable model.
    #[test]
    fn skeptical_sandwich(seed in 0u64..10_000) {
        use ordered_logic::semantics::skeptical_consequences;
        let cfg = small_cfg(4, 8, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let lm = least_model(&v);
            let sk = skeptical_consequences(&v);
            prop_assert!(lm.is_subset(&sk));
            for s in stable_models(&v) {
                prop_assert!(sk.is_subset(&s));
            }
        }
    }

    /// Explanations: every literal of the least model has a proof tree
    /// whose internal structure is sound (each node's rule is applied
    /// and unattacked, premises match the rule body); every underived
    /// literal gets a refutation whose fates are accurate.
    #[test]
    fn explanations_are_sound(seed in 0u64..10_000) {
        use ordered_logic::semantics::{explain_in, Fate, Why};
        let cfg = small_cfg(5, 9, 3);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let m = least_model(&v);
            for lit in m.literals() {
                match explain_in(&v, &m, lit) {
                    Why::Proved(proof) => {
                        // Walk the tree.
                        let mut stack = vec![&proof];
                        while let Some(node) = stack.pop() {
                            prop_assert!(m.holds(node.lit));
                            prop_assert_eq!(v.head(node.rule), node.lit);
                            prop_assert!(v.applied(node.rule, &m));
                            prop_assert!(!v.overruled(node.rule, &m));
                            prop_assert!(!v.defeated(node.rule, &m));
                            prop_assert_eq!(v.body(node.rule).len(), node.premises.len());
                            stack.extend(node.premises.iter());
                        }
                    }
                    Why::NotProved(_) => prop_assert!(false, "derived literal unproved"),
                }
            }
            // Spot-check a few underived literals.
            for a in 0..g.n_atoms.min(4) as u32 {
                use ordered_logic::core::{AtomId, GLit};
                let q = GLit::pos(AtomId(a));
                if m.holds(q) {
                    continue;
                }
                match explain_in(&v, &m, q) {
                    Why::NotProved(fates) => {
                        prop_assert_eq!(fates.len(), v.rules_with_head(q).len());
                        for (li, fate) in fates {
                            match fate {
                                Fate::Blocked { on } =>
                                    prop_assert!(m.holds(on.complement())),
                                Fate::Overruled { by } =>
                                    prop_assert!(!v.blocked(by, &m)),
                                Fate::Defeated { by } =>
                                    prop_assert!(!v.blocked(by, &m)),
                                Fate::NotApplicable { missing } => {
                                    prop_assert!(!missing.is_empty());
                                    for l in missing {
                                        prop_assert!(!m.holds(l));
                                    }
                                }
                            }
                            let _ = li;
                        }
                    }
                    Why::Proved(_) => prop_assert!(false, "underived literal proved"),
                }
            }
        }
    }

    /// Lemma 2: for every model `M`, the `T` fixpoint of the enabled
    /// version is contained in `M`.
    #[test]
    fn lemma2_enabled_fixpoint_below_model(seed in 0u64..10_000) {
        use ordered_logic::semantics::{enabled_version, t_fixpoint};
        let cfg = small_cfg(4, 7, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for m in enumerate_models(&v, g.n_atoms, None).into_iter().take(20) {
                let t = t_fixpoint(&enabled_version(&v, &m));
                prop_assert!(t.is_subset(&m), "Lemma 2 violated");
            }
        }
    }

    /// Definition 5: every total model is exhaustive (the converse
    /// fails — pinned separately on Fig. 2's program).
    #[test]
    fn def5_total_implies_exhaustive(seed in 0u64..10_000) {
        use ordered_logic::semantics::is_exhaustive;
        let cfg = small_cfg(3, 6, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for m in enumerate_models(&v, g.n_atoms, None) {
                if m.is_total(g.n_atoms) {
                    prop_assert!(is_exhaustive(&v, &m, g.n_atoms));
                }
            }
        }
    }

    /// The greatest assumption set really is the union of all
    /// assumption sets: removing it from any interpretation leaves an
    /// interpretation with no assumption set w.r.t. the *original* I —
    /// checked via the characterisation that the remainder is exactly
    /// what iterated removal keeps supported.
    #[test]
    fn def6_greatest_assumption_set_is_idempotent(seed in 0u64..10_000) {
        let cfg = small_cfg(4, 7, 2);
        let (_, p, g) = setup(seed, &cfg);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            for m in enumerate_models(&v, g.n_atoms, None).into_iter().take(10) {
                let gas = greatest_assumption_set(&v, &m);
                // Idempotence: the GAS of (m minus gas) w.r.t. itself
                // need not be empty (statuses change), but the GAS
                // members must each be non-supported in m.
                for lit in &gas {
                    let supported = v.rules_with_head(*lit).iter().any(|&li| {
                        v.applicable(li, &m)
                            && !v.overruled(li, &m)
                            && !v.defeated(li, &m)
                            && v.body(li).iter().all(|b| !gas.contains(b))
                    });
                    prop_assert!(!supported);
                }
            }
        }
    }
}

/// Regression: two syntactically disjoint copies of the Fig. 2 choice
/// program stay independent under decomposition — two rule groups, and
/// the stable set is the 2×2 cartesian product of the per-copy choices,
/// identical to the monolithic baseline.
#[test]
fn two_disjoint_fig2_copies_decompose_into_a_product() {
    use ordered_logic::semantics::reference::stable_models_monolithic_budgeted;
    use ordered_logic::semantics::Decomposition;
    let mut w = World::new();
    let p = parse_program(
        &mut w,
        "module c2 { a1. b1. a2. b2. }
         module c1 < c2 { -a1 :- b1. -b1 :- a1. -a2 :- b2. -b2 :- a2. }",
    )
    .unwrap();
    let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
    let c1 = p.component_by_name(w.syms.get("c1").unwrap()).unwrap();
    let v = FlatView::new(&g, c1);
    let d = Decomposition::new(&v);
    assert_eq!(d.groups().len(), 2, "disjoint copies → independent groups");
    let mut dec: Vec<String> = stable_models(&v).iter().map(|m| m.render(&w)).collect();
    let mut mono: Vec<String> = stable_models_monolithic_budgeted(&v, &Budget::unlimited(), None)
        .into_value()
        .iter()
        .map(|m| m.render(&w))
        .collect();
    dec.sort();
    mono.sort();
    assert_eq!(dec.len(), 4, "2 choices × 2 choices");
    assert_eq!(dec, mono);
}

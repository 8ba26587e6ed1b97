//! Model enumeration and stable models (Definitions 5, 9; Example 5;
//! Proposition 2).
//!
//! A **stable model** is a maximal assumption-free model. Deciding
//! stability is intractable in general (it generalises
//! Gelfond–Lifschitz stable models, Corollary 1), so enumeration is an
//! exact backtracking search:
//!
//! * assumption-free enumeration branches only over atoms that are
//!   *derivable at all* — the closure `D` of the rules ignoring
//!   statuses bounds every assumption-free model, which prunes the
//!   3-valued search space hard;
//! * arbitrary-model enumeration (needed for exhaustive models and for
//!   validating Prop. 2 on small programs) branches over the whole atom
//!   universe and is meant for small `n` only.

use crate::model::is_model;
use olp_core::Interpretation;
use olp_core::{AtomId, Budget, Eval, FxHashSet, GLit, InterruptReason, Interrupted};
use olp_ground::{FlatIdx, FlatView};

/// The derivability closure `D` of a view: the `T`-fixpoint of all its
/// rules with statuses ignored. Every assumption-free model is `⊆ D`
/// (its literals are heads of applied rules whose bodies are again in
/// the model, inductively grounding out in facts). Unlike
/// [`crate::assumption::t_fixpoint`] it tolerates complementary heads —
/// it is a *bound*, not an interpretation.
pub fn derivability_closure(fv: &FlatView) -> FxHashSet<GLit> {
    branch_space(fv, &crate::all_rules(fv), &Budget::unlimited())
        .expect("unlimited budget cannot interrupt")
        .0
}

/// The search space of assumption-free enumeration over `rules`: the
/// derivability closure `D` and its atoms, sorted — the only atoms
/// worth branching on (each may take the values whose signs `D`
/// contains, or stay undefined).
pub(crate) fn branch_space(
    fv: &FlatView,
    rules: &[FlatIdx],
    budget: &Budget,
) -> Result<(FxHashSet<GLit>, Vec<AtomId>), InterruptReason> {
    let mut d: FxHashSet<GLit> = FxHashSet::default();
    loop {
        let mut changed = false;
        for &f in rules {
            budget.tick()?;
            let h = fv.head(f);
            if !d.contains(&h) && fv.body(f).iter().all(|b| d.contains(b)) {
                d.insert(h);
                changed = true;
            }
        }
        if !changed {
            let mut atoms: Vec<AtomId> = d
                .iter()
                .map(|l| l.atom())
                .collect::<FxHashSet<_>>()
                .into_iter()
                .collect();
            atoms.sort_unstable();
            return Ok((d, atoms));
        }
    }
}

/// Definition 3 evaluated by iterating rules instead of the atom
/// universe: condition (a) runs over the literals of `m`; condition (b)
/// is equivalent to "no rule with an undefined head atom is applicable
/// yet unattacked", because atoms with no rules satisfy (b) vacuously.
/// This avoids needing an `n_atoms` bound and is exact for any
/// interpretation over the atoms of `rules`, a rule set closed under
/// the rules that mention its atoms (a decomposition group, or the
/// whole arena). The AF search and the propagating solver both use it.
pub(crate) fn is_model_for_af_search(fv: &FlatView, rules: &[FlatIdx], m: &Interpretation) -> bool {
    // (a) over the literals of m.
    for lit in m.literals() {
        for &f in fv.rules_with_head(lit.complement()) {
            if !fv.blocked(f, m) && !fv.overruled_by_applied(f, m) {
                return false;
            }
        }
    }
    // (b) over rules with undefined heads.
    rules
        .iter()
        .all(|&f| !m.undefined(fv.head(f).atom()) || !fv.fires(f, m))
}

/// Keeps only the maximal interpretations under literal-set inclusion.
pub fn maximal_only(models: Vec<Interpretation>) -> Vec<Interpretation> {
    let keep: Vec<bool> = models
        .iter()
        .map(|m| !models.iter().any(|n| m.is_proper_subset(n)))
        .collect();
    let mut out: Vec<Interpretation> = Vec::new();
    for (m, k) in models.into_iter().zip(keep) {
        if k && !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// Def. 9 over an assumption-free enumeration: keeps the maximal
/// models of a complete list. A partial list is filtered only when that
/// is provably cheap — the budget is already spent, and `maximal_only`
/// is quadratic, so a 1-second deadline must not be followed by a
/// 10-second filter. An unfiltered partial list satisfies the same
/// anytime guarantee (every member is a genuine AF model; maximality is
/// relative to what was explored).
pub(crate) fn maximal_of(eval: Eval<Vec<Interpretation>>) -> Eval<Vec<Interpretation>> {
    const CHEAP_FILTER: usize = 1024;
    match eval {
        Eval::Complete(ms) => Eval::Complete(maximal_only(ms)),
        Eval::Interrupted(Interrupted { reason, partial }) => Eval::Interrupted(Interrupted {
            reason,
            partial: if partial.len() <= CHEAP_FILTER {
                maximal_only(partial)
            } else {
                partial
            },
        }),
    }
}

/// The **stable models**: maximal assumption-free models (Definition 9).
///
/// Splits the view into independent rule groups first and solves each
/// with the propagating enumerator
/// ([`crate::stable_models_decomposed`], which also takes a budget, a
/// cap and a group memo); [`crate::reference::stable_models_naive`] is
/// the differential-testing oracle.
pub fn stable_models(fv: &FlatView) -> Vec<Interpretation> {
    crate::decomp::stable_models_decomposed(fv, &Budget::unlimited(), None, None).into_value()
}

/// Whether a **total** model exists over `0..n_atoms` (Definition 5a).
/// Exponential; small programs only.
pub fn has_total_model(fv: &FlatView, n_atoms: usize) -> bool {
    crate::reference::enumerate_models(fv, n_atoms, None)
        .iter()
        .any(|m| m.is_total(n_atoms))
}

/// Extends a model to an **exhaustive** model (Proposition 2): a model
/// that is a proper subset of no other model. Exact via enumeration of
/// superset models; exponential; small programs only.
pub fn extend_to_exhaustive(fv: &FlatView, m: &Interpretation, n_atoms: usize) -> Interpretation {
    let supers = crate::reference::enumerate_models(fv, n_atoms, Some(m));
    // `m` itself is among the candidates when it is a model; Prop. 2
    // guarantees a maximal one exists.
    maximal_only(supers)
        .into_iter()
        .next()
        .expect("Proposition 2: every model extends to an exhaustive model")
}

/// Whether `m` is an exhaustive model (Definition 5b): a model with no
/// proper superset model. Exponential; small programs only.
pub fn is_exhaustive(fv: &FlatView, m: &Interpretation, n_atoms: usize) -> bool {
    if !is_model(fv, m, n_atoms) {
        return false;
    }
    crate::reference::enumerate_models(fv, n_atoms, Some(m))
        .iter()
        .all(|n| !m.is_proper_subset(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::least_model;
    use crate::reference::{enumerate_assumption_free, enumerate_models};
    use crate::test_util::{ground, renders, FIG2, P5};
    use olp_core::{AtomId, CompId};
    use olp_parser::parse_ground_literal;

    #[test]
    fn example5_two_stable_models() {
        let (w, g) = ground(P5);
        let v = FlatView::new(&g, CompId(1));
        let af = enumerate_assumption_free(&v);
        // {c} is assumption-free but not stable.
        assert!(renders(&w, &af).contains(&"{c}".to_string()));
        let stable = stable_models(&v);
        assert_eq!(
            renders(&w, &stable),
            vec!["{-a, b, c}".to_string(), "{-b, a, c}".to_string()]
        );
    }

    #[test]
    fn fig2_no_total_model_and_empty_stable() {
        let (w, g) = ground(FIG2);
        let v = FlatView::new(&g, CompId(2));
        assert!(!has_total_model(&v, g.n_atoms));
        let stable = stable_models(&v);
        assert_eq!(renders(&w, &stable), vec!["{}".to_string()]);
    }

    #[test]
    fn p4_stable_is_empty_without_cwa() {
        let (mut w, g) = ground("a :- b.");
        let v = FlatView::new(&g, CompId(0));
        let stable = stable_models(&v);
        assert_eq!(renders(&w, &stable), vec!["{}".to_string()]);
        // {-a,-b} is a model (an exhaustive one, even) but not
        // assumption-free, hence not stable.
        let nn = Interpretation::from_literals([
            parse_ground_literal(&mut w, "-a").unwrap(),
            parse_ground_literal(&mut w, "-b").unwrap(),
        ])
        .unwrap();
        let all = enumerate_models(&v, g.n_atoms, None);
        assert!(all.contains(&nn));
        assert!(is_exhaustive(&v, &nn, g.n_atoms));
    }

    #[test]
    fn least_model_is_subset_of_every_stable_model() {
        for src in [
            P5,
            "a :- b. -a :- b. b.",
            "module c2 { p. -q. } module c1 < c2 { q :- p. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(c as u32));
                let lm = least_model(&v);
                for s in stable_models(&v) {
                    assert!(lm.is_subset(&s), "lfp ⊄ stable for {src}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_extension_exists_for_every_model() {
        // Proposition 2 on P3.
        let (_, g) = ground("a :- b. -a :- b.");
        let v = FlatView::new(&g, CompId(0));
        for m in enumerate_models(&v, g.n_atoms, None) {
            let e = extend_to_exhaustive(&v, &m, g.n_atoms);
            assert!(m.is_subset(&e));
            assert!(is_exhaustive(&v, &e, g.n_atoms));
        }
    }

    #[test]
    fn total_model_exists_for_fig1_in_c1() {
        let (_, g) = ground(
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
        );
        let v = FlatView::new(&g, CompId(1));
        assert!(has_total_model(&v, g.n_atoms));
        // The least model is total here, so it is the unique stable one.
        let stable = stable_models(&v);
        assert_eq!(stable.len(), 1);
        assert_eq!(stable[0], least_model(&v));
    }

    #[test]
    fn af_enumeration_always_contains_least_model() {
        for src in [
            "a :- b. -a :- b.",
            "p. -p.",
            "module c2 { a. } module c1 < c2 { -a :- b. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(c as u32));
                let lm = least_model(&v);
                let af = enumerate_assumption_free(&v);
                assert!(af.contains(&lm), "lfp missing from AF enumeration: {src}");
            }
        }
    }

    #[test]
    fn maximal_only_filters_correctly() {
        let a = Interpretation::from_literals([GLit::pos(AtomId(0))]).unwrap();
        let ab =
            Interpretation::from_literals([GLit::pos(AtomId(0)), GLit::pos(AtomId(1))]).unwrap();
        let c = Interpretation::from_literals([GLit::neg(AtomId(2))]).unwrap();
        let out = maximal_only(vec![a.clone(), ab.clone(), c.clone(), ab.clone()]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&ab) && out.contains(&c) && !out.contains(&a));
    }
}

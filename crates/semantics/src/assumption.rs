//! Assumption sets and assumption-free models (Definitions 6–8,
//! Theorem 1).
//!
//! A non-empty `X ⊆ I` is an **assumption set** w.r.t. `I` when every
//! rule deriving a member of `X` is non-applicable, overruled, defeated,
//! or circularly depends on `X` itself. A model with no assumption set
//! contains only literals genuinely inferable from the rules. This
//! generalises the *unfounded sets* of Van Gelder–Ross–Schlipf and the
//! assumption sets of Saccà–Zaniolo, with overruling/defeating as extra
//! escape hatches.
//!
//! Two equivalent checks are implemented (and property-tested against
//! each other):
//!
//! * [`greatest_assumption_set`] — greatest-fixpoint computation by
//!   iterated removal, works on any interpretation;
//! * [`is_assumption_free`] via Theorem 1(a): a **model** `M` is
//!   assumption-free iff `T_{C^M}^∞(∅) = M`, where `C^M` (the *enabled
//!   version*, Def. 8) keeps exactly the applied rules and `T` is the
//!   classical immediate-consequence operator.

use olp_core::Interpretation;
use olp_core::{FxHashMap, FxHashSet, GLit};
use olp_ground::{FlatIdx, FlatView};

/// The enabled version `C^M`: the applied, **unattacked** rules of the
/// view w.r.t. `m`, as `(head, body)` pairs (Definition 8,
/// reconstructed).
///
/// The paper's Def. 8 says "all applied rules", but its Theorem 1(a)
/// proof sketch asserts that "no rule in `C^M` is … overruled or
/// defeated" — which is false for applied rules in general (an applied
/// fact can be defeated by a same-component contradictor whose own
/// firing is suppressed; minimal counterexample pinned in the tests
/// below). Keeping attacked rules breaks the theorem: `T_{C^M}` can
/// rebuild `M` through a defeated rule that Definition 6 rightly
/// refuses to count as support. Excluding overruled/defeated rules is
/// the minimal reading under which Theorem 1(a) is provable — and we
/// prove it mechanically: `thm1a_equivalence_of_af_checks` holds over
/// thousands of random programs with this definition and fails without
/// it.
pub fn enabled_version(fv: &FlatView, m: &Interpretation) -> Vec<(GLit, Box<[GLit]>)> {
    enabled_in(fv, &crate::all_rules(fv), m)
}

/// [`enabled_version`] over a rule subset of the arena.
fn enabled_in(fv: &FlatView, rules: &[FlatIdx], m: &Interpretation) -> Vec<(GLit, Box<[GLit]>)> {
    rules
        .iter()
        .filter(|&&f| fv.applied(f, m) && !fv.overruled(f, m) && !fv.defeated(f, m))
        .map(|&f| (fv.head(f), fv.body(f).into()))
        .collect()
}

/// Least fixpoint of the immediate-consequence operator `T` over a set
/// of ground rules (no statuses — classical bottom-up closure).
pub fn t_fixpoint(rules: &[(GLit, Box<[GLit]>)]) -> Interpretation {
    let mut unsat: Vec<u32> = rules.iter().map(|(_, b)| b.len() as u32).collect();
    let mut by_body: FxHashMap<GLit, Vec<u32>> = FxHashMap::default();
    for (ri, (_, body)) in rules.iter().enumerate() {
        for &b in body {
            by_body.entry(b).or_default().push(ri as u32);
        }
    }
    let mut i = Interpretation::new();
    let mut queue: Vec<GLit> = Vec::new();
    for (ri, (head, _)) in rules.iter().enumerate() {
        if unsat[ri] == 0
            && i.insert(*head)
                .expect("enabled rules have consistent heads")
        {
            queue.push(*head);
        }
    }
    while let Some(l) = queue.pop() {
        if let Some(deps) = by_body.get(&l) {
            for &ri in deps {
                unsat[ri as usize] -= 1;
                if unsat[ri as usize] == 0 {
                    let head = rules[ri as usize].0;
                    if i.insert(head).expect("enabled rules have consistent heads") {
                        queue.push(head);
                    }
                }
            }
        }
    }
    i
}

/// Theorem 1(a): a **model** `m` is assumption-free iff the `T` fixpoint
/// of its enabled version equals `m`.
pub fn is_assumption_free(fv: &FlatView, m: &Interpretation) -> bool {
    assumption_free_in(fv, &crate::all_rules(fv), m)
}

/// [`is_assumption_free`] over a rule subset closed under the rules
/// that mention its atoms (a decomposition group, or the whole arena).
pub(crate) fn assumption_free_in(fv: &FlatView, rules: &[FlatIdx], m: &Interpretation) -> bool {
    t_fixpoint(&enabled_in(fv, rules, m)) == *m
}

/// The greatest assumption set `X ⊆ i` w.r.t. `i` (Definition 6),
/// computed by iterated removal: drop `A` from `X` while some rule with
/// head `A` is applicable, not overruled, not defeated, and has no body
/// literal in `X`.
///
/// Returns the literals of the greatest assumption set (empty iff `i`
/// contains no assumption set at all — the union of assumption sets is
/// an assumption set, so greatest = union).
pub fn greatest_assumption_set(fv: &FlatView, i: &Interpretation) -> Vec<GLit> {
    let mut x: FxHashSet<GLit> = i.literals().collect();
    loop {
        let mut removed = false;
        let members: Vec<GLit> = x.iter().copied().collect();
        for a in members {
            let supported = fv
                .rules_with_head(a)
                .iter()
                .any(|&f| fv.fires(f, i) && fv.body(f).iter().all(|b| !x.contains(b)));
            if supported {
                x.remove(&a);
                removed = true;
            }
        }
        if !removed {
            let mut out: Vec<GLit> = x.into_iter().collect();
            out.sort_unstable();
            return out;
        }
    }
}

/// Whether `i` contains **no** assumption set — the direct Definition 7
/// check. For models this agrees with [`is_assumption_free`]
/// (Theorem 1a); for non-models only this direct check is meaningful.
pub fn has_no_assumption_set(fv: &FlatView, i: &Interpretation) -> bool {
    greatest_assumption_set(fv, i).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::least_model;
    use crate::model::is_model;
    use crate::test_util::{ground, interp, FIG2, P5};
    use olp_core::CompId;

    #[test]
    fn example4_p4_only_empty_model_is_assumption_free() {
        // P4 = { a :- b. }: the empty set is the only assumption-free
        // model; {-a, -b} is a model but NOT assumption-free.
        let (mut w, g) = ground("a :- b.");
        let v = FlatView::new(&g, CompId(0));
        let empty = Interpretation::new();
        assert!(is_model(&v, &empty, g.n_atoms));
        assert!(is_assumption_free(&v, &empty));
        assert!(has_no_assumption_set(&v, &empty));

        let nn = interp(&mut w, &["-a", "-b"]);
        assert!(is_model(&v, &nn, g.n_atoms));
        assert!(!is_assumption_free(&v, &nn));
        let gas = greatest_assumption_set(&v, &nn);
        assert_eq!(gas.len(), 2, "both -a and -b are assumptions");
    }

    #[test]
    fn example4_with_cwa_component_flips() {
        // Adding C2 = { -a. -b. } above C1 makes {-a,-b} assumption-free
        // (the CWA facts derive the negative literals).
        let (mut w, g) = ground("module c2 { -a. -b. } module c1 < c2 { a :- b. }");
        let v = FlatView::new(&g, CompId(1));
        let nn = interp(&mut w, &["-a", "-b"]);
        assert!(is_model(&v, &nn, g.n_atoms));
        assert!(is_assumption_free(&v, &nn));
        assert!(greatest_assumption_set(&v, &nn).is_empty());
    }

    #[test]
    fn least_model_is_assumption_free_everywhere() {
        // Theorem 1(b) spot-check.
        for src in [
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
            "a :- b. -a :- b.",
            FIG2,
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(c as u32));
                let m = least_model(&v);
                assert!(is_assumption_free(&v, &m));
                assert!(has_no_assumption_set(&v, &m));
            }
        }
    }

    #[test]
    fn circular_support_is_an_assumption() {
        // p :- q. q :- p. — {p, q} is a model-ish candidate whose
        // members only support each other: an assumption set.
        let (mut w, g) = ground("p :- q. q :- p.");
        let v = FlatView::new(&g, CompId(0));
        let pq = interp(&mut w, &["p", "q"]);
        let gas = greatest_assumption_set(&v, &pq);
        assert_eq!(gas.len(), 2);
        assert!(is_model(&v, &pq, g.n_atoms));
        assert!(!is_assumption_free(&v, &pq));
    }

    #[test]
    fn t_fixpoint_ignores_statuses() {
        // The enabled version contains only applied rules, so T just
        // chases bodies.
        let (mut w, g) = ground("a. b :- a. c :- b.");
        let v = FlatView::new(&g, CompId(0));
        let m = interp(&mut w, &["a", "b", "c"]);
        let enabled = enabled_version(&v, &m);
        assert_eq!(enabled.len(), 3);
        let t = t_fixpoint(&enabled);
        assert_eq!(t, m);
    }

    #[test]
    fn thm1a_needs_unattacked_enabled_rules() {
        // The counterexample that forced the Def. 8 reconstruction
        // (found by property-test soaking): in c0's view, M = {p3} is a
        // model; its only non-circular support is the c1 fact `p3.`,
        // which is *defeated* by the (suppressed but non-blocked)
        // same-component rule `-p3 :- p0`. Def. 6 says {p3} is an
        // assumption set; with attacked rules excluded from C^M, the
        // T-fixpoint check agrees.
        let (mut w, g) = ground(
            "module c0 < c1 { p0 :- p0, p1. p3 :- p3. p1 :- p0. }
             module c1 { p3. -p1. p1 :- -p0. -p3 :- p0. }",
        );
        let v = FlatView::new(&g, CompId(0));
        let m = interp(&mut w, &["p3"]);
        assert!(is_model(&v, &m, g.n_atoms));
        assert!(
            !has_no_assumption_set(&v, &m),
            "Def. 6: {{p3}} is an assumption set"
        );
        assert!(!is_assumption_free(&v, &m), "Thm. 1a must agree");
        assert_eq!(
            greatest_assumption_set(&v, &m).len(),
            1,
            "exactly p3 is unsupported"
        );
    }

    #[test]
    fn example5_assumption_free_but_not_stable_candidate() {
        // P5: {c} is assumption-free (but not maximal).
        let (mut w, g) = ground(P5);
        let v = FlatView::new(&g, CompId(1));
        let just_c = interp(&mut w, &["c"]);
        assert!(is_model(&v, &just_c, g.n_atoms));
        assert!(is_assumption_free(&v, &just_c));
        // And both claimed stable models are assumption-free models.
        let m1 = interp(&mut w, &["a", "-b", "c"]);
        assert!(is_model(&v, &m1, g.n_atoms), "m1 model");
        assert!(is_assumption_free(&v, &m1), "m1 af");
        let m2 = interp(&mut w, &["-a", "b", "c"]);
        assert!(is_model(&v, &m2, g.n_atoms), "m2 model");
        assert!(is_assumption_free(&v, &m2), "m2 af");
    }
}

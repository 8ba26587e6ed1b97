//! The least fixpoint of the ordered immediate transformation
//! `V_{P,C}` (Definition 4, Lemma 1, Proposition 1, Theorem 1b).
//!
//! `V_{P,C}(I) = { H(r) | r ∈ ground(C*), B(r) ⊆ I, r neither overruled
//! nor defeated w.r.t. I }`. The transformation is monotone (growing `I`
//! can only satisfy more bodies and *block* more attackers — attacks
//! only ever weaken), so the least fixpoint exists and equals the limit
//! of `V^k(∅)`.
//!
//! [`least_model`] runs the stratified worklist over the flat arena
//! representation ([`crate::flat_eval`]); the definitions transcribed
//! literally, and the interpretive worklist over the whole view, are
//! the reference engines in [`crate::reference`].

use crate::view::View;
use olp_core::{Budget, Eval, Interpretation};

/// Least fixpoint of `V_{P,C}`.
///
/// By Theorem 1(b) this is the **least model** of the program in the
/// component, the intersection of all models, and is assumption-free.
///
/// Evaluation compiles the view into the **flat arena representation**
/// ([`olp_ground::flat`]) and runs the stratified worklist over dense
/// bitset truth state ([`crate::least_model_flat`]) — no hashing in the
/// inner loop. It is differentially tested against the reference engines in
/// [`crate::reference`].
pub fn least_model(view: &View) -> Interpretation {
    crate::flat_eval::least_model_flat(&crate::flat_eval::flatten(view))
}

/// [`least_model`] under a [`Budget`].
///
/// On interruption the partial result is every completed stratum in
/// full plus a monotone prefix of the current one — always a subset of
/// the unbudgeted least model.
pub fn least_model_budgeted(view: &View, budget: &Budget) -> Eval<Interpretation> {
    crate::flat_eval::least_model_flat_cfg(&crate::flat_eval::flatten(view), false, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::least_model_naive;
    use crate::test_util::{ground, FIG1, FIG2, P5};
    use olp_core::{CompId, World};
    use olp_parser::parse_ground_literal;

    fn expect_model(w: &mut World, m: &Interpretation, lits: &[&str], n_atoms: usize) {
        let want =
            Interpretation::from_literals(lits.iter().map(|s| parse_ground_literal(w, s).unwrap()))
                .unwrap();
        assert_eq!(
            m.render(w),
            want.render(w),
            "least model mismatch (n_atoms = {n_atoms})"
        );
    }

    #[test]
    fn fig1_least_model_in_c1_is_i1() {
        // The penguin does not fly in C1 (overruling); the pigeon does.
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(1)); // c1
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ],
            g.n_atoms,
        );
        assert!(m.is_total(g.n_atoms));
    }

    #[test]
    fn fig1_least_model_in_c2_has_flying_penguin() {
        // From C2's point of view the penguin flies: C1's exception is
        // invisible above.
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(0)); // c2
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "-ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "fly(penguin)",
            ],
            g.n_atoms,
        );
    }

    #[test]
    fn collapsed_fig1_defeats_instead() {
        // P̂1 (Example 3): the least model leaves fly(penguin) and
        // ground_animal(penguin) undefined.
        let (mut w, g) = ground(
            "bird(penguin). bird(pigeon).
             fly(X) :- bird(X).
             -ground_animal(X) :- bird(X).
             ground_animal(penguin).
             -fly(X) :- ground_animal(X).",
        );
        let v = View::new(&g, CompId(0));
        let m = least_model(&v);
        expect_model(
            &mut w,
            &m,
            &[
                "bird(penguin)",
                "bird(pigeon)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
            ],
            g.n_atoms,
        );
        let fp = parse_ground_literal(&mut w, "fly(penguin)").unwrap();
        assert!(!m.holds(fp) && !m.holds(fp.complement()));
    }

    #[test]
    fn fig2_defeating_gives_empty_model_in_c1() {
        // P2 (Fig. 2): C3 and C2 are incomparable from C1; rich/poor
        // defeat each other, so nothing about mimmo is derivable.
        let (_, g) = ground(FIG2);
        let c1 = CompId(2);
        let v = View::new(&g, c1);
        let m = least_model(&v);
        assert!(m.is_empty(), "got {:?}", m.len());
    }

    #[test]
    fn fig2_component_views_differ() {
        let (mut w, g) = ground(FIG2);
        // In C3's own view, mimmo is rich and not poor.
        let m3 = least_model(&View::new(&g, CompId(0)));
        expect_model(&mut w, &m3, &["rich(mimmo)", "-poor(mimmo)"], g.n_atoms);
        // In C2's own view, mimmo is poor and not rich.
        let m2 = least_model(&View::new(&g, CompId(1)));
        expect_model(&mut w, &m2, &["poor(mimmo)", "-rich(mimmo)"], g.n_atoms);
    }

    #[test]
    fn naive_and_incremental_agree_on_examples() {
        for src in [FIG1, FIG2, "a :- b. -a :- b. b.", P5] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = View::new(&g, CompId(c as u32));
                assert_eq!(
                    least_model(&v),
                    least_model_naive(&v),
                    "engines disagree on {src} in component {c}"
                );
            }
        }
    }

    #[test]
    fn eternal_attacker_blocks_derivation() {
        // `a.` in upper component, `-a :- b.` in lower with b never
        // derivable: `a` must NOT be in the least model of the lower
        // component (the non-blocked lower rule overrules it), but IS in
        // the upper component's own view.
        let (mut w, g) = ground(
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
        );
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let m_upper = least_model(&View::new(&g, CompId(0)));
        assert!(m_upper.holds(a));
        let m_lower = least_model(&View::new(&g, CompId(1)));
        assert!(!m_lower.holds(a));
        assert!(m_lower.is_empty());
    }

    #[test]
    fn loan_program_scenarios() {
        // Fig. 3 with the three §1 scenarios.
        let base = "module expert2 { take_loan :- inflation(X), X > 11. }
             module expert4 { -take_loan :- loan_rate(X), X > 14. }
             module expert3 < expert4 {
                take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
             }
             module myself < expert2, expert3 { %FACTS% }";

        let check = |facts: &str| -> (World, Option<bool>) {
            let src = base.replace("%FACTS%", facts);
            let (mut w, g) = ground(&src);
            let myself = CompId(3);
            let m = least_model(&View::new(&g, myself));
            let tl = parse_ground_literal(&mut w, "take_loan").unwrap();
            let val = if m.holds(tl) {
                Some(true)
            } else if m.holds(tl.complement()) {
                Some(false)
            } else {
                None
            };
            (w, val)
        };

        // Scenario 0: no facts — nothing derivable.
        assert_eq!(check("").1, None);
        // Scenario 1: inflation(12) — expert2 fires, take_loan true.
        assert_eq!(check("inflation(12).").1, Some(true));
        // Scenario 2: inflation(12), loan_rate(16) — expert2 vs expert4
        // defeat each other; undefined.
        assert_eq!(check("inflation(12). loan_rate(16).").1, None);
        // Scenario 3: inflation(19), loan_rate(16) — expert3 overrules
        // expert4; take_loan true.
        assert_eq!(check("inflation(19). loan_rate(16).").1, Some(true));
    }

    #[test]
    fn p3_least_model_is_empty() {
        // Example 3 tail: { a :- b.  -a :- b. } has least model ∅.
        let (_, g) = ground("a :- b. -a :- b.");
        let m = least_model(&View::new(&g, CompId(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn example4_two_components_cwa() {
        // P4 extended (Example 4): adding a component C2 above with
        // facts -a., -b. makes {-a, -b} the least (assumption-free)
        // model of C1's view.
        let (mut w, g) = ground(
            "module c2 { -a. -b. }
             module c1 < c2 { a :- b. }",
        );
        let m = least_model(&View::new(&g, CompId(1)));
        expect_model(&mut w, &m, &["-a", "-b"], g.n_atoms);
    }

    #[test]
    fn self_defeating_fact_pair() {
        // p. and -p. in one component: mutual defeat, nothing derived.
        let (_, g) = ground("p. -p.");
        let m = least_model(&View::new(&g, CompId(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn lower_fact_beats_upper_fact() {
        let (mut w, g) = ground("module low < high { p. } module high { -p. }");
        let low = CompId(0);
        let m = least_model(&View::new(&g, low));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        assert!(m.holds(p));
        assert!(!m.holds(p.complement()));
    }
}

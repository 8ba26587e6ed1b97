//! Models of an ordered program in a component (Definition 3).
//!
//! `M` is a model iff:
//!
//! * **(a)** for each literal `A ∈ M`, every rule with head `¬A` is
//!   blocked or overruled **by an applied rule** — the truth of `A`
//!   either cannot be contradicted, or every contradiction is
//!   re-confirmed by a more specific applied rule;
//! * **(b)** for each undefined atom, every *applicable* rule deriving
//!   either sign of it is overruled or defeated — a value may stay
//!   undefined only when its derivations are suppressed.

use olp_core::Interpretation;
use olp_core::{AtomId, GLit, Sign};
use olp_ground::{FlatIdx, FlatView};

/// Checks Definition 3 for `m` in the component of `fv`.
///
/// `n_atoms` bounds the atom universe (use
/// [`olp_ground::GroundProgram::n_atoms`]).
pub fn is_model(fv: &FlatView, m: &Interpretation, n_atoms: usize) -> bool {
    check_model(fv, m, n_atoms).is_ok()
}

/// Result of diagnosing why an interpretation is not a model; useful in
/// error messages and the experiments binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelViolation {
    /// Condition (a) fails: this literal is in `M` but the given rule
    /// with the complementary head is neither blocked nor overruled by
    /// an applied rule.
    Contradicted {
        /// The literal in `M`.
        lit: GLit,
        /// The offending rule.
        rule: FlatIdx,
    },
    /// Condition (b) fails: this atom is undefined but the given rule is
    /// applicable and neither overruled nor defeated.
    Underivable {
        /// The undefined atom.
        atom: AtomId,
        /// The offending rule.
        rule: FlatIdx,
    },
}

/// Like [`is_model`] but returns the first violation found.
pub fn check_model(
    fv: &FlatView,
    m: &Interpretation,
    n_atoms: usize,
) -> Result<(), ModelViolation> {
    // (a) every literal in M is uncontradicted or re-confirmed.
    for lit in m.literals() {
        for &f in fv.rules_with_head(lit.complement()) {
            if !fv.blocked(f, m) && !fv.overruled_by_applied(f, m) {
                return Err(ModelViolation::Contradicted { lit, rule: f });
            }
        }
    }
    // (b) undefined atoms have all their applicable derivations
    // suppressed.
    for atom in m.undefined_atoms(n_atoms) {
        for sign in [Sign::Pos, Sign::Neg] {
            for &f in fv.rules_with_head(GLit::new(sign, atom)) {
                if fv.fires(f, m) {
                    return Err(ModelViolation::Underivable { atom, rule: f });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ground, interp, FIG1, FIG2};
    use olp_core::CompId;
    use olp_parser::parse_ground_literal;

    #[test]
    fn example3_i1_is_model_for_p1_in_c1() {
        let (mut w, g) = ground(FIG1);
        let v = FlatView::new(&g, CompId(1));
        let i1 = interp(
            &mut w,
            &[
                "bird(pigeon)",
                "bird(penguin)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ],
        );
        assert!(is_model(&v, &i1, g.n_atoms));
        assert!(check_model(&v, &i1, g.n_atoms).is_ok());
    }

    #[test]
    fn example3_i1_is_not_model_for_collapsed_program() {
        // "On the other side, I1 is not a model for P̂1 in C."
        let (mut w, g) = ground(
            "bird(penguin). bird(pigeon).
             fly(X) :- bird(X).
             -ground_animal(X) :- bird(X).
             ground_animal(penguin).
             -fly(X) :- ground_animal(X).",
        );
        let v = FlatView::new(&g, CompId(0));
        let i1 = interp(
            &mut w,
            &[
                "bird(pigeon)",
                "bird(penguin)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ],
        );
        assert!(!is_model(&v, &i1, g.n_atoms));
        // The collapsed model of Example 3 instead:
        let i1_hat = interp(
            &mut w,
            &[
                "bird(pigeon)",
                "bird(penguin)",
                "fly(pigeon)",
                "-ground_animal(pigeon)",
            ],
        );
        assert!(is_model(&v, &i1_hat, g.n_atoms));
    }

    #[test]
    fn example2_i2_is_not_a_model_of_p2_in_c1() {
        // I2 = {rich(mimmo), poor(mimmo)} — wait, I2 in the paper is
        // inconsistent-looking but it is {rich(mimmo), poor(mimmo)}
        // (both positive: consistent). It is an interpretation but NOT a
        // model.
        let (mut w, g) = ground(FIG2);
        let v = FlatView::new(&g, CompId(2));
        let i2 = interp(&mut w, &["rich(mimmo)", "poor(mimmo)"]);
        assert!(!is_model(&v, &i2, g.n_atoms));
        // The empty interpretation IS a model for P2 in C1.
        let empty = Interpretation::new();
        assert!(is_model(&v, &empty, g.n_atoms));
    }

    #[test]
    fn example3_p3_model_list_exact() {
        // P3 = { a :- b.  -a :- b. }: models are exactly
        // {b}, {-b}, {a,-b}, {-a,-b} and {} among all interpretations.
        let (mut w, g) = ground("a :- b. -a :- b.");
        let v = FlatView::new(&g, CompId(0));
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let b = parse_ground_literal(&mut w, "b").unwrap();
        let mut models = Vec::new();
        for av in [None, Some(true), Some(false)] {
            for bv in [None, Some(true), Some(false)] {
                let mut i = Interpretation::new();
                if let Some(t) = av {
                    i.insert(if t { a } else { a.complement() }).unwrap();
                }
                if let Some(t) = bv {
                    i.insert(if t { b } else { b.complement() }).unwrap();
                }
                if is_model(&v, &i, g.n_atoms) {
                    models.push(i.render(&w));
                }
            }
        }
        models.sort();
        let mut expected = vec![
            "{}".to_string(),
            "{b}".to_string(),
            "{-b}".to_string(),
            "{-b, a}".to_string(),
            "{-a, -b}".to_string(),
        ];
        expected.sort();
        assert_eq!(models, expected);
        // In particular the Herbrand base {a, b} is NOT a model.
    }

    #[test]
    fn least_fixpoint_is_always_a_model() {
        // Proposition 1 spot-check on several programs/components.
        use crate::least_model;
        for src in [
            FIG1,
            "a :- b. -a :- b.",
            "p. -p.",
            "module c2 { a. b. c. } module c1 < c2 { -a :- b, c. -b :- a. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(c as u32));
                let m = least_model(&v);
                assert!(is_model(&v, &m, g.n_atoms), "lfp not a model for {src}");
            }
        }
    }

    #[test]
    fn violation_diagnostics() {
        let (mut w, g) = ground("a.");
        let v = FlatView::new(&g, CompId(0));
        let empty = Interpretation::new();
        // `a.` applicable, unattacked, head undefined → (b) violated.
        assert!(matches!(
            check_model(&v, &empty, g.n_atoms),
            Err(ModelViolation::Underivable { .. })
        ));
        // {-a} has the fact `a.` contradicting it, unblocked and not
        // overruled → (a) violated.
        let na = interp(&mut w, &["-a"]);
        assert!(matches!(
            check_model(&v, &na, g.n_atoms),
            Err(ModelViolation::Contradicted { .. })
        ));
    }
}

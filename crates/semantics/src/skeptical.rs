//! Skeptical (cautious) stable consequences.
//!
//! §5 of the paper leaves "extending well-founded semantics to ordered
//! logic programs" as future work. The least model `V^∞(∅)` is already
//! the natural *grounded* semantics (and equals the Fitting model under
//! `OV`, see `olp_classic::fitting`); what WFS adds over Fitting is
//! unfounded-set reasoning, whose ordered analogue is quantification
//! over stable models. This module provides that strongest sound
//! refinement: the **intersection of all stable models** (Def. 9).
//!
//! Properties (checked in `tests/theorems.rs` /
//! `tests/transform_correspondence.rs`):
//!
//! * `least_model ⊆ skeptical` — skeptical reasoning only adds;
//! * for seminegative `C`, the well-founded model of `C` is contained
//!   in the skeptical consequences of `OV(C)` in `C` (WFS ⊆ every
//!   partial stable model = every stable model of `OV(C)` by Cor. 1);
//! * like the classical cautious-stable operator, the result need
//!   *not* itself be a model — it is a set of safe conclusions.
//!
//! Cost: stable-model enumeration (exponential in the contested core).
//! Budgeted and memoised reads go through the knowledge base's
//! evaluation front door (`olp_kb`), which derives both sets from its
//! stable-model answer.

use crate::interp_intersection;
use crate::stable::stable_models;
use olp_core::Interpretation;
use olp_ground::FlatView;

/// The literals true in **every** stable model of the view.
pub fn skeptical_consequences(fv: &FlatView) -> Interpretation {
    interp_intersection(&stable_models(fv))
}

/// The literals true in **some** stable model (credulous/brave
/// consequences). The union of stable models may contain complementary
/// literals (different models choose differently), so the result is a
/// sorted literal list rather than an [`Interpretation`].
pub fn credulous_consequences(fv: &FlatView) -> Vec<olp_core::GLit> {
    let mut out: Vec<olp_core::GLit> = stable_models(fv)
        .iter()
        .flat_map(|m| m.literals().collect::<Vec<_>>())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::least_model;
    use crate::test_util::{ground, P5};
    use olp_core::CompId;
    use olp_parser::parse_ground_literal;

    #[test]
    fn p5_skeptical_is_exactly_c() {
        // Example 5: stable models {a,¬b,c} and {¬a,b,c}; the skeptical
        // consequences are {c} — here equal to the least model.
        let (w, g) = ground(P5);
        let v = FlatView::new(&g, CompId(1));
        let sk = skeptical_consequences(&v);
        assert_eq!(sk.render(&w), "{c}");
        assert_eq!(sk, least_model(&v));
    }

    #[test]
    fn skeptical_exceeds_least_model_by_case_analysis() {
        // A symmetric choice: the two stable models pick a or b, and
        // both derive r — so r is a skeptical consequence even though
        // the least model is empty (it cannot break the tie). This is
        // exactly the reasoning-by-cases that the grounded/least
        // semantics cannot do.
        let (mut w, g) = ground(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. r :- a. r :- b. }",
        );
        let v = FlatView::new(&g, CompId(1));
        let lm = least_model(&v);
        assert!(lm.is_empty(), "the tie leaves the least model empty");
        let sk = skeptical_consequences(&v);
        let r = parse_ground_literal(&mut w, "r").unwrap();
        assert!(sk.holds(r), "r holds in both stable models");
        let a = parse_ground_literal(&mut w, "a").unwrap();
        assert!(!sk.holds(a) && !sk.holds(a.complement()));
    }

    #[test]
    fn credulous_contains_both_choices() {
        let (mut w, g) = ground(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. r :- a. r :- b. }",
        );
        let v = FlatView::new(&g, CompId(1));
        let cred = credulous_consequences(&v);
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let b = parse_ground_literal(&mut w, "b").unwrap();
        // Both a and ¬a are credulously true (and likewise b).
        assert!(cred.contains(&a) && cred.contains(&a.complement()));
        assert!(cred.contains(&b) && cred.contains(&b.complement()));
        // Skeptical ⊆ credulous.
        let sk = skeptical_consequences(&v);
        for l in sk.literals() {
            assert!(cred.contains(&l));
        }
    }

    #[test]
    fn interp_intersection_behaviour() {
        use crate::interp_intersection;
        use olp_core::{AtomId, GLit};
        let a = Interpretation::from_literals([
            GLit::pos(AtomId(0)),
            GLit::neg(AtomId(1)),
            GLit::pos(AtomId(2)),
        ])
        .unwrap();
        let b = Interpretation::from_literals([
            GLit::pos(AtomId(0)),
            GLit::pos(AtomId(1)), // disagrees in sign with a
            GLit::pos(AtomId(2)),
        ])
        .unwrap();
        let i = interp_intersection(&[a.clone(), b]);
        assert!(i.holds(GLit::pos(AtomId(0))));
        assert!(i.holds(GLit::pos(AtomId(2))));
        assert_eq!(i.value(AtomId(1)), olp_core::Truth::Undefined);
        // Singleton and empty families.
        assert_eq!(interp_intersection(std::slice::from_ref(&a)), a);
        assert!(interp_intersection(&[]).is_empty());
    }

    #[test]
    fn least_model_always_contained() {
        for src in [
            "a :- b. -a :- b. b.",
            "module c2 { p. } module c1 < c2 { -p :- q. }",
            "x. -x. y :- x.",
        ] {
            let (_, g) = ground(src);
            for ci in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(ci as u32));
                assert!(
                    least_model(&v).is_subset(&skeptical_consequences(&v)),
                    "{src}"
                );
            }
        }
    }
}

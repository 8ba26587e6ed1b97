//! Explanations: *why* is a literal in the least model, and *why not*.
//!
//! The paper pitches ordered logic programming as a knowledge-base
//! language (§1, §5); a knowledge base that cannot justify its answers
//! is of limited use. This module reconstructs, from a view and its
//! least model:
//!
//! * a **proof tree** for any derived literal — the applied,
//!   non-attacked rule that fired it, with sub-proofs for its body
//!   (acyclic by construction: justifying rules are chosen by
//!   derivation rank);
//! * a **refutation record** for any underived literal — the fate of
//!   every rule that could have derived it: *blocked* (with the
//!   blocking literal), *overruled* / *defeated* (with the active
//!   attacker), or *not applicable* (with the missing body literals).

use crate::fixpoint::least_model_budgeted;
use crate::view::{LocalIdx, View};
use olp_core::{Budget, Eval, FxHashMap, GLit, Interpretation, World};
use std::fmt::Write as _;

/// A proof tree for a derived literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    /// The literal proved.
    pub lit: GLit,
    /// The rule (local index in the view) that derives it.
    pub rule: LocalIdx,
    /// Sub-proofs, one per body literal.
    pub premises: Vec<Proof>,
}

/// Why a rule that could derive the queried literal did not count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// Some body literal's complement is in the model.
    Blocked {
        /// The body literal whose complement holds.
        on: GLit,
    },
    /// A non-blocked rule in a strictly lower component contradicts it.
    Overruled {
        /// The active overruler (local index).
        by: LocalIdx,
    },
    /// A non-blocked rule in the same or an incomparable component
    /// contradicts it.
    Defeated {
        /// The active defeater (local index).
        by: LocalIdx,
    },
    /// The body is not satisfied (and not refuted).
    NotApplicable {
        /// Body literals not in the model.
        missing: Vec<GLit>,
    },
}

/// The answer to an explanation query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Why {
    /// The literal is derived; here is a proof.
    Proved(Proof),
    /// The literal is not derived; here is what happened to every rule
    /// with this head (empty = no rules at all).
    NotProved(Vec<(LocalIdx, Fate)>),
}

/// Explains `lit` against the **least model** of the view (computed
/// internally; use [`explain_in`] to reuse a model).
pub fn explain(view: &View, lit: GLit) -> Why {
    explain_budgeted(view, lit, &Budget::unlimited()).into_value()
}

/// [`explain`] under a [`Budget`]: the least-model computation may be
/// interrupted, in which case the explanation is built against the
/// partial model.
///
/// **Anytime guarantee:** a partial worklist prefix is closed under its
/// own firings (every fired rule's conditions are monotone in the
/// growing interpretation), so a `Proved` tree built on a partial model
/// is a *genuine* proof, valid in the full least model too. A
/// `NotProved` record on a partial result is provisional: it reports
/// the rule fates *relative to the explored prefix* — the literal may
/// still be derived by the unexplored remainder.
pub fn explain_budgeted(view: &View, lit: GLit, budget: &Budget) -> Eval<Why> {
    least_model_budgeted(view, budget).map(|m| explain_in(view, &m, lit))
}

/// Explains `lit` against a precomputed least model `m` of `view`.
///
/// The proof tree is built from derivation ranks, so it is acyclic even
/// for mutually recursive rules. `m` must be the least model — for
/// other models "applied" rules may be circularly supported and no
/// well-founded tree exists.
pub fn explain_in(view: &View, m: &Interpretation, lit: GLit) -> Why {
    if m.holds(lit) {
        let ranks = derivation_ranks(view, m);
        Why::Proved(build_proof(view, m, &ranks, lit))
    } else {
        let fates = view
            .rules_with_head(lit)
            .iter()
            .map(|&li| (li, fate_of(view, m, li)))
            .collect();
        Why::NotProved(fates)
    }
}

/// Ranks every derived literal by the `T`-stage at which an applied,
/// non-attacked rule first fires it.
fn derivation_ranks(view: &View, m: &Interpretation) -> FxHashMap<GLit, u32> {
    let mut rank: FxHashMap<GLit, u32> = FxHashMap::default();
    let mut stage = 0u32;
    loop {
        // Stage-synchronous: additions of this pass only become visible
        // in the next pass, so body ranks are strictly smaller than head
        // ranks and proof trees are well-founded.
        let mut added = Vec::new();
        for (li, r) in view.rules() {
            if rank.contains_key(&r.head) || !m.holds(r.head) {
                continue;
            }
            let usable = view.applied(li, m)
                && !view.overruled(li, m)
                && !view.defeated(li, m)
                && r.body.iter().all(|b| rank.contains_key(b));
            if usable {
                added.push(r.head);
            }
        }
        if added.is_empty() {
            return rank;
        }
        for h in added {
            rank.insert(h, stage);
        }
        stage += 1;
    }
}

fn build_proof(view: &View, m: &Interpretation, ranks: &FxHashMap<GLit, u32>, lit: GLit) -> Proof {
    let my_rank = *ranks
        .get(&lit)
        .expect("literal in the least model has a derivation rank");
    // Pick a firing rule whose body literals all have strictly smaller
    // ranks (the rule that assigned the rank qualifies).
    let rule = view
        .rules_with_head(lit)
        .iter()
        .copied()
        .find(|&li| {
            view.applied(li, m)
                && !view.overruled(li, m)
                && !view.defeated(li, m)
                && view
                    .rule(li)
                    .body
                    .iter()
                    .all(|b| ranks.get(b).is_some_and(|&rb| rb < my_rank))
        })
        .expect("a ranked literal has a rank-decreasing rule");
    let premises = view
        .rule(rule)
        .body
        .iter()
        .map(|&b| build_proof(view, m, ranks, b))
        .collect();
    Proof {
        lit,
        rule,
        premises,
    }
}

fn fate_of(view: &View, m: &Interpretation, li: LocalIdx) -> Fate {
    // Blocking is reported first (strongest evidence), then attacks,
    // then inapplicability.
    if let Some(&on) = view.rule(li).body.iter().find(|b| m.holds(b.complement())) {
        return Fate::Blocked { on };
    }
    if let Some(&by) = view.overrulers(li).iter().find(|&&a| !view.blocked(a, m)) {
        return Fate::Overruled { by };
    }
    if let Some(&by) = view.defeaters(li).iter().find(|&&a| !view.blocked(a, m)) {
        return Fate::Defeated { by };
    }
    Fate::NotApplicable {
        missing: view
            .rule(li)
            .body
            .iter()
            .copied()
            .filter(|&b| !m.holds(b))
            .collect(),
    }
}

/// Renders a [`Why`] as indented human-readable text.
pub fn render_why(world: &World, view: &View, why: &Why) -> String {
    let mut out = String::new();
    match why {
        Why::Proved(p) => render_proof(world, view, p, 0, &mut out),
        Why::NotProved(fates) => {
            if fates.is_empty() {
                out.push_str("not derivable: no rules with this head\n");
            } else {
                out.push_str("not derivable:\n");
                for (li, fate) in fates {
                    let rule = view.gp.rule_str(world, view_global(view, *li));
                    match fate {
                        Fate::Blocked { on } => {
                            let _ = writeln!(
                                out,
                                "  rule {rule} — blocked: {} holds",
                                world.glit_str(on.complement())
                            );
                        }
                        Fate::Overruled { by } => {
                            let _ = writeln!(
                                out,
                                "  rule {rule} — overruled by {}",
                                view.gp.rule_str(world, view_global(view, *by))
                            );
                        }
                        Fate::Defeated { by } => {
                            let _ = writeln!(
                                out,
                                "  rule {rule} — defeated by {}",
                                view.gp.rule_str(world, view_global(view, *by))
                            );
                        }
                        Fate::NotApplicable { missing } => {
                            let ms: Vec<String> =
                                missing.iter().map(|&l| world.glit_str(l)).collect();
                            let _ = writeln!(
                                out,
                                "  rule {rule} — not applicable: missing {}",
                                ms.join(", ")
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

fn render_proof(world: &World, view: &View, p: &Proof, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{} — by {}",
        world.glit_str(p.lit),
        view.gp.rule_str(world, view_global(view, p.rule))
    );
    for prem in &p.premises {
        render_proof(world, view, prem, depth + 1, out);
    }
}

/// Maps a view-local rule index back to the global rule index (for
/// rendering).
fn view_global(view: &View, li: LocalIdx) -> u32 {
    view.global_index(li)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::least_model;
    use crate::test_util::{ground, FIG1};
    use olp_core::CompId;
    use olp_parser::parse_ground_literal;

    #[test]
    fn why_penguin_does_not_fly() {
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(1));
        let no_fly = parse_ground_literal(&mut w, "-fly(penguin)").unwrap();
        let why = explain(&v, no_fly);
        let Why::Proved(p) = &why else {
            panic!("-fly(penguin) is derived")
        };
        assert_eq!(p.lit, no_fly);
        assert_eq!(p.premises.len(), 1, "via ground_animal(penguin)");
        assert!(
            p.premises[0].premises.is_empty(),
            "a fact needs no premises"
        );
        let text = render_why(&w, &v, &why);
        assert!(text.contains("-fly(penguin)"));
        assert!(text.contains("ground_animal(penguin)"));
    }

    #[test]
    fn why_not_fly_penguin_reports_overruling() {
        let (mut w, g) = ground(FIG1);
        let v = View::new(&g, CompId(1));
        let fly = parse_ground_literal(&mut w, "fly(penguin)").unwrap();
        let why = explain(&v, fly);
        let Why::NotProved(fates) = &why else {
            panic!("fly(penguin) is not derived")
        };
        assert_eq!(fates.len(), 1);
        assert!(matches!(fates[0].1, Fate::Overruled { .. }));
        let text = render_why(&w, &v, &why);
        assert!(text.contains("overruled by"));
        assert!(text.contains("-fly(penguin)"));
    }

    #[test]
    fn why_not_with_no_rules() {
        let (mut w, g) = ground("a.");
        let v = View::new(&g, CompId(0));
        let na = parse_ground_literal(&mut w, "-a").unwrap();
        let why = explain(&v, na);
        assert_eq!(why, Why::NotProved(vec![]));
        assert!(render_why(&w, &v, &why).contains("no rules"));
    }

    #[test]
    fn why_not_reports_defeat_and_missing() {
        let (mut w, g) = ground("p. -p. q :- r.");
        let v = View::new(&g, CompId(0));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        let Why::NotProved(fates) = explain(&v, p) else {
            panic!("p is defeated")
        };
        assert!(matches!(fates[0].1, Fate::Defeated { .. }));
        let q = parse_ground_literal(&mut w, "q").unwrap();
        let Why::NotProved(fates_q) = explain(&v, q) else {
            panic!("q is underivable")
        };
        assert!(matches!(&fates_q[0].1, Fate::NotApplicable { missing } if missing.len() == 1));
    }

    #[test]
    fn why_not_reports_blocking() {
        // -q holds, so p :- q is blocked.
        let (mut w, g) = ground("module c2 { p :- q. } module c1 < c2 { -q. }");
        let v = View::new(&g, CompId(1));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        let Why::NotProved(fates) = explain(&v, p) else {
            panic!("p blocked")
        };
        assert!(matches!(fates[0].1, Fate::Blocked { .. }));
    }

    #[test]
    fn recursive_proofs_are_well_founded() {
        let (mut w, g) = ground(
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let v = View::new(&g, CompId(0));
        let anc = parse_ground_literal(&mut w, "anc(a,c)").unwrap();
        let Why::Proved(proof) = explain(&v, anc) else {
            panic!("anc(a,c) derivable")
        };
        // Depth is finite and premises ground out in facts.
        fn max_depth(p: &Proof) -> usize {
            1 + p.premises.iter().map(max_depth).max().unwrap_or(0)
        }
        assert!(max_depth(&proof) <= 3);
    }

    #[test]
    fn every_least_model_literal_is_explainable() {
        for src in [
            FIG1,
            "a :- b. -a :- b. b.",
            "module c2 { x. y. } module c1 < c2 { -x :- y. z :- -x. }",
        ] {
            let (_, g) = ground(src);
            for ci in 0..g.order.len() {
                let v = View::new(&g, CompId(ci as u32));
                let m = least_model(&v);
                for lit in m.literals() {
                    assert!(
                        matches!(explain_in(&v, &m, lit), Why::Proved(_)),
                        "{src}: literal unexplainable"
                    );
                }
            }
        }
    }
}

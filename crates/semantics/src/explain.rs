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

use crate::flat_eval::least_model_budgeted;
use olp_core::{Budget, Eval, GLit, Interpretation, World};
use olp_ground::{FlatIdx, FlatView};
use std::fmt::Write as _;

/// A proof tree for a derived literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proof {
    /// The literal proved.
    pub lit: GLit,
    /// The rule that derives it.
    pub rule: FlatIdx,
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
        /// The active overruler.
        by: FlatIdx,
    },
    /// A non-blocked rule in the same or an incomparable component
    /// contradicts it.
    Defeated {
        /// The active defeater.
        by: FlatIdx,
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
    /// with this head, in program order (empty = no rules at all).
    NotProved(Vec<(FlatIdx, Fate)>),
}

/// Explains `lit` against the **least model** of the view (computed
/// internally; use [`explain_in`] to reuse a model).
pub fn explain(fv: &FlatView, lit: GLit) -> Why {
    explain_budgeted(fv, lit, &Budget::unlimited()).into_value()
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
pub fn explain_budgeted(fv: &FlatView, lit: GLit, budget: &Budget) -> Eval<Why> {
    least_model_budgeted(fv, budget).map(|m| explain_in(fv, &m, lit))
}

/// Explains `lit` against a precomputed least model `m` of `fv`.
///
/// The proof tree is built from derivation ranks, so it is acyclic even
/// for mutually recursive rules; each step uses the first qualifying
/// rule in program order. `m` must be the least model — for other
/// models "applied" rules may be circularly supported and no
/// well-founded tree exists.
pub fn explain_in(fv: &FlatView, m: &Interpretation, lit: GLit) -> Why {
    if m.holds(lit) {
        let ranks = derivation_ranks(fv, m);
        Why::Proved(build_proof(fv, m, &ranks, lit))
    } else {
        let fates = fv
            .rules_with_head(lit)
            .iter()
            .map(|&f| (f, fate_of(fv, m, f)))
            .collect();
        Why::NotProved(fates)
    }
}

/// Derivation rank per literal code (`u32::MAX`: not ranked).
struct Ranks(Vec<u32>);

impl Ranks {
    fn get(&self, l: GLit) -> Option<u32> {
        self.0.get(l.code()).copied().filter(|&r| r != u32::MAX)
    }
}

/// Ranks every derived literal by the `T`-stage at which an applied,
/// non-attacked rule first fires it.
fn derivation_ranks(fv: &FlatView, m: &Interpretation) -> Ranks {
    let mut rank = Ranks(vec![u32::MAX; 2 * fv.n_atoms]);
    let mut stage = 0u32;
    loop {
        // Stage-synchronous: additions of this pass only become visible
        // in the next pass, so body ranks are strictly smaller than head
        // ranks and proof trees are well-founded.
        let mut added = Vec::new();
        for f in 0..fv.len() as FlatIdx {
            let h = fv.head(f);
            if rank.get(h).is_some() || !m.holds(h) {
                continue;
            }
            // The head holds, so a firing rule is applied and unattacked.
            if fv.body(f).iter().all(|&b| rank.get(b).is_some()) && fv.fires(f, m) {
                added.push(h);
            }
        }
        if added.is_empty() {
            return rank;
        }
        for h in added {
            rank.0[h.code()] = stage;
        }
        stage += 1;
    }
}

fn build_proof(fv: &FlatView, m: &Interpretation, ranks: &Ranks, lit: GLit) -> Proof {
    let my_rank = ranks
        .get(lit)
        .expect("literal in the least model has a derivation rank");
    // Pick a firing rule whose body literals all have strictly smaller
    // ranks (the rule that assigned the rank qualifies).
    let rule = fv
        .rules_with_head(lit)
        .iter()
        .copied()
        .find(|&f| {
            fv.fires(f, m)
                && (fv.body(f).iter()).all(|&b| ranks.get(b).is_some_and(|rb| rb < my_rank))
        })
        .expect("a ranked literal has a rank-decreasing rule");
    let premises = (fv.body(rule).iter())
        .map(|&b| build_proof(fv, m, ranks, b))
        .collect();
    Proof {
        lit,
        rule,
        premises,
    }
}

fn fate_of(fv: &FlatView, m: &Interpretation, f: FlatIdx) -> Fate {
    // Blocking is reported first (strongest evidence), then attacks,
    // then inapplicability.
    if let Some(&on) = fv.body(f).iter().find(|b| m.holds(b.complement())) {
        return Fate::Blocked { on };
    }
    if let Some(&by) = fv.overrulers(f).iter().find(|&&a| !fv.blocked(a, m)) {
        return Fate::Overruled { by };
    }
    if let Some(&by) = fv.defeaters(f).iter().find(|&&a| !fv.blocked(a, m)) {
        return Fate::Defeated { by };
    }
    Fate::NotApplicable {
        missing: fv
            .body(f)
            .iter()
            .copied()
            .filter(|&b| !m.holds(b))
            .collect(),
    }
}

/// Renders a [`Why`] as indented human-readable text.
pub fn render_why(world: &World, fv: &FlatView, why: &Why) -> String {
    let mut out = String::new();
    match why {
        Why::Proved(p) => render_proof(world, fv, p, 0, &mut out),
        Why::NotProved(fates) => {
            if fates.is_empty() {
                out.push_str("not derivable: no rules with this head\n");
            } else {
                out.push_str("not derivable:\n");
                for (f, fate) in fates {
                    let rule = fv.rule_str(world, *f);
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
                                fv.rule_str(world, *by)
                            );
                        }
                        Fate::Defeated { by } => {
                            let _ = writeln!(
                                out,
                                "  rule {rule} — defeated by {}",
                                fv.rule_str(world, *by)
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

fn render_proof(world: &World, fv: &FlatView, p: &Proof, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{} — by {}",
        world.glit_str(p.lit),
        fv.rule_str(world, p.rule)
    );
    for prem in &p.premises {
        render_proof(world, fv, prem, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::least_model;
    use crate::test_util::{ground, FIG1};
    use olp_core::CompId;
    use olp_parser::parse_ground_literal;

    #[test]
    fn why_penguin_does_not_fly() {
        let (mut w, g) = ground(FIG1);
        let v = FlatView::new(&g, CompId(1));
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
        let v = FlatView::new(&g, CompId(1));
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
        let v = FlatView::new(&g, CompId(0));
        let na = parse_ground_literal(&mut w, "-a").unwrap();
        let why = explain(&v, na);
        assert_eq!(why, Why::NotProved(vec![]));
        assert!(render_why(&w, &v, &why).contains("no rules"));
    }

    #[test]
    fn why_not_reports_defeat_and_missing() {
        let (mut w, g) = ground("p. -p. q :- r.");
        let v = FlatView::new(&g, CompId(0));
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
        let v = FlatView::new(&g, CompId(1));
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
        let v = FlatView::new(&g, CompId(0));
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
                let v = FlatView::new(&g, CompId(ci as u32));
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

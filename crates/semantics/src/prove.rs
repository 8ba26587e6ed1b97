//! A goal-directed proof procedure for the least model (§5 mentions the
//! proof procedure of \[LV\]; this is an independent reconstruction).
//!
//! Top-down tabling interacts badly with the attack statuses (a rule's
//! firing depends positively on the derivability of its attackers'
//! *blockers*), so instead of SLD-style resolution the procedure
//! extracts the **relevance cone** of the query and runs the exact
//! worklist fixpoint on that fragment of the arena:
//!
//! * a queried literal pulls in every rule with that head;
//! * an included rule pulls in (i) its body literals (their
//!   derivations), (ii) the *complements* of its body literals (their
//!   derivations decide blocking), and (iii) its potential overrulers
//!   and defeaters — recursively.
//!
//! Everything outside the cone provably cannot influence the query:
//! influence propagates only through derivation (head→body), blocking
//! (body complement), and attack (head complement) edges, all of which
//! are closed over. Agreement with the global least model is
//! property-tested in the crate tests and `tests/theorems.rs`.

use olp_core::{Budget, Eval, FxHashSet, GLit, InterruptReason, Interrupted};
use olp_ground::{FlatIdx, FlatView};

/// The rules of the arena that can influence `query`, sorted.
pub fn relevance_cone(fv: &FlatView, query: GLit) -> Vec<FlatIdx> {
    relevance_cone_budgeted(fv, query, &Budget::unlimited())
        .expect("unlimited budget cannot interrupt")
}

/// [`relevance_cone`] under a [`Budget`]. The cone is all-or-nothing
/// (a truncated cone would not be closed under influence edges), so an
/// interruption yields `Err` rather than a partial cone.
pub fn relevance_cone_budgeted(
    fv: &FlatView,
    query: GLit,
    budget: &Budget,
) -> Result<Vec<FlatIdx>, InterruptReason> {
    let mut lits: FxHashSet<GLit> = FxHashSet::default();
    let mut rules: FxHashSet<FlatIdx> = FxHashSet::default();
    let mut lit_stack = vec![query];
    let mut rule_stack: Vec<FlatIdx> = Vec::new();

    while !lit_stack.is_empty() || !rule_stack.is_empty() {
        while let Some(l) = lit_stack.pop() {
            budget.tick()?;
            if !lits.insert(l) {
                continue;
            }
            rule_stack.extend_from_slice(fv.rules_with_head(l));
        }
        while let Some(f) = rule_stack.pop() {
            budget.tick()?;
            if !rules.insert(f) {
                continue;
            }
            for &b in fv.body(f) {
                lit_stack.push(b);
                lit_stack.push(b.complement());
            }
            rule_stack.extend_from_slice(fv.overrulers(f));
            rule_stack.extend_from_slice(fv.defeaters(f));
            if !lit_stack.is_empty() {
                break; // drain literals first to keep the sets tight
            }
        }
    }
    let mut out: Vec<FlatIdx> = rules.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

/// Whether `query` is in the least model of the view, computed
/// goal-directedly over its relevance cone.
pub fn prove(fv: &FlatView, query: GLit) -> bool {
    prove_budgeted(fv, query, &Budget::unlimited()).into_value()
}

/// [`prove`] under a [`Budget`].
///
/// **Anytime guarantee:** the partial answer is a *sound
/// under-approximation* — a partial `true` means the literal really is
/// in the least model (the restricted fixpoint's partial result is a
/// subset of its least fixpoint); a partial `false` means "not proven
/// within budget", never "disproven".
pub fn prove_budgeted(fv: &FlatView, query: GLit, budget: &Budget) -> Eval<bool> {
    let cone = match relevance_cone_budgeted(fv, query, budget) {
        Ok(cone) => cone,
        // No fixpoint was run, so nothing is proven yet.
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: false,
            })
        }
    };
    // The cone is closed under every influence edge, so the fixpoint
    // over its rules alone (rules outside it neither fire nor attack)
    // decides `query`.
    crate::reference::least_model_over(fv, &cone, budget).map(|m| m.holds(query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::least_model;
    use crate::test_util::ground;
    use olp_core::{AtomId, CompId, Sign, World};
    use olp_ground::{ground_exhaustive, GroundConfig};
    use olp_parser::parse_ground_literal;

    #[test]
    fn prove_matches_least_model_on_fig1() {
        let (_, g) = ground(
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
        );
        for ci in 0..2 {
            let v = FlatView::new(&g, CompId(ci));
            let m = least_model(&v);
            for atom in 0..g.n_atoms as u32 {
                for sign in [Sign::Pos, Sign::Neg] {
                    let q = GLit::new(sign, AtomId(atom));
                    assert_eq!(prove(&v, q), m.holds(q));
                }
            }
        }
    }

    #[test]
    fn cone_is_smaller_than_program() {
        // Two disconnected islands: querying one must not touch the
        // other.
        let (mut w, g) = ground(
            "a :- b. b.
             x :- y. y. -x :- z. z :- y.",
        );
        let v = FlatView::new(&g, CompId(0));
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let cone = relevance_cone(&v, a);
        assert_eq!(cone.len(), 2, "only `a :- b` and `b.`");
        assert!(prove(&v, a));
    }

    #[test]
    fn cone_includes_attackers_and_blockers() {
        // Proving `a` requires knowing that its attacker `-a :- b` is
        // blocked, which requires deriving `-b`, which has its own rule.
        let (mut w, g) = ground(
            "module c2 { a. b :- c. }
             module c1 < c2 { -a :- b. -b. }",
        );
        let c1 = CompId(1);
        let v = FlatView::new(&g, c1);
        let a = parse_ground_literal(&mut w, "a").unwrap();
        let cone = relevance_cone(&v, a);
        // a., -a :- b, -b., b :- c (deriving b decides the attacker's
        // applicability — included via the body complement closure).
        assert_eq!(cone.len(), 4);
        assert!(prove(&v, a), "-b blocks the attacker, a fires");
    }

    #[test]
    fn attack_chains_are_followed() {
        // c2: p. — attacked from c1 by -p :- q; q derivable unless its
        // own attacker fires…
        let (mut w, g) = ground(
            "module c2 { p. q. }
             module c1 < c2 { -p :- q. }",
        );
        let v = FlatView::new(&g, CompId(1));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        // q is derivable, -p :- q is never blocked (no -q rules), so it
        // permanently overrules `p.`.
        assert!(!prove(&v, p));
        assert!(prove(&v, p.complement()), "-p fires via q");
    }

    #[test]
    fn prove_matches_on_random_programs() {
        // Deterministic mini-fuzz without pulling proptest into the
        // unit tests: a few dozen seeds of structured programs.
        use olp_core::{BodyItem, Literal, OrderedProgram, Rule};
        for seed in 0u64..40 {
            let mut w = World::new();
            let mut prog = OrderedProgram::new();
            let c_lo = prog.add_component(w.syms.intern("lo"));
            let c_hi = prog.add_component(w.syms.intern("hi"));
            prog.add_edge(c_lo, c_hi);
            // xorshift-ish deterministic rule soup over 5 atoms.
            let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..10 {
                let head_atom = (next() % 5) as usize;
                let head_sign = if next() % 3 == 0 {
                    Sign::Neg
                } else {
                    Sign::Pos
                };
                let pred = w.pred(&format!("p{head_atom}"), 0);
                let head = Literal {
                    sign: head_sign,
                    pred,
                    args: vec![],
                };
                let mut body = Vec::new();
                for _ in 0..(next() % 3) {
                    let ba = (next() % 5) as usize;
                    let bs = if next() % 2 == 0 {
                        Sign::Pos
                    } else {
                        Sign::Neg
                    };
                    let bp = w.pred(&format!("p{ba}"), 0);
                    body.push(BodyItem::Lit(Literal {
                        sign: bs,
                        pred: bp,
                        args: vec![],
                    }));
                }
                let comp = if next() % 2 == 0 { c_lo } else { c_hi };
                prog.add_rule(comp, Rule::new(head, body));
            }
            let g = ground_exhaustive(&mut w, &prog, &GroundConfig::default()).unwrap();
            for ci in 0..2 {
                let v = FlatView::new(&g, CompId(ci));
                let m = least_model(&v);
                for atom in 0..g.n_atoms as u32 {
                    for sign in [Sign::Pos, Sign::Neg] {
                        let q = GLit::new(sign, AtomId(atom));
                        assert_eq!(
                            prove(&v, q),
                            m.holds(q),
                            "seed {seed}, comp {ci}, query {}",
                            w.glit_str(q)
                        );
                    }
                }
            }
        }
    }
}

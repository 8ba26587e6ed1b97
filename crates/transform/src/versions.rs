//! The paper's program transformations: `OV(C)`, `EV(C)`, `3V(C)`.
//!
//! * **Ordered version** `OV(C) = ⟨{¬B_C, C}, {C < ¬B_C}⟩` (§3): a CWA
//!   component sits *above* the program — "every element of the
//!   Herbrand base is false unless its truth is proved". We emit the
//!   reduced (non-ground) form: one rule `¬p(X1,…,Xn).` per predicate,
//!   so `|OV(C)|` is polynomial in `|C|` (the paper's size claim,
//!   measured in the `transform` bench).
//! * **Extended version** `EV(C)` (§3): `OV(C)` plus a *reflexive rule*
//!   `p(X…) ← p(X…)` per predicate in the lower component. Reflexive
//!   rules are never-blocked potential overrulers of the CWA facts, so
//!   an atom may stay undefined instead of defaulting to false — this
//!   is what lets `EV` capture **all** 3-valued models (Prop. 5a).
//! * **3-level version** `3V(C)` (§4) for negative programs:
//!   `⟨{¬B_C, C⁺, C⁻}, {C⁻ < C⁺ < ¬B_C, C⁻ < ¬B_C}⟩` where `C⁺` holds
//!   the seminegative rules plus all reflexive rules and `C⁻` holds the
//!   negative rules — negative rules become *exceptions* that overrule
//!   the general rules above them. The meaning is taken in `C⁻`.

use olp_core::{
    BodyItem, CompId, FxHashSet, Literal, OrderedProgram, PredId, Rule, Sign, Sym, Term, World,
};

/// Collects every predicate occurring in `rules` (heads and bodies).
fn predicates(rules: &[Rule]) -> Vec<PredId> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    let mut push = |p: PredId| {
        if seen.insert(p) {
            out.push(p);
        }
    };
    for r in rules {
        push(r.head.pred);
        for l in r.body_lits() {
            push(l.pred);
        }
    }
    out
}

/// Fresh variable arguments `V1,…,Vn` for a predicate of arity `n`.
fn fresh_args(world: &mut World, arity: u32) -> Vec<Term> {
    (1..=arity)
        .map(|i| Term::Var(world.syms.intern(&format!("V{i}"))))
        .collect()
}

/// The CWA rule `¬p(V1,…,Vn).` for predicate `p`.
fn cwa_rule(world: &mut World, pred: PredId) -> Rule {
    let arity = world.preds.arity(pred);
    Rule::fact(Literal::neg(pred, fresh_args(world, arity)))
}

/// The reflexive rule `p(V…) ← p(V…).` for predicate `p`.
fn reflexive_rule(world: &mut World, pred: PredId) -> Rule {
    let arity = world.preds.arity(pred);
    let args = fresh_args(world, arity);
    Rule::new(
        Literal::pos(pred, args.clone()),
        vec![BodyItem::Lit(Literal::pos(pred, args))],
    )
}

/// Builds `OV(C)`. Returns the program and the component (`C`) in which
/// its meaning is taken.
pub fn ordered_version(world: &mut World, rules: &[Rule]) -> (OrderedProgram, CompId) {
    let mut prog = OrderedProgram::new();
    let c = prog.add_component(world.syms.intern("c"));
    let cwa = prog.add_component(world.syms.intern("cwa"));
    prog.add_edge(c, cwa);
    for r in rules {
        prog.add_rule(c, r.clone());
    }
    for p in predicates(rules) {
        let r = cwa_rule(world, p);
        prog.add_rule(cwa, r);
    }
    (prog, c)
}

/// Builds `OV(C)` with the closed-world component written out
/// **ground**: one fact `¬p(t…)` per element of the (materialised)
/// Herbrand base over `constants`, instead of the reduced non-ground
/// form. Semantically identical to [`ordered_version`] for function-free
/// programs over exactly those constants; the source blows up from
/// `O(preds)` to `O(preds · |HU|^arity)` — this is the §3 size claim's
/// strawman, kept for the `transform` bench ablation (#5 in DESIGN.md).
pub fn ordered_version_ground_cwa(
    world: &mut World,
    rules: &[Rule],
    constants: &[Sym],
) -> (OrderedProgram, CompId) {
    let mut prog = OrderedProgram::new();
    let c = prog.add_component(world.syms.intern("c"));
    let cwa = prog.add_component(world.syms.intern("cwa"));
    prog.add_edge(c, cwa);
    for r in rules {
        prog.add_rule(c, r.clone());
    }
    for p in predicates(rules) {
        let arity = world.preds.arity(p) as usize;
        // Cartesian enumeration of constant tuples.
        let mut idx = vec![0usize; arity];
        loop {
            let args: Vec<Term> = idx.iter().map(|&i| Term::Const(constants[i])).collect();
            prog.add_rule(cwa, Rule::fact(Literal::neg(p, args)));
            if arity == 0 {
                break;
            }
            let mut k = 0;
            loop {
                if k == arity {
                    break;
                }
                idx[k] += 1;
                if idx[k] < constants.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    (prog, c)
}

/// Builds `EV(C)`: `OV(C)` plus reflexive rules in `C`.
pub fn extended_version(world: &mut World, rules: &[Rule]) -> (OrderedProgram, CompId) {
    let (mut prog, c) = ordered_version(world, rules);
    for p in predicates(rules) {
        let r = reflexive_rule(world, p);
        prog.add_rule(c, r);
    }
    (prog, c)
}

/// Builds `3V(C)` for a negative program. Returns the program and the
/// component (`C⁻`) in which its meaning is taken.
pub fn three_level_version(world: &mut World, rules: &[Rule]) -> (OrderedProgram, CompId) {
    let mut prog = OrderedProgram::new();
    let cminus = prog.add_component(world.syms.intern("c_minus"));
    let cplus = prog.add_component(world.syms.intern("c_plus"));
    let cwa = prog.add_component(world.syms.intern("cwa"));
    prog.add_edge(cminus, cplus);
    prog.add_edge(cplus, cwa);
    prog.add_edge(cminus, cwa);
    for r in rules {
        if r.head.sign == Sign::Pos {
            prog.add_rule(cplus, r.clone());
        } else {
            prog.add_rule(cminus, r.clone());
        }
    }
    for p in predicates(rules) {
        let refl = reflexive_rule(world, p);
        prog.add_rule(cplus, refl);
        let cwa_r = cwa_rule(world, p);
        prog.add_rule(cwa, cwa_r);
    }
    (prog, cminus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::Truth;
    use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
    use olp_parser::{parse_ground_literal, parse_program};
    use olp_semantics::least_model;

    /// Parses a plain (single-module) program into a rule list.
    fn rules_of(world: &mut World, src: &str) -> Vec<Rule> {
        let p = parse_program(world, src).unwrap();
        assert_eq!(p.components.len(), 1, "plain program expected");
        p.components.into_iter().next().unwrap().rules
    }

    #[test]
    fn example6_ancestor_ov() {
        // OV of the ancestor program: CWA gives -parent/-anc defaults,
        // facts and derivations override them.
        let mut w = World::new();
        let rules = rules_of(
            &mut w,
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let (ov, c) = ordered_version(&mut w, &rules);
        assert_eq!(ov.components.len(), 2);
        // Reduced form: one CWA rule per predicate (parent, anc).
        assert_eq!(ov.components[1].rules.len(), 2);
        let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
        let m = least_model(&FlatView::new(&g, c));
        let anc_ac = parse_ground_literal(&mut w, "anc(a,c)").unwrap();
        let anc_ca = parse_ground_literal(&mut w, "-anc(c,a)").unwrap();
        assert!(m.holds(anc_ac));
        assert!(m.holds(anc_ca), "CWA: anc(c,a) is false");
        assert!(m.is_total(g.n_atoms), "OV least model is total here");
    }

    #[test]
    fn example7_ov_vs_ev_on_p_not_p() {
        // C = { p :- -p }. In OV(C): the CWA fact -p is *overruled* by
        // nothing? The rule p :- -p is in C (lower), so it can overrule
        // -p; it is non-blocked until p or -p decides. The paper: {p} is
        // a 3-valued model of C but NOT a model of OV(C) in C.
        let mut w = World::new();
        let rules = rules_of(&mut w, "p :- -p.");
        let (ov, c) = ordered_version(&mut w, &rules);
        let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
        let v = FlatView::new(&g, c);
        let p_lit = parse_ground_literal(&mut w, "p").unwrap();
        let m_p = olp_core::Interpretation::from_literals([p_lit]).unwrap();
        assert!(!olp_semantics::is_model(&v, &m_p, g.n_atoms));

        // In EV(C) the reflexive rule p :- p lets p stay undefined:
        // {p} IS a model of EV(C) in C (Prop. 5a: EV captures all
        // 3-valued models).
        let mut w2 = World::new();
        let rules2 = rules_of(&mut w2, "p :- -p.");
        let (ev, c2) = extended_version(&mut w2, &rules2);
        let g2 = ground_exhaustive(&mut w2, &ev, &GroundConfig::default()).unwrap();
        let v2 = FlatView::new(&g2, c2);
        let p2 = parse_ground_literal(&mut w2, "p").unwrap();
        let m_p2 = olp_core::Interpretation::from_literals([p2]).unwrap();
        assert!(olp_semantics::is_model(&v2, &m_p2, g2.n_atoms));
    }

    #[test]
    fn example8_two_level_is_poor_for_negative_programs() {
        // Fig./Example 8: with OV (two levels) the flying abilities of a
        // ground bird are defeated — nothing derivable about fly.
        let mut w = World::new();
        let rules = rules_of(
            &mut w,
            "bird(tweety). ground_animal(tweety).
             fly(X) :- bird(X).
             -fly(X) :- ground_animal(X).",
        );
        let (ov, c) = ordered_version(&mut w, &rules);
        let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
        let m = least_model(&FlatView::new(&g, c));
        let fly = parse_ground_literal(&mut w, "fly(tweety)").unwrap();
        assert_eq!(m.value(fly.atom()), Truth::Undefined);
    }

    #[test]
    fn example9_three_level_exceptions_work() {
        // 3V: the negative rule is an exception below the general rule:
        // a ground animal that is also a bird does NOT fly.
        let mut w = World::new();
        let rules = rules_of(
            &mut w,
            "bird(tweety). ground_animal(tweety). bird(robin).
             fly(X) :- bird(X).
             -fly(X) :- ground_animal(X).",
        );
        let (tv, cminus) = three_level_version(&mut w, &rules);
        assert_eq!(tv.components.len(), 3);
        let g = ground_exhaustive(&mut w, &tv, &GroundConfig::default()).unwrap();
        let v = FlatView::new(&g, cminus);
        // The CWA facts are permanently overruled by the (never-blocked)
        // reflexive rules in the least fixpoint, so the *stable* models
        // carry the intended meaning of 3V programs (Def. 10c).
        let stable = olp_semantics::stable_models(&v);
        assert_eq!(stable.len(), 1, "unique stable model expected");
        let m = &stable[0];
        let fly_t = parse_ground_literal(&mut w, "fly(tweety)").unwrap();
        let fly_r = parse_ground_literal(&mut w, "fly(robin)").unwrap();
        assert!(m.holds(fly_t.complement()), "tweety does not fly");
        assert!(m.holds(fly_r), "robin flies");
        // The least model still derives the exception for tweety.
        let lm = least_model(&v);
        assert!(lm.holds(fly_t.complement()));
    }

    #[test]
    fn three_level_structure() {
        let mut w = World::new();
        let rules = rules_of(&mut w, "p :- q. -p :- r. q. r.");
        let (tv, cminus) = three_level_version(&mut w, &rules);
        let order = tv.order().unwrap();
        let cplus = CompId(1);
        let cwa = CompId(2);
        assert!(order.lt(cminus, cplus));
        assert!(order.lt(cplus, cwa));
        assert!(order.lt(cminus, cwa));
        // C- holds only the negative rule.
        assert_eq!(tv.components[cminus.index()].rules.len(), 1);
        // C+ holds 3 seminegative rules + 3 reflexive (p, q, r).
        assert_eq!(tv.components[cplus.index()].rules.len(), 6);
        // CWA: 3 predicates.
        assert_eq!(tv.components[cwa.index()].rules.len(), 3);
    }

    #[test]
    fn ground_cwa_variant_is_semantically_identical() {
        use olp_semantics::least_model;
        let src = "p(a). p(b). q(X) :- p(X). r(X) :- q(X), -s(X).";
        let mut w1 = World::new();
        let rules1 = rules_of(&mut w1, src);
        let (ov, c1) = ordered_version(&mut w1, &rules1);
        let g1 = ground_exhaustive(&mut w1, &ov, &GroundConfig::default()).unwrap();
        let m1 = least_model(&FlatView::new(&g1, c1));

        let mut w2 = World::new();
        let rules2 = rules_of(&mut w2, src);
        let consts = [w2.syms.intern("a"), w2.syms.intern("b")];
        let (ovg, c2) = ordered_version_ground_cwa(&mut w2, &rules2, &consts);
        let g2 = ground_exhaustive(&mut w2, &ovg, &GroundConfig::default()).unwrap();
        let m2 = least_model(&FlatView::new(&g2, c2));
        assert_eq!(m1.render(&w1), m2.render(&w2));
        // But the source sizes differ: reduced = 1 CWA rule per pred,
        // ground = |HU|^arity facts per pred.
        assert!(ovg.rule_count() > ov.rule_count());
    }

    #[test]
    fn ov_size_is_linear_in_predicates() {
        // The §3 claim: the reduced OV adds one rule per predicate, not
        // one per Herbrand-base element.
        let mut w = World::new();
        let rules = rules_of(&mut w, "p(a). p(b). p(c). p(d). q(X,Y) :- p(X), p(Y).");
        let (ov, _) = ordered_version(&mut w, &rules);
        assert_eq!(ov.components[1].rules.len(), 2); // p/1 and q/2 only
    }
}

//! The reference engines: literal transcriptions of the definitions,
//! kept as the oracles every production engine is differentially
//! tested against, and as the ablation baselines the benchmarks time.
//!
//! * [`v_step`] / [`least_model_naive`] — Definition 4 verbatim: full
//!   passes of `V_{P,C}` from `∅` until nothing changes;
//! * [`least_model_monolithic`] — the interpretive worklist over the
//!   whole view in one piece (no strata); the prover runs the same
//!   worklist over its relevance cone;
//! * [`enumerate_models`] — Definition 3 by brute force over the atom
//!   universe (3^n; small programs only);
//! * [`enumerate_assumption_free`] — Definitions 3 and 6–8 by a plain
//!   3-way search over the derivable atoms with exact leaf checks, and
//!   [`stable_models_naive`] — Definition 9 as its maximal members;
//! * [`stable_models_monolithic_budgeted`] — the propagating search
//!   over the whole view without the group split (ablation B8).
//!
//! Apart from the prover's cone fixpoint, none of these is on a
//! production path; the knowledge base evaluates through the
//! stratified fixpoint and the decomposed enumerators.

use crate::assumption::is_assumption_free;
use crate::model::is_model;
use crate::stable::maximal_only;
use olp_core::{AtomId, Budget, Eval, GLit, Interpretation, InterruptReason, Interrupted};
use olp_ground::{FlatIdx, FlatView};

/// One application of `V_{P,C}` to `i`.
///
/// Returns the *new* interpretation `V(i)` (not the union — `V` is not
/// inflationary in general, but its iterates from `∅` are increasing).
pub fn v_step(fv: &FlatView, i: &Interpretation) -> Interpretation {
    let mut out = Interpretation::new();
    for f in 0..fv.len() as FlatIdx {
        if fv.fires(f, i) {
            out.insert(fv.head(f))
                .expect("V preserves consistency (Lemma 1)");
        }
    }
    out
}

/// Least fixpoint of `V_{P,C}` by naive iteration from `∅`.
pub fn least_model_naive(fv: &FlatView) -> Interpretation {
    least_model_naive_budgeted(fv, &Budget::unlimited()).into_value()
}

/// [`least_model_naive`] under a [`Budget`].
///
/// On interruption the partial result is the **last completed
/// iterate** `V^k(∅)`. The iterates from `∅` are increasing (Lemma 1),
/// so that iterate is a sound under-approximation of the least model.
pub fn least_model_naive_budgeted(fv: &FlatView, budget: &Budget) -> Eval<Interpretation> {
    let mut cur = Interpretation::new();
    let mut ticker = budget.ticker();
    loop {
        let mut out = Interpretation::new();
        for f in 0..fv.len() as FlatIdx {
            if let Err(reason) = ticker.tick() {
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: cur,
                });
            }
            if fv.fires(f, &cur) {
                out.insert(fv.head(f))
                    .expect("V preserves consistency (Lemma 1)");
            }
        }
        if out == cur {
            return Eval::Complete(cur);
        }
        cur = out;
    }
}

/// Least fixpoint of `V_{P,C}` by a single interpretive worklist over
/// the whole view — no stratification.
pub fn least_model_monolithic(fv: &FlatView) -> Interpretation {
    least_model_monolithic_budgeted(fv, &Budget::unlimited()).into_value()
}

/// [`least_model_monolithic`] under a [`Budget`]: per-rule counters of
/// unsatisfied body literals and of still-active (non-blocked)
/// overrulers/defeaters; deriving a literal decrements counters via the
/// watch lists and transposed attack lists. Each rule/literal is
/// touched O(1) times per edge, so the fixpoint is linear in the size
/// of the ground view.
///
/// On interruption the partial result contains only literals already
/// derived by fired rules, i.e. a prefix of the monotone worklist
/// closure — always a subset of the unbudgeted least model.
pub fn least_model_monolithic_budgeted(fv: &FlatView, budget: &Budget) -> Eval<Interpretation> {
    least_model_over(fv, &crate::all_rules(fv), budget)
}

/// The worklist fixpoint over `rules` (sorted), a subset of the arena
/// closed under attack and body-derivation edges: rules outside it
/// neither fire nor attack.
pub(crate) fn least_model_over(
    fv: &FlatView,
    rules: &[FlatIdx],
    budget: &Budget,
) -> Eval<Interpretation> {
    let n = rules.len();
    let whole = n == fv.len();
    // Position of a flat rule in `rules`, if it is in the subset.
    let local = |f: FlatIdx| {
        if whole {
            Some(f as usize)
        } else {
            rules.binary_search(&f).ok()
        }
    };
    let mut unsat: Vec<u32> = rules.iter().map(|&f| fv.body(f).len() as u32).collect();
    let mut over: Vec<u32> = rules
        .iter()
        .map(|&f| fv.overrulers(f).len() as u32)
        .collect();
    let mut defeat: Vec<u32> = rules
        .iter()
        .map(|&f| fv.defeaters(f).len() as u32)
        .collect();
    let mut blocked = vec![false; n];
    let mut fired = vec![false; n];
    let mut i = Interpretation::new();
    let mut queue: Vec<GLit> = Vec::new();
    let mut ticker = budget.ticker();
    // A rule fires once its body holds and every attacker is blocked;
    // both only ever become true (monotone).
    macro_rules! try_fire {
        ($l:expr) => {{
            let l = $l;
            if unsat[l] == 0 && over[l] == 0 && defeat[l] == 0 && !fired[l] {
                fired[l] = true;
                let head = fv.head(rules[l]);
                if i.insert(head).expect("V preserves consistency") {
                    queue.push(head);
                }
            }
        }};
    }
    let res = 'work: {
        // Seed: rules with empty bodies and no attackers at all.
        for l in 0..n {
            if let Err(reason) = ticker.tick() {
                break 'work Err(reason);
            }
            try_fire!(l);
        }
        while let Some(lit) = queue.pop() {
            if let Err(reason) = ticker.tick() {
                break 'work Err(reason);
            }
            // 1. Body satisfaction: rules with `lit` in the body get
            //    closer to applicability.
            for l in fv.watchers(lit).iter().filter_map(|&w| local(w)) {
                unsat[l] -= 1;
                try_fire!(l);
            }
            // 2. Blocking: rules with the *complement* of `lit` in the
            //    body become blocked; their victims lose an attacker.
            for l in fv
                .watchers(lit.complement())
                .iter()
                .filter_map(|&w| local(w))
            {
                if blocked[l] {
                    continue;
                }
                if let Err(reason) = ticker.tick() {
                    break 'work Err(reason);
                }
                blocked[l] = true;
                for v in fv
                    .victims_overrule(rules[l])
                    .iter()
                    .filter_map(|&v| local(v))
                {
                    over[v] -= 1;
                    try_fire!(v);
                }
                for v in fv.victims_defeat(rules[l]).iter().filter_map(|&v| local(v)) {
                    defeat[v] -= 1;
                    try_fire!(v);
                }
            }
        }
        Ok(())
    };
    // Every inserted literal was derived by a fired rule whose body
    // held and whose attackers were blocked at fire time — conditions
    // monotone in `i` — so `i` is a prefix of the increasing worklist
    // closure and a sound under-approximation of the least model.
    match res {
        Ok(()) => Eval::Complete(i),
        Err(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

/// Enumerates every assumption-free model of the view.
///
/// Exact but exponential in the number of derivable atoms; intended for
/// programs whose *contested* part is small (the paper's examples, the
/// benchmark generators). The result always contains the least model.
pub fn enumerate_assumption_free(fv: &FlatView) -> Vec<Interpretation> {
    enumerate_assumption_free_budgeted(fv, &Budget::unlimited(), None).into_value()
}

/// [`enumerate_assumption_free`] under a [`Budget`], optionally capped
/// at `max_models` results.
///
/// **Anytime guarantee:** every interpretation in a partial result
/// passed the exact leaf checks (model + assumption-free), so the
/// partial list is always a subset of the unbudgeted enumeration —
/// just possibly incomplete.
pub fn enumerate_assumption_free_budgeted(
    fv: &FlatView,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let all = crate::all_rules(fv);
    let (d, atoms) = match crate::stable::branch_space(fv, &all, budget) {
        Ok(space) => space,
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    };

    let mut out = Vec::new();
    let accept = |m: &Interpretation| {
        crate::stable::is_model_for_af_search(fv, &all, m) && is_assumption_free(fv, m)
    };
    let cap = max_models.unwrap_or(usize::MAX);
    let mut cur = Interpretation::new();
    match search(
        &atoms,
        &|l| d.contains(&l),
        &accept,
        &mut cur,
        &mut out,
        budget,
        cap,
    ) {
        Ok(()) => Eval::Complete(out),
        Err(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: out,
        }),
    }
}

/// The 3-way search both enumerators run: each atom of `atoms` stays
/// undefined or takes each sign `allowed` admits; complete assignments
/// that `accept` admits are collected, up to `cap`. One budget tick per
/// search node.
fn search(
    atoms: &[AtomId],
    allowed: &dyn Fn(GLit) -> bool,
    accept: &dyn Fn(&Interpretation) -> bool,
    cur: &mut Interpretation,
    out: &mut Vec<Interpretation>,
    budget: &Budget,
    cap: usize,
) -> Result<(), InterruptReason> {
    budget.tick()?;
    let Some((&a, rest)) = atoms.split_first() else {
        if accept(cur) {
            out.push(cur.clone());
            if out.len() >= cap {
                return Err(InterruptReason::ModelCap);
            }
        }
        return Ok(());
    };
    search(rest, allowed, accept, cur, out, budget, cap)?;
    for l in [GLit::pos(a), GLit::neg(a)] {
        if allowed(l) {
            cur.insert(l).expect("fresh atom");
            let r = search(rest, allowed, accept, cur, out, budget, cap);
            cur.remove(l);
            r?;
        }
    }
    Ok(())
}

/// Enumerates **all** models (Definition 3) over the full atom universe
/// `0..n_atoms`, optionally restricted to supersets of `superset`.
///
/// 3^n worst case — use on small programs (the paper's examples, the
/// Prop. 2 validation suite).
pub fn enumerate_models(
    fv: &FlatView,
    n_atoms: usize,
    superset: Option<&Interpretation>,
) -> Vec<Interpretation> {
    let mut cur = superset.cloned().unwrap_or_default();
    let free: Vec<AtomId> = (0..n_atoms as u32)
        .map(AtomId)
        .filter(|&a| cur.undefined(a))
        .collect();
    let mut out = Vec::new();
    let accept = |m: &Interpretation| is_model(fv, m, n_atoms);
    search(
        &free,
        &|_| true,
        &accept,
        &mut cur,
        &mut out,
        &Budget::unlimited(),
        usize::MAX,
    )
    .expect("unlimited budget cannot interrupt");
    out
}

/// [`crate::stable_models`] via the reference (non-propagating)
/// enumerator: the maximal members of [`enumerate_assumption_free`].
pub fn stable_models_naive(fv: &FlatView) -> Vec<Interpretation> {
    maximal_only(enumerate_assumption_free(fv))
}

/// Stable models by one propagating search over the whole view,
/// without the group split, optionally capped at `max_models`
/// *assumption-free* models explored. Same anytime contract as
/// [`crate::stable_models_decomposed`].
pub fn stable_models_monolithic_budgeted(
    fv: &FlatView,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    crate::stable::maximal_of(crate::enumerate_assumption_free_propagating_budgeted(
        fv, budget, max_models,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig};
    use olp_parser::parse_program;

    #[test]
    fn tripped_monolithic_budget_yields_prefix_of_least_model() {
        let mut w = World::new();
        let p = parse_program(
            &mut w,
            "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). happy(bob). smiling(X) :- happy(X). }",
        )
        .unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        let v = FlatView::new(&g, CompId(2));
        let full = crate::least_model(&v);
        assert_eq!(least_model_monolithic(&v), full);
        assert_eq!(least_model_naive(&v), full);
        for steps in [1u64, 2, 4, 8, 16, 32, 64] {
            match least_model_monolithic_budgeted(&v, &Budget::with_steps(steps)) {
                Eval::Complete(m) => assert_eq!(m, full),
                Eval::Interrupted(Interrupted { partial, .. }) => {
                    assert!(partial.is_subset(&full), "steps={steps}");
                }
            }
        }
    }
}

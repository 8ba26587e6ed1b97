//! Independent rule groups: product-form enumeration.
//!
//! Assumption-free and stable enumeration are exponential in the
//! contested part of a view. This module splits the view into **weakly
//! connected rule groups** (atoms never co-occurring in a dependency
//! are independent), enumerates each group separately and combines the
//! per-group model sets as a cartesian product — two independent
//! Fig. 2-style defeating cliques cost `3^a + 3^b` instead of
//! `3^(a+b)`. This is the splitting-set idea of Lifschitz & Turner
//! transplanted to the ordered semantics. (The least fixpoint's own
//! condensation — SCC strata in topological order — lives in the flat
//! arenas, [`olp_ground::FlatView`].)
//!
//! ## The dependency graph
//!
//! Nodes are **atoms** (an atom and its classical complement are one
//! node — `GLit::atom` drops the sign). Every rule contributes edges
//! `head atom → body atom`. Attack edges need no separate treatment:
//! a potential overruler/defeater of rule `r` has head complementary to
//! `H(r)`, i.e. the *same atom node*, and whether the attacker is
//! blocked depends on its own body atoms — which its own `head → body`
//! edges already reach from that shared node. So "body edges plus
//! attack edges" collapse to the head→body edges of every rule in the
//! view.
//!
//! ## Why the split is exact
//!
//! Two rules are grouped iff their atoms are connected in the
//! undirected dependency graph; distinct groups mention **disjoint**
//! atom sets, and every status of Def. 2, both model conditions of
//! Def. 3, and the enabled-version `T`-fixpoint of Defs. 6–8 evaluate a
//! rule using only atoms of its own group. Hence an interpretation is an
//! assumption-free model of the view iff its restriction to each group
//! is an assumption-free model of that group's rules, and the AF model
//! set is the product of the per-group sets. Maximality
//! distributes over products of disjoint-atom sets, so the stable models
//! (Def. 9) are the product of per-group maximal AF models.
//!
//! A group is searched on the component's own arena, over the group's
//! rule list: every rule that mentions a group atom is in the group, so
//! rules by head, attackers and watchers of group atoms never leave it,
//! and solving a group costs what its own rules cost.
//!
//! Budget/anytime behaviour is preserved: a tripped budget yields only
//! complete group tuples (every partial entry is a genuine AF model of
//! the whole view).

use crate::stable::maximal_of;
use crate::stable_solver::enumerate_in;
use olp_core::{Budget, Eval, FxHashMap, Interpretation, InterruptReason, Interrupted};
use olp_ground::{FlatIdx, FlatView, GroundRule};

/// The weakly connected rule groups of a view's dependency graph.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Weakly connected rule groups, as flat rule indices in flat
    /// order; groups are ordered by their first rule in program order.
    groups: Vec<Vec<FlatIdx>>,
}

fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        // Path halving.
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

impl Decomposition {
    /// Computes the rule groups of `fv`. Linear in atoms + rule-body
    /// edges (union–find with path halving).
    pub fn new(fv: &FlatView) -> Self {
        let mut parent: Vec<u32> = (0..fv.n_atoms as u32).collect();
        for f in 0..fv.len() as FlatIdx {
            let h = fv.head(f).atom().0;
            for &b in fv.body(f) {
                let (rh, rb) = (uf_find(&mut parent, h), uf_find(&mut parent, b.atom().0));
                if rh != rb {
                    parent[rb as usize] = rh;
                }
            }
        }
        let mut group_of_root: FxHashMap<u32, usize> = FxHashMap::default();
        let mut groups: Vec<Vec<FlatIdx>> = Vec::new();
        for f in 0..fv.len() as FlatIdx {
            let root = uf_find(&mut parent, fv.head(f).atom().0);
            let gi = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(f);
        }
        // Program order decides the group order (and with it the order
        // of the product's models), as in a rebuilt or a patched arena.
        let first = |g: &[FlatIdx]| g.iter().map(|&f| fv.rule_key(f)).min();
        groups.sort_by_cached_key(|g| first(g));
        Decomposition { groups }
    }

    /// The weakly connected rule groups (flat rule indices).
    pub fn groups(&self) -> &[Vec<FlatIdx>] {
        &self.groups
    }

    /// The rules of a view that is at most one group.
    fn single(&self) -> Option<&[FlatIdx]> {
        match self.groups.as_slice() {
            [] => Some(&[]),
            [g] => Some(g),
            _ => None,
        }
    }
}

/// Cartesian product of per-group model sets. Groups have pairwise
/// disjoint atoms, so merging never conflicts; every emitted entry is a
/// **complete** tuple (one model from every group) and therefore a
/// genuine AF model of the whole view. The cap and the budget interrupt
/// with only complete tuples in the partial list.
fn product(
    groups: &[Vec<Interpretation>],
    cap: usize,
    budget: &Budget,
) -> Result<Vec<Interpretation>, Interrupted<Vec<Interpretation>>> {
    if groups.iter().any(std::vec::Vec::is_empty) {
        return Ok(Vec::new());
    }
    let mut idx = vec![0usize; groups.len()];
    let mut out = Vec::new();
    let mut ticker = budget.ticker();
    loop {
        if let Err(reason) = ticker.tick() {
            return Err(Interrupted {
                reason,
                partial: out,
            });
        }
        let mut m = Interpretation::new();
        for (g, &i) in groups.iter().zip(idx.iter()) {
            for l in g[i].literals() {
                m.insert(l).expect("groups have disjoint atoms");
            }
        }
        out.push(m);
        if out.len() >= cap {
            return Err(Interrupted {
                reason: InterruptReason::ModelCap,
                partial: out,
            });
        }
        // Advance the odometer (group 0 varies fastest).
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < groups[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == groups.len() {
                return Ok(out);
            }
        }
    }
}

/// Solves every group of `d` with `solve` (called with the group's
/// flat rule indices) and combines the per-group results as a product
/// capped at `max_models`.
///
/// A budget trip in the **last** group still yields sound tuples (every
/// earlier group is complete); a trip in an earlier group yields an
/// empty partial list (no complete tuple exists yet). The enumeration's
/// own interruption wins over the product's cap or budget trip.
fn product_of_groups(
    d: &Decomposition,
    budget: &Budget,
    max_models: Option<usize>,
    mut solve: impl FnMut(&[FlatIdx]) -> Eval<Vec<Interpretation>>,
) -> Eval<Vec<Interpretation>> {
    let n_groups = d.groups().len();
    let mut per_group: Vec<Vec<Interpretation>> = Vec::with_capacity(n_groups);
    let mut interrupted = None;
    for (gi, rules) in d.groups().iter().enumerate() {
        match solve(rules) {
            Eval::Complete(ms) => per_group.push(ms),
            Eval::Interrupted(Interrupted { reason, partial }) if gi + 1 == n_groups => {
                per_group.push(partial);
                interrupted = Some(reason);
            }
            Eval::Interrupted(Interrupted { reason, .. }) => {
                return Eval::Interrupted(Interrupted {
                    reason,
                    partial: Vec::new(),
                })
            }
        }
    }
    match product(&per_group, max_models.unwrap_or(usize::MAX), budget) {
        Ok(ms) => match interrupted {
            None => Eval::Complete(ms),
            Some(reason) => Eval::Interrupted(Interrupted {
                reason,
                partial: ms,
            }),
        },
        Err(Interrupted { reason, partial }) => Eval::Interrupted(Interrupted {
            reason: interrupted.unwrap_or(reason),
            partial,
        }),
    }
}

/// Enumerates every assumption-free model by solving each weakly
/// connected rule group separately and combining the per-group model
/// sets as a cartesian product, under a [`Budget`] and optionally
/// capped at `max_models` results. Set-equal to
/// [`crate::enumerate_assumption_free_propagating`]; exponentially
/// faster when the view splits into independent groups.
///
/// **Anytime guarantee:** every entry of a partial result is a complete
/// product tuple, hence a genuine AF model of the whole view. A budget
/// trip while a *non-final* group is still enumerating yields an empty
/// partial list (no sound complete tuple exists yet).
pub fn enumerate_assumption_free_decomposed_budgeted(
    fv: &FlatView,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(fv);
    if let Some(rules) = d.single() {
        return enumerate_in(fv, rules, budget, max_models);
    }
    product_of_groups(&d, budget, max_models, |rules| {
        enumerate_in(fv, rules, budget, None)
    })
}

/// Per-group memo for [`stable_models_decomposed`]: a group's
/// canonicalised rule multiset → its maximal assumption-free models.
pub type GroupMemo = FxHashMap<Vec<GroundRule>, Vec<Interpretation>>;

/// Stable models (Def. 9) via per-group enumeration under a [`Budget`],
/// optionally capped at `max_models` results: maximality under set
/// inclusion distributes over products of disjoint-atom model sets, so
/// the product of per-group **maximal** AF models is exactly the stable
/// model set. The quadratic maximality filter runs per group, never on
/// the (possibly exponentially larger) product. A view that is one
/// group runs one propagating search with the cap applied to the
/// assumption-free models explored.
///
/// `memo` is the stable-model side of incremental maintenance: a
/// mutation that leaves a group's rule set unchanged re-uses the
/// group's maximal-AF-model set verbatim instead of re-enumerating its
/// 3-valued search space. The key is the group's canonicalised rule
/// multiset (sorted by `(comp, head, body)` — a group's semantics
/// within a fixed view depends on nothing else), so a retract-then-
/// reassert also hits. Only **complete** per-group results are stored.
/// The caller owns the memo, keys it per consumer component (group
/// semantics depends on the view's vantage component through the
/// attack relations) and bounds its size.
///
/// **Anytime guarantee:** entries of a partial result are genuine AF
/// models, but maximality is relative to what was explored — treat
/// them as "best stable candidates so far".
pub fn stable_models_decomposed(
    fv: &FlatView,
    budget: &Budget,
    max_models: Option<usize>,
    mut memo: Option<&mut GroupMemo>,
) -> Eval<Vec<Interpretation>> {
    let d = Decomposition::new(fv);
    if let Some(rules) = d.single() {
        return maximal_of(enumerate_in(fv, rules, budget, max_models));
    }
    product_of_groups(&d, budget, max_models, |rules| {
        let key = memo.is_some().then(|| {
            let mut key: Vec<GroundRule> = (rules.iter())
                .map(|&f| GroundRule {
                    head: fv.head(f),
                    body: fv.body(f).into(),
                    comp: fv.rule_comp(f),
                })
                .collect();
            key.sort_unstable_by(|a, b| (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)));
            key
        });
        if let Some(ms) = key.as_ref().and_then(|k| memo.as_deref()?.get(k)) {
            return Eval::Complete(ms.clone());
        }
        let eval = maximal_of(enumerate_in(fv, rules, budget, None));
        if let (Some(memo), Some(key), Eval::Complete(ms)) = (memo.as_deref_mut(), key, &eval) {
            memo.insert(key, ms.clone());
        }
        eval
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::stable_models_naive;
    use crate::stable_solver::enumerate_assumption_free_propagating;
    use crate::test_util::{ground, renders};
    use olp_core::CompId;

    fn af_decomposed(v: &FlatView) -> Vec<Interpretation> {
        enumerate_assumption_free_decomposed_budgeted(v, &Budget::unlimited(), None).into_value()
    }

    fn stable_decomposed(v: &FlatView) -> Vec<Interpretation> {
        stable_models_decomposed(v, &Budget::unlimited(), None, None).into_value()
    }

    /// Two disjoint copies of the paper's Fig. 2 (mutual defeat) plus an
    /// independent chain: three groups.
    const TWO_FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X).
            wealthy(anna). -broke(X) :- wealthy(X). }
         module c2 { poor(mimmo). -rich(X) :- poor(X).
            broke(anna). -wealthy(X) :- broke(X). }
         module c1 < c2, c3 { free_ticket(X) :- poor(X).
            charity(X) :- broke(X).
            happy(bob). smiling(X) :- happy(X). }";

    #[test]
    fn groups_split_disjoint_subprograms() {
        let (_, g) = ground(TWO_FIG2);
        let v = FlatView::new(&g, CompId(2)); // c1
        let d = Decomposition::new(&v);
        // Grounding instantiates every rule for every constant, so each
        // of the three relation cliques (rich/poor/free_ticket,
        // wealthy/broke/charity, happy/smiling) splits further into one
        // group per individual (mimmo, anna, bob): 9 in total.
        assert_eq!(d.groups().len(), 9);
        let total: usize = d.groups().iter().map(Vec::len).sum();
        assert_eq!(total, v.len(), "groups partition the rules");
    }

    #[test]
    fn groups_follow_program_order_not_flat_order() {
        // {p1, p2} lives in c0 and {p0} in c1, so program order puts
        // the first group first, while the flat order starts with the
        // fact p0 (level 0, lowest SCC id).
        use olp_core::{AtomId, GLit, Order};
        use olp_ground::GroundProgram;
        let lit = |a| GLit::pos(AtomId(a));
        let rules = vec![
            GroundRule::new(lit(1), vec![lit(2)], CompId(0)),
            GroundRule::new(lit(2), vec![], CompId(0)),
            GroundRule::new(lit(0), vec![], CompId(1)),
        ];
        let order = Order::from_edges(2, &[(CompId(0), CompId(1))]).unwrap();
        let fv = FlatView::new(&GroundProgram::new(rules, order, 3), CompId(0));
        assert_eq!(fv.head(0), lit(0), "the flat order starts with p0");
        let heads: Vec<Vec<GLit>> = (Decomposition::new(&fv).groups().iter())
            .map(|g| g.iter().map(|&f| fv.head(f)).collect())
            .collect();
        assert_eq!(heads.len(), 2);
        assert!(heads[0].contains(&lit(1)) && heads[0].contains(&lit(2)));
        assert_eq!(heads[1], vec![lit(0)]);
    }

    #[test]
    fn decomposed_af_set_equals_monolithic() {
        let (w, g) = ground(TWO_FIG2);
        for c in 0..g.order.len() {
            let v = FlatView::new(&g, CompId(c as u32));
            assert_eq!(
                renders(&w, &af_decomposed(&v)),
                renders(&w, &enumerate_assumption_free_propagating(&v)),
                "component {c}"
            );
        }
    }

    #[test]
    fn decomposed_stable_product_of_example5_clones() {
        // Two independent copies of Example 5 (2 stable models each):
        // the decomposed stable set must be the 4-model product.
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = FlatView::new(&g, CompId(1));
        let d = Decomposition::new(&v);
        assert_eq!(d.groups().len(), 2);
        let dec = stable_decomposed(&v);
        assert_eq!(dec.len(), 4);
        assert_eq!(renders(&w, &dec), renders(&w, &stable_models_naive(&v)));
    }

    #[test]
    fn decomposed_enumeration_partials_are_sound() {
        // Every entry of any budget-tripped partial result must be a
        // member of the unbudgeted enumeration (complete tuples only).
        let (w, g) = ground(TWO_FIG2);
        let v = FlatView::new(&g, CompId(2));
        let full = renders(&w, &af_decomposed(&v));
        for steps in [1u64, 8, 64, 256, 1024, 4096] {
            let b = Budget::with_steps(steps);
            let got = match enumerate_assumption_free_decomposed_budgeted(&v, &b, None) {
                Eval::Complete(ms) => ms,
                Eval::Interrupted(Interrupted { partial, .. }) => partial,
            };
            for m in renders(&w, &got) {
                assert!(full.contains(&m), "steps={steps}: {m} not in full set");
            }
        }
    }

    #[test]
    fn cached_stable_enumeration_matches_and_reuses() {
        let (w, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = FlatView::new(&g, CompId(1));
        let mut memo = GroupMemo::default();
        let first =
            stable_models_decomposed(&v, &Budget::unlimited(), None, Some(&mut memo)).into_value();
        assert_eq!(renders(&w, &first), renders(&w, &stable_decomposed(&v)));
        assert_eq!(memo.len(), 2, "one entry per group");
        // Second run must be answered from the memo alone: 64 steps is
        // one ticker batch — enough for the final product only.
        // Without the memo, the two per-group enumerations each pre-pay
        // a batch and the run trips with an empty result; with memo
        // hits both are skipped and the full set comes back Complete.
        let budget = Budget::with_steps(64);
        let again = stable_models_decomposed(&v, &budget, None, Some(&mut memo))
            .expect_complete("memo hits answer within one ticker batch");
        assert_eq!(renders(&w, &again), renders(&w, &first));
        let mut empty = GroupMemo::default();
        let cold = stable_models_decomposed(&v, &Budget::with_steps(64), None, Some(&mut empty));
        assert!(cold.is_partial(), "64 steps cannot re-enumerate");
    }

    #[test]
    fn model_cap_truncates_product() {
        let (_, g) = ground(
            "module c2 { a. b. c. x. y. z. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b.
                              -x :- y, z. -y :- x. -y :- -y. }",
        );
        let v = FlatView::new(&g, CompId(1));
        match stable_models_decomposed(&v, &Budget::unlimited(), Some(2), None) {
            Eval::Interrupted(Interrupted { reason, partial }) => {
                assert_eq!(reason, InterruptReason::ModelCap);
                assert_eq!(partial.len(), 2);
            }
            Eval::Complete(ms) => panic!("cap of 2 must interrupt, got {} models", ms.len()),
        }
    }
}

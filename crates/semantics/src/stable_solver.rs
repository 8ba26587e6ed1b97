//! A propagating enumerator for assumption-free models.
//!
//! [`crate::reference::enumerate_assumption_free`] branches 3-ways per
//! derivable atom and checks Definition 3 + Theorem 1a only at the
//! leaves. This solver adds **unit propagation** derived from
//! Definition 3, pruning entire subtrees:
//!
//! * **P1 (fire).** A rule whose body is surely true and whose every
//!   potential overruler *and* defeater is surely blocked forces its
//!   head: leaving the head undefined would violate (b), and making the
//!   complement true would violate (a) (no overruler can be applied
//!   when all are blocked). Conflicts backtrack immediately.
//! * **P2 (re-confirm).** For a literal already true, every rule with
//!   the complementary head and **no** potential overrulers must end up
//!   blocked. If none of its body literals can be refuted any more,
//!   the branch is dead; if exactly one still can, its refutation is
//!   forced (unit propagation).
//!
//! Both rules are *monotone*: whatever they force holds in every
//! completion of the partial assignment, so the enumeration stays
//! complete. Leaves still run the exact model + assumption-free checks;
//! the output is set-equal to the naive enumerator (differentially
//! property-tested in `tests/theorems.rs`). The search is sequential:
//! independent rule groups are split off beforehand
//! ([`crate::decomp`]), and the stable-model cap stays exact.

use crate::assumption::assumption_free_in;
use olp_core::{
    AtomId, Budget, Eval, FxHashMap, FxHashSet, GLit, Interpretation, InterruptReason, Interrupted,
    Sign,
};
use olp_ground::{FlatIdx, FlatView};

const UNKNOWN: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;
const UNDEF: u8 = 3;

struct Solver<'a> {
    fv: &'a FlatView,
    /// The rules searched: the whole arena or one decomposition group.
    rules: &'a [FlatIdx],
    budget: &'a Budget,
    /// Stop enumerating once this many models have been found.
    cap: usize,
    /// Derivability closure (bound on every AF model).
    d: FxHashSet<GLit>,
    /// Branch atoms and their index in the assignment vector.
    atoms: Vec<AtomId>,
    slot: FxHashMap<AtomId, usize>,
    /// Watched-literal index: `watchers[s]` lists the rules whose P1/P2
    /// status can change when the branch atom in slot `s` is assigned —
    /// the rules watching the atom through their own body, their head,
    /// or the body of one of their potential overrulers/defeaters.
    watchers: Vec<Vec<FlatIdx>>,
    out: Vec<Interpretation>,
}

impl<'a> Solver<'a> {
    fn new(
        fv: &'a FlatView,
        rules: &'a [FlatIdx],
        budget: &'a Budget,
        cap: usize,
        d: FxHashSet<GLit>,
        atoms: Vec<AtomId>,
    ) -> Self {
        let slot: FxHashMap<AtomId, usize> =
            atoms.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        // The P1 condition of a rule reads its body atoms, its head atom
        // and its attackers' body atoms; P2 reads its head atom and its
        // body atoms. Register the rule as a watcher of each (branch)
        // atom in that union, so propagation only ever revisits rules
        // that can actually have changed.
        let mut watchers: Vec<Vec<FlatIdx>> = vec![Vec::new(); atoms.len()];
        for &f in rules {
            let mut watched: Vec<usize> = Vec::new();
            let add = |a: AtomId, watched: &mut Vec<usize>| {
                if let Some(&s) = slot.get(&a) {
                    watched.push(s);
                }
            };
            add(fv.head(f).atom(), &mut watched);
            for &b in fv.body(f) {
                add(b.atom(), &mut watched);
            }
            for &a in fv.overrulers(f).iter().chain(fv.defeaters(f)) {
                for &b in fv.body(a) {
                    add(b.atom(), &mut watched);
                }
            }
            watched.sort_unstable();
            watched.dedup();
            for s in watched {
                watchers[s].push(f);
            }
        }
        Solver {
            fv,
            rules,
            budget,
            cap,
            d,
            atoms,
            slot,
            watchers,
            out: Vec::new(),
        }
    }

    /// Push every watcher of `atom` onto the dirty queue (called after
    /// `atom`'s assignment changed).
    #[inline]
    fn wake(&self, atom: AtomId, dirty: &mut Vec<FlatIdx>) {
        if let Some(&s) = self.slot.get(&atom) {
            dirty.extend_from_slice(&self.watchers[s]);
        }
    }
    /// `Some(state)` if the literal's atom is a branch atom, else the
    /// atom is permanently undefined (treated as assigned `UNDEF`).
    #[inline]
    fn atom_state(&self, assign: &[u8], atom: AtomId) -> u8 {
        match self.slot.get(&atom) {
            Some(&i) => assign[i],
            None => UNDEF,
        }
    }

    /// The literal is true in every completion.
    #[inline]
    fn surely_true(&self, assign: &[u8], l: GLit) -> bool {
        let s = self.atom_state(assign, l.atom());
        match l.sign() {
            Sign::Pos => s == TRUE,
            Sign::Neg => s == FALSE,
        }
    }

    /// The literal's complement is true in every completion (the
    /// literal is refuted).
    #[inline]
    fn surely_refuted(&self, assign: &[u8], l: GLit) -> bool {
        self.surely_true(assign, l.complement())
    }

    /// The literal's complement can no longer become true: its atom is
    /// decided to something other than the complement's sign.
    #[inline]
    fn complement_impossible(&self, assign: &[u8], l: GLit) -> bool {
        let s = self.atom_state(assign, l.atom());
        match l.sign() {
            // complement is ¬atom: impossible if atom TRUE or UNDEF
            Sign::Pos => s == TRUE || s == UNDEF,
            // complement is atom: impossible if atom FALSE or UNDEF
            Sign::Neg => s == FALSE || s == UNDEF,
        }
    }

    fn surely_applicable(&self, assign: &[u8], f: FlatIdx) -> bool {
        self.fv.body(f).iter().all(|&b| self.surely_true(assign, b))
    }

    fn surely_blocked(&self, assign: &[u8], f: FlatIdx) -> bool {
        self.fv
            .body(f)
            .iter()
            .any(|&b| self.surely_refuted(assign, b))
    }

    /// Assigns `value` to `atom`; `false` on conflict.
    fn set(&self, assign: &mut [u8], atom: AtomId, value: u8) -> bool {
        match self.slot.get(&atom) {
            Some(&i) => {
                if assign[i] == UNKNOWN {
                    assign[i] = value;
                    true
                } else {
                    assign[i] == value
                }
            }
            // Non-branch atoms are permanently undefined.
            None => value == UNDEF,
        }
    }

    /// Forces the literal true; `false` on conflict.
    fn force_lit(&self, assign: &mut [u8], l: GLit) -> bool {
        let v = match l.sign() {
            Sign::Pos => TRUE,
            Sign::Neg => FALSE,
        };
        self.set(assign, l.atom(), v)
    }

    /// Runs P1/P2 to fixpoint over the `dirty` rule queue; `Ok(false)`
    /// on conflict. Whenever a forced assignment lands, the watchers of
    /// the changed atom rejoin the queue — rules none of whose watched
    /// atoms changed are never revisited (their P1/P2 outcome is
    /// unchanged by construction of the watch sets).
    fn propagate(
        &self,
        assign: &mut [u8],
        dirty: &mut Vec<FlatIdx>,
    ) -> Result<bool, InterruptReason> {
        while let Some(f) = dirty.pop() {
            self.budget.tick()?;
            let head = self.fv.head(f);
            // P1: forced firing.
            if self.surely_applicable(assign, f)
                && (self.fv.overrulers(f).iter())
                    .chain(self.fv.defeaters(f))
                    .all(|&a| self.surely_blocked(assign, a))
            {
                match self.atom_state(assign, head.atom()) {
                    UNKNOWN => {
                        if !self.force_lit(assign, head) {
                            return Ok(false);
                        }
                        self.wake(head.atom(), dirty);
                    }
                    s => {
                        let want = match head.sign() {
                            Sign::Pos => TRUE,
                            Sign::Neg => FALSE,
                        };
                        if s != want {
                            return Ok(false);
                        }
                    }
                }
            }
            // P2: a true literal's unoverrulable contradictors must
            // be blocked.
            if self.surely_true(assign, head.complement())
                && self.fv.overrulers(f).is_empty()
                && !self.surely_blocked(assign, f)
            {
                let refutable: Vec<GLit> = (self.fv.body(f).iter())
                    .copied()
                    .filter(|&b| !self.complement_impossible(assign, b))
                    .collect();
                match refutable.len() {
                    0 => return Ok(false),
                    1 => {
                        if !self.force_lit(assign, refutable[0].complement()) {
                            return Ok(false);
                        }
                        self.wake(refutable[0].atom(), dirty);
                    }
                    _ => {}
                }
            }
        }
        Ok(true)
    }

    fn search(
        &mut self,
        assign: &mut [u8],
        dirty: &mut Vec<FlatIdx>,
    ) -> Result<(), InterruptReason> {
        if self.out.len() >= self.cap {
            return Err(InterruptReason::ModelCap);
        }
        self.budget.tick()?;
        if !self.propagate(assign, dirty)? {
            return Ok(());
        }
        match assign.iter().position(|&s| s == UNKNOWN) {
            None => {
                // Complete: exact leaf checks.
                let mut m = Interpretation::new();
                for (i, &s) in assign.iter().enumerate() {
                    let atom = self.atoms[i];
                    let lit = match s {
                        TRUE => GLit::pos(atom),
                        FALSE => GLit::neg(atom),
                        _ => continue,
                    };
                    if m.insert(lit).is_err() {
                        return Ok(()); // unreachable: one slot per atom
                    }
                }
                if crate::stable::is_model_for_af_search(self.fv, self.rules, &m)
                    && assumption_free_in(self.fv, self.rules, &m)
                {
                    self.out.push(m);
                    if self.out.len() >= self.cap {
                        return Err(InterruptReason::ModelCap);
                    }
                }
                Ok(())
            }
            Some(i) => {
                let atom = self.atoms[i];
                let mut options = Vec::with_capacity(3);
                options.push(UNDEF);
                if self.d.contains(&GLit::pos(atom)) {
                    options.push(TRUE);
                }
                if self.d.contains(&GLit::neg(atom)) {
                    options.push(FALSE);
                }
                for v in options {
                    let mut child = assign.to_vec();
                    child[i] = v;
                    // Only rules watching the branched atom can react.
                    let mut child_dirty = self.watchers[i].clone();
                    self.search(&mut child, &mut child_dirty)?;
                }
                Ok(())
            }
        }
    }
}

/// Enumerates every assumption-free model with unit propagation.
/// Set-equal to [`crate::reference::enumerate_assumption_free`], usually
/// much faster on programs with forced structure.
pub fn enumerate_assumption_free_propagating(fv: &FlatView) -> Vec<Interpretation> {
    enumerate_assumption_free_propagating_budgeted(fv, &Budget::unlimited(), None).into_value()
}

/// [`enumerate_assumption_free_propagating`] under a [`Budget`],
/// optionally capped at `max_models` results.
///
/// **Anytime guarantee:** every interpretation in a partial result
/// passed the exact leaf checks, so the partial list is a subset of
/// the unbudgeted enumeration.
pub fn enumerate_assumption_free_propagating_budgeted(
    fv: &FlatView,
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    enumerate_in(fv, &crate::all_rules(fv), budget, max_models)
}

/// The propagating enumeration over a rule subset of the arena closed
/// under the rules that mention its atoms — a decomposition group, or
/// the whole arena. Every list the search walks (rules by head,
/// attackers, watchers of a group atom) stays inside such a subset, so
/// the search costs what the subset's rules cost.
pub(crate) fn enumerate_in(
    fv: &FlatView,
    rules: &[FlatIdx],
    budget: &Budget,
    max_models: Option<usize>,
) -> Eval<Vec<Interpretation>> {
    let (d, atoms) = match crate::stable::branch_space(fv, rules, budget) {
        Ok(space) => space,
        Err(reason) => {
            return Eval::Interrupted(Interrupted {
                reason,
                partial: Vec::new(),
            })
        }
    };
    let cap = max_models.unwrap_or(usize::MAX);
    let mut solver = Solver::new(fv, rules, budget, cap, d, atoms);
    let mut assign = vec![UNKNOWN; solver.atoms.len()];
    let mut dirty = rules.to_vec();
    match solver.search(&mut assign, &mut dirty) {
        Ok(()) => Eval::Complete(solver.out),
        Err(reason) => Eval::Interrupted(Interrupted {
            reason,
            partial: solver.out,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{enumerate_assumption_free, stable_models_monolithic_budgeted};
    use crate::stable::stable_models;
    use crate::test_util::{ground, renders, FIG2, P5};
    use olp_core::CompId;

    #[test]
    fn agrees_with_naive_on_paper_programs() {
        for src in [
            P5,
            "a :- b. -a :- b. b.",
            FIG2,
            "module c2 { bird(penguin). bird(pigeon). fly(X) :- bird(X).
                -ground_animal(X) :- bird(X). }
             module c1 < c2 { ground_animal(penguin). -fly(X) :- ground_animal(X). }",
            "p. -p.",
            "a :- b.",
        ] {
            let (w, g) = ground(src);
            for ci in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(ci as u32));
                let naive = enumerate_assumption_free(&v);
                let prop = enumerate_assumption_free_propagating(&v);
                assert_eq!(
                    renders(&w, &naive),
                    renders(&w, &prop),
                    "AF sets differ on {src} in component {ci}"
                );
                let monolithic = stable_models_monolithic_budgeted(&v, &Budget::unlimited(), None);
                assert_eq!(
                    renders(&w, &stable_models(&v)),
                    renders(&w, monolithic.value()),
                    "stable sets differ on {src} in component {ci}"
                );
            }
        }
    }

    #[test]
    fn propagation_prunes_forced_chains() {
        // A long forced chain has exactly one AF model; the propagating
        // solver must find it without exponential branching (this test
        // is fast *because* propagation collapses the space; the naive
        // enumerator would branch 3^40).
        use std::fmt::Write as _;
        let mut src = String::from("p0.\n");
        for i in 1..40 {
            let _ = writeln!(src, "p{} :- p{}.", i, i - 1);
        }
        let (_, g) = ground(&src);
        let v = FlatView::new(&g, CompId(0));
        let af = enumerate_assumption_free_propagating(&v);
        assert_eq!(af.len(), 1);
        assert_eq!(af[0].len(), 40);
    }
}

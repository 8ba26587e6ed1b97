//! The least fixpoint of the ordered immediate transformation
//! `V_{P,C}` (Definition 4, Lemma 1, Proposition 1, Theorem 1b), over
//! the flat arena ([`FlatView`]), sequential and morsel-parallel.
//!
//! `V_{P,C}(I) = { H(r) | r ∈ ground(C*), B(r) ⊆ I, r neither overruled
//! nor defeated w.r.t. I }`. The transformation is monotone (growing `I`
//! can only satisfy more bodies and *block* more attackers — attacks
//! only ever weaken), so the least fixpoint exists and equals the limit
//! of `V^k(∅)`. The engines here compute it stratum by stratum over
//! [`olp_ground::flat`]'s dense arenas: truth state is a [`BitSet`]
//! indexed by [`olp_core::GLit::code`] (one bit per signed atom),
//! watch/attack lists are CSR slices, and stratum membership is a
//! range check — no hashing anywhere in the inner loop. The
//! definitions transcribed literally, and the interpretive worklist
//! over the whole view, are the reference engines in
//! [`crate::reference`].
//!
//! ## The morsel scheduler
//!
//! [`least_model_morsel`] schedules **work-stealing over morsels**
//! rather than a per-level barrier: contiguous runs of whole strata,
//! size-balanced by
//! [`FlatView::morsels`]. Each morsel is an independent scheduling unit
//! with a precomputed set of predecessor morsels (from the flat view's
//! stratum dependency edges); a morsel becomes runnable when its last
//! predecessor completes, with no global round barrier anywhere.
//! Workers keep private deques and steal when idle, so a long-running
//! stratum never parks the rest of the pool.
//!
//! **Determinism.** Workers evaluate a morsel against a private
//! [`BitSet`] plus the shared [`AtomicBitSet`] of already-published
//! literals, and publish their derived bits only at **morsel close**
//! (merge-at-close), after which dependent morsels are released. Every
//! literal a morsel's rules can depend on is either derived inside the
//! morsel (read from the private set) or owned by a predecessor stratum
//! (published before this morsel was released), so each morsel computes
//! exactly its strata's fragment of the least fixpoint. The least model
//! is unique (`V_{P,C}` is monotone), hence the final bit set — and the
//! [`Interpretation`] built from it — is byte-identical at every thread
//! count and under every steal schedule.
//!
//! **Anytime contract.** Each morsel evaluation runs under its own
//! [`olp_core::Ticker`] over the shared [`Budget`], so step accounting
//! stays exact at morsel boundaries even under work-stealing. A tripped
//! worker still publishes its private bits — every one of them was
//! derived by a rule whose body held and whose attackers were blocked,
//! conditions monotone in the growing interpretation — then raises the
//! stop flag. The partial result is therefore always a sound monotone
//! prefix of the least model.
//!
//! **Small inputs.** Parallel evaluation below
//! [`MorselCfg::seq_threshold`] total weight is a pure loss (thread
//! spawn + publication overhead on microsecond-scale fixpoints), so
//! such programs take the sequential path automatically regardless of
//! the configured thread count.

use olp_core::{
    AtomId, AtomicBitSet, BitSet, Budget, Eval, GLit, Interpretation, InterruptReason, Interrupted,
    Ticker,
};
use olp_ground::{FlatView, Morsel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Reusable per-engine scratch: one slot per flat rule. Allocated
/// zeroed; every rule belongs to exactly one stratum and each stratum
/// is evaluated at most once per fixpoint, so no resets are needed
/// between strata (or between the morsels of one run).
struct Scratch {
    unsat: Vec<u32>,
    over: Vec<u32>,
    defeat: Vec<u32>,
    blocked: Vec<bool>,
    fired: Vec<bool>,
    queue: Vec<GLit>,
}

impl Scratch {
    fn new(n_rules: usize) -> Self {
        Scratch {
            unsat: vec![0; n_rules],
            over: vec![0; n_rules],
            defeat: vec![0; n_rules],
            blocked: vec![false; n_rules],
            fired: vec![false; n_rules],
            queue: Vec::new(),
        }
    }
}

/// Runs the stratified worklist over strata `s_lo..s_hi` of `fv`.
///
/// Literal truth is `local ∪ upstream`: `upstream` answers for bits
/// published by strata outside the range (the sequential engine passes
/// the always-false closure for the first call and accumulates into
/// `local`; the morsel workers pass the shared [`AtomicBitSet`]).
/// Newly derived bits go to `local`. On interruption `local` still
/// holds a sound monotone prefix of the range's derivations.
/// When `definite` is set the caller asserts the view is **negation-free**
/// (no negative heads, no negative body literals — e.g. proved by
/// `olp-analyze`'s program profile): no literal can ever be blocked and
/// the attack lists are empty, so the blockedness bookkeeping and the
/// complement watch scan are skipped wholesale. Passing `definite` on a
/// view that does contain negation is unsound.
#[allow(clippy::too_many_arguments)] // the hot inner loop: one arg per piece of scratch state
fn eval_strata(
    fv: &FlatView,
    upstream: &dyn Fn(usize) -> bool,
    local: &mut BitSet,
    sc: &mut Scratch,
    definite: bool,
    s_lo: u32,
    s_hi: u32,
    ticker: &mut Ticker<'_>,
) -> Result<(), InterruptReason> {
    for s in s_lo..s_hi {
        let (lo, hi) = fv.stratum(s as usize);
        if lo == hi {
            continue;
        }
        macro_rules! holds {
            ($code:expr) => {{
                let c = $code;
                local.contains(c) || upstream(c)
            }};
        }
        macro_rules! try_fire {
            ($f:expr) => {{
                let f = $f;
                let z = f as usize;
                if sc.unsat[z] == 0 && sc.over[z] == 0 && sc.defeat[z] == 0 && !sc.fired[z] {
                    sc.fired[z] = true;
                    let head = fv.head(f);
                    debug_assert!(
                        definite || !holds!(head.complement().code()),
                        "V preserves consistency"
                    );
                    if local.insert(head.code()) {
                        sc.queue.push(head);
                    }
                }
            }};
        }
        // Initialise the stratum's counters against everything derived
        // so far: body atoms live in strata ≤ s, attackers share the
        // victim's head atom and hence its stratum (their `blocked`
        // entries are initialised by the same loop).
        for f in lo..hi {
            ticker.tick()?;
            let z = f as usize;
            let mut blocked = false;
            let mut unsat = 0u32;
            for &b in fv.body(f) {
                if !definite {
                    blocked |= holds!(b.complement().code());
                }
                unsat += u32::from(!holds!(b.code()));
            }
            sc.blocked[z] = blocked;
            sc.unsat[z] = unsat;
        }
        if !definite {
            for f in lo..hi {
                let z = f as usize;
                sc.over[z] = fv
                    .overrulers(f)
                    .iter()
                    .filter(|&&a| !sc.blocked[a as usize])
                    .count() as u32;
                sc.defeat[z] = fv
                    .defeaters(f)
                    .iter()
                    .filter(|&&a| !sc.blocked[a as usize])
                    .count() as u32;
            }
        }
        for f in lo..hi {
            ticker.tick()?;
            try_fire!(f);
        }
        while let Some(lit) = sc.queue.pop() {
            ticker.tick()?;
            // Only rules of the current stratum can watch `lit` among
            // strata not yet evaluated; earlier strata are final and
            // later ones re-initialise when their turn comes, so the
            // range check is the entire stratum filter.
            for &w in fv.watchers(lit) {
                if w < lo || w >= hi {
                    continue;
                }
                sc.unsat[w as usize] -= 1;
                try_fire!(w);
            }
            if definite {
                continue;
            }
            for &w in fv.watchers(lit.complement()) {
                if w < lo || w >= hi || sc.blocked[w as usize] {
                    continue;
                }
                sc.blocked[w as usize] = true;
                // Victims share the attacker's head atom, hence the
                // stratum: no range check needed.
                for &v in fv.victims_overrule(w) {
                    sc.over[v as usize] -= 1;
                    try_fire!(v);
                }
                for &v in fv.victims_defeat(w) {
                    sc.defeat[v as usize] -= 1;
                    try_fire!(v);
                }
            }
        }
    }
    Ok(())
}

/// The outcome of a fixpoint run that derived `bits`: complete, or
/// interrupted with `bits` as its sound partial model.
fn finish(bits: &BitSet, res: Result<(), InterruptReason>) -> Eval<Interpretation> {
    let i = Interpretation::from_literals(bits.iter().map(GLit::from_code))
        .expect("least fixpoint is consistent (Lemma 1)");
    match res {
        Ok(()) => Eval::Complete(i),
        Err(reason) => Eval::Interrupted(Interrupted { reason, partial: i }),
    }
}

/// Least fixpoint of `V_{P,C}`.
///
/// By Theorem 1(b) this is the **least model** of the program in the
/// component, the intersection of all models, and is assumption-free.
/// Runs the stratified worklist sequentially; it is differentially
/// tested against the reference engines in [`crate::reference`].
pub fn least_model(fv: &FlatView) -> Interpretation {
    least_model_budgeted(fv, &Budget::unlimited()).into_value()
}

/// [`least_model`] under a [`Budget`].
///
/// On interruption the partial result is every completed stratum in
/// full plus a monotone prefix of the current one — always a subset of
/// the unbudgeted least model.
pub fn least_model_budgeted(fv: &FlatView, budget: &Budget) -> Eval<Interpretation> {
    least_model_cfg(fv, false, budget)
}

/// The sequential flat fixpoint. On interruption the partial result is
/// every completed stratum plus a monotone prefix of the current one —
/// a sound under-approximation of the least model. `definite` skips
/// all blockedness and attack bookkeeping on a view the caller proved
/// **negation-free**; it is unsound on a view that contains negation.
fn least_model_cfg(fv: &FlatView, definite: bool, budget: &Budget) -> Eval<Interpretation> {
    let mut truth = BitSet::with_capacity(2 * fv.n_atoms);
    let mut sc = Scratch::new(fv.len());
    let mut ticker = budget.ticker();
    let res = eval_strata(
        fv,
        &|_| false,
        &mut truth,
        &mut sc,
        definite,
        0,
        fv.n_strata() as u32,
        &mut ticker,
    );
    drop(ticker);
    finish(&truth, res)
}

/// Incremental least model over flat arenas, differentially tested
/// against from-scratch [`least_model`].
///
/// `old` is the least model of this view before the mutation and
/// `touched` the sorted atom indices occurring in any changed rule —
/// head *and* body literals of every added or removed instance (the
/// set `olp_ground::GroundDelta::touched_atoms` computes). `fv` is the
/// view *after* the mutation: either freshly built or spliced by
/// `FlatView::apply_delta` — the algorithm only relies on the
/// invariants both constructions guarantee (topological stratum order,
/// rules sharing a head atom sharing a stratum).
///
/// **Dirty closure.** An atom is dirty if it is touched or if some
/// rule watching a dirty atom derives it: a reverse dependency walk
/// over the packed watch lists (`watchers(+a)` / `watchers(-a)` *are*
/// the body→head reverse adjacency, so no radjacency map is
/// materialised). Removed derivation chains are covered because any
/// broken chain ends at a removed instance, whose head is touched. Attack edges need
/// no separate traversal — an attacker shares its victim's head atom,
/// so a change in the attacker's blockedness reaches the victim's atom
/// through the attacker's own body watches.
///
/// **Clean-bit copy.** A stratum none of whose head atoms is dirty is
/// *clean*: its rules are unchanged (a changed rule's head atom is
/// touched) and every literal they depend on is clean (a dirty body
/// atom would have dirtied the head through the watch list), so by
/// induction over the topological stratum order the old model's bits
/// for its head atoms are exact — they are copied verbatim, one budget
/// tick per rule. Dirty strata re-run the semi-naive worklist over
/// their contiguous rule ranges against the accumulated bits.
///
/// **Anytime contract.** Same as the sequential flat fixpoint: on
/// interruption the partial result is the copied clean bits plus every
/// completed dirty stratum plus a monotone prefix of the current one —
/// a sound under-approximation of the new least model.
pub fn least_model_delta_flat(
    fv: &FlatView,
    old: &Interpretation,
    touched: &[usize],
    budget: &Budget,
) -> Eval<Interpretation> {
    let n_atoms = fv.n_atoms;
    // Transitive dirty closure over the watch lists.
    let mut dirty = vec![false; n_atoms];
    let mut stack: Vec<u32> = Vec::new();
    for &a in touched {
        if a < n_atoms && !dirty[a] {
            dirty[a] = true;
            stack.push(a as u32);
        }
    }
    while let Some(a) = stack.pop() {
        let atom = AtomId(a);
        for l in [GLit::pos(atom), GLit::neg(atom)] {
            for &w in fv.watchers(l) {
                let h = fv.head(w).atom().index();
                if !dirty[h] {
                    dirty[h] = true;
                    stack.push(h as u32);
                }
            }
        }
    }

    let mut truth = BitSet::with_capacity(2 * n_atoms);
    let mut sc = Scratch::new(fv.len());
    let mut ticker = budget.ticker();
    let res = (0..fv.n_strata()).try_for_each(|s| {
        let (lo, hi) = fv.stratum(s);
        if (lo..hi).any(|f| dirty[fv.head(f).atom().index()]) {
            let s = s as u32;
            return eval_strata(
                fv,
                &|_| false,
                &mut truth,
                &mut sc,
                false,
                s,
                s + 1,
                &mut ticker,
            );
        }
        for f in lo..hi {
            ticker.tick()?;
            let h = fv.head(f).atom();
            for l in [GLit::pos(h), GLit::neg(h)] {
                if old.holds(l) {
                    truth.insert(l.code());
                }
            }
        }
        Ok(())
    });
    drop(ticker);
    finish(&truth, res)
}

/// Tuning knobs of the morsel-driven parallel fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselCfg {
    /// Worker threads. `<= 1` always takes the sequential flat path.
    pub threads: usize,
    /// Target morsel weight (rules + body/attack edges; see
    /// [`FlatView::stratum_weight`]). Smaller morsels balance better,
    /// larger ones amortise publication; the default suits fixpoints of
    /// thousands of rules.
    pub target_weight: u64,
    /// Total program weight below which the evaluation stays
    /// sequential regardless of `threads` — spawning workers for a
    /// microsecond-scale fixpoint is a measured net loss (the
    /// `defeating_cliques` pathology).
    pub seq_threshold: u64,
    /// The caller proved the view negation-free (e.g. via
    /// `olp-analyze`'s program profile): skip blockedness and attack
    /// bookkeeping entirely. Unsound if the view contains negation.
    pub assume_definite: bool,
}

impl Default for MorselCfg {
    fn default() -> Self {
        MorselCfg {
            threads: 1,
            target_weight: 2048,
            seq_threshold: 4096,
            assume_definite: false,
        }
    }
}

impl MorselCfg {
    /// A config with `threads` workers and default sizing.
    pub fn with_threads(threads: usize) -> Self {
        MorselCfg {
            threads,
            ..MorselCfg::default()
        }
    }
}

/// Least model of a flat view under the morsel-driven work-stealing
/// scheduler. Byte-identical to [`least_model`] at every thread
/// count (see the module docs for the argument); `threads <= 1` and
/// programs below [`MorselCfg::seq_threshold`] run the sequential path
/// verbatim.
pub fn least_model_morsel(fv: &FlatView, cfg: &MorselCfg, budget: &Budget) -> Eval<Interpretation> {
    let weight = || {
        (0..fv.n_strata())
            .map(|s| fv.stratum_weight(s))
            .sum::<u64>()
    };
    if cfg.threads <= 1 || weight() < cfg.seq_threshold {
        return least_model_cfg(fv, cfg.assume_definite, budget);
    }
    let morsels = fv.morsels(cfg.target_weight);
    if morsels.len() <= 1 {
        return least_model_cfg(fv, cfg.assume_definite, budget);
    }
    least_model_morsel_definite(fv, &morsels, cfg.threads, cfg.assume_definite, budget)
}

/// The parallel scheduler proper, with no sequential fallback — exposed
/// so tests can force the work-stealing path on arbitrarily small
/// programs.
pub fn least_model_morsel_forced(
    fv: &FlatView,
    morsels: &[Morsel],
    threads: usize,
    budget: &Budget,
) -> Eval<Interpretation> {
    least_model_morsel_definite(fv, morsels, threads, false, budget)
}

fn least_model_morsel_definite(
    fv: &FlatView,
    morsels: &[Morsel],
    threads: usize,
    definite: bool,
    budget: &Budget,
) -> Eval<Interpretation> {
    use crossbeam::deque::{Injector, Steal, Worker};

    let nm = morsels.len();
    // Morsel-granularity dependency graph from the flat view's stratum
    // dependency edges.
    let mut morsel_of_stratum = vec![0u32; fv.n_strata()];
    for (mi, m) in morsels.iter().enumerate() {
        for s in m.stratum_lo..m.stratum_hi {
            morsel_of_stratum[s as usize] = mi as u32;
        }
    }
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); nm];
    let mut indegree = vec![0usize; nm];
    let mut scratch: Vec<u32> = Vec::new();
    for (mi, m) in morsels.iter().enumerate() {
        scratch.clear();
        for s in m.stratum_lo..m.stratum_hi {
            for &p in fv.stratum_preds(s as usize) {
                let pm = morsel_of_stratum[p as usize];
                if pm != mi as u32 {
                    scratch.push(pm);
                }
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        indegree[mi] = scratch.len();
        for &pm in &scratch {
            dependents[pm as usize].push(mi as u32);
        }
    }
    let indegree: Vec<AtomicUsize> = indegree.into_iter().map(AtomicUsize::new).collect();

    let global = AtomicBitSet::new(2 * fv.n_atoms);
    let injector: Injector<u32> = Injector::new();
    for (mi, d) in indegree.iter().enumerate() {
        if d.load(Ordering::Relaxed) == 0 {
            injector.push(mi as u32);
        }
    }
    let remaining = AtomicUsize::new(nm);
    let stop = AtomicBool::new(false);
    let interrupted: Mutex<Option<InterruptReason>> = Mutex::new(None);

    let workers: Vec<Worker<u32>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<_> = workers.iter().map(Worker::stealer).collect();

    crossbeam::thread::scope(|scope| {
        for (wi, own) in workers.into_iter().enumerate() {
            let stealers = &stealers;
            let injector = &injector;
            let indegree = &indegree;
            let dependents = &dependents;
            let global = &global;
            let remaining = &remaining;
            let stop = &stop;
            let interrupted = &interrupted;
            scope.spawn(move |_| {
                let mut local = BitSet::with_capacity(2 * fv.n_atoms);
                let mut sc = Scratch::new(fv.len());
                loop {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let task = own.pop().or_else(|| {
                        injector.steal().success().or_else(|| {
                            // Rotate the steal order so workers don't
                            // all gang up on worker 0's deque.
                            (0..stealers.len())
                                .map(|k| (wi + 1 + k) % stealers.len())
                                .filter(|&v| v != wi)
                                .find_map(|v| match stealers[v].steal() {
                                    Steal::Success(t) => Some(t),
                                    _ => None,
                                })
                        })
                    });
                    let Some(mi) = task else {
                        if remaining.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    let m = &morsels[mi as usize];
                    local.clear();
                    let mut ticker = budget.ticker();
                    let res = eval_strata(
                        fv,
                        &|c| global.contains(c),
                        &mut local,
                        &mut sc,
                        definite,
                        m.stratum_lo,
                        m.stratum_hi,
                        &mut ticker,
                    );
                    drop(ticker); // refund unused credit: exact at morsel close
                                  // Publish even a partial morsel: every local bit was
                                  // derived by a fired rule whose (monotone) conditions
                                  // held — a sound prefix of the least fixpoint.
                    global.merge(&local);
                    match res {
                        Ok(()) => {
                            for &d in &dependents[mi as usize] {
                                // The AcqRel decrement orders the
                                // `Release` publication above before the
                                // releasee observes its last predecessor
                                // gone.
                                if indegree[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    own.push(d);
                                }
                            }
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        Err(reason) => {
                            let mut slot = interrupted.lock().expect("interrupt slot");
                            slot.get_or_insert(reason);
                            stop.store(true, Ordering::Release);
                            return;
                        }
                    }
                }
            });
        }
    })
    .expect("morsel workers do not panic");

    let reason = *interrupted.lock().expect("interrupt slot");
    finish(&global.snapshot(), reason.map_or(Ok(()), Err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::least_model_naive;
    use crate::test_util::{ground, FIG1, FIG2, P5};
    use olp_core::{CompId, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};
    use olp_parser::{parse_ground_literal, parse_program};

    #[test]
    fn flat_matches_interpretive_on_examples() {
        for src in [
            FIG1,
            FIG2,
            "a :- b. -a :- b. b.",
            "p. -p.",
            "module c2 { a. } module c1 < c2 { -a :- b. }",
        ] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let c = CompId(c as u32);
                let fv = FlatView::new(&g, c);
                assert_eq!(
                    least_model(&fv),
                    crate::reference::least_model_monolithic(&fv),
                    "flat != interpretive on {src} in component {}",
                    c.0
                );
            }
        }
    }

    #[test]
    fn morsel_forced_matches_sequential() {
        let (_, g) = ground(FIG1);
        for c in 0..g.order.len() {
            let c = CompId(c as u32);
            let fv = FlatView::new(&g, c);
            let seq = least_model(&fv);
            for threads in [2, 4, 8] {
                let morsels = fv.morsels(1); // one morsel per stratum
                let par = least_model_morsel_forced(&fv, &morsels, threads, &Budget::unlimited())
                    .expect_complete("unlimited budget");
                assert_eq!(seq, par, "threads={threads}");
            }
        }
    }

    #[test]
    fn definite_path_matches_general_on_positive_programs() {
        for src in [
            "p. q :- p. r :- q, p.",
            "edge(a,b). edge(b,c). edge(c,d). path(X,Y) :- edge(X,Y).
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        ] {
            let (_, g) = ground(src);
            let fv = FlatView::new(&g, CompId(0));
            let general = least_model(&fv);
            let definite =
                least_model_cfg(&fv, true, &Budget::unlimited()).expect_complete("unlimited");
            assert_eq!(general, definite, "{src}");
            let cfg = MorselCfg {
                threads: 4,
                target_weight: 1,
                seq_threshold: 0,
                assume_definite: true,
            };
            let par =
                least_model_morsel(&fv, &cfg, &Budget::unlimited()).expect_complete("unlimited");
            assert_eq!(general, par, "{src} (parallel)");
        }
    }

    #[test]
    fn small_programs_take_sequential_path() {
        let (_, g) = ground(FIG1);
        let fv = FlatView::new(&g, CompId(1));
        // Way below the threshold: must not spawn (observable only as
        // "still correct", but the code path is the seq fallback).
        let cfg = MorselCfg::with_threads(8);
        let m = least_model_morsel(&fv, &cfg, &Budget::unlimited()).expect_complete("unlimited");
        assert_eq!(m, least_model(&fv));
    }

    #[test]
    fn budget_trip_leaves_sound_prefix() {
        let (_, g) = ground(FIG1);
        let fv = FlatView::new(&g, CompId(1));
        let full = least_model(&fv);
        for steps in 0..12 {
            let eval = least_model_cfg(&fv, false, &Budget::with_steps(steps));
            if let Eval::Interrupted(i) = eval {
                for l in i.partial.literals() {
                    assert!(full.holds(l), "partial derived a non-model literal");
                }
            }
        }
    }

    /// Drives the full incremental pipeline between two groundings of
    /// the same world: diff → per-view patch (or honest rebuild) →
    /// `least_model_delta_flat`, checked against a from-scratch flat
    /// evaluation of the new program.
    fn check_delta_flat(old_gp: &GroundProgram, new_gp: &GroundProgram) {
        use olp_ground::{FlatPatch, FlatView, GroundDelta, GroundRule};
        let delta = GroundDelta::between(old_gp, new_gp);
        let touched = delta.touched_atoms(old_gp, new_gp);
        for c in 0..old_gp.order.len() {
            let c = CompId(c as u32);
            let fv_old = FlatView::new(old_gp, c);
            let old_model = least_model(&fv_old);
            let (added, removed) = delta.for_view(old_gp, new_gp, c);
            let refs: Vec<&GroundRule> =
                removed.iter().map(|&i| &old_gp.rules[i as usize]).collect();
            let fv_new = match fv_old
                .locate(&refs)
                .map(|flat| fv_old.apply_delta(new_gp, &added, &flat))
            {
                Some(FlatPatch::Patched(p)) => p,
                _ => FlatView::new(new_gp, c),
            };
            let scratch = least_model(&FlatView::new(new_gp, c));
            // The (possibly patched) arena evaluates identically from
            // scratch…
            assert_eq!(least_model(&fv_new), scratch);
            // …and the delta evaluator reproduces it from the old
            // model plus the touched set.
            let inc = least_model_delta_flat(&fv_new, &old_model, &touched, &Budget::unlimited())
                .expect_complete("unlimited budget");
            assert_eq!(
                inc, scratch,
                "delta evaluation diverged in component {}",
                c.0
            );
        }
    }

    #[test]
    fn delta_flat_matches_scratch_after_mutations() {
        // Propositional programs with contested atoms so the dirty
        // closure crosses attack edges, not just positive deps.
        let base = "p. q :- p. -r :- q. r :- p. s :- r.";
        let mutations = [
            "p. q :- p. -r :- q. r :- p. s :- r. t :- s.", // fresh-atom tail
            "p. q :- p. -r :- q. r :- p. s :- r. q :- s.", // back edge → rebuild path
            "p. q :- p. r :- p. s :- r.",                  // retract -r :- q.
            "q :- p. -r :- q. r :- p. s :- r.",            // retract the fact p.
        ];
        for m in mutations {
            let mut w = World::new();
            let p1 = parse_program(&mut w, base).unwrap();
            let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
            let p2 = parse_program(&mut w, m).unwrap();
            let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
            check_delta_flat(&g1, &g2);
            check_delta_flat(&g2, &g1); // and the reverse mutation
        }
    }

    #[test]
    fn delta_flat_matches_scratch_with_variables() {
        let mut w = World::new();
        let p1 = parse_program(
            &mut w,
            "parent(a,b). anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
        let p2 = parse_program(
            &mut w,
            "parent(a,b). parent(b,c). anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
        check_delta_flat(&g1, &g2);
        check_delta_flat(&g2, &g1);
    }

    #[test]
    fn delta_flat_budget_trip_leaves_sound_prefix() {
        let mut w = World::new();
        let p1 = parse_program(&mut w, "p. q :- p. -r :- q. r :- p. s :- r.").unwrap();
        let g1 = ground_exhaustive(&mut w, &p1, &GroundConfig::default()).unwrap();
        let p2 = parse_program(&mut w, "p. q :- p. r :- p. s :- r. t :- s.").unwrap();
        let g2 = ground_exhaustive(&mut w, &p2, &GroundConfig::default()).unwrap();
        use olp_ground::GroundDelta;
        let delta = GroundDelta::between(&g1, &g2);
        let touched = delta.touched_atoms(&g1, &g2);
        let c = CompId(0);
        let old_model = least_model(&FlatView::new(&g1, c));
        let fv = FlatView::new(&g2, c);
        let full = least_model(&fv);
        for steps in 0..16 {
            let eval =
                least_model_delta_flat(&fv, &old_model, &touched, &Budget::with_steps(steps));
            if let Eval::Interrupted(i) = eval {
                for l in i.partial.literals() {
                    assert!(full.holds(l), "partial derived a non-model literal");
                }
            }
        }
    }

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
        let v = FlatView::new(&g, CompId(1)); // c1
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
        let v = FlatView::new(&g, CompId(0)); // c2
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
        let v = FlatView::new(&g, CompId(0));
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
        let v = FlatView::new(&g, c1);
        let m = least_model(&v);
        assert!(m.is_empty(), "got {:?}", m.len());
    }

    #[test]
    fn fig2_component_views_differ() {
        let (mut w, g) = ground(FIG2);
        // In C3's own view, mimmo is rich and not poor.
        let m3 = least_model(&FlatView::new(&g, CompId(0)));
        expect_model(&mut w, &m3, &["rich(mimmo)", "-poor(mimmo)"], g.n_atoms);
        // In C2's own view, mimmo is poor and not rich.
        let m2 = least_model(&FlatView::new(&g, CompId(1)));
        expect_model(&mut w, &m2, &["poor(mimmo)", "-rich(mimmo)"], g.n_atoms);
    }

    #[test]
    fn naive_and_incremental_agree_on_examples() {
        for src in [FIG1, FIG2, "a :- b. -a :- b. b.", P5] {
            let (_, g) = ground(src);
            for c in 0..g.order.len() {
                let v = FlatView::new(&g, CompId(c as u32));
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
        let m_upper = least_model(&FlatView::new(&g, CompId(0)));
        assert!(m_upper.holds(a));
        let m_lower = least_model(&FlatView::new(&g, CompId(1)));
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
            let m = least_model(&FlatView::new(&g, myself));
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
        let m = least_model(&FlatView::new(&g, CompId(0)));
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
        let m = least_model(&FlatView::new(&g, CompId(1)));
        expect_model(&mut w, &m, &["-a", "-b"], g.n_atoms);
    }

    #[test]
    fn self_defeating_fact_pair() {
        // p. and -p. in one component: mutual defeat, nothing derived.
        let (_, g) = ground("p. -p.");
        let m = least_model(&FlatView::new(&g, CompId(0)));
        assert!(m.is_empty());
    }

    #[test]
    fn lower_fact_beats_upper_fact() {
        let (mut w, g) = ground("module low < high { p. } module high { -p. }");
        let low = CompId(0);
        let m = least_model(&FlatView::new(&g, low));
        let p = parse_ground_literal(&mut w, "p").unwrap();
        assert!(m.holds(p));
        assert!(!m.holds(p.complement()));
    }
}

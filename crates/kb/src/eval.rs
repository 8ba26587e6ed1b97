//! The evaluation front door: one planner and one executor for every
//! read of [`crate::Kb`], [`crate::KbSnapshot`] and the `olp` CLI.
//!
//! Every component has one least model `V^∞(∅)` (Thm. 1b) and one set
//! of stable models (Def. 9); skeptical and credulous answers are the
//! intersection and the union of that set. What varies is only *how*
//! an answer is obtained — from a cache, by revalidating a stale cache
//! entry, by a fresh fixpoint, from the profile's proof that the view
//! has a single stable model, or by enumeration. [`plan`] makes that
//! choice in one place, as a pure function of what is asked, what the
//! component's profile proves, the model cap, and the caller's cache
//! state; [`read`] runs the chosen [`EnginePath`] against the caches
//! the caller lends it through [`Caches`]. No other code in this crate
//! calls an evaluation engine.

use olp_analyze::{ComponentProfile, StratClass};
use olp_core::{Budget, CompId, Eval, GLit, Interpretation, Interrupted};
use olp_ground::FlatView;
use olp_semantics::{
    enumerate_assumption_free_decomposed_budgeted, interp_intersection, least_model_delta_flat,
    least_model_morsel, stable_models_decomposed, GroupMemo, MorselCfg,
};
use std::borrow::Borrow;
use std::sync::Arc;

/// What a read asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// The least model (Def. 4, Thm. 1b).
    Least,
    /// The stable models (Def. 9), capped by the read's `max_models`.
    Stable,
    /// The literals true in every stable model. Ignores the model cap.
    Skeptical,
    /// The literals true in some stable model. Ignores the model cap.
    Credulous,
    /// Every assumption-free model (Defs. 6–8), capped by the read's
    /// `max_models`.
    AssumptionFree,
}

/// The answer to one read, shaped by its [`Ask`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// [`Ask::Least`] (the cached model itself) and [`Ask::Skeptical`].
    Model(Arc<Interpretation>),
    /// [`Ask::Stable`] and [`Ask::AssumptionFree`].
    Models(Vec<Interpretation>),
    /// [`Ask::Credulous`]: sorted and deduplicated.
    Literals(Vec<GLit>),
}

impl Answer {
    /// The model of a [`Ask::Least`] or [`Ask::Skeptical`] answer.
    pub fn into_model(self) -> Arc<Interpretation> {
        match self {
            Answer::Model(m) => m,
            other => panic!("not a model answer: {other:?}"),
        }
    }

    /// The models of a [`Ask::Stable`] or [`Ask::AssumptionFree`] answer.
    pub fn into_models(self) -> Vec<Interpretation> {
        match self {
            Answer::Models(ms) => ms,
            other => panic!("not a model-set answer: {other:?}"),
        }
    }

    /// The literals of a [`Ask::Credulous`] answer.
    pub fn into_literals(self) -> Vec<GLit> {
        match self {
            Answer::Literals(ls) => ls,
            other => panic!("not a literal answer: {other:?}"),
        }
    }
}

/// How a least model is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeastPath {
    /// The cached model is current.
    CacheHit,
    /// The cached model is stale by epoch, but no rule visible from the
    /// component changed since: re-tag it in O(1).
    Retag,
    /// Visible rules changed since the cached model was computed:
    /// recompute only the strata downstream of the touched atoms.
    Delta,
    /// No cached model: the morsel fixpoint (sequential at one thread).
    Fixpoint,
    /// No cached model and the view is proved negation-free: the
    /// fixpoint without blockedness and attack bookkeeping.
    DefiniteFixpoint,
}

/// The engine path one read takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnginePath {
    /// A least-model read.
    Least(LeastPath),
    /// A stable, skeptical or credulous read on a view proved to have
    /// exactly one stable model: answered from the least model.
    SingleModel(LeastPath),
    /// The complete, uncapped stable models memoised at the current
    /// view version.
    StableMemo,
    /// Decomposed enumeration (through the per-group memo where the
    /// caller keeps one).
    Enumerate,
}

/// What a component's profile proves. Everything is `false` without a
/// profile, or with profile guidance switched off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Proofs {
    /// Exactly one stable model: the least model.
    pub single_model: bool,
    /// No negative heads and no negative body literals.
    pub definite: bool,
}

impl Proofs {
    pub(crate) fn of(profile: Option<&ComponentProfile>) -> Self {
        profile.map_or_else(Proofs::default, |p| Proofs {
            single_model: p.single_model,
            definite: p.strat == StratClass::NegationFree,
        })
    }
}

/// A component's cached least model and how current it is.
pub(crate) enum Cached {
    /// No entry.
    Absent,
    /// Computed at the current epoch.
    Current(Arc<Interpretation>),
    /// Stale by epoch; no rule visible from the component changed.
    Unchanged(Arc<Interpretation>),
    /// Visible rules changed since epoch `since`.
    Moved {
        model: Arc<Interpretation>,
        since: u64,
    },
}

/// The caller's cache state, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheState {
    /// The least-model entry: `None` when absent, else whether it is
    /// current, unchanged or moved (see [`Cached`]).
    pub least: Option<LeastPath>,
    /// A complete, uncapped stable memo exists at the current version.
    pub stable_memo: bool,
}

/// The limits of one read.
pub(crate) struct Limits<'b> {
    pub budget: &'b Budget,
    pub max_models: Option<usize>,
    pub threads: usize,
}

/// The planner: picks the engine path for `ask` given what the profile
/// proves, the model cap, and the caller's cache state. Pure.
pub(crate) fn plan(
    ask: Ask,
    proofs: Proofs,
    max_models: Option<usize>,
    cache: CacheState,
) -> EnginePath {
    let least = cache.least.unwrap_or(if proofs.definite {
        LeastPath::DefiniteFixpoint
    } else {
        LeastPath::Fixpoint
    });
    match ask {
        Ask::Least => EnginePath::Least(least),
        Ask::AssumptionFree => EnginePath::Enumerate,
        Ask::Stable | Ask::Skeptical | Ask::Credulous => {
            let cap = if ask == Ask::Stable { max_models } else { None };
            // A cap below 2 keeps the general truncation semantics
            // (`Interrupted(ModelCap)`), which the fast path cannot
            // reproduce.
            if proofs.single_model && cap.is_none_or(|cap| cap >= 2) {
                EnginePath::SingleModel(least)
            } else if cache.stable_memo && cap.is_none() {
                EnginePath::StableMemo
            } else {
                EnginePath::Enumerate
            }
        }
    }
}

/// The caches a caller lends the executor. `Kb` lends its epoch-tagged
/// model cache, stable memo and per-group memo; `KbSnapshot` its frozen
/// maps (every entry current, no memos — the defaults).
pub(crate) trait Caches {
    /// What the profile of `c` proves.
    fn proofs(&mut self, c: CompId) -> Proofs;
    /// The cached least model of `c`.
    fn least(&self, c: CompId) -> Cached;
    /// The compiled arena of `c`.
    fn flat(&mut self, c: CompId) -> Arc<FlatView>;
    /// Caches a complete least model of `c`.
    fn store_least(&mut self, c: CompId, model: Arc<Interpretation>);
    /// Marks a [`Cached::Unchanged`] entry current.
    fn retag(&mut self, _c: CompId) {}
    /// Atoms touched by mutations since epoch `since`, sorted.
    fn touched_since(&self, _since: u64) -> Vec<usize> {
        Vec::new()
    }
    /// The memoised stable models of `c` at the current version.
    fn stable_memo(&self, _c: CompId) -> Option<&[Interpretation]> {
        None
    }
    /// Memoises the complete, uncapped stable models of `c`.
    fn store_stable(&mut self, _c: CompId, _models: &[Interpretation]) {}
    /// Runs `f` with the per-group memo of `c`, if the caller keeps one.
    fn with_group_memo<R>(&mut self, _c: CompId, f: impl FnOnce(Option<&mut GroupMemo>) -> R) -> R {
        f(None)
    }
}

/// Plans and runs one read of component `c`, returning the path taken
/// with the answer. Partial results keep each engine's anytime
/// contract; a stable-family read answered from the least model
/// reports a partial least model as no stable models (`Stable`), as a
/// prefix of the least model (`Skeptical`, an under-approximation), or
/// as that prefix's literals (`Credulous`).
pub(crate) fn read(
    caches: &mut impl Caches,
    c: CompId,
    ask: Ask,
    lim: &Limits,
) -> (EnginePath, Eval<Answer>) {
    let cached = caches.least(c);
    let least = match &cached {
        Cached::Absent => None,
        Cached::Current(_) => Some(LeastPath::CacheHit),
        Cached::Unchanged(_) => Some(LeastPath::Retag),
        Cached::Moved { .. } => Some(LeastPath::Delta),
    };
    // Profiles cost an analysis pass when stale, so they are consulted
    // only where they can change the path.
    let proofs = match ask {
        Ask::Least if least.is_some() => Proofs::default(),
        Ask::AssumptionFree => Proofs::default(),
        _ => caches.proofs(c),
    };
    let cache = CacheState {
        least,
        stable_memo: caches.stable_memo(c).is_some(),
    };
    let path = plan(ask, proofs, lim.max_models, cache);
    let answer = match path {
        EnginePath::Least(p) => run_least(caches, c, p, cached, lim).map(Answer::Model),
        EnginePath::SingleModel(p) => match run_least(caches, c, p, cached, lim) {
            // A partial least model is not a stable model: report the
            // interruption with no models, like a search that tripped
            // before its first complete model.
            Eval::Interrupted(i) if ask == Ask::Stable => Eval::Interrupted(Interrupted {
                reason: i.reason,
                partial: Answer::Models(Vec::new()),
            }),
            eval => eval.map(|m| match ask {
                Ask::Skeptical => Answer::Model(m),
                Ask::Credulous => credulous(std::slice::from_ref(&m)),
                _ => Answer::Models(vec![Arc::unwrap_or_clone(m)]),
            }),
        },
        EnginePath::StableMemo => {
            let models = caches.stable_memo(c).expect("planned on a memo").to_vec();
            Eval::Complete(stable_answer(ask, models))
        }
        EnginePath::Enumerate => {
            let fv = caches.flat(c);
            if ask == Ask::AssumptionFree {
                enumerate_assumption_free_decomposed_budgeted(&fv, lim.budget, lim.max_models)
                    .map(Answer::Models)
            } else {
                let cap = if ask == Ask::Stable {
                    lim.max_models
                } else {
                    None
                };
                let eval = caches.with_group_memo(c, |memo| {
                    stable_models_decomposed(&fv, lim.budget, cap, memo)
                });
                if let (Eval::Complete(models), None) = (&eval, cap) {
                    caches.store_stable(c, models);
                }
                eval.map(|models| stable_answer(ask, models))
            }
        }
    };
    (path, answer)
}

/// A stable-family answer from the stable models.
fn stable_answer(ask: Ask, models: Vec<Interpretation>) -> Answer {
    match ask {
        Ask::Skeptical => Answer::Model(Arc::new(interp_intersection(&models))),
        Ask::Credulous => credulous(&models),
        _ => Answer::Models(models),
    }
}

/// The credulous answer: the literals of `models`, sorted and
/// deduplicated.
fn credulous<M: Borrow<Interpretation>>(models: &[M]) -> Answer {
    let mut out: Vec<GLit> = models.iter().flat_map(|m| m.borrow().literals()).collect();
    out.sort_unstable();
    out.dedup();
    Answer::Literals(out)
}

/// Runs a least-model path. Only complete models are cached; a stale
/// entry whose revalidation is interrupted stays in place (never
/// served) and the partial revalidation is returned.
fn run_least(
    caches: &mut impl Caches,
    c: CompId,
    path: LeastPath,
    cached: Cached,
    lim: &Limits,
) -> Eval<Arc<Interpretation>> {
    let eval = match (path, cached) {
        (LeastPath::CacheHit, Cached::Current(m)) => return Eval::Complete(m),
        (LeastPath::Retag, Cached::Unchanged(m)) => {
            caches.retag(c);
            return Eval::Complete(m);
        }
        (LeastPath::Delta, Cached::Moved { model, since }) => {
            let touched = caches.touched_since(since);
            least_model_delta_flat(&caches.flat(c), &model, &touched, lim.budget)
        }
        (LeastPath::Fixpoint | LeastPath::DefiniteFixpoint, Cached::Absent) => {
            let cfg = MorselCfg {
                threads: lim.threads,
                assume_definite: path == LeastPath::DefiniteFixpoint,
                ..MorselCfg::default()
            };
            least_model_morsel(&caches.flat(c), &cfg, lim.budget)
        }
        _ => unreachable!("the planner derives the least path from the cache entry"),
    };
    match eval {
        Eval::Complete(m) => {
            let m = Arc::new(m);
            caches.store_least(c, m.clone());
            Eval::Complete(m)
        }
        Eval::Interrupted(i) => Eval::Interrupted(Interrupted {
            reason: i.reason,
            partial: Arc::new(i.partial),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EnginePath::{Enumerate, Least, SingleModel, StableMemo};
    use LeastPath::{CacheHit, DefiniteFixpoint, Delta, Fixpoint, Retag};

    /// Nothing proved, a single stable model, and a negation-free view.
    const NONE: Proofs = Proofs {
        single_model: false,
        definite: false,
    };
    const SINGLE: Proofs = Proofs {
        single_model: true,
        definite: false,
    };
    const DEFINITE: Proofs = Proofs {
        single_model: true,
        definite: true,
    };

    fn path(ask: Ask, p: Proofs, cap: Option<usize>, least: Option<LeastPath>) -> EnginePath {
        plan(
            ask,
            p,
            cap,
            CacheState {
                least,
                stable_memo: false,
            },
        )
    }

    fn memo_path(ask: Ask, p: Proofs, cap: Option<usize>) -> EnginePath {
        plan(
            ask,
            p,
            cap,
            CacheState {
                least: None,
                stable_memo: true,
            },
        )
    }

    #[test]
    fn single_model_stable_read_takes_the_fast_path() {
        for cap in [None, Some(2), Some(16)] {
            assert_eq!(path(Ask::Stable, SINGLE, cap, None), SingleModel(Fixpoint));
        }
        // Skeptical and credulous follow stable and ignore the cap.
        for ask in [Ask::Skeptical, Ask::Credulous] {
            let p = path(ask, SINGLE, Some(1), Some(CacheHit));
            assert_eq!(p, SingleModel(CacheHit));
        }
    }

    #[test]
    fn a_cap_of_one_takes_general_enumeration() {
        assert_eq!(path(Ask::Stable, SINGLE, Some(1), None), Enumerate);
        assert_eq!(memo_path(Ask::Stable, SINGLE, Some(1)), Enumerate);
        assert_eq!(memo_path(Ask::AssumptionFree, DEFINITE, None), Enumerate);
    }

    #[test]
    fn a_current_stable_memo_answers_uncapped_reads() {
        assert_eq!(memo_path(Ask::Stable, NONE, None), StableMemo);
        assert_eq!(memo_path(Ask::Credulous, NONE, Some(1)), StableMemo);
        assert_eq!(memo_path(Ask::Stable, NONE, Some(3)), Enumerate);
    }

    #[test]
    fn least_reads_follow_the_cache_entry() {
        // A current entry is a hit; a stale entry with an unchanged view
        // version is re-tagged; a moved version takes the delta path.
        for p in [CacheHit, Retag, Delta] {
            for proofs in [NONE, DEFINITE] {
                assert_eq!(path(Ask::Least, proofs, None, Some(p)), Least(p));
            }
        }
    }

    #[test]
    fn a_fresh_negation_free_view_takes_the_definite_flat_path() {
        assert_eq!(
            path(Ask::Least, DEFINITE, None, None),
            Least(DefiniteFixpoint)
        );
        assert_eq!(path(Ask::Least, NONE, None, None), Least(Fixpoint));
    }
}

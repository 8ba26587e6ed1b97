//! Frozen, thread-safe KB views for snapshot-isolated reads.
//!
//! [`KbSnapshot`] is what a server hands its readers: the world,
//! ordered program, and grounding of a [`crate::Kb`] frozen at one
//! epoch, shared by `Arc` (publishing is O(components), see
//! [`crate::Kb::snapshot`]). Every query method takes `&self` and the
//! type is `Send + Sync`, so any number of threads evaluate
//! concurrently against one snapshot while a single writer mutates the
//! live KB and publishes the next epoch — readers never block on a
//! writer and never observe a half-applied mutation. Queries resolve
//! against the frozen world without interning and evaluate through the
//! same front door as the live KB ([`crate::Kb::read`]), so snapshot
//! answers are byte-identical to a sequential [`crate::Kb`] evaluated
//! at the same epoch.

use crate::eval::{self, Answer, Ask, Cached, Caches, Limits, Proofs};
use crate::kb::{KbError, QueryOptions};
use crate::resolve::{self, Pattern};
use olp_analyze::ComponentProfile;
use olp_core::{CompId, Eval, FxHashMap, GLit, Interpretation, Truth, World};
use olp_ground::{FlatView, GroundProgram};
use std::sync::{Arc, Mutex};

/// An immutable view of a knowledge base frozen at one epoch.
///
/// Created by [`crate::Kb::snapshot`]. All query methods take `&self`;
/// internal caches (compiled flat arenas, memoised least models) sit
/// behind mutexes that are held only for map probes and inserts, never
/// across evaluation, so concurrent readers do not serialise on each
/// other.
#[derive(Debug)]
pub struct KbSnapshot {
    world: Arc<World>,
    prog: Arc<olp_core::OrderedProgram>,
    ground: Arc<GroundProgram>,
    epoch: u64,
    threads: usize,
    /// Compiled flat arenas, seeded from the publishing KB's
    /// current-epoch cache and extended on demand.
    flat: Mutex<FxHashMap<CompId, Arc<FlatView>>>,
    /// Memoised least models, seeded from the publishing KB's
    /// current-epoch cache and extended on first read.
    models: Mutex<FxHashMap<CompId, Arc<Interpretation>>>,
    /// Per-component semantic profiles frozen at this epoch (only the
    /// ones the publishing KB had warm — see [`crate::Kb::warm_profiles`]).
    /// Never recomputed snapshot-side; an absent entry just means no
    /// fast path and no `stats` profile line for that component.
    profiles: FxHashMap<CompId, Arc<ComponentProfile>>,
}

impl KbSnapshot {
    /// Assembles a snapshot from a KB's shared parts (crate-internal;
    /// use [`crate::Kb::snapshot`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        world: Arc<World>,
        prog: Arc<olp_core::OrderedProgram>,
        ground: Arc<GroundProgram>,
        epoch: u64,
        threads: usize,
        flat: FxHashMap<CompId, Arc<FlatView>>,
        models: FxHashMap<CompId, Arc<Interpretation>>,
        profiles: FxHashMap<CompId, Arc<ComponentProfile>>,
    ) -> Self {
        Self {
            world,
            prog,
            ground,
            epoch,
            threads,
            flat: Mutex::new(flat),
            models: Mutex::new(models),
            profiles,
        }
    }

    /// The frozen semantic profile of `object`'s component, when the
    /// publishing KB had one warm at this epoch.
    pub fn profile(&self, object: &str) -> Result<Option<&ComponentProfile>, KbError> {
        let c = self.comp(object)?;
        Ok(self.profiles.get(&c).map(Arc::as_ref))
    }

    /// Every frozen profile, `(object name, profile)` in declaration
    /// order — what the server's `stats` response renders.
    pub fn profiles(&self) -> Vec<(&str, &ComponentProfile)> {
        let mut out: Vec<(CompId, &Arc<ComponentProfile>)> =
            self.profiles.iter().map(|(c, p)| (*c, p)).collect();
        out.sort_unstable_by_key(|(c, _)| c.0);
        out.into_iter()
            .map(|(c, p)| {
                (
                    self.world.syms.name(self.prog.components[c.index()].name),
                    p.as_ref(),
                )
            })
            .collect()
    }

    /// The mutation epoch this snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Query options with this snapshot's default thread count
    /// (inherited from the publishing KB).
    pub fn default_opts(&self) -> QueryOptions {
        QueryOptions::new().threads(self.threads)
    }

    /// The names of all objects, in declaration order.
    pub fn objects(&self) -> Vec<&str> {
        resolve::objects(&self.world, &self.prog)
    }

    /// Read-only world access.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Total number of source rules across all objects.
    pub fn n_rules(&self) -> usize {
        self.prog.components.iter().map(|c| c.rules.len()).sum()
    }

    /// The underlying ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.ground
    }

    /// Renders an interpretation against this snapshot's symbol table.
    pub fn render(&self, i: &Interpretation) -> String {
        i.render(&self.world)
    }

    /// Renders a packed ground literal.
    pub fn render_glit(&self, l: GLit) -> String {
        self.world.glit_str(l)
    }

    fn comp(&self, object: &str) -> Result<CompId, KbError> {
        resolve::component(&self.world, &self.prog, object)
    }

    /// Plans and runs one read of `c` under `opts` through the
    /// evaluation front door ([`crate::eval`]).
    fn read(&self, c: CompId, ask: Ask, opts: &QueryOptions) -> Eval<Answer> {
        let lim = Limits {
            budget: &opts.budget(),
            max_models: opts.max_models,
            threads: opts.threads,
        };
        let mut caches = self;
        eval::read(&mut caches, c, ask, &lim).1
    }

    /// The least model of `c` under `opts`, memoised on completion.
    fn model_eval(&self, c: CompId, opts: &QueryOptions) -> Eval<Arc<Interpretation>> {
        self.read(c, Ask::Least, opts).map(Answer::into_model)
    }

    /// The least model of the program in `object` under `opts`. Partial
    /// results are sound under-approximations, exactly as in
    /// [`crate::Kb::model_with`].
    pub fn model_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Arc<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        Ok(self.model_eval(c, opts))
    }

    /// Truth of a ground literal in `object`'s least model under
    /// `opts`, as [`crate::Kb::truth_with`] answers it at the same
    /// epoch (an atom unknown to this snapshot's world is `Undefined`).
    pub fn truth_with(
        &self,
        object: &str,
        query: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Truth>, KbError> {
        let c = self.comp(object)?;
        let lit = resolve::ground_literal(&self.world, query)?;
        Ok(self.model_eval(c, opts).map(|m| resolve::truth(&m, lit)))
    }

    /// Answers a (possibly non-ground) query pattern against `object`'s
    /// least model under `opts`, rendered `var=term` in first-occurrence
    /// order and sorted — byte-identical to [`crate::Kb::query_with`] at
    /// the same epoch. A ground pattern yields one empty binding when it
    /// holds.
    pub fn query_with(
        &self,
        object: &str,
        pattern: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<String>>, KbError> {
        let pattern = Pattern::parse(pattern)?;
        let c = self.comp(object)?;
        Ok(self
            .model_eval(c, opts)
            .map(|m| pattern.bindings(&self.world, &m)))
    }

    /// The stable models of the program in `object` under `opts`
    /// (including `max_models`), with [`crate::Kb::stable_with`]'s
    /// partial-result contract.
    pub fn stable_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<Interpretation>>, KbError> {
        let c = self.comp(object)?;
        Ok(self.read(c, Ask::Stable, opts).map(Answer::into_models))
    }

    /// The skeptical consequences in `object` (true in every stable
    /// model) under `opts`. Same over-approximation caveat on partial
    /// results as [`crate::Kb::skeptical_with`].
    pub fn skeptical_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Interpretation>, KbError> {
        let c = self.comp(object)?;
        Ok(self
            .read(c, Ask::Skeptical, opts)
            .map(|a| Arc::unwrap_or_clone(a.into_model())))
    }

    /// The credulous consequences in `object` (true in some stable
    /// model) under `opts`, as a sorted literal list, with
    /// [`crate::Kb::credulous_with`]'s partial-result contract.
    pub fn credulous_with(
        &self,
        object: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<Vec<GLit>>, KbError> {
        let c = self.comp(object)?;
        Ok(self
            .read(c, Ask::Credulous, opts)
            .map(Answer::into_literals))
    }

    /// Explains why `query` holds (a proof tree) or does not (the fate
    /// of every candidate rule) in `object`, under `opts` for the model
    /// computation. An atom never materialised at this epoch gets a
    /// one-line "unknown" explanation instead of a rule-by-rule fate.
    pub fn explain_with(
        &self,
        object: &str,
        query: &str,
        opts: &QueryOptions,
    ) -> Result<Eval<String>, KbError> {
        let c = self.comp(object)?;
        let Some(lit) = resolve::ground_literal(&self.world, query)? else {
            return Ok(Eval::Complete(format!(
                "{query}: unknown at epoch {} (no rule mentions this atom)",
                self.epoch
            )));
        };
        Ok(self.model_eval(c, opts).map(|m| {
            let fv = Caches::flat(&mut &*self, c);
            let why = olp_semantics::explain_in(&fv, &m, lit);
            olp_semantics::render_why(&self.world, &fv, &why)
        }))
    }
}

/// The caches a snapshot lends the evaluation front door: its frozen
/// profiles and the memo maps behind mutexes, which are held only for a
/// probe or an insert, never across evaluation. Every entry is current
/// (the epoch is frozen); there is no stable memo.
impl Caches for &KbSnapshot {
    fn proofs(&mut self, c: CompId) -> Proofs {
        Proofs::of(self.profiles.get(&c).map(Arc::as_ref))
    }

    fn least(&self, c: CompId) -> Cached {
        match self.models.lock().expect("model cache poisoned").get(&c) {
            Some(m) => Cached::Current(m.clone()),
            None => Cached::Absent,
        }
    }

    /// The compiled flat arena for `c`, built at most once per snapshot
    /// (racing readers may both build; the insert is idempotent because
    /// construction is deterministic).
    fn flat(&mut self, c: CompId) -> Arc<FlatView> {
        if let Some(fv) = self.flat.lock().expect("flat cache poisoned").get(&c) {
            return fv.clone();
        }
        let fv = Arc::new(FlatView::new(&self.ground, c));
        self.flat
            .lock()
            .expect("flat cache poisoned")
            .entry(c)
            .or_insert(fv)
            .clone()
    }

    fn store_least(&mut self, c: CompId, model: Arc<Interpretation>) {
        self.models
            .lock()
            .expect("model cache poisoned")
            .entry(c)
            .or_insert(model);
    }
}

#[cfg(test)]
mod tests {
    use crate::kb::{GroundStrategy, KbBuilder, QueryOptions};
    use olp_core::Truth;

    /// The Fig. 1 penguin KB under the default grounder.
    fn penguin_kb() -> crate::Kb {
        crate::kb::tests::penguin_kb(GroundStrategy::Smart)
    }

    #[test]
    fn snapshot_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::KbSnapshot>();
    }

    #[test]
    fn snapshot_answers_match_kb() {
        let mut kb = penguin_kb();
        let snap = kb.snapshot();
        let opts = QueryOptions::new().threads(1);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(
            snap.truth_with("penguin_view", "fly(penguin)", &opts)
                .unwrap()
                .into_value(),
            Truth::False
        );
        assert_eq!(
            snap.query_with("penguin_view", "fly(X)", &opts)
                .unwrap()
                .into_value(),
            kb.query("penguin_view", "fly(X)").unwrap()
        );
        // Ground pattern round-trips the empty-binding convention.
        assert_eq!(
            snap.query_with("penguin_view", "fly(pigeon)", &opts)
                .unwrap()
                .into_value(),
            vec![""]
        );
        // Unknown atoms and predicates answer exactly like the
        // interning path.
        assert_eq!(
            snap.truth_with("bird", "fly(dodo)", &opts)
                .unwrap()
                .into_value(),
            Truth::Undefined
        );
        assert!(snap
            .query_with("bird", "swims(X)", &opts)
            .unwrap()
            .into_value()
            .is_empty());
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut kb = penguin_kb();
        let before = kb.snapshot();
        kb.assert_rule("bird", "bird(sparrow).").unwrap();
        let after = kb.snapshot();
        let opts = QueryOptions::new().threads(1);
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        // The old snapshot still answers at epoch 0: sparrow unknown.
        assert_eq!(
            before
                .truth_with("penguin_view", "fly(sparrow)", &opts)
                .unwrap()
                .into_value(),
            Truth::Undefined
        );
        assert_eq!(
            after
                .truth_with("penguin_view", "fly(sparrow)", &opts)
                .unwrap()
                .into_value(),
            Truth::True
        );
        // And the live KB agrees with the new snapshot.
        assert_eq!(
            kb.truth("penguin_view", "fly(sparrow)").unwrap(),
            Truth::True
        );
    }

    #[test]
    fn snapshot_reads_use_the_frozen_profiles() {
        use crate::eval::{self, Ask, EnginePath, LeastPath, Limits};
        let mut b = KbBuilder::new();
        b.rules("g", "edge(a,b). path(X,Y) :- edge(X,Y).").unwrap();
        let mut kb = b.build(GroundStrategy::Smart).unwrap();
        let path = |snap: &crate::KbSnapshot| {
            let c = snap.comp("g").unwrap();
            let lim = Limits {
                budget: &olp_core::Budget::unlimited(),
                max_models: None,
                threads: 1,
            };
            eval::read(&mut &*snap, c, Ask::Least, &lim).0
        };
        // Without a published profile nothing is proved…
        assert_eq!(path(&kb.snapshot()), EnginePath::Least(LeastPath::Fixpoint));
        // …with one, the negation-free view takes the definite path.
        kb.warm_profiles();
        assert_eq!(
            path(&kb.snapshot()),
            EnginePath::Least(LeastPath::DefiniteFixpoint)
        );
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let kb = penguin_kb();
        let snap = kb.snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let snap = &snap;
                s.spawn(move || {
                    let opts = QueryOptions::new().threads(1);
                    for _ in 0..25 {
                        assert_eq!(
                            snap.truth_with("penguin_view", "fly(penguin)", &opts)
                                .unwrap()
                                .into_value(),
                            Truth::False
                        );
                        assert_eq!(
                            snap.query_with("bird", "fly(X)", &opts)
                                .unwrap()
                                .into_value(),
                            vec!["X=penguin", "X=pigeon"]
                        );
                    }
                });
            }
        });
    }
}

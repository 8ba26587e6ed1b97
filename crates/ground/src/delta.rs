//! The grounder: relevance-restricted, join-based instantiation, run
//! once ([`ground_smart`]) or kept alive across mutations
//! ([`DeltaGrounder`]).
//!
//! ## Why exhaustive grounding is not enough
//!
//! [`crate::ground_exhaustive`] instantiates each rule `|HU|^k` times
//! (`k` = number of variables). Real knowledge bases (the paper's
//! ancestor program over a `parent` relation, scaled taxonomies) need
//! the classical Datalog trick: only instantiate a rule when its body
//! can actually be satisfied, found by *joining* body literals against
//! what is derivable.
//!
//! ## What "derivable" means with negated heads
//!
//! Ordered programs have no negation-as-failure: a body literal `L`
//! (positive **or** negative) is true in an interpretation only if `L`
//! itself was derived by some rule. The **derivability closure** `D` is
//! the least set of signed literals closed under: if every body literal
//! of an instance is in `D` and its comparisons hold, its head is in
//! `D` — ignoring blocking/overruling entirely. `D` over-approximates
//! every *assumption-free* model (each literal of such a model is the
//! head of an applied rule whose body is again in the model, inductively
//! grounding out in facts), so instances whose bodies are not within `D`
//! can never become applicable in the semantics we compute.
//!
//! ## The eternal-attacker construction
//!
//! Overruling and defeating (Def. 2) do **not** require the attacking
//! rule to be applicable — only *non-blocked*. A rule instance is ever
//! *blockable* only if some body literal's complement is derivable; an
//! instance with no such literal is never blocked, so it attacks its
//! head-complement forever (whether or not it can ever fire). Dropping
//! it would be unsound — it could wrongly let a higher rule fire. For
//! every such **eternal attacker** we emit one representative per
//! (head, component): body `[#undef]` where `#undef` is a fresh atom no
//! rule derives or refutes — permanently undefined, hence permanently
//! non-blocked and never applicable, exactly reproducing the attack
//! (any firing potential was already captured by phase 1). Blockable
//! attacker instances are emitted as-is, so the engine can observe
//! their blocking literals precisely.
//!
//! ## Batch-synchronous closure and parallelism
//!
//! The semi-naive closure runs in batches (the private `join` module): phase
//! A joins the whole frontier against a frozen derivability index —
//! read-only, so it fans out over [`GroundConfig::threads`] workers —
//! and phase B commits the matches sequentially in item order. Since
//! batch composition and commit order never depend on the thread
//! count, the ground program (including atom/term interning order) is
//! **bit-identical** for every `threads` value; the emitted instance
//! *set* is additionally invariant under join order, which is what
//! licenses the selectivity planner ([`GroundConfig::plan`]). The
//! attacker phase stays sequential: it is match-only (no joins) and
//! cheap relative to the closure. Its active-domain enumeration runs
//! over a sorted copy of the domain so that the emitted attacker set
//! depends only on the *set* of derivable literals and domain terms —
//! a mutated grounder reaches the same state along a different history
//! and must produce the same phase-2 instances.
//!
//! ## One-shot and persistent grounding
//!
//! [`ground_smart`] runs the closure and the attacker phase once and
//! keeps nothing. [`DeltaGrounder::new`] runs the same passes but also
//! records every phase-1 firing instance with its provenance — the rule
//! that produced it and the domain terms bound to its residual
//! variables — and keeps the closure `D` and the active domain, so that
//! a mutation updates the grounding instead of recomputing it:
//!
//! * **Assert**: the new rule is compiled and registered with the join
//!   drivers, its constants enter the active domain, and a single seed
//!   join runs it against the current `D`. The ordinary semi-naive
//!   closure then propagates: newly derived literals drive old and new
//!   rules alike, and active-domain growth re-runs the domain-dependent
//!   rules. This grounds exactly the asserted rule's instantiations
//!   plus the universe growth they induce.
//! * **Retract**: derivations are *non-monotone* under rule removal, so
//!   the grounder replays the retained instances **propositionally**: an
//!   instance fires iff its (distinct) body literals are all (re)derived
//!   and its recorded residual bindings lie within the rebuilt active
//!   domain. The replay is a counter-based worklist over stored
//!   instances — no joins, no variable matching — linear in the size of
//!   the previous grounding, and computes the exact least fixpoint a
//!   from-scratch grounding reaches (the retained instance store is a
//!   superset of the from-scratch instance set, and admissibility
//!   re-checks exactly the conditions that gated their original
//!   emission).
//!
//! Phase 2 is re-run from the updated `D` on every mutation: attacks
//! depend non-monotonically on derivability in both directions, and the
//! phase is cheap relative to the closure.
//!
//! **Invariant** (tested in this module and fuzzed in
//! `tests/incremental.rs`): after every successful operation, the
//! assembled [`GroundProgram`] is identical to what [`ground_smart`]
//! would produce on the mutated source program. On error (budget
//! exhaustion, instance cap) the internal state is unspecified; callers
//! must discard the grounder and fall back to a full reground.
//!
//! ## Scope
//!
//! The result is sound and complete w.r.t. the exhaustive grounding for
//! the **least model `V^∞(∅)`, assumption-free models, and stable
//! models** restricted to derivable atoms (everything else in the
//! Herbrand base is undefined in those models anyway). Arbitrary models
//! of Def. 3 — which may contain unfounded "assumptions" — are outside
//! its scope; use the exhaustive grounder for those. The equivalence is
//! property-tested in `tests/smart_vs_exhaustive.rs`.

use crate::join::{compile_body, frontier_join, match_lit, BodyPlan, DIndex, Item, Rec, SpendPool};
use crate::program::{GroundProgram, GroundRule};
use crate::universe::{signature, GroundConfig, GroundError};
use olp_core::term::Bindings;
use olp_core::{
    AtomId, Budget, CompId, FxHashMap, FxHashSet, GLit, GTerm, GTermId, Literal, Order,
    OrderedProgram, PredId, Rule, Sign, Sym, Term, World,
};
use std::collections::VecDeque;

/// A rule compiled for joining, with liveness and its own constants.
/// The body literal patterns live in the parallel [`BodyPlan`] vector.
#[derive(Debug)]
struct DRule {
    comp: CompId,
    head: Literal,
    cmps: Vec<olp_core::Cmp>,
    vars: Vec<Sym>,
    /// Variables in no body literal: enumerated over the active domain.
    residual: Vec<Sym>,
    /// Ground constants occurring in the rule text (head and body
    /// literal arguments) — the rule's contribution to the seed domain.
    consts: Vec<GTermId>,
    /// Retracted rules stay registered (indices are stable) but dead.
    alive: bool,
}

/// A phase-1 firing instance with enough provenance to replay it.
#[derive(Debug)]
struct Inst {
    /// Index of the producing rule in [`DeltaGrounder::rules`].
    rule: u32,
    gr: GroundRule,
    /// The ground terms bound to the rule's residual variables at
    /// emission, deduplicated. The instance exists only while all of
    /// them remain in the active domain.
    residual_terms: Box<[GTermId]>,
}

/// Identifier of a registered rule, returned by
/// [`DeltaGrounder::assert_rule`] and consumed by
/// [`DeltaGrounder::retract_rule`].
pub type DeltaRuleId = u32;

/// The grounder's state: compiled rules, the derivability closure `D`
/// and the active domain. [`ground_smart`] runs it once;
/// [`DeltaGrounder::new`] returns it with the provenance that
/// [`DeltaGrounder::assert_rule`] and [`DeltaGrounder::retract_rule`]
/// update. See the module docs for the algorithm.
#[derive(Debug)]
pub struct DeltaGrounder {
    order: Order,
    max_instances: usize,
    /// Same depth bound as the exhaustive grounder: an instance whose
    /// variable bindings exceed it is dropped, which keeps derivations
    /// through function symbols (e.g. `even(s(s(X))) ← even(X)`)
    /// terminating and matches the exhaustive universe bound.
    max_depth: u32,
    rules: Vec<DRule>,
    /// Compiled body plans, indexed like `rules`.
    plans: Vec<BodyPlan>,
    /// Derivability closure, as a set and a positional join index.
    d_set: FxHashSet<GLit>,
    index: DIndex,
    /// Active domain: ground terms occurring in derivable atoms or in
    /// the program text.
    adom: Vec<GTermId>,
    adom_set: FxHashSet<GTermId>,
    queue: VecDeque<GLit>,
    /// `(rule, body position)` join drivers per (pred, sign).
    drivers: FxHashMap<(PredId, Sign), Vec<(usize, usize)>>,
    /// Rules re-run whenever the active domain grows: rules with
    /// residual variables (including non-ground facts).
    adom_dependent: Vec<usize>,
    /// Ground facts not yet seeded. A ground fact has one instance,
    /// whatever the domain, so the closure seeds each exactly once.
    fresh_facts: Vec<usize>,
    /// Whether phase 1 records provenance in `insts` (a persistent
    /// grounder) or emits straight into `out` (a one-shot grounding).
    record: bool,
    /// Recorded phase-1 instances, deduplicated by `seen`.
    insts: Vec<Inst>,
    seen: FxHashSet<(u32, GroundRule)>,
    /// Phase-2 instances of the last pass; in a one-shot grounding also
    /// every phase-1 instance, duplicates included
    /// ([`GroundProgram::new`] removes them).
    out: Vec<GroundRule>,
    /// Per-pass instance/step meter (max_instances + governor), drawn
    /// from concurrently by phase-A workers; rebuilt from the caller's
    /// governor at the start of each mutation.
    pool: SpendPool,
    threads: usize,
    planner: bool,
}

/// Collects the interned constants of a rule's literal arguments
/// (head and body), recursing through compound terms. Mirrors what
/// [`crate::signature`] contributes for this rule.
fn rule_consts(world: &mut World, rule: &Rule) -> Vec<GTermId> {
    fn walk(t: &Term, world: &mut World, out: &mut Vec<GTermId>) {
        match t {
            Term::Var(_) => {}
            Term::Const(c) => {
                let id = world.terms.constant(*c);
                if !out.contains(&id) {
                    out.push(id);
                }
            }
            Term::Int(i) => {
                let id = world.terms.int(*i);
                if !out.contains(&id) {
                    out.push(id);
                }
            }
            Term::App(_, args) => {
                for a in args {
                    walk(a, world, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    for t in &rule.head.args {
        walk(t, world, &mut out);
    }
    for l in rule.body_lits() {
        for t in &l.args {
            walk(t, world, &mut out);
        }
    }
    out
}

/// Advances the mixed-radix counter `idx` (each digit in `0..radix`);
/// returns `false` once it wraps around, so an empty counter yields
/// exactly one tuple.
fn advance(idx: &mut [usize], radix: usize) -> bool {
    for i in idx {
        *i += 1;
        if *i < radix {
            return true;
        }
        *i = 0;
    }
    false
}

/// Grounds an ordered program with the relevance-restricted strategy:
/// one pass of the grounder that records no provenance.
///
/// See the module documentation for the exact scope of equivalence with
/// [`crate::ground_exhaustive`].
pub fn ground_smart(
    world: &mut World,
    prog: &OrderedProgram,
    cfg: &GroundConfig,
) -> Result<GroundProgram, GroundError> {
    let g = DeltaGrounder::run(world, prog, cfg, false)?;
    Ok(GroundProgram::new(g.out, g.order, world.atoms.len()))
}

impl DeltaGrounder {
    /// Grounds `prog` from scratch, recording the provenance later
    /// mutations replay, and returns the grounder together with the
    /// initial [`GroundProgram`] — the one [`ground_smart`] returns.
    pub fn new(
        world: &mut World,
        prog: &OrderedProgram,
        cfg: &GroundConfig,
    ) -> Result<(Self, GroundProgram), GroundError> {
        let g = Self::run(world, prog, cfg, true)?;
        let gp = g.assemble(world);
        Ok((g, gp))
    }

    /// Compiles every rule of `prog` and runs both phases once.
    fn run(
        world: &mut World,
        prog: &OrderedProgram,
        cfg: &GroundConfig,
        record: bool,
    ) -> Result<Self, GroundError> {
        let order = prog.order()?;
        // Interns every constant before any compound body argument:
        // term ids, and through them the domain order, follow this.
        let sig = signature(world, prog);
        let mut g = DeltaGrounder {
            order,
            max_instances: cfg.max_instances,
            max_depth: cfg.max_depth,
            rules: Vec::new(),
            plans: Vec::new(),
            d_set: FxHashSet::default(),
            index: DIndex::default(),
            adom: Vec::new(),
            adom_set: FxHashSet::default(),
            queue: VecDeque::new(),
            drivers: FxHashMap::default(),
            adom_dependent: Vec::new(),
            fresh_facts: Vec::new(),
            record,
            insts: Vec::new(),
            seen: FxHashSet::default(),
            out: Vec::new(),
            pool: SpendPool::new(cfg.max_instances, cfg.budget.clone()),
            threads: cfg.threads.max(1),
            planner: cfg.plan,
        };
        for (comp, rule) in prog.rules() {
            g.register(world, comp, rule);
        }
        // Counting-domain seeds: distinct ground-fact heads per
        // (pred, sign), counted over the program text and handed to the
        // join planner as statistics priors for predicates it has not
        // measured yet (see `DIndex::seed`). Counted structurally so no
        // atoms are interned before grounding proper begins.
        let mut fact_heads: FxHashSet<(PredId, Sign, &[Term])> = FxHashSet::default();
        for (_, rule) in prog.rules() {
            if is_ground_fact(rule) {
                fact_heads.insert((rule.head.pred, rule.head.sign, &rule.head.args));
            }
        }
        for (pred, sign, _) in fact_heads {
            g.index.seed(pred, sign, 1);
        }
        for &c in &sig.constants {
            g.adom_add_term(world, c);
        }
        g.run_closure(world)?;
        g.attackers(world)?;
        Ok(g)
    }

    /// Registers a compiled rule; returns its id. Does not ground it.
    fn register(&mut self, world: &mut World, comp: CompId, rule: &Rule) -> DeltaRuleId {
        let ix = self.rules.len();
        let vars = rule.vars();
        let lits: Vec<Literal> = rule.body_lits().cloned().collect();
        let cmps: Vec<olp_core::Cmp> = rule.body_cmps().cloned().collect();
        let mut body_vars = Vec::new();
        for l in &lits {
            l.collect_vars(&mut body_vars);
        }
        let residual: Vec<Sym> = vars
            .iter()
            .copied()
            .filter(|v| !body_vars.contains(v))
            .collect();
        for (pos, l) in lits.iter().enumerate() {
            self.drivers
                .entry((l.pred, l.sign))
                .or_default()
                .push((ix, pos));
        }
        if !residual.is_empty() {
            self.adom_dependent.push(ix);
        } else if lits.is_empty() {
            self.fresh_facts.push(ix);
        }
        self.plans.push(compile_body(world, &lits));
        self.rules.push(DRule {
            comp,
            head: rule.head.clone(),
            cmps,
            vars,
            residual,
            consts: rule_consts(world, rule),
            alive: true,
        });
        ix as DeltaRuleId
    }

    /// Asserts `rule` into component `comp`: grounds only the new
    /// rule's instantiations plus whatever the derivability closure and
    /// active-domain growth they cause make newly derivable. Returns
    /// the rule's id (for later retraction) and the updated ground
    /// program.
    ///
    /// On `Err` the grounder's state is unspecified: discard it.
    pub fn assert_rule(
        &mut self,
        world: &mut World,
        comp: CompId,
        rule: &Rule,
        gov: &Budget,
    ) -> Result<(DeltaRuleId, GroundProgram), GroundError> {
        self.begin_mutation(gov);
        let id = self.register(world, comp, rule);
        // A ground fact bumps the planner's statistics prior for its
        // (pred, sign) (re-asserting the same fact bumps it again —
        // seeds are priors, not exact counts, and are superseded by
        // measured statistics anyway).
        if is_ground_fact(rule) {
            self.index.seed(rule.head.pred, rule.head.sign, 1);
        }
        let cs = self.rules[id as usize].consts.clone();
        for c in cs {
            self.adom_add_term(world, c);
        }
        // Seed join: instances of the new rule whose bodies are already
        // within `D` (later derivations drive it via `drivers`). This
        // seeds a new ground fact, so the closure does not seed it again.
        self.fresh_facts.retain(|&r| r != id as usize);
        self.run_batch(world, &[Item::Seed { rule: id as usize }])?;
        self.run_closure(world)?;
        self.attackers(world)?;
        Ok((id, self.assemble(world)))
    }

    /// Retracts a previously registered rule and replays the retained
    /// instances to the exact from-scratch fixpoint (see module docs).
    ///
    /// On `Err` the grounder's state is unspecified: discard it.
    pub fn retract_rule(
        &mut self,
        world: &mut World,
        id: DeltaRuleId,
        gov: &Budget,
    ) -> Result<GroundProgram, GroundError> {
        self.begin_mutation(gov);
        self.rules[id as usize].alive = false;
        self.replay(world)?;
        self.attackers(world)?;
        Ok(self.assemble(world))
    }

    /// Starts a mutation pass: a fresh meter under `gov`, and phase 2
    /// to be rebuilt from scratch.
    fn begin_mutation(&mut self, gov: &Budget) {
        self.pool = SpendPool::new(self.max_instances, gov.clone());
        self.out.clear();
    }

    fn adom_add_term(&mut self, world: &World, t: GTermId) {
        if self.adom_set.insert(t) {
            self.adom.push(t);
            if let GTerm::Func(_, args) = world.terms.get(t).clone() {
                for a in &args {
                    self.adom_add_term(world, *a);
                }
            }
        }
    }

    fn d_add(&mut self, world: &World, l: GLit) {
        if self.d_set.insert(l) {
            self.index.add(world, l);
            let args = world.atoms.get(l.atom()).args.clone();
            for &t in &args {
                self.adom_add_term(world, t);
            }
            self.queue.push_back(l);
        }
    }

    fn intern_lit(world: &mut World, lit: &Literal, b: &Bindings) -> GLit {
        let mut args = Vec::with_capacity(lit.args.len());
        for t in &lit.args {
            args.push(
                t.intern(&mut world.terms, b)
                    .expect("variables bound at emission"),
            );
        }
        GLit::new(lit.sign, world.atoms.intern(lit.pred, &args))
    }

    /// Commits one phase-A match: enumerates residual variables over
    /// the active domain and emits each completed instance.
    fn commit(&mut self, world: &mut World, rec: Rec) -> Result<(), GroundError> {
        let Rec { rule, mut b, body } = rec;
        let residual: Vec<Sym> = self.rules[rule]
            .residual
            .iter()
            .copied()
            .filter(|v| !b.contains_key(v))
            .collect();
        if residual.is_empty() {
            return self.emit(world, rule, &b, &body);
        }
        let adom = self.adom.clone();
        if adom.is_empty() {
            return Ok(());
        }
        let mut idx = vec![0usize; residual.len()];
        loop {
            for (v, &i) in residual.iter().zip(idx.iter()) {
                b.insert(*v, adom[i]);
            }
            self.emit(world, rule, &b, &body)?;
            if !advance(&mut idx, adom.len()) {
                return Ok(());
            }
        }
    }

    /// Emits one instance: the body ground literals are the candidates
    /// the join matched (pattern interned under `b` = matched atom), so
    /// only the head needs interning here.
    fn emit(
        &mut self,
        world: &mut World,
        rule_ix: usize,
        b: &Bindings,
        body: &[GLit],
    ) -> Result<(), GroundError> {
        self.pool.spend(1)?;
        if b.values().any(|&t| world.terms.depth(t) > self.max_depth) {
            return Ok(());
        }
        let rule = &self.rules[rule_ix];
        for cmp in &rule.cmps {
            match cmp.eval(&world.terms, b) {
                Ok(true) => {}
                Ok(false) | Err(_) => return Ok(()),
            }
        }
        let head = Self::intern_lit(world, &rule.head, b);
        let gr = GroundRule::new(head, body.to_vec(), rule.comp);
        self.d_add(world, head);
        if !self.record {
            self.out.push(gr);
        } else if self.seen.insert((rule_ix as u32, gr.clone())) {
            let mut residual_terms: Vec<GTermId> = self.rules[rule_ix]
                .residual
                .iter()
                .filter_map(|v| b.get(v).copied())
                .collect();
            residual_terms.sort_unstable();
            residual_terms.dedup();
            self.insts.push(Inst {
                rule: rule_ix as u32,
                gr,
                residual_terms: residual_terms.into_boxed_slice(),
            });
        }
        Ok(())
    }

    /// One batch: phase-A join (parallel) + phase-B commit (in order).
    fn run_batch(&mut self, world: &mut World, items: &[Item]) -> Result<(), GroundError> {
        let recs = frontier_join(
            world,
            &self.plans,
            &self.index,
            items,
            self.threads,
            self.planner,
            &self.pool,
        )?;
        for per_item in recs {
            for rec in per_item {
                self.commit(world, rec)?;
            }
        }
        Ok(())
    }

    /// Phase 1: the derivability closure and its firing instances, as
    /// a batch-synchronous semi-naive loop that drains the derivation
    /// queue batchwise and re-runs the active-domain-dependent rules
    /// (rules with residual variables) whenever the domain has grown.
    /// Ground facts not yet seeded join the first such batch, in
    /// registration order with the others, and are never seeded again.
    /// A recording grounder deduplicates emissions against `seen`, so
    /// re-running is idempotent.
    fn run_closure(&mut self, world: &mut World) -> Result<(), GroundError> {
        let mut last_adom = usize::MAX;
        let mut items: Vec<Item> = Vec::new();
        loop {
            items.clear();
            if self.adom.len() != last_adom {
                last_adom = self.adom.len();
                let mut seeds = std::mem::take(&mut self.fresh_facts);
                if seeds.is_empty() {
                    seeds.extend_from_slice(&self.adom_dependent);
                } else {
                    seeds.extend_from_slice(&self.adom_dependent);
                    seeds.sort_unstable();
                }
                items.extend(
                    seeds
                        .into_iter()
                        .filter(|&r| self.rules[r].alive)
                        .map(|rule| Item::Seed { rule }),
                );
            } else if !self.queue.is_empty() {
                while let Some(l) = self.queue.pop_front() {
                    let pred = world.atoms.get(l.atom()).pred;
                    if let Some(driven) = self.drivers.get(&(pred, l.sign())) {
                        items.extend(
                            driven
                                .iter()
                                .filter(|&&(rule, _)| self.rules[rule].alive)
                                .map(|&(rule, pos)| Item::Drive { lit: l, rule, pos }),
                        );
                    }
                }
            } else {
                return Ok(());
            }
            if items.is_empty() {
                continue; // domain grew but nothing depends on it
            }
            let batch = std::mem::take(&mut items);
            self.run_batch(world, &batch)?;
            items = batch;
        }
    }

    /// Propositional replay after a retraction: rebuilds `D`, the
    /// active domain, and the instance store from the retained
    /// instances alone, by a counter-based worklist. An instance fires
    /// iff all its body literals are (re)derived and all its recorded
    /// residual terms are (re)admitted to the domain; firing derives
    /// its head, which admits the head's terms.
    fn replay(&mut self, world: &mut World) -> Result<(), GroundError> {
        let cands: Vec<Inst> = std::mem::take(&mut self.insts)
            .into_iter()
            .filter(|i| self.rules[i.rule as usize].alive)
            .collect();
        self.d_set.clear();
        self.index.clear();
        self.adom.clear();
        self.adom_set.clear();
        self.queue.clear();
        self.seen.clear();
        for ix in 0..self.rules.len() {
            if !self.rules[ix].alive {
                continue;
            }
            let cs = self.rules[ix].consts.clone();
            for c in cs {
                self.adom_add_term(world, c);
            }
        }
        let mut waiters_lit: FxHashMap<GLit, Vec<usize>> = FxHashMap::default();
        let mut waiters_term: FxHashMap<GTermId, Vec<usize>> = FxHashMap::default();
        // Per candidate: (#body literals not yet derived, #residual
        // terms not yet in the domain). Bodies are already distinct
        // (canonicalised); residual terms are deduplicated at emission.
        let mut missing: Vec<(usize, usize)> = Vec::with_capacity(cands.len());
        let mut fired = vec![false; cands.len()];
        let mut ready: Vec<usize> = Vec::new();
        for (i, inst) in cands.iter().enumerate() {
            self.pool.spend(1)?;
            for &l in &inst.gr.body {
                waiters_lit.entry(l).or_default().push(i);
            }
            for &t in &inst.residual_terms {
                waiters_term.entry(t).or_default().push(i);
            }
            missing.push((inst.gr.body.len(), inst.residual_terms.len()));
            if inst.gr.body.is_empty() && inst.residual_terms.is_empty() {
                ready.push(i);
            }
        }
        // The seed-domain terms admitted above are processed through
        // the same cursor as replay-time admissions.
        let mut adom_cursor = 0usize;
        loop {
            if adom_cursor < self.adom.len() {
                let t = self.adom[adom_cursor];
                adom_cursor += 1;
                if let Some(ws) = waiters_term.get(&t) {
                    for &i in ws {
                        missing[i].1 -= 1;
                        if missing[i] == (0, 0) {
                            ready.push(i);
                        }
                    }
                }
                continue;
            }
            if let Some(l) = self.queue.pop_front() {
                if let Some(ws) = waiters_lit.get(&l) {
                    for &i in ws {
                        missing[i].0 -= 1;
                        if missing[i] == (0, 0) {
                            ready.push(i);
                        }
                    }
                }
                continue;
            }
            match ready.pop() {
                Some(i) => {
                    if !fired[i] {
                        fired[i] = true;
                        self.d_add(world, cands[i].gr.head);
                    }
                }
                None => break,
            }
        }
        for (i, inst) in cands.into_iter().enumerate() {
            if fired[i] {
                self.seen.insert((inst.rule, inst.gr.clone()));
                self.insts.push(inst);
            }
        }
        Ok(())
    }

    /// Phase 2: attacker instances (real + eternal representatives),
    /// appended to `out`. Blockable instances are kept precise; eternal
    /// attackers collapse to one sentinel-bodied representative per
    /// (victim, component). Sequential (it interns new atoms); the
    /// domain enumeration runs over a sorted copy so the result depends
    /// only on the derivable *set* (see the module docs).
    fn attackers(&mut self, world: &mut World) -> Result<(), GroundError> {
        let mut sentinel: Option<GLit> = None;
        let mut eternal_seen: FxHashSet<(GLit, CompId)> = FxHashSet::default();
        let mut adom = self.adom.clone();
        adom.sort_unstable();

        for (rule, plan) in self.rules.iter().zip(&self.plans) {
            if !rule.alive {
                continue;
            }
            let head = &rule.head;
            // Victims are derivable literals whose complement this head
            // can become: same predicate, opposite sign. Fast path for
            // ground heads (facts, ground rules): the only possible
            // victim is the head's own atom — scanning every derivable
            // complement and rejecting all but one match would make
            // fact-heavy programs quadratic.
            let victims: Vec<AtomId> = if head.is_ground() {
                let atom = Self::intern_lit(world, head, &Bindings::default()).atom();
                if self.d_set.contains(&GLit::new(head.sign.flip(), atom)) {
                    vec![atom]
                } else {
                    Vec::new()
                }
            } else {
                self.index.candidates(head.pred, head.sign.flip()).to_vec()
            };
            'victims: for victim in victims {
                let mut b = Bindings::default();
                if !match_lit(world, head, victim, &mut b) {
                    continue;
                }
                // Enumerate all remaining variables over the active
                // domain; classify each instance.
                let free: Vec<Sym> = rule
                    .vars
                    .iter()
                    .copied()
                    .filter(|v| !b.contains_key(v))
                    .collect();
                if !free.is_empty() && adom.is_empty() {
                    continue;
                }
                let mut idx = vec![0usize; free.len()];
                loop {
                    for (v, &i) in free.iter().zip(idx.iter()) {
                        b.insert(*v, adom[i]);
                    }
                    self.pool.spend(1)?;
                    // Comparisons must hold (and bindings must respect
                    // the depth bound) for the instance to exist.
                    let cmps_ok = rule
                        .cmps
                        .iter()
                        .all(|c| matches!(c.eval(&world.terms, &b), Ok(true)))
                        && !b.values().any(|&t| world.terms.depth(t) > self.max_depth);
                    if cmps_ok {
                        // Classify. The instance can ever be *blocked*
                        // iff some body literal's complement is
                        // derivable. Blockable instances must be kept
                        // precise; an unblockable one is an **eternal
                        // attacker** — it suppresses this victim in
                        // every interpretation within scope — so a
                        // single sentinel-bodied representative
                        // suffices (its potential firings were already
                        // emitted by phase 1).
                        let mut body = Vec::with_capacity(plan.lits.len());
                        let mut blockable = false;
                        let mut body_derivable = true;
                        for jl in &plan.lits {
                            let gl = Self::intern_lit(world, &jl.lit, &b);
                            if self.d_set.contains(&gl.complement()) {
                                blockable = true;
                            }
                            if !self.d_set.contains(&gl) {
                                body_derivable = false;
                            }
                            body.push(gl);
                        }
                        // The victim match binds every head variable, so
                        // the instance head is exactly the complement of
                        // the victim literal: same atom, the rule head's
                        // sign.
                        let head_glit = GLit::new(head.sign, victim);
                        if blockable {
                            self.out.push(GroundRule::new(head_glit, body, rule.comp));
                        } else if body_derivable {
                            // Unblockable *and* fully derivable: the
                            // phase-1 firing instance is already present
                            // and is itself a permanently non-blocked
                            // attacker — nothing to add, and it
                            // dominates every other instance against
                            // this victim.
                            continue 'victims;
                        } else {
                            if eternal_seen.insert((head_glit, rule.comp)) {
                                let s = *sentinel.get_or_insert_with(|| {
                                    GLit::pos(world.ground_atom("#undef", &[]))
                                });
                                self.out
                                    .push(GroundRule::new(head_glit, vec![s], rule.comp));
                            }
                            // An eternal attacker dominates every other
                            // instance of this rule against this victim.
                            continue 'victims;
                        }
                    }
                    if !advance(&mut idx, adom.len()) {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Assembles the recorded state into a canonical [`GroundProgram`].
    fn assemble(&self, world: &World) -> GroundProgram {
        let mut rules: Vec<GroundRule> = Vec::with_capacity(self.insts.len() + self.out.len());
        rules.extend(self.insts.iter().map(|i| i.gr.clone()));
        rules.extend(self.out.iter().cloned());
        GroundProgram::new(rules, self.order.clone(), world.atoms.len())
    }
}

/// Whether `rule` is a ground fact: a ground head with an empty body.
fn is_ground_fact(rule: &Rule) -> bool {
    rule.head.is_ground() && rule.body.is_empty()
}

/// The exact rule-level difference between two ground programs — what a
/// mutation through [`DeltaGrounder`] actually changed, expressed as
/// instance ids per program.
///
/// [`GroundProgram::new`] canonicalises `rules`: sorted by
/// `(comp, head, body)` and deduplicated. The programs before and after
/// a mutation are therefore two sorted sequences over the same key, and
/// the difference falls out of a single linear merge — no hashing, no
/// cloning. Retained rules keep their relative order on both sides,
/// which is what lets `FlatView::apply_delta` splice arenas instead of
/// rebuilding them.
#[derive(Debug, Clone, Default)]
pub struct GroundDelta {
    /// Indices into the *new* program's rules absent from the old one.
    pub added: Vec<u32>,
    /// Indices into the *old* program's rules absent from the new one.
    pub removed: Vec<u32>,
}

impl GroundDelta {
    /// Computes the delta between two canonicalised ground programs by
    /// one sorted merge over `(comp, head, body)`.
    pub fn between(old: &GroundProgram, new: &GroundProgram) -> Self {
        use std::cmp::Ordering;
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.rules.len() && j < new.rules.len() {
            let a = &old.rules[i];
            let b = &new.rules[j];
            match (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)) {
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Less => {
                    removed.push(i as u32);
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(j as u32);
                    j += 1;
                }
            }
        }
        while i < old.rules.len() {
            removed.push(i as u32);
            i += 1;
        }
        while j < new.rules.len() {
            added.push(j as u32);
            j += 1;
        }
        GroundDelta { added, removed }
    }

    /// Whether the two programs have identical rule sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Sorted, deduplicated indices of every atom occurring in a
    /// changed rule (head or body) — the seed set for dirty-stratum
    /// revalidation.
    pub fn touched_atoms(&self, old: &GroundProgram, new: &GroundProgram) -> Vec<usize> {
        let mut touched = Vec::new();
        {
            let mut note = |r: &GroundRule| {
                touched.push(r.head.atom().index());
                for &b in &r.body {
                    touched.push(b.atom().index());
                }
            };
            for &i in &self.removed {
                note(&old.rules[i as usize]);
            }
            for &j in &self.added {
                note(&new.rules[j as usize]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Restricts the delta to the view of component `c`: the added
    /// indices (into the new program) and removed indices (into the
    /// old) whose rules are visible from `c` per [`Order::in_view`].
    pub fn for_view(
        &self,
        old: &GroundProgram,
        new: &GroundProgram,
        c: CompId,
    ) -> (Vec<u32>, Vec<u32>) {
        let added = self
            .added
            .iter()
            .copied()
            .filter(|&j| new.order.in_view(c, new.rules[j as usize].comp))
            .collect();
        let removed = self
            .removed
            .iter()
            .copied()
            .filter(|&i| old.order.in_view(c, old.rules[i as usize].comp))
            .collect();
        (added, removed)
    }

    /// Whether any changed rule is visible from component `c` — the
    /// per-`CompId` invalidation test for cached arenas and models.
    pub fn affects_view(&self, old: &GroundProgram, new: &GroundProgram, c: CompId) -> bool {
        self.added
            .iter()
            .any(|&j| new.order.in_view(c, new.rules[j as usize].comp))
            || self
                .removed
                .iter()
                .any(|&i| old.order.in_view(c, old.rules[i as usize].comp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ground_exhaustive;
    use olp_parser::{parse_ground_literal, parse_program, parse_rule};

    fn smart(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    #[test]
    fn facts_and_joins() {
        let (mut w, g) = smart(
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let ac = parse_ground_literal(&mut w, "anc(a,c)").unwrap();
        assert!(g.rules.iter().any(|r| r.head == ac));
        // No instance for anc(c, a): not derivable.
        let ca = parse_ground_literal(&mut w, "anc(c,a)").unwrap();
        assert!(!g.rules.iter().any(|r| r.head == ca));
    }

    #[test]
    fn smart_is_smaller_than_exhaustive_on_ancestor() {
        let src = "parent(a,b). parent(b,c). parent(c,d).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).";
        let mut w1 = World::new();
        let p1 = parse_program(&mut w1, src).unwrap();
        let ge = ground_exhaustive(&mut w1, &p1, &GroundConfig::default()).unwrap();
        let (_, gs) = smart(src);
        assert!(
            gs.len() < ge.len(),
            "smart {} < exhaustive {}",
            gs.len(),
            ge.len()
        );
    }

    #[test]
    fn negative_literals_join_too() {
        // -q(a) is derivable; p(a) should fire through the negative
        // body literal.
        let (mut w, g) = smart("-q(a). p(X) :- -q(X).");
        let pa = parse_ground_literal(&mut w, "p(a)").unwrap();
        assert!(g.rules.iter().any(|r| r.head == pa));
    }

    #[test]
    fn eternal_attacker_emitted_for_underivable_body() {
        // `a.` in upper c2; `-a :- b.` in lower c1 where b is never
        // derivable: the attack must survive grounding (a is then never
        // derivable in c1's view — checked at the semantics level; here
        // we check the instance exists with the sentinel body).
        let (w, g) = smart(
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
        );
        let eternal = g
            .rules
            .iter()
            .find(|r| !r.head.is_pos() && r.body.len() == 1)
            .expect("eternal attacker present");
        assert_eq!(w.atom_str(eternal.body[0].atom()), "#undef");
    }

    #[test]
    fn blockable_attacker_kept_precise() {
        // -b is derivable (via `-b :- a`), so the attacker `-a :- b`
        // can be blocked and must be emitted with its real body; no
        // sentinel collapse.
        let (mut w, g) = smart(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. }",
        );
        let b_lit = parse_ground_literal(&mut w, "b").unwrap();
        assert!(g
            .rules
            .iter()
            .any(|r| !r.head.is_pos() && r.body.as_ref() == [b_lit]));
        assert!(w.syms.get("#undef").is_none());
    }

    #[test]
    fn unblockable_derivable_attacker_needs_no_sentinel() {
        // `-a :- b` with b derivable but -b NOT derivable: the attacker
        // is unblockable, but its phase-1 firing instance is already a
        // permanently non-blocked attacker — no sentinel is emitted.
        let (mut w, g) = smart(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. }",
        );
        let b_lit = parse_ground_literal(&mut w, "b").unwrap();
        let na = parse_ground_literal(&mut w, "-a").unwrap();
        assert!(g
            .rules
            .iter()
            .any(|r| r.head == na && r.body.as_ref() == [b_lit]));
        assert!(w.syms.get("#undef").is_none());
    }

    #[test]
    fn cwa_style_nonground_facts_instantiate_over_adom() {
        let (_, g) = smart("q(a). q(b). -p(X).");
        assert_eq!(
            g.rules.iter().filter(|r| !r.head.is_pos()).count(),
            2,
            "-p(a) and -p(b)"
        );
    }

    #[test]
    fn comparisons_respected() {
        let (mut w, g) = smart("inflation(12). take_loan :- inflation(X), X > 11.");
        let tl = parse_ground_literal(&mut w, "take_loan").unwrap();
        assert!(g.rules.iter().any(|r| r.head == tl));
        let (mut w2, g2) = smart("inflation(10). take_loan :- inflation(X), X > 11.");
        let tl2 = parse_ground_literal(&mut w2, "take_loan").unwrap();
        assert!(!g2.rules.iter().any(|r| r.head == tl2));
    }

    #[test]
    fn budget_enforced() {
        let mut w = World::new();
        let p = parse_program(&mut w, "p(a). p(b). p(c). q(X,Y,Z) :- p(X), p(Y), p(Z).").unwrap();
        let cfg = GroundConfig {
            max_instances: 5,
            ..Default::default()
        };
        assert!(matches!(
            ground_smart(&mut w, &p, &cfg),
            Err(GroundError::TooManyInstances(5))
        ));
    }

    #[test]
    fn function_symbols_through_derivation_terminate_at_depth_bound() {
        // Recursion through a function symbol: the closure grows the
        // active domain with derived terms and is cut off by the same
        // depth bound the exhaustive grounder uses (default 2), so the
        // fixpoint terminates instead of unfolding s(s(…)) forever.
        let (mut w, g) = smart("even(zero). even(s(s(X))) :- even(X).");
        let e2 = parse_ground_literal(&mut w, "even(s(s(zero)))").unwrap();
        assert!(g.rules.iter().any(|r| r.head == e2));
        // Depth 4 heads exist (binding X = s(s(zero)) has depth 2, at
        // the bound); depth 6 heads do not (X would need depth 4).
        let e4 = parse_ground_literal(&mut w, "even(s(s(s(s(zero)))))").unwrap();
        assert!(g.rules.iter().any(|r| r.head == e4));
        let e6 = parse_ground_literal(&mut w, "even(s(s(s(s(s(s(zero)))))))").unwrap();
        assert!(!g.rules.iter().any(|r| r.head == e6));
    }

    #[test]
    fn thread_counts_give_bitwise_identical_programs() {
        let src = "parent(a,b). parent(b,c). parent(c,d). parent(d,e).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).
             module low < main { -anc(X,X) :- anc(X,Y). }";
        let ground_at = |threads: usize| {
            let mut w = World::new();
            let p = parse_program(&mut w, src).unwrap();
            let cfg = GroundConfig {
                threads,
                ..Default::default()
            };
            let g = ground_smart(&mut w, &p, &cfg).unwrap();
            let rendered = g.render(&w);
            (g, rendered)
        };
        let (g1, r1) = ground_at(1);
        for t in [2, 8] {
            let (gt, rt) = ground_at(t);
            assert_eq!(g1.rules, gt.rules, "threads=1 vs threads={t} instances");
            assert_eq!(r1, rt, "threads=1 vs threads={t} rendering");
        }
    }

    #[test]
    fn planner_off_gives_same_instance_set() {
        let src = "parent(a,b). parent(b,c). parent(c,d).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).
             q(a). q(b). -p(X).";
        let ground_with = |plan: bool| {
            let mut w = World::new();
            let p = parse_program(&mut w, src).unwrap();
            let cfg = GroundConfig {
                plan,
                ..Default::default()
            };
            let g = ground_smart(&mut w, &p, &cfg).unwrap();
            let rendered = g.render(&w);
            let mut lines: Vec<String> = rendered.lines().map(str::to_owned).collect();
            lines.sort();
            lines
        };
        assert_eq!(ground_with(true), ground_with(false));
    }

    /// Asserts that `gp` equals a from-scratch smart grounding of
    /// `prog` (rendered, so differences print usefully).
    fn assert_matches_scratch(world: &mut World, prog: &OrderedProgram, gp: &GroundProgram) {
        let scratch = ground_smart(world, prog, &GroundConfig::default()).unwrap();
        assert_eq!(
            gp.render(world),
            scratch.render(world),
            "delta grounding diverged from scratch"
        );
    }

    fn setup(src: &str) -> (World, OrderedProgram, DeltaGrounder, GroundProgram) {
        let mut w = World::new();
        let p = parse_program(&mut w, src).unwrap();
        let (g, gp) = DeltaGrounder::new(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, p, g, gp)
    }

    #[test]
    fn initial_grounding_matches_ground_smart() {
        for src in [
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
            "q(a). q(b). -p(X).",
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. }",
            "inflation(12). take_loan :- inflation(X), X > 11.",
            "even(zero). even(s(s(X))) :- even(X).",
        ] {
            let (mut w, p, _, gp) = setup(src);
            assert_matches_scratch(&mut w, &p, &gp);
        }
    }

    #[test]
    fn assert_fact_grounds_incrementally_and_exactly() {
        let (mut w, mut p, mut g, _) = setup(
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let r = parse_rule(&mut w, "parent(c,d).").unwrap();
        let (_, gp) = g.assert_rule(&mut w, c, &r, &Budget::unlimited()).unwrap();
        p.add_rule(c, r);
        // The new edge extends the transitive closure: anc(a,d) etc.
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn assert_rule_with_residual_and_fresh_constant() {
        // Asserting a CWA-style non-ground fact instantiates it over
        // the whole active domain; asserting a fact with a fresh
        // constant afterwards must extend those instantiations.
        let (mut w, mut p, mut g, _) = setup("q(a). q(b).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let cwa = parse_rule(&mut w, "-p(X).").unwrap();
        let (_, gp) = g
            .assert_rule(&mut w, c, &cwa, &Budget::unlimited())
            .unwrap();
        p.add_rule(c, cwa);
        assert_matches_scratch(&mut w, &p, &gp);
        let fresh = parse_rule(&mut w, "q(c).").unwrap();
        let (_, gp) = g
            .assert_rule(&mut w, c, &fresh, &Budget::unlimited())
            .unwrap();
        p.add_rule(c, fresh);
        assert_matches_scratch(&mut w, &p, &gp); // -p(c) now instantiated
    }

    #[test]
    fn retract_replays_to_scratch_fixpoint() {
        let (mut w, mut p, mut g, _) = setup(
            "parent(a,b). parent(b,c). parent(c,d).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        );
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        // parent(b,c) is rule index 1 in registration order.
        let gp = g.retract_rule(&mut w, 1, &Budget::unlimited()).unwrap();
        p.components[c.index()].rules.remove(1);
        // The chain is broken: anc(a,c), anc(a,d), anc(b,*) vanish.
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn retract_shrinks_cwa_instantiations() {
        // Retracting the only rule mentioning constant `b` must remove
        // -p(b): a stale active domain would unsoundly keep it.
        let (mut w, mut p, mut g, _) = setup("q(a). q(b). -p(X).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let gp = g.retract_rule(&mut w, 1, &Budget::unlimited()).unwrap();
        p.components[c.index()].rules.remove(1);
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn assert_retract_roundtrip_restores_grounding() {
        let (mut w, p, mut g, gp0) = setup(
            "module c2 { a. b. }
             module c1 < c2 { -a :- b. -b :- a. }",
        );
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let r = parse_rule(&mut w, "c :- a.").unwrap();
        let (id, _) = g.assert_rule(&mut w, c2, &r, &Budget::unlimited()).unwrap();
        let gp = g.retract_rule(&mut w, id, &Budget::unlimited()).unwrap();
        assert_eq!(gp.render(&w), gp0.render(&w));
    }

    #[test]
    fn attacker_classification_tracks_mutations() {
        // Initially `-a :- b.` has an underivable body → eternal
        // sentinel. Asserting `b.` makes the body derivable → the
        // sentinel disappears in favour of the phase-1 instance.
        let (mut w, mut p, mut g, gp0) = setup(
            "module c2 { a. }
             module c1 < c2 { -a :- b. }",
        );
        assert!(gp0
            .rules
            .iter()
            .any(|r| r.body.len() == 1 && w.atom_str(r.body[0].atom()) == "#undef"));
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let b = parse_rule(&mut w, "b.").unwrap();
        let (_, gp) = g.assert_rule(&mut w, c2, &b, &Budget::unlimited()).unwrap();
        p.add_rule(c2, b);
        assert_matches_scratch(&mut w, &p, &gp);
        assert!(!gp
            .rules
            .iter()
            .any(|r| r.body.len() == 1 && w.atom_str(r.body[0].atom()) == "#undef"));
    }

    #[test]
    fn budget_trips_on_oversized_assert() {
        let (mut w, p, mut g, _) = setup("p(a). p(b). p(c).");
        let c = p.component_by_name(w.syms.intern("main")).unwrap();
        let big = parse_rule(&mut w, "q(X,Y,Z) :- p(X), p(Y), p(Z).").unwrap();
        let gov = Budget::limited(Some(5), None);
        assert!(matches!(
            g.assert_rule(&mut w, c, &big, &gov),
            Err(GroundError::Interrupted(_))
        ));
    }

    #[test]
    fn random_mutation_sequence_stays_exact() {
        // A scripted assert/retract sequence over a mixed program; the
        // fuzz suite (tests/incremental.rs) does this at scale.
        let (mut w, mut p, mut g, _) = setup(
            "module c2 { bird(tweety). fly(X) :- bird(X). }
             module c1 < c2 { penguin(opus). -fly(X) :- penguin(X). }",
        );
        let c1 = p.component_by_name(w.syms.intern("c1")).unwrap();
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let mut ids = Vec::new();
        for (comp, src) in [
            (c2, "bird(opus)."),
            (c1, "penguin(tweety)."),
            (c2, "sings(X) :- bird(X), fly(X)."),
        ] {
            let r = parse_rule(&mut w, src).unwrap();
            let (id, gp) = g
                .assert_rule(&mut w, comp, &r, &Budget::unlimited())
                .unwrap();
            p.add_rule(comp, r);
            ids.push((comp, id));
            assert_matches_scratch(&mut w, &p, &gp);
        }
        // Retract the middle assertion (penguin(tweety), first rule
        // appended to c1 → source index 2 in that component).
        let (comp, id) = ids[1];
        let gp = g.retract_rule(&mut w, id, &Budget::unlimited()).unwrap();
        let n = p.components[comp.index()].rules.len();
        p.components[comp.index()].rules.remove(n - 1);
        assert_matches_scratch(&mut w, &p, &gp);
    }

    #[test]
    fn ground_delta_is_exact_and_view_filtered() {
        let (mut w, mut p, mut g, gp0) = setup(
            "module c2 { bird(tweety). fly(X) :- bird(X). }
             module c1 < c2 { penguin(opus). }",
        );
        let c1 = p.component_by_name(w.syms.intern("c1")).unwrap();
        let c2 = p.component_by_name(w.syms.intern("c2")).unwrap();
        let r = parse_rule(&mut w, "bird(opus).").unwrap();
        let (_, gp1) = g.assert_rule(&mut w, c2, &r, &Budget::unlimited()).unwrap();
        p.add_rule(c2, r);
        let d = GroundDelta::between(&gp0, &gp1);
        assert!(!d.is_empty());
        assert!(d.removed.is_empty(), "a pure assert removes nothing");
        // Every reported index points at a rule absent from the other
        // side, and retained rules are exactly the intersection.
        assert_eq!(gp0.len() + d.added.len(), gp1.len());
        for &j in &d.added {
            assert!(!gp0.rules.contains(&gp1.rules[j as usize]));
        }
        // Atoms of the changed rules (bird(opus), fly(opus)) are
        // touched; the untouched base atoms are not.
        let touched = d.touched_atoms(&gp0, &gp1);
        for &j in &d.added {
            let r = &gp1.rules[j as usize];
            assert!(touched.contains(&r.head.atom().index()));
        }
        // The changed rules live in c2, so both views (c1 sees c2's
        // rules through the order) are affected.
        assert!(d.affects_view(&gp0, &gp1, c1));
        assert!(d.affects_view(&gp0, &gp1, c2));
        let (a1, r1) = d.for_view(&gp0, &gp1, c1);
        let (a2, r2) = d.for_view(&gp0, &gp1, c2);
        assert!(r1.is_empty() && r2.is_empty());
        assert_eq!(a1, d.added, "c1's view includes all of c2's rules");
        assert_eq!(a2, d.added);
        // A no-op delta is empty.
        assert!(GroundDelta::between(&gp1, &gp1).is_empty());
    }

    #[test]
    fn parallel_delta_matches_sequential_delta() {
        // Same mutation sequence at threads=1 and threads=4 in separate
        // worlds: identical instance sets after every step.
        let run = |threads: usize| {
            let mut w = World::new();
            let p = parse_program(
                &mut w,
                "parent(a,b). parent(b,c).
                 anc(X,Y) :- parent(X,Y).
                 anc(X,Y) :- parent(X,Z), anc(Z,Y).",
            )
            .unwrap();
            let cfg = GroundConfig {
                threads,
                ..Default::default()
            };
            let (mut g, _) = DeltaGrounder::new(&mut w, &p, &cfg).unwrap();
            let c = p.component_by_name(w.syms.intern("main")).unwrap();
            let mut renders = Vec::new();
            for src in ["parent(c,d).", "parent(d,e).", "anc2(X,Y) :- anc(X,Y)."] {
                let r = parse_rule(&mut w, src).unwrap();
                let (_, gp) = g.assert_rule(&mut w, c, &r, &Budget::unlimited()).unwrap();
                renders.push(gp.render(&w));
            }
            let gp = g.retract_rule(&mut w, 0, &Budget::unlimited()).unwrap();
            renders.push(gp.render(&w));
            renders
        };
        assert_eq!(run(1), run(4));
    }
}

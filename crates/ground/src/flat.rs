//! The compiled component view: `ground(C*)` as one flat,
//! stratum-sorted arena that every evaluator reads.
//!
//! A [`FlatView`] compiles the view of a component once into dense
//! contiguous arenas, so the semi-naive inner loop is pure index
//! arithmetic and every other reader (model checks, enumeration,
//! explanations) walks the same arrays:
//!
//! * rules live in **one** flat order, sorted by `(dependency level,
//!   SCC)` of their head atom — every stratum is a contiguous rule
//!   range, every level a contiguous stratum range, and stratum
//!   membership tests collapse to a range check. Within a stratum the
//!   rules keep **program order** (the `(comp, head, body)` order of
//!   [`GroundProgram::rules`]), in a freshly built and a patched arena
//!   alike, so every rule list the arena hands out (rules by head,
//!   overrulers, defeaters) is in program order too;
//! * rule bodies, watch lists, head buckets and attack lists are CSR
//!   (offsets + payload) over `u32` ids;
//! * lookups by literal are indexed by [`GLit::code`] — literals over
//!   atoms `0..n` occupy codes `0..2n`, so "who watches this literal?"
//!   is an array load, and truth state is a [`olp_core::BitSet`]
//!   indexed by the same dense code space. A literal over an atom the
//!   arena does not cover (interned after it was built) has no rules;
//! * per-stratum dependency edges (`stratum_preds`) and statistics-based
//!   weights feed the morsel partitioner of the parallel fixpoint;
//! * the five rule statuses of Definition 2 — *applicable* (`B(r) ⊆ I`),
//!   *applied* (and `H(r) ∈ I`), *blocked* (some body literal's
//!   complement is in `I`), *overruled* / *defeated* (some non-blocked
//!   rule with the complementary head in a strictly lower / the same or
//!   an incomparable component) — are evaluated against any
//!   [`Interpretation`].
//!
//! The attack structure (overrulers / defeaters per Definition 2) is
//! computed from head-literal buckets plus [`olp_core::Order`]; the
//! tests rebuild it by brute force from complementary heads on fresh
//! and patched arenas.

use crate::program::{render_rule, GroundProgram, GroundRule};
use olp_core::{tarjan_scc_csr, AtomId, CompId, GLit, Interpretation, Order, PredId, Sign, World};

/// Index of a rule within a [`FlatView`] (its position in the flat,
/// stratum-sorted rule order — not a [`GroundProgram`] index).
pub type FlatIdx = u32;

/// Result of [`FlatView::apply_delta`].
// A `FlatPatch` is destructured immediately at the lone call site, so
// the variant size gap never lives anywhere.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FlatPatch {
    /// The delta was stratum-local: the spliced view, sharing no
    /// allocation with the original (the original stays valid for
    /// readers of the previous epoch).
    Patched(FlatView),
    /// The change alters the SCC condensation — or introduces a
    /// dependency the surviving stratum order cannot host — and the
    /// caller must rebuild with [`FlatView::new`].
    Rebuild,
}

/// A contiguous run of whole strata scheduled as one unit of parallel
/// work. Produced by [`FlatView::morsels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Flat rule range `[rule_lo, rule_hi)`.
    pub rule_lo: u32,
    /// End of the flat rule range (exclusive).
    pub rule_hi: u32,
    /// Stratum index range `[stratum_lo, stratum_hi)`.
    pub stratum_lo: u32,
    /// End of the stratum range (exclusive).
    pub stratum_hi: u32,
    /// The dependency level all contained strata share.
    pub level: u32,
}

/// A component view compiled into dense contiguous arenas.
#[derive(Debug, Clone)]
pub struct FlatView {
    /// The component whose view this is.
    pub comp: CompId,
    /// Atom universe size (truth bitsets span codes `0..2 * n_atoms`).
    pub n_atoms: usize,
    /// Head literal per flat rule.
    heads: Vec<GLit>,
    /// Component per flat rule (`C(r)`).
    comps: Vec<CompId>,
    /// CSR offsets into `body` (length `n_rules + 1`).
    body_off: Vec<u32>,
    /// Concatenated rule bodies.
    body: Vec<GLit>,
    /// Watch, head and attack lists.
    lists: Lists,
    /// Stratum boundaries in the flat rule order (length
    /// `n_strata + 1`): stratum `s` is rules
    /// `stratum_off[s]..stratum_off[s + 1]`.
    stratum_off: Vec<u32>,
    /// Level boundaries in stratum index space (length `n_levels + 1`):
    /// level `l` spans strata `level_off[l]..level_off[l + 1]`.
    level_off: Vec<u32>,
    /// CSR: distinct predecessor strata per stratum (strata owning
    /// out-of-stratum body atoms of the stratum's rules).
    pred_off: Vec<u32>,
    preds: Vec<u32>,
}

/// The CSR lists a [`FlatView`] derives from its rules, built by one
/// pass ([`Lists::build`]) for fresh and patched arenas alike.
#[derive(Debug, Clone)]
struct Lists {
    /// Flat rules watching each literal code (a rule appears once per
    /// distinct body literal), offsets of length `2 * n_atoms + 1`.
    watch_off: Vec<u32>,
    watch: Vec<u32>,
    /// Flat rules by head literal code, in flat order.
    head_off: Vec<u32>,
    head: Vec<u32>,
    /// Potential overrulers / defeaters per rule.
    over_off: Vec<u32>,
    over: Vec<u32>,
    defeat_off: Vec<u32>,
    defeat: Vec<u32>,
    /// Overruling / defeating victims per rule (the transposes).
    vover_off: Vec<u32>,
    vover: Vec<u32>,
    vdefeat_off: Vec<u32>,
    vdefeat: Vec<u32>,
}

/// A CSR map from keys `0..n_keys` to `u32` values: the offsets
/// (length `n_keys + 1`) and the values grouped by key, each group in
/// the order `pairs` yields it. `counts` yields `(key, n)` for every
/// key with `n` values (a key may repeat), `pairs` every `(key, value)`.
fn csr(
    n_keys: usize,
    counts: impl Iterator<Item = (usize, u32)>,
    pairs: impl Iterator<Item = (usize, u32)>,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_keys + 1];
    counts.for_each(|(k, n)| off[k + 1] += n);
    for k in 0..n_keys {
        off[k + 1] += off[k];
    }
    let mut vals = vec![0u32; off[n_keys] as usize];
    let mut cur = off.clone();
    pairs.for_each(|(k, v)| {
        vals[cur[k] as usize] = v;
        cur[k] += 1;
    });
    (off, vals)
}

#[inline]
fn slice<'a>(off: &[u32], vals: &'a [u32], k: usize) -> &'a [u32] {
    &vals[off[k] as usize..off[k + 1] as usize]
}

/// The rule columns of an arena under construction.
struct Columns {
    heads: Vec<GLit>,
    comps: Vec<CompId>,
    body_off: Vec<u32>,
    body: Vec<GLit>,
}

impl Columns {
    fn with_capacity(n: usize, body_lits: usize) -> Self {
        let mut body_off = Vec::with_capacity(n + 1);
        body_off.push(0);
        Columns {
            heads: Vec::with_capacity(n),
            comps: Vec::with_capacity(n),
            body_off,
            body: Vec::with_capacity(body_lits),
        }
    }

    fn push(&mut self, head: GLit, comp: CompId, body: &[GLit]) {
        self.heads.push(head);
        self.comps.push(comp);
        self.body.extend_from_slice(body);
        self.body_off.push(self.body.len() as u32);
    }

    fn body(&self, f: usize) -> &[GLit] {
        &self.body[self.body_off[f] as usize..self.body_off[f + 1] as usize]
    }

    /// Distinct predecessor strata of every stratum, as CSR: the strata
    /// owning out-of-stratum body atoms (`owner[atom]`, `u32::MAX` for
    /// an atom no rule defines — it never derives, so it imposes no
    /// scheduling dependency).
    fn stratum_preds(&self, stratum_off: &[u32], owner: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let n_strata = stratum_off.len() - 1;
        let mut pred_off = vec![0u32; n_strata + 1];
        let mut preds: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for si in 0..n_strata {
            scratch.clear();
            for f in stratum_off[si] as usize..stratum_off[si + 1] as usize {
                for &b in self.body(f) {
                    let ti = owner[b.atom().index()];
                    if ti != u32::MAX && ti != si as u32 {
                        debug_assert!(ti < si as u32, "strata must be topological");
                        scratch.push(ti);
                    }
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            preds.extend_from_slice(&scratch);
            pred_off[si + 1] = preds.len() as u32;
        }
        (pred_off, preds)
    }
}

impl Lists {
    /// Watch lists and head buckets by literal code, and the attack
    /// lists: the attackers of rule `f` are the rules headed by
    /// `H(f).complement()`, filtered through the component order;
    /// victims are the transposes.
    fn build(order: &Order, n_atoms: usize, cols: &Columns) -> Lists {
        let n = cols.heads.len();
        let codes = 2 * n_atoms;
        let (watch_off, watch) = csr(
            codes,
            cols.body.iter().map(|b| (b.code(), 1)),
            (0..n).flat_map(|f| cols.body(f).iter().map(move |b| (b.code(), f as u32))),
        );
        let (head_off, head) = csr(
            codes,
            cols.heads.iter().map(|h| (h.code(), 1)),
            (cols.heads.iter().enumerate()).map(|(f, h)| (h.code(), f as u32)),
        );
        // (victim, attacker) pairs in victim order, each victim's
        // attackers in bucket order.
        let (mut overrules, mut defeats) = (Vec::new(), Vec::new());
        for (f, h) in cols.heads.iter().enumerate() {
            for &a in slice(&head_off, &head, h.complement().code()) {
                let (ca, cf) = (cols.comps[a as usize], cols.comps[f]);
                if order.can_overrule(ca, cf) {
                    overrules.push((f, a));
                }
                if order.can_defeat(ca, cf) {
                    defeats.push((f, a));
                }
            }
        }
        let by_victim = |pairs: &[(usize, u32)]| {
            csr(n, pairs.iter().map(|&(f, _)| (f, 1)), pairs.iter().copied())
        };
        let by_attacker = |pairs: &[(usize, u32)]| {
            let flip = |&(f, a): &(usize, u32)| (a as usize, f as u32);
            csr(
                n,
                pairs.iter().map(|p| (flip(p).0, 1)),
                pairs.iter().map(flip),
            )
        };
        let (over_off, over) = by_victim(&overrules);
        let (defeat_off, defeat) = by_victim(&defeats);
        let (vover_off, vover) = by_attacker(&overrules);
        let (vdefeat_off, vdefeat) = by_attacker(&defeats);
        Lists {
            watch_off,
            watch,
            head_off,
            head,
            over_off,
            over,
            defeat_off,
            defeat,
            vover_off,
            vover,
            vdefeat_off,
            vdefeat,
        }
    }
}

impl FlatView {
    /// Compiles the flat view of component `comp`.
    pub fn new(gp: &GroundProgram, comp: CompId) -> Self {
        let rules = gp.view(comp); // ascending: program order
        let n = rules.len();
        let n_atoms = gp.n_atoms;
        let rule = |ri: u32| &gp.rules[ri as usize];

        // --- Stratification: SCCs of the head→body atom graph (Tarjan
        // tolerates duplicate edges).
        let head_atom = |ri: u32| rule(ri).head.atom().index();
        let (adj_off, adj) = csr(
            n_atoms,
            rules
                .iter()
                .map(|&ri| (head_atom(ri), rule(ri).body.len() as u32)),
            rules
                .iter()
                .flat_map(|&ri| (rule(ri).body.iter()).map(move |b| (head_atom(ri), b.atom().0))),
        );
        let (scc_of, n_sccs) = tarjan_scc_csr(&adj_off, &adj);
        let scc_of_lit = |l: GLit| scc_of[l.atom().index()];

        // Dependency level per SCC. Tarjan numbers SCCs
        // reverse-topologically (edges go to smaller ids), so one
        // ascending pass over SCC ids sees every dependency's level
        // final before it is read.
        let cross = || {
            rules.iter().flat_map(|&ri| {
                let s = scc_of_lit(rule(ri).head);
                (rule(ri).body.iter())
                    .map(move |&b| scc_of_lit(b))
                    .filter(move |&t| t != s)
                    .map(move |t| (s as usize, t))
            })
        };
        let (se_off, se) = csr(n_sccs, cross().map(|(s, _)| (s, 1)), cross());
        let mut scc_level = vec![0u32; n_sccs];
        for s in 0..n_sccs {
            for &t in slice(&se_off, &se, s) {
                debug_assert!((t as usize) < s, "Tarjan ids must be reverse-topological");
                scc_level[s] = scc_level[s].max(scc_level[t as usize] + 1);
            }
        }

        // --- Flat rule order: (level, SCC), program order within. ---
        // (level, SCC) sorting is topological — any inter-stratum body
        // dependency crosses to a strictly lower level — and makes both
        // strata and levels contiguous rule ranges. Rank the (few) SCCs
        // by (level, id) and bucket the rules by rank; the buckets keep
        // the rules' program order.
        let mut by_level: Vec<u32> = (0..n_sccs as u32).collect();
        by_level.sort_unstable_by_key(|&s| (scc_level[s as usize], s));
        let mut scc_rank = vec![0u32; n_sccs];
        for (rank, &s) in by_level.iter().enumerate() {
            scc_rank[s as usize] = rank as u32;
        }
        let rank = |ri: u32| scc_rank[scc_of_lit(rule(ri).head) as usize] as usize;
        let (_, order) = csr(
            n_sccs,
            rules.iter().map(|&ri| (rank(ri), 1)),
            rules.iter().map(|&ri| (rank(ri), ri)),
        );

        let mut cols = Columns::with_capacity(n, adj.len());
        for &ri in &order {
            let r = rule(ri);
            cols.push(r.head, r.comp, &r.body);
        }

        // Stratum and level boundaries over the sorted order.
        let mut stratum_off: Vec<u32> = vec![0];
        let mut level_off: Vec<u32> = vec![0];
        let mut stratum_of_scc = vec![u32::MAX; n_sccs];
        let mut last: Option<(u32, u32)> = None; // (scc, level)
        for (f, &h) in cols.heads.iter().enumerate() {
            let s = scc_of_lit(h);
            let lv = scc_level[s as usize];
            if last.is_some_and(|(ls, _)| ls == s) {
                continue;
            }
            if let Some((_, llv)) = last {
                stratum_off.push(f as u32);
                if llv != lv {
                    level_off.push(stratum_off.len() as u32 - 1);
                }
            }
            stratum_of_scc[s as usize] = stratum_off.len() as u32 - 1;
            last = Some((s, lv));
        }
        stratum_off.push(n as u32);
        level_off.push(stratum_off.len() as u32 - 1);
        let owner: Vec<u32> = scc_of.iter().map(|&s| stratum_of_scc[s as usize]).collect();

        let lists = Lists::build(&gp.order, n_atoms, &cols);
        let (pred_off, preds) = cols.stratum_preds(&stratum_off, &owner);
        FlatView {
            comp,
            n_atoms,
            heads: cols.heads,
            comps: cols.comps,
            body_off: cols.body_off,
            body: cols.body,
            lists,
            stratum_off,
            level_off,
            pred_off,
            preds,
        }
    }

    /// Flat indices of the given rules, matched by content — `(head,
    /// body, comp)` is unique within a view because [`GroundProgram`]
    /// deduplicates instances. One pass over the arena; `None` if any
    /// rule is absent. The removal half of [`FlatView::apply_delta`]
    /// is addressed this way.
    pub fn locate(&self, rules: &[&GroundRule]) -> Option<Vec<u32>> {
        let mut out = vec![u32::MAX; rules.len()];
        let mut missing = rules.len();
        if missing == 0 {
            return Some(out);
        }
        for f in 0..self.len() {
            for (k, r) in rules.iter().enumerate() {
                if out[k] == u32::MAX
                    && self.heads[f] == r.head
                    && self.comps[f] == r.comp
                    && self.body(f as u32) == &r.body[..]
                {
                    out[k] = f as u32;
                    missing -= 1;
                    break; // a flat rule matches at most one target
                }
            }
            if missing == 0 {
                return Some(out);
            }
        }
        None
    }

    /// Splices a mutation delta into the arenas. `gp` is the ground
    /// program *after* the mutation, `added` are indices into
    /// `gp.rules` of rules this view gains, and `removed` are flat
    /// indices (into `self`) of rules it loses (see
    /// [`FlatView::locate`]).
    ///
    /// Returns [`FlatPatch::Patched`] when the delta is
    /// **stratum-local**: every added rule either joins the surviving
    /// stratum of its head atom without bending the topological order
    /// (all its defined body atoms live in strata `<=` it), or defines
    /// only fresh head atoms, appended as new *tail* strata
    /// (stratified among themselves by a Tarjan pass over the tail
    /// alone, sharing one new dependency level). Removals are always
    /// stratum-local: the surviving strata keep their slots, possibly
    /// left empty — evaluation skips empty ranges. Otherwise — a back
    /// edge into an earlier stratum, a surviving rule watching a
    /// freshly defined atom, or a change to the SCC condensation —
    /// the honest answer is [`FlatPatch::Rebuild`].
    ///
    /// A patched view answers exactly like a [`FlatView::new`] rebuild:
    /// its stratum order is topological (body dependencies never point
    /// forward), rules sharing a head atom share a stratum (the
    /// worklist's attacker bookkeeping relies on this), spliced rules
    /// take their program-order place within their stratum, and the
    /// watch, head and attack lists are recomputed from the patched
    /// rule set. It may be *coarser* — removals can leave mergeable
    /// strata apart, and spliced rules may add same-level cross-stratum
    /// edges — which the morsel scheduler tolerates because it keys on
    /// [`FlatView::stratum_preds`], not on levels.
    pub fn apply_delta(&self, gp: &GroundProgram, added: &[u32], removed: &[u32]) -> FlatPatch {
        let n_old = self.len();
        if n_old == 0 {
            // The empty view's synthetic empty stratum has nothing to
            // splice around; a rebuild costs the same.
            return FlatPatch::Rebuild;
        }
        let n_atoms = gp.n_atoms;
        if n_atoms < self.n_atoms {
            return FlatPatch::Rebuild; // not a successor program
        }

        // --- Removal mask over flat indices. ---------------------
        let mut dead = vec![false; n_old];
        for &f in removed {
            if f as usize >= n_old || dead[f as usize] {
                return FlatPatch::Rebuild; // malformed request
            }
            dead[f as usize] = true;
        }

        // --- Stratum owning each still-defined atom. -------------
        let n_strata_old = self.n_strata();
        let mut owner = vec![u32::MAX; n_atoms];
        for s in 0..n_strata_old {
            let (lo, hi) = self.stratum(s);
            for f in lo..hi {
                if !dead[f as usize] {
                    owner[self.heads[f as usize].atom().index()] = s as u32;
                }
            }
        }

        // --- Classify added rules. Head atom still owned by a
        // surviving stratum → splice there (all rules sharing a head
        // atom must share a stratum). Head atom unowned → a fresh
        // tail stratum appended after everything. ------------------
        let mut tail_slot = vec![u32::MAX; n_atoms];
        let mut tail_atoms: Vec<u32> = Vec::new();
        for &ri in added {
            let Some(r) = gp.rules.get(ri as usize) else {
                return FlatPatch::Rebuild; // malformed request
            };
            let h = r.head.atom().index();
            if owner[h] == u32::MAX && tail_slot[h] == u32::MAX {
                tail_slot[h] = tail_atoms.len() as u32;
                tail_atoms.push(h as u32);
            }
        }
        // A surviving rule watching a freshly defined atom would have
        // to run after the tail; the surviving order cannot host that.
        for &a in &tail_atoms {
            for l in [GLit::pos(AtomId(a)), GLit::neg(AtomId(a))] {
                if self.watchers(l).iter().any(|&w| !dead[w as usize]) {
                    return FlatPatch::Rebuild;
                }
            }
        }
        let mut into_stratum: Vec<Vec<u32>> = vec![Vec::new(); n_strata_old];
        let mut tail_rules: Vec<Vec<u32>> = vec![Vec::new(); tail_atoms.len()];
        let mut tail_edges: Vec<(usize, u32)> = Vec::new();
        for &ri in added {
            let r = &gp.rules[ri as usize];
            let h = r.head.atom().index();
            let hs = owner[h];
            if hs == u32::MAX {
                let slot = tail_slot[h];
                for &b in &r.body {
                    let ba = b.atom().index();
                    if tail_slot[ba] != u32::MAX && ba != h {
                        tail_edges.push((slot as usize, tail_slot[ba]));
                    }
                }
                tail_rules[slot as usize].push(ri);
            } else {
                for &b in &r.body {
                    let ba = b.atom().index();
                    if tail_slot[ba] != u32::MAX {
                        return FlatPatch::Rebuild; // depends on a later stratum
                    }
                    let bs = owner[ba];
                    if bs != u32::MAX && bs > hs {
                        return FlatPatch::Rebuild; // back edge: condensation changed
                    }
                    // bs == MAX: the atom has no defining rule — it
                    // never derives, no ordering constraint.
                }
                into_stratum[hs as usize].push(ri);
            }
        }

        // --- Stratify the tail among itself: a Tarjan pass over the
        // (tiny) fresh-atom graph only. Ascending ids are
        // reverse-topological — dependencies first — exactly the
        // order the tail strata are appended in. -------------------
        let (off, edges) = csr(
            tail_atoms.len(),
            tail_edges.iter().map(|&(h, _)| (h, 1)),
            tail_edges.iter().copied(),
        );
        let (tail_scc_of, n_tail_sccs) = tarjan_scc_csr(&off, &edges);
        let mut tail_strata: Vec<Vec<u32>> = vec![Vec::new(); n_tail_sccs];
        for (slot, rules) in tail_rules.iter().enumerate() {
            tail_strata[tail_scc_of[slot] as usize].extend_from_slice(rules);
        }

        // --- Rule arenas in the patched order: surviving strata keep
        // their slots, each merging its survivors with its spliced
        // rules in program order; tail strata follow. ---------------
        let n_new = n_old - removed.len() + added.len();
        let mut cols = Columns::with_capacity(n_new, self.body.len());
        let mut stratum_off: Vec<u32> = Vec::with_capacity(n_strata_old + n_tail_sccs + 1);
        stratum_off.push(0);
        for (s, spliced) in into_stratum.iter_mut().enumerate() {
            spliced.sort_unstable(); // ascending indices: program order
            let mut spliced = spliced.iter().map(|&ri| &gp.rules[ri as usize]).peekable();
            let (lo, hi) = self.stratum(s);
            for f in (lo..hi).filter(|&f| !dead[f as usize]) {
                while let Some(r) =
                    spliced.next_if(|r| (r.comp, r.head, &r.body[..]) < self.rule_key(f))
                {
                    cols.push(r.head, r.comp, &r.body);
                }
                cols.push(self.head(f), self.rule_comp(f), self.body(f));
            }
            for r in spliced {
                cols.push(r.head, r.comp, &r.body);
            }
            stratum_off.push(cols.heads.len() as u32);
        }
        for rules in &mut tail_strata {
            rules.sort_unstable();
            for &ri in rules.iter() {
                let r = &gp.rules[ri as usize];
                cols.push(r.head, r.comp, &r.body);
            }
            stratum_off.push(cols.heads.len() as u32);
        }
        debug_assert_eq!(cols.heads.len(), n_new);
        let mut level_off = self.level_off.clone();
        if n_tail_sccs > 0 {
            // All tail strata share one appended level; ordering
            // among them is carried by `stratum_preds`, which is what
            // the morsel scheduler keys on.
            level_off.push(stratum_off.len() as u32 - 1);
        }

        // --- Watch, head and attack lists from the patched rule set
        // (linear; the expensive global stratification is what the
        // splice avoided), and the stratum dependency edges over the
        // patched ownership map (tail atoms now owned by their
        // appended strata). ----------------------------------------
        for (slot, &a) in tail_atoms.iter().enumerate() {
            owner[a as usize] = (n_strata_old + tail_scc_of[slot] as usize) as u32;
        }
        let lists = Lists::build(&gp.order, n_atoms, &cols);
        let (pred_off, preds) = cols.stratum_preds(&stratum_off, &owner);
        FlatPatch::Patched(FlatView {
            comp: self.comp,
            n_atoms,
            heads: cols.heads,
            comps: cols.comps,
            body_off: cols.body_off,
            body: cols.body,
            lists,
            stratum_off,
            level_off,
            pred_off,
            preds,
        })
    }

    /// Number of rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the view has no rules.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Head literal of flat rule `f`.
    #[inline]
    pub fn head(&self, f: FlatIdx) -> GLit {
        self.heads[f as usize]
    }

    /// Source component of flat rule `f` (`C(r)`).
    #[inline]
    pub fn rule_comp(&self, f: FlatIdx) -> CompId {
        self.comps[f as usize]
    }

    /// Body literals of flat rule `f`, sorted.
    #[inline]
    pub fn body(&self, f: FlatIdx) -> &[GLit] {
        let f = f as usize;
        &self.body[self.body_off[f] as usize..self.body_off[f + 1] as usize]
    }

    /// The program-order key of flat rule `f`: [`GroundProgram`] sorts
    /// its rules by `(comp, head, body)`.
    #[inline]
    pub fn rule_key(&self, f: FlatIdx) -> (CompId, GLit, &[GLit]) {
        (self.rule_comp(f), self.head(f), self.body(f))
    }

    /// Renders flat rule `f` as [`GroundProgram::rule_str`] does.
    pub fn rule_str(&self, world: &World, f: FlatIdx) -> String {
        render_rule(world, self.head(f), self.body(f), self.rule_comp(f))
    }

    /// The slice of a literal-indexed CSR list for `l`; empty for a
    /// literal over an atom the arena does not cover.
    #[inline]
    fn by_lit<'a>(&self, off: &[u32], vals: &'a [u32], l: GLit) -> &'a [u32] {
        if l.atom().index() < self.n_atoms {
            slice(off, vals, l.code())
        } else {
            &[]
        }
    }

    /// Flat rules with literal `l` in the body.
    #[inline]
    pub fn watchers(&self, l: GLit) -> &[FlatIdx] {
        self.by_lit(&self.lists.watch_off, &self.lists.watch, l)
    }

    /// Flat rules with head literal `h`, in program order.
    #[inline]
    pub fn rules_with_head(&self, h: GLit) -> &[FlatIdx] {
        self.by_lit(&self.lists.head_off, &self.lists.head, h)
    }

    /// Potential overrulers of flat rule `f`: the rules with the
    /// complementary head in a strictly lower component, in program
    /// order.
    #[inline]
    pub fn overrulers(&self, f: FlatIdx) -> &[FlatIdx] {
        slice(&self.lists.over_off, &self.lists.over, f as usize)
    }

    /// Potential defeaters of flat rule `f`: the rules with the
    /// complementary head in the same or an incomparable component, in
    /// program order.
    #[inline]
    pub fn defeaters(&self, f: FlatIdx) -> &[FlatIdx] {
        slice(&self.lists.defeat_off, &self.lists.defeat, f as usize)
    }

    /// Rules that flat rule `f` can overrule.
    #[inline]
    pub fn victims_overrule(&self, f: FlatIdx) -> &[FlatIdx] {
        slice(&self.lists.vover_off, &self.lists.vover, f as usize)
    }

    /// Rules that flat rule `f` can defeat.
    #[inline]
    pub fn victims_defeat(&self, f: FlatIdx) -> &[FlatIdx] {
        slice(&self.lists.vdefeat_off, &self.lists.vdefeat, f as usize)
    }

    /// Potential overruling edges (attacker strictly below victim).
    pub fn overrule_edges(&self) -> usize {
        self.lists.over.len()
    }

    /// Potential defeating edges (same or incomparable components).
    pub fn defeat_edges(&self) -> usize {
        self.lists.defeat.len()
    }

    /// Mutual-defeat pairs: `(head literal, rule, contradictor)` where
    /// each rule is a potential defeater of the other — the situations
    /// that leave atoms undefined under unresolved conflict (Fig. 2).
    /// A KB lint: every pair is a place where the hierarchy fails to
    /// rank two contradictory opinions. Each unordered pair is reported
    /// once, keyed by the positive head, sorted by head and then by the
    /// two rules' program order.
    pub fn mutual_defeats(&self) -> Vec<(GLit, FlatIdx, FlatIdx)> {
        // Defeat is symmetric (equal/incomparable components both ways,
        // complementary heads both ways), so iterating from the
        // positive-headed side visits every pair exactly once; head
        // buckets and defeater lists are in program order.
        let mut out = Vec::new();
        for a in 0..self.n_atoms as u32 {
            let h = GLit::pos(AtomId(a));
            for &f in self.rules_with_head(h) {
                for &d in self.defeaters(f) {
                    debug_assert!(self.defeaters(d).contains(&f), "defeat is symmetric");
                    out.push((h, f, d));
                }
            }
        }
        out
    }

    // ---- Definition 2 statuses --------------------------------------

    /// `B(r) ⊆ I`.
    pub fn applicable(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.body(f).iter().all(|&b| i.holds(b))
    }

    /// Applicable and `H(r) ∈ I`.
    pub fn applied(&self, f: FlatIdx, i: &Interpretation) -> bool {
        i.holds(self.head(f)) && self.applicable(f, i)
    }

    /// Some body literal's complement is in `I`.
    pub fn blocked(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.body(f).iter().any(|&b| i.holds(b.complement()))
    }

    /// Some non-blocked rule in a strictly lower component has the
    /// complementary head.
    pub fn overruled(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.overrulers(f).iter().any(|&a| !self.blocked(a, i))
    }

    /// Some non-blocked rule in the same or an incomparable component
    /// has the complementary head.
    pub fn defeated(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.defeaters(f).iter().any(|&a| !self.blocked(a, i))
    }

    /// Def. 3(a)'s stronger overruling: overruled by an **applied**
    /// rule.
    pub fn overruled_by_applied(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.overrulers(f).iter().any(|&a| self.applied(a, i))
    }

    /// Applicable and neither overruled nor defeated: the rule fires in
    /// `V_{P,C}(I)` (Definition 4).
    pub fn fires(&self, f: FlatIdx, i: &Interpretation) -> bool {
        self.applicable(f, i) && !self.overruled(f, i) && !self.defeated(f, i)
    }

    /// Number of strata (contiguous rule ranges; all non-empty unless
    /// the view itself is empty or was patched).
    #[inline]
    pub fn n_strata(&self) -> usize {
        self.stratum_off.len() - 1
    }

    /// Flat rule range of stratum `s`.
    #[inline]
    pub fn stratum(&self, s: usize) -> (u32, u32) {
        (self.stratum_off[s], self.stratum_off[s + 1])
    }

    /// Number of dependency levels.
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// Stratum index range of level `l`.
    #[inline]
    pub fn level(&self, l: usize) -> (u32, u32) {
        (self.level_off[l], self.level_off[l + 1])
    }

    /// Distinct predecessor strata of stratum `s` (strata owning
    /// out-of-stratum body atoms of its rules).
    #[inline]
    pub fn stratum_preds(&self, s: usize) -> &[u32] {
        slice(&self.pred_off, &self.preds, s)
    }

    /// Evaluation weight of stratum `s`: rules plus body and attack
    /// edges — the work its fixpoint touches. Drives size-balanced
    /// morsel partitioning.
    pub fn stratum_weight(&self, s: usize) -> u64 {
        let (lo, hi) = self.stratum(s);
        let (lo, hi) = (lo as usize, hi as usize);
        let l = &self.lists;
        let rules = (hi - lo) as u64;
        let bodies = u64::from(self.body_off[hi] - self.body_off[lo]);
        let attacks = u64::from(l.over_off[hi] - l.over_off[lo])
            + u64::from(l.defeat_off[hi] - l.defeat_off[lo]);
        rules + bodies + attacks
    }

    /// Partitions the strata of every level into size-balanced
    /// [`Morsel`]s of roughly `target` weight (see
    /// [`FlatView::stratum_weight`]): walk the level's strata in order,
    /// cut when the accumulated weight reaches `target` or the level
    /// ends. Morsels never split a stratum (its worklist is inherently
    /// sequential) and never span levels (the scheduler's dependency
    /// counting assumes a morsel's inputs are outside it).
    ///
    /// The returned morsels tile the flat rule range exactly: every
    /// rule belongs to exactly one morsel (property-tested).
    pub fn morsels(&self, target: u64) -> Vec<Morsel> {
        let target = target.max(1);
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        for l in 0..self.n_levels() {
            let (slo, shi) = self.level(l);
            let mut s = slo;
            while s < shi {
                let start = s;
                let mut weight = 0u64;
                while s < shi {
                    weight += self.stratum_weight(s as usize);
                    s += 1;
                    if weight >= target {
                        break;
                    }
                }
                out.push(Morsel {
                    rule_lo: self.stratum_off[start as usize],
                    rule_hi: self.stratum_off[s as usize],
                    stratum_lo: start,
                    stratum_hi: s,
                    level: l as u32,
                });
            }
        }
        out
    }
}

/// Per-(predicate, sign) cardinality and distinct-value statistics of a
/// ground program — the grounding-time statistics that drive the join
/// planner, summarised post-hoc for inspection (`olp check`, REPL
/// `stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredStats {
    /// The predicate.
    pub pred: PredId,
    /// The literal sign.
    pub sign: Sign,
    /// Number of distinct ground atoms with this (pred, sign) occurring
    /// in the program (heads or bodies).
    pub cardinality: usize,
    /// Distinct term values per argument position.
    pub distinct: Vec<usize>,
}

/// Program-level statistics: per-(pred, sign) [`PredStats`] plus the
/// structural counts the morsel partitioner keys on.
#[derive(Debug, Clone, Default)]
pub struct ProgramStats {
    /// Per-(pred, sign) statistics, sorted by (pred, sign).
    pub preds: Vec<PredStats>,
    /// Total rules inspected.
    pub rules: usize,
    /// Total body literals.
    pub body_lits: usize,
}

impl ProgramStats {
    /// Collects statistics over the rules of `gp`'s view of `comp`.
    pub fn collect(world: &World, gp: &GroundProgram, comp: CompId) -> Self {
        use olp_core::FxHashMap;
        let mut seen: FxHashMap<(PredId, Sign), Vec<olp_core::AtomId>> = FxHashMap::default();
        let mut body_lits = 0usize;
        let mut rules = 0usize;
        let mut note = |l: GLit| {
            let pred = world.atoms.get(l.atom()).pred;
            seen.entry((pred, l.sign())).or_default().push(l.atom());
        };
        for (_, r) in gp.view_rules(comp) {
            rules += 1;
            note(r.head);
            for &b in &r.body {
                body_lits += 1;
                note(b);
            }
        }
        let mut preds: Vec<PredStats> = seen
            .into_iter()
            .map(|((pred, sign), mut atoms)| {
                atoms.sort_unstable();
                atoms.dedup();
                let arity = world.preds.arity(pred) as usize;
                let mut per_pos: Vec<Vec<olp_core::GTermId>> = vec![Vec::new(); arity];
                for &a in &atoms {
                    for (i, &t) in world.atoms.get(a).args.iter().enumerate() {
                        per_pos[i].push(t);
                    }
                }
                let distinct = per_pos
                    .into_iter()
                    .map(|mut v| {
                        v.sort_unstable();
                        v.dedup();
                        v.len()
                    })
                    .collect();
                PredStats {
                    pred,
                    sign,
                    cardinality: atoms.len(),
                    distinct,
                }
            })
            .collect();
        preds.sort_unstable_by_key(|p| (p.pred, p.sign));
        ProgramStats {
            preds,
            rules,
            body_lits,
        }
    }

    /// Renders the statistics, one `(pred, sign)` per line.
    pub fn render(&self, world: &World) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rules: {}, body literals: {}",
            self.rules, self.body_lits
        );
        for p in &self.preds {
            let info = world.preds.info(p.pred);
            let name = world.syms.name(info.name);
            let sign = if p.sign == Sign::Pos { "" } else { "-" };
            let distinct: Vec<String> = p.distinct.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                "  {}{}/{}: {} atoms, distinct per arg [{}]",
                sign,
                name,
                info.arity,
                p.cardinality,
                distinct.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::GroundRule;
    use olp_core::{AtomId, Order};

    fn order1() -> Order {
        Order::from_edges(1, &[]).unwrap()
    }

    fn lit(a: u32) -> GLit {
        GLit::pos(AtomId(a))
    }

    /// a :- b.  b :- c.  c.  d :- d.  (chain + self-loop)
    fn chain() -> GroundProgram {
        let rules = vec![
            GroundRule::new(lit(0), vec![lit(1)], CompId(0)),
            GroundRule::new(lit(1), vec![lit(2)], CompId(0)),
            GroundRule::new(lit(2), vec![], CompId(0)),
            GroundRule::new(lit(3), vec![lit(3)], CompId(0)),
        ];
        GroundProgram::new(rules, order1(), 4)
    }

    #[test]
    fn strata_are_topologically_ordered_rule_ranges() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        assert_eq!(fv.len(), 4);
        check_well_formed(&fv, &gp);
        // Every body atom's defining stratum precedes (or equals) the
        // head's stratum in flat order.
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            for f in lo..hi {
                for &b in fv.body(f) {
                    for &w in fv.watchers(b) {
                        assert!(w >= lo, "watcher {w} before its literal's stratum");
                    }
                }
            }
            for &p in fv.stratum_preds(s) {
                assert!((p as usize) < s, "predecessor stratum not earlier");
            }
        }
    }

    #[test]
    fn watchers_and_bodies_agree() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        for f in 0..fv.len() as u32 {
            for &b in fv.body(f) {
                assert!(fv.watchers(b).contains(&f));
            }
        }
        // Total watch entries == total body literals.
        let total: usize = (0..fv.len() as u32).map(|f| fv.body(f).len()).sum();
        assert_eq!(fv.lists.watch.len(), total);
    }

    #[test]
    fn attacks_respect_order() {
        // p. and -p. in one component: mutual defeaters, no overruling.
        let rules = vec![
            GroundRule::new(GLit::pos(AtomId(0)), vec![], CompId(0)),
            GroundRule::new(GLit::neg(AtomId(0)), vec![], CompId(0)),
        ];
        let gp = GroundProgram::new(rules, order1(), 1);
        let fv = FlatView::new(&gp, CompId(0));
        check_well_formed(&fv, &gp);
        for f in 0..2u32 {
            assert_eq!(fv.overrulers(f).len(), 0);
            assert_eq!(fv.defeaters(f).len(), 1);
            assert_eq!(fv.victims_defeat(f).len(), 1);
            assert_ne!(fv.defeaters(f)[0], f);
        }
    }

    #[test]
    fn lookups_past_the_atom_universe_are_empty() {
        // An atom interned after the arena was built has no rules.
        let fv = FlatView::new(&chain(), CompId(0));
        for l in [GLit::pos(AtomId(4)), GLit::neg(AtomId(99))] {
            assert!(fv.rules_with_head(l).is_empty());
            assert!(fv.watchers(l).is_empty());
        }
    }

    #[test]
    fn morsels_tile_rules_exactly() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        for target in [1u64, 2, 3, 100] {
            let ms = fv.morsels(target);
            let mut covered = 0u32;
            for m in &ms {
                assert_eq!(m.rule_lo, covered, "gap or overlap at target {target}");
                assert!(m.rule_hi > m.rule_lo || m.stratum_hi > m.stratum_lo);
                covered = m.rule_hi;
            }
            assert_eq!(covered as usize, fv.len(), "morsels must cover all rules");
        }
        assert!(fv.morsels(1).len() >= fv.morsels(100).len());
    }

    #[test]
    fn empty_view_is_well_formed() {
        let gp = GroundProgram::new(Vec::new(), order1(), 0);
        let fv = FlatView::new(&gp, CompId(0));
        assert!(fv.is_empty());
        assert_eq!(fv.n_strata(), 1);
        assert_eq!(fv.stratum(0), (0, 0));
        assert!(fv.morsels(8).is_empty());
        check_well_formed(&fv, &gp);
    }

    /// Structural invariants every view — built or patched — must
    /// hold: strata tile the rules, levels tile the strata, rules
    /// sharing a head atom share a stratum and keep program order
    /// within it, body dependencies never point forward,
    /// `stratum_preds` is exact, watch lists and head buckets agree
    /// with the rules, and the attack lists equal a brute-force
    /// recomputation of Definition 2 from complementary heads and the
    /// component order, with exact victim transposes.
    fn check_well_formed(fv: &FlatView, gp: &GroundProgram) {
        let n = fv.len() as u32;
        let mut prev = 0u32;
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            assert_eq!(lo, prev, "strata must tile the rules");
            assert!(hi >= lo);
            for f in lo + 1..hi {
                assert!(
                    fv.rule_key(f - 1) < fv.rule_key(f),
                    "rules of a stratum must keep program order"
                );
            }
            prev = hi;
        }
        assert_eq!(prev, n);
        let mut prev = 0u32;
        for l in 0..fv.n_levels() {
            let (lo, hi) = fv.level(l);
            assert_eq!(lo, prev, "levels must tile the strata");
            prev = hi;
        }
        assert_eq!(prev as usize, fv.n_strata());
        let mut stratum_of_atom: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            for f in lo..hi {
                let a = fv.head(f).atom().index();
                let owner = stratum_of_atom.entry(a).or_insert(s);
                assert_eq!(*owner, s, "head atom {a} split across strata");
            }
        }
        for s in 0..fv.n_strata() {
            let (lo, hi) = fv.stratum(s);
            let mut want_preds: Vec<u32> = Vec::new();
            for f in lo..hi {
                for &b in fv.body(f) {
                    if let Some(&t) = stratum_of_atom.get(&b.atom().index()) {
                        assert!(t <= s, "body dependency points forward");
                        if t != s {
                            want_preds.push(t as u32);
                        }
                    }
                }
            }
            want_preds.sort_unstable();
            want_preds.dedup();
            assert_eq!(fv.stratum_preds(s), &want_preds[..]);
        }
        for f in 0..n {
            for &b in fv.body(f) {
                assert!(fv.watchers(b).contains(&f));
            }
        }
        let total: usize = (0..n).map(|f| fv.body(f).len()).sum();
        let all_watch: usize = (0..2 * fv.n_atoms)
            .map(|c| fv.watchers(GLit::from_code(c)).len())
            .sum();
        assert_eq!(all_watch, total);
        // Rules by head, and attackers by the order: in program order.
        let in_program_order = |got: &[u32]| {
            got.windows(2)
                .all(|w| fv.rule_key(w[0]) < fv.rule_key(w[1]))
        };
        for c in 0..2 * fv.n_atoms {
            let h = GLit::from_code(c);
            let mut want: Vec<u32> = (0..n).filter(|&f| fv.head(f) == h).collect();
            let mut got = fv.rules_with_head(h).to_vec();
            assert!(in_program_order(&got), "rules with head {c}");
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "rules with head {c}");
        }
        for f in 0..n {
            let hc = fv.head(f).complement();
            let mut want: Vec<u32> = (0..n)
                .filter(|&a| {
                    fv.head(a) == hc && gp.order.can_overrule(fv.rule_comp(a), fv.rule_comp(f))
                })
                .collect();
            let mut got = fv.overrulers(f).to_vec();
            assert!(in_program_order(&got), "overrulers of {f}");
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "overrulers of {f}");
            let mut want: Vec<u32> = (0..n)
                .filter(|&a| {
                    fv.head(a) == hc && gp.order.can_defeat(fv.rule_comp(a), fv.rule_comp(f))
                })
                .collect();
            let mut got = fv.defeaters(f).to_vec();
            assert!(in_program_order(&got), "defeaters of {f}");
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "defeaters of {f}");
            for &a in fv.overrulers(f) {
                assert!(fv.victims_overrule(a).contains(&f));
            }
            for &a in fv.defeaters(f) {
                assert!(fv.victims_defeat(a).contains(&f));
            }
            for &v in fv.victims_overrule(f) {
                assert!(fv.overrulers(v).contains(&f));
            }
            for &v in fv.victims_defeat(f) {
                assert!(fv.defeaters(v).contains(&f));
            }
        }
        assert_eq!(
            fv.overrule_edges(),
            (0..n).map(|f| fv.overrulers(f).len()).sum()
        );
        assert_eq!(
            fv.defeat_edges(),
            (0..n).map(|f| fv.defeaters(f).len()).sum()
        );
    }

    /// The view's rule multiset equals the program's view of `c`.
    fn assert_matches_view(fv: &FlatView, gp: &GroundProgram, c: CompId) {
        let mut got: Vec<(GLit, Vec<GLit>, CompId)> = (0..fv.len() as u32)
            .map(|f| (fv.head(f), fv.body(f).to_vec(), fv.rule_comp(f)))
            .collect();
        let mut want: Vec<(GLit, Vec<GLit>, CompId)> = gp
            .view(c)
            .iter()
            .map(|&ri| {
                let r = &gp.rules[ri as usize];
                (r.head, r.body.to_vec(), r.comp)
            })
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "rule set diverges from the program view");
    }

    /// Drives `apply_delta` the way `Kb::commit` does: diff the
    /// programs, restrict to the view, locate removals by content.
    fn patch_via_delta(old: &GroundProgram, new: &GroundProgram, c: CompId) -> FlatPatch {
        let fv = FlatView::new(old, c);
        let d = crate::delta::GroundDelta::between(old, new);
        let (added, removed) = d.for_view(old, new, c);
        let refs: Vec<&GroundRule> = removed.iter().map(|&i| &old.rules[i as usize]).collect();
        let flat_removed = fv.locate(&refs).expect("removed rules are in the view");
        fv.apply_delta(new, &added, &flat_removed)
    }

    #[test]
    fn locate_matches_by_content() {
        let gp = chain();
        let fv = FlatView::new(&gp, CompId(0));
        let refs: Vec<&GroundRule> = gp.rules.iter().collect();
        let flat = fv.locate(&refs).expect("all rules present");
        for (k, r) in gp.rules.iter().enumerate() {
            let f = flat[k];
            assert_eq!(fv.head(f), r.head);
            assert_eq!(fv.body(f), &r.body[..]);
        }
        let absent = GroundRule::new(lit(0), vec![lit(3)], CompId(0));
        assert!(fv.locate(&[&absent]).is_none());
    }

    #[test]
    fn splice_into_existing_stratum_patches() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // a :- c: head atom 0 already owns a stratum, body atom 2 is
        // defined strictly earlier — stratum-local.
        rules.push(GroundRule::new(lit(0), vec![lit(2)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 4);
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                let fv_old = FlatView::new(&old, CompId(0));
                assert_eq!(p.n_strata(), fv_old.n_strata(), "no new strata needed");
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("stratum-local assert must patch"),
        }
    }

    #[test]
    fn spliced_rules_take_their_program_order_place() {
        // a :- b exists; a. sorts before it (empty body): after the
        // patch the head bucket of `a` lists the fact first, exactly
        // as a rebuild does.
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        rules.push(GroundRule::new(lit(0), vec![], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 4);
        let FlatPatch::Patched(p) = patch_via_delta(&old, &new, CompId(0)) else {
            panic!("stratum-local assert must patch")
        };
        check_well_formed(&p, &new);
        let fresh = FlatView::new(&new, CompId(0));
        let bodies = |fv: &FlatView| -> Vec<Vec<GLit>> {
            (fv.rules_with_head(lit(0)).iter())
                .map(|&f| fv.body(f).to_vec())
                .collect()
        };
        assert_eq!(bodies(&p), vec![vec![], vec![lit(1)]]);
        assert_eq!(bodies(&p), bodies(&fresh));
    }

    #[test]
    fn fresh_atoms_append_tail_strata() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // e. and f :- e over fresh atoms: two tail strata in
        // dependency order, one appended level.
        rules.push(GroundRule::new(lit(4), vec![], CompId(0)));
        rules.push(GroundRule::new(lit(5), vec![lit(4)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 6);
        let fv_old = FlatView::new(&old, CompId(0));
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                assert_eq!(p.n_strata(), fv_old.n_strata() + 2);
                assert_eq!(p.n_levels(), fv_old.n_levels() + 1);
                assert_eq!(p.n_atoms, 6);
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("fresh-atom assert must patch"),
        }
    }

    #[test]
    fn back_edge_forces_rebuild() {
        let old = chain();
        let mut rules: Vec<GroundRule> = old.rules.clone();
        // c :- a: atom 2's stratum precedes atom 0's — the SCC
        // condensation collapses, the splice must refuse.
        rules.push(GroundRule::new(lit(2), vec![lit(0)], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 4);
        assert!(matches!(
            patch_via_delta(&old, &new, CompId(0)),
            FlatPatch::Rebuild
        ));
    }

    #[test]
    fn retained_watcher_of_fresh_atom_forces_rebuild() {
        // a :- e with e undefined; then e. arrives: the surviving
        // rule would have to run after the tail.
        let old = GroundProgram::new(
            vec![GroundRule::new(lit(0), vec![lit(4)], CompId(0))],
            order1(),
            5,
        );
        let mut rules: Vec<GroundRule> = old.rules.clone();
        rules.push(GroundRule::new(lit(4), vec![], CompId(0)));
        let new = GroundProgram::new(rules, order1(), 5);
        assert!(matches!(
            patch_via_delta(&old, &new, CompId(0)),
            FlatPatch::Rebuild
        ));
    }

    #[test]
    fn removal_leaves_empty_stratum_in_place() {
        let old = chain();
        let rules: Vec<GroundRule> = old
            .rules
            .iter()
            .filter(|r| !(r.head == lit(2) && r.body.is_empty()))
            .cloned()
            .collect();
        let new = GroundProgram::new(rules, order1(), 4);
        let fv_old = FlatView::new(&old, CompId(0));
        match patch_via_delta(&old, &new, CompId(0)) {
            FlatPatch::Patched(p) => {
                assert_eq!(p.len(), fv_old.len() - 1);
                assert_eq!(
                    p.n_strata(),
                    fv_old.n_strata(),
                    "the emptied stratum keeps its slot"
                );
                assert!((0..p.n_strata()).any(|s| {
                    let (lo, hi) = p.stratum(s);
                    lo == hi
                }));
                check_well_formed(&p, &new);
                assert_matches_view(&p, &new, CompId(0));
            }
            FlatPatch::Rebuild => panic!("pure removal must patch"),
        }
    }

    /// The paper's programs: the arena of every component is well
    /// formed, its attack lists matching the brute-force recomputation.
    #[test]
    fn paper_programs_are_well_formed() {
        use crate::exhaustive::ground_exhaustive;
        use crate::universe::GroundConfig;
        let loan = "module expert2 { take_loan :- inflation(X), X > 11. }
             module expert4 { -take_loan :- loan_rate(X), X > 14. }
             module expert3 < expert4 {
                take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
             }
             module myself < expert2, expert3 { inflation(19). loan_rate(16). }";
        for src in [statuses::FIG1, statuses::FIG2, statuses::P5, loan] {
            let mut w = World::new();
            let p = olp_parser::parse_program(&mut w, src).unwrap();
            let gp = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
            for c in 0..gp.order.len() {
                let fv = FlatView::new(&gp, CompId(c as u32));
                check_well_formed(&fv, &gp);
                assert_matches_view(&fv, &gp, CompId(c as u32));
            }
        }
    }

    /// The five rule statuses of Definition 2 on the paper's Example 2.
    mod statuses {
        use super::*;
        use crate::exhaustive::ground_exhaustive;
        use crate::universe::GroundConfig;
        use olp_parser::{parse_ground_literal, parse_program};

        pub(super) const FIG1: &str = "module c2 {
                bird(penguin). bird(pigeon).
                fly(X) :- bird(X).
                -ground_animal(X) :- bird(X).
             }
             module c1 < c2 {
                ground_animal(penguin).
                -fly(X) :- ground_animal(X).
             }";

        /// The paper's Fig. 2: in `c1`, `rich` and `poor` defeat each
        /// other.
        pub(super) const FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X). }
             module c2 { poor(mimmo). -rich(X) :- poor(X). }
             module c1 < c2, c3 { free_ticket(X) :- poor(X). }";

        /// Example 5 (P5).
        pub(super) const P5: &str = "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }";

        fn ground(src: &str) -> (World, GroundProgram) {
            let mut w = World::new();
            let p = parse_program(&mut w, src).unwrap();
            let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
            (w, g)
        }

        /// The paper's total interpretation I1 for P1 in C1 (Example 2).
        fn i1(w: &mut World) -> Interpretation {
            Interpretation::from_literals(
                [
                    "bird(pigeon)",
                    "bird(penguin)",
                    "ground_animal(penguin)",
                    "-ground_animal(pigeon)",
                    "fly(pigeon)",
                    "-fly(penguin)",
                ]
                .iter()
                .map(|s| parse_ground_literal(w, s).unwrap()),
            )
            .unwrap()
        }

        fn find_rule(w: &mut World, v: &FlatView, head: &str, body: &[&str]) -> FlatIdx {
            let h = parse_ground_literal(w, head).unwrap();
            let mut want: Vec<GLit> = body
                .iter()
                .map(|s| parse_ground_literal(w, s).unwrap())
                .collect();
            want.sort_unstable();
            v.rules_with_head(h)
                .iter()
                .copied()
                .find(|&f| v.body(f) == &want[..])
                .unwrap_or_else(|| panic!("rule {head} :- {body:?} not found"))
        }

        #[test]
        fn example2_statuses_in_c1() {
            // Example 2 of the paper, checked verbatim.
            let (mut w, g) = ground(FIG1);
            let c1 = CompId(1); // parse order: c2 is component 0, c1 is 1
            assert_eq!(g.view(c1).len(), 9);
            let v = FlatView::new(&g, c1);
            let i = i1(&mut w);

            // `fly(penguin) :- bird(penguin)` is applicable but overruled
            // by the applied rule `-fly(penguin) :- ground_animal(penguin)`.
            let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
            assert!(v.applicable(fly_peng, &i));
            assert!(!v.applied(fly_peng, &i));
            assert!(v.overruled(fly_peng, &i));
            assert!(v.overruled_by_applied(fly_peng, &i));
            assert!(!v.defeated(fly_peng, &i));

            let nofly_peng = find_rule(&mut w, &v, "-fly(penguin)", &["ground_animal(penguin)"]);
            assert!(v.applied(nofly_peng, &i));
            assert!(!v.overruled(nofly_peng, &i));

            // `-fly(pigeon) :- ground_animal(pigeon)` is both blocked and
            // non-applicable.
            let nofly_pig = find_rule(&mut w, &v, "-fly(pigeon)", &["ground_animal(pigeon)"]);
            assert!(v.blocked(nofly_pig, &i));
            assert!(!v.applicable(nofly_pig, &i));
        }

        #[test]
        fn example2_defeating_in_collapsed_program() {
            // P̂1: all rules in a single component — overruling becomes
            // mutual defeating.
            let (mut w, g) = ground(
                "bird(penguin). bird(pigeon).
                 fly(X) :- bird(X).
                 -ground_animal(X) :- bird(X).
                 ground_animal(penguin).
                 -fly(X) :- ground_animal(X).",
            );
            let v = FlatView::new(&g, CompId(0));
            let i = i1(&mut w);

            let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
            assert!(v.applicable(fly_peng, &i));
            assert!(v.defeated(fly_peng, &i), "defeated by -fly(penguin) rule");
            assert!(!v.overruled(fly_peng, &i), "no strictly lower component");

            // The applied fact ground_animal(penguin) is defeated by the
            // applicable rule -ground_animal(penguin) :- bird(penguin).
            let ga_fact = find_rule(&mut w, &v, "ground_animal(penguin)", &[]);
            assert!(v.applied(ga_fact, &i));
            assert!(v.defeated(ga_fact, &i));
        }

        #[test]
        fn view_of_upper_component_ignores_lower_rules() {
            let (mut w, g) = ground(FIG1);
            let c2 = CompId(0);
            let v = FlatView::new(&g, c2);
            assert_eq!(v.len(), 6);
            // In C2's own view there is no -fly rule at all: fly(penguin)
            // has no attackers.
            let fly_peng = find_rule(&mut w, &v, "fly(penguin)", &["bird(penguin)"]);
            assert!(v.overrulers(fly_peng).is_empty());
            assert!(v.defeaters(fly_peng).is_empty());
        }

        #[test]
        fn attack_lists_are_transposed_consistently() {
            let (_, g) = ground(FIG1);
            let v = FlatView::new(&g, CompId(1));
            for f in 0..v.len() as FlatIdx {
                for &a in v.overrulers(f) {
                    assert!(v.victims_overrule(a).contains(&f));
                }
                for &a in v.defeaters(f) {
                    assert!(v.victims_defeat(a).contains(&f));
                }
            }
        }

        #[test]
        fn mutual_defeats_lint() {
            // Fig. 2: rich/poor facts and rules defeat across
            // incomparable components; Fig. 1's ordered version has no
            // mutual defeats.
            let (w, g) = ground(FIG2);
            let conflicts = FlatView::new(&g, CompId(2)).mutual_defeats();
            // rich(mimmo) and poor(mimmo) are each contested.
            let heads: Vec<String> = conflicts.iter().map(|&(h, _, _)| w.glit_str(h)).collect();
            assert!(heads.contains(&"rich(mimmo)".to_string()), "{heads:?}");
            assert!(heads.contains(&"poor(mimmo)".to_string()));

            let (_, g1) = ground(
                "module c2 { bird(t). fly(X) :- bird(X). }
                 module c1 < c2 { -fly(X) :- bird(X). }",
            );
            assert!(
                FlatView::new(&g1, CompId(1)).mutual_defeats().is_empty(),
                "ordered contradiction is overruling, not mutual defeat"
            );
        }

        #[test]
        fn blocked_requires_complement_not_absence() {
            let (mut w, g) = ground(FIG1);
            let v = FlatView::new(&g, CompId(1));
            let empty = Interpretation::new();
            let nofly_pig = find_rule(&mut w, &v, "-fly(pigeon)", &["ground_animal(pigeon)"]);
            // Under the empty interpretation nothing is blocked.
            assert!(!v.blocked(nofly_pig, &empty));
            assert!(!v.applicable(nofly_pig, &empty));
        }
    }

    mod patch_props {
        use super::*;
        use olp_core::Order;
        use proptest::prelude::*;

        const N_ATOMS: usize = 5;

        /// Two components, `c0 < c1`: every attack is overruling or
        /// same-component defeat.
        fn order2() -> Order {
            Order::from_edges(2, &[(CompId(0), CompId(1))]).unwrap()
        }

        /// Three components with `c1` and `c2` incomparable above `c0`:
        /// the view of `c0` holds cross-component defeat.
        fn order3() -> Order {
            Order::from_edges(3, &[(CompId(0), CompId(1)), (CompId(0), CompId(2))]).unwrap()
        }

        fn arb_rule() -> impl Strategy<Value = GroundRule> {
            (
                any::<bool>(),
                0..N_ATOMS as u32,
                0..3u32,
                proptest::collection::vec((any::<bool>(), 0..N_ATOMS as u32), 0..3),
            )
                .prop_map(|(hp, ha, comp, body)| {
                    let lit = |p: bool, a: u32| {
                        if p {
                            GLit::pos(AtomId(a))
                        } else {
                            GLit::neg(AtomId(a))
                        }
                    };
                    GroundRule::new(
                        lit(hp, ha),
                        body.into_iter().map(|(p, a)| lit(p, a)).collect(),
                        CompId(comp),
                    )
                })
        }

        proptest! {
            /// Fresh arenas satisfy every invariant, and a patched view
            /// is structurally equivalent to a from-scratch rebuild:
            /// same rule multiset as the new program's view, program
            /// order within strata, and every arena invariant —
            /// strata topological, attacks equal to the brute-force
            /// recomputation, watches consistent. (Byte-identical
            /// *models* through the patched arenas are proven
            /// end-to-end by the differential proptest in
            /// `tests/incremental.rs`.)
            #[test]
            fn patch_is_structurally_equivalent_to_rebuild(
                base in proptest::collection::vec(arb_rule(), 1..12),
                adds in proptest::collection::vec(arb_rule(), 0..4),
                remove_mask in any::<u16>(),
                incomparable in any::<bool>(),
            ) {
                let (order, n_comps) = if incomparable { (order3(), 3) } else { (order2(), 2) };
                let in_range = |r: &GroundRule| {
                    GroundRule { comp: CompId(r.comp.0 % n_comps), ..r.clone() }
                };
                let base: Vec<GroundRule> = base.iter().map(in_range).collect();
                let old = GroundProgram::new(base, order.clone(), N_ATOMS);
                let mut kept: Vec<GroundRule> = old
                    .rules
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| remove_mask & (1 << (i % 16)) == 0)
                    .map(|(_, r)| r.clone())
                    .collect();
                kept.extend(adds.iter().map(in_range));
                let new = GroundProgram::new(kept, order, N_ATOMS);
                let delta = crate::delta::GroundDelta::between(&old, &new);
                for c in 0..n_comps {
                    let c = CompId(c);
                    let fv = FlatView::new(&old, c);
                    check_well_formed(&fv, &old);
                    check_well_formed(&FlatView::new(&new, c), &new);
                    let (added, removed) = delta.for_view(&old, &new, c);
                    let refs: Vec<&GroundRule> =
                        removed.iter().map(|&i| &old.rules[i as usize]).collect();
                    let flat_removed = fv.locate(&refs);
                    prop_assert!(
                        flat_removed.is_some(),
                        "a view must contain its removed rules"
                    );
                    match fv.apply_delta(&new, &added, &flat_removed.unwrap()) {
                        FlatPatch::Patched(p) => {
                            check_well_formed(&p, &new);
                            assert_matches_view(&p, &new, c);
                        }
                        FlatPatch::Rebuild => {} // honest fallback
                    }
                }
            }
        }
    }
}

//! `query_mix`: seeded reads on one warm `KbSnapshot`, the server's
//! read path, with no grounding at all.
//!
//! The KB holds Fig. 1 scaled as a taxonomy (`SPECIES` species under
//! `LAYERS` exception layers, object `layer0` the most specific) and a
//! `choices` object of `GROUPS` independent copies of Example 5's
//! program P5, each with two stable models. `why`, `skeptical`,
//! `credulous` and `stable` rebuild an interpretive view and enumerate
//! stable models per query, so a change to query-time semantics shows
//! here and a grounding change should not.

use crate::report::{self, Outcome};
use crate::rng::Rng;
use crate::sys;
use crate::trace::{ms, Tracer};
use crate::RunCfg;
use olp_workload::{taxonomy_chain, taxonomy_expected_fly};
use ordered_logic::core::{Eval, GLit, Interpretation, InterruptReason, Truth, World};
use ordered_logic::kb::{GroundStrategy, KbBuilder, KbError, KbSnapshot};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Species in the taxonomy.
pub const SPECIES: usize = 1024;
/// Exception layers below the general one.
pub const LAYERS: usize = 4;
/// Independent P5 groups in `choices` (2^GROUPS stable models).
pub const GROUPS: usize = 10;
/// `max_models` of the `stable` read.
pub const STABLE_CAP: usize = 16;

/// One read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `truth fly(sJ)` in `layer0`.
    Truth(usize),
    /// `fly(X)` in `layer0`.
    Pattern,
    /// `why fly(sJ)` in `layer0`.
    Why(usize),
    /// `stable` in `choices`, at most [`STABLE_CAP`] models.
    Stable,
    /// `skeptical` in `choices`.
    Skeptical,
    /// `credulous` in `choices`.
    CredulousChoices,
    /// `credulous` in `layer0` (a single-model view).
    CredulousTaxonomy,
}

/// Makes a read of its class for a species.
type MakeRead = fn(usize) -> Read;

/// The mix, in per mille: truth 35 %, pattern 10 %, stable 10 %,
/// skeptical 20 %, credulous in `choices` 10 %, why 10 %, credulous in
/// `layer0` 5 %. In that order each class costs more than the one before
/// it, so the median falls in the middle of the pattern and stable reads
/// and the 90th percentile in the middle of the `why` reads; on a
/// boundary between two classes a percentile would jump from run to run.
const MIX: [(u64, MakeRead); 7] = [
    (350, Read::Truth),
    (100, |_| Read::Pattern),
    (100, |_| Read::Stable),
    (200, |_| Read::Skeptical),
    (100, |_| Read::CredulousChoices),
    (100, Read::Why),
    (50, |_| Read::CredulousTaxonomy),
];

impl Read {
    /// The span (and read class) this read is timed under.
    fn span(self) -> &'static str {
        match self {
            Read::Truth(_) => "semantics.truth",
            Read::Pattern => "semantics.pattern",
            Read::Why(_) => "semantics.why",
            Read::Stable => "semantics.stable",
            Read::Skeptical => "semantics.skeptical",
            Read::CredulousChoices | Read::CredulousTaxonomy => "semantics.credulous",
        }
    }
}

/// The seeded read sequence.
pub struct Reads(Rng);

impl Reads {
    /// Reads for `seed`.
    pub fn new(seed: u64) -> Reads {
        Reads(Rng::stream(seed, 0))
    }
}

impl Iterator for Reads {
    type Item = Read;

    fn next(&mut self) -> Option<Read> {
        let mut pick = self.0.below(1000);
        let species = self.0.below(SPECIES as u64) as usize;
        for (weight, make) in MIX {
            if pick < weight {
                return Some(make(species));
            }
            pick -= weight;
        }
        unreachable!("the mix weights sum to 1000")
    }
}

/// Example 5 (P5) `GROUPS` times over: the facts object and the rules
/// object, as source text.
pub fn p5_text(groups: usize) -> (String, String) {
    let mut facts = String::new();
    let mut rules = String::new();
    for i in 0..groups {
        facts.push_str(&format!("a{i}. b{i}. c{i}.\n"));
        rules.push_str(&format!(
            "-a{i} :- b{i}, c{i}.\n-b{i} :- a{i}.\n-b{i} :- -b{i}.\n"
        ));
    }
    (facts, rules)
}

/// The answers the oracle expects, computed from the generators'
/// analytic ground truth rather than from the engine.
pub struct Expected {
    groups: usize,
    species: usize,
    layers: usize,
    pattern: Vec<String>,
    taxonomy_model: BTreeSet<String>,
}

impl Expected {
    /// The answers for a taxonomy of `species` × `layers` and `groups`
    /// P5 copies.
    pub fn new(species: usize, layers: usize, groups: usize) -> Expected {
        let fly = |s| taxonomy_expected_fly(species, layers, s);
        let mut pattern: Vec<String> = (0..species)
            .filter(|&s| fly(s))
            .map(|s| format!("X=s{s}"))
            .collect();
        pattern.sort();
        // layer0's least model: every bird; each class fact where the
        // layer covers the species and its closed-world default
        // elsewhere; the flying verdict.
        let mut model = BTreeSet::new();
        for s in 0..species {
            model.insert(format!("bird(s{s})"));
            for depth in 1..=layers {
                let sign = if s < species >> depth { "" } else { "-" };
                model.insert(format!("{sign}class{depth}(s{s})"));
            }
            model.insert(format!("{}fly(s{s})", if fly(s) { "" } else { "-" }));
        }
        Expected {
            groups,
            species,
            layers,
            pattern,
            taxonomy_model: model,
        }
    }

    fn fly(&self, s: usize) -> bool {
        taxonomy_expected_fly(self.species, self.layers, s)
    }

    /// Whether `model` is one of P5's two stable models in every group:
    /// `{a, -b, c}` or `{-a, b, c}`.
    fn is_p5_model(&self, model: &BTreeSet<String>) -> bool {
        model.len() == 3 * self.groups
            && (0..self.groups).all(|i| {
                let has = |l: String| model.contains(&l);
                has(format!("c{i}"))
                    && ((has(format!("a{i}")) && has(format!("-b{i}")))
                        || (has(format!("-a{i}")) && has(format!("b{i}"))))
            })
    }

    fn skeptical(&self) -> BTreeSet<String> {
        (0..self.groups).map(|i| format!("c{i}")).collect()
    }

    fn credulous_choices(&self) -> BTreeSet<String> {
        (0..self.groups)
            .flat_map(|i| ["a", "-a", "b", "-b", "c"].map(|p| format!("{}{i}", p)))
            .collect()
    }
}

/// The raw answer to one read.
pub enum Answer {
    /// A `truth` verdict.
    Truth(Eval<Truth>),
    /// Pattern bindings.
    Bindings(Eval<Vec<String>>),
    /// A `why` explanation.
    Text(Eval<String>),
    /// Stable models.
    Models(Eval<Vec<Interpretation>>),
    /// Skeptical consequences.
    Model(Eval<Interpretation>),
    /// Credulous consequences.
    Literals(Eval<Vec<GLit>>),
}

/// Issues one read on the snapshot: the timed part of an operation.
pub fn issue(snap: &KbSnapshot, r: Read) -> Result<Answer, KbError> {
    let opts = snap.default_opts();
    Ok(match r {
        Read::Truth(s) => Answer::Truth(snap.truth_with("layer0", &format!("fly(s{s})"), &opts)?),
        Read::Pattern => Answer::Bindings(snap.query_with("layer0", "fly(X)", &opts)?),
        Read::Why(s) => Answer::Text(snap.explain_with("layer0", &format!("fly(s{s})"), &opts)?),
        // One thread: at the default thread count the parallel
        // enumerator answers a capped query with partial interpretations
        // that are not stable models (README.md, "Findings").
        Read::Stable => {
            Answer::Models(snap.stable_with("choices", &opts.threads(1).max_models(STABLE_CAP))?)
        }
        Read::Skeptical => Answer::Model(snap.skeptical_with("choices", &opts)?),
        Read::CredulousChoices => Answer::Literals(snap.credulous_with("choices", &opts)?),
        Read::CredulousTaxonomy => Answer::Literals(snap.credulous_with("layer0", &opts)?),
    })
}

/// Checks the answer to `r` against the oracle: `Err` describes a
/// wrong one.
pub fn check(snap: &KbSnapshot, want: &Expected, r: Read, answer: Answer) -> Result<(), String> {
    let render = |ls: &mut dyn Iterator<Item = GLit>| -> BTreeSet<String> {
        ls.map(|l| snap.render_glit(l)).collect()
    };
    match (r, answer) {
        (Read::Truth(s), Answer::Truth(got)) => {
            let ok = if want.fly(s) {
                Truth::True
            } else {
                Truth::False
            };
            match got {
                Eval::Complete(t) if t == ok => Ok(()),
                other => Err(format!("truth fly(s{s}): {other:?}, expected {ok}")),
            }
        }
        (Read::Pattern, Answer::Bindings(Eval::Complete(a))) if a == want.pattern => Ok(()),
        (Read::Why(s), Answer::Text(Eval::Complete(text))) => {
            let proved = text.starts_with(&format!("fly(s{s}) — by"));
            let refuted = text.starts_with("not derivable");
            if (want.fly(s) && proved) || (!want.fly(s) && refuted) {
                Ok(())
            } else {
                Err(format!(
                    "why fly(s{s}): {}",
                    text.lines().next().unwrap_or("")
                ))
            }
        }
        (Read::Stable, Answer::Models(got)) => {
            let models = match got {
                Eval::Complete(m) => m,
                Eval::Interrupted(i) if i.reason == InterruptReason::ModelCap => i.partial,
                Eval::Interrupted(i) => return Err(format!("stable: {:?}", i.reason)),
            };
            let sets: Vec<BTreeSet<String>> =
                models.iter().map(|m| render(&mut m.literals())).collect();
            let distinct: HashSet<&BTreeSet<String>> = sets.iter().collect();
            if sets.len() == STABLE_CAP
                && distinct.len() == STABLE_CAP
                && sets.iter().all(|m| want.is_p5_model(m))
            {
                Ok(())
            } else {
                Err(format!(
                    "stable: {} models, {} distinct",
                    sets.len(),
                    distinct.len()
                ))
            }
        }
        (Read::Skeptical, Answer::Model(Eval::Complete(i)))
            if render(&mut i.literals()) == want.skeptical() =>
        {
            Ok(())
        }
        (Read::CredulousChoices, Answer::Literals(Eval::Complete(ls)))
            if render(&mut ls.iter().copied()) == want.credulous_choices() =>
        {
            Ok(())
        }
        (Read::CredulousTaxonomy, Answer::Literals(Eval::Complete(ls)))
            if render(&mut ls.iter().copied()) == want.taxonomy_model =>
        {
            Ok(())
        }
        (r, _) => Err(format!("{r:?}: answer differs from the oracle")),
    }
}

/// [`issue`] then [`check`].
fn read(snap: &KbSnapshot, want: &Expected, r: Read) -> Result<(), String> {
    let answer = issue(snap, r).map_err(|e| e.to_string())?;
    check(snap, want, r, answer)
}

/// Builds the KB and publishes the warm snapshot the reads run on:
/// returns it with the ground rule count of the two queried objects.
fn build() -> Result<(Arc<KbSnapshot>, usize), String> {
    let err = |e: KbError| e.to_string();
    let mut world = World::new();
    let taxonomy = taxonomy_chain(&mut world, SPECIES, LAYERS);
    let mut b = KbBuilder::from_parts(world, taxonomy);
    let (facts, rules) = p5_text(GROUPS);
    b.rules("p5base", &facts).map_err(err)?;
    b.rules("choices", &rules).map_err(err)?;
    b.isa("choices", "p5base");
    let mut kb = b.build(GroundStrategy::Smart).map_err(err)?;
    let mut n_rules = 0;
    for object in ["layer0", "choices"] {
        kb.component_profile(object).map_err(err)?;
        n_rules += kb.flat_view(object).map_err(err)?.len();
        kb.model(object).map_err(err)?;
    }
    Ok((kb.snapshot(), n_rules))
}

/// One set-up: builds the KB and its warm snapshot, then runs every
/// read class once, since caches fill on first use.
fn set_up(out: &mut Outcome, want: &Expected) -> Result<(Arc<KbSnapshot>, usize), String> {
    let warm = [
        Read::Truth(0),
        Read::Pattern,
        Read::Why(0),
        Read::Stable,
        Read::Skeptical,
        Read::CredulousChoices,
        Read::CredulousTaxonomy,
    ];
    let start = Instant::now();
    let (snap, n_rules) = build()?;
    for r in warm {
        read(&snap, want, r)?;
    }
    out.setups_s.push(start.elapsed().as_secs_f64());
    Ok((snap, n_rules))
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let want = Expected::new(SPECIES, LAYERS, GROUPS);
    let clock = cfg.clock(report::PERCENTILES[1]);
    // The first set-up's snapshot serves the reads; the later ones are
    // timed and dropped.
    let (snap, n_rules) = set_up(&mut out, &want)?;
    let mut t = Tracer::new(cfg.trace);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut traced_ops = BTreeSet::new();
    for (op, r) in (0u64..).zip(Reads::new(cfg.seed)) {
        if clock.done(out.samples.len()) {
            break;
        }
        if clock.setup_due(out.setups_s.len()) {
            set_up(&mut out, &want)?;
        }
        let (cpu0, t0) = (sys::process_cpu(), Instant::now());
        let root = t.begin("op", op);
        let answer = t.time(r.span(), op, || issue(&snap, r));
        t.end(root);
        let (t1, cpu1) = (Instant::now(), sys::process_cpu());
        out.attempted += 1;
        let lat = ms(t1 - t0);
        out.record(clock.seconds(t1), lat, (cpu1 - cpu0).as_secs_f64());
        if cfg.traced(op) {
            traced.push(lat);
            traced_ops.insert(op);
        } else {
            untraced.push(lat);
        }
        match answer {
            Ok(a) => {
                if let Err(e) = check(&snap, &want, r, a) {
                    out.wrong(e);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("op {op}: {e}"));
            }
        }
    }
    out.peak_rss_mib = sys::peak_rss_mib(None).map_err(|e| e.to_string())?;
    if cfg.trace {
        let own = t.self_ms_by_name(|s| traced_ops.contains(&s.op));
        out.layers = report::layer_values(&traced, &untraced, &own);
        out.layers.insert("ground.rules".into(), n_rules as f64);
        out.layers
            .insert("core.atoms".into(), snap.world().atoms.len() as f64);
    }
    cfg.finish_trace(&t, "query_mix", &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_read_sequence_is_a_function_of_the_seed() {
        let a: Vec<Read> = Reads::new(42).take(500).collect();
        assert_eq!(a, Reads::new(42).take(500).collect::<Vec<_>>());
        assert_ne!(a, Reads::new(43).take(500).collect::<Vec<_>>());
        let n = 20_000;
        let truths = Reads::new(1)
            .take(n)
            .filter(|r| matches!(r, Read::Truth(_)))
            .count();
        assert!((0.33..0.37).contains(&(truths as f64 / n as f64)));
        assert_eq!(MIX.iter().map(|m| m.0).sum::<u64>(), 1000);
    }

    #[test]
    fn every_read_class_is_checked_on_a_small_kb() {
        let (species, layers, groups) = (16, 3, 2);
        let mut world = World::new();
        let taxonomy = taxonomy_chain(&mut world, species, layers);
        let mut b = KbBuilder::from_parts(world, taxonomy);
        let (facts, rules) = p5_text(groups);
        b.rules("p5base", &facts).unwrap();
        b.rules("choices", &rules).unwrap();
        b.isa("choices", "p5base");
        let mut kb = b.build(GroundStrategy::Smart).unwrap();
        kb.component_profile("layer0").unwrap();
        let snap = kb.snapshot();
        let want = Expected::new(species, layers, groups);
        for s in 0..species {
            read(&snap, &want, Read::Truth(s)).unwrap();
            read(&snap, &want, Read::Why(s)).unwrap();
        }
        read(&snap, &want, Read::Pattern).unwrap();
        read(&snap, &want, Read::Skeptical).unwrap();
        read(&snap, &want, Read::CredulousChoices).unwrap();
        read(&snap, &want, Read::CredulousTaxonomy).unwrap();
        // Two groups have four stable models, fewer than the cap.
        assert!(read(&snap, &want, Read::Stable)
            .unwrap_err()
            .contains("4 models"));
        // A wrong expectation is caught.
        let wrong = Expected::new(species, layers + 1, groups);
        assert!((0..species).any(|s| read(&snap, &wrong, Read::Truth(s)).is_err()));
        assert!(read(&snap, &wrong, Read::CredulousTaxonomy).is_err());
    }

    #[test]
    fn p5_models_are_recognised() {
        let want = Expected::new(4, 1, 2);
        let set = |ls: &[&str]| ls.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
        assert!(want.is_p5_model(&set(&["a0", "-b0", "c0", "-a1", "b1", "c1"])));
        assert!(!want.is_p5_model(&set(&["a0", "b0", "c0", "-a1", "b1", "c1"])));
        assert!(!want.is_p5_model(&set(&["a0", "-b0", "-a1", "b1", "c1", "c0", "x"])));
        assert_eq!(want.credulous_choices().len(), 10);
    }
}

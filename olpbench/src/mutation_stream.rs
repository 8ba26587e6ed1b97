//! `mutation_stream`: writes beside reads on one in-memory `Kb`.
//!
//! The stream is `olp_workload::mutation_stream` over a base ancestor
//! chain of `N_BASE` nodes: asserts and retracts of `parent` edges,
//! some attached to the chain. Each operation is one write followed by
//! one `truth anc(a0,aJ)` read. The run is a sequence of episodes of
//! `EPISODE` mutations, each on a freshly built `Kb`, so every run
//! measures the same positions of the stream whatever its speed. The
//! commit path (delta grounding, commit diff, arena patch, lazy
//! revalidation) does most of the work.

use crate::report::{self, Outcome};
use crate::rng::Rng;
use crate::sys;
use crate::trace::{ms, Tracer};
use crate::{stats, RunCfg};
use olp_workload::{mutation_stream, Mutation, MutationCfg};
use ordered_logic::core::{Budget, OrderedProgram, Truth, World};
use ordered_logic::ground::{DeltaGrounder, GroundConfig};
use ordered_logic::kb::{GroundStrategy, Kb, KbBuilder, KbError};
use ordered_logic::parser::{parse_program, parse_rule};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Length of the base `parent` chain.
pub const N_BASE: usize = 192;
/// Mutations per episode.
pub const EPISODE: usize = 300;
/// A retract replays the delta grounder and costs about five asserts;
/// with a quarter of the writes retracts, the median is an assert and
/// the 90th percentile a retract, neither on the boundary between them.
pub const RETRACT_PROB: f64 = 0.25;

/// The base program and mutations of episode `episode` of `seed`.
pub fn episode(seed: u64, episode: u64) -> (String, Vec<Mutation>) {
    let cfg = MutationCfg {
        n_base: N_BASE,
        n_mutations: EPISODE,
        retract_prob: RETRACT_PROB,
        attach_prob: 0.25,
    };
    mutation_stream(&cfg, Rng::stream(seed, episode).next_u64())
}

/// The chain node each operation's read asks about (`anc(a0, aJ)`).
pub fn read_targets(seed: u64, episode: u64) -> impl Iterator<Item = usize> {
    let mut rng = Rng::stream(seed, (1 << 32) | episode);
    std::iter::repeat_with(move || 1 + rng.below(N_BASE as u64 - 1) as usize)
}

fn build(text: &str) -> Result<Kb, KbError> {
    let mut b = KbBuilder::new();
    b.rules("main", text)?;
    let mut kb = b.build(GroundStrategy::Smart)?;
    kb.model("main")?;
    Ok(kb)
}

/// Applies one mutation; a retract that finds nothing is wrong, since
/// the stream only retracts live rules.
fn write(kb: &mut Kb, t: &mut Tracer, op: u64, m: &Mutation) -> Result<bool, KbError> {
    match m {
        Mutation::Assert { object, rule } => {
            t.time("kb.assert", op, || kb.assert_rule(object, rule))?;
            Ok(true)
        }
        Mutation::Retract { object, rule } => {
            t.time("kb.retract", op, || kb.retract_rule(object, rule))
        }
    }
}

/// The oracle for the end of an episode: a `Kb` rebuilt from the base
/// plus the rules still live must answer every `parent` and `anc` query
/// as the mutated one does.
pub fn matches_rebuild(kb: &mut Kb, base: &str, applied: &[Mutation]) -> Result<bool, KbError> {
    let mut live: Vec<&str> = Vec::new();
    for m in applied {
        match m {
            Mutation::Assert { rule, .. } => live.push(rule),
            Mutation::Retract { rule, .. } => live.retain(|r| r != rule),
        }
    }
    let mut fresh = build(&format!("{base}{}\n", live.join("\n")))?;
    for q in ["parent(X,Y)", "anc(X,Y)"] {
        if kb.query("main", q)? != fresh.query("main", q)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Replays `ops` on a bare delta grounder, timing each call: the
/// grounding part of each write.
fn replay_grounder(t: &mut Tracer, base: &str, ops: &[(u64, Mutation)]) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut world = World::new();
    let mut prog = OrderedProgram::new();
    let main = prog.add_component(world.syms.intern("main"));
    for comp in parse_program(&mut world, base)
        .map_err(|e| err(&e))?
        .components
    {
        for r in comp.rules {
            prog.add_rule(main, r);
        }
    }
    let (mut g, _) =
        DeltaGrounder::new(&mut world, &prog, &GroundConfig::default()).map_err(|e| err(&e))?;
    let mut ids = HashMap::new();
    let gov = Budget::unlimited();
    for (op, m) in ops {
        match m {
            Mutation::Assert { rule, .. } => {
                let r = parse_rule(&mut world, rule).map_err(|e| err(&e))?;
                let res = t.time("ground.assert_rule", *op, || {
                    g.assert_rule(&mut world, main, &r, &gov)
                });
                let (id, _program) = res.map_err(|e| err(&e))?;
                ids.insert(rule.clone(), id);
            }
            Mutation::Retract { rule, .. } => {
                let id = ids
                    .remove(rule)
                    .ok_or("replayed retract of a rule never asserted")?;
                t.time("ground.retract_rule", *op, || {
                    g.retract_rule(&mut world, id, &gov)
                })
                .map_err(|e| err(&e))?;
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let err = |e: KbError| e.to_string();
    let mut out = Outcome::default();
    let mut t = Tracer::new(cfg.trace);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut traced_ops = BTreeSet::new();
    let mut drifts = Vec::new();
    let mut replays = Vec::new();
    let (mut rules, mut atoms) = (0, 0);
    let clock = cfg.clock(report::PERCENTILES[1]);
    let mut op = 0u64;
    for e in 0u64.. {
        let (base, muts) = episode(cfg.seed, e);
        // Each episode's base `Kb` is a set-up, so set-ups are spread
        // over the run like the operations.
        let start = Instant::now();
        let mut kb = build(&base).map_err(err)?;
        out.setups_s.push(start.elapsed().as_secs_f64());
        let mut applied = Vec::new();
        let mut write_ms = Vec::new();
        for (m, j) in muts.iter().zip(read_targets(cfg.seed, e)) {
            if clock.done(out.samples.len()) {
                break;
            }
            let query = format!("anc(a0, a{j})");
            let (cpu0, t0) = (sys::process_cpu(), Instant::now());
            let root = t.begin("op", op);
            let wrote = write(&mut kb, &mut t, op, m);
            let tw = Instant::now();
            let truth = t.time("semantics.truth", op, || kb.truth("main", &query));
            t.end(root);
            let (t1, cpu1) = (Instant::now(), sys::process_cpu());
            out.attempted += 1;
            let lat = ms(t1 - t0);
            out.record(clock.seconds(t1), lat, (cpu1 - cpu0).as_secs_f64());
            write_ms.push(ms(tw - t0));
            if cfg.traced(op) {
                traced.push(lat);
                traced_ops.insert(op);
            } else {
                untraced.push(lat);
            }
            match (wrote, truth) {
                (Err(e), _) | (_, Err(e)) => {
                    out.failed += 1;
                    out.notes.push(format!("op {op}: {e}"));
                }
                (Ok(false), _) => out.wrong(format!(
                    "op {op}: retract of live `{}` removed nothing",
                    m.rule()
                )),
                (Ok(true), Ok(Truth::True)) => {}
                (Ok(true), Ok(v)) => out.wrong(format!(
                    "op {op}: {query} is {v}, the base chain makes it true"
                )),
            }
            applied.push((op, m.clone()));
            op += 1;
        }
        let muts_done: Vec<Mutation> = applied.iter().map(|(_, m)| m.clone()).collect();
        if !matches_rebuild(&mut kb, &base, &muts_done).map_err(err)? {
            out.wrong(format!(
                "episode {e}: final model differs from a fresh rebuild"
            ));
        }
        if write_ms.len() == EPISODE || drifts.is_empty() {
            let q = write_ms.len() / 4;
            if q > 0 {
                let first = stats::mean(&write_ms[..q]);
                let last = stats::mean(&write_ms[write_ms.len() - q..]);
                drifts.push(last / first);
            }
        }
        if cfg.trace {
            rules = kb.flat_view("main").map_err(err)?.len();
            atoms = kb.snapshot().world().atoms.len();
            replays.push((base, applied));
        }
        if clock.done(out.samples.len()) {
            break;
        }
    }
    out.peak_rss_mib = sys::peak_rss_mib(None).map_err(|e| e.to_string())?;
    if cfg.trace {
        for (base, ops) in &replays {
            replay_grounder(&mut t, base, ops)?;
        }
        let mut own = t.self_ms_by_name(|s| traced_ops.contains(&s.op));
        // The grounder's share of each write moves from `kb` to `ground`.
        for (write, ground) in [
            ("kb.assert", "ground.assert_rule"),
            ("kb.retract", "ground.retract_rule"),
        ] {
            let g = own.get(ground).copied().unwrap_or(0.0);
            if let Some(w) = own.get_mut(write) {
                *w -= g;
            }
        }
        out.layers = report::layer_values(&traced, &untraced, &own);
        out.layers.insert("ground.rules".into(), rules as f64);
        out.layers.insert("core.atoms".into(), atoms as f64);
        out.layers
            .insert("kb.write_drift".into(), stats::mean(&drifts));
    }
    cfg.finish_trace(&t, "mutation_stream", &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_are_a_function_of_the_seed() {
        assert_eq!(episode(42, 0), episode(42, 0));
        assert_ne!(episode(42, 0).1, episode(42, 1).1);
        assert_ne!(episode(42, 0).1, episode(43, 0).1);
        let a: Vec<usize> = read_targets(42, 0).take(100).collect();
        assert_eq!(a, read_targets(42, 0).take(100).collect::<Vec<_>>());
        assert!(a.iter().all(|&j| (1..N_BASE).contains(&j)));
    }

    #[test]
    fn the_rebuild_oracle_accepts_the_stream_and_rejects_another_program() {
        let cfg = MutationCfg {
            n_base: 8,
            n_mutations: 24,
            retract_prob: 0.5,
            attach_prob: 0.25,
        };
        let (base, muts) = mutation_stream(&cfg, 3);
        let mut kb = build(&base).unwrap();
        let mut t = Tracer::new(false);
        for (op, m) in (0..).zip(&muts) {
            assert!(write(&mut kb, &mut t, op, m).unwrap());
            assert_eq!(kb.truth("main", "anc(a0, a7)").unwrap(), Truth::True);
        }
        assert!(matches_rebuild(&mut kb, &base, &muts).unwrap());
        let mut extra = muts.clone();
        extra.push(Mutation::Assert {
            object: "main".to_string(),
            rule: "parent(a7, z).".to_string(),
        });
        assert!(!matches_rebuild(&mut kb, &base, &extra).unwrap());
    }

    #[test]
    fn the_grounder_replays_the_stream() {
        let (base, muts) = mutation_stream(&MutationCfg::default(), 9);
        let ops: Vec<(u64, Mutation)> = (0..).zip(muts).collect();
        let mut t = Tracer::new(true);
        replay_grounder(&mut t, &base, &ops).unwrap();
        assert_eq!(t.spans().len(), ops.len());
    }
}

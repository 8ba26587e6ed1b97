//! `cold_ancestor`: the one-shot `olp` path, solved cold in a fresh
//! `Kb` per operation.
//!
//! Each operation takes one seeded random graph (Example 6's ancestor
//! program with `OUT_DEGREE` `parent` edges out of every node, as
//! surface text) through parse → ground → profile → flatten → least model →
//! render every `anc(X,Y)` answer. Every operation draws a new graph, so
//! medians average over graph shapes rather than depend on one seed's
//! graph. Every `LARGE_EVERY`-th graph has `LARGE_NODES` nodes and the
//! rest `NODES`: the 90th percentile is then the median large solve and
//! the median a small one, instead of a tail that only measures
//! interference from other tenants of the host. Grounding does most of
//! the work, so a grounding change shows here and a change to
//! query-time semantics should not.
//!
//! A set-up is the same solve as a user runs it: `olp query FILE main
//! 'anc(X,Y)'` on a small graph, from spawn to exit, in a process of its
//! own. Work moved out of each solve into once-per-process
//! initialisation shows there.

use crate::report::{self, Outcome};
use crate::rng::{mix, Rng};
use crate::trace::{ms, Tracer};
use crate::RunCfg;
use crate::{stats, sys};
use ordered_logic::kb::{GroundStrategy, Kb, KbBuilder, KbError};
use std::collections::{BTreeSet, VecDeque};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Nodes of a small graph.
pub const NODES: usize = 80;
/// Nodes of a large graph: about three times a small one's work, so a
/// small solve slowed twofold by the host still finishes before a large
/// one.
pub const LARGE_NODES: usize = 128;
/// One graph in this many is large: a fifth of the solves, so the 90th
/// percentile falls mid-way through the large ones and the median well
/// inside the small ones.
pub const LARGE_EVERY: u64 = 5;
/// `parent` edges out of every node (targets drawn with replacement,
/// loops allowed). A fixed out-degree keeps the answer count, and so
/// the work, nearly the same for every graph of one size.
pub const OUT_DEGREE: usize = 3;
/// Graph indices used for set-up solves, disjoint from the loop's.
const SETUP_BASE: u64 = 1 << 40;

/// Nodes of graph `index`.
pub fn nodes(index: u64) -> usize {
    if index % LARGE_EVERY == LARGE_EVERY - 1 {
        LARGE_NODES
    } else {
        NODES
    }
}

/// The edges of graph `index` of `seed`.
pub fn graph(seed: u64, index: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::stream(seed, index);
    let n = nodes(index);
    (0..n as u32)
        .flat_map(|a| std::iter::repeat_n(a, OUT_DEGREE))
        .map(|a| (a, rng.below(n as u64) as u32))
        .collect()
}

/// The ancestor program over `edges`, as `olp` source text.
pub fn program_text(edges: &[(u32, u32)]) -> String {
    let mut text = String::with_capacity(edges.len() * 20 + 80);
    for (a, b) in edges {
        text.push_str(&format!("parent(n{a}, n{b}).\n"));
    }
    text.push_str("anc(X,Y) :- parent(X,Y).\nanc(X,Y) :- parent(X,Z), anc(Z,Y).\n");
    text
}

/// What the `anc/2` answer set must be: its size and an
/// order-independent hash of its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answers {
    /// Number of `(x, y)` pairs.
    pub count: usize,
    /// Wrapping sum of a hash of each pair.
    pub hash: u64,
}

impl Answers {
    fn add(&mut self, x: u32, y: u32) {
        self.count += 1;
        self.hash = self
            .hash
            .wrapping_add(mix((u64::from(x) << 32) | u64::from(y)));
    }
}

/// The oracle: `anc(x, y)` holds iff `y` is reachable from `x` over at
/// least one edge, found by a breadth-first search from every node.
pub fn expected(edges: &[(u32, u32)], nodes: usize) -> Answers {
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    for &(a, b) in edges {
        succ[a as usize].push(b);
    }
    let mut out = Answers { count: 0, hash: 0 };
    let mut seen = vec![false; nodes];
    let mut queue = VecDeque::new();
    for x in 0..nodes {
        seen.fill(false);
        queue.extend(succ[x].iter().copied());
        while let Some(y) = queue.pop_front() {
            if !std::mem::replace(&mut seen[y as usize], true) {
                out.add(x as u32, y);
                queue.extend(succ[y as usize].iter().copied());
            }
        }
    }
    out
}

/// Reads back the rendered answers (`X=n3, Y=n17`); `None` when one is
/// malformed.
pub fn answers_of(rendered: &[String]) -> Option<Answers> {
    let mut out = Answers { count: 0, hash: 0 };
    for r in rendered {
        let (x, y) = r.strip_prefix("X=n")?.split_once(", Y=n")?;
        out.add(x.parse().ok()?, y.parse().ok()?);
    }
    Some(out)
}

/// Checks a solve's answers against the reachability oracle.
fn check(out: &mut Outcome, edges: &[(u32, u32)], nodes: usize, got: &[String]) {
    let want = expected(edges, nodes);
    if answers_of(got) != Some(want) {
        out.wrong(format!(
            "anc/2: {} answers, the reachability oracle expects {}",
            got.len(),
            want.count
        ));
    }
}

/// One cold solve, with a span around each layer's call. The `Kb` is
/// returned so that freeing it falls outside the timed operation.
fn solve(t: &mut Tracer, op: u64, text: &str) -> Result<(Vec<String>, Kb), KbError> {
    let mut b = KbBuilder::new();
    t.time("parser.parse", op, || b.rules("main", text).map(|_| ()))?;
    let mut kb = t.time("ground.ground", op, || b.build(GroundStrategy::Smart))?;
    t.time("analyze.profile", op, || kb.component_profile("main"))?;
    t.time("flat.flatten", op, || kb.flat_view("main"))?;
    t.time("semantics.least", op, || kb.model("main").map(|_| ()))?;
    let answers = t.time("kb.render", op, || kb.query("main", "anc(X,Y)"))?;
    Ok((answers, kb))
}

/// Set-up number `n`: `olp query` on a small graph in a process of its
/// own, timed from spawn to exit; its printed answers (`X = n3, Y = n17`)
/// are checked like a solve's.
fn one_shot(cfg: &RunCfg, out: &mut Outcome, n: usize) -> Result<(), String> {
    let index = SETUP_BASE + n as u64 * LARGE_EVERY;
    let edges = graph(cfg.seed, index);
    let file = crate::work_dir()?.join(format!("cold_ancestor-{}.olp", std::process::id()));
    let text = format!("module main {{\n{}}}\n", program_text(&edges));
    std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    let olp = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("olp");
    let start = Instant::now();
    let run = Command::new(&olp)
        .arg("query")
        .arg(&file)
        .args(["main", "anc(X,Y)"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    out.setups_s.push(start.elapsed().as_secs_f64());
    let _ = std::fs::remove_file(&file);
    let run = run.map_err(|e| format!("cannot run {}: {e}", olp.display()))?;
    if !run.status.success() {
        return Err(format!("olp query exited with {}", run.status));
    }
    let answers: Vec<String> = String::from_utf8_lossy(&run.stdout)
        .lines()
        .filter(|l| l.starts_with("X = "))
        .map(|l| l.replace(" = ", "="))
        .collect();
    check(out, &edges, nodes(index), &answers);
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new(cfg.trace);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut traced_ops = BTreeSet::new();
    let (mut rules, mut atoms) = (Vec::new(), Vec::new());
    let clock = cfg.clock(report::PERCENTILES[1]);
    let mut op = 0;
    while !clock.done(out.samples.len()) {
        let setups = out.setups_s.len();
        if clock.setup_due(setups) {
            one_shot(cfg, &mut out, setups)?;
        }
        let edges = graph(cfg.seed, op);
        let text = program_text(&edges);
        let on = cfg.traced(op);
        let (cpu0, t0) = (sys::process_cpu(), Instant::now());
        let root = t.begin("op", op);
        let res = solve(&mut t, op, &text);
        t.end(root);
        let (t1, cpu1) = (Instant::now(), sys::process_cpu());
        out.attempted += 1;
        match res {
            Ok((answers, mut kb)) => {
                let lat = ms(t1 - t0);
                out.record(clock.seconds(t1), lat, (cpu1 - cpu0).as_secs_f64());
                if on {
                    traced.push(lat);
                    traced_ops.insert(op);
                    rules.push(kb.flat_view("main").map_err(|e| e.to_string())?.len() as f64);
                    atoms.push(kb.snapshot().world().atoms.len() as f64);
                } else {
                    untraced.push(lat);
                }
                check(&mut out, &edges, nodes(op), &answers);
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("op {op}: {e}"));
            }
        }
        op += 1;
    }
    out.peak_rss_mib = sys::peak_rss_mib(None).map_err(|e| e.to_string())?;
    if cfg.trace {
        let own = t.self_ms_by_name(|s| traced_ops.contains(&s.op));
        out.layers = report::layer_values(&traced, &untraced, &own);
        // Means over the traced solves, which mix both graph sizes.
        out.layers
            .insert("ground.rules".into(), stats::mean(&rules));
        out.layers.insert("core.atoms".into(), stats::mean(&atoms));
    }
    cfg.finish_trace(&t, "cold_ancestor", &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_are_a_function_of_the_seed() {
        assert_eq!(graph(42, 3), graph(42, 3));
        assert_ne!(graph(42, 3), graph(42, 4));
        assert_ne!(graph(42, 3), graph(43, 3));
        for index in 0..2 * LARGE_EVERY {
            let n = nodes(index);
            let g = graph(1, index);
            assert_eq!(g.len(), n * OUT_DEGREE);
            assert!(g.iter().all(|&(a, b)| (a as usize) < n && (b as usize) < n));
        }
        let large: Vec<u64> = (0..2 * LARGE_EVERY)
            .filter(|&i| nodes(i) == LARGE_NODES)
            .collect();
        assert_eq!(large, [LARGE_EVERY - 1, 2 * LARGE_EVERY - 1]);
        assert!((0..crate::SETUPS as u64).all(|n| nodes(SETUP_BASE + n * LARGE_EVERY) == NODES));
    }

    #[test]
    fn reachability_oracle_on_a_tiny_graph() {
        // 0 → 1 → 2 → 1, and 3 isolated with a self-loop.
        let edges = [(0, 1), (1, 2), (2, 1), (3, 3)];
        let want = expected(&edges, 4);
        // anc: (0,1) (0,2) (1,2) (1,1) (2,1) (2,2) (3,3).
        assert_eq!(want.count, 7);
        let rendered: Vec<String> = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
            .iter()
            .map(|(x, y)| format!("X=n{x}, Y=n{y}"))
            .collect();
        assert_eq!(answers_of(&rendered), Some(want));
        assert_ne!(answers_of(&rendered[1..]), Some(want));
        let mut swapped = rendered.clone();
        swapped[0] = "X=n1, Y=n0".to_string();
        assert_ne!(answers_of(&swapped), Some(want));
        assert_eq!(answers_of(&["nonsense".to_string()]), None);
    }

    #[test]
    fn the_engine_agrees_with_the_oracle_on_a_small_graph() {
        let edges: Vec<(u32, u32)> = graph(5, 0)
            .into_iter()
            .map(|(a, b)| (a % 12, b % 12))
            .take(20)
            .collect();
        let (answers, _) = solve(&mut Tracer::new(false), 0, &program_text(&edges)).unwrap();
        assert_eq!(answers_of(&answers), Some(expected(&edges, 12)));
    }
}

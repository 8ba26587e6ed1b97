//! Regenerates the measured column of EXPERIMENTS.md: every figure and
//! worked example of the paper, checked mechanically, plus quick
//! timings for the shape benchmarks (run `cargo bench` for the full
//! Criterion treatment).
//!
//! Run with: `cargo run --release -p olp-bench --bin experiments`

use olp_bench::*;
use olp_classic::{
    founded_models, partial_stable_models, stable_models_total, well_founded_model, NafProgram,
};
use olp_core::{CompId, Interpretation, World};
use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
use olp_kb::{GroundStrategy, Kb, KbBuilder};
use olp_parser::{parse_ground_literal, parse_program};
use olp_semantics::reference::{
    enumerate_assumption_free, enumerate_models, stable_models_monolithic_budgeted,
};
use olp_semantics::{
    enumerate_assumption_free_decomposed_budgeted, enumerate_assumption_free_propagating,
    has_total_model, is_assumption_free, is_model, least_model, stable_models,
};
use olp_transform::{extended_version, ordered_version, three_level_version};
use olp_workload::{
    ancestor, defeating_cliques, defeating_pairs, expert_panel, mutation_stream, taxonomy_chain,
    taxonomy_expected_fly, GraphShape, Mutation, MutationCfg,
};
use std::time::{Duration, Instant};

struct Report {
    rows: Vec<(String, String, String, bool)>,
}

impl Report {
    fn new() -> Self {
        Report { rows: Vec::new() }
    }
    fn row(&mut self, id: &str, claim: &str, measured: String, ok: bool) {
        self.rows
            .push((id.to_string(), claim.to_string(), measured, ok));
    }
    fn print(&self) {
        println!("| id | paper claim | measured | verdict |");
        println!("|---|---|---|---|");
        for (id, claim, measured, ok) in &self.rows {
            println!(
                "| {id} | {claim} | {measured} | {} |",
                if *ok { "✓" } else { "✗ MISMATCH" }
            );
        }
        let bad = self.rows.iter().filter(|r| !r.3).count();
        println!(
            "\n{} experiments, {} match the paper, {} mismatches",
            self.rows.len(),
            self.rows.len() - bad,
            bad
        );
    }
}

fn lit(w: &mut World, s: &str) -> olp_core::GLit {
    parse_ground_literal(w, s).unwrap()
}

fn interp(w: &mut World, lits: &[&str]) -> Interpretation {
    Interpretation::from_literals(lits.iter().map(|s| lit(w, s))).unwrap()
}

fn main() {
    let mut r = Report::new();

    // ---------------------------------------------------------- E1/E2
    {
        let mut b = setup_exhaustive(FIG1_SRC);
        let c1 = comp(&b, "c1");
        let m = least_model(&FlatView::new(&b.ground, c1));
        let i1 = interp(
            &mut b.world,
            &[
                "bird(pigeon)",
                "bird(penguin)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ],
        );
        r.row(
            "E1 (Fig.1/Ex.1-3)",
            "penguin does not fly in C1, pigeon does; I1 is the total least model",
            format!("least model = {}", m.render(&b.world)),
            m == i1 && m.is_total(b.ground.n_atoms),
        );
        let c2 = comp(&b, "c2");
        let m2 = least_model(&FlatView::new(&b.ground, c2));
        let fly_p = lit(&mut b.world, "fly(penguin)");
        r.row(
            "E1 (view C2)",
            "from C2 the penguin flies (exception invisible above)",
            format!("fly(penguin) = {}", m2.holds(fly_p)),
            m2.holds(fly_p),
        );
    }
    {
        let src = "bird(penguin). bird(pigeon). fly(X) :- bird(X).
             -ground_animal(X) :- bird(X). ground_animal(penguin).
             -fly(X) :- ground_animal(X).";
        let mut b = setup_exhaustive(src);
        let v = FlatView::new(&b.ground, CompId(0));
        let m = least_model(&v);
        let i1_hat = interp(
            &mut b.world,
            &[
                "bird(pigeon)",
                "bird(penguin)",
                "fly(pigeon)",
                "-ground_animal(pigeon)",
            ],
        );
        r.row(
            "E2 (P̂1 collapsed)",
            "defeating leaves fly(penguin), ground_animal(penguin) undefined; Î1 is the model",
            format!("least model = {}", m.render(&b.world)),
            m == i1_hat,
        );
    }

    // ------------------------------------------------------------- E3
    {
        let b = setup_exhaustive(FIG2_SRC);
        let c1 = comp(&b, "c1");
        let v = FlatView::new(&b.ground, c1);
        let m = least_model(&v);
        let total = has_total_model(&v, b.ground.n_atoms);
        let af = enumerate_assumption_free(&v);
        r.row(
            "E3 (Fig.2/Ex.2-4)",
            "rich/poor defeat; empty AF model; no total model for P2 in C1",
            format!(
                "lfp = {}, total model exists = {}, #AF = {}",
                m.render(&b.world),
                total,
                af.len()
            ),
            m.is_empty() && !total && af.len() == 1,
        );
    }

    // ------------------------------------------------------------- E4
    {
        let scenarios = [
            ("", "silent", (false, false)),
            ("inflation(12).", "take_loan", (true, false)),
            ("inflation(12). loan_rate(16).", "defeated", (false, false)),
            (
                "inflation(19). loan_rate(16).",
                "take_loan (refined)",
                (true, false),
            ),
        ];
        let mut all_ok = true;
        let mut measured = String::new();
        for (facts, label, expect) in scenarios {
            let mut b = setup_exhaustive(&fig3_src(facts));
            let myself = comp(&b, "myself");
            let m = least_model(&FlatView::new(&b.ground, myself));
            let t = lit(&mut b.world, "take_loan");
            let got = (m.holds(t), m.holds(t.complement()));
            all_ok &= got == expect;
            measured.push_str(&format!("[{label}: {:?}] ", got));
        }
        r.row(
            "E4 (Fig.3 loan)",
            "no facts→silent; infl 12→loan; +rate 16→defeated; infl 19→refinement wins",
            measured,
            all_ok,
        );
    }

    // ------------------------------------------------------------- E5
    {
        let b = setup_exhaustive("a :- b. -a :- b.");
        let v = FlatView::new(&b.ground, CompId(0));
        let models = enumerate_models(&v, b.ground.n_atoms, None);
        let mut renders: Vec<String> = models.iter().map(|m| m.render(&b.world)).collect();
        renders.sort();
        let mut expected: Vec<String> = ["{}", "{b}", "{-b}", "{-b, a}", "{-a, -b}"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        expected.sort();
        r.row(
            "E5 (P3, Ex.3)",
            "models are exactly {b},{¬b},{a,¬b},{¬a,¬b},∅ (Herbrand base is NOT a model)",
            format!("{renders:?}"),
            renders == expected,
        );
    }

    // ------------------------------------------------------------- E6
    {
        let mut b = setup_exhaustive("a :- b.");
        let v = FlatView::new(&b.ground, CompId(0));
        let af = enumerate_assumption_free(&v);
        let nn = interp(&mut b.world, &["-a", "-b"]);
        let nn_model = is_model(&v, &nn, b.ground.n_atoms);
        let nn_af = is_assumption_free(&v, &nn);
        let b2 = setup_exhaustive("module c2 { -a. -b. } module c1 < c2 { a :- b. }");
        let c1 = comp(&b2, "c1");
        let v2 = FlatView::new(&b2.ground, c1);
        let stable2 = stable_models(&v2);
        r.row(
            "E6 (P4, Ex.4)",
            "∅ is the only AF model of {a←b}; {¬a,¬b} is a model but not AF; adding CWA C2 makes it the (stable) AF model",
            format!(
                "#AF = {} (∅: {}), {{¬a,¬b}} model = {nn_model}, AF = {nn_af}; with CWA stable = {:?}",
                af.len(),
                af[0].is_empty(),
                stable2.iter().map(|m| m.render(&b2.world)).collect::<Vec<_>>()
            ),
            af.len() == 1 && nn_model && !nn_af && stable2.len() == 1 && stable2[0].len() == 2,
        );
    }

    // ------------------------------------------------------------- E7
    {
        let b = setup_exhaustive(
            "module c2 { a. b. c. }
             module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
        );
        let c1 = comp(&b, "c1");
        let v = FlatView::new(&b.ground, c1);
        let stable = stable_models(&v);
        let mut renders: Vec<String> = stable.iter().map(|m| m.render(&b.world)).collect();
        renders.sort();
        let lm = least_model(&v);
        r.row(
            "E7 (P5, Ex.5)",
            "two stable models {a,¬b,c} and {¬a,b,c}; {c} AF but not stable",
            format!("stable = {renders:?}, lfp = {}", lm.render(&b.world)),
            renders == vec!["{-a, b, c}".to_string(), "{-b, a, c}".to_string()]
                && lm.render(&b.world) == "{c}",
        );
    }

    // ------------------------------------------------------------- E8
    {
        let mut w = World::new();
        let flat = parse_program(
            &mut w,
            "parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y).",
        )
        .unwrap();
        let rules = flat.components[0].rules.clone();
        let (ov, c) = ordered_version(&mut w, &rules);
        let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
        let m = least_model(&FlatView::new(&g, c));
        let ok = m.is_total(g.n_atoms)
            && m.holds(lit(&mut w, "anc(a,c)"))
            && m.holds(lit(&mut w, "-anc(c,a)"));
        r.row(
            "E8 (Ex.6 ancestor OV)",
            "OV = explicit CWA: total least model, anc = transitive closure, rest false",
            format!("total = {}, |model| = {}", m.is_total(g.n_atoms), m.len()),
            ok,
        );
    }

    // ------------------------------------------------------------- E9
    {
        let mut w = World::new();
        let flat = parse_program(&mut w, "p :- -p.").unwrap();
        let rules = flat.components[0].rules.clone();
        let gc = GroundConfig::default();
        let flat_ground = ground_exhaustive(&mut w, &flat, &gc).unwrap();
        let naf = NafProgram::from_ground(&flat_ground).unwrap();
        let (ov, c) = ordered_version(&mut w, &rules);
        let ovg = ground_exhaustive(&mut w, &ov, &gc).unwrap();
        let m_p = interp(&mut w, &["p"]);
        let three_valued = olp_classic::is_3valued_model(&naf, &m_p);
        let ov_model = is_model(&FlatView::new(&ovg, c), &m_p, ovg.n_atoms);
        let (ev, ec) = extended_version(&mut w, &rules);
        let evg = ground_exhaustive(&mut w, &ev, &gc).unwrap();
        let ev_model = is_model(&FlatView::new(&evg, ec), &m_p, evg.n_atoms);
        r.row(
            "E9 (Ex.7 p←¬p)",
            "{p} is a 3-valued model of C but NOT a model of OV(C); EV(C) recovers it",
            format!("3-valued = {three_valued}, OV model = {ov_model}, EV model = {ev_model}"),
            three_valued && !ov_model && ev_model,
        );
    }

    // ------------------------------------------------------------ E10
    {
        let mut w = World::new();
        let flat = parse_program(
            &mut w,
            "bird(tweety). ground_animal(tweety). bird(robin).
             fly(X) :- bird(X).
             -fly(X) :- ground_animal(X).",
        )
        .unwrap();
        let rules = flat.components[0].rules.clone();
        let (tv, cm) = three_level_version(&mut w, &rules);
        let g = ground_exhaustive(&mut w, &tv, &GroundConfig::default()).unwrap();
        let stable = stable_models(&FlatView::new(&g, cm));
        let ok = stable.len() == 1
            && stable[0].holds(lit(&mut w, "-fly(tweety)"))
            && stable[0].holds(lit(&mut w, "fly(robin)"));
        r.row(
            "E10 (Ex.8/9 3V)",
            "negative rules as exceptions: ground-animal birds do not fly, others do",
            format!(
                "unique stable = {}",
                stable
                    .first()
                    .map(|m| m.render(&w))
                    .unwrap_or_else(|| "-".into())
            ),
            ok,
        );
    }

    // ------------------------------------------- T3/T4 one-shot checks
    {
        let mut w = World::new();
        let flat = parse_program(&mut w, "p :- -q. q :- -p. r :- p. r :- q.").unwrap();
        let rules = flat.components[0].rules.clone();
        let gc = GroundConfig::default();
        let fg = ground_exhaustive(&mut w, &flat, &gc).unwrap();
        let (ov, c) = ordered_version(&mut w, &rules);
        let ovg = ground_exhaustive(&mut w, &ov, &gc).unwrap();
        let n = w.atoms.len();
        let mut naf = NafProgram::from_ground(&fg).unwrap();
        naf.n_atoms = n;
        let ov_stable = stable_models(&FlatView::new(&ovg, c));
        let sz = partial_stable_models(&naf);
        let gl = stable_models_total(&naf);
        let wfm = well_founded_model(&naf);
        let founded = founded_models(&naf);
        let mut a: Vec<String> = ov_stable.iter().map(|m| m.render(&w)).collect();
        a.sort();
        let mut bb: Vec<String> = sz.iter().map(|m| m.render(&w)).collect();
        bb.sort();
        r.row(
            "T3/Cor.1 (spot)",
            "stable(OV) = SZ partial stable; total ones = GL stable; WFS is founded",
            format!(
                "stable(OV) = {a:?}, GL count = {}, WFS founded = {}",
                gl.len(),
                founded.contains(&wfm)
            ),
            a == bb && gl.len() == 2 && founded.contains(&wfm),
        );
    }

    r.print();

    // -------------------------------------------------- B-series shape
    println!("\n## Shape measurements (quick; run `cargo bench` for Criterion)\n");

    // B1: taxonomy scaling + correctness.
    for &n in &[256usize, 1024, 4096] {
        let mut w = World::new();
        let prog = taxonomy_chain(&mut w, n, 4);
        let t0 = Instant::now();
        let g = ground_built_smart(&mut w, &prog);
        let t_ground = t0.elapsed();
        let view = FlatView::new(&g, CompId(0));
        let t1 = Instant::now();
        let m = least_model(&view);
        let t_fix = t1.elapsed();
        let correct = (0..n).all(|s| {
            let f = parse_ground_literal(&mut w, &format!("fly(s{s})")).unwrap();
            m.holds(f) == taxonomy_expected_fly(n, 4, s)
        });
        println!(
            "B1 taxonomy N={n}: ground(smart) {:?} ({} instances), lfp {:?}, verdicts correct: {correct}",
            t_ground,
            g.len(),
            t_fix
        );
    }

    // B1b: goal-directed proof vs whole-model materialisation.
    for &n in &[1024usize, 4096] {
        let mut w = World::new();
        let prog = taxonomy_chain(&mut w, n, 4);
        let g = ground_built_smart(&mut w, &prog);
        let view = FlatView::new(&g, CompId(0));
        let q = parse_ground_literal(&mut w, "fly(s0)").unwrap();
        let t0 = Instant::now();
        let full = least_model(&view).holds(q);
        let t_full = t0.elapsed();
        let t1 = Instant::now();
        let goal = olp_semantics::prove(&view, q);
        let t_goal = t1.elapsed();
        assert_eq!(full, goal);
        println!(
            "B1b prove N={n}: whole model {t_full:?} vs goal-directed {t_goal:?} (answers agree)"
        );
    }

    // B2: defeating chains.
    for &n in &[64usize, 256, 1024] {
        let mut w = World::new();
        let prog = defeating_pairs(&mut w, n);
        let g = ground_built_smart(&mut w, &prog);
        let view = FlatView::new(&g, CompId(0));
        let t = Instant::now();
        let m = least_model(&view);
        println!(
            "B2 defeating N={n}: lfp {:?}, derived {} literals (expected 0)",
            t.elapsed(),
            m.len()
        );
    }

    // B3: expert panels.
    for &n in &[16usize, 64, 256] {
        let mut w = World::new();
        let prog = expert_panel(&mut w, n, 19, 16);
        let t0 = Instant::now();
        let g = ground_built_smart(&mut w, &prog);
        let view = FlatView::new(&g, CompId(0));
        let m = least_model(&view);
        let take = parse_ground_literal(&mut w, "take_loan").unwrap();
        println!(
            "B3 experts N={n}: end-to-end {:?}, verdict take_loan = {}",
            t0.elapsed(),
            if m.holds(take) {
                "true"
            } else if m.holds(take.complement()) {
                "false"
            } else {
                "undefined"
            }
        );
    }

    // B4: ancestor smart vs exhaustive.
    for &n in &[32usize, 64] {
        let mut w1 = World::new();
        let p1 = ancestor(&mut w1, GraphShape::Chain, n);
        let t0 = Instant::now();
        let gs = ground_built_smart(&mut w1, &p1);
        let t_smart = t0.elapsed();
        let t1 = Instant::now();
        let ge = ground_built_exhaustive(&mut w1, &p1);
        let t_ex = t1.elapsed();
        println!(
            "B4 ancestor chain N={n}: smart {:?} ({} inst) vs exhaustive {:?} ({} inst)",
            t_smart,
            gs.len(),
            t_ex,
            ge.len()
        );
    }

    // B6: WFS vs ordered on win/move.
    for &n in &[64usize, 256] {
        let src = win_move_src(n);
        let mut w = World::new();
        let flat = parse_program(&mut w, &src).unwrap();
        let rules = flat.components[0].rules.clone();
        let gc = GroundConfig::default();
        let fg = olp_ground::ground_smart(&mut w, &flat, &gc).unwrap();
        let naf = NafProgram::from_ground(&fg).unwrap();
        let t0 = Instant::now();
        let _ = well_founded_model(&naf);
        let t_wfs = t0.elapsed();
        let (ov, c) = ordered_version(&mut w, &rules);
        let ovg = olp_ground::ground_smart(&mut w, &ov, &gc).unwrap();
        let view = FlatView::new(&ovg, c);
        let t1 = Instant::now();
        let _ = least_model(&view);
        let t_olp = t1.elapsed();
        println!("B6 win/move N={n}: WFS {t_wfs:?} vs ordered OV lfp {t_olp:?}");
    }

    // B8: component-wise evaluation — monolithic vs decomposed engines
    // on k independent defeating cliques. Differential check (identical
    // model sets) plus the ≥10x acceptance gate at k = 6, emitted as
    // BENCH_decomp.json for machine consumption.
    {
        fn rendered(ms: &[Interpretation], w: &World) -> Vec<String> {
            let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
            v.sort();
            v
        }
        // Best-of-3 to keep the gate robust against scheduler noise.
        fn best_of_3<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
            let mut best = Duration::MAX;
            let mut out = None;
            for _ in 0..3 {
                let t = Instant::now();
                let v = f();
                best = best.min(t.elapsed());
                out = Some(v);
            }
            (best, out.unwrap())
        }
        let mut json_rows = Vec::new();
        for &k in &[2usize, 4, 6] {
            let mut w = World::new();
            let prog = defeating_cliques(&mut w, k);
            let g = ground_built_exhaustive(&mut w, &prog);
            let view = FlatView::new(&g, CompId(0));
            let (t_af_mono, af_mono) = best_of_3(|| enumerate_assumption_free_propagating(&view));
            let (t_af_dec, af_dec) = best_of_3(|| {
                enumerate_assumption_free_decomposed_budgeted(
                    &view,
                    &olp_core::Budget::unlimited(),
                    None,
                )
                .into_value()
            });
            assert_eq!(
                rendered(&af_mono, &w),
                rendered(&af_dec, &w),
                "decomposed AF set differs from monolithic at k={k}"
            );
            let (t_st_mono, st_mono) = best_of_3(|| {
                stable_models_monolithic_budgeted(&view, &olp_core::Budget::unlimited(), None)
                    .into_value()
            });
            let (t_st_dec, st_dec) = best_of_3(|| stable_models(&view));
            assert_eq!(
                rendered(&st_mono, &w),
                rendered(&st_dec, &w),
                "decomposed stable set differs from monolithic at k={k}"
            );
            let af_speedup = t_af_mono.as_secs_f64() / t_af_dec.as_secs_f64().max(1e-9);
            let st_speedup = t_st_mono.as_secs_f64() / t_st_dec.as_secs_f64().max(1e-9);
            println!(
                "B8 decomp k={k}: AF mono {t_af_mono:?} vs dec {t_af_dec:?} ({af_speedup:.1}x), \
                 stable mono {t_st_mono:?} vs dec {t_st_dec:?} ({st_speedup:.1}x), \
                 sets identical ({} AF / {} stable models){}",
                af_mono.len(),
                st_mono.len(),
                if k == 6 && st_speedup >= 10.0 {
                    " — ≥10x gate: PASS"
                } else if k == 6 {
                    " — ≥10x gate: FAIL"
                } else {
                    ""
                }
            );
            json_rows.push(format!(
                "  {{\"k\": {k}, \"n_af_models\": {}, \"n_stable_models\": {}, \
                 \"af_monolithic_ns\": {}, \"af_decomposed_ns\": {}, \"af_speedup\": {af_speedup:.2}, \
                 \"stable_monolithic_ns\": {}, \"stable_decomposed_ns\": {}, \"stable_speedup\": {st_speedup:.2}}}",
                af_mono.len(),
                st_mono.len(),
                t_af_mono.as_nanos(),
                t_af_dec.as_nanos(),
                t_st_mono.as_nanos(),
                t_st_dec.as_nanos(),
            ));
        }
        let json = format!(
            "{{\n\"workload\": \"defeating_cliques\",\n\"rows\": [\n{}\n]\n}}\n",
            json_rows.join(",\n")
        );
        match std::fs::write("BENCH_decomp.json", &json) {
            Ok(()) => println!("B8 decomp: wrote BENCH_decomp.json"),
            Err(e) => println!("B8 decomp: could not write BENCH_decomp.json: {e}"),
        }
    }

    // B9: incremental maintenance — delta grounding + stratum-local
    // recomputation vs a full smart reground on every mutation, on the
    // mutation_stream ancestor-chain workload, plus the flat-arena
    // ablation (patched arenas + flat delta revalidation vs dropping
    // the arena cache on every commit and reflattening from scratch).
    // Differential check (identical rendered models on all paths after
    // every mutation) plus the ≥5x acceptance gate on the single-fact
    // assert at the largest chain, emitted as BENCH_incremental.json.
    {
        fn stream_cfg(n_base: usize) -> MutationCfg {
            MutationCfg {
                n_base,
                ..MutationCfg::default()
            }
        }
        fn build_kb(n_base: usize, incremental: bool) -> Kb {
            let (base, _) = mutation_stream(&stream_cfg(n_base), 7);
            let mut w = World::new();
            let prog = parse_program(&mut w, &base).unwrap();
            let mut kb = KbBuilder::from_parts(w, prog)
                .build_with(GroundStrategy::Smart, &GroundConfig::default())
                .unwrap();
            kb.set_incremental(incremental);
            let _ = kb.model("main").unwrap();
            kb
        }
        fn rendered(kb: &mut Kb) -> String {
            let m = kb.model("main").unwrap().clone();
            kb.render(&m)
        }
        // Best-of-3 timing of a single-edge assert; every rep is undone
        // by an untimed retract so each one starts from the same state.
        fn best_assert(kb: &mut Kb, rule: &str, query: bool) -> Duration {
            let mut best = Duration::MAX;
            for _ in 0..3 {
                let t = Instant::now();
                kb.assert_rule("main", rule).unwrap();
                if query {
                    let _ = kb.model("main").unwrap();
                }
                best = best.min(t.elapsed());
                assert!(kb.retract_rule("main", rule).unwrap());
            }
            best
        }
        // Replays the whole mutation stream with a least-model read
        // after every step (the end-to-end maintenance loop). With
        // `reflatten` the compiled-arena cache is dropped before every
        // mutation, reproducing the pre-patching commit (which cleared
        // it wholesale): each post-step read then pays a from-scratch
        // flatten instead of an in-place `FlatView::apply_delta` splice.
        fn replay(kb: &mut Kb, muts: &[Mutation], reflatten: bool) -> Duration {
            let t = Instant::now();
            for m in muts {
                if reflatten {
                    kb.clear_flat_cache();
                }
                match m {
                    Mutation::Assert { object, rule } => {
                        kb.assert_rule(object, rule).unwrap();
                    }
                    Mutation::Retract { object, rule } => {
                        kb.retract_rule(object, rule).unwrap();
                    }
                }
                let _ = kb.model(m.object()).unwrap();
            }
            t.elapsed()
        }
        const EDGE: &str = "parent(fresh_a, fresh_b).";
        let sizes = [64usize, 96, 128, 192];
        let largest = *sizes.last().unwrap();
        let mut json_rows = Vec::new();
        for &n in &sizes {
            let (_, muts) = mutation_stream(&stream_cfg(n), 7);
            let mut inc = build_kb(n, true);
            let mut full = build_kb(n, false);
            // Differential check: both paths agree before, after the
            // assert, and again after the retract.
            assert_eq!(rendered(&mut inc), rendered(&mut full), "n={n} base");
            inc.assert_rule("main", EDGE).unwrap();
            full.assert_rule("main", EDGE).unwrap();
            assert_eq!(rendered(&mut inc), rendered(&mut full), "n={n} assert");
            assert!(inc.retract_rule("main", EDGE).unwrap());
            assert!(full.retract_rule("main", EDGE).unwrap());
            assert_eq!(rendered(&mut inc), rendered(&mut full), "n={n} retract");
            let t_inc = best_assert(&mut inc, EDGE, false);
            let t_full = best_assert(&mut full, EDGE, false);
            let t_inc_q = best_assert(&mut inc, EDGE, true);
            let t_full_q = best_assert(&mut full, EDGE, true);
            let t_inc_s = replay(&mut inc, &muts, false);
            let t_full_s = replay(&mut full, &muts, false);
            assert_eq!(rendered(&mut inc), rendered(&mut full), "n={n} stream");
            // Arena-maintenance ablation: same incremental machinery,
            // but the compiled arenas are dropped (pre-patching commit)
            // instead of spliced in place. Models must stay identical.
            let mut reflat = build_kb(n, true);
            let t_reflat_s = replay(&mut reflat, &muts, true);
            assert_eq!(rendered(&mut inc), rendered(&mut reflat), "n={n} reflat");
            let speedup = t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9);
            let q_speedup = t_full_q.as_secs_f64() / t_inc_q.as_secs_f64().max(1e-9);
            let s_speedup = t_full_s.as_secs_f64() / t_inc_s.as_secs_f64().max(1e-9);
            let flat_speedup = t_reflat_s.as_secs_f64() / t_inc_s.as_secs_f64().max(1e-9);
            println!(
                "B9 incremental n={n}: assert {t_inc:?} vs full refresh {t_full:?} ({speedup:.1}x), \
                 assert+query {t_inc_q:?} vs {t_full_q:?} ({q_speedup:.1}x), \
                 {}-step stream {t_inc_s:?} vs {t_full_s:?} ({s_speedup:.1}x), \
                 patched arenas vs clear+reflatten {t_inc_s:?} vs {t_reflat_s:?} ({flat_speedup:.1}x), \
                 models identical{}",
                muts.len(),
                if n == largest && speedup >= 5.0 {
                    " — ≥5x gate: PASS"
                } else if n == largest {
                    " — ≥5x gate: FAIL"
                } else {
                    ""
                }
            );
            json_rows.push(format!(
                "  {{\"n_base\": {n}, \"n_mutations\": {}, \
                 \"assert_incremental_ns\": {}, \"assert_full_refresh_ns\": {}, \"assert_speedup\": {speedup:.2}, \
                 \"assert_query_incremental_ns\": {}, \"assert_query_full_refresh_ns\": {}, \"assert_query_speedup\": {q_speedup:.2}, \
                 \"stream_incremental_ns\": {}, \"stream_full_refresh_ns\": {}, \"stream_speedup\": {s_speedup:.2}, \
                 \"stream_flat_patched_ns\": {}, \"stream_flat_reflatten_ns\": {}, \"stream_flat_speedup\": {flat_speedup:.2}}}",
                muts.len(),
                t_inc.as_nanos(),
                t_full.as_nanos(),
                t_inc_q.as_nanos(),
                t_full_q.as_nanos(),
                t_inc_s.as_nanos(),
                t_full_s.as_nanos(),
                t_inc_s.as_nanos(),
                t_reflat_s.as_nanos(),
            ));
        }
        let json = format!(
            "{{\n\"workload\": \"mutation_stream\",\n\"rows\": [\n{}\n]\n}}\n",
            json_rows.join(",\n")
        );
        match std::fs::write("BENCH_incremental.json", &json) {
            Ok(()) => println!("B9 incremental: wrote BENCH_incremental.json"),
            Err(e) => println!("B9 incremental: could not write BENCH_incremental.json: {e}"),
        }
    }

    // B10: the parallel evaluation pipeline — multi-threaded grounding,
    // the flat-arena least model with morsel-driven work stealing, and
    // the join planner, on the scaled random-graph ancestor workload
    // plus defeating cliques. Differential check (byte-identical ground
    // program and identical least model at every thread count) plus
    // three acceptance gates, emitted as BENCH_parallel.json:
    //   * ≥2.5x end-to-end (ground + least model) at 8 threads vs 1 on
    //     the scaled ancestor — evaluated only when the host actually
    //     has ≥8 cores. Thread counts exceeding the physical core count
    //     are not measured at all: oversubscribed timings say nothing
    //     about the scheduler, so no row is emitted and the gate is
    //     reported as SKIP, never as a fake PASS or FAIL;
    //   * single-thread flat least model vs the PR 4 interpretive
    //     wavefront number (33.12ms on the reference 1-core host) —
    //     the flat representation must win on *one* thread before any
    //     parallel claim matters;
    //   * ≥1.3x single-threaded from the join planner alone (plan on
    //     vs off), which is host-independent and always enforced.
    {
        use olp_core::Budget;
        use olp_ground::{ground_smart, GroundProgram};
        use olp_semantics::reference::least_model_monolithic;
        use olp_semantics::{least_model, least_model_morsel, MorselCfg};
        // Compiles the arena of component 0 and runs the flat fixpoint
        // on it: sequentially at one thread, else under the morsel
        // scheduler at `threads` workers.
        let flat_least_model = |g: &GroundProgram, threads: usize| {
            let fv = FlatView::new(g, CompId(0));
            if threads == 1 {
                least_model(&fv)
            } else {
                let cfg = MorselCfg::with_threads(threads);
                least_model_morsel(&fv, &cfg, &Budget::unlimited()).into_value()
            }
        };

        const N: usize = 220;
        const EDGES: usize = 660;
        const CLIQUES: usize = 10;
        // PR 4's single-thread least_model_ns on the reference host
        // (BENCH_parallel.json as committed there) — the bar the flat
        // engine has to clear.
        const PR4_LEAST_MODEL_NS: u128 = 33_124_768;
        // The planner ablation runs a smaller graph with the attempt
        // ceiling lifted: `max_instances` meters join *attempts*, and
        // the unplanned full-scan join exceeds the default 10M ceiling
        // at the scaled size — which is the planner's point, but makes
        // the baseline unmeasurable there.
        const PLAN_N: usize = 120;
        const PLAN_EDGES: usize = 360;

        fn build_ancestor(
            n: usize,
            edges: usize,
            threads: usize,
            plan: bool,
            max_instances: usize,
        ) -> (World, GroundProgram) {
            let mut w = World::new();
            let p = ancestor(&mut w, GraphShape::Random { edges, seed: 42 }, n);
            let cfg = GroundConfig {
                threads,
                plan,
                max_instances,
                ..GroundConfig::default()
            };
            let g = ground_smart(&mut w, &p, &cfg).expect("ancestor grounds");
            (w, g)
        }
        fn best_of_3<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
            let mut best = Duration::MAX;
            let mut out = None;
            for _ in 0..3 {
                let t = Instant::now();
                let v = f();
                best = best.min(t.elapsed());
                out = Some(v);
            }
            (best, out.unwrap())
        }

        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Only thread counts the hardware can actually run in parallel
        // are measured; a PASS/FAIL claim for an oversubscribed count
        // would be noise dressed up as data.
        let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&t| t <= host_cores)
            .collect();
        let dflt = GroundConfig::default().max_instances;
        let (w1, g1) = build_ancestor(N, EDGES, 1, true, dflt);
        let ref_render = g1.render(&w1);
        let ref_model = least_model_monolithic(&FlatView::new(&g1, CompId(0))).render(&w1);

        let mut anc_rows = Vec::new();
        let mut e2e_1t = Duration::MAX;
        let mut e2e_8t = None;
        let mut lfp_1t = Duration::MAX;
        for &threads in &thread_counts {
            let (t_ground, (wt, gt)) = best_of_3(|| build_ancestor(N, EDGES, threads, true, dflt));
            assert_eq!(
                ref_render,
                gt.render(&wt),
                "parallel ground program differs at {threads} threads"
            );
            let (t_lfp, model) = best_of_3(|| flat_least_model(&gt, threads));
            assert_eq!(
                ref_model,
                model.render(&wt),
                "flat least model differs at {threads} threads"
            );
            let e2e = t_ground + t_lfp;
            if threads == 1 {
                e2e_1t = e2e;
                lfp_1t = t_lfp;
            }
            if threads == 8 {
                e2e_8t = Some(e2e);
            }
            println!(
                "B10 parallel ancestor N={N} E={EDGES} threads={threads}: \
                 ground {t_ground:?} + lfp {t_lfp:?} = {e2e:?}, model identical"
            );
            anc_rows.push(format!(
                "  {{\"threads\": {threads}, \"ground_ns\": {}, \"least_model_ns\": {}, \"end_to_end_ns\": {}}}",
                t_ground.as_nanos(),
                t_lfp.as_nanos(),
                e2e.as_nanos(),
            ));
        }
        let (par_speedup_json, par_gate) = match e2e_8t {
            None => {
                println!(
                    "B10 parallel ancestor: ≥2.5x@8t gate SKIP — host has {host_cores} core(s); \
                     8-thread runs were not measured (oversubscription measures nothing)"
                );
                ("null".to_string(), "skipped_insufficient_cores")
            }
            Some(e8) => {
                let s = e2e_1t.as_secs_f64() / e8.as_secs_f64().max(1e-9);
                let gate = if s >= 2.5 { "pass" } else { "fail" };
                println!(
                    "B10 parallel ancestor: end-to-end 8t speedup {s:.2}x — ≥2.5x gate: {}",
                    gate.to_uppercase()
                );
                (format!("{s:.2}"), gate)
            }
        };
        // Single-thread regression gate: the flat arena engine against
        // PR 4's interpretive number. Comparable only on the reference
        // host class, so any cross-host run is informational — but a
        // slower flat engine here would fail loudly either way.
        let flat_speedup = PR4_LEAST_MODEL_NS as f64 / (lfp_1t.as_nanos() as f64).max(1.0);
        let flat_gate = if lfp_1t.as_nanos() < PR4_LEAST_MODEL_NS {
            "pass"
        } else {
            "fail"
        };
        println!(
            "B10 flat ancestor 1t: least model {lfp_1t:?} vs PR4 {:?} \
             ({flat_speedup:.2}x) — improvement gate: {}",
            Duration::from_nanos(PR4_LEAST_MODEL_NS as u64),
            flat_gate.to_uppercase()
        );

        // Many independent strata, microsecond-scale total work — the
        // workload where PR 4's per-round barrier turned threads into a
        // 27x slowdown. The morsel engine's sequential fallback
        // (weight below `seq_threshold`) must keep every thread count
        // at the single-thread cost.
        let mut wq = World::new();
        let pq = defeating_cliques(&mut wq, CLIQUES);
        let gq = ground_smart(&mut wq, &pq, &GroundConfig::default()).expect("cliques ground");
        let clique_ref = least_model_monolithic(&FlatView::new(&gq, CompId(0))).render(&wq);
        let mut clique_rows = Vec::new();
        for &threads in &thread_counts {
            let (t_lfp, model) = best_of_3(|| flat_least_model(&gq, threads));
            assert_eq!(
                clique_ref,
                model.render(&wq),
                "flat least model differs on cliques at {threads} threads"
            );
            println!("B10 parallel cliques k={CLIQUES} threads={threads}: lfp {t_lfp:?}, model identical");
            clique_rows.push(format!(
                "  {{\"threads\": {threads}, \"least_model_ns\": {}}}",
                t_lfp.as_nanos(),
            ));
        }

        // Planner ablation at one thread: selectivity-greedy join order
        // plus positional indexes vs the PR 3 baseline (textual order,
        // full candidate scans). Host-independent, always enforced.
        let lifted = 1_000_000_000usize;
        let (t_plan, (wp, gp)) = best_of_3(|| build_ancestor(PLAN_N, PLAN_EDGES, 1, true, lifted));
        let (t_noplan, (wn, gn)) =
            best_of_3(|| build_ancestor(PLAN_N, PLAN_EDGES, 1, false, lifted));
        assert_eq!(
            gp.render(&wp),
            gn.render(&wn),
            "planner changed the instance set"
        );
        let plan_speedup = t_noplan.as_secs_f64() / t_plan.as_secs_f64().max(1e-9);
        let plan_gate = if plan_speedup >= 1.3 { "pass" } else { "fail" };
        println!(
            "B10 planner ancestor N={PLAN_N} E={PLAN_EDGES}: planned {t_plan:?} vs unplanned {t_noplan:?} \
             ({plan_speedup:.2}x) — ≥1.3x gate: {}",
            if plan_speedup >= 1.3 { "PASS" } else { "FAIL" }
        );

        let measured: Vec<String> = thread_counts.iter().map(ToString::to_string).collect();
        let json = format!(
            "{{\n\"host_cores\": {host_cores},\n\
             \"measured_thread_counts\": [{}],\n\
             \"flat\": true,\n\
             \"ancestor\": {{\"n\": {N}, \"edges\": {EDGES}, \"rows\": [\n{}\n]}},\n\
             \"defeating_cliques\": {{\"k\": {CLIQUES}, \"rows\": [\n{}\n]}},\n\
             \"planner\": {{\"planned_ns\": {}, \"unplanned_ns\": {}, \"speedup\": {plan_speedup:.2}}},\n\
             \"gates\": {{\n\
             \"parallel_8t_min\": 2.5, \"parallel_8t_speedup\": {par_speedup_json}, \"parallel_8t\": \"{par_gate}\",\n\
             \"single_thread_pr4_baseline_ns\": {PR4_LEAST_MODEL_NS}, \"single_thread_least_model_ns\": {}, \
             \"single_thread_speedup\": {flat_speedup:.2}, \"single_thread_vs_pr4\": \"{flat_gate}\",\n\
             \"planner_min\": 1.3, \"planner_speedup\": {plan_speedup:.2}, \"planner\": \"{plan_gate}\"\n\
             }},\n\
             \"models_identical\": true\n}}\n",
            measured.join(", "),
            anc_rows.join(",\n"),
            clique_rows.join(",\n"),
            t_plan.as_nanos(),
            t_noplan.as_nanos(),
            lfp_1t.as_nanos(),
        );
        match std::fs::write("BENCH_parallel.json", &json) {
            Ok(()) => println!("B10 parallel: wrote BENCH_parallel.json"),
            Err(e) => println!("B10 parallel: could not write BENCH_parallel.json: {e}"),
        }
    }

    // B11: durability — reloading a KB from its checksummed snapshot
    // (decode + install, no parsing, no grounding) vs rebuilding it
    // from source (parse + ground + re-apply the mutation history).
    // Differential check (identical least model after reload) plus an
    // acceptance gate, emitted as BENCH_durability.json:
    //   * ≥5x reload-vs-rebuild on the scaled mutation_stream KB —
    //     evaluated only when a writable tmpdir exists (a read-only
    //     filesystem cannot measure file-backed reload; the gate is
    //     then reported as SKIP with the in-memory encode/decode
    //     numbers, never as a fake PASS, mirroring the B10 <8-core
    //     convention);
    // plus per-policy logging throughput (off / on-commit / batched).
    {
        use olp_kb::{Durability, DurableKb};
        use olp_store::{decode_snapshot, encode_snapshot};

        const N_BASE: usize = 192;
        const N_MUTS: usize = 200;
        let cfg = MutationCfg {
            n_base: N_BASE,
            n_mutations: N_MUTS,
            ..MutationCfg::default()
        };
        let (base, ops) = mutation_stream(&cfg, 42);

        fn best_of_3<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
            let mut best = Duration::MAX;
            let mut out = None;
            for _ in 0..3 {
                let t = Instant::now();
                let v = f();
                best = best.min(t.elapsed());
                out = Some(v);
            }
            (best, out.unwrap())
        }
        let apply = |kb: &mut Kb, ops: &[Mutation]| {
            for op in ops {
                match op {
                    Mutation::Assert { object, rule } => {
                        kb.assert_rule(object, rule).expect("assert applies")
                    }
                    Mutation::Retract { object, rule } => {
                        assert!(kb.retract_rule(object, rule).expect("retract applies"));
                    }
                }
            }
        };
        // The from-source baseline: what recovery costs WITHOUT the
        // store — parse the program, ground it, re-apply the history.
        let rebuild = || {
            let mut b = KbBuilder::new();
            b.rules("main", &base).expect("base parses");
            let mut kb = b.build(GroundStrategy::Smart).expect("base grounds");
            apply(&mut kb, &ops);
            kb
        };
        let (t_rebuild, mut reference) = best_of_3(rebuild);
        let ref_model = {
            let m = reference.model("main").expect("least model").clone();
            reference.render(&m)
        };
        println!(
            "B11 durability mutation_stream base={N_BASE} ops={N_MUTS}: \
             rebuild from source {t_rebuild:?} ({} ground instances)",
            reference.ground_program().len()
        );

        // In-memory encode/decode numbers: measurable even with no
        // writable filesystem, and reported in the SKIP line.
        let snap_bytes = encode_snapshot(
            reference.world(),
            reference.program(),
            reference.ground_program(),
            N_MUTS as u64,
        );
        let (t_decode, _) = best_of_3(|| {
            decode_snapshot(&snap_bytes, std::path::Path::new("bench.olps")).expect("decodes")
        });
        println!(
            "B11 durability: snapshot {} bytes, in-memory decode {t_decode:?}",
            snap_bytes.len()
        );

        let dir = std::env::temp_dir().join(format!("olp_bench_durability_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writable = std::fs::create_dir_all(&dir).is_ok()
            && std::fs::write(dir.join(".probe"), b"w").is_ok();
        let mut json_extra = String::new();
        let (reload_gate, reload_speedup) = if writable {
            // Build the database once: full state in the snapshot.
            let d =
                DurableKb::create(&dir, rebuild(), Durability::OnCommit).expect("database created");
            drop(d);
            let (t_reload, mut reloaded) = best_of_3(|| {
                let (d, _) = DurableKb::open(&dir, Durability::OnCommit).expect("database opens");
                d
            });
            let m = reloaded
                .kb_mut()
                .model("main")
                .expect("least model")
                .clone();
            assert_eq!(
                ref_model,
                reloaded.kb_mut().render(&m),
                "reloaded KB's least model differs from the rebuilt one"
            );
            let speedup = t_rebuild.as_secs_f64() / t_reload.as_secs_f64().max(1e-9);
            let gate = if speedup >= 5.0 { "pass" } else { "fail" };
            println!(
                "B11 durability: reload {t_reload:?} vs rebuild {t_rebuild:?} \
                 ({speedup:.2}x, model identical) — ≥5x gate: {}",
                if speedup >= 5.0 { "PASS" } else { "FAIL" }
            );

            // Logging throughput per durability policy (fresh db per
            // policy, same op stream).
            let mut policy_rows = Vec::new();
            for (name, policy) in [
                ("off", Durability::Off),
                ("on_commit", Durability::OnCommit),
                ("batched", Durability::Batched),
            ] {
                let pdir = dir.join(name);
                let _ = std::fs::remove_dir_all(&pdir);
                let mut b = KbBuilder::new();
                b.rules("main", &base).expect("base parses");
                let kb = b.build(GroundStrategy::Smart).expect("base grounds");
                let mut d = DurableKb::create(&pdir, kb, policy).expect("database created");
                let t = Instant::now();
                for op in &ops {
                    match op {
                        Mutation::Assert { object, rule } => {
                            d.assert_rule(object, rule).expect("assert applies")
                        }
                        Mutation::Retract { object, rule } => {
                            assert!(d.retract_rule(object, rule).expect("retract applies"));
                        }
                    }
                }
                let elapsed = t.elapsed();
                let ops_per_s = N_MUTS as f64 / elapsed.as_secs_f64().max(1e-9);
                println!(
                    "B11 durability policy {name}: {N_MUTS} logged ops in {elapsed:?} \
                     ({ops_per_s:.0} ops/s)"
                );
                policy_rows.push(format!(
                    "  {{\"policy\": \"{name}\", \"ops\": {N_MUTS}, \"elapsed_ns\": {}, \"ops_per_s\": {ops_per_s:.0}}}",
                    elapsed.as_nanos(),
                ));
            }
            json_extra = format!(
                ",\n\"reload_ns\": {},\n\"policies\": [\n{}\n]",
                t_reload.as_nanos(),
                policy_rows.join(",\n"),
            );
            let _ = std::fs::remove_dir_all(&dir);
            (gate, speedup)
        } else {
            let speedup = t_rebuild.as_secs_f64() / t_decode.as_secs_f64().max(1e-9);
            println!(
                "B11 durability: ≥5x reload gate SKIP — no writable tmpdir at {}; \
                 file-backed reload is unmeasurable here (in-memory decode {t_decode:?} \
                 vs rebuild {t_rebuild:?}, {speedup:.2}x)",
                dir.display()
            );
            ("skipped_no_writable_tmpdir", speedup)
        };

        let json = format!(
            "{{\n\"workload\": \"mutation_stream\",\n\"n_base\": {N_BASE}, \"n_mutations\": {N_MUTS},\n\
             \"rebuild_ns\": {},\n\"snapshot_bytes\": {},\n\"decode_ns\": {}{json_extra},\n\
             \"gates\": {{\n\
             \"reload_min\": 5.0, \"reload_speedup\": {reload_speedup:.2}, \"reload\": \"{reload_gate}\"\n\
             }},\n\
             \"model_identical\": true\n}}\n",
            t_rebuild.as_nanos(),
            snap_bytes.len(),
            t_decode.as_nanos(),
        );
        match std::fs::write("BENCH_durability.json", &json) {
            Ok(()) => println!("B11 durability: wrote BENCH_durability.json"),
            Err(e) => println!("B11 durability: could not write BENCH_durability.json: {e}"),
        }
    }

    // B12: serving — `olp serve` under concurrent mixed read/write
    // traffic. Spawns the real `olp` binary (sibling of this
    // experiments binary in the target dir) on a mutation_stream base
    // program and drives it with the olp-workload load generator at
    // 1/4/16/64 connections, emitted as BENCH_server.json with three
    // acceptance gates:
    //   * liveness  — every connection level completes >0 ops;
    //   * no_errors — zero protocol errors across all levels;
    //   * isolation — zero per-connection epoch regressions (responses
    //     always report the epoch they evaluated against, and a
    //     connection must never observe time going backwards).
    // When the `olp` binary is not next to this one, or no writable
    // tmpdir exists for the program file, the gates are reported as
    // SKIP (never a fake PASS), mirroring the B10/B11 convention.
    {
        use olp_workload::loadgen::{run_load, LoadCfg};
        use std::io::BufRead;

        const N_BASE: usize = 64;
        const CONN_LEVELS: [usize; 4] = [1, 4, 16, 64];
        const SECS_PER_LEVEL: f64 = 1.0;

        let olp_bin = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("olp")))
            .filter(|p| p.exists());

        let dir = std::env::temp_dir().join(format!("olp_bench_server_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (base, _) = mutation_stream(
            &MutationCfg {
                n_base: N_BASE,
                n_mutations: 0,
                ..MutationCfg::default()
            },
            42,
        );
        let program_path = dir.join("serve.olp");
        let writable = std::fs::create_dir_all(&dir).is_ok()
            && std::fs::write(&program_path, format!("module main {{\n{base}}}\n")).is_ok();

        let mut rows = Vec::new();
        let (gate, detail) = match (&olp_bin, writable) {
            (None, _) => {
                println!(
                    "B12 server: gates SKIP — no `olp` binary next to the experiments \
                     binary (build the workspace first: cargo build --release)"
                );
                ("skipped_no_olp_binary", String::new())
            }
            (Some(_), false) => {
                println!(
                    "B12 server: gates SKIP — no writable tmpdir at {} for the \
                     served program file",
                    dir.display()
                );
                ("skipped_no_writable_tmpdir", String::new())
            }
            (Some(bin), true) => {
                let mut child = std::process::Command::new(bin)
                    .arg("serve")
                    .arg(&program_path)
                    .args(["--listen", "127.0.0.1:0"])
                    .stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::null())
                    .spawn()
                    .expect("olp serve spawns");
                let stdout = child.stdout.take().expect("stdout piped");
                let mut lines = std::io::BufReader::new(stdout).lines();
                let addr: std::net::SocketAddr = loop {
                    match lines.next() {
                        Some(Ok(line)) => {
                            if let Some(a) = line.strip_prefix("listening on ") {
                                break a.trim().parse().expect("listen address parses");
                            }
                        }
                        _ => panic!("olp serve exited before printing its listen address"),
                    }
                };
                std::thread::spawn(move || for _ in lines {});

                let mut total_errors = 0u64;
                let mut total_regressions = 0u64;
                let mut all_live = true;
                for conns in CONN_LEVELS {
                    let cfg = LoadCfg {
                        conns,
                        duration: Duration::from_secs_f64(SECS_PER_LEVEL),
                        write_ratio: 0.1,
                        seed: 42,
                        n_base: N_BASE,
                        ..LoadCfg::default()
                    };
                    let rep = run_load(addr, &cfg);
                    total_errors += rep.errors;
                    total_regressions += rep.epoch_regressions;
                    all_live &= rep.ops > 0;
                    println!("B12 server conns={conns}: {}", rep.summary());
                    rows.push(format!(
                        "  {{\"conns\": {conns}, \"ops\": {}, \"reads\": {}, \"writes\": {}, \
                         \"busy\": {}, \"errors\": {}, \"epoch_regressions\": {}, \
                         \"throughput_ops_per_sec\": {:.1}, \
                         \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                        rep.ops,
                        rep.reads,
                        rep.writes,
                        rep.busy,
                        rep.errors,
                        rep.epoch_regressions,
                        rep.throughput(),
                        rep.latency_us(0.5),
                        rep.latency_us(0.99),
                        rep.max_latency_us(),
                    ));
                }

                // Shut the server down over its own protocol; fall
                // back to kill if the socket is gone.
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    use std::io::Write as _;
                    let _ = s.write_all(b"{\"cmd\":\"shutdown\"}\n");
                    let mut resp = String::new();
                    let _ = std::io::BufReader::new(&s).read_line(&mut resp);
                } else {
                    let _ = child.kill();
                }
                let _ = child.wait();

                let ok = all_live && total_errors == 0 && total_regressions == 0;
                println!(
                    "B12 server: liveness {} / no_errors {} ({total_errors}) / \
                     isolation {} ({total_regressions} regressions)",
                    if all_live { "PASS" } else { "FAIL" },
                    if total_errors == 0 { "PASS" } else { "FAIL" },
                    if total_regressions == 0 {
                        "PASS"
                    } else {
                        "FAIL"
                    },
                );
                (
                    if ok { "pass" } else { "fail" },
                    format!(
                        "\"total_errors\": {total_errors}, \
                         \"total_epoch_regressions\": {total_regressions}, "
                    ),
                )
            }
        };
        let _ = std::fs::remove_dir_all(&dir);

        let json = format!(
            "{{\n\"workload\": \"loadgen mixed 10% writes over mutation_stream base\",\n\
             \"n_base\": {N_BASE}, \"secs_per_level\": {SECS_PER_LEVEL},\n\
             \"levels\": [\n{}\n],\n\
             \"gates\": {{\n{detail}\"liveness_no_errors_isolation\": \"{gate}\"\n}}\n}}\n",
            rows.join(",\n"),
        );
        match std::fs::write("BENCH_server.json", &json) {
            Ok(()) => println!("B12 server: wrote BENCH_server.json"),
            Err(e) => println!("B12 server: could not write BENCH_server.json: {e}"),
        }
    }

    // B13: analysis-guided evaluation — the semantic profile proves the
    // taxonomy view stratified and single-model, so `stable` collapses
    // to the least model instead of enumerating assumption-free models.
    // Emitted as BENCH_analysis.json with two gates:
    //   * identical  — the guided stable set is byte-identical to the
    //     general engine's (the fast path may never change an answer);
    //   * speedup    — guided `stable` is ≥1.3x faster than the general
    //     engine on this provably-stratified workload.
    // If the analyzer fails to prove the workload single-model the
    // gates are reported as SKIP (never a fake PASS): a weaker analysis
    // must show up as lost coverage, not as a fabricated speedup.
    {
        const N_SPECIES: usize = 512;
        const N_LAYERS: usize = 4;
        const SPEEDUP_GATE: f64 = 1.3;

        let build = |guided: bool| -> Kb {
            let mut w = World::new();
            let prog = taxonomy_chain(&mut w, N_SPECIES, N_LAYERS);
            let mut kb = KbBuilder::from_parts(w, prog)
                .build_with(GroundStrategy::Smart, &GroundConfig::default())
                .expect("taxonomy grounds");
            kb.set_profile_guided(guided);
            kb.set_threads(1);
            kb
        };

        let profile = build(true)
            .component_profile("layer0")
            .expect("layer0 exists")
            .expect("chain order is valid");
        let summary = profile.summary();
        println!("B13 analysis taxonomy S={N_SPECIES} L={N_LAYERS}: profile {summary}");

        let timed_stable = |guided: bool| -> (Duration, Vec<String>) {
            let mut best = Duration::MAX;
            let mut rendered = Vec::new();
            for _ in 0..3 {
                let mut kb = build(guided);
                let t = Instant::now();
                let models = kb.stable("layer0").expect("layer0 exists");
                best = best.min(t.elapsed());
                rendered = models.iter().map(|m| kb.render(m)).collect();
                rendered.sort();
            }
            (best, rendered)
        };

        let (gate, detail) = if !(profile.single_model && profile.order_relevant) {
            println!(
                "B13 analysis: gates SKIP — the analyzer no longer proves the taxonomy \
                 view single-model ({summary}); nothing honest to time"
            );
            ("skipped_profile_not_single_model", String::new())
        } else {
            let (t_guided, m_guided) = timed_stable(true);
            let (t_general, m_general) = timed_stable(false);
            let identical = m_guided == m_general && m_guided.len() == 1;
            let speedup = t_general.as_secs_f64() / t_guided.as_secs_f64().max(1e-9);
            println!(
                "B13 analysis stable layer0: guided {t_guided:?} vs general {t_general:?} \
                 ({speedup:.2}x) — identical {} / ≥{SPEEDUP_GATE}x gate: {}",
                if identical { "PASS" } else { "FAIL" },
                if speedup >= SPEEDUP_GATE {
                    "PASS"
                } else {
                    "FAIL"
                },
            );
            let ok = identical && speedup >= SPEEDUP_GATE;
            (
                if ok { "pass" } else { "fail" },
                format!(
                    "\"guided_us\": {}, \"general_us\": {}, \"speedup\": {speedup:.2}, \
                     \"stable_models\": {}, \"identical\": {identical}, ",
                    t_guided.as_micros(),
                    t_general.as_micros(),
                    m_guided.len(),
                ),
            )
        };
        let json = format!(
            "{{\n\"workload\": \"taxonomy_chain stratified exceptions\",\n\
             \"n_species\": {N_SPECIES}, \"n_layers\": {N_LAYERS},\n\
             \"profile\": \"{summary}\",\n\
             \"gates\": {{\n{detail}\"identical_and_speedup_{SPEEDUP_GATE}x\": \"{gate}\"\n}}\n}}\n",
        );
        match std::fs::write("BENCH_analysis.json", &json) {
            Ok(()) => println!("B13 analysis: wrote BENCH_analysis.json"),
            Err(e) => println!("B13 analysis: could not write BENCH_analysis.json: {e}"),
        }
    }
}

//! Mechanical validation of the paper's §3–§4 correspondence results
//! (experiments E8, E9, T3–T5 of DESIGN.md) on random programs:
//!
//! * Prop. 3 — every model of `OV(C)` in `C` is a 3-valued model of `C`
//!   (converse fails: Example 7).
//! * Prop. 4 — assumption-free models of `OV(C)` = founded 3-valued
//!   models of `C` (Saccà–Zaniolo).
//! * Cor. 1 — stable models of `OV(C)` = partial stable models of `C`;
//!   the total ones are exactly the Gelfond–Lifschitz stable models.
//! * Prop. 5 — `EV(C)` captures *all* 3-valued models (a), its
//!   assumption-free models sandwich `OV`'s (b, c), and its stable
//!   models coincide with `OV`'s (d).
//! * Thm. 2 — for negative programs, Definition 10 (3-level semantics)
//!   = Definition 11 (direct semantics).

use olp_core::{BitSet, GLit, Rule};
use olp_workload::{random_negative, random_seminegative, RandomCfg};
use ordered_logic::classic::{
    founded_models, is_3valued_model, partial_stable_models, stable_models_total, NafProgram,
};
use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::{enumerate_assumption_free, enumerate_models};
use ordered_logic::transform::{
    assumption_free_models_direct, is_assumption_free_direct, is_model_direct, stable_models_direct,
};
use proptest::prelude::*;

fn cfg(n_atoms: usize, n_rules: usize) -> RandomCfg {
    RandomCfg {
        n_atoms,
        n_rules,
        max_body: 2,
        neg_head_prob: 0.4, // only used by random_negative
        neg_body_prob: 0.5,
        n_components: 1,
        edge_prob: 0.0,
    }
}

/// Grounds the flat program `rules` (as its own single-component
/// program) and its OV / EV versions in one shared world, so atom ids
/// agree everywhere. Returns (world, flat ground rules, NafProgram,
/// ov ground + comp, ev ground + comp, n_atoms).
struct Setup {
    w: World,
    naf: NafProgram,
    ov: GroundProgram,
    ov_c: CompId,
    ev: GroundProgram,
    ev_c: CompId,
    n_atoms: usize,
}

fn setup_seminegative(seed: u64, c: &RandomCfg) -> Setup {
    let mut w = World::new();
    let flat = random_seminegative(&mut w, c, seed);
    let rules: Vec<Rule> = flat.components[0].rules.clone();
    let gc = GroundConfig::default();
    let flat_ground = ground_exhaustive(&mut w, &flat, &gc).unwrap();
    let (ov_prog, ov_c) = ordered_version(&mut w, &rules);
    let ov = ground_exhaustive(&mut w, &ov_prog, &gc).unwrap();
    let (ev_prog, ev_c) = extended_version(&mut w, &rules);
    let ev = ground_exhaustive(&mut w, &ev_prog, &gc).unwrap();
    let n_atoms = w.atoms.len();
    let mut naf = NafProgram::from_ground(&flat_ground).unwrap();
    naf.n_atoms = n_atoms;
    Setup {
        w,
        naf,
        ov,
        ov_c,
        ev,
        ev_c,
        n_atoms,
    }
}

/// All 3-valued interpretations over `0..n` atoms (3^n; keep n small).
fn all_interpretations(n: usize) -> Vec<Interpretation> {
    let mut out = vec![Interpretation::new()];
    for a in 0..n {
        let mut next = Vec::with_capacity(out.len() * 3);
        for i in out {
            next.push(i.clone());
            let mut t = i.clone();
            t.insert(GLit::pos(olp_core::AtomId(a as u32))).unwrap();
            next.push(t);
            let mut f = i;
            f.insert(GLit::neg(olp_core::AtomId(a as u32))).unwrap();
            next.push(f);
        }
        out = next;
    }
    out
}

fn sorted_renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
    let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
    v.sort();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A correspondence the paper does not state but which follows from
    /// its constructions (derived and proved in this reproduction): the
    /// least model of OV(C) in C equals the Fitting (Kripke–Kleene)
    /// model of C — the CWA facts fire exactly under Φ's falsity
    /// condition, the program rules exactly under its truth condition.
    #[test]
    fn new_correspondence_ov_lfp_is_fitting(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(5, 8));
        let v = FlatView::new(&s.ov, s.ov_c);
        let lfp = least_model(&v);
        let fitting = ordered_logic::classic::fitting_model(&s.naf);
        prop_assert_eq!(
            lfp.render(&s.w),
            fitting.render(&s.w),
            "V∞(OV) ≠ Fitting (seed {})", seed
        );
    }

    /// WFS ⊆ skeptical stable consequences of OV(C): the well-founded
    /// model is contained in every partial stable model [P3], which by
    /// Cor. 1 are exactly the stable models of OV(C) — so it survives
    /// the intersection. (This is the containment direction of the §5
    /// future-work "ordered well-founded semantics"; see
    /// `olp_semantics::skeptical`.)
    #[test]
    fn wfs_below_ov_skeptical(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let v = FlatView::new(&s.ov, s.ov_c);
        let sk = ordered_logic::semantics::skeptical_consequences(&v);
        let wfm = ordered_logic::classic::well_founded_model(&s.naf);
        prop_assert!(
            wfm.is_subset(&sk),
            "WFS ⊄ skeptical(OV) (seed {}): wfs {} sk {}",
            seed, wfm.render(&s.w), sk.render(&s.w)
        );
    }

    /// The OV↔Fitting correspondence also holds at the non-ground
    /// level: random safe Datalog programs with variables, grounded
    /// through the full pipeline.
    #[test]
    fn ov_lfp_is_fitting_nonground(seed in 0u64..5_000) {
        use olp_workload::{random_datalog, DatalogCfg};
        let dcfg = DatalogCfg {
            neg_head_prob: 0.0,
            n_components: 1,
            ..DatalogCfg::default()
        };
        let mut w = World::new();
        let flat = random_datalog(&mut w, &dcfg, seed);
        let rules: Vec<Rule> = flat.components[0].rules.clone();
        let gc = GroundConfig::default();
        let flat_ground = ground_exhaustive(&mut w, &flat, &gc).unwrap();
        let (ov, c) = ordered_version(&mut w, &rules);
        let ovg = ground_exhaustive(&mut w, &ov, &gc).unwrap();
        let n_atoms = w.atoms.len();
        let mut naf = NafProgram::from_ground(&flat_ground).unwrap();
        naf.n_atoms = n_atoms;
        let lfp = least_model(&FlatView::new(&ovg, c));
        let fitting = ordered_logic::classic::fitting_model(&naf);
        prop_assert_eq!(
            lfp.render(&w),
            fitting.render(&w),
            "non-ground OV ≠ Fitting (seed {})", seed
        );
    }

    /// Prop. 3: every model of OV(C) in C is a 3-valued model of C.
    #[test]
    fn prop3_ov_models_are_3valued(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let v = FlatView::new(&s.ov, s.ov_c);
        for m in enumerate_models(&v, s.n_atoms, None) {
            prop_assert!(
                is_3valued_model(&s.naf, &m),
                "OV model {} is not a 3-valued model", m.render(&s.w)
            );
        }
    }

    /// Prop. 4: assumption-free models of OV(C) in C == founded
    /// 3-valued models of C, as sets.
    #[test]
    fn prop4_ov_assumption_free_eq_founded(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let v = FlatView::new(&s.ov, s.ov_c);
        let af = enumerate_assumption_free(&v);
        // The AF enumeration restricts to derivable atoms; founded
        // models are enumerated over everything — but foundedness
        // forces undefinedness outside the derivable set, so the sets
        // must match exactly.
        let founded = founded_models(&s.naf);
        prop_assert_eq!(
            sorted_renders(&s.w, &af),
            sorted_renders(&s.w, &founded),
            "Prop 4 mismatch (seed {})", seed
        );
    }

    /// Cor. 1: stable models of OV(C) in C == partial stable models of
    /// C; their total members are exactly the GL stable models.
    #[test]
    fn cor1_ov_stable_eq_partial_stable(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let v = FlatView::new(&s.ov, s.ov_c);
        let ov_stable = stable_models(&v);
        let ps = partial_stable_models(&s.naf);
        prop_assert_eq!(
            sorted_renders(&s.w, &ov_stable),
            sorted_renders(&s.w, &ps),
            "Cor 1 mismatch (seed {})", seed
        );
        // Total members ↔ GL stable sets.
        let gl = stable_models_total(&s.naf);
        let total_stable: Vec<BitSet> = ov_stable
            .iter()
            .filter(|m| m.is_total(s.n_atoms))
            .map(|m| m.pos_atoms().map(|a| a.index()).collect())
            .collect();
        let mut a: Vec<String> = total_stable
            .iter()
            .map(|b| NafProgram::render_atoms(&s.w, b))
            .collect();
        a.sort();
        let mut b: Vec<String> = gl
            .iter()
            .map(|b| NafProgram::render_atoms(&s.w, b))
            .collect();
        b.sort();
        prop_assert_eq!(a, b, "total stable ≠ GL stable (seed {})", seed);
    }

    /// Prop. 5a: M is a 3-valued model of C iff M is a model of EV(C)
    /// in C — over ALL interpretations.
    #[test]
    fn prop5a_ev_models_eq_3valued(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(3, 5));
        let v = FlatView::new(&s.ev, s.ev_c);
        for m in all_interpretations(s.n_atoms) {
            prop_assert_eq!(
                is_model(&v, &m, s.n_atoms),
                is_3valued_model(&s.naf, &m),
                "Prop 5a mismatch on {} (seed {})", m.render(&s.w), seed
            );
        }
    }

    /// Prop. 5b + 5c: AF(OV) ⊆ AF(EV), and every AF(EV) model is ⊆
    /// some AF(OV) model.
    #[test]
    fn prop5bc_af_sandwich(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let ov_v = FlatView::new(&s.ov, s.ov_c);
        let ev_v = FlatView::new(&s.ev, s.ev_c);
        let af_ov = enumerate_assumption_free(&ov_v);
        let af_ev = enumerate_assumption_free(&ev_v);
        for m in &af_ov {
            prop_assert!(af_ev.contains(m), "5b violated (seed {})", seed);
        }
        for m in &af_ev {
            prop_assert!(
                af_ov.iter().any(|n| m.is_subset(n)),
                "5c violated (seed {})", seed
            );
        }
    }

    /// Prop. 5d: stable(OV) == stable(EV).
    #[test]
    fn prop5d_stable_coincide(seed in 0u64..10_000) {
        let s = setup_seminegative(seed, &cfg(4, 6));
        let ov_v = FlatView::new(&s.ov, s.ov_c);
        let ev_v = FlatView::new(&s.ev, s.ev_c);
        prop_assert_eq!(
            sorted_renders(&s.w, &stable_models(&ov_v)),
            sorted_renders(&s.w, &stable_models(&ev_v)),
            "Prop 5d mismatch (seed {})", seed
        );
    }

    /// Theorem 2: Definition 10 (3-level semantics) == Definition 11
    /// (direct semantics) for negative programs — models,
    /// assumption-free models, and stable models.
    #[test]
    fn thm2_direct_equals_three_level(seed in 0u64..10_000) {
        let mut w = World::new();
        let flat = random_negative(&mut w, &cfg(3, 5), seed);
        let rules: Vec<Rule> = flat.components[0].rules.clone();
        let gcfg = GroundConfig::default();
        let flat_ground = ground_exhaustive(&mut w, &flat, &gcfg).unwrap();
        let (tv_prog, cminus) = three_level_version(&mut w, &rules);
        let tv = ground_exhaustive(&mut w, &tv_prog, &gcfg).unwrap();
        let n_atoms = w.atoms.len();
        let v = FlatView::new(&tv, cminus);

        // (a) models agree over all interpretations.
        for m in all_interpretations(n_atoms) {
            prop_assert_eq!(
                is_model(&v, &m, n_atoms),
                is_model_direct(&flat_ground.rules, &m),
                "Thm 2 (models) mismatch on {} (seed {})", m.render(&w), seed
            );
        }
        // (b) assumption-free models agree.
        let af_tv = enumerate_assumption_free(&v);
        let af_direct = assumption_free_models_direct(&flat_ground.rules, n_atoms);
        prop_assert_eq!(
            sorted_renders(&w, &af_tv),
            sorted_renders(&w, &af_direct),
            "Thm 2 (AF) mismatch (seed {})", seed
        );
        // (c) stable models agree.
        prop_assert_eq!(
            sorted_renders(&w, &stable_models(&v)),
            sorted_renders(&w, &stable_models_direct(&flat_ground.rules, n_atoms)),
            "Thm 2 (stable) mismatch (seed {})", seed
        );
        // Sanity: AF checks agree pointwise on models.
        for m in &af_tv {
            prop_assert!(is_assumption_free_direct(&flat_ground.rules, m));
        }
    }
}

/// Regression (seed 2128 of the negative-program soak): `¬p2` held
/// only by an *overruled* closed-world default. The literal Def. 11(b)
/// (assumption sets over I⁺ only) calls the model assumption-free; the
/// 3-level semantics rightly does not — negative literals need support
/// too. Pinned against both reconstructed checkers.
#[test]
fn thm2_negative_literals_need_support() {
    let mut w = World::new();
    let flat = parse_program(
        &mut w,
        "-p0 :- -p1, p2.
         p0 :- -p1.
         -p2 :- -p1, -p2.
         -p1 :- -p1.
         p2 :- -p2.",
    )
    .unwrap();
    let rules: Vec<Rule> = flat.components[0].rules.clone();
    let gcfg = GroundConfig::default();
    let flat_ground = ground_exhaustive(&mut w, &flat, &gcfg).unwrap();
    let (tv_prog, cminus) = three_level_version(&mut w, &rules);
    let tv = ground_exhaustive(&mut w, &tv_prog, &gcfg).unwrap();
    let n_atoms = w.atoms.len();
    let v = FlatView::new(&tv, cminus);

    let m = Interpretation::from_literals(
        ["-p1", "-p2", "p0"]
            .iter()
            .map(|s| parse_ground_literal(&mut w, s).unwrap()),
    )
    .unwrap();
    // It IS a model on both sides…
    assert!(is_model(&v, &m, n_atoms));
    assert!(is_model_direct(&flat_ground.rules, &m));
    // …but not assumption-free on either: ¬p2's only non-circular
    // support is the CWA default, which the non-blocked rule
    // `p2 ← ¬p2` overrules.
    assert!(!ordered_logic::semantics::is_assumption_free(&v, &m));
    assert!(!is_assumption_free_direct(&flat_ground.rules, &m));
}

/// Example 7 (the Prop. 3 converse failure), pinned as a unit test:
/// {p} is a 3-valued model of {p ← ¬p} but not a model of OV in C.
#[test]
fn example7_converse_of_prop3_fails() {
    let mut w = World::new();
    let flat = parse_program(&mut w, "p :- -p.").unwrap();
    let rules = flat.components[0].rules.clone();
    let gc = GroundConfig::default();
    let flat_ground = ground_exhaustive(&mut w, &flat, &gc).unwrap();
    let naf = NafProgram::from_ground(&flat_ground).unwrap();
    let (ov_prog, c) = ordered_version(&mut w, &rules);
    let ov = ground_exhaustive(&mut w, &ov_prog, &gc).unwrap();
    let p = parse_ground_literal(&mut w, "p").unwrap();
    let m = Interpretation::from_literals([p]).unwrap();
    assert!(is_3valued_model(&naf, &m));
    assert!(!is_model(&FlatView::new(&ov, c), &m, ov.n_atoms));
}

/// Example 6 pinned: the OV of the ancestor program computes the CWA
/// completion of transitive closure.
#[test]
fn example6_ancestor_ov_total() {
    let mut w = World::new();
    let flat = parse_program(
        &mut w,
        "parent(a,b). parent(b,c).
         anc(X,Y) :- parent(X,Y).
         anc(X,Y) :- parent(X,Z), anc(Z,Y).",
    )
    .unwrap();
    let rules = flat.components[0].rules.clone();
    let (ov_prog, c) = ordered_version(&mut w, &rules);
    let ov = ground_exhaustive(&mut w, &ov_prog, &GroundConfig::default()).unwrap();
    let m = least_model(&FlatView::new(&ov, c));
    assert!(m.is_total(ov.n_atoms));
    assert!(m.holds(parse_ground_literal(&mut w, "anc(a,c)").unwrap()));
    assert!(m.holds(parse_ground_literal(&mut w, "-anc(b,a)").unwrap()));
    // And it agrees with the classical least-model + CWA of the
    // positive program.
    let flat_ground = {
        let flat2 = parse_program(
            &mut w,
            "module dup { parent(a,b). parent(b,c).
             anc(X,Y) :- parent(X,Y).
             anc(X,Y) :- parent(X,Z), anc(Z,Y). }",
        )
        .unwrap();
        ground_exhaustive(&mut w, &flat2, &GroundConfig::default()).unwrap()
    };
    let naf = NafProgram::from_ground(&flat_ground).unwrap();
    let lm = ordered_logic::classic::least_model_positive(&naf);
    for a in 0..flat_ground.n_atoms {
        let atom = olp_core::AtomId(a as u32);
        assert_eq!(
            m.holds(GLit::pos(atom)),
            lm.contains(a),
            "positive parts agree"
        );
    }
}

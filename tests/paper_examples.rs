//! Every figure and worked example of the paper, verified end to end
//! through the public facade (experiments E1–E10 of DESIGN.md).
//!
//! Each test states the paper's claim in its comment and checks it
//! mechanically. Section/figure references are to Laenens, Saccà &
//! Vermeir, "Extending Logic Programming", SIGMOD 1990.

use ordered_logic::prelude::*;
use ordered_logic::semantics::has_total_model;
use ordered_logic::semantics::reference::{enumerate_assumption_free, enumerate_models};

fn setup(src: &str) -> (World, OrderedProgram, GroundProgram) {
    let mut w = World::new();
    let p = parse_program(&mut w, src).expect("parses");
    let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).expect("grounds");
    (w, p, g)
}

fn comp(w: &World, p: &OrderedProgram, name: &str) -> CompId {
    p.component_by_name(w.syms.get(name).expect("component name interned"))
        .expect("component exists")
}

fn interp(w: &mut World, lits: &[&str]) -> Interpretation {
    Interpretation::from_literals(lits.iter().map(|s| parse_ground_literal(w, s).unwrap())).unwrap()
}

const FIG1: &str = "module c2 {
    bird(penguin). bird(pigeon).
    fly(X) :- bird(X).
    -ground_animal(X) :- bird(X).
 }
 module c1 < c2 {
    ground_animal(penguin).
    -fly(X) :- ground_animal(X).
 }";

const FIG1_COLLAPSED: &str = "bird(penguin). bird(pigeon).
 fly(X) :- bird(X).
 -ground_animal(X) :- bird(X).
 ground_animal(penguin).
 -fly(X) :- ground_animal(X).";

const FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X). }
 module c2 { poor(mimmo). -rich(X) :- poor(X). }
 module c1 < c2, c3 { free_ticket(X) :- poor(X). }";

// ---------------------------------------------------------------- E1

/// Fig. 1 / Example 1: "the penguin does not fly since some rules in C2
/// are overruled in C1", while "C1 can inherit a rule from C2 to infer
/// that the pigeon flies".
#[test]
fn e1_fig1_overruling() {
    let (mut w, p, g) = setup(FIG1);
    let c1 = comp(&w, &p, "c1");
    let m = least_model(&FlatView::new(&g, c1));
    let i1 = interp(
        &mut w,
        &[
            "bird(pigeon)",
            "bird(penguin)",
            "ground_animal(penguin)",
            "-ground_animal(pigeon)",
            "fly(pigeon)",
            "-fly(penguin)",
        ],
    );
    // The least model is exactly the paper's I1 (Example 2), which is
    // total, a model, and the unique stable model.
    assert_eq!(m, i1);
    assert!(m.is_total(g.n_atoms));
    assert!(is_model(&FlatView::new(&g, c1), &m, g.n_atoms));
    let stable = stable_models(&FlatView::new(&g, c1));
    assert_eq!(stable, vec![i1]);
}

/// E1 continued: from C2's own point of view, "to the best of the
/// knowledge of C2 the penguin is not a ground animal and flies".
#[test]
fn e1_fig1_view_from_c2() {
    let (mut w, p, g) = setup(FIG1);
    let c2 = comp(&w, &p, "c2");
    let m = least_model(&FlatView::new(&g, c2));
    assert!(m.holds(parse_ground_literal(&mut w, "fly(penguin)").unwrap()));
    assert!(m.holds(parse_ground_literal(&mut w, "-ground_animal(penguin)").unwrap()));
}

// ---------------------------------------------------------------- E2

/// Example 2/3 on P̂1 (all of Fig. 1 collapsed into one component):
/// overruling becomes defeating, I1 is no longer a model, and the
/// least model Î1 leaves fly(penguin) and ground_animal(penguin)
/// undefined.
#[test]
fn e2_fig1_collapsed_defeating() {
    let (mut w, p, g) = setup(FIG1_COLLAPSED);
    let c = comp(&w, &p, "main");
    let v = FlatView::new(&g, c);
    let i1 = interp(
        &mut w,
        &[
            "bird(pigeon)",
            "bird(penguin)",
            "ground_animal(penguin)",
            "-ground_animal(pigeon)",
            "fly(pigeon)",
            "-fly(penguin)",
        ],
    );
    assert!(!is_model(&v, &i1, g.n_atoms));
    let i1_hat = interp(
        &mut w,
        &[
            "bird(pigeon)",
            "bird(penguin)",
            "fly(pigeon)",
            "-ground_animal(pigeon)",
        ],
    );
    assert!(is_model(&v, &i1_hat, g.n_atoms));
    assert_eq!(least_model(&v), i1_hat);
    assert!(is_assumption_free(&v, &i1_hat));
}

// ---------------------------------------------------------------- E3

/// Fig. 2 / Examples 2–4: rich and poor defeat each other; "we cannot
/// establish whether mimmo is to receive a free ticket"; no total model
/// exists for P2 in C1; the empty set is the (only) assumption-free
/// model.
#[test]
fn e3_fig2_defeating() {
    let (mut w, p, g) = setup(FIG2);
    let c1 = comp(&w, &p, "c1");
    let v = FlatView::new(&g, c1);
    let m = least_model(&v);
    assert!(m.is_empty());
    assert!(!has_total_model(&v, g.n_atoms));
    let af = enumerate_assumption_free(&v);
    assert_eq!(af.len(), 1);
    assert!(af[0].is_empty());
    // I2 = {rich(mimmo), poor(mimmo)} is an interpretation but not a
    // model (Example 3).
    let i2 = interp(&mut w, &["rich(mimmo)", "poor(mimmo)"]);
    assert!(!is_model(&v, &i2, g.n_atoms));
}

/// E3 continued: in C3's and C2's own views the verdicts are opposite
/// and total — the program means different things to different
/// components.
#[test]
fn e3_fig2_local_views() {
    let (mut w, p, g) = setup(FIG2);
    let rich = parse_ground_literal(&mut w, "rich(mimmo)").unwrap();
    let m3 = least_model(&FlatView::new(&g, comp(&w, &p, "c3")));
    assert!(m3.holds(rich));
    let m2 = least_model(&FlatView::new(&g, comp(&w, &p, "c2")));
    assert!(m2.holds(rich.complement()));
}

// ---------------------------------------------------------------- E4

/// Fig. 3 + §1: the loan program's three scenarios.
#[test]
fn e4_loan_scenarios() {
    let run = |facts: &str| {
        let src = format!(
            "module expert2 {{ take_loan :- inflation(X), X > 11. }}
             module expert4 {{ -take_loan :- loan_rate(X), X > 14. }}
             module expert3 < expert4 {{
                 take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
             }}
             module myself < expert2, expert3 {{ {facts} }}"
        );
        let (mut w, p, g) = setup(&src);
        let myself = comp(&w, &p, "myself");
        let m = least_model(&FlatView::new(&g, myself));
        let t = parse_ground_literal(&mut w, "take_loan").unwrap();
        (m.holds(t), m.holds(t.complement()))
    };
    // "as no rule can be actually fired, no inference is possible".
    assert_eq!(run(""), (false, false));
    // "it is possible to infer from Expert2 that take_loan is true".
    assert_eq!(run("inflation(12)."), (true, false));
    // "both pieces of information are defeated and nothing can be said".
    assert_eq!(run("inflation(12). loan_rate(16)."), (false, false));
    // "the rule of Expert4 is overruled by the rule of Expert3 …
    //  take_loan is inferred at myself level".
    assert_eq!(run("inflation(19). loan_rate(16)."), (true, false));
}

// ---------------------------------------------------------------- E5

/// Example 3, P3 = {a ← b, ¬a ← b}: the models are exactly
/// {b}, {¬b}, {a,¬b}, {¬a,¬b} and ∅ — in particular the Herbrand base
/// is not a model, unlike traditional logic programming.
#[test]
fn e5_p3_model_lattice() {
    let (w, p, g) = setup("a :- b. -a :- b.");
    let c = comp(&w, &p, "main");
    let v = FlatView::new(&g, c);
    let models = enumerate_models(&v, g.n_atoms, None);
    let mut renders: Vec<String> = models.iter().map(|m| m.render(&w)).collect();
    renders.sort();
    let mut expected: Vec<String> = ["{}", "{b}", "{-b}", "{-b, a}", "{-a, -b}"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    expected.sort();
    assert_eq!(renders, expected);
    // The empty set is the only assumption-free model of P3.
    let af = enumerate_assumption_free(&v);
    assert_eq!(af.len(), 1);
    assert!(af[0].is_empty());
}

// ---------------------------------------------------------------- E6

/// Example 4, P4 = {a ← b}: only ∅ is assumption-free ("no ground
/// literal is true without making some assumption"); {¬a,¬b} is a model
/// but not assumption-free; adding the CWA component C2 = {¬a., ¬b.}
/// above makes {¬a,¬b} the only… an assumption-free model.
#[test]
fn e6_p4_and_cwa_component() {
    let (mut w, p, g) = setup("a :- b.");
    let c = comp(&w, &p, "main");
    let v = FlatView::new(&g, c);
    let af = enumerate_assumption_free(&v);
    assert_eq!(af.len(), 1);
    assert!(af[0].is_empty());
    let nn = interp(&mut w, &["-a", "-b"]);
    assert!(is_model(&v, &nn, g.n_atoms));
    assert!(!is_assumption_free(&v, &nn));

    let (mut w2, p2, g2) = setup("module c2 { -a. -b. } module c1 < c2 { a :- b. }");
    let c1 = comp(&w2, &p2, "c1");
    let v2 = FlatView::new(&g2, c1);
    let nn2 = interp(&mut w2, &["-a", "-b"]);
    assert!(is_model(&v2, &nn2, g2.n_atoms));
    assert!(is_assumption_free(&v2, &nn2));
    // It is in fact the unique stable model now.
    let stable = stable_models(&v2);
    assert_eq!(stable, vec![nn2]);
}

// ---------------------------------------------------------------- E7

/// Example 5, P5: {a,¬b,c} and {¬a,b,c} are the two stable models in
/// C1, while {c} is assumption-free but not stable — stable models are
/// not unique.
#[test]
fn e7_p5_two_stable_models() {
    let (mut w, p, g) = setup(
        "module c2 { a. b. c. }
         module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
    );
    let c1 = comp(&w, &p, "c1");
    let v = FlatView::new(&g, c1);
    let m1 = interp(&mut w, &["a", "-b", "c"]);
    let m2 = interp(&mut w, &["-a", "b", "c"]);
    let just_c = interp(&mut w, &["c"]);
    let mut stable = stable_models(&v);
    stable.sort_by_key(|m| m.render(&w));
    let mut expected = vec![m1, m2];
    expected.sort_by_key(|m| m.render(&w));
    assert_eq!(stable, expected);
    let af = enumerate_assumption_free(&v);
    assert!(af.contains(&just_c));
    assert!(!stable.contains(&just_c));
    // And the least model is exactly {c}: the intersection of all
    // models (Theorem 1b).
    assert_eq!(least_model(&v), just_c);
}

// ---------------------------------------------------------------- E10

/// Examples 8–9: a negative program under the 3-level semantics. The
/// negative rule acts as an exception: "every ground animal which is
/// also a bird does not fly" — while ordinary birds keep flying.
#[test]
fn e10_three_level_exceptions() {
    let mut w = World::new();
    let flat = parse_program(
        &mut w,
        "bird(tweety). ground_animal(tweety). bird(robin).
         fly(X) :- bird(X).
         -fly(X) :- ground_animal(X).",
    )
    .unwrap();
    let rules = flat.components.into_iter().next().unwrap().rules;
    let (tv, cminus) = three_level_version(&mut w, &rules);
    let g = ground_exhaustive(&mut w, &tv, &GroundConfig::default()).unwrap();
    let stable = stable_models(&FlatView::new(&g, cminus));
    assert_eq!(stable.len(), 1);
    let m = &stable[0];
    assert!(m.holds(parse_ground_literal(&mut w, "-fly(tweety)").unwrap()));
    assert!(m.holds(parse_ground_literal(&mut w, "fly(robin)").unwrap()));
    assert!(m.holds(parse_ground_literal(&mut w, "-ground_animal(robin)").unwrap()));
}

/// Example 8: the same program under the *two-level* semantics (OV) is
/// "rather poor": nothing can be said about the flying capabilities of
/// a bird that is also a ground animal — and the general rule is
/// defeated rather than overruled.
#[test]
fn e10_two_level_is_poor() {
    let mut w = World::new();
    let flat = parse_program(
        &mut w,
        "bird(tweety). ground_animal(tweety).
         fly(X) :- bird(X).
         -fly(X) :- ground_animal(X).",
    )
    .unwrap();
    let rules = flat.components.into_iter().next().unwrap().rules;
    let (ov, c) = ordered_version(&mut w, &rules);
    let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
    let m = least_model(&FlatView::new(&g, c));
    let fly = parse_ground_literal(&mut w, "fly(tweety)").unwrap();
    assert!(!m.holds(fly) && !m.holds(fly.complement()));
}

/// §2 after Definition 5: "it may happen that there exists a non-total
/// exhaustive model even when there is a total one" — P3 witnesses
/// this: {b} is exhaustive (its only candidate extensions violate
/// condition (a)) yet leaves `a` undefined, while {a,¬b} is total.
#[test]
fn def5_nontotal_exhaustive_coexists_with_total_on_p3() {
    use ordered_logic::semantics::is_exhaustive;
    let (mut w, p, g) = setup("a :- b. -a :- b.");
    let c = comp(&w, &p, "main");
    let v = FlatView::new(&g, c);
    let just_b = interp(&mut w, &["b"]);
    assert!(is_model(&v, &just_b, g.n_atoms));
    assert!(is_exhaustive(&v, &just_b, g.n_atoms));
    assert!(!just_b.is_total(g.n_atoms));
    let total = interp(&mut w, &["a", "-b"]);
    assert!(is_model(&v, &total, g.n_atoms));
    assert!(total.is_total(g.n_atoms));
}

/// Definition 5 footnote: an exhaustive model need not be total — on
/// P2 no total model exists, yet exhaustive models do (Prop. 2 says
/// every model extends to one).
#[test]
fn def5_exhaustive_without_total_on_fig2() {
    use ordered_logic::semantics::{extend_to_exhaustive, is_exhaustive};
    let (w, p, g) = setup(FIG2);
    let c1 = comp(&w, &p, "c1");
    let v = FlatView::new(&g, c1);
    assert!(!has_total_model(&v, g.n_atoms));
    let e = extend_to_exhaustive(&v, &Interpretation::new(), g.n_atoms);
    assert!(is_exhaustive(&v, &e, g.n_atoms));
    assert!(!e.is_total(g.n_atoms));
}

// ------------------------------------------------ general invariants

/// Lemma 1 / Prop. 1 / Thm. 1b across every paper program: the V
/// fixpoint is a model, assumption-free, and ⊆ every model.
#[test]
fn fixpoint_invariants_on_all_paper_programs() {
    for src in [
        FIG1,
        FIG1_COLLAPSED,
        FIG2,
        "a :- b. -a :- b.",
        "a :- b.",
        "module c2 { a. b. c. } module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }",
    ] {
        let (_, p, g) = setup(src);
        for ci in 0..p.components.len() {
            let v = FlatView::new(&g, CompId(ci as u32));
            let lm = least_model(&v);
            assert!(is_model(&v, &lm, g.n_atoms), "{src}");
            assert!(is_assumption_free(&v, &lm), "{src}");
            for m in enumerate_models(&v, g.n_atoms, None) {
                assert!(lm.is_subset(&m), "lfp not least for {src}");
            }
        }
    }
}

//! Negative programs as general rules + exceptions (§4, Examples 8–9).
//!
//! Run with: `cargo run --example color_choice`
//!
//! A *negative program* has rules with negated heads but no component
//! structure. The paper gives it meaning through the 3-level version
//! `3V(C)` — negative rules become exceptions sitting below the general
//! rules — and proves (Theorem 2) this equals a direct semantics stated
//! in classical terms. This example runs both on the flying-birds and
//! colour-choice programs and shows they agree.

use ordered_logic::prelude::*;
use ordered_logic::transform::{is_model_direct, stable_models_direct};

fn flat_rules(world: &mut World, src: &str) -> Vec<Rule> {
    let p = parse_program(world, src).expect("valid program");
    assert_eq!(p.components.len(), 1, "negative programs are flat");
    p.components.into_iter().next().unwrap().rules
}

fn main() {
    // --- Example 8/9: flying birds -----------------------------------
    let src_birds = "bird(tweety). ground_animal(tweety). bird(robin).
         fly(X) :- bird(X).
         -fly(X) :- ground_animal(X).";

    println!("=== Example 8/9: flying birds as a negative program ===\n");

    // Two-level semantics (OV): too weak — fly(tweety) is defeated.
    let mut w1 = World::new();
    let rules = flat_rules(&mut w1, src_birds);
    let (ov, c) = ordered_version(&mut w1, &rules);
    let g = ground_exhaustive(&mut w1, &ov, &GroundConfig::default()).unwrap();
    let m = least_model(&FlatView::new(&g, c));
    let fly_t = parse_ground_literal(&mut w1, "fly(tweety)").unwrap();
    println!(
        "two-level OV(C):  fly(tweety) = {:?}  (negative rules only defeat)",
        if m.holds(fly_t) {
            "True"
        } else if m.holds(fly_t.complement()) {
            "False"
        } else {
            "Undefined"
        }
    );

    // Three-level semantics: the exception wins for tweety, robin flies.
    let mut w2 = World::new();
    let rules = flat_rules(&mut w2, src_birds);
    let (tv, cminus) = three_level_version(&mut w2, &rules);
    let g2 = ground_exhaustive(&mut w2, &tv, &GroundConfig::default()).unwrap();
    let stable = stable_models(&FlatView::new(&g2, cminus));
    println!("three-level 3V(C) stable models ({}):", stable.len());
    for s in &stable {
        println!("  {}", s.render(&w2));
    }

    // --- Example 9: colour choice ------------------------------------
    println!("\n=== Example 9: colour choice (direct semantics) ===\n");
    let src_colors = "color(red). color(blue).
         colored(X) :- color(X), -colored(Y), X != Y.";
    let mut w3 = World::new();
    let prog = parse_program(&mut w3, src_colors).unwrap();
    let g3 = ground_exhaustive(&mut w3, &prog, &GroundConfig::default()).unwrap();
    let stable = stable_models_direct(&g3.rules, g3.n_atoms);
    println!("stable models of the choice program ({}):", stable.len());
    for s in &stable {
        println!("  {}", s.render(&w3));
    }
    println!("→ each stable model selects exactly one colour.\n");

    // With an ugly colour, the exception forcibly un-colours it.
    let src_ugly = "color(red). color(blue). color(grey).
         ugly_color(grey).
         colored(X) :- color(X), -colored(Y), X != Y.
         -colored(X) :- ugly_color(X).";
    let mut w4 = World::new();
    let prog4 = parse_program(&mut w4, src_ugly).unwrap();
    let g4 = ground_exhaustive(&mut w4, &prog4, &GroundConfig::default()).unwrap();
    let stable4 = stable_models_direct(&g4.rules, g4.n_atoms);
    println!("with ugly grey, stable models ({}):", stable4.len());
    for s in &stable4 {
        println!("  {}", s.render(&w4));
        assert!(is_model_direct(&g4.rules, s));
    }
    println!(
        "→ the exception -colored(grey) is forced, and anchors the \
         choice rule for every other colour."
    );
}

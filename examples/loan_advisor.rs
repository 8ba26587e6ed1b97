//! The paper's loan program (Fig. 3) with the three §1 scenarios.
//!
//! Run with: `cargo run --example loan_advisor`
//!
//! `myself` consults three experts. Expert2's advice is independent;
//! Expert3 refines Expert4 (sits *below* it in the hierarchy, so its
//! rule overrules Expert4's). Depending on the economic indicators the
//! advice is inferred, defeated (conflicting experts cancel out), or
//! resolved by refinement.

use ordered_logic::prelude::*;

/// Builds the Fig. 3 program with the given facts at `myself` level.
fn loan_program(world: &mut World, facts: &str) -> OrderedProgram {
    let src = format!(
        "module expert2 {{ take_loan :- inflation(X), X > 11. }}
         module expert4 {{ -take_loan :- loan_rate(X), X > 14. }}
         module expert3 < expert4 {{
             take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
         }}
         module myself < expert2, expert3 {{ {facts} }}"
    );
    parse_program(world, &src).expect("valid program")
}

fn advise(facts: &str) -> (&'static str, String) {
    let mut world = World::new();
    let prog = loan_program(&mut world, facts);
    let ground = ground_exhaustive(&mut world, &prog, &GroundConfig::default()).expect("grounds");
    let myself = prog
        .component_by_name(world.syms.get("myself").unwrap())
        .unwrap();
    let model = least_model(&FlatView::new(&ground, myself));
    let take = parse_ground_literal(&mut world, "take_loan").unwrap();
    let verdict = if model.holds(take) {
        "TAKE the loan"
    } else if model.holds(take.complement()) {
        "do NOT take the loan"
    } else {
        "no advice (experts conflict or are silent)"
    };
    (verdict, model.render(&world))
}

fn main() {
    println!("=== Fig. 3: the loan program ===\n");
    let scenarios = [
        ("no indicators", ""),
        ("inflation(12)", "inflation(12)."),
        (
            "inflation(12), loan_rate(16)",
            "inflation(12). loan_rate(16).",
        ),
        (
            "inflation(19), loan_rate(16)",
            "inflation(19). loan_rate(16).",
        ),
    ];
    for (label, facts) in scenarios {
        let (verdict, model) = advise(facts);
        println!("Scenario [{label}]");
        println!("  advice: {verdict}");
        println!("  model:  {model}\n");
    }
    println!(
        "Scenario 3 is the interesting one: Expert2 (pro) and Expert4 \
         (anti) would defeat each other, but Expert3 refines Expert4 \
         from below — 19 > 16 + 2 — so its pro-loan rule overrules \
         Expert4 and the advice goes through."
    );
}

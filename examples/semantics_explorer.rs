//! Interactive-ish semantics explorer: load an ordered program (from a
//! file argument, or a built-in demo) and print, for every component,
//! its least model, its assumption-free models, and its stable models.
//!
//! Run with:
//! `cargo run --example semantics_explorer [program.olp]`

use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::{enumerate_assumption_free, enumerate_models};

const DEMO: &str = "
% Example 5 of the paper: multiple stable models.
module c2 { a. b. c. }
module c1 < c2 {
    -a :- b, c.
    -b :- a.
    -b :- -b.
}
";

fn main() {
    let dump = std::env::args().any(|a| a == "--dump");
    let src = match std::env::args().filter(|a| a != "--dump").nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => {
            println!("(no file given — exploring the built-in Example 5 program)\n");
            DEMO.to_string()
        }
    };

    let mut world = World::new();
    let prog = match parse_program(&mut world, &src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let ground = match ground_exhaustive(&mut world, &prog, &GroundConfig::default()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("grounding error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "program: {} components, {} rules, {} ground instances, {} atoms\n",
        prog.components.len(),
        prog.rule_count(),
        ground.len(),
        ground.n_atoms
    );
    if dump {
        println!("── ground program ──\n{}", ground.render(&world));
    }

    for (ci, comp) in prog.components.iter().enumerate() {
        let c = CompId(ci as u32);
        let name = world.syms.name(comp.name);
        let view = FlatView::new(&ground, c);
        println!("── component `{name}` (sees {} rules) ──", view.len());

        let lm = least_model(&view);
        println!("  least model          : {}", lm.render(&world));

        let af = enumerate_assumption_free(&view);
        println!("  assumption-free ({:>2}) :", af.len());
        for m in &af {
            println!("      {}", m.render(&world));
        }

        let stable = stable_models(&view);
        println!("  stable ({:>2})          :", stable.len());
        for m in &stable {
            let total = if m.is_total(ground.n_atoms) {
                " (total)"
            } else {
                ""
            };
            println!("      {}{total}", m.render(&world));
        }

        // For small programs also report whether a total model exists at
        // all (Definition 5a) — this is exponential, so guard on size.
        if ground.n_atoms <= 12 {
            let any_total = enumerate_models(&view, ground.n_atoms, None)
                .iter()
                .any(|m| m.is_total(ground.n_atoms));
            println!("  total model exists   : {any_total}");
        }
        println!();
    }
}

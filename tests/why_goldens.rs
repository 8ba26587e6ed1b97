//! Byte goldens of `why` explanations on the shipped examples.
//!
//! For every component of `examples/programs/{penguin,loan,p5}.olp`
//! and both signs of every ground atom with a surface syntax, `Kb::explain` and a snapshot's
//! `KbSnapshot::explain_with` must print the same text, and that text
//! must match `tests/golden/why_NAME.txt` byte for byte. Each golden
//! has three sections: the freshly built KB, the KB after asserting a
//! rule that gives a queried head a second candidate rule, and the KB
//! after retracting it again. The mutation patches the compiled arenas
//! the earlier reads cached, so these files pin that a patched arena
//! explains exactly like a fresh one: the proof uses the first
//! qualifying rule in program order, and rules are listed in program
//! order.
//!
//! To regenerate a golden after an intended change, write the
//! `transcript` of its program to the file.

use ordered_logic::core::{AtomId, GLit};
use ordered_logic::kb::QueryOptions;
use ordered_logic::prelude::*;
use std::fmt::Write as _;

fn build(name: &str) -> Kb {
    let root = env!("CARGO_MANIFEST_DIR");
    let src = std::fs::read_to_string(format!("{root}/examples/programs/{name}.olp"))
        .expect("example exists");
    let mut world = World::new();
    let prog = parse_program(&mut world, &src).expect("example parses");
    KbBuilder::from_parts(world, prog)
        .build(GroundStrategy::Smart)
        .expect("example grounds")
}

/// Explains both signs of every ground atom in every component, first
/// through the KB (which caches its arenas), then through a snapshot
/// published after those reads.
fn explain_all(kb: &mut Kb, heading: &str, out: &mut String) {
    let _ = writeln!(out, "### {heading}");
    let objects: Vec<String> = kb.objects().iter().map(|s| (*s).to_string()).collect();
    let n_atoms = kb.ground_program().n_atoms;
    let mut texts = Vec::new();
    for object in &objects {
        for a in 0..n_atoms as u32 {
            for lit in [GLit::pos(AtomId(a)), GLit::neg(AtomId(a))] {
                let query = kb.world().glit_str(lit);
                if query.trim_start_matches('-').starts_with('#') {
                    continue; // the grounder's internal atoms have no surface syntax
                }
                let text = kb.explain(object, &query).expect("explains");
                texts.push((object.clone(), query, text));
            }
        }
    }
    let snap = kb.snapshot();
    let opts = QueryOptions::new().threads(1);
    for (object, query, text) in texts {
        let snap_text = snap
            .explain_with(&object, &query, &opts)
            .expect("explains")
            .into_value();
        assert_eq!(
            text, snap_text,
            "Kb and snapshot disagree on {query} in {object}"
        );
        let _ = writeln!(out, "== why {query} in {object}");
        out.push_str(&text);
    }
}

/// The three-section transcript of one example: built, after asserting
/// `rule` into `object`, and after retracting it.
fn transcript(name: &str, object: &str, rule: &str) -> String {
    let mut kb = build(name);
    let mut out = String::new();
    explain_all(&mut kb, "built", &mut out);
    kb.assert_rule(object, rule).expect("assert applies");
    explain_all(&mut kb, &format!("after assert {object}: {rule}"), &mut out);
    assert!(kb.retract_rule(object, rule).expect("retract applies"));
    explain_all(
        &mut kb,
        &format!("after retract {object}: {rule}"),
        &mut out,
    );
    out
}

fn check(name: &str, object: &str, rule: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let got = transcript(name, object, rule);
    let want =
        std::fs::read_to_string(format!("{root}/tests/golden/why_{name}.txt")).unwrap_or_default();
    assert!(
        got == want,
        "why transcript of {name} differs from tests/golden/why_{name}.txt:\n{got}"
    );
}

#[test]
fn penguin_why_matches_golden() {
    // A second rule for -fly(penguin) in c1 whose body sorts before the
    // existing one's: after the assert it is the proof's rule.
    check("penguin", "c1", "-fly(penguin) :- bird(penguin).");
}

#[test]
fn loan_why_matches_golden() {
    // A second expert3 rule for take_loan whose body is a prefix of the
    // existing one's, so it sorts first in program order.
    check("loan", "expert3", "take_loan :- inflation(19).");
}

#[test]
fn p5_why_matches_golden() {
    check("p5", "c1", "-a :- c.");
}

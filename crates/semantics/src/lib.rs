//! # olp-semantics — the declarative semantics of ordered logic programs
//!
//! Implements §2 of *"Extending Logic Programming"* (Laenens, Saccà &
//! Vermeir, SIGMOD 1990) over the compiled component views of
//! [`olp_ground`]: every routine here reads a [`olp_ground::FlatView`],
//! the arena form of `ground(C*)` that also evaluates the five rule
//! statuses of Definition 2 (applicable / applied / blocked /
//! overruled / defeated).
//!
//! * [`Interpretation`] — consistent 3-valued assignments (`B_P ∪ ¬B_P`);
//! * [`least_model`] — the least fixpoint of the ordered immediate
//!   transformation `V_{P,C}` (Def. 4, Lemma 1, Prop. 1, Thm. 1b): the
//!   least model, intersection of all models, assumption-free;
//! * [`is_model`] — Definition 3;
//! * [`greatest_assumption_set`] / [`is_assumption_free`] —
//!   Definitions 6–8 and Theorem 1a;
//! * [`stable_models`] and friends — Definition 9 (maximal
//!   assumption-free models), exhaustive models (Def. 5b, Prop. 2),
//!   total models (Def. 5a);
//! * [`Decomposition`] — independent rule groups: product-form
//!   enumeration ([`stable_models_decomposed`]), on by default in
//!   [`stable_models`];
//! * [`explain`] and [`prove`] — proof trees and refutations, and the
//!   goal-directed prover over a query's relevance cone;
//! * [`mod@reference`] — the definitions transcribed literally, kept as the
//!   differential-testing oracles and ablation baselines.
//!
//! ## Quick example (the paper's Fig. 1)
//!
//! ```
//! use olp_core::{CompId, World};
//! use olp_parser::{parse_ground_literal, parse_program};
//! use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
//! use olp_semantics::least_model;
//!
//! let mut world = World::new();
//! let prog = parse_program(&mut world, "
//!     module c2 {
//!         bird(penguin). bird(pigeon).
//!         fly(X) :- bird(X).
//!         -ground_animal(X) :- bird(X).
//!     }
//!     module c1 < c2 {
//!         ground_animal(penguin).
//!         -fly(X) :- ground_animal(X).
//!     }").unwrap();
//! let ground = ground_exhaustive(&mut world, &prog, &GroundConfig::default()).unwrap();
//!
//! // In the specific component c1 the penguin does not fly…
//! let c1 = prog.component_by_name(world.syms.get("c1").unwrap()).unwrap();
//! let m1 = least_model(&FlatView::new(&ground, c1));
//! let no_fly = parse_ground_literal(&mut world, "-fly(penguin)").unwrap();
//! assert!(m1.holds(no_fly));
//!
//! // …while in the general component c2 it does (inheritance is
//! // one-way: exceptions live below).
//! let c2 = prog.component_by_name(world.syms.get("c2").unwrap()).unwrap();
//! let m2 = least_model(&FlatView::new(&ground, c2));
//! assert!(m2.holds(no_fly.complement()));
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::missing_errors_doc,
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    clippy::doc_markdown,
    clippy::too_many_lines,
    clippy::similar_names,
    // Fixpoint/join code is written in the paper's notation: single
    // letters (rule r, literal l, component c) are the clearest names.
    clippy::many_single_char_names,
    // Local helper items next to their single use site read better
    // than hoisting them above unrelated setup code.
    clippy::items_after_statements
)]

mod assumption;
mod decomp;
mod explain;
mod flat_eval;
mod model;
mod prove;
pub mod reference;
mod skeptical;
mod stable;
mod stable_solver;

pub use assumption::{
    enabled_version, greatest_assumption_set, has_no_assumption_set, is_assumption_free, t_fixpoint,
};
pub use decomp::{
    enumerate_assumption_free_decomposed_budgeted, stable_models_decomposed, Decomposition,
    GroupMemo,
};
pub use explain::{explain, explain_budgeted, explain_in, render_why, Fate, Proof, Why};
pub use flat_eval::{
    least_model, least_model_budgeted, least_model_delta_flat, least_model_morsel,
    least_model_morsel_forced, MorselCfg,
};
pub use model::{check_model, is_model, ModelViolation};
pub use olp_core::{
    Budget, Eval, Inconsistency, Interpretation, InterruptReason, Interrupted, Truth,
};
use olp_ground::{FlatIdx, FlatView};
pub use prove::{prove, prove_budgeted, relevance_cone, relevance_cone_budgeted};
pub use skeptical::{credulous_consequences, skeptical_consequences};
pub use stable::{
    derivability_closure, extend_to_exhaustive, has_total_model, is_exhaustive, maximal_only,
    stable_models,
};
pub use stable_solver::{
    enumerate_assumption_free_propagating, enumerate_assumption_free_propagating_budgeted,
};

/// Intersection of a non-empty family of interpretations, as literal
/// sets (the empty family yields the empty interpretation).
pub fn interp_intersection(ms: &[Interpretation]) -> Interpretation {
    let mut out = match ms.first() {
        Some(m) => m.clone(),
        None => return Interpretation::new(),
    };
    for m in &ms[1..] {
        let drop: Vec<olp_core::GLit> = out.literals().filter(|&l| !m.holds(l)).collect();
        for l in drop {
            out.remove(l);
        }
    }
    out
}

/// Every rule of the arena, in flat order: the rule set of the
/// whole-view entry points.
fn all_rules(fv: &FlatView) -> Vec<FlatIdx> {
    (0..fv.len() as FlatIdx).collect()
}

/// Scaffolding shared by the unit tests.
#[cfg(test)]
mod test_util {
    use olp_core::{Interpretation, World};
    use olp_ground::{ground_exhaustive, GroundConfig, GroundProgram};

    /// Parses and exhaustively grounds `src`.
    pub(crate) fn ground(src: &str) -> (World, GroundProgram) {
        let mut w = World::new();
        let p = olp_parser::parse_program(&mut w, src).unwrap();
        let g = ground_exhaustive(&mut w, &p, &GroundConfig::default()).unwrap();
        (w, g)
    }

    /// The paper's Fig. 1: the penguin overrules the flying default.
    pub(crate) const FIG1: &str = "module c2 {
        bird(penguin). bird(pigeon).
        fly(X) :- bird(X).
        -ground_animal(X) :- bird(X).
     }
     module c1 < c2 {
        ground_animal(penguin).
        -fly(X) :- ground_animal(X).
     }";

    /// Example 5 (P5): two stable models in `c1`.
    pub(crate) const P5: &str = "module c2 { a. b. c. }
         module c1 < c2 { -a :- b, c. -b :- a. -b :- -b. }";

    /// The paper's Fig. 2: in `c1`, `rich` and `poor` defeat each other.
    pub(crate) const FIG2: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X). }
         module c2 { poor(mimmo). -rich(X) :- poor(X). }
         module c1 < c2, c3 { free_ticket(X) :- poor(X). }";

    /// The interpretation holding exactly `lits` (surface syntax).
    pub(crate) fn interp(w: &mut World, lits: &[&str]) -> Interpretation {
        let lits = lits
            .iter()
            .map(|s| olp_parser::parse_ground_literal(w, s).unwrap());
        Interpretation::from_literals(lits).unwrap()
    }

    /// Renders a model set, sorted, for order-insensitive comparison.
    pub(crate) fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
        v.sort();
        v
    }
}

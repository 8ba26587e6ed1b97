//! # ordered-logic — a reproduction of *Extending Logic Programming*
//! (Laenens, Saccà & Vermeir, SIGMOD 1990)
//!
//! **Ordered logic programming** extends logic programming with
//! object-oriented abstractions: a program is a partially ordered set
//! of *components* (modules/objects) whose rules may have **negated
//! heads**. A component inherits the rules of everything above it in
//! the "isa" hierarchy; local rules **overrule** inherited ones, and
//! contradictory rules from incomparable components **defeat** each
//! other — giving defaults, exceptions, versioning, and non-monotonic
//! reasoning in one declarative framework that also subsumes the
//! classical stable / founded / 3-valued semantics of negation.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | terms, literals, rules, components, ordered programs |
//! | [`parser`] | surface syntax |
//! | [`analyze`] | order-aware lints: W01–W08 / E01 diagnostics with spans |
//! | [`ground`] | exhaustive + smart grounders |
//! | [`semantics`] | Def. 2–9: statuses, `V` fixpoint, models, assumption-free & stable models |
//! | [`classic`] | classical baselines: `T_P`, stratified, WFS, GL-stable, founded |
//! | [`transform`] | `OV`/`EV`/`3V` and the direct semantics of negative programs |
//! | [`kb`] | knowledge-base layer: objects, isa, relations, queries |
//! | [`store`] | durability: checksummed snapshots, write-ahead log, crash recovery |
//! | [`server`] | `olp serve`: concurrent TCP server with snapshot-isolated reads |
//!
//! ## Quickstart
//!
//! ```
//! use ordered_logic::prelude::*;
//!
//! let mut b = KbBuilder::new();
//! b.rules("bird", "
//!     bird(penguin). bird(pigeon).
//!     fly(X) :- bird(X).
//!     -ground_animal(X) :- bird(X).
//! ").unwrap();
//! b.isa("antarctic", "bird");
//! b.rules("antarctic", "
//!     ground_animal(penguin).
//!     -fly(X) :- ground_animal(X).
//! ").unwrap();
//!
//! let mut kb = b.build(GroundStrategy::Smart).unwrap();
//! assert_eq!(kb.truth("antarctic", "fly(penguin)").unwrap(), Truth::False);
//! assert_eq!(kb.truth("antarctic", "fly(pigeon)").unwrap(), Truth::True);
//! assert_eq!(kb.truth("bird", "fly(penguin)").unwrap(), Truth::True);
//! ```

pub use olp_analyze as analyze;
pub use olp_classic as classic;
pub use olp_core as core;
pub use olp_ground as ground;
pub use olp_kb as kb;
pub use olp_parser as parser;
pub use olp_semantics as semantics;
pub use olp_server as server;
pub use olp_store as store;
pub use olp_transform as transform;

/// The most common imports in one place.
pub mod prelude {
    pub use olp_analyze::{analyze, Code, Diagnostic, Severity};
    pub use olp_core::{
        Budget, CompId, Eval, GLit, Interpretation, InterruptReason, Interrupted, OrderedProgram,
        Rule, Sign, Truth, World,
    };
    pub use olp_ground::{ground_exhaustive, ground_smart, FlatView, GroundConfig, GroundProgram};
    pub use olp_kb::{
        Durability, DurableKb, GroundStrategy, Kb, KbBuilder, QueryOptions, Relation,
    };
    pub use olp_parser::{parse_ground_literal, parse_program, parse_rule};
    pub use olp_semantics::{
        explain, is_assumption_free, is_model, least_model, prove, render_why,
        skeptical_consequences, stable_models,
    };
    pub use olp_transform::{extended_version, ordered_version, three_level_version};
}

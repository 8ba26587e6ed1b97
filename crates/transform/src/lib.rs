//! # olp-transform — the paper's program transformations (§3–§4)
//!
//! * [`ordered_version`] — `OV(C)`: a seminegative program under an
//!   explicit closed-world component.
//! * [`extended_version`] — `EV(C)`: adds reflexive rules so *all*
//!   3-valued models are captured (Prop. 5).
//! * [`three_level_version`] — `3V(C)`: negative programs with negative
//!   rules as exceptions to general rules (§4, Def. 10).
//! * [`direct`] — the equivalent direct semantics (Def. 11, Thm. 2)
//!   stated purely in classical terms.
//!
//! The correspondence results (Props. 3–5, Cor. 1, Thm. 2) are
//! validated mechanically in this crate's tests and in the workspace
//! `tests/transform_correspondence.rs` suite.
//!
//! ```
//! use olp_core::World;
//! use olp_ground::{ground_exhaustive, FlatView, GroundConfig};
//! use olp_parser::{parse_ground_literal, parse_program};
//! use olp_semantics::least_model;
//! use olp_transform::ordered_version;
//!
//! // Example 6: the ancestor program under the explicit closed-world
//! // assumption OV(C).
//! let mut w = World::new();
//! let flat = parse_program(&mut w, "
//!     parent(a,b). parent(b,c).
//!     anc(X,Y) :- parent(X,Y).
//!     anc(X,Y) :- parent(X,Z), anc(Z,Y).
//! ").unwrap();
//! let rules = flat.components[0].rules.clone();
//! let (ov, c) = ordered_version(&mut w, &rules);
//! let g = ground_exhaustive(&mut w, &ov, &GroundConfig::default()).unwrap();
//! let m = least_model(&FlatView::new(&g, c));
//! assert!(m.is_total(g.n_atoms));
//! let q = parse_ground_literal(&mut w, "-anc(c,a)").unwrap();
//! assert!(m.holds(q), "closed world: anc(c,a) is false");
//! ```

#![warn(missing_docs)]

pub mod direct;
pub mod versions;

pub use direct::{
    assumption_free_models_direct, greatest_assumption_set_direct, is_assumption_free_direct,
    is_model_direct, stable_models_direct,
};
pub use versions::{
    extended_version, ordered_version, ordered_version_ground_cwa, three_level_version,
};

//! # olp-bench — shared harness code for the benchmark suite and the
//! experiments binary.
//!
//! The Criterion benches (one per figure/experiment, see DESIGN.md §4)
//! and `src/bin/experiments.rs` (which regenerates the measured column
//! of EXPERIMENTS.md) share these setup helpers.

use olp_core::{CompId, OrderedProgram, World};
use olp_ground::{ground_exhaustive, ground_smart, GroundConfig, GroundProgram};
use olp_parser::parse_program;

/// Bundles a parsed + grounded program for benching.
pub struct Bench {
    /// The interners.
    pub world: World,
    /// The source program.
    pub prog: OrderedProgram,
    /// Its grounding.
    pub ground: GroundProgram,
}

/// Parses and grounds `src` with the exhaustive grounder.
pub fn setup_exhaustive(src: &str) -> Bench {
    let mut world = World::new();
    let prog = parse_program(&mut world, src).expect("parses");
    let ground = ground_exhaustive(&mut world, &prog, &GroundConfig::default()).expect("grounds");
    Bench {
        world,
        prog,
        ground,
    }
}

/// Grounds an already-built program with the smart grounder.
pub fn ground_built_smart(world: &mut World, prog: &OrderedProgram) -> GroundProgram {
    ground_smart(world, prog, &big_config()).expect("grounds")
}

/// Grounds an already-built program with the exhaustive grounder.
pub fn ground_built_exhaustive(world: &mut World, prog: &OrderedProgram) -> GroundProgram {
    ground_exhaustive(world, prog, &big_config()).expect("grounds")
}

/// A grounding config with headroom for the larger benchmark sizes.
pub fn big_config() -> GroundConfig {
    GroundConfig {
        max_depth: 2,
        max_terms: 1_000_000,
        max_instances: 200_000_000,
        ..Default::default()
    }
}

/// Looks up a component by name.
pub fn comp(b: &Bench, name: &str) -> CompId {
    b.prog
        .component_by_name(b.world.syms.get(name).expect("name"))
        .expect("component")
}

/// The Fig. 1 source, reused by benches and experiments.
pub const FIG1_SRC: &str = "module c2 {
    bird(penguin). bird(pigeon).
    fly(X) :- bird(X).
    -ground_animal(X) :- bird(X).
 }
 module c1 < c2 {
    ground_animal(penguin).
    -fly(X) :- ground_animal(X).
 }";

/// The Fig. 2 source.
pub const FIG2_SRC: &str = "module c3 { rich(mimmo). -poor(X) :- rich(X). }
 module c2 { poor(mimmo). -rich(X) :- poor(X). }
 module c1 < c2, c3 { free_ticket(X) :- poor(X). }";

/// The Fig. 3 source with a facts placeholder.
pub fn fig3_src(facts: &str) -> String {
    format!(
        "module expert2 {{ take_loan :- inflation(X), X > 11. }}
         module expert4 {{ -take_loan :- loan_rate(X), X > 14. }}
         module expert3 < expert4 {{
             take_loan :- inflation(X), loan_rate(Y), X > Y + 2.
         }}
         module myself < expert2, expert3 {{ {facts} }}"
    )
}

/// A win/move game program over a chain with a draw cycle at the end —
/// the canonical WFS workload for the `wfs_vs_ordered` bench.
pub fn win_move_src(n: usize) -> String {
    let mut s = String::new();
    for i in 1..n {
        s.push_str(&format!("move(n{},n{}).\n", i - 1, i));
    }
    // Draw cycle.
    s.push_str(&format!("move(n{},n{}).\n", n - 1, n));
    s.push_str(&format!("move(n{},n{}).\n", n, n - 1));
    s.push_str("win(X) :- move(X,Y), -win(Y).\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_ground::FlatView;
    use olp_semantics::least_model;

    #[test]
    fn fig_sources_work() {
        let b1 = setup_exhaustive(FIG1_SRC);
        assert!(!least_model(&FlatView::new(&b1.ground, comp(&b1, "c1"))).is_empty());
        let b2 = setup_exhaustive(FIG2_SRC);
        assert!(least_model(&FlatView::new(&b2.ground, comp(&b2, "c1"))).is_empty());
        let b3 = setup_exhaustive(&fig3_src("inflation(12)."));
        assert!(!least_model(&FlatView::new(&b3.ground, comp(&b3, "myself"))).is_empty());
    }

    #[test]
    fn win_move_generates() {
        let b = setup_exhaustive(&win_move_src(4));
        assert!(b.ground.len() > 4);
    }
}

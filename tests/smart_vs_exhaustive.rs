//! Property tests: the smart (relevance-restricted, join-based)
//! grounder agrees with the exhaustive reference on everything within
//! its documented scope — least models, assumption-free models and
//! stable models — on random ordered programs and on the workload
//! generators.

use olp_workload::{
    ancestor, defeating_pairs, expert_panel, random_ordered, taxonomy_chain, taxonomy_expected_fly,
    GraphShape, RandomCfg,
};
use ordered_logic::prelude::*;
use ordered_logic::semantics::reference::enumerate_assumption_free;
use proptest::prelude::*;

/// Renders a model set for order-insensitive comparison.
fn renders(w: &World, ms: &[Interpretation]) -> Vec<String> {
    let mut v: Vec<String> = ms.iter().map(|m| m.render(w)).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Least models agree per component on random propositional ordered
    /// programs.
    #[test]
    fn least_models_agree(seed in 0u64..20_000) {
        let cfg = RandomCfg {
            n_atoms: 6,
            n_rules: 12,
            max_body: 3,
            neg_head_prob: 0.35,
            neg_body_prob: 0.4,
            n_components: 3,
            edge_prob: 0.5,
        };
        let gc = GroundConfig::default();
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
        let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let m_ex = least_model(&FlatView::new(&g_ex, c));
            let m_sm = least_model(&FlatView::new(&g_sm, c));
            prop_assert_eq!(
                m_ex.render(&w), m_sm.render(&w),
                "least models differ in component {} (seed {})", ci, seed
            );
        }
    }

    /// Assumption-free and stable model sets agree on random programs.
    #[test]
    fn stable_models_agree(seed in 0u64..20_000) {
        let cfg = RandomCfg {
            n_atoms: 5,
            n_rules: 9,
            max_body: 2,
            neg_head_prob: 0.4,
            neg_body_prob: 0.4,
            n_components: 2,
            edge_prob: 0.6,
        };
        let gc = GroundConfig::default();
        let mut w = World::new();
        let p = random_ordered(&mut w, &cfg, seed);
        let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
        let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let af_ex = enumerate_assumption_free(&FlatView::new(&g_ex, c));
            let af_sm = enumerate_assumption_free(&FlatView::new(&g_sm, c));
            prop_assert_eq!(
                renders(&w, &af_ex), renders(&w, &af_sm),
                "AF sets differ in component {} (seed {})", ci, seed
            );
            let st_ex = stable_models(&FlatView::new(&g_ex, c));
            let st_sm = stable_models(&FlatView::new(&g_sm, c));
            prop_assert_eq!(
                renders(&w, &st_ex), renders(&w, &st_sm),
                "stable sets differ in component {} (seed {})", ci, seed
            );
        }
    }

    /// Non-propositional random safe Datalog with negated heads: least
    /// models and stable sets agree across grounders.
    #[test]
    fn random_datalog_agrees(seed in 0u64..20_000) {
        use olp_workload::{random_datalog, DatalogCfg};
        let cfg = DatalogCfg::default();
        let gc = GroundConfig::default();
        let mut w = World::new();
        let p = random_datalog(&mut w, &cfg, seed);
        let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
        let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
        for ci in 0..p.components.len() {
            let c = CompId(ci as u32);
            let m_ex = least_model(&FlatView::new(&g_ex, c));
            let m_sm = least_model(&FlatView::new(&g_sm, c));
            prop_assert_eq!(
                m_ex.render(&w), m_sm.render(&w),
                "least models differ in component {} (seed {})", ci, seed
            );
        }
    }

    /// Non-propositional: the ancestor workload (joins, recursion) —
    /// least models agree and match transitive closure.
    #[test]
    fn ancestor_least_models_agree(n in 2usize..9, seed in 0u64..1000) {
        let gc = GroundConfig::default();
        let mut w = World::new();
        let p = ancestor(&mut w, GraphShape::Random { edges: n + 2, seed }, n);
        let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
        let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
        let c = CompId(0);
        let m_ex = least_model(&FlatView::new(&g_ex, c));
        let m_sm = least_model(&FlatView::new(&g_sm, c));
        prop_assert_eq!(m_ex.render(&w), m_sm.render(&w));
    }
}

/// The taxonomy workload at moderate size: the smart grounder's least
/// model reproduces the analytically expected verdicts.
#[test]
fn taxonomy_smart_matches_expected_truth() {
    let (n_species, n_layers) = (64, 4);
    let mut w = World::new();
    let p = taxonomy_chain(&mut w, n_species, n_layers);
    let g = ground_smart(&mut w, &p, &GroundConfig::default()).unwrap();
    let m = least_model(&FlatView::new(&g, CompId(0)));
    for s in 0..n_species {
        let fly = parse_ground_literal(&mut w, &format!("fly(s{s})")).unwrap();
        let expected = taxonomy_expected_fly(n_species, n_layers, s);
        assert_eq!(
            m.holds(fly),
            expected,
            "species s{s}: expected fly={expected}"
        );
        assert_eq!(m.holds(fly.complement()), !expected);
    }
}

/// The defeating workload: everything is defeated at the consumer.
#[test]
fn defeating_pairs_smart_and_exhaustive_empty() {
    let mut w = World::new();
    let p = defeating_pairs(&mut w, 20);
    let gc = GroundConfig::default();
    let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
    let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
    let consumer = CompId(0);
    assert!(least_model(&FlatView::new(&g_ex, consumer)).is_empty());
    assert!(least_model(&FlatView::new(&g_sm, consumer)).is_empty());
    // But each individual expert still believes its own fact.
    let m_pro = least_model(&FlatView::new(&g_sm, CompId(1)));
    assert_eq!(m_pro.len(), 1);
}

/// The expert panel: both grounders give the same verdict across a
/// sweep of indicator values.
#[test]
fn expert_panel_verdicts_agree() {
    let gc = GroundConfig::default();
    for (infl, rate) in [(9, 9), (12, 12), (12, 16), (19, 16), (25, 30)] {
        let mut w = World::new();
        let p = expert_panel(&mut w, 6, infl, rate);
        let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
        let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
        let myself = CompId(0);
        let m_ex = least_model(&FlatView::new(&g_ex, myself));
        let m_sm = least_model(&FlatView::new(&g_sm, myself));
        assert_eq!(
            m_ex.render(&w),
            m_sm.render(&w),
            "verdicts differ at inflation={infl}, rate={rate}"
        );
    }
}

/// Smart grounding is strictly smaller on relevance-friendly inputs.
#[test]
fn smart_grounding_is_smaller_on_ancestor() {
    let gc = GroundConfig::default();
    let mut w = World::new();
    let p = ancestor(&mut w, GraphShape::Chain, 12);
    let g_ex = ground_exhaustive(&mut w, &p, &gc).unwrap();
    let g_sm = ground_smart(&mut w, &p, &gc).unwrap();
    assert!(
        g_sm.len() * 4 < g_ex.len(),
        "smart {} vs exhaustive {}",
        g_sm.len(),
        g_ex.len()
    );
}

//! End-to-end tests of programs with function symbols: the Herbrand
//! universe is infinite, so everything runs under the configurable
//! depth bound (§2 allows arbitrary terms `f(t1,…,tn)`).

use ordered_logic::prelude::*;

fn ground_with_depth(src: &str, depth: u32) -> (World, OrderedProgram, GroundProgram) {
    let mut w = World::new();
    let p = parse_program(&mut w, src).unwrap();
    let cfg = GroundConfig {
        max_depth: depth,
        ..GroundConfig::default()
    };
    let g = ground_smart(&mut w, &p, &cfg).unwrap();
    (w, p, g)
}

#[test]
fn peano_evens_up_to_depth() {
    let (mut w, _, g) = ground_with_depth("even(zero). even(s(s(X))) :- even(X).", 6);
    let m = least_model(&FlatView::new(&g, CompId(0)));
    for (term, expected) in [
        ("zero", true),
        ("s(zero)", false),
        ("s(s(zero))", true),
        ("s(s(s(zero)))", false),
        ("s(s(s(s(zero))))", true),
    ] {
        let q = parse_ground_literal(&mut w, &format!("even({term})")).unwrap();
        assert_eq!(m.holds(q), expected, "even({term})");
        // No CWA: odd numbers are undefined, not false.
        assert!(!m.holds(q.complement()), "-even({term}) underivable");
    }
}

#[test]
fn depth_bound_respected_by_both_grounders() {
    let src = "even(zero). even(s(s(X))) :- even(X).";
    for depth in [0u32, 2, 4] {
        let mut w1 = World::new();
        let p1 = parse_program(&mut w1, src).unwrap();
        let cfg = GroundConfig {
            max_depth: depth,
            ..GroundConfig::default()
        };
        let ge = ground_exhaustive(&mut w1, &p1, &cfg).unwrap();
        let m_ex = least_model(&FlatView::new(&ge, CompId(0)));

        let mut w2 = World::new();
        let p2 = parse_program(&mut w2, src).unwrap();
        let gs = ground_smart(&mut w2, &p2, &cfg).unwrap();
        let m_sm = least_model(&FlatView::new(&gs, CompId(0)));
        assert_eq!(
            m_ex.render(&w1),
            m_sm.render(&w2),
            "depth {depth}: grounders disagree"
        );
    }
}

#[test]
fn list_membership_with_pairs() {
    // cons-lists via a binary function symbol.
    let (mut w, _, g) = ground_with_depth(
        "list(cons(a, cons(b, nil))).
         member(X, cons(X, T)) :- list(cons(X, T)).
         sublist(T, cons(X, T)) :- list(cons(X, T)).
         list(T) :- sublist(T, L).
         member(X, L) :- sublist(T, L), member(X, T).",
        4,
    );
    let m = least_model(&FlatView::new(&g, CompId(0)));
    for (q, expected) in [
        ("member(a, cons(a, cons(b, nil)))", true),
        ("member(b, cons(a, cons(b, nil)))", true),
        ("member(b, cons(b, nil))", true),
        ("list(cons(b, nil))", true),
        ("list(nil)", true),
    ] {
        let lit = parse_ground_literal(&mut w, q).unwrap();
        assert_eq!(m.holds(lit), expected, "{q}");
    }
}

#[test]
fn exceptions_over_structured_terms() {
    // Overruling works on compound-term atoms exactly as on constants.
    let (mut w, _, g) = ground_with_depth(
        "module general {
            request(job(alice, deploy)). request(job(bob, deploy)).
            approve(J) :- request(J).
            -flagged(J) :- request(J).   % CWA default, overridable below
         }
         module security < general {
            flagged(job(bob, deploy)).
            -approve(J) :- flagged(J).
         }",
        2,
    );
    let sec = CompId(1);
    let m = least_model(&FlatView::new(&g, sec));
    let ok = parse_ground_literal(&mut w, "approve(job(alice, deploy))").unwrap();
    let denied = parse_ground_literal(&mut w, "-approve(job(bob, deploy))").unwrap();
    assert!(m.holds(ok), "alice's job approved");
    assert!(m.holds(denied), "bob's flagged job overruled");
}

#[test]
fn structural_equality_on_compound_terms() {
    // `=` / `!=` compare ground structures, not just constants.
    let (mut w, _, g) = ground_with_depth(
        "pair(p(a, b)). pair(p(a, a)).
         diagonal(P) :- pair(P), P = p(a, a).
         off_diagonal(P) :- pair(P), P != p(a, a).",
        2,
    );
    let m = least_model(&FlatView::new(&g, CompId(0)));
    assert!(m.holds(parse_ground_literal(&mut w, "diagonal(p(a, a))").unwrap()));
    assert!(!m.holds(parse_ground_literal(&mut w, "diagonal(p(a, b))").unwrap()));
    assert!(m.holds(parse_ground_literal(&mut w, "off_diagonal(p(a, b))").unwrap()));
}

#[test]
fn term_cap_errors_cleanly() {
    let mut w = World::new();
    let p = parse_program(&mut w, "t(leaf). t(node(X, Y)) :- t(X), t(Y).").unwrap();
    let cfg = GroundConfig {
        max_depth: 8,
        max_terms: 200,
        max_instances: 1_000_000,
        ..GroundConfig::default()
    };
    // The binary tree universe explodes doubly-exponentially; the
    // bound must trip, not hang.
    assert!(matches!(
        ground_exhaustive(&mut w, &p, &cfg),
        Err(ordered_logic::ground::GroundError::TooManyTerms(200))
    ));
}

//! Herbrand universe and base construction.
//!
//! `H_P` is the set of ground terms built from the constants and function
//! symbols of the program (§2). With function symbols it is infinite, so
//! construction is **depth-bounded** by [`GroundConfig::max_depth`] and
//! size-bounded by [`GroundConfig::max_terms`]; function-free programs
//! are unaffected by either bound.

use olp_core::{
    BodyItem, Budget, FxHashSet, GTermId, InterruptReason, OrderedProgram, Sym, Term, World,
};
use std::fmt;

/// Resource limits and bounds for grounding.
#[derive(Debug, Clone)]
pub struct GroundConfig {
    /// Maximum nesting depth of generated ground terms (0 = constants
    /// only). Function-free programs never reach the bound.
    pub max_depth: u32,
    /// Hard cap on the number of ground terms materialised.
    pub max_terms: usize,
    /// Hard cap on the number of rule instantiations *attempted*.
    pub max_instances: usize,
    /// Shared resource governor: deadline, step budget, cancellation.
    /// The default is unlimited; the instance caps above still apply.
    pub budget: Budget,
    /// Worker threads for the frontier-join phase of the smart
    /// grounder, one-shot or persistent. `1` (the default) runs
    /// everything on the calling thread; any value produces a
    /// bit-identical ground program (see `crate::delta` — phase A is
    /// read-only and phase B commits in a fixed order).
    pub threads: usize,
    /// Enables the selectivity-driven join planner (greedy body-literal
    /// reordering over the positional derivability index). `false`
    /// falls back to textual join order over unfiltered candidate
    /// lists — kept as an ablation baseline; the instance *set* is
    /// identical either way.
    pub plan: bool,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            max_depth: 2,
            max_terms: 100_000,
            max_instances: 10_000_000,
            budget: Budget::unlimited(),
            threads: 1,
            plan: true,
        }
    }
}

/// Errors raised during grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundError {
    /// The Herbrand universe exceeded [`GroundConfig::max_terms`].
    TooManyTerms(usize),
    /// Instantiation exceeded [`GroundConfig::max_instances`].
    TooManyInstances(usize),
    /// The component order is invalid.
    Order(olp_core::OrderError),
    /// The [`GroundConfig::budget`] ran out (deadline, step budget, or
    /// cancellation). Grounding is all-or-nothing — a partially ground
    /// program has no useful semantics — so exhaustion is an error, not
    /// a partial result.
    Interrupted(InterruptReason),
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::TooManyTerms(n) => {
                write!(
                    f,
                    "Herbrand universe exceeded {n} terms; raise max_terms or lower max_depth"
                )
            }
            GroundError::TooManyInstances(n) => {
                write!(
                    f,
                    "grounding exceeded {n} rule instantiations; raise max_instances"
                )
            }
            GroundError::Order(e) => write!(f, "invalid component order: {e}"),
            GroundError::Interrupted(r) => write!(f, "grounding interrupted: {r}"),
        }
    }
}

impl std::error::Error for GroundError {}

impl From<InterruptReason> for GroundError {
    fn from(r: InterruptReason) -> Self {
        GroundError::Interrupted(r)
    }
}

impl From<olp_core::OrderError> for GroundError {
    fn from(e: olp_core::OrderError) -> Self {
        GroundError::Order(e)
    }
}

/// The signature of a program: its constants and function symbols.
#[derive(Debug, Default)]
pub struct Signature {
    /// Ground constants appearing anywhere in the program (interned),
    /// in first-occurrence order.
    pub constants: Vec<GTermId>,
    /// Function symbols with their arities.
    pub funcs: Vec<(Sym, u32)>,
    /// Whether any rule contains a variable.
    pub has_vars: bool,
    /// Dedup index for `constants` (kept internal so collection stays
    /// linear in program size).
    seen_constants: FxHashSet<GTermId>,
}

fn walk_term(t: &Term, world: &mut World, sig: &mut Signature) {
    match t {
        Term::Var(_) => sig.has_vars = true,
        Term::Const(c) => {
            let id = world.terms.constant(*c);
            if sig.seen_constants.insert(id) {
                sig.constants.push(id);
            }
        }
        Term::Int(i) => {
            let id = world.terms.int(*i);
            if sig.seen_constants.insert(id) {
                sig.constants.push(id);
            }
        }
        Term::App(f, args) => {
            let key = (*f, args.len() as u32);
            if !sig.funcs.contains(&key) {
                sig.funcs.push(key);
            }
            for a in args {
                walk_term(a, world, sig);
            }
        }
    }
}

/// Collects the signature of `prog`, interning all constants.
///
/// Integers appearing in arithmetic expressions are *not* added (the
/// paper's comparisons filter instances; they do not generate terms).
pub fn signature(world: &mut World, prog: &OrderedProgram) -> Signature {
    let mut sig = Signature::default();
    for (_, rule) in prog.rules() {
        for t in &rule.head.args {
            walk_term(t, world, &mut sig);
        }
        for item in &rule.body {
            if let BodyItem::Lit(l) = item {
                for t in &l.args {
                    walk_term(t, world, &mut sig);
                }
            } else {
                sig.has_vars = sig.has_vars || {
                    let mut vs = Vec::new();
                    if let BodyItem::Cmp(c) = item {
                        c.collect_vars(&mut vs);
                    }
                    !vs.is_empty()
                };
            }
        }
    }
    sig
}

/// Builds the depth-bounded Herbrand universe from a signature.
///
/// If the program has variables but no constants, a fresh constant
/// (`#c`) is injected so that variables have something to range over —
/// the usual convention for an empty Herbrand universe.
pub fn herbrand_universe(
    world: &mut World,
    sig: &Signature,
    cfg: &GroundConfig,
) -> Result<Vec<GTermId>, GroundError> {
    let mut universe: Vec<GTermId> = sig.constants.clone();
    if universe.is_empty() && sig.has_vars {
        universe.push(world.constant("#c"));
    }
    if sig.funcs.is_empty() {
        return Ok(universe);
    }
    // Level-wise closure: at step d, combine terms of depth < d such
    // that at least one argument has depth d-1 (avoids regenerating
    // earlier levels).
    let mut frontier: Vec<GTermId> = universe.clone();
    for _depth in 1..=cfg.max_depth {
        let mut next = Vec::new();
        for &(f, arity) in &sig.funcs {
            let arity = arity as usize;
            // Enumerate argument tuples over `universe` where at least
            // one argument is from `frontier`.
            let mut idx = vec![0usize; arity];
            loop {
                cfg.budget.tick()?;
                let args: Vec<GTermId> = idx.iter().map(|&i| universe[i]).collect();
                if args.iter().any(|a| frontier.contains(a)) {
                    let t = world.terms.func(f, &args);
                    if !universe.contains(&t) && !next.contains(&t) {
                        next.push(t);
                        if universe.len() + next.len() > cfg.max_terms {
                            return Err(GroundError::TooManyTerms(cfg.max_terms));
                        }
                    }
                }
                // Advance the mixed-radix counter.
                let mut k = 0;
                loop {
                    if k == arity {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < universe.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == arity {
                    break;
                }
            }
        }
        if next.is_empty() {
            break;
        }
        universe.extend(next.iter().copied());
        frontier = next;
    }
    Ok(universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_parser::parse_program;

    #[test]
    fn signature_collects_constants_and_funcs() {
        let mut w = World::new();
        let p = parse_program(
            &mut w,
            "bird(penguin). bird(pigeon). nat(s(zero)). fly(X) :- bird(X).",
        )
        .unwrap();
        let sig = signature(&mut w, &p);
        assert_eq!(sig.constants.len(), 3); // penguin, pigeon, zero
        assert_eq!(sig.funcs.len(), 1); // s/1
        assert!(sig.has_vars);
    }

    #[test]
    fn function_free_universe_is_constants() {
        let mut w = World::new();
        let p = parse_program(&mut w, "p(a). p(b). q(X) :- p(X).").unwrap();
        let sig = signature(&mut w, &p);
        let u = herbrand_universe(&mut w, &sig, &GroundConfig::default()).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn depth_bounded_universe_with_functions() {
        let mut w = World::new();
        let p = parse_program(&mut w, "nat(zero). nat(s(X)) :- nat(X).").unwrap();
        let sig = signature(&mut w, &p);
        let cfg = GroundConfig {
            max_depth: 3,
            ..Default::default()
        };
        let u = herbrand_universe(&mut w, &sig, &cfg).unwrap();
        // zero, s(zero), s(s(zero)), s(s(s(zero)))
        assert_eq!(u.len(), 4);
        assert_eq!(u.iter().map(|&t| w.terms.depth(t)).max(), Some(3));
    }

    #[test]
    fn empty_universe_gets_fresh_constant() {
        let mut w = World::new();
        let p = parse_program(&mut w, "p(X) :- q(X).").unwrap();
        let sig = signature(&mut w, &p);
        let u = herbrand_universe(&mut w, &sig, &GroundConfig::default()).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(w.term_str(u[0]), "#c");
    }

    #[test]
    fn term_cap_enforced() {
        let mut w = World::new();
        let p = parse_program(&mut w, "p(a). p(b). p(f(X,Y)) :- p(X), p(Y).").unwrap();
        let sig = signature(&mut w, &p);
        let cfg = GroundConfig {
            max_depth: 5,
            max_terms: 50,
            ..Default::default()
        };
        assert_eq!(
            herbrand_universe(&mut w, &sig, &cfg).unwrap_err(),
            GroundError::TooManyTerms(50)
        );
    }

    #[test]
    fn comparison_integers_do_not_generate_terms() {
        let mut w = World::new();
        let p = parse_program(&mut w, "q(a). p :- q(X), 3 > 2.").unwrap();
        let sig = signature(&mut w, &p);
        let u = herbrand_universe(&mut w, &sig, &GroundConfig::default()).unwrap();
        assert_eq!(u.len(), 1); // only `a`
    }
}

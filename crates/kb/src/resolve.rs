//! Read-only query resolution, shared by [`crate::Kb`] and
//! [`crate::KbSnapshot`].
//!
//! The parser interns as it goes, but a read must not change the world
//! it reads (a snapshot's world is frozen and shared). Query text is
//! therefore parsed into a private scratch [`World`] and *translated*
//! into the real world through read-only lookups
//! ([`SymbolTable::get`], [`TermStore::lookup`], [`AtomStore::get_id`]).
//! A ground query whose atom was never materialised resolves to
//! `Undefined` — exactly what interning a fresh, never-derivable atom
//! would answer — and a pattern's constants and functors translate **by
//! name**, which agrees with interning because interning is injective
//! on names.
//!
//! [`SymbolTable::get`]: olp_core::SymbolTable::get
//! [`TermStore::lookup`]: olp_core::TermStore::lookup
//! [`AtomStore::get_id`]: olp_core::AtomStore::get_id

use crate::kb::KbError;
use olp_core::term::Bindings;
use olp_core::{
    CompId, GLit, GTerm, GTermId, Interpretation, Literal, OrderedProgram, Sym, Term, Truth, World,
};
use olp_parser::{parse_ground_literal, parse_literal};

/// The component named `object`.
pub(crate) fn component(
    world: &World,
    prog: &OrderedProgram,
    object: &str,
) -> Result<CompId, KbError> {
    world
        .syms
        .get(object)
        .and_then(|sym| prog.component_by_name(sym))
        .ok_or_else(|| KbError::UnknownObject(object.to_string()))
}

/// The names of all objects, in declaration order.
pub(crate) fn objects<'w>(world: &'w World, prog: &OrderedProgram) -> Vec<&'w str> {
    prog.components
        .iter()
        .map(|c| world.syms.name(c.name))
        .collect()
}

/// Resolves a ground query literal against `world` without interning:
/// `Ok(None)` means some symbol, term, or the atom itself was never
/// materialised (hence trivially underivable).
pub(crate) fn ground_literal(world: &World, query: &str) -> Result<Option<GLit>, KbError> {
    let mut scratch = World::new();
    let slit = parse_ground_literal(&mut scratch, query)
        .map_err(|_| KbError::NonGroundQuery(query.to_string()))?;
    let satom = scratch.atoms.get(slit.atom());
    let info = scratch.preds.info(satom.pred);
    let Some(pred) = world
        .syms
        .get(scratch.syms.name(info.name))
        .and_then(|sym| world.preds.get(sym, info.arity))
    else {
        return Ok(None);
    };
    let args: Option<Vec<GTermId>> = satom
        .args
        .iter()
        .map(|&a| translate_term(&scratch, world, a))
        .collect();
    Ok(args
        .and_then(|args| world.atoms.get_id(pred, &args))
        .map(|atom| GLit::new(slit.sign(), atom)))
}

/// The truth of a resolved literal in `m` (an unresolved one is
/// `Undefined`).
pub(crate) fn truth(m: &Interpretation, lit: Option<GLit>) -> Truth {
    match lit {
        Some(l) if m.holds(l) => Truth::True,
        Some(l) if m.holds(l.complement()) => Truth::False,
        _ => Truth::Undefined,
    }
}

/// A parsed (possibly non-ground) query pattern, e.g. `fly(X)`.
pub(crate) struct Pattern {
    scratch: World,
    lit: Literal,
}

impl Pattern {
    pub(crate) fn parse(pattern: &str) -> Result<Self, KbError> {
        let mut scratch = World::new();
        let lit = parse_literal(&mut scratch, pattern).map_err(KbError::Parse)?;
        Ok(Pattern { scratch, lit })
    }

    /// Every binding of the pattern's variables whose instance is true
    /// in `m`, rendered `var=term` in first-occurrence order and
    /// sorted. A ground pattern yields one empty binding when it holds.
    pub(crate) fn bindings(&self, world: &World, m: &Interpretation) -> Vec<String> {
        let (scratch, lit) = (&self.scratch, &self.lit);
        let mut vars = Vec::new();
        lit.collect_vars(&mut vars);
        let info = scratch.preds.info(lit.pred);
        let Some(pred) = world
            .syms
            .get(scratch.syms.name(info.name))
            .and_then(|s| world.preds.get(s, info.arity))
        else {
            // Unknown predicate: no materialised instances.
            return Vec::new();
        };
        // A constant or functor the world never saw matches nothing.
        let Some(args) = lit
            .args
            .iter()
            .map(|a| into_world(scratch, world, a))
            .collect::<Option<Vec<Term>>>()
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &atom in world.atoms.of_pred(pred) {
            if !m.holds(GLit::new(lit.sign, atom)) {
                continue;
            }
            let mut b = Bindings::default();
            let matched = args
                .iter()
                .zip(world.atoms.get(atom).args.iter())
                .all(|(pat, &g)| pat.match_ground(g, &world.terms, &mut b));
            if matched {
                let binding: Vec<String> = vars
                    .iter()
                    .map(|v| format!("{}={}", scratch.syms.name(*v), world.term_str(b[v])))
                    .collect();
                out.push(binding.join(", "));
            }
        }
        out.sort();
        out
    }
}

/// Translates a ground term interned in `scratch` into `real`'s term
/// store by structural read-only lookup; `None` if any sub-term was
/// never materialised there.
fn translate_term(scratch: &World, real: &World, t: GTermId) -> Option<GTermId> {
    match scratch.terms.get(t) {
        GTerm::Const(s) => {
            let rs = real.syms.get(scratch.syms.name(*s))?;
            real.terms.lookup(&GTerm::Const(rs))
        }
        GTerm::Int(i) => real.terms.lookup(&GTerm::Int(*i)),
        GTerm::Func(f, args) => {
            let rf = real.syms.get(scratch.syms.name(*f))?;
            let rargs: Option<Vec<GTermId>> = args
                .iter()
                .map(|&a| translate_term(scratch, real, a))
                .collect();
            real.terms.lookup(&GTerm::Func(rf, rargs?.into()))
        }
    }
}

/// Translates a (scratch-world) pattern term into `real`'s symbols by
/// read-only lookup; `None` if a constant or functor was never
/// interned there. Variables keep their scratch symbols: they only key
/// the bindings.
fn into_world(scratch: &World, real: &World, t: &Term) -> Option<Term> {
    let sym = |s: &Sym| real.syms.get(scratch.syms.name(*s));
    Some(match t {
        Term::Var(v) => Term::Var(*v),
        Term::Const(c) => Term::Const(sym(c)?),
        Term::Int(i) => Term::Int(*i),
        Term::App(f, args) => Term::App(
            sym(f)?,
            args.iter()
                .map(|a| into_world(scratch, real, a))
                .collect::<Option<_>>()?,
        ),
    })
}

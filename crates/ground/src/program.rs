//! Ground programs: the output of grounding.
//!
//! A [`GroundRule`] is a fully instantiated rule — packed literals only —
//! tagged with the component it came from (the paper's `C(r)` function).
//! A [`GroundProgram`] is the instantiation of a whole ordered program,
//! together with the component [`Order`] and precomputed per-component
//! *views*: the view of component `C` is `ground(C*)`, the instances of
//! all rules in components `≥ C`.

use olp_core::{CompId, GLit, Order, World};

/// A fully instantiated rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroundRule {
    /// Head literal.
    pub head: GLit,
    /// Body literals, sorted and deduplicated (order is semantically
    /// irrelevant; canonical form enables instance deduplication).
    pub body: Box<[GLit]>,
    /// The component whose (non-ground) rule this instantiates — `C(r)`.
    pub comp: CompId,
}

impl GroundRule {
    /// Builds a rule, canonicalising the body.
    pub fn new(head: GLit, mut body: Vec<GLit>, comp: CompId) -> Self {
        body.sort_unstable();
        body.dedup();
        GroundRule {
            head,
            body: body.into_boxed_slice(),
            comp,
        }
    }

    /// Whether the body is empty.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }
}

/// Index of a ground rule within a [`GroundProgram`].
pub type RuleIdx = u32;

/// The grounding of an ordered program.
#[derive(Debug, Clone)]
pub struct GroundProgram {
    /// All ground rule instances, across all components.
    pub rules: Vec<GroundRule>,
    /// The component partial order.
    pub order: Order,
    /// Number of ground atoms materialised in the [`World`] when
    /// grounding finished; interpretations index atoms `0..n_atoms`.
    pub n_atoms: usize,
    /// Per-component view: `views[c]` lists the indices of the rules in
    /// `ground(C*)` (rules of all components `j ≥ c`).
    views: Vec<Vec<RuleIdx>>,
}

impl GroundProgram {
    /// Assembles a ground program, deduplicating identical instances
    /// within a component and building the per-component views.
    pub fn new(mut rules: Vec<GroundRule>, order: Order, n_atoms: usize) -> Self {
        // Canonical dedup across (comp, head, body). Sorting keeps the
        // construction deterministic independent of grounding order.
        rules.sort_unstable_by(|a, b| (a.comp, a.head, &a.body).cmp(&(b.comp, b.head, &b.body)));
        rules.dedup();
        let views = (0..order.len())
            .map(|c| {
                let c = CompId(c as u32);
                rules
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| order.in_view(c, r.comp))
                    .map(|(i, _)| i as RuleIdx)
                    .collect()
            })
            .collect();
        GroundProgram {
            rules,
            order,
            n_atoms,
            views,
        }
    }

    /// The rule indices of `ground(C*)` for component `c`.
    pub fn view(&self, c: CompId) -> &[RuleIdx] {
        &self.views[c.index()]
    }

    /// Iterates over the rules of the view of `c`.
    pub fn view_rules(&self, c: CompId) -> impl Iterator<Item = (RuleIdx, &GroundRule)> {
        self.views[c.index()]
            .iter()
            .map(move |&i| (i, &self.rules[i as usize]))
    }

    /// Total number of rule instances.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no instances.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Renders the entire ground program, one rule per line, grouped by
    /// component — the "show me what the grounder actually produced"
    /// debugging view (the `semantics_explorer` example prints it with
    /// `--dump`).
    pub fn render(&self, world: &World) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in 0..self.order.len() {
            let c = CompId(c as u32);
            let _ = writeln!(out, "component {}:", c.0);
            for (i, r) in self.rules.iter().enumerate() {
                if r.comp == c {
                    out.push_str("  ");
                    out.push_str(&self.rule_str(world, i as RuleIdx));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Renders a ground rule for diagnostics.
    pub fn rule_str(&self, world: &World, idx: RuleIdx) -> String {
        let r = &self.rules[idx as usize];
        render_rule(world, r.head, &r.body, r.comp)
    }
}

/// Renders a ground rule as `[comp] head :- body.` (`[comp] head.` for
/// a fact).
pub(crate) fn render_rule(world: &World, head: GLit, body: &[GLit], comp: CompId) -> String {
    let head = world.glit_str(head);
    if body.is_empty() {
        format!("[{}] {}.", comp.0, head)
    } else {
        let body: Vec<String> = body.iter().map(|&l| world.glit_str(l)).collect();
        format!("[{}] {} :- {}.", comp.0, head, body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olp_core::AtomId;

    fn order2() -> Order {
        // c0 < c1
        Order::from_edges(2, &[(CompId(0), CompId(1))]).unwrap()
    }

    #[test]
    fn body_canonicalised() {
        let a = GLit::pos(AtomId(3));
        let b = GLit::neg(AtomId(1));
        let r1 = GroundRule::new(GLit::pos(AtomId(0)), vec![a, b, a], CompId(0));
        let r2 = GroundRule::new(GLit::pos(AtomId(0)), vec![b, a], CompId(0));
        assert_eq!(r1, r2);
        assert_eq!(r1.body.len(), 2);
    }

    #[test]
    fn views_follow_order() {
        let h0 = GLit::pos(AtomId(0));
        let h1 = GLit::pos(AtomId(1));
        let rules = vec![
            GroundRule::new(h0, vec![], CompId(0)),
            GroundRule::new(h1, vec![], CompId(1)),
        ];
        let gp = GroundProgram::new(rules, order2(), 2);
        // View of c0 (lowest) sees both; view of c1 sees only its own.
        assert_eq!(gp.view(CompId(0)).len(), 2);
        assert_eq!(gp.view(CompId(1)).len(), 1);
        let (_, r) = gp.view_rules(CompId(1)).next().unwrap();
        assert_eq!(r.comp, CompId(1));
    }

    #[test]
    fn render_groups_by_component() {
        use olp_core::World;
        let mut w = World::new();
        let a = w.ground_atom("a", &[]);
        let b = w.ground_atom("b", &[]);
        let rules = vec![
            GroundRule::new(GLit::pos(a), vec![], CompId(0)),
            GroundRule::new(GLit::neg(b), vec![GLit::pos(a)], CompId(1)),
        ];
        let gp = GroundProgram::new(rules, order2(), 2);
        let text = gp.render(&w);
        assert!(text.contains("component 0:"));
        assert!(text.contains("component 1:"));
        assert!(text.contains("[1] -b :- a."));
    }

    #[test]
    fn duplicate_instances_in_same_component_dedup() {
        let h = GLit::pos(AtomId(0));
        let rules = vec![
            GroundRule::new(h, vec![GLit::pos(AtomId(1))], CompId(0)),
            GroundRule::new(h, vec![GLit::pos(AtomId(1))], CompId(0)),
            // Same rule in the *other* component must be kept distinct
            // (the paper treats it as a distinct ground instance with its
            // own C(r)).
            GroundRule::new(h, vec![GLit::pos(AtomId(1))], CompId(1)),
        ];
        let gp = GroundProgram::new(rules, order2(), 2);
        assert_eq!(gp.len(), 2);
    }
}

//! The `assume` / `check` solver context, mirroring the Z3Py workflow that
//! Giallar builds on (§2.4 of the paper).
//!
//! A [`Context`] owns a term arena, a set of directed rewrite axioms, and a
//! list of assumptions.  `check_*` queries normalise the involved terms with
//! the rewrite axioms, consult a congruence closure over the (normalised)
//! assumed equalities, and decide the query.  Failed equality checks return a
//! [`Verdict::Refuted`] carrying the two distinct normal forms — in the free
//! term algebra these *are* a counterexample, and the Giallar verifier turns
//! them into a concrete circuit pair for the user.
//!
//! The context is **incremental**: assumptions are folded into one persistent
//! [`CongruenceClosure`] as they arrive (instead of cloning the assumption
//! list and rebuilding the closure on every query), [`Context::push`] /
//! [`Context::pop`] snapshot and restore that closure, and the rewriter's
//! normal-form memo survives across queries because the arena is append-only
//! and the rule set is fixed after construction.  Installing a rule after
//! assumptions were folded marks the folded state dirty and the next query
//! rebuilds it, so late [`Context::add_rule`] calls keep the exact semantics
//! of the non-incremental solver.

use serde::{Deserialize, Serialize};

use crate::congruence::CongruenceClosure;
use crate::rewrite::{RewriteRule, Rewriter};
use crate::term::{TermArena, TermId};

/// Tree-node budget for the normal forms a refutation explanation renders.
///
/// Terms print as their tree expansion, which is exponentially larger than
/// the hash-consed representation for wires of deep entangling circuits;
/// the clamp keeps every explanation bounded (and the check fast) while
/// rendering any reasonably sized counterexample in full.
pub const MAX_EXPLANATION_NODES: usize = 2_048;

/// A quantifier-free formula over interned terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Formula {
    /// Equality of two terms.
    Eq(TermId, TermId),
    /// Disequality of two terms.
    Ne(TermId, TermId),
    /// Strictly-less-than over integer-valued terms.
    Lt(TermId, TermId),
    /// Less-than-or-equal over integer-valued terms.
    Le(TermId, TermId),
    /// A propositional constant.
    Bool(bool),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
}

/// Structured coordinates of the fault a refutation pinpoints.
///
/// The solver itself only knows terms, so it never attaches a site; the
/// layers that translate circuit semantics into goals (the symbolic
/// equivalence checker, the wire-map validators, the termination backend)
/// decorate their refutations with the concrete wire, map entry, or measure
/// that failed.  Tooling — the fault-injection campaign in particular —
/// consumes the site to judge whether a refutation localises the bug instead
/// of merely reporting "not equal".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// A specific logical wire whose symbolic state diverges between the two
    /// circuits.
    Wire {
        /// The logical wire (qubit index) that differs.
        wire: usize,
    },
    /// The wire map itself is malformed: an entry is out of range, or the
    /// map covers the wrong number of qubits.
    WireMap {
        /// The offending map entry (target wire), when one entry is at
        /// fault; `None` when the map's length is wrong.
        entry: Option<usize>,
        /// The number of entries the map actually has.
        len: usize,
    },
    /// A termination measure fails to decrease across a loop iteration.
    Termination {
        /// Measure before the iteration (gates consumed from the worklist).
        consumed: i64,
        /// Measure after the iteration (gates still kept on the worklist).
        kept: i64,
    },
}

/// The result of a `check` query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The goal holds under the assumptions and rewrite axioms.
    Proved,
    /// The goal fails; the explanation names the distinct normal forms or the
    /// violated arithmetic fact.
    Refuted {
        /// Human-readable explanation / counterexample description.
        explanation: String,
        /// Structured coordinates of the fault, when a circuit-aware layer
        /// could localise it.  The bare solver always leaves this `None`.
        site: Option<FaultSite>,
    },
    /// The fragment cannot decide the goal (e.g. symbolic arithmetic).
    Unknown {
        /// Why the solver gave up.
        reason: String,
    },
}

impl Verdict {
    /// A refutation with no structured fault site.
    pub fn refuted(explanation: impl Into<String>) -> Self {
        Verdict::Refuted { explanation: explanation.into(), site: None }
    }

    /// A refutation localised to a structured fault site.
    pub fn refuted_at(explanation: impl Into<String>, site: FaultSite) -> Self {
        Verdict::Refuted { explanation: explanation.into(), site: Some(site) }
    }

    /// Returns `true` for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    /// Returns `true` for [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted { .. })
    }

    /// The structured fault site, when the verdict is a localised refutation.
    pub fn fault_site(&self) -> Option<FaultSite> {
        match self {
            Verdict::Refuted { site, .. } => *site,
            _ => None,
        }
    }

    /// Attaches a fault site to a refutation (other verdicts pass through
    /// unchanged).  An existing site is preserved: the innermost layer knows
    /// the most precise coordinates.
    pub fn with_site(self, site: FaultSite) -> Self {
        match self {
            Verdict::Refuted { explanation, site: None } => {
                Verdict::Refuted { explanation, site: Some(site) }
            }
            other => other,
        }
    }
}

/// Statistics describing the work done by a context (reported in Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Number of `check_*` queries answered.
    pub checks: usize,
    /// Number of rewrite-rule applications performed.
    pub rewrite_steps: usize,
    /// Number of assumed equalities folded into the congruence closure.
    /// The incremental solver folds each assumption once (re-folding only
    /// after a `pop` discards it or a late `add_rule` invalidates the folded
    /// state), so this counts distinct folds, not per-query re-assertions.
    pub asserted_equalities: usize,
}

/// One entry of the scope stack: everything [`Context::pop`] must restore.
#[derive(Debug, Clone)]
struct Scope {
    assumptions: usize,
    facts: usize,
    folded: usize,
    /// Installed rule count at `push` time: rules are not scoped, so a rule
    /// added inside the scope survives the `pop` and the restored folded
    /// state (built under fewer rules) must be marked stale.
    rules: usize,
    cc: CongruenceClosure,
}

/// An `assume`/`check` solver context.
///
/// Cloning a context is cheap: the clone shares the compiled rule library
/// and the arena's symbol table with the original (see [`Rewriter`] and
/// [`TermArena`]) and copies only the terms, assumptions and memo.  The
/// verifier keeps a fully-initialised template context per process and
/// clones it for every solver it builds, so rule compilation happens once
/// per process.
#[derive(Debug, Clone, Default)]
pub struct Context {
    arena: TermArena,
    rewriter: Rewriter,
    assumptions: Vec<Formula>,
    scopes: Vec<Scope>,
    stats: SolverStats,
    /// Persistent congruence closure over the folded assumed equalities.
    cc: CongruenceClosure,
    /// Non-equality assumptions (arithmetic facts), folded incrementally.
    facts: Vec<Formula>,
    /// How many of `assumptions` have been folded into `cc` / `facts`.
    folded: usize,
    /// Set by [`Context::add_rule`]: normal forms inside `cc` may be stale,
    /// rebuild the folded state on the next query.
    rules_dirty: bool,
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Mutable access to the term arena (used to build terms).
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Read-only access to the term arena.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Installs a rewrite axiom.
    ///
    /// Rules installed after assumptions were already folded invalidate the
    /// folded congruence state (assumption terms must be re-normalised under
    /// the larger rule set); the next query rebuilds it.
    pub fn add_rule(&mut self, rule: RewriteRule) {
        self.rewriter.add_rule(&mut self.arena, rule);
        self.rules_dirty = true;
    }

    /// Number of installed rewrite axioms.
    pub fn num_rules(&self) -> usize {
        self.rewriter.rules().len()
    }

    /// Adds an assumption (Z3Py's `assume`).  The assumption is folded into
    /// the persistent congruence closure on the next query.
    pub fn assume(&mut self, formula: Formula) {
        self.assumptions.push(formula);
    }

    /// Convenience: assumes an equality between two terms.
    pub fn assume_eq(&mut self, a: TermId, b: TermId) {
        self.assume(Formula::Eq(a, b));
    }

    /// Pushes an assumption scope (Z3Py's `assertion.push()`), snapshotting
    /// the incremental congruence state.
    pub fn push(&mut self) {
        self.scopes.push(Scope {
            assumptions: self.assumptions.len(),
            facts: self.facts.len(),
            folded: self.folded,
            rules: self.rewriter.rules().len(),
            cc: self.cc.clone(),
        });
    }

    /// Pops the most recent assumption scope, discarding assumptions made
    /// inside it and restoring the congruence closure snapshot taken by
    /// [`Context::push`].
    ///
    /// # Panics
    ///
    /// Panics when no scope is open.
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop without matching push");
        self.assumptions.truncate(scope.assumptions);
        self.facts.truncate(scope.facts);
        self.folded = scope.folded;
        self.cc = scope.cc;
        if self.rewriter.rules().len() != scope.rules {
            // Rules installed inside the scope outlive it; the restored
            // snapshot was folded under the smaller rule set and must be
            // rebuilt on the next query.
            self.rules_dirty = true;
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.rewrite_steps = self.rewriter.applications();
        stats
    }

    /// Current number of assumptions.
    pub fn num_assumptions(&self) -> usize {
        self.assumptions.len()
    }

    /// Normalises a term with the installed rewrite axioms.
    pub fn normalize(&mut self, term: TermId) -> TermId {
        self.rewriter.normalize(&mut self.arena, term)
    }

    /// Checks an equality goal (Z3Py's `assert(lhs == rhs)`).
    pub fn check_eq(&mut self, lhs: TermId, rhs: TermId) -> Verdict {
        self.check(&Formula::Eq(lhs, rhs))
    }

    /// Brings the persistent congruence closure and fact list up to date
    /// with the assumption list.
    fn fold_assumptions(&mut self) {
        if self.rules_dirty {
            // A rule arrived after assumptions were folded: previously
            // computed normal forms are stale, rebuild from scratch.
            self.cc = CongruenceClosure::new();
            self.facts.clear();
            self.folded = 0;
            self.rules_dirty = false;
        }
        while self.folded < self.assumptions.len() {
            let assumption = self.assumptions[self.folded].clone();
            self.folded += 1;
            self.fold_one(&assumption);
        }
    }

    /// Folds a single assumption: equalities (including those inside a
    /// conjunction) are normalised and asserted into the closure, everything
    /// else is recorded as an arithmetic fact.
    fn fold_one(&mut self, assumption: &Formula) {
        match assumption {
            Formula::Eq(a, b) => {
                let na = self.normalize(*a);
                let nb = self.normalize(*b);
                self.cc.assert_eq(na, nb);
                self.stats.asserted_equalities += 1;
            }
            Formula::And(parts) => {
                for part in parts {
                    if let Formula::Eq(a, b) = part {
                        let na = self.normalize(*a);
                        let nb = self.normalize(*b);
                        self.cc.assert_eq(na, nb);
                        self.stats.asserted_equalities += 1;
                    } else {
                        self.facts.push(part.clone());
                    }
                }
            }
            other => self.facts.push(other.clone()),
        }
    }

    /// Checks a formula under the current assumptions.
    pub fn check(&mut self, goal: &Formula) -> Verdict {
        self.stats.checks += 1;
        self.fold_assumptions();
        // Move the persistent state out so `eval` can borrow `self` mutably
        // (for normalisation) alongside the closure and the facts.
        let mut cc = std::mem::take(&mut self.cc);
        let facts = std::mem::take(&mut self.facts);
        let verdict = self.eval(goal, &mut cc, &facts);
        self.cc = cc;
        self.facts = facts;
        verdict
    }

    fn eval(&mut self, goal: &Formula, cc: &mut CongruenceClosure, facts: &[Formula]) -> Verdict {
        match goal {
            Formula::Bool(true) => Verdict::Proved,
            Formula::Bool(false) => Verdict::refuted("goal is literally false"),
            Formula::Eq(a, b) => {
                let na = self.normalize(*a);
                let nb = self.normalize(*b);
                if na == nb {
                    return Verdict::Proved;
                }
                cc.propagate(&self.arena);
                if cc.equal(na, nb) {
                    Verdict::Proved
                } else {
                    Verdict::refuted(format!(
                        "terms have distinct normal forms: `{}` vs `{}`",
                        self.arena.display_clamped(na, MAX_EXPLANATION_NODES),
                        self.arena.display_clamped(nb, MAX_EXPLANATION_NODES)
                    ))
                }
            }
            Formula::Ne(a, b) => match self.eval(&Formula::Eq(*a, *b), cc, facts) {
                Verdict::Proved => {
                    Verdict::refuted("terms are provably equal but were required distinct")
                }
                Verdict::Refuted { .. } => Verdict::Proved,
                unknown => unknown,
            },
            Formula::Lt(a, b) | Formula::Le(a, b) => {
                let strict = matches!(goal, Formula::Lt(_, _));
                let na = self.normalize(*a);
                let nb = self.normalize(*b);
                match (self.arena.as_int(na), self.arena.as_int(nb)) {
                    (Some(va), Some(vb)) => {
                        let holds = if strict { va < vb } else { va <= vb };
                        if holds {
                            Verdict::Proved
                        } else {
                            Verdict::refuted(format!(
                                "arithmetic goal fails: {va} {} {vb} is false",
                                if strict { "<" } else { "<=" }
                            ))
                        }
                    }
                    _ => self.difference_check(na, nb, strict, facts),
                }
            }
            Formula::Not(inner) => match self.eval(inner, cc, facts) {
                Verdict::Proved => Verdict::refuted("negated goal is provable"),
                Verdict::Refuted { .. } => Verdict::Proved,
                unknown => unknown,
            },
            Formula::And(parts) => {
                for part in parts {
                    match self.eval(part, cc, facts) {
                        Verdict::Proved => continue,
                        other => return other,
                    }
                }
                Verdict::Proved
            }
            Formula::Implies(lhs, rhs) => {
                // Assume the antecedent's equalities in a scratch copy of the
                // closure, then check the consequent.
                let mut cc2 = cc.clone();
                let mut extra_facts = facts.to_vec();
                collect_equalities(lhs, &mut |a, b| {
                    let na = self.rewriter.normalize(&mut self.arena, a);
                    let nb = self.rewriter.normalize(&mut self.arena, b);
                    cc2.assert_eq(na, nb);
                });
                extra_facts.push((**lhs).clone());
                self.eval(rhs, &mut cc2, &extra_facts)
            }
        }
    }

    /// A tiny difference-logic check: proves `len(x) + c1 < len(x) + c2` style
    /// goals where both sides share the same symbolic base and differ only by
    /// literal offsets expressed with the built-in `+`/`-` functions, or where
    /// an assumed `Lt`/`Le` fact directly matches the goal.
    fn difference_check(
        &mut self,
        a: TermId,
        b: TermId,
        strict: bool,
        facts: &[Formula],
    ) -> Verdict {
        if let (Some((base_a, off_a)), Some((base_b, off_b))) =
            (self.base_offset(a), self.base_offset(b))
        {
            if base_a == base_b {
                let holds = if strict { off_a < off_b } else { off_a <= off_b };
                return if holds {
                    Verdict::Proved
                } else {
                    Verdict::refuted(format!(
                        "offsets violate the goal: {off_a} vs {off_b} relative to `{}`",
                        self.arena.display(base_a)
                    ))
                };
            }
        }
        // Fall back to directly assumed facts.
        for fact in facts {
            match fact {
                Formula::Lt(x, y) => {
                    let nx = self.normalize(*x);
                    let ny = self.normalize(*y);
                    if nx == a && ny == b {
                        return Verdict::Proved;
                    }
                }
                Formula::Le(x, y) if !strict => {
                    let nx = self.normalize(*x);
                    let ny = self.normalize(*y);
                    if nx == a && ny == b {
                        return Verdict::Proved;
                    }
                }
                _ => {}
            }
        }
        Verdict::Unknown {
            reason: format!(
                "cannot compare `{}` and `{}` in the supported arithmetic fragment",
                self.arena.display(a),
                self.arena.display(b)
            ),
        }
    }

    /// Decomposes `base + literal` / `base - literal` terms.
    fn base_offset(&self, term: TermId) -> Option<(TermId, i64)> {
        use crate::term::TermData;
        match self.arena.data(term) {
            TermData::Int(_) => Some((term, 0)),
            TermData::App(f, args) if args.len() == 2 => {
                let name = self.arena.symbol_name(*f);
                if name != "+" && name != "-" {
                    return Some((term, 0));
                }
                let offset = self.arena.as_int(args[1])?;
                let signed = if name == "+" { offset } else { -offset };
                let (base, inner_off) = self.base_offset(args[0]).unwrap_or((args[0], 0));
                Some((base, inner_off + signed))
            }
            _ => Some((term, 0)),
        }
    }
}

/// Invokes `f` on every equality literal in the formula.
fn collect_equalities(formula: &Formula, f: &mut impl FnMut(TermId, TermId)) {
    match formula {
        Formula::Eq(a, b) => f(*a, *b),
        Formula::And(parts) => {
            for part in parts {
                collect_equalities(part, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::Pattern;

    #[test]
    fn assumed_equalities_propagate_through_functions() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        let fa = ctx.arena_mut().app("f", vec![a]);
        let fb = ctx.arena_mut().app("f", vec![b]);
        ctx.assume_eq(a, b);
        assert!(ctx.check_eq(fa, fb).is_proved());
        let c = ctx.arena_mut().symbol("c");
        let fc = ctx.arena_mut().app("f", vec![c]);
        assert!(ctx.check_eq(fa, fc).is_refuted());
    }

    #[test]
    fn rewrite_axioms_close_the_gap() {
        let mut ctx = Context::new();
        ctx.add_rule(RewriteRule::new(
            "cx_cancel",
            Pattern::app("cx", vec![Pattern::app("cx", vec![Pattern::var("q")])]),
            Pattern::var("q"),
        ));
        let q = ctx.arena_mut().symbol("q");
        let once = ctx.arena_mut().app("cx", vec![q]);
        let twice = ctx.arena_mut().app("cx", vec![once]);
        assert!(ctx.check_eq(twice, q).is_proved());
        assert!(ctx.check_eq(once, q).is_refuted());
    }

    #[test]
    fn late_rules_renormalize_folded_assumptions() {
        // An assumption folded under the empty rule set must be re-folded
        // when a rule that changes its normal form arrives afterwards.
        let mut ctx = Context::new();
        let q = ctx.arena_mut().symbol("q");
        let r = ctx.arena_mut().symbol("r");
        let hq = ctx.arena_mut().app("h", vec![q]);
        let hhq = ctx.arena_mut().app("h", vec![hq]);
        ctx.assume_eq(hhq, r);
        assert!(ctx.check_eq(hhq, r).is_proved());
        ctx.add_rule(RewriteRule::new(
            "h_cancel",
            Pattern::app("h", vec![Pattern::app("h", vec![Pattern::var("q")])]),
            Pattern::var("q"),
        ));
        // Under the new rule h(h(q)) normalises to q, so the assumption now
        // reads q = r.
        assert!(ctx.check_eq(q, r).is_proved());
    }

    #[test]
    fn z3py_example_from_the_paper() {
        // assume(x >= 3); y = x*x; assert(y > x) succeeds only for ground x —
        // symbolic nonlinear arithmetic is outside the fragment and reported
        // as Unknown rather than silently accepted.
        let mut ctx = Context::new();
        let x = ctx.arena_mut().symbol("x");
        let three = ctx.arena_mut().int(3);
        ctx.assume(Formula::Le(three, x));
        let y = ctx.arena_mut().app("*", vec![x, x]);
        let verdict = ctx.check(&Formula::Lt(x, y));
        assert!(matches!(verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn ground_arithmetic_and_counterexamples() {
        let mut ctx = Context::new();
        let five = ctx.arena_mut().int(5);
        let two = ctx.arena_mut().int(2);
        let sum = ctx.arena_mut().app("+", vec![two, two]);
        assert!(ctx.check(&Formula::Lt(sum, five)).is_proved());
        assert!(ctx.check(&Formula::Lt(five, sum)).is_refuted());
        assert!(ctx.check(&Formula::Le(five, five)).is_proved());
    }

    #[test]
    fn termination_measure_difference_check() {
        // len(remain) - 1 < len(remain): the while_gate_remaining termination
        // subgoal shape.
        let mut ctx = Context::new();
        let len = ctx.arena_mut().app("len", vec![]);
        let one = ctx.arena_mut().int(1);
        let smaller = ctx.arena_mut().app("-", vec![len, one]);
        assert!(ctx.check(&Formula::Lt(smaller, len)).is_proved());
        // And the buggy shape (no deletion) is refuted.
        let zero = ctx.arena_mut().int(0);
        let same = ctx.arena_mut().app("-", vec![len, zero]);
        assert!(ctx.check(&Formula::Lt(same, len)).is_refuted());
    }

    #[test]
    fn scopes_restore_assumptions() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        ctx.push();
        ctx.assume_eq(a, b);
        assert!(ctx.check_eq(a, b).is_proved());
        ctx.pop();
        assert!(ctx.check_eq(a, b).is_refuted());
        assert_eq!(ctx.num_assumptions(), 0);
    }

    #[test]
    fn scopes_restore_the_congruence_snapshot() {
        // The popped closure must forget derived congruences, not just the
        // raw assumption list.
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        let fa = ctx.arena_mut().app("f", vec![a]);
        let fb = ctx.arena_mut().app("f", vec![b]);
        ctx.push();
        ctx.assume_eq(a, b);
        assert!(ctx.check_eq(fa, fb).is_proved());
        ctx.pop();
        assert!(ctx.check_eq(fa, fb).is_refuted());
        // Nested scopes unwind one level at a time.
        ctx.push();
        ctx.assume_eq(a, b);
        ctx.push();
        let c = ctx.arena_mut().symbol("c");
        ctx.assume_eq(b, c);
        let fc = ctx.arena_mut().app("f", vec![c]);
        assert!(ctx.check_eq(fa, fc).is_proved());
        ctx.pop();
        assert!(ctx.check_eq(fa, fc).is_refuted());
        assert!(ctx.check_eq(fa, fb).is_proved());
        ctx.pop();
        assert!(ctx.check_eq(fa, fb).is_refuted());
    }

    #[test]
    fn rules_added_inside_a_scope_survive_pop_and_refold_assumptions() {
        // Rules are not scoped: a rule installed between push and pop stays
        // installed, so the popped congruence snapshot (folded under fewer
        // rules) must be rebuilt — the pre-incremental solver re-normalised
        // every assumption on every check and got this right implicitly.
        let mut ctx = Context::new();
        let q = ctx.arena_mut().symbol("q");
        let r = ctx.arena_mut().symbol("r");
        let hq = ctx.arena_mut().app("h", vec![q]);
        let hhq = ctx.arena_mut().app("h", vec![hq]);
        ctx.assume_eq(hhq, r);
        assert!(ctx.check_eq(hhq, r).is_proved());
        assert!(ctx.check_eq(q, r).is_refuted());
        ctx.push();
        ctx.add_rule(RewriteRule::new(
            "h_cancel",
            Pattern::app("h", vec![Pattern::app("h", vec![Pattern::var("q")])]),
            Pattern::var("q"),
        ));
        assert!(ctx.check_eq(q, r).is_proved());
        ctx.pop();
        // The rule survives the pop; h(h(q)) still normalises to q, so the
        // assumption still proves q = r.
        assert!(ctx.check_eq(q, r).is_proved());
    }

    #[test]
    fn negation_and_conjunction() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        ctx.assume_eq(a, b);
        let goal = Formula::And(vec![Formula::Eq(a, b), Formula::Not(Box::new(Formula::Ne(a, b)))]);
        assert!(ctx.check(&goal).is_proved());
        let bad = Formula::And(vec![Formula::Eq(a, b), Formula::Ne(a, b)]);
        assert!(ctx.check(&bad).is_refuted());
    }

    #[test]
    fn implication_assumes_antecedent() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        let fa = ctx.arena_mut().app("f", vec![a]);
        let fb = ctx.arena_mut().app("f", vec![b]);
        let goal = Formula::Implies(Box::new(Formula::Eq(a, b)), Box::new(Formula::Eq(fa, fb)));
        assert!(ctx.check(&goal).is_proved());
        // The antecedent's equality is scoped to the implication: the same
        // equality is not available to a plain query afterwards.
        assert!(ctx.check_eq(fa, fb).is_refuted());
    }

    #[test]
    fn refutation_carries_an_explanation() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("alpha");
        let b = ctx.arena_mut().symbol("beta");
        match ctx.check_eq(a, b) {
            Verdict::Refuted { explanation, .. } => {
                assert!(explanation.contains("alpha"));
                assert!(explanation.contains("beta"));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        ctx.assume_eq(a, b);
        let _ = ctx.check_eq(a, b);
        let _ = ctx.check_eq(b, a);
        let stats = ctx.stats();
        assert_eq!(stats.checks, 2);
        // The incremental solver folds the single assumed equality once —
        // it is not re-asserted per query.
        assert_eq!(stats.asserted_equalities, 1);
        // A popped-and-reassumed equality is folded again.
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("a");
        let b = ctx.arena_mut().symbol("b");
        ctx.push();
        ctx.assume_eq(a, b);
        let _ = ctx.check_eq(a, b);
        ctx.pop();
        ctx.assume_eq(a, b);
        let _ = ctx.check_eq(a, b);
        assert_eq!(ctx.stats().asserted_equalities, 2);
    }
}

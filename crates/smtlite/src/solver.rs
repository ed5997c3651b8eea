//! The solver context: the two queries Giallar's obligations reduce to.
//!
//! Giallar discharges every proof obligation by rewriting symbolic terms to
//! normal forms (§5 of the paper), so a [`Context`] answers exactly two
//! questions.  [`Context::check_eq`] asks whether two terms share a normal form
//! under the installed rewrite axioms; a failure carries the two distinct
//! normal forms, which in the free term algebra *are* a counterexample (the
//! Giallar verifier turns them into a concrete circuit pair for the user).
//! [`Context::check_lt`] asks whether a termination measure decreases: ground
//! integers are compared directly, and `base ± literal` terms over a shared
//! symbolic base are compared by their offsets.
//!
//! The rewriter's normal-form memo survives across queries because the
//! arena is append-only, so a context answering many queries normalises
//! each shared sub-term once.

use serde::{Deserialize, Serialize};

use crate::rewrite::{RewriteRule, Rewriter};
use crate::term::{TermArena, TermData, TermId};

/// Tree-node budget for the normal forms a refutation explanation renders.
///
/// Terms print as their tree expansion, which is exponentially larger than
/// the hash-consed representation for wires of deep entangling circuits;
/// the clamp keeps every explanation bounded (and the check fast) while
/// rendering any reasonably sized counterexample in full.
pub const MAX_EXPLANATION_NODES: usize = 2_048;

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

/// The result of discharging a goal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The goal holds under the rewrite axioms.
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

/// A solver context: a term arena plus the rewrite axioms that normalise it.
///
/// Cloning a context is cheap: the clone shares the compiled rule library
/// and the arena's symbol table with the original (see [`Rewriter`] and
/// [`TermArena`]) and copies only the terms and the memo.  The verifier
/// keeps a fully-initialised template context per process and clones it
/// for every solver it builds, so rule compilation happens once per
/// process.
#[derive(Debug, Clone, Default)]
pub struct Context {
    arena: TermArena,
    rewriter: Rewriter,
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
    pub fn add_rule(&mut self, rule: RewriteRule) {
        self.rewriter.add_rule(&mut self.arena, rule);
    }

    /// Number of installed rewrite axioms.
    pub fn num_rules(&self) -> usize {
        self.rewriter.rules().len()
    }

    /// Normalises a term with the installed rewrite axioms.
    pub fn normalize(&mut self, term: TermId) -> TermId {
        self.rewriter.normalize(&mut self.arena, term)
    }

    /// Checks that two terms share a normal form.
    ///
    /// # Errors
    ///
    /// When the normal forms differ, returns the refutation explanation
    /// naming both of them (each clamped to [`MAX_EXPLANATION_NODES`]).
    pub fn check_eq(&mut self, lhs: TermId, rhs: TermId) -> Result<(), String> {
        let na = self.normalize(lhs);
        let nb = self.normalize(rhs);
        if na == nb {
            return Ok(());
        }
        Err(format!(
            "terms have distinct normal forms: `{}` vs `{}`",
            self.arena.display_clamped(na, MAX_EXPLANATION_NODES),
            self.arena.display_clamped(nb, MAX_EXPLANATION_NODES)
        ))
    }

    /// Checks `lhs < rhs` over integer-valued terms: ground integers are
    /// compared directly, and `base + literal` / `base - literal` terms that
    /// share a symbolic base by their offsets.  Any other shape is
    /// [`Verdict::Unknown`].
    pub fn check_lt(&mut self, lhs: TermId, rhs: TermId) -> Verdict {
        let na = self.normalize(lhs);
        let nb = self.normalize(rhs);
        if let (Some(va), Some(vb)) = (self.arena.as_int(na), self.arena.as_int(nb)) {
            return if va < vb {
                Verdict::Proved
            } else {
                Verdict::refuted(format!("arithmetic goal fails: {va} < {vb} is false"))
            };
        }
        match (self.base_offset(na), self.base_offset(nb)) {
            (Some((base_a, off_a)), Some((base_b, off_b))) if base_a == base_b => {
                if off_a < off_b {
                    Verdict::Proved
                } else {
                    Verdict::refuted(format!(
                        "offsets violate the goal: {off_a} vs {off_b} relative to `{}`",
                        self.arena.display(base_a)
                    ))
                }
            }
            _ => Verdict::Unknown {
                reason: format!(
                    "cannot compare `{}` and `{}` in the supported arithmetic fragment",
                    self.arena.display(na),
                    self.arena.display(nb)
                ),
            },
        }
    }

    /// Decomposes `base + literal` / `base - literal` terms; `None` when a
    /// `+`/`-` has a non-literal right operand.
    fn base_offset(&self, term: TermId) -> Option<(TermId, i64)> {
        match self.arena.data(term) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::Pattern;

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
        assert_eq!(ctx.check_eq(twice, q), Ok(()));
        assert!(ctx.check_eq(once, q).is_err());
    }

    #[test]
    fn refutation_names_both_normal_forms() {
        let mut ctx = Context::new();
        let a = ctx.arena_mut().symbol("alpha");
        let b = ctx.arena_mut().symbol("beta");
        let fa = ctx.arena_mut().app("f", vec![a]);
        assert_eq!(
            ctx.check_eq(fa, b),
            Err("terms have distinct normal forms: `f(alpha)` vs `beta`".to_string())
        );
    }

    #[test]
    fn ground_arithmetic_and_counterexamples() {
        let mut ctx = Context::new();
        let one = ctx.arena_mut().int(1);
        let two = ctx.arena_mut().int(2);
        let five = ctx.arena_mut().int(5);
        assert!(ctx.check_lt(one, two).is_proved());
        // `+` over literals folds to a ground integer before the compare.
        let sum = ctx.arena_mut().app("+", vec![two, two]);
        assert!(ctx.check_lt(sum, five).is_proved());
        assert_eq!(
            ctx.check_lt(five, sum),
            Verdict::refuted("arithmetic goal fails: 5 < 4 is false")
        );
        assert!(ctx.check_lt(five, five).is_refuted());
    }

    #[test]
    fn termination_measure_difference_check() {
        // len(remain) - 1 < len(remain): the while_gate_remaining termination
        // subgoal shape.
        let mut ctx = Context::new();
        let len = ctx.arena_mut().app("len", vec![]);
        let one = ctx.arena_mut().int(1);
        let smaller = ctx.arena_mut().app("-", vec![len, one]);
        assert!(ctx.check_lt(smaller, len).is_proved());
        // And the buggy shape (no deletion) is refuted.
        let zero = ctx.arena_mut().int(0);
        let same = ctx.arena_mut().app("-", vec![len, zero]);
        assert_eq!(
            ctx.check_lt(same, len),
            Verdict::refuted("offsets violate the goal: 0 vs 0 relative to `len`")
        );
    }

    #[test]
    fn symbolic_nonlinear_arithmetic_is_unknown() {
        // x < x*x holds only for ground x outside [0, 1]: symbolic nonlinear
        // arithmetic is outside the fragment and reported as Unknown rather
        // than silently accepted.
        let mut ctx = Context::new();
        let x = ctx.arena_mut().symbol("x");
        let y = ctx.arena_mut().app("*", vec![x, x]);
        assert_eq!(
            ctx.check_lt(x, y),
            Verdict::Unknown {
                reason: "cannot compare `x` and `*(x, x)` in the supported arithmetic fragment"
                    .to_string()
            }
        );
    }
}

//! # smtlite — a lightweight SMT-style solver
//!
//! The Giallar paper discharges its proof obligations with Z3.  Giallar's
//! obligations live in a small, decidable fragment: ground equalities over
//! uninterpreted functions (the symbolic qubit functions `app1q`/`app2q`),
//! universally quantified rewrite axioms that are only ever used as directed
//! rewrites, and small linear facts over integers (list lengths, indices,
//! termination measures).  `smtlite` implements exactly that fragment:
//!
//! * [`TermArena`] — hash-consed first-order terms with interned
//!   [`SymbolId`] function symbols,
//! * [`RewriteRule`] / [`Rewriter`] — directed rewriting to a normal form
//!   (patterns are compiled once at `add_rule` time and dispatched through a
//!   head-symbol index; the compiled library is shared by a rewriter's
//!   clones; normal forms are memoized across queries),
//! * [`CongruenceClosure`] — ground equality reasoning with incremental
//!   propagation,
//! * [`Context`] — an `assume`/`check` interface in the style of Z3Py
//!   (§2.4 of the paper) returning [`Verdict`]s with counterexample
//!   explanations on failure; assumptions fold into one persistent
//!   congruence closure instead of being re-asserted per query.
//!
//! # Example
//!
//! ```
//! use smtlite::{Context, Pattern, RewriteRule};
//!
//! let mut ctx = Context::new();
//! // ∀q. h(h(q)) = q, used as a directed rewrite (a cancellation axiom).
//! let rule = RewriteRule::new(
//!     "h_cancel",
//!     Pattern::app("h", vec![Pattern::app("h", vec![Pattern::var("q")])]),
//!     Pattern::var("q"),
//! );
//! ctx.add_rule(rule);
//! let q0 = ctx.arena_mut().symbol("q0");
//! let h1 = ctx.arena_mut().app("h", vec![q0]);
//! let h2 = ctx.arena_mut().app("h", vec![h1]);
//! assert!(ctx.check_eq(h2, q0).is_proved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congruence;
pub mod fingerprint;
pub mod rewrite;
pub mod solver;
pub mod term;

pub use congruence::CongruenceClosure;
pub use fingerprint::{fingerprint_str, Fingerprint, FingerprintBuilder};
pub use rewrite::{reference_normalize, Pattern, RewriteRule, Rewriter};
pub use solver::{Context, FaultSite, Formula, SolverStats, Verdict, MAX_EXPLANATION_NODES};
pub use term::{SymbolId, TermArena, TermData, TermId};

//! # smtlite — a lightweight SMT-style solver
//!
//! The Giallar paper discharges its proof obligations with Z3, but every
//! obligation Giallar generates is one of two queries: do two symbolic wire
//! terms share a normal form under directed rewrite axioms, or does a
//! termination measure decrease.  `smtlite` implements exactly that
//! fragment:
//!
//! * [`TermArena`] — hash-consed first-order terms with interned
//!   [`SymbolId`] function symbols,
//! * [`RewriteRule`] / [`Rewriter`] — directed rewriting to a normal form
//!   (patterns are compiled once at `add_rule` time and dispatched through a
//!   head-symbol index; the compiled library is shared by a rewriter's
//!   clones; normal forms are memoized across queries),
//! * [`Context`] — the arena plus the rewriter, answering
//!   [`Context::check_eq`] (shared normal form, or an explanation naming
//!   the two distinct ones) and [`Context::check_lt`] (a strict less-than
//!   over ground integers and `base ± literal` offsets, returning a
//!   [`Verdict`]).
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
//! assert_eq!(ctx.check_eq(h2, q0), Ok(()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod rewrite;
pub mod solver;
pub mod term;

pub use fingerprint::{fingerprint_str, Fingerprint, FingerprintBuilder};
pub use rewrite::{reference_normalize, Pattern, RewriteRule, Rewriter};
pub use solver::{Context, FaultSite, Verdict, MAX_EXPLANATION_NODES};
pub use term::{SymbolId, TermArena, TermData, TermId};

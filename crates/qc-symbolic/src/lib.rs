//! # qc-symbolic — symbolic representation and rewriting of quantum circuits
//!
//! This crate implements §5 of the Giallar paper: a symbolic execution for
//! quantum circuits that side-steps the exponential matrix semantics, plus a
//! library of qubit-local rewrite rules (cancellation, commutation, swap,
//! direction-reversal).  Every rule is derived from a circuit identity, and
//! the identities are checked against the dense matrix semantics of
//! [`qc_ir::unitary`] ([`soundness`]).
//!
//! A multi-qubit register is represented as an array of symbolic qubit terms.
//! Applying a 1-qubit gate `U` to qubit term `q` yields the term `U(q)`
//! (the paper's `app1q`); applying a 2-qubit gate yields one term per output
//! wire (`app2q(U, q1, q2, k)` — here encoded as `U_1(q1, q2)` and
//! `U_2(q1, q2)`).  Opaque circuit *segments* (the `C₁`, `C₂` fragments that
//! appear in loop-invariant proof goals) become uninterpreted functions over
//! the qubits they may touch, so that the `next_gate` specification
//! ("no gate in between shares a qubit with gate 0") turns into a purely
//! structural fact the rewrite rules can exploit.
//!
//! # Example
//!
//! ```
//! use qc_ir::Circuit;
//! use qc_symbolic::{check_equivalence, SymCircuit};
//!
//! // Two adjacent CNOTs cancel (the CXCancellation proof goal).
//! let mut lhs = Circuit::new(2);
//! lhs.cx(0, 1).cx(0, 1);
//! let rhs = Circuit::new(2);
//! let verdict = check_equivalence(&SymCircuit::from_circuit(&lhs), &SymCircuit::from_circuit(&rhs));
//! assert!(verdict.is_proved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod equiv;
pub mod exec;
pub mod rules;
pub mod soundness;

pub use circuit::{SymCircuit, SymElement};
pub use equiv::{
    check_equivalence, check_equivalence_up_to_final_measurements,
    check_equivalence_with_permutation, EquivalenceChecker, WireEvidence,
};
pub use exec::SymbolicExecutor;
pub use rules::{
    circuit_rewrite_rules, rule_identities, rule_library_fingerprint, ClassifiedRule, RuleClass,
    RuleIdentity, RULE_LIBRARY_VERSION,
};
pub use smtlite::Verdict;
pub use soundness::check_identity;

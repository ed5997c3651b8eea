//! # qc-ir — Quantum circuit intermediate representation
//!
//! This crate provides the circuit substrate used throughout the Giallar
//! reproduction:
//!
//! * [`Complex`] and [`Matrix`] — dense complex linear algebra used for the
//!   denotational (matrix) semantics of circuits.
//! * [`Gate`] / [`GateKind`] — the gate alphabet (Qiskit/OpenQASM standard
//!   gates plus the IBM physical gates `u1`, `u2`, `u3`).
//! * [`Circuit`] — the list-of-gates representation used by Giallar's verified
//!   library.
//! * [`DagCircuit`] — the DAG representation used by the Qiskit-style
//!   baseline compiler, with lossless conversions in both directions.
//! * [`qasm`] — an OpenQASM 2.0 subset parser and printer.
//! * [`CouplingMap`] and [`Layout`] — hardware topology and qubit mapping.
//! * [`unitary`] — the denotational semantics `⟦C⟧` of Figure 3 in the paper,
//!   plus equivalence checks (exact, up to global phase, and up to a qubit
//!   permutation, the latter used for routing passes).
//!
//! # Example
//!
//! ```
//! use qc_ir::{Circuit, unitary};
//!
//! // The GHZ circuit from Figure 2 of the paper.
//! let mut ghz = Circuit::new(3);
//! ghz.h(0);
//! ghz.cx(0, 1);
//! ghz.cx(1, 2);
//! assert_eq!(ghz.size(), 3);
//! let u = unitary::circuit_unitary(&ghz).unwrap();
//! assert!(u.is_unitary(1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod complex;
pub mod coupling;
pub mod dag;
pub mod error;
pub mod gate;
pub mod layout;
pub mod matrix;
pub mod properties;
pub mod qasm;
pub mod unitary;

pub use circuit::Circuit;
pub use complex::Complex;
pub use coupling::{CouplingMap, MAX_QUBITS};
pub use dag::{DagCircuit, NodeId};
pub use error::QcError;
pub use gate::{Condition, ConditionKind, Gate, GateKind};
pub use layout::Layout;
pub use matrix::Matrix;
pub use properties::DeviceProperties;

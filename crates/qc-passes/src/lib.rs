//! # qc-passes — a Qiskit-style quantum transpiler (baseline, unverified)
//!
//! This crate reproduces the substrate that the Giallar paper verifies: a
//! pass-based quantum compiler in the style of Qiskit's transpiler.  It
//! contains the seven pass families the paper lists (layout selection,
//! routing, basis change, optimization, circuit analysis, synthesis-style
//! consolidation, and assorted passes), a [`PassManager`], and the standard
//! pipeline used as the unverified baseline in the Figure 11 reproduction,
//! built by the pass factory [`preset::instantiate`].
//!
//! The three bugs the paper found in Qiskit are reproduced here behind
//! explicit constructors so the Giallar verifier (in `giallar-core`) can
//! detect them:
//!
//! * [`optimization::Optimize1qGates::buggy`] merges runs across conditioned
//!   gates (§7.1),
//! * [`optimization::CommutationAnalysis::buggy`] builds non-transitive
//!   commutation groups (§7.2),
//! * [`routing::LookaheadSwap::buggy`] deterministically re-inserts the same
//!   SWAP and loops forever on the IBM-16 coupling map (§7.3).
//!
//! # Example
//!
//! ```
//! use qc_ir::{Circuit, CouplingMap};
//! use qc_passes::preset::default_pass_manager;
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0);
//! ghz.cx(0, 1);
//! ghz.cx(1, 2);
//! let coupling = CouplingMap::line(5);
//! let result = default_pass_manager(&coupling, 7).run(&ghz).unwrap();
//! assert!(result.circuit.num_qubits() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod basis;
pub mod inject;
pub mod layout;
pub mod misc;
pub mod optimization;
pub mod pass;
pub mod preset;
pub mod routing;

pub use pass::{AnalysisValue, PassManager, PropertySet, TranspilerPass};

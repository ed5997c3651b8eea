//! # giallar — facade crate for the Giallar reproduction
//!
//! Re-exports every crate of the workspace under one roof so that examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! * [`ir`] — circuits, gates, DAGs, OpenQASM, coupling maps, matrix semantics.
//! * [`smt`] — the lightweight SMT-style solver backend.
//! * [`symbolic`] — symbolic circuit execution, rewrite rules, equivalence.
//! * [`passes`] — the Qiskit-style baseline transpiler.
//! * [`core`] — the Giallar verifier: loop templates, verified library,
//!   proof obligations, the 44 verified passes, the wrapper, case studies.
//! * [`bench_circuits`] — QASMBench-style benchmark generators.
//! * [`serve`] — the resident verification service: one evicting verdict cache,
//!   goal-class request batching, and the `giallar-serve/v2` wire protocol (v1 lines still accepted).
//!
//! # Example
//!
//! ```
//! use giallar::core::backend::BackendSelection;
//! use giallar::core::cache::VerdictCache;
//! use giallar::core::registry::verified_passes;
//! use giallar::core::verifier::verify_passes_cached_with;
//!
//! let mut cache = VerdictCache::new();
//! let reports = verify_passes_cached_with(&verified_passes(), &mut cache, BackendSelection::Default);
//! assert_eq!(reports.len(), 44);
//! assert!(reports.iter().all(|r| r.verified));
//! ```

#![forbid(unsafe_code)]

pub use giallar_core as core;
pub use giallar_serve as serve;
pub use qasmbench as bench_circuits;
pub use qc_ir as ir;
pub use qc_passes as passes;
pub use qc_symbolic as symbolic;
pub use smtlite as smt;

//! # giallar-core — push-button verification for quantum compiler passes
//!
//! This crate is the reproduction of the Giallar toolkit itself (PLDI 2022):
//! it verifies, without manual invariants or proofs, that compiler passes
//! preserve the semantics of quantum circuits.
//!
//! The architecture follows the paper:
//!
//! * [`templates`] — the three loop templates (`iterate_all_gates`,
//!   `while_gate_remaining`, `collect_runs`).  A pass describes each branch of
//!   its loop body as "what it consumes from the remaining gates, what it
//!   emits to the output, what it keeps"; the template turns every branch into
//!   a proof obligation that re-establishes the automatically inferred loop
//!   invariant, plus a termination subgoal for while-loops.
//! * [`library`] — the verified utility library (`next_gate`,
//!   `shortest_path`, `merge_1q_gate`, the decomposition library).  Utility
//!   invocations are replaced by their specifications during symbolic
//!   execution; the specifications themselves are validated once and for all
//!   against the matrix semantics in this crate's tests.
//! * [`verifier`] — generates the proof obligations for a pass according to
//!   its virtual class ([`obligation::PassClass`]), discharges them with the
//!   symbolic circuit rewriting of `qc-symbolic` backed by the `smtlite`
//!   solver, and reports either success or a concrete counterexample.
//! * [`registry`] — the 44 verified Qiskit passes (Table 2 of the paper),
//!   each pairing an executable implementation with its Giallar model.
//! * [`wrapper`] — the Qiskit wrapper: converts the DAG representation to the
//!   verified library's gate-list representation around each verified pass,
//!   and assembles the verified transpilation pipeline used in the Figure 11
//!   comparison.
//! * [`case_studies`] — the three bugs of §7 (conditioned 1-qubit merges,
//!   non-transitive commutation groups, non-terminating lookahead routing),
//!   detected automatically by the verifier.
//! * [`backend`] — goal-class routing: one concrete
//!   [`backend::BackendRegistry`] that discharges each goal by its class and
//!   the run's [`backend::BackendSelection`] (compiled rewriting, or the
//!   naive reference normaliser for differential runs).
//! * [`batch`] — the discharge scheduler of [`verifier::run_cached`], the
//!   one verification run behind `giallar verify` and the daemon: cache
//!   misses are deduplicated by fingerprint and grouped by
//!   `(backend selection, goal class, register width)`, and
//!   [`batch::discharge_groups`] discharges the groups work-stealing-parallel
//!   over prewarmed, cloned solver contexts.
//! * [`certificate`] — per-compilation translation-validation certificates:
//!   a compilation can emit a machine-checkable
//!   [`certificate::EquivalenceCertificate`] (circuit fingerprints, wire
//!   map, per-wire equivalence evidence) that an independent
//!   [`certificate::check_certificate`] run re-validates, refusing any
//!   tampering.
//! * [`gen`] — the generative fuzz campaign: a seeded random-circuit
//!   generator over gate-alphabet presets, randomly drawn
//!   [`qc_passes::inject::SabotagePass`] fault matrices, a certify/check
//!   oracle across every solver backend, and a delta-debug shrinker that
//!   reduces any surviving counterexample to a minimal wounding edit.
//! * [`cache`] — the verdict store: per-**obligation** verdicts keyed by a
//!   stable fingerprint of the obligation's canonical form, the
//!   rewrite-rule library, and the discharging backend id, persisted as
//!   JSON, so re-verification discharges only the obligations that changed
//!   ([`verifier::verify_passes_cached_with`]).  The daemon keeps the same
//!   [`cache::VerdictCache`] resident, with LRU/TTL eviction, pinning for
//!   in-flight requests, and compaction of entries from retired backends.
//! * [`json`] / [`serialize`] — a dependency-free JSON document model and
//!   writer, the canonical obligation forms the cache hashes, and the gate
//!   rows certificates embed (the vendored `serde` is a no-op shim).
//!
//! # Example
//!
//! ```
//! use giallar_core::backend::BackendSelection;
//! use giallar_core::cache::VerdictCache;
//! use giallar_core::registry::verified_passes;
//! use giallar_core::verifier::verify_passes_cached_with;
//!
//! let passes: Vec<_> =
//!     verified_passes().into_iter().filter(|p| p.name == "CXCancellation").collect();
//! let mut cache = VerdictCache::new();
//! let reports = verify_passes_cached_with(&passes, &mut cache, BackendSelection::Default);
//! assert!(reports[0].verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod cache;
pub mod case_studies;
pub mod certificate;
pub mod gen;
pub mod json;
pub mod library;
pub mod mutate;
pub mod obligation;
pub mod registry;
pub mod serialize;
pub mod templates;
pub mod verifier;
pub mod wrapper;

pub use backend::{BackendRegistry, BackendSelection, GoalClass};
pub use batch::{discharge_groups, plan, BatchItem, DischargeGroup, Discharged};
pub use cache::{
    obligation_fingerprint, CacheStats, CachedVerdict, EvictionPolicy, EvictionSummary,
    PassCacheStats, VerdictCache, CACHE_FORMAT_VERSION,
};
pub use certificate::{
    certify_compilation, check_certificate, circuit_fingerprint, end_to_end_wire_map,
    verify_pipeline_passes, EquivalenceCertificate, CERT_SCHEMA,
};
pub use gen::{
    draw_faults, fault_family, generate_circuit, generate_corpus, run_generative_campaign,
    shrink_case, GateAlphabet, GenCase, GenConfig, GenerativeOutcome, GenerativeReport, ShrinkCase,
    ShrunkSurvivor,
};
pub use mutate::{
    enumerate_mutants, parse_seed, run_campaign, BackendRun, CampaignConfig, CampaignReport,
    Expectation, Mutant, MutantEnumeration, MutantOutcome, OperatorFamily, XorShift,
};
pub use obligation::{Goal, PassClass, ProofObligation};
pub use registry::{verified_passes, VerifiedPass};
pub use verifier::{
    fold_verdict_stream, obligation_fingerprints, pass_register_width, verify_pass_with,
    verify_passes_cached_with, PassReport, VerdictFold,
};
pub use wrapper::{giallar_transpile, QiskitWrapper};

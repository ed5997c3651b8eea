//! The resident verification engine behind `giallar serve`.
//!
//! A CLI `giallar verify` pays three cold-start costs on every invocation:
//! generating the registry's proof obligations, compiling and head-indexing
//! the rewrite-rule library into solver state, and (with `--cache`) parsing
//! the verdict file.  [`Engine`] pays them once, at construction, and keeps
//! everything resident:
//!
//! * the 44 registry passes with their obligations **pre-generated** and
//!   their cache fingerprints **pre-computed** for every backend selection;
//! * a [`ShardedVerdictCache`] holding verdicts behind per-shard locks;
//! * monotonic counters folded deterministically for `status`.
//!
//! [`Engine::verify_batch`] is the dispatch entry point.  It processes a
//! batch of concurrent verify requests in three phases, on the same
//! plan → discharge → fold path as `giallar verify --cache`
//! (`giallar_core::verifier::verify_passes_cached_with`):
//!
//! 1. **Resolve** — each request's obligations are looked up against a
//!    snapshot of the cache taken at batch start; hits are pinned so a
//!    concurrent eviction sweep can never drop a verdict mid-request.
//! 2. **Discharge** — the misses of *all* requests are planned into
//!    [`giallar_core::batch`] groups by `(selection, goal class, width)`,
//!    deduplicated by fingerprint, and discharged by the workspace's one
//!    scheduler, [`giallar_core::batch::discharge_groups`]: work-stealing
//!    workers over one prewarmed, snapshot-cloned solver context per group.
//! 3. **Fold** — each request replays its obligation walk in arrival order
//!    with the verifier's exact fold semantics
//!    ([`giallar_core::verifier::fold_verdict_stream`]): stop at the first
//!    failure, count hits/misses only for obligations the walk reaches,
//!    record fresh verdicts into the sharded cache.
//!
//! Because phase 1 resolves against a snapshot and phase 3 folds in arrival
//! order, the reports and the folded statistics are deterministic functions
//! of the request sequence — and a warm request's reports are bit-identical
//! (modulo timing) to a `giallar verify` run at the same cache state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use giallar_core::backend::{BackendSelection, GoalClass};
use giallar_core::batch::{discharge_groups, plan, BatchItem};
use giallar_core::cache::{CachedVerdict, VerdictCache};
use giallar_core::certificate::{certify_compilation, EquivalenceCertificate};
use giallar_core::obligation::{Goal, ProofObligation};
use giallar_core::registry::verified_passes;
use giallar_core::shard::{EvictionPolicy, EvictionSummary, FoldedStats, ShardedVerdictCache};
use giallar_core::verifier::{
    fold_verdict_stream, obligation_fingerprints, pass_register_width, PassReport,
};
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use qc_ir::CouplingMap;
use rayon::prelude::*;
use smtlite::Fingerprint;

/// Construction parameters for an [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of cache shards (clamped to at least 1).
    pub shards: usize,
    /// Eviction policy for the resident cache.
    pub policy: EvictionPolicy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { shards: 8, policy: EvictionPolicy::unbounded() }
    }
}

/// One registry pass kept resident: obligations generated once, cache
/// fingerprints precomputed per backend selection.
struct ResidentPass {
    name: &'static str,
    pass_loc: usize,
    obligations: Vec<ProofObligation>,
    /// The pass's discharge register width (see
    /// [`pass_register_width`]).
    width: usize,
    /// `fingerprints[i]` are the cache keys under `BackendSelection::ALL[i]`.
    fingerprints: Vec<Vec<Fingerprint>>,
}

/// One verify request as the engine sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// Pass names to verify (any order; served in registry order), or
    /// `None` for the full registry.
    pub passes: Option<Vec<String>>,
    /// Backend routing for the request.
    pub selection: BackendSelection,
}

impl VerifyRequest {
    /// The full registry under the default routing.
    pub fn full_registry() -> VerifyRequest {
        VerifyRequest { passes: None, selection: BackendSelection::Default }
    }

    /// A single pass under the default routing.
    pub fn single(pass: &str) -> VerifyRequest {
        VerifyRequest { passes: Some(vec![pass.to_string()]), selection: BackendSelection::Default }
    }
}

/// The outcome of one verify request.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Per-pass reports, in registry order — identical (modulo the timing
    /// field) to what `giallar verify` produces at the same cache state.
    pub reports: Vec<PassReport>,
    /// Obligations answered from the batch-start cache snapshot.
    pub hits: usize,
    /// Obligations that had to be discharged (or would have been, had the
    /// walk not stopped at an earlier failure).
    pub misses: usize,
}

impl VerifyOutcome {
    /// Whether every pass in the request verified.
    pub fn all_verified(&self) -> bool {
        self.reports.iter().all(|r| r.verified)
    }
}

/// What one dispatch batch did, beyond the per-request outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Verify requests served in the batch.
    pub requests: usize,
    /// Discharge groups the batch's misses were planned into.
    pub groups: usize,
    /// Unique obligations discharged (after fingerprint deduplication).
    pub discharged: usize,
}

/// A successful `compile` op.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Circuit name.
    pub circuit: String,
    /// Device spec as requested.
    pub device: String,
    /// Routing seed.
    pub seed: u64,
    /// Input `(qubits, gates, depth)`.
    pub input: (usize, usize, usize),
    /// Output `(qubits, gates, depth)`.
    pub output: (usize, usize, usize),
    /// The transpiler's `is_swap_mapped` property, when set.
    pub swap_mapped: Option<bool>,
    /// Wall-clock compile time.
    pub seconds: f64,
}

/// A successful `certify` op.
#[derive(Debug, Clone)]
pub struct CertifyOutcome {
    /// The emitted certificate.
    pub certificate: EquivalenceCertificate,
    /// Whether the resident cache already held this compilation's verdict
    /// under [`EquivalenceCertificate::cache_key`].
    pub cached: bool,
    /// The certificate's key in the resident sharded cache.
    pub cache_key: Fingerprint,
    /// Wall-clock compile + certify time.
    pub seconds: f64,
}

/// A point-in-time census of the resident state (the `status` op).
#[derive(Debug, Clone)]
pub struct StatusSnapshot {
    /// Registry passes resident.
    pub passes: usize,
    /// Total obligations across the resident registry (default routing).
    pub subgoals: usize,
    /// Cache shard count.
    pub shards: usize,
    /// The eviction policy in force.
    pub policy: EvictionPolicy,
    /// Current logical tick (one per dispatch batch).
    pub ticks: u64,
    /// Verify requests served since start.
    pub served: u64,
    /// The deterministic fold of the shard counters plus entry census.
    pub stats: FoldedStats,
    /// The resident rewrite-rule library fingerprint.
    pub rule_library: Fingerprint,
}

/// The resident verification engine.  All methods take `&self`; one
/// instance is shared by every worker and connection thread.
pub struct Engine {
    passes: Vec<ResidentPass>,
    cache: ShardedVerdictCache,
    served: AtomicU64,
}

impl Engine {
    /// Builds the engine: generates and fingerprints every registry pass's
    /// obligations (in parallel) and creates an empty sharded cache.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::build(config, None)
    }

    /// Builds the engine warm-started from a persisted [`VerdictCache`]
    /// (e.g. a `giallar verify --cache` file): its entries are distributed
    /// across the shards, so the first requests hit immediately.
    pub fn with_cache(config: EngineConfig, cache: &VerdictCache) -> Engine {
        Engine::build(config, Some(cache))
    }

    fn build(config: EngineConfig, initial: Option<&VerdictCache>) -> Engine {
        let library = qc_symbolic::rule_library_fingerprint();
        let passes: Vec<ResidentPass> = verified_passes()
            .par_iter()
            .map(|pass| {
                let obligations = (pass.obligations)();
                let fingerprints = BackendSelection::ALL
                    .iter()
                    .map(|&selection| obligation_fingerprints(&obligations, library, selection))
                    .collect();
                ResidentPass {
                    name: pass.name,
                    pass_loc: pass.pass_loc,
                    width: pass_register_width(&obligations),
                    obligations,
                    fingerprints,
                }
            })
            .collect();
        let cache = match initial {
            Some(initial) => ShardedVerdictCache::from_cache(initial, config.shards, config.policy),
            None => ShardedVerdictCache::new(config.shards, config.policy),
        };
        Engine { passes, cache, served: AtomicU64::new(0) }
    }

    /// The resident sharded cache (exported on shutdown via
    /// [`ShardedVerdictCache::to_cache`]; tests drive eviction through it).
    pub fn cache(&self) -> &ShardedVerdictCache {
        &self.cache
    }

    /// The resident pass names, in registry order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name).collect()
    }

    /// Serves one verify request (a dispatch batch of one).
    ///
    /// # Errors
    ///
    /// Returns the request-level error (unknown or empty pass filter).
    pub fn verify(&self, request: &VerifyRequest) -> Result<VerifyOutcome, String> {
        let (mut outcomes, _) = self.verify_batch(std::slice::from_ref(request));
        outcomes.pop().expect("one outcome per request")
    }

    /// Serves a dispatch batch of concurrent verify requests: resolve each
    /// against the batch-start cache snapshot, batch-discharge the misses
    /// grouped by goal class, then fold outcomes in arrival order.  See the
    /// module docs for the phase semantics.
    pub fn verify_batch(
        &self,
        requests: &[VerifyRequest],
    ) -> (Vec<Result<VerifyOutcome, String>>, BatchSummary) {
        self.cache.tick();
        self.served.fetch_add(requests.len() as u64, Ordering::Relaxed);

        // Phase 1: resolve each request against the snapshot, pinning hits.
        struct Prepared<'a> {
            passes: Vec<&'a ResidentPass>,
            selection_index: usize,
            /// Per pass, per obligation: the snapshot verdict (hit) or None.
            snapshots: Vec<Vec<Option<CachedVerdict>>>,
            pinned: Vec<Fingerprint>,
        }
        let mut prepared: Vec<Result<Prepared<'_>, String>> = Vec::with_capacity(requests.len());
        let mut misses: Vec<BatchItem<&Goal>> = Vec::new();
        for request in requests {
            let passes = match self.resolve_passes(request.passes.as_deref()) {
                Ok(passes) => passes,
                Err(error) => {
                    prepared.push(Err(error));
                    continue;
                }
            };
            let selection_index = selection_index(request.selection);
            let mut snapshots = Vec::with_capacity(passes.len());
            let mut pinned = Vec::new();
            for pass in &passes {
                let fingerprints = &pass.fingerprints[selection_index];
                let mut snapshot = Vec::with_capacity(fingerprints.len());
                for (obligation, &fingerprint) in pass.obligations.iter().zip(fingerprints) {
                    let hit = if self.cache.pin(fingerprint) {
                        match self.cache.peek(fingerprint) {
                            Some(verdict) => {
                                pinned.push(fingerprint);
                                Some(verdict)
                            }
                            None => {
                                // The entry was invalidated between pin and
                                // peek; treat as a miss.
                                self.cache.unpin(fingerprint);
                                None
                            }
                        }
                    } else {
                        None
                    };
                    if hit.is_none() {
                        misses.push(BatchItem {
                            selection: request.selection,
                            class: GoalClass::of(&obligation.goal),
                            width: pass.width,
                            fingerprint,
                            payload: &obligation.goal,
                        });
                    }
                    snapshot.push(hit);
                }
                snapshots.push(snapshot);
            }
            prepared.push(Ok(Prepared { passes, selection_index, snapshots, pinned }));
        }

        // Phase 2: plan the misses into goal-class groups and discharge
        // them on the shared work-stealing scheduler.
        let groups = plan(misses);
        let summary = BatchSummary {
            requests: requests.len(),
            groups: groups.len(),
            discharged: groups.iter().map(|g| g.work.len()).sum(),
        };
        let discharged = discharge_groups(&groups);

        // Phase 3: fold each request in arrival order with the verifier's
        // walk semantics; count and record only what the walk reaches.
        let outcomes = prepared
            .into_iter()
            .map(|prepared| {
                let Prepared { passes, selection_index, snapshots, pinned } = prepared?;
                let mut reports = Vec::with_capacity(passes.len());
                let mut hits = 0usize;
                let mut misses = 0usize;
                for (pass, snapshot) in passes.iter().zip(snapshots) {
                    let start = Instant::now();
                    let fingerprints = &pass.fingerprints[selection_index];
                    let walk = pass.obligations.iter().zip(fingerprints).zip(snapshot).map(
                        |((obligation, &fingerprint), cached)| {
                            let verdict = match cached {
                                Some(verdict) => {
                                    hits += 1;
                                    self.cache.note_served(fingerprint, true);
                                    verdict.to_verdict()
                                }
                                None => {
                                    misses += 1;
                                    self.cache.note_served(fingerprint, false);
                                    let verdict = discharged
                                        .get(&fingerprint)
                                        .expect("every miss was batch-discharged");
                                    let backend = BackendSelection::ALL[selection_index]
                                        .backend_id_for(GoalClass::of(&obligation.goal));
                                    self.cache.record(fingerprint, verdict.clone(), backend);
                                    verdict.to_verdict()
                                }
                            };
                            (verdict, obligation.description.clone())
                        },
                    );
                    let fold = fold_verdict_stream(walk);
                    reports.push(PassReport {
                        name: pass.name.to_string(),
                        pass_loc: pass.pass_loc,
                        subgoals: pass.obligations.len(),
                        time_seconds: start.elapsed().as_secs_f64(),
                        verified: fold.verified,
                        failure: fold.failure,
                    });
                }
                for fingerprint in pinned {
                    self.cache.unpin(fingerprint);
                }
                Ok(VerifyOutcome { reports, hits, misses })
            })
            .collect();
        (outcomes, summary)
    }

    /// Resolves a pass filter to resident passes in registry order.
    fn resolve_passes(&self, filter: Option<&[String]>) -> Result<Vec<&ResidentPass>, String> {
        match filter {
            None => Ok(self.passes.iter().collect()),
            Some([]) => Err("verify: empty pass filter".to_string()),
            Some(names) => {
                for name in names {
                    if !self.passes.iter().any(|p| p.name == name) {
                        return Err(format!("verify: unknown pass `{name}`"));
                    }
                }
                Ok(self.passes.iter().filter(|p| names.iter().any(|n| n == p.name)).collect())
            }
        }
    }

    /// Drops one pass's cached verdicts under a routing, returning how many
    /// entries existed.  The pass's next request re-discharges them.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown pass name.
    pub fn invalidate(&self, pass: &str, selection: BackendSelection) -> Result<usize, String> {
        let resident = self
            .passes
            .iter()
            .find(|p| p.name == pass)
            .ok_or_else(|| format!("invalidate: unknown pass `{pass}`"))?;
        let mut removed = 0usize;
        for &fingerprint in &resident.fingerprints[selection_index(selection)] {
            if self.cache.invalidate(fingerprint) {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Compacts entries recorded under retired backends or a stale rule
    /// library; returns how many entries were dropped.
    pub fn compact(&self, retired_backends: &[&str]) -> usize {
        self.cache.compact(retired_backends)
    }

    /// Runs one LRU/TTL eviction sweep under the configured policy.
    pub fn evict(&self) -> EvictionSummary {
        self.cache.evict()
    }

    /// Compiles a named QASMBench circuit with the baseline transpiler
    /// (devices parse via [`CouplingMap::from_spec`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown circuit, a malformed device spec, a
    /// circuit wider than the device, or a transpiler failure.
    pub fn compile(
        &self,
        circuit: &str,
        device_spec: &str,
        seed: u64,
    ) -> Result<CompileOutcome, String> {
        let bench = qasmbench::benchmark_suite()
            .into_iter()
            .find(|b| b.name == circuit)
            .ok_or_else(|| {
                format!("compile: unknown circuit `{circuit}` (the server compiles named QASMBench circuits)")
            })?;
        let device =
            CouplingMap::from_spec(device_spec).map_err(|error| format!("compile: {error}"))?;
        if bench.circuit.num_qubits() > device.num_qubits() {
            return Err(format!(
                "compile: {circuit} needs {} qubits but device `{device_spec}` has {}",
                bench.circuit.num_qubits(),
                device.num_qubits()
            ));
        }
        let start = Instant::now();
        let result = baseline_transpile(&bench.circuit, &device, seed)
            .map_err(|error| format!("compile: {circuit}: {error:?}"))?;
        Ok(CompileOutcome {
            circuit: bench.name,
            device: device_spec.to_string(),
            seed,
            input: (bench.circuit.num_qubits(), bench.circuit.size(), bench.circuit.depth()),
            output: (result.circuit.num_qubits(), result.circuit.size(), result.circuit.depth()),
            swap_mapped: result.properties.get_bool("is_swap_mapped"),
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Compiles a named QASMBench circuit and emits an equivalence
    /// certificate for the compilation.
    ///
    /// The certificate's verdict lives in the resident sharded cache under
    /// [`EquivalenceCertificate::cache_key`] — the same keying as pass
    /// obligations — so repeated certifications of one compilation count as
    /// cache hits in the shard statistics.  The certificate document itself
    /// is recomputed per emission (it embeds the circuits and the per-wire
    /// evidence), which is also what keeps a served certificate
    /// byte-identical to a local `giallar compile --certify` of the same
    /// input.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown circuit, a malformed device spec, a
    /// circuit wider than the device, or a transpiler failure.
    pub fn certify(
        &self,
        circuit: &str,
        device_spec: &str,
        seed: u64,
        selection: BackendSelection,
    ) -> Result<CertifyOutcome, String> {
        let bench = qasmbench::benchmark_suite()
            .into_iter()
            .find(|b| b.name == circuit)
            .ok_or_else(|| {
                format!("certify: unknown circuit `{circuit}` (the server certifies named QASMBench circuits)")
            })?;
        let device =
            CouplingMap::from_spec(device_spec).map_err(|error| format!("certify: {error}"))?;
        if bench.circuit.num_qubits() > device.num_qubits() {
            return Err(format!(
                "certify: {circuit} needs {} qubits but device `{device_spec}` has {}",
                bench.circuit.num_qubits(),
                device.num_qubits()
            ));
        }
        let start = Instant::now();
        let result = baseline_transpile(&bench.circuit, &device, seed)
            .map_err(|error| format!("certify: {circuit}: {error:?}"))?;
        let pipeline: Vec<String> =
            giallar_pipeline_pass_names(&device, seed).into_iter().map(str::to_string).collect();
        let certificate = certify_compilation(
            &bench.name,
            device_spec,
            seed,
            &bench.circuit,
            &result,
            &pipeline,
            selection,
        );
        let key = certificate.cache_key();
        let backend = selection.backend_id_for(GoalClass::of(&certificate.obligation().goal));
        let cached = if self.cache.pin(key) {
            let hit = self.cache.peek(key).is_some();
            self.cache.unpin(key);
            hit
        } else {
            false
        };
        self.cache.note_served(key, cached);
        if !cached {
            self.cache.record(key, certificate.verdict.clone(), backend);
        }
        Ok(CertifyOutcome {
            certificate,
            cached,
            cache_key: key,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// A point-in-time census of the resident state.
    pub fn status(&self) -> StatusSnapshot {
        StatusSnapshot {
            passes: self.passes.len(),
            subgoals: self.passes.iter().map(|p| p.obligations.len()).sum(),
            shards: self.cache.shard_count(),
            policy: self.cache.policy(),
            ticks: self.cache.now(),
            served: self.served.load(Ordering::Relaxed),
            stats: self.cache.fold_stats(),
            rule_library: self.cache.rule_library_fingerprint(),
        }
    }
}

fn selection_index(selection: BackendSelection) -> usize {
    BackendSelection::ALL
        .iter()
        .position(|s| *s == selection)
        .expect("every selection appears in BackendSelection::ALL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use giallar_core::verifier::{reports_agree, verify_all_passes_cached};

    /// Total obligations across the 44-pass registry (Table 2).
    const REGISTRY_SUBGOALS: usize = 104;

    #[test]
    fn cold_then_warm_full_registry_matches_the_cli_path() {
        let engine = Engine::new(EngineConfig::default());
        let cold = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!(cold.reports.len(), 44);
        assert!(cold.all_verified());
        assert_eq!((cold.hits, cold.misses), (0, REGISTRY_SUBGOALS));

        let warm = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!((warm.hits, warm.misses), (REGISTRY_SUBGOALS, 0));

        // Same reports as the CLI's cached path at the same cache state.
        let mut cache = VerdictCache::new();
        let cli = verify_all_passes_cached(&mut cache);
        assert!(reports_agree(&cli, &cold.reports));
        assert!(reports_agree(&cli, &warm.reports));
    }

    #[test]
    fn concurrent_requests_in_one_batch_share_the_snapshot() {
        let engine = Engine::new(EngineConfig::default());
        // Two identical cold requests in one batch: both see the empty
        // snapshot, so both count every obligation as a miss — but the
        // batcher discharges each unique fingerprint once.
        let requests = vec![VerifyRequest::full_registry(), VerifyRequest::full_registry()];
        let (outcomes, summary) = engine.verify_batch(&requests);
        assert_eq!(summary.requests, 2);
        // 104 obligations dedupe to the cache's unique-entry count.
        assert_eq!(summary.discharged, engine.cache().len());
        assert!(summary.discharged < REGISTRY_SUBGOALS);
        for outcome in outcomes {
            let outcome = outcome.unwrap();
            assert!(outcome.all_verified());
            assert_eq!((outcome.hits, outcome.misses), (0, REGISTRY_SUBGOALS));
        }
        // Stats folded in arrival order: two full-registry misses.
        let stats = engine.cache().fold_stats();
        assert_eq!(stats.total.misses, 2 * REGISTRY_SUBGOALS as u64);
        assert_eq!(stats.total.hits, 0);
    }

    #[test]
    fn unknown_and_empty_pass_filters_error_without_poisoning_the_batch() {
        let engine = Engine::new(EngineConfig::default());
        let requests = vec![
            VerifyRequest::single("CXCancellation"),
            VerifyRequest { passes: Some(vec!["Nope".to_string()]), selection: Default::default() },
            VerifyRequest { passes: Some(Vec::new()), selection: Default::default() },
        ];
        let (outcomes, _) = engine.verify_batch(&requests);
        assert!(outcomes[0].as_ref().unwrap().all_verified());
        assert!(outcomes[1].as_ref().unwrap_err().contains("unknown pass `Nope`"));
        assert!(outcomes[2].as_ref().unwrap_err().contains("empty pass filter"));
    }

    #[test]
    fn invalidate_forces_rechecks_of_exactly_one_pass() {
        let engine = Engine::new(EngineConfig::default());
        engine.verify(&VerifyRequest::full_registry()).unwrap();
        // CXCancellation's obligations are unique to it in the registry.
        let removed = engine.invalidate("CXCancellation", BackendSelection::Default).unwrap();
        assert!(removed > 0);
        let warm = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!(warm.misses, removed);
        assert_eq!(warm.hits, REGISTRY_SUBGOALS - removed);
        assert!(engine.invalidate("Nope", BackendSelection::Default).is_err());
    }

    #[test]
    fn reference_runs_compact_away_without_touching_default_entries() {
        let engine = Engine::new(EngineConfig::default());
        engine.verify(&VerifyRequest::full_registry()).unwrap();
        let default_entries = engine.cache().len();
        engine
            .verify(&VerifyRequest { passes: None, selection: BackendSelection::Reference })
            .unwrap();
        assert!(engine.cache().len() > default_entries);
        let dropped = engine.compact(&["reference"]);
        assert!(dropped > 0);
        assert_eq!(engine.cache().len(), default_entries);
        // Default entries still warm.
        let warm = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!(warm.misses, 0);
    }

    #[test]
    fn warm_start_from_a_cli_cache_file_hits_immediately() {
        let mut cache = VerdictCache::new();
        let cli = verify_all_passes_cached(&mut cache);
        let engine = Engine::with_cache(EngineConfig::default(), &cache);
        let warm = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!((warm.hits, warm.misses), (REGISTRY_SUBGOALS, 0));
        assert!(reports_agree(&cli, &warm.reports));
        // Round trip: exporting the resident cache reproduces the file.
        assert_eq!(engine.cache().to_cache().to_json(), cache.to_json());
    }

    #[test]
    fn compile_works_for_named_circuits_and_rejects_bad_input() {
        let engine = Engine::new(EngineConfig::default());
        let suite = qasmbench::benchmark_suite();
        let small = suite.iter().min_by_key(|b| b.circuit.num_qubits()).unwrap();
        let outcome = engine.compile(&small.name, "falcon27", 7).unwrap();
        assert_eq!(outcome.circuit, small.name);
        assert!(outcome.output.1 > 0);
        assert!(engine.compile("no_such_circuit", "falcon27", 7).is_err());
        assert!(engine.compile(&small.name, "torus:9", 7).is_err());
    }

    #[test]
    fn certify_emits_a_checkable_certificate_and_caches_the_verdict() {
        let engine = Engine::new(EngineConfig::default());
        let suite = qasmbench::benchmark_suite();
        let small = suite.iter().min_by_key(|b| b.circuit.num_qubits()).unwrap();
        let cold = engine.certify(&small.name, "falcon27", 7, BackendSelection::Default).unwrap();
        assert!(!cold.cached);
        assert!(cold.certificate.verdict.is_proved());
        // The served certificate stands on its own.
        giallar_core::certificate::check_certificate(&cold.certificate).unwrap();
        // Same compilation again: verdict answered from the resident cache,
        // document identical.
        let warm = engine.certify(&small.name, "falcon27", 7, BackendSelection::Default).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.cache_key, cold.cache_key);
        assert_eq!(warm.certificate, cold.certificate);
        assert!(engine.certify("no_such_circuit", "falcon27", 7, Default::default()).is_err());
        assert!(engine.certify(&small.name, "torus:9", 7, Default::default()).is_err());
    }

    #[test]
    fn status_reflects_served_traffic() {
        let engine = Engine::new(EngineConfig::default());
        let before = engine.status();
        assert_eq!(before.passes, 44);
        assert_eq!(before.subgoals, REGISTRY_SUBGOALS);
        assert_eq!(before.served, 0);
        engine.verify(&VerifyRequest::single("CXCancellation")).unwrap();
        let after = engine.status();
        assert_eq!(after.served, 1);
        assert_eq!(after.ticks, before.ticks + 1);
        assert!(after.stats.total.misses > 0);
    }
}

//! The resident verification engine behind `giallar serve`.
//!
//! A CLI `giallar verify` pays three cold-start costs on every invocation:
//! generating the registry's proof obligations, compiling and head-indexing
//! the rewrite-rule library into solver state, and (with `--cache`) parsing
//! the verdict file.  [`Engine`] pays them once, at construction, and keeps
//! everything resident:
//!
//! * the 44 registry passes as [`PreparedPass`]es: obligations
//!   **pre-generated**, cache fingerprints **pre-computed** for every backend
//!   selection;
//! * one [`VerdictCache`] behind a mutex — the same store `giallar verify
//!   --cache` uses — with the daemon's eviction policy and counters.
//!
//! [`Engine::verify_batch`] is the dispatch entry point.  It runs a batch of
//! concurrent verify requests as one [`run_cached`] — the same scan → plan →
//! discharge → fold that `giallar verify --cache` runs — with one request
//! per client request.  The scan looks every obligation up through
//! [`VerdictCache::pin`], so a hit is read and pinned in one step and an
//! eviction sweep can never drop it mid-batch; the store is unlocked while
//! the misses discharge.  The engine then applies each request's result in
//! arrival order: it notes every reached obligation as a served hit or
//! miss, records fresh verdicts with their backend, and finally releases
//! the pins.
//!
//! Because the scan reads the batch-start cache and the results apply in
//! arrival order, the reports and the store counters are deterministic
//! functions of the request sequence — and a request's reports are
//! bit-identical (modulo timing) to a `giallar verify --cache` run at the
//! same cache state.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use giallar_core::backend::{BackendSelection, GoalClass};
use giallar_core::cache::{CacheStats, EvictionPolicy, EvictionSummary, VerdictCache};
use giallar_core::certificate::{certify_compilation, EquivalenceCertificate};
use giallar_core::registry::verified_passes;
use giallar_core::verifier::{run_cached, CachedRequest, PassReport, PreparedPass, Reached};
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use qc_ir::CouplingMap;
use rayon::prelude::*;
use smtlite::Fingerprint;

/// Construction parameters for an [`Engine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Eviction policy for the resident cache.
    pub policy: EvictionPolicy,
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
    /// Obligations the batch discharged.  Both counts cover only what the
    /// walks reached: a pass's walk stops at its first failure.
    pub misses: usize,
}

impl VerifyOutcome {
    /// Whether every pass in the request verified.
    pub fn all_verified(&self) -> bool {
        self.reports.iter().all(|r| r.verified)
    }
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
    /// The certificate's key in the resident cache.
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
    /// The eviction policy in force.
    pub policy: EvictionPolicy,
    /// Current logical tick (one per dispatch batch).
    pub ticks: u64,
    /// Verify requests served since start.
    pub served: u64,
    /// The store counters.
    pub stats: CacheStats,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries currently pinned by in-flight requests.
    pub pinned: usize,
    /// The resident rewrite-rule library fingerprint.
    pub rule_library: Fingerprint,
}

/// The resident verification engine.  All methods take `&self`; one
/// instance is shared by every worker and connection thread.
pub struct Engine {
    passes: Vec<PreparedPass>,
    cache: Mutex<VerdictCache>,
    served: AtomicU64,
}

impl Engine {
    /// Builds the engine: generates and fingerprints every registry pass's
    /// obligations (in parallel) and creates an empty cache.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_cache(config, &VerdictCache::new())
    }

    /// Builds the engine warm-started from a persisted [`VerdictCache`]
    /// (e.g. a `giallar verify --cache` file), so the first requests hit
    /// immediately.  The engine starts with its own zeroed counters.
    pub fn with_cache(config: EngineConfig, cache: &VerdictCache) -> Engine {
        let library = qc_symbolic::rule_library_fingerprint();
        let passes: Vec<PreparedPass> = verified_passes()
            .par_iter()
            .map(|pass| PreparedPass::new(pass, library, &BackendSelection::ALL))
            .collect();
        let mut cache = cache.clone().with_policy(config.policy);
        cache.reset_stats();
        Engine { passes, cache: Mutex::new(cache), served: AtomicU64::new(0) }
    }

    /// Locks the resident cache (saved on shutdown; tests drive eviction
    /// through it).
    pub fn cache(&self) -> MutexGuard<'_, VerdictCache> {
        self.cache.lock().expect("cache lock")
    }

    /// Serves one verify request (a dispatch batch of one).
    ///
    /// # Errors
    ///
    /// Returns the request-level error (unknown or empty pass filter).
    pub fn verify(&self, request: &VerifyRequest) -> Result<VerifyOutcome, String> {
        self.verify_batch(std::slice::from_ref(request)).pop().expect("one outcome per request")
    }

    /// Serves a dispatch batch of concurrent verify requests as one
    /// [`run_cached`] over the batch-start cache, then applies each
    /// request's result in arrival order.  See the module docs.
    pub fn verify_batch(&self, requests: &[VerifyRequest]) -> Vec<Result<VerifyOutcome, String>> {
        self.cache().tick();
        self.served.fetch_add(requests.len() as u64, Ordering::Relaxed);
        let resolved: Vec<Result<Vec<&PreparedPass>, String>> =
            requests.iter().map(|request| self.resolve_passes(request.passes.as_deref())).collect();
        // A request that failed to resolve runs as an empty request.
        let runnable: Vec<CachedRequest<'_>> = requests
            .iter()
            .zip(&resolved)
            .map(|(request, passes)| CachedRequest {
                passes: passes.as_deref().unwrap_or_default(),
                selection: request.selection,
            })
            .collect();
        let mut pinned = Vec::new();
        let runs = run_cached(&runnable, |fingerprint| {
            let hit = self.cache().pin(fingerprint);
            if hit.is_some() {
                pinned.push(fingerprint);
            }
            hit
        });
        let mut cache = self.cache();
        let mut recorded = HashSet::new();
        let outcomes = resolved
            .into_iter()
            .zip(runs)
            .map(|(passes, runs)| passes.map(|_| Engine::apply(&mut cache, &mut recorded, runs)))
            .collect();
        for fingerprint in pinned {
            cache.unpin(fingerprint);
        }
        outcomes
    }

    /// Applies one request's run to the store: every reached obligation counts
    /// as a served hit or miss, and fresh verdicts are recorded under the
    /// backend that discharged them, once per fingerprint in `recorded` (the
    /// batch's record so far).
    fn apply(
        cache: &mut VerdictCache,
        recorded: &mut HashSet<Fingerprint>,
        runs: Vec<(PassReport, Vec<Reached>)>,
    ) -> VerifyOutcome {
        let (mut hits, mut misses) = (0, 0);
        let mut reports = Vec::with_capacity(runs.len());
        for (report, reached) in runs {
            for reached in reached {
                match reached {
                    Reached::Hit(fingerprint) => {
                        hits += 1;
                        cache.note_served(fingerprint, true);
                    }
                    Reached::Fresh(fingerprint, verdict, backend) => {
                        misses += 1;
                        cache.note_served(fingerprint, false);
                        if recorded.insert(fingerprint) {
                            cache.record_by(fingerprint, verdict, backend);
                        }
                    }
                }
            }
            reports.push(report);
        }
        VerifyOutcome { reports, hits, misses }
    }

    /// Resolves a pass filter to resident passes in registry order.
    fn resolve_passes(&self, filter: Option<&[String]>) -> Result<Vec<&PreparedPass>, String> {
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
        let mut cache = self.cache();
        let mut removed = 0usize;
        for &fingerprint in resident.fingerprints(selection) {
            if cache.invalidate(fingerprint) {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Compacts entries recorded under retired backends; returns how many
    /// entries were dropped.
    pub fn compact(&self, retired_backends: &[&str]) -> usize {
        self.cache().compact(retired_backends)
    }

    /// Runs one LRU/TTL eviction sweep under the configured policy.
    pub fn evict(&self) -> EvictionSummary {
        self.cache().evict()
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
        let bench = qasmbench::benchmark(circuit).ok_or_else(|| {
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
    /// The certificate's verdict lives in the resident cache under
    /// [`EquivalenceCertificate::cache_key`] — the same keying as pass
    /// obligations — so repeated certifications of one compilation count as
    /// cache hits in the store counters.  The certificate document itself
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
        let bench = qasmbench::benchmark(circuit).ok_or_else(|| {
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
        let mut cache = self.cache();
        let cached = cache.peek(key).is_some();
        cache.note_served(key, cached);
        if !cached {
            cache.record_by(key, certificate.verdict.clone(), backend);
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
        let cache = self.cache();
        StatusSnapshot {
            passes: self.passes.len(),
            subgoals: self.passes.iter().map(|p| p.obligations().len()).sum(),
            policy: cache.policy(),
            ticks: cache.now(),
            served: self.served.load(Ordering::Relaxed),
            stats: cache.stats(),
            entries: cache.len(),
            pinned: cache.pinned(),
            rule_library: cache.rule_library_fingerprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giallar_core::verifier::{reports_agree, verify_passes_cached_with};

    /// Total obligations across the 44-pass registry (Table 2).
    const REGISTRY_SUBGOALS: usize = 104;

    /// The CLI's cached path over the full registry under the default
    /// routing.
    fn verify_registry_cached(cache: &mut VerdictCache) -> Vec<PassReport> {
        verify_passes_cached_with(&verified_passes(), cache, BackendSelection::Default)
    }

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
        let cli = verify_registry_cached(&mut cache);
        assert!(reports_agree(&cli, &cold.reports));
        assert!(reports_agree(&cli, &warm.reports));
    }

    #[test]
    fn each_registry_fingerprint_is_inserted_once() {
        let engine = Engine::new(EngineConfig::default());
        let requests = vec![VerifyRequest::full_registry(), VerifyRequest::full_registry()];
        engine.verify_batch(&requests);
        engine.verify(&VerifyRequest::full_registry()).unwrap();
        let distinct: HashSet<Fingerprint> = engine
            .passes
            .iter()
            .flat_map(|pass| pass.fingerprints(BackendSelection::Default).iter().copied())
            .collect();
        let cache = engine.cache();
        assert_eq!(cache.len(), distinct.len());
        assert_eq!(cache.stats().inserted, distinct.len() as u64);
        assert_eq!(cache.stats().misses, 2 * REGISTRY_SUBGOALS as u64, "misses count walks");
    }

    #[test]
    fn concurrent_requests_in_one_batch_share_the_snapshot() {
        let engine = Engine::new(EngineConfig::default());
        // Two identical cold requests in one batch: both see the empty
        // snapshot, so both count every obligation as a miss (the plan
        // discharges each unique fingerprint once).
        let requests = vec![VerifyRequest::full_registry(), VerifyRequest::full_registry()];
        let outcomes = engine.verify_batch(&requests);
        // 104 obligations share fingerprints: fewer unique entries.
        assert!(engine.cache().len() < REGISTRY_SUBGOALS);
        for outcome in outcomes {
            let outcome = outcome.unwrap();
            assert!(outcome.all_verified());
            assert_eq!((outcome.hits, outcome.misses), (0, REGISTRY_SUBGOALS));
        }
        // Counted in arrival order: two full-registry misses.
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 2 * REGISTRY_SUBGOALS as u64);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn unknown_and_empty_pass_filters_error_without_poisoning_the_batch() {
        let engine = Engine::new(EngineConfig::default());
        let requests = vec![
            VerifyRequest::single("CXCancellation"),
            VerifyRequest { passes: Some(vec!["Nope".to_string()]), selection: Default::default() },
            VerifyRequest { passes: Some(Vec::new()), selection: Default::default() },
        ];
        let outcomes = engine.verify_batch(&requests);
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
        let cli = verify_registry_cached(&mut cache);
        let engine = Engine::with_cache(EngineConfig::default(), &cache);
        let warm = engine.verify(&VerifyRequest::full_registry()).unwrap();
        assert_eq!((warm.hits, warm.misses), (REGISTRY_SUBGOALS, 0));
        assert!(reports_agree(&cli, &warm.reports));
        // Round trip: saving the resident cache reproduces the file.
        assert_eq!(engine.cache().to_json(), cache.to_json());
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
        assert!(after.stats.misses > 0);
    }
}

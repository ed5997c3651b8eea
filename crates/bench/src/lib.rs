//! Shared harness code for the benchmark suite: each function regenerates the
//! data behind one table or figure of the paper.  `giallar bench` writes
//! them as the committed `BENCH_*.json` artifacts; with `--timings` every
//! wall clock comes from the one sampler in [`timing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bug_detection;
pub mod serve_latency;
pub mod timing;

pub use bug_detection::{
    bug_detection_artifact_json, bug_detection_campaign, bug_detection_text,
    pinned_generative_config, BugDetection, CAMPAIGN_SEED, GENERATIVE_CIRCUITS,
};
pub use serve_latency::{serve_latency_artifact_json, serve_latency_rows, ServeLatencyRow};
pub use timing::{sample, Timing, SAMPLES};

use giallar_core::backend::BackendSelection;
use giallar_core::cache::VerdictCache;
use giallar_core::certificate::certify_compilation;
use giallar_core::json::Value;
use giallar_core::registry::verified_passes;
use giallar_core::verifier::{reports_agree, verify_passes_cached_with, Discharger, PassReport};
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names, giallar_transpile};
use qc_ir::{Circuit, CouplingMap};
use qc_symbolic::{circuit_rewrite_rules, EquivalenceChecker, SymCircuit, SymbolicExecutor};
use smtlite::{reference_normalize, Rewriter, TermId};
use timing::median_ratio;

/// A cold verification of the whole registry under `selection`: the one
/// verification run over an empty store.
fn verify_registry(selection: BackendSelection) -> Vec<PassReport> {
    verify_passes_cached_with(&verified_passes(), &mut VerdictCache::new(), selection)
}

/// Table 2: verification results for the 44 verified passes.
pub fn table2_reports() -> Vec<PassReport> {
    verify_registry(BackendSelection::Default)
}

/// Samples a cold verification of the whole registry `samples` times (the
/// headline hot path: Giallar's value proposition is re-verification on
/// every compiler change).  `threads` is the worker bound of the run
/// (`RAYON_NUM_THREADS`, capped at one per pass).
pub fn verification_timing(samples: usize) -> Timing {
    let (mut timing, reports) = sample(samples, table2_reports);
    timing.threads = rayon::current_num_threads().min(reports.len().max(1));
    timing
}

/// The canonical Table 2 artifact (`BENCH_table2_verification.json`).
///
/// The deterministic core — pass names, subgoal counts, verdicts, and the
/// rewrite-rule library fingerprint — is always present, so the committed
/// artifact is byte-stable across machines and re-runs; a machine-dependent
/// `timing` section is appended only when a measurement is supplied.
pub fn table2_artifact_json(reports: &[PassReport], timing: Option<&Timing>) -> String {
    let verified = reports.iter().filter(|r| r.verified).count();
    let total_subgoals: usize = reports.iter().map(|r| r.subgoals).sum();
    let mut members = vec![
        ("benchmark", Value::String("table2_verification".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("passes", Value::Int(reports.len() as i64)),
        ("verified", Value::Int(verified as i64)),
        ("total_subgoals", Value::Int(total_subgoals as i64)),
        (
            "rule_library_fingerprint",
            Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
        ),
        ("reports", Value::Array(reports.iter().map(|r| r.to_json_value(false)).collect())),
    ];
    if let Some(timing) = timing {
        members.push(("timing", Value::object(vec![("cold", timing.to_json())])));
    }
    Value::object(members).to_pretty()
}

/// The canonical Figure 11 artifact (`BENCH_figure11_compilation.json`).
///
/// Circuit names, widths, gate counts and output two-qubit gate counts are
/// deterministic for a fixed device and seed, so a speedup that changes the
/// compiled output shows up in the structural compare; per-row `timing`
/// sections are included only with `include_timings`, so the committed
/// artifact stays byte-stable.
pub fn figure11_artifact_json(
    device: &str,
    seed: u64,
    rows: &[Figure11Row],
    include_timings: bool,
) -> String {
    let rows_json: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut members = vec![
                ("name", Value::String(row.name.clone())),
                ("qubits", Value::Int(row.qubits as i64)),
                ("gates", Value::Int(row.gates as i64)),
                ("output_2q_gates", Value::Int(row.output_2q_gates as i64)),
            ];
            if include_timings {
                members.push((
                    "timing",
                    Value::object(vec![
                        ("qiskit", row.qiskit.to_json()),
                        ("giallar", row.giallar.to_json()),
                        ("overhead", Value::Float(row.overhead())),
                    ]),
                ));
            }
            Value::object(members)
        })
        .collect();
    Value::object(vec![
        ("benchmark", Value::String("figure11_compilation".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("device", Value::String(device.to_string())),
        ("seed", Value::Int(seed as i64)),
        ("circuits", Value::Int(rows.len() as i64)),
        ("rows", Value::Array(rows_json)),
    ])
    .to_pretty()
}

/// One row of the Figure 11 comparison.
#[derive(Debug, Clone)]
pub struct Figure11Row {
    /// Benchmark name.
    pub name: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Number of gates before compilation.
    pub gates: usize,
    /// Two-qubit gates in the compiled output (both pipelines produce the
    /// same circuit).
    pub output_2q_gates: usize,
    /// Unverified (Qiskit-style) compilation time.
    pub qiskit: Timing,
    /// Verified (Giallar wrapper) compilation time.
    pub giallar: Timing,
}

impl Figure11Row {
    /// Relative overhead of the verified pipeline by median (e.g. `0.08` =
    /// 8 %).
    pub fn overhead(&self) -> f64 {
        median_ratio(&self.giallar, &self.qiskit) - 1.0
    }
}

/// Figure 11: compile every QASMBench circuit that fits the device with both
/// pipelines (lookahead swap, as in the paper), sampling each compile
/// `samples` times.
pub fn figure11_rows(device: &CouplingMap, seed: u64, samples: usize) -> Vec<Figure11Row> {
    let mut rows = Vec::new();
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() {
            continue;
        }
        let (qiskit, baseline) =
            sample(samples, || baseline_transpile(&bench.circuit, device, seed));
        let (giallar, verified) =
            sample(samples, || giallar_transpile(&bench.circuit, device, seed));
        let (Ok(baseline), Ok(_)) = (baseline, verified) else {
            // Mirror the paper: only circuits that the baseline compiles are
            // reported (31 of 48 in the original evaluation).
            continue;
        };
        rows.push(Figure11Row {
            name: bench.name,
            qubits: bench.circuit.num_qubits(),
            gates: bench.circuit.size(),
            output_2q_gates: baseline.circuit.two_qubit_gate_count(),
            qiskit,
            giallar,
        });
    }
    rows
}

/// One row of the certificate-emission overhead measurement
/// (`BENCH_certify_overhead.json`).
///
/// `name`, `qubits`, `gates`, `wires`, `proved`, and `cache_key` are
/// deterministic for a fixed device and seed — they pin the certificate's
/// shape and identity, so the committed artifact catches a compilation,
/// evidence, or cache-keying change.  The timings are machine-dependent
/// and emitted only with timings enabled.
#[derive(Debug, Clone)]
pub struct CertifyRow {
    /// Benchmark circuit name.
    pub name: String,
    /// Number of qubits before compilation.
    pub qubits: usize,
    /// Number of gates before compilation.
    pub gates: usize,
    /// Wires covered by the certificate's equivalence evidence (the device
    /// register width).
    pub wires: usize,
    /// Whether the compilation certified (it must, for every benchmark
    /// circuit the baseline compiles).
    pub proved: bool,
    /// The certificate's verdict-cache key, hex-encoded (the same key the
    /// serve daemon stores the verdict under).
    pub cache_key: String,
    /// The baseline compile alone.
    pub compile: Timing,
    /// Emitting the certificate on top of the compile.  Schedule
    /// verification runs once per process, in the first row's warm-up, so
    /// the timed runs measure evidence discharge and certificate assembly.
    pub certify: Timing,
}

impl CertifyRow {
    /// Certificate-emission cost as a multiple of the baseline compile, by
    /// median (`2.0` = certifying costs twice the compile itself).
    pub fn overhead(&self) -> f64 {
        median_ratio(&self.certify, &self.compile)
    }
}

/// Certificate overhead: compile every QASMBench circuit that fits the
/// device, then emit an equivalence certificate for each compilation,
/// sampling both `samples` times.  Mirrors [`figure11_rows`]' skip rules, so
/// the two artifacts cover the same circuit set.
pub fn certify_rows(
    device: &CouplingMap,
    device_spec: &str,
    seed: u64,
    samples: usize,
) -> Vec<CertifyRow> {
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(device, seed).into_iter().map(str::to_string).collect();
    let mut rows = Vec::new();
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() {
            continue;
        }
        let (compile, result) =
            sample(samples, || baseline_transpile(&bench.circuit, device, seed));
        let Ok(result) = result else {
            continue;
        };
        let (certify, cert) = sample(samples, || {
            certify_compilation(
                &bench.name,
                device_spec,
                seed,
                &bench.circuit,
                &result,
                &pipeline,
                BackendSelection::Default,
            )
        });
        rows.push(CertifyRow {
            name: bench.name,
            qubits: bench.circuit.num_qubits(),
            gates: bench.circuit.size(),
            wires: cert.evidence.len(),
            proved: cert.verdict.is_proved(),
            cache_key: cert.cache_key().to_hex(),
            compile,
            certify,
        });
    }
    rows
}

/// The canonical certify-overhead artifact (`BENCH_certify_overhead.json`).
///
/// Certificate shapes, verdicts, and cache keys are deterministic for a
/// fixed device and seed; the per-row `timing` sections (with the derived
/// `overhead`) appear only with `include_timings`, so the structural
/// content the CI drift gate compares is byte-stable across machines.
pub fn certify_artifact_json(
    device: &str,
    seed: u64,
    rows: &[CertifyRow],
    include_timings: bool,
) -> String {
    let rows_json: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut members = vec![
                ("name", Value::String(row.name.clone())),
                ("qubits", Value::Int(row.qubits as i64)),
                ("gates", Value::Int(row.gates as i64)),
                ("wires", Value::Int(row.wires as i64)),
                ("proved", Value::Bool(row.proved)),
                ("cache_key", Value::String(row.cache_key.clone())),
            ];
            if include_timings {
                members.push((
                    "timing",
                    Value::object(vec![
                        ("compile", row.compile.to_json()),
                        ("certify", row.certify.to_json()),
                        ("overhead", Value::Float(row.overhead())),
                    ]),
                ));
            }
            Value::object(members)
        })
        .collect();
    Value::object(vec![
        ("benchmark", Value::String("certify_overhead".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("device", Value::String(device.to_string())),
        ("seed", Value::Int(seed as i64)),
        (
            "rule_library_fingerprint",
            Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
        ),
        ("circuits", Value::Int(rows.len() as i64)),
        ("rows", Value::Array(rows_json)),
    ])
    .to_pretty()
}

/// One row of the solver microbenchmark (`BENCH_solver_microbench.json`).
///
/// `name`, `items`, and `checksum` are deterministic — they describe the
/// workload and a verdict-sensitive result count, so the committed artifact
/// catches semantic drift in the solver hot path.  The timings are
/// machine-dependent and only emitted with `include_timings`; where the
/// workload has a naive reference implementation (the pre-optimization
/// algorithm kept as an executable specification), its timing and the
/// median speedup of the compiled path over it are reported.
#[derive(Debug, Clone)]
pub struct MicrobenchRow {
    /// Workload name.
    pub name: String,
    /// Work items processed per run (terms normalised, queries checked,
    /// passes verified).
    pub items: usize,
    /// Deterministic result checksum (e.g. proved queries, changed normal
    /// forms, total subgoals) — identical across machines and runs.
    pub checksum: usize,
    /// The optimized hot path.
    pub optimized: Timing,
    /// The naive reference path, when the workload has one.
    pub reference: Option<Timing>,
}

/// The normalisation workload: a cancellation- and commutation-heavy
/// circuit over 8 qubits, symbolically executed so every wire is a deep
/// nested term exercising the full Figure 7 rule library.
fn microbench_wire_terms() -> (SymbolicExecutor, Vec<TermId>) {
    let n = 8;
    let mut circuit = Circuit::new(n);
    for q in 0..n - 1 {
        circuit.cx(q, q + 1).z(q).cx(q, q + 1);
        circuit.h(q).h(q);
    }
    for q in 0..n {
        circuit.x(q).x(q).t(q);
    }
    for q in (0..n - 1).rev() {
        circuit.cx(q, q + 1).cx(q, q + 1).s(q);
    }
    let mut executor = SymbolicExecutor::new(n);
    let wires = executor.execute(&SymCircuit::from_circuit(&circuit));
    (executor, wires)
}

/// Register width of the `solver/prewarm` and `solver/snapshot` rows: the
/// `falcon27` device, the width of its certificates' equivalence goals.
const SETUP_WIDTH: usize = 27;

/// Solver set-ups timed per run of the `solver/*` rows (one set-up is a
/// few microseconds, so a run times a batch).
const SETUP_BATCH: usize = 16;

/// Runs the solver microbenchmarks, sampling each path `samples` times.
///
/// Workloads:
///
/// * `normalize/wire_terms` — normalise every output wire of the workload
///   circuit: the compiled, head-indexed rewriter (fresh per run, so
///   rule-compilation cost is included and the persistent memo starts cold)
///   versus [`reference_normalize`], the original string-compared linear
///   scan over the whole rule library.
/// * `verify/obligation_generation` — generating (not discharging) the
///   proof obligations of all 44 registry passes: the non-solver part of a
///   cold verification, reported so the artifact shows the cold-verify
///   breakdown.
/// * `verify/registry_cold` — a cold verification of the 44-pass registry
///   (the one verification run over an empty store), timed
///   under both backend routings: the default compiled rewriter
///   (`optimized`) and the naive reference normalizer (`reference`) — the
///   backend head-to-head, with the reference leg cross-checked against
///   the default reports.
/// * `solver/prewarm` — building a fresh [`EquivalenceChecker`] over the
///   27-qubit register, what every backend prewarm pays; the checksum
///   counts the terms the set-ups interned (the register, nothing else).
/// * `solver/snapshot` — snapshotting a default [`Discharger`] prewarmed
///   to 27 qubits, what every batch worker pays per discharge group.
pub fn solver_microbench_rows(samples: usize) -> Vec<MicrobenchRow> {
    let mut rows = Vec::new();
    let library: Vec<smtlite::RewriteRule> =
        circuit_rewrite_rules().iter().map(|c| c.rule.clone()).collect();

    // --- normalize/wire_terms -------------------------------------------
    let (mut executor, wires) = microbench_wire_terms();
    let arena = executor.context_mut().arena_mut();
    let (optimized, changed) = sample(samples, || {
        let mut rewriter = Rewriter::new();
        for rule in &library {
            rewriter.add_rule(arena, rule.clone());
        }
        wires.iter().filter(|&&w| rewriter.normalize(arena, w) != w).count()
    });
    let (reference, reference_changed) = sample(samples, || {
        wires.iter().filter(|&&w| reference_normalize(arena, &library, w) != w).count()
    });
    assert_eq!(changed, reference_changed, "normalizers disagree on the wire terms");
    rows.push(MicrobenchRow {
        name: "normalize/wire_terms".to_string(),
        items: wires.len(),
        checksum: changed,
        optimized,
        reference: Some(reference),
    });

    // --- verify/obligation_generation -----------------------------------
    let passes = giallar_core::registry::verified_passes();
    let (generation, total_subgoals) =
        sample(samples, || passes.iter().map(|p| (p.obligations)().len()).sum::<usize>());
    rows.push(MicrobenchRow {
        name: "verify/obligation_generation".to_string(),
        items: passes.len(),
        checksum: total_subgoals,
        optimized: generation,
        reference: None,
    });

    // --- verify/registry_cold -------------------------------------------
    // The optimized timing is the default backend routing; the reference
    // timing discharges the same registry through the reference backend
    // (naive normalizer), cross-checking that the verdicts agree — the
    // backend seam's differential guarantee, timed.
    let (cold, baseline) = sample(samples, table2_reports);
    let (reference, reference_reports) =
        sample(samples, || verify_registry(BackendSelection::Reference));
    assert!(baseline.iter().all(|r| r.verified));
    assert_eq!(baseline.iter().map(|r| r.subgoals).sum::<usize>(), total_subgoals);
    assert!(
        reports_agree(&baseline, &reference_reports),
        "reference backend disagreed with the default routing"
    );
    rows.push(MicrobenchRow {
        name: "verify/registry_cold".to_string(),
        items: passes.len(),
        checksum: total_subgoals,
        optimized: cold,
        reference: Some(reference),
    });

    // --- solver/prewarm, solver/snapshot --------------------------------
    let (prewarm, interned) = sample(samples, || {
        (0..SETUP_BATCH)
            .map(|_| {
                let mut checker = EquivalenceChecker::new(SETUP_WIDTH);
                checker.executor_mut().context().arena().len()
            })
            .sum::<usize>()
    });
    assert_eq!(interned, SETUP_BATCH * SETUP_WIDTH, "a prewarm interned more than its register");
    rows.push(MicrobenchRow {
        name: "solver/prewarm".to_string(),
        items: SETUP_BATCH,
        checksum: interned,
        optimized: prewarm,
        reference: None,
    });
    let mut template = Discharger::new();
    template.prewarm(SETUP_WIDTH);
    let (snapshot, snapshots) =
        sample(samples, || (0..SETUP_BATCH).filter_map(|_| template.snapshot()).count());
    assert_eq!(snapshots, SETUP_BATCH, "the default backends must all snapshot");
    rows.push(MicrobenchRow {
        name: "solver/snapshot".to_string(),
        items: SETUP_BATCH,
        checksum: snapshots,
        optimized: snapshot,
        reference: None,
    });

    rows
}

/// The canonical solver-microbench artifact (`BENCH_solver_microbench.json`).
///
/// Workload names, item counts, rule-library size, and checksums are
/// deterministic; per-row `timing` sections appear only with
/// `include_timings`, so the structural (non-timing) content is byte-stable
/// across machines and is what the CI drift gate compares.
pub fn solver_microbench_artifact_json(rows: &[MicrobenchRow], include_timings: bool) -> String {
    let rows_json: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut members = vec![
                ("name", Value::String(row.name.clone())),
                ("items", Value::Int(row.items as i64)),
                ("checksum", Value::Int(row.checksum as i64)),
            ];
            if include_timings {
                let mut timing = vec![("optimized", row.optimized.to_json())];
                if let Some(reference) = &row.reference {
                    timing.push(("reference", reference.to_json()));
                    timing.push(("speedup", Value::Float(median_ratio(reference, &row.optimized))));
                }
                members.push(("timing", Value::object(timing)));
            }
            Value::object(members)
        })
        .collect();
    Value::object(vec![
        ("benchmark", Value::String("solver_microbench".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("rules", Value::Int(circuit_rewrite_rules().len() as i64)),
        (
            "rule_library_fingerprint",
            Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
        ),
        ("workloads", Value::Int(rows.len() as i64)),
        ("rows", Value::Array(rows_json)),
    ])
    .to_pretty()
}

/// Strips machine-dependent timing fields from a parsed benchmark artifact,
/// leaving its deterministic structural content: the `timing` section and
/// every `*_seconds` / `speedup` / `overhead` / `threads` member, at any
/// depth.  The CI drift gate compares artifacts through this filter, so
/// committed artifacts may carry timing sections (the recorded evidence)
/// while structural drift — a changed verdict, subgoal count, fingerprint,
/// or workload checksum — still fails the build.
pub fn strip_timing(value: &Value) -> Value {
    match value {
        Value::Object(members) => Value::Object(
            members
                .iter()
                .filter(|(key, _)| {
                    let key = key.as_str();
                    key != "timing"
                        && key != "speedup"
                        && key != "overhead"
                        && key != "threads"
                        && !key.ends_with("_seconds")
                })
                .map(|(key, inner)| (key.clone(), strip_timing(inner)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(artifact: &str) -> Value {
        giallar_core::json::parse(artifact).unwrap()
    }

    #[test]
    fn table2_has_44_verified_rows() {
        let reports = table2_reports();
        assert_eq!(reports.len(), 44);
        assert!(reports.iter().all(|r| r.verified));
        assert!(reports.iter().any(|r| r.name == "CXCancellation"));
    }

    #[test]
    fn verification_timing_is_consistent() {
        let timing = verification_timing(1);
        assert_eq!(timing.samples, 1);
        assert!(timing.median > 0.0);
        assert!((1..=44).contains(&timing.threads));
    }

    #[test]
    fn table2_artifact_is_deterministic_and_parses() {
        let reports = table2_reports();
        let first = table2_artifact_json(&reports, None);
        let second = table2_artifact_json(&table2_reports(), None);
        assert_eq!(first, second, "artifact must be byte-stable without timings");
        let doc = parse(&first);
        assert_eq!(doc.get("passes").and_then(Value::as_int), Some(44));
        assert_eq!(doc.get("verified").and_then(Value::as_int), Some(44));
        assert_eq!(doc.get("reports").and_then(Value::as_array).map(<[Value]>::len), Some(44));
        assert!(!first.contains("timing"));
        // With a measurement attached the timing section appears.
        let timed = parse(&table2_artifact_json(&reports, Some(&verification_timing(1))));
        let cold = timed.get("timing").and_then(|t| t.get("cold")).unwrap();
        assert!(cold.get("median_seconds").is_some() && cold.get("threads").is_some());
    }

    #[test]
    fn figure11_artifact_is_deterministic_and_parses() {
        let device = CouplingMap::grid(2, 3);
        let rows = figure11_rows(&device, 5, 1);
        assert!(!rows.is_empty());
        let first = figure11_artifact_json("grid:2x3", 5, &rows, false);
        let second = figure11_artifact_json("grid:2x3", 5, &figure11_rows(&device, 5, 1), false);
        assert_eq!(first, second, "artifact must be byte-stable without timings");
        let doc = parse(&first);
        assert_eq!(doc.get("device").and_then(Value::as_str), Some("grid:2x3"));
        assert!(!first.contains("timing"));
        let Some(Value::Array(json_rows)) = doc.get("rows") else { panic!("rows") };
        for (json_row, row) in json_rows.iter().zip(&rows) {
            let count = json_row.get("output_2q_gates").and_then(Value::as_int);
            assert_eq!(count, Some(row.output_2q_gates as i64), "{}", row.name);
        }
        assert!(rows.iter().any(|row| row.output_2q_gates > 0));
        let timed = figure11_artifact_json("grid:2x3", 5, &rows, true);
        assert!(timed.contains("\"qiskit\"") && timed.contains("\"overhead\""));
    }

    #[test]
    fn certify_artifact_is_deterministic_and_every_row_proves() {
        let device = CouplingMap::grid(2, 3);
        let rows = certify_rows(&device, "grid:2x3", 5, 1);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.proved), "every compiled circuit must certify");
        assert!(rows.iter().all(|r| r.wires == device.num_qubits()));
        let first = certify_artifact_json("grid:2x3", 5, &rows, false);
        let second =
            certify_artifact_json("grid:2x3", 5, &certify_rows(&device, "grid:2x3", 5, 1), false);
        assert_eq!(first, second, "structural content must be byte-stable without timings");
        assert!(!first.contains("timing"));
        let doc = parse(&first);
        assert_eq!(doc.get("circuits").and_then(Value::as_int), Some(rows.len() as i64));
        let timed = certify_artifact_json("grid:2x3", 5, &rows, true);
        assert!(timed.contains("\"certify\"") && timed.contains("\"overhead\""));
    }

    #[test]
    fn solver_microbench_artifact_is_deterministic_and_parses() {
        let rows = solver_microbench_rows(1);
        assert_eq!(rows.len(), 5);
        let first = solver_microbench_artifact_json(&rows, false);
        let second = solver_microbench_artifact_json(&solver_microbench_rows(1), false);
        assert_eq!(first, second, "structural content must be byte-stable without timings");
        assert!(!first.contains("timing"));
        let doc = parse(&first);
        assert_eq!(doc.get("workloads").and_then(Value::as_int), Some(5));
        assert_eq!(
            doc.get("rule_library_fingerprint").and_then(Value::as_str),
            Some(qc_symbolic::rule_library_fingerprint().to_hex().as_str())
        );
        // The referenced workloads (normalize and the backend head-to-head
        // registry verify) carry a reference timing and a
        // speedup; wall-clock comparisons are left to `--timings` runs (a
        // single debug-mode run here would make them flaky).
        assert_eq!(rows.iter().filter(|r| r.reference.is_some()).count(), 2);
        let timed = solver_microbench_artifact_json(&rows, true);
        assert!(timed.contains("\"optimized\"") && timed.contains("\"speedup\""));
    }

    #[test]
    fn strip_timing_removes_only_machine_dependent_fields() {
        let device = CouplingMap::grid(2, 3);
        let figure11 = figure11_rows(&device, 5, 1);
        let certify = certify_rows(&device, "grid:2x3", 5, 1);
        let micro = solver_microbench_rows(1);
        let reports = table2_reports();
        let timing = verification_timing(1);
        let pairs = [
            (table2_artifact_json(&reports, Some(&timing)), table2_artifact_json(&reports, None)),
            (
                figure11_artifact_json("grid:2x3", 5, &figure11, true),
                figure11_artifact_json("grid:2x3", 5, &figure11, false),
            ),
            (
                certify_artifact_json("grid:2x3", 5, &certify, true),
                certify_artifact_json("grid:2x3", 5, &certify, false),
            ),
            (
                solver_microbench_artifact_json(&micro, true),
                solver_microbench_artifact_json(&micro, false),
            ),
        ];
        for (timed, bare) in &pairs {
            let (timed, bare) = (parse(timed), parse(bare));
            assert_ne!(timed, bare);
            // Every sampler field, `nproc` included, sits inside a stripped
            // `timing` object: the drift gate stays machine-independent.
            assert_eq!(strip_timing(&timed), strip_timing(&bare));
            assert_eq!(strip_timing(&bare), bare, "deterministic artifacts pass through unchanged");
        }
        // Structural drift stays visible through the filter.
        let other = parse(&table2_artifact_json(&reports[..43], None));
        assert_ne!(strip_timing(&other), parse(&pairs[0].1));
    }
}

//! Shared harness code for the benchmark suite: each function regenerates the
//! data behind one table or figure of the paper and renders it as text.
//! The Criterion benches in `benches/` wrap these functions; the
//! `examples/` binaries at the workspace root print the same tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bug_detection;
pub mod serve_latency;

pub use bug_detection::{
    bug_detection_artifact_json, bug_detection_campaign, bug_detection_text,
    pinned_generative_config, pipeline_inputs, BugDetection, CAMPAIGN_SEED, GENERATIVE_CIRCUITS,
};
pub use serve_latency::{
    serve_latency_artifact_json, serve_latency_rows, serve_latency_text, ServeLatencyRow,
};

use std::time::Instant;

use giallar_core::backend::BackendSelection;
use giallar_core::certificate::certify_compilation;
use giallar_core::json::Value;
use giallar_core::verifier::{
    render_table2, reports_agree, verify_all_passes, verify_all_passes_parallel,
    verify_all_passes_with, PassReport,
};
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names, giallar_transpile};
use qc_ir::unitary::circuits_equivalent;
use qc_ir::{Circuit, CouplingMap};
use qc_symbolic::{check_equivalence, circuit_rewrite_rules, SymCircuit, SymbolicExecutor};
use serde::{Deserialize, Serialize};
use smtlite::{reference_normalize, Context, Rewriter, TermId};

/// Table 2: verification results for the 44 verified passes.
pub fn table2_reports() -> Vec<PassReport> {
    verify_all_passes()
}

/// Table 2 under an explicit solver-backend selection (the differential
/// `--backend reference` run discharges through the naive reference
/// normalizer; verdicts must agree with the default routing).
pub fn table2_reports_with(selection: BackendSelection) -> Vec<PassReport> {
    verify_all_passes_with(selection)
}

/// Renders Table 2 as text.
pub fn table2_text() -> String {
    render_table2(&table2_reports())
}

/// Table 2 via the parallel verifier: same reports, one worker per chunk of
/// the 44 registry entries.
pub fn table2_reports_parallel() -> Vec<PassReport> {
    verify_all_passes_parallel()
}

/// Sequential-vs-parallel comparison for full-registry verification (the
/// headline hot path: Giallar's value proposition is re-verification on
/// every compiler change, so wall-clock time of the whole registry matters).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerificationSpeedup {
    /// Best-of-N wall-clock seconds for [`verify_all_passes`].
    pub sequential_seconds: f64,
    /// Best-of-N wall-clock seconds for [`verify_all_passes_parallel`].
    pub parallel_seconds: f64,
    /// `sequential_seconds / parallel_seconds`.
    pub speedup: f64,
    /// Number of passes verified (44, Table 2).
    pub passes: usize,
    /// Worker threads the parallel verifier actually uses (honors
    /// `RAYON_NUM_THREADS`, capped at one per pass).
    pub threads: usize,
}

/// Measures the sequential and parallel verifiers back to back, keeping the
/// best of `runs` wall-clock times for each, and cross-checks that both
/// produce identical reports (ignoring timing).
pub fn measure_verification_speedup(runs: usize) -> VerificationSpeedup {
    let runs = runs.max(1);
    let mut sequential_seconds = f64::INFINITY;
    let mut parallel_seconds = f64::INFINITY;
    let mut passes = 0;
    for _ in 0..runs {
        let start = Instant::now();
        let sequential = verify_all_passes();
        sequential_seconds = sequential_seconds.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let parallel = verify_all_passes_parallel();
        parallel_seconds = parallel_seconds.min(start.elapsed().as_secs_f64());
        assert!(
            reports_agree(&sequential, &parallel),
            "parallel verification must match the sequential reports"
        );
        passes = sequential.len();
    }
    VerificationSpeedup {
        sequential_seconds,
        parallel_seconds,
        speedup: if parallel_seconds > 0.0 { sequential_seconds / parallel_seconds } else { 1.0 },
        passes,
        threads: rayon::current_num_threads().min(passes.max(1)),
    }
}

impl VerificationSpeedup {
    /// Renders the measurement as a JSON object (hand-rendered: the vendored
    /// serde shim carries no serialization machinery).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"verify_all_passes\",\n",
                "  \"passes\": {},\n",
                "  \"threads\": {},\n",
                "  \"sequential_seconds\": {:.6},\n",
                "  \"parallel_seconds\": {:.6},\n",
                "  \"speedup\": {:.3}\n",
                "}}\n"
            ),
            self.passes, self.threads, self.sequential_seconds, self.parallel_seconds, self.speedup
        )
    }
}

/// The canonical Table 2 artifact (`BENCH_table2_verification.json`).
///
/// The deterministic core — pass names, subgoal counts, verdicts, and the
/// rewrite-rule library fingerprint — is always present, so the committed
/// artifact is byte-stable across machines and re-runs; a machine-dependent
/// `timing` section is appended only when a measurement is supplied.  Both
/// the `giallar bench` subcommand and the Criterion harness emit their
/// artifact through this one function, so the two can never drift.
pub fn table2_artifact_json(
    reports: &[PassReport],
    timing: Option<&VerificationSpeedup>,
) -> String {
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
    if let Some(speedup) = timing {
        members.push((
            "timing",
            Value::object(vec![
                ("sequential_seconds", Value::Float(speedup.sequential_seconds)),
                ("parallel_seconds", Value::Float(speedup.parallel_seconds)),
                ("speedup", Value::Float(speedup.speedup)),
                ("threads", Value::Int(speedup.threads as i64)),
            ]),
        ));
    }
    Value::object(members).to_pretty()
}

/// The canonical Figure 11 artifact (`BENCH_figure11_compilation.json`).
///
/// Circuit names, widths, and gate counts are deterministic for a fixed
/// device and seed; per-row wall-clock columns are included only with
/// `include_timings`, so the committed artifact stays byte-stable.
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
            ];
            if include_timings {
                members.push(("qiskit_seconds", Value::Float(row.qiskit_seconds)));
                members.push(("giallar_seconds", Value::Float(row.giallar_seconds)));
                members.push(("overhead", Value::Float(row.overhead())));
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure11Row {
    /// Benchmark name.
    pub name: String,
    /// Number of qubits.
    pub qubits: usize,
    /// Number of gates before compilation.
    pub gates: usize,
    /// Unverified (Qiskit-style) compilation time in seconds.
    pub qiskit_seconds: f64,
    /// Verified (Giallar wrapper) compilation time in seconds.
    pub giallar_seconds: f64,
}

impl Figure11Row {
    /// Relative overhead of the verified pipeline (e.g. `0.08` = 8 %).
    pub fn overhead(&self) -> f64 {
        if self.qiskit_seconds <= 0.0 {
            0.0
        } else {
            self.giallar_seconds / self.qiskit_seconds - 1.0
        }
    }
}

/// Figure 11: compile every QASMBench circuit that fits the device with both
/// pipelines (lookahead swap, as in the paper) and record wall-clock times.
pub fn figure11_rows(device: &CouplingMap, seed: u64) -> Vec<Figure11Row> {
    let mut rows = Vec::new();
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() {
            continue;
        }
        let start = Instant::now();
        let baseline = baseline_transpile(&bench.circuit, device, seed);
        let qiskit_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let verified = giallar_transpile(&bench.circuit, device, seed);
        let giallar_seconds = start.elapsed().as_secs_f64();
        if baseline.is_err() || verified.is_err() {
            // Mirror the paper: only circuits that the baseline compiles are
            // reported (31 of 48 in the original evaluation).
            continue;
        }
        rows.push(Figure11Row {
            name: bench.name,
            qubits: bench.circuit.num_qubits(),
            gates: bench.circuit.size(),
            qiskit_seconds,
            giallar_seconds,
        });
    }
    rows
}

/// Renders Figure 11 as a text table.
pub fn figure11_text(rows: &[Figure11Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>7} {:>7} {:>14} {:>14} {:>10}\n",
        "circuit", "qubits", "gates", "qiskit (s)", "giallar (s)", "overhead"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>7} {:>7} {:>14.4} {:>14.4} {:>9.1}%\n",
            row.name,
            row.qubits,
            row.gates,
            row.qiskit_seconds,
            row.giallar_seconds,
            row.overhead() * 100.0
        ));
    }
    out
}

/// One row of the certificate-emission overhead measurement
/// (`BENCH_certify_overhead.json`).
///
/// `name`, `qubits`, `gates`, `wires`, `proved`, and `cache_key` are
/// deterministic for a fixed device and seed — they pin the certificate's
/// shape and identity, so the committed artifact catches a compilation,
/// evidence, or cache-keying change.  The timing columns are
/// machine-dependent and emitted only with timings enabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Wall-clock seconds for the baseline compile alone.
    pub compile_seconds: f64,
    /// Wall-clock seconds for emitting the certificate on top of the
    /// compile (schedule verification + evidence discharge).  Schedule
    /// verification runs once per process, so only the first row of a run
    /// pays for it; later rows reuse its pass reports.
    pub certify_seconds: f64,
}

impl CertifyRow {
    /// Certificate-emission cost as a multiple of the baseline compile
    /// (`2.0` = certifying costs twice the compile itself).
    pub fn overhead(&self) -> f64 {
        if self.compile_seconds <= 0.0 {
            0.0
        } else {
            self.certify_seconds / self.compile_seconds
        }
    }
}

/// Certificate overhead: compile every QASMBench circuit that fits the
/// device, then emit an equivalence certificate for each compilation and
/// record both wall-clock times.  Mirrors [`figure11_rows`]' skip rules, so
/// the two artifacts cover the same circuit set.
pub fn certify_rows(device: &CouplingMap, device_spec: &str, seed: u64) -> Vec<CertifyRow> {
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(device, seed).into_iter().map(str::to_string).collect();
    let mut rows = Vec::new();
    for bench in qasmbench::benchmark_suite() {
        if bench.circuit.num_qubits() > device.num_qubits() {
            continue;
        }
        let start = Instant::now();
        let Ok(result) = baseline_transpile(&bench.circuit, device, seed) else {
            continue;
        };
        let compile_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let cert = certify_compilation(
            &bench.name,
            device_spec,
            seed,
            &bench.circuit,
            &result,
            &pipeline,
            BackendSelection::Default,
        );
        let certify_seconds = start.elapsed().as_secs_f64();
        rows.push(CertifyRow {
            name: bench.name,
            qubits: bench.circuit.num_qubits(),
            gates: bench.circuit.size(),
            wires: cert.evidence.len(),
            proved: cert.verdict.is_proved(),
            cache_key: cert.cache_key().to_hex(),
            compile_seconds,
            certify_seconds,
        });
    }
    rows
}

/// The canonical certify-overhead artifact (`BENCH_certify_overhead.json`).
///
/// Certificate shapes, verdicts, and cache keys are deterministic for a
/// fixed device and seed; the per-row timing columns (and the derived
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
                members.push(("compile_seconds", Value::Float(row.compile_seconds)));
                members.push(("certify_seconds", Value::Float(row.certify_seconds)));
                members.push(("overhead", Value::Float(row.overhead())));
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

/// Renders the certify-overhead measurement as a text table.
pub fn certify_text(rows: &[CertifyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>7} {:>7} {:>7} {:>14} {:>14} {:>10}\n",
        "circuit", "qubits", "gates", "wires", "compile (s)", "certify (s)", "overhead"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>7} {:>7} {:>7} {:>14.4} {:>14.4} {:>9.1}x\n",
            row.name,
            row.qubits,
            row.gates,
            row.wires,
            row.compile_seconds,
            row.certify_seconds,
            row.overhead()
        ));
    }
    out
}

/// One row of the equivalence-checking ablation: symbolic rewriting versus
/// the dense matrix semantics as the register grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Number of qubits.
    pub qubits: usize,
    /// Number of gates in the compared circuits.
    pub gates: usize,
    /// Time for the symbolic (Giallar) equivalence check, in seconds.
    pub symbolic_seconds: f64,
    /// Time for the dense matrix check, in seconds (`None` beyond the dense
    /// limit).
    pub matrix_seconds: Option<f64>,
}

/// Builds a pair of equivalent circuits (a CX-cancellation instance spread
/// over `n` qubits) and measures both equivalence-checking approaches.
pub fn ablation_rows(max_qubits: usize) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for n in (2..=max_qubits).step_by(2) {
        let mut lhs = Circuit::new(n);
        let mut rhs = Circuit::new(n);
        for q in 0..n - 1 {
            lhs.cx(q, q + 1).cx(q, q + 1);
            lhs.h(q);
            rhs.h(q);
        }
        let start = Instant::now();
        let verdict =
            check_equivalence(&SymCircuit::from_circuit(&lhs), &SymCircuit::from_circuit(&rhs));
        let symbolic_seconds = start.elapsed().as_secs_f64();
        assert!(verdict.is_proved(), "ablation circuits must be equivalent");
        let matrix_seconds = if n <= 8 {
            let start = Instant::now();
            let equal = circuits_equivalent(&lhs, &rhs).unwrap_or(false);
            let t = start.elapsed().as_secs_f64();
            assert!(equal);
            Some(t)
        } else {
            None
        };
        rows.push(AblationRow { qubits: n, gates: lhs.size(), symbolic_seconds, matrix_seconds });
    }
    rows
}

/// Renders the ablation as a text table.
pub fn ablation_text(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>7} {:>7} {:>16} {:>16}\n",
        "qubits", "gates", "symbolic (s)", "matrix (s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>7} {:>7} {:>16.6} {:>16}\n",
            row.qubits,
            row.gates,
            row.symbolic_seconds,
            row.matrix_seconds.map_or("n/a".to_string(), |t| format!("{t:.6}")),
        ));
    }
    out
}

/// One row of the solver microbenchmark (`BENCH_solver_microbench.json`).
///
/// `name`, `items`, and `checksum` are deterministic — they describe the
/// workload and a verdict-sensitive result count, so the committed artifact
/// catches semantic drift in the solver hot path.  The timing columns are
/// machine-dependent and only emitted with `include_timings`; where the
/// workload has a naive reference implementation (the pre-optimization
/// algorithm kept as an executable specification), `reference_seconds` and
/// the speedup of the compiled path over it are reported.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrobenchRow {
    /// Workload name.
    pub name: String,
    /// Work items processed per iteration (terms normalised, queries
    /// checked, passes verified).
    pub items: usize,
    /// Deterministic result checksum (e.g. proved queries, changed normal
    /// forms, total subgoals) — identical across machines and runs.
    pub checksum: usize,
    /// Best per-iteration wall clock of the optimized hot path, in seconds.
    pub optimized_seconds: f64,
    /// Best per-iteration wall clock of the naive reference path, when the
    /// workload has one.
    pub reference_seconds: Option<f64>,
}

impl MicrobenchRow {
    /// Speedup of the optimized path over the reference (`None` when the
    /// workload has no reference implementation).
    pub fn speedup(&self) -> Option<f64> {
        self.reference_seconds.map(|r| {
            if self.optimized_seconds > 0.0 {
                r / self.optimized_seconds
            } else {
                1.0
            }
        })
    }
}

/// Times `routine` for `iters` iterations and returns the best
/// per-iteration wall clock in seconds.
fn best_of<F: FnMut() -> usize>(iters: usize, expected_checksum: usize, mut routine: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let checksum = routine();
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(checksum, expected_checksum, "microbench workload drifted mid-run");
    }
    best
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

/// Runs the solver microbenchmarks, keeping the best of `iters` iterations
/// per workload.
///
/// Workloads:
///
/// * `normalize/wire_terms` — normalise every output wire of the workload
///   circuit: the compiled, head-indexed rewriter (fresh per iteration, so
///   rule-compilation cost is included and the persistent memo starts cold)
///   versus [`reference_normalize`], the original string-compared linear
///   scan over the whole rule library.
/// * `check/assumption_queries` — a registry-shaped `assume`/`check`
///   session: one incremental context answering every query versus the
///   pre-optimization shape of building a fresh context (rule installation,
///   assumption re-assertion, congruence rebuild) per query.
/// * `verify/obligation_generation` — generating (not discharging) the
///   proof obligations of all 44 registry passes: the non-solver part of a
///   cold verification, reported so the artifact shows the cold-verify
///   breakdown.
/// * `verify/registry_cold` — the full sequential cold verification of the
///   44-pass registry (obligation generation + solver discharge), timed
///   under both backend routings: the default compiled rewriter
///   (`optimized_seconds`) and the naive reference normalizer
///   (`reference_seconds`) — the backend head-to-head, with the reference
///   leg cross-checked against the default reports.
pub fn solver_microbench_rows(iters: usize) -> Vec<MicrobenchRow> {
    let mut rows = Vec::new();
    let library: Vec<smtlite::RewriteRule> =
        circuit_rewrite_rules().into_iter().map(|c| c.rule).collect();

    // --- normalize/wire_terms -------------------------------------------
    let (mut executor, wires) = microbench_wire_terms();
    let arena = executor.context_mut().arena_mut();
    let changed = {
        let mut rewriter = Rewriter::new();
        for rule in &library {
            rewriter.add_rule(arena, rule.clone());
        }
        wires.iter().filter(|&&w| rewriter.normalize(arena, w) != w).count()
    };
    let optimized = best_of(iters, changed, || {
        let mut rewriter = Rewriter::new();
        for rule in &library {
            rewriter.add_rule(arena, rule.clone());
        }
        wires.iter().filter(|&&w| rewriter.normalize(arena, w) != w).count()
    });
    let reference = best_of(iters, changed, || {
        wires.iter().filter(|&&w| reference_normalize(arena, &library, w) != w).count()
    });
    rows.push(MicrobenchRow {
        name: "normalize/wire_terms".to_string(),
        items: wires.len(),
        checksum: changed,
        optimized_seconds: optimized,
        reference_seconds: Some(reference),
    });

    // --- check/assumption_queries ---------------------------------------
    let pairs = 24usize;
    let queries = 48usize;
    let run_incremental = || {
        let mut ctx = Context::new();
        for rule in &library {
            ctx.add_rule(rule.clone());
        }
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        for i in 0..pairs {
            let a = ctx.arena_mut().symbol(&format!("a{i}"));
            let b = ctx.arena_mut().symbol(&format!("b{i}"));
            ctx.assume_eq(a, b);
            lhs.push(a);
            rhs.push(b);
        }
        let mut proved = 0;
        for i in 0..queries {
            let (x, y) = (lhs[i % pairs], lhs[(i + 1) % pairs]);
            let (u, v) = (rhs[i % pairs], rhs[(i + 1) % pairs]);
            let fa = ctx.arena_mut().app("f", vec![x, y]);
            let fb = ctx.arena_mut().app("f", vec![u, v]);
            if ctx.check_eq(fa, fb).is_proved() {
                proved += 1;
            }
        }
        proved
    };
    let run_per_query = || {
        let mut proved = 0;
        for i in 0..queries {
            // The pre-optimization cost shape: every query pays rule
            // installation, assumption re-assertion, and a congruence
            // rebuild from scratch.
            let mut ctx = Context::new();
            for rule in &library {
                ctx.add_rule(rule.clone());
            }
            let mut lhs = Vec::new();
            let mut rhs = Vec::new();
            for j in 0..pairs {
                let a = ctx.arena_mut().symbol(&format!("a{j}"));
                let b = ctx.arena_mut().symbol(&format!("b{j}"));
                ctx.assume_eq(a, b);
                lhs.push(a);
                rhs.push(b);
            }
            let (x, y) = (lhs[i % pairs], lhs[(i + 1) % pairs]);
            let (u, v) = (rhs[i % pairs], rhs[(i + 1) % pairs]);
            let fa = ctx.arena_mut().app("f", vec![x, y]);
            let fb = ctx.arena_mut().app("f", vec![u, v]);
            if ctx.check_eq(fa, fb).is_proved() {
                proved += 1;
            }
        }
        proved
    };
    let optimized = best_of(iters, queries, run_incremental);
    let reference = best_of(iters, queries, run_per_query);
    rows.push(MicrobenchRow {
        name: "check/assumption_queries".to_string(),
        items: queries,
        checksum: queries,
        optimized_seconds: optimized,
        reference_seconds: Some(reference),
    });

    // --- verify/obligation_generation -----------------------------------
    let passes = giallar_core::registry::verified_passes();
    let total_subgoals: usize = passes.iter().map(|p| (p.obligations)().len()).sum();
    let generation =
        best_of(iters, total_subgoals, || passes.iter().map(|p| (p.obligations)().len()).sum());
    rows.push(MicrobenchRow {
        name: "verify/obligation_generation".to_string(),
        items: passes.len(),
        checksum: total_subgoals,
        optimized_seconds: generation,
        reference_seconds: None,
    });

    // --- verify/registry_cold -------------------------------------------
    // The optimized column is the default backend routing; the reference
    // column discharges the same registry through the reference backend
    // (naive normalizer), cross-checking that the verdicts agree — the
    // backend seam's differential guarantee, timed.
    let baseline = verify_all_passes();
    let cold = best_of(iters, total_subgoals, || {
        let reports = verify_all_passes();
        assert!(reports.iter().all(|r| r.verified));
        reports.iter().map(|r| r.subgoals).sum()
    });
    let reference = best_of(iters, total_subgoals, || {
        let reports = table2_reports_with(BackendSelection::Reference);
        assert!(
            reports_agree(&baseline, &reports),
            "reference backend disagreed with the default routing"
        );
        reports.iter().map(|r| r.subgoals).sum()
    });
    rows.push(MicrobenchRow {
        name: "verify/registry_cold".to_string(),
        items: passes.len(),
        checksum: total_subgoals,
        optimized_seconds: cold,
        reference_seconds: Some(reference),
    });

    rows
}

/// The canonical solver-microbench artifact (`BENCH_solver_microbench.json`).
///
/// Workload names, item counts, rule-library size, and checksums are
/// deterministic; timing columns appear only with `include_timings`, so the
/// structural (non-timing) content is byte-stable across machines and is
/// what the CI drift gate compares.
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
                members.push(("optimized_seconds", Value::Float(row.optimized_seconds)));
                if let Some(reference) = row.reference_seconds {
                    members.push(("reference_seconds", Value::Float(reference)));
                }
                if let Some(speedup) = row.speedup() {
                    members.push(("speedup", Value::Float(speedup)));
                }
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

/// Renders the solver microbenchmarks as a text table.
pub fn solver_microbench_text(rows: &[MicrobenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:>7} {:>9} {:>16} {:>16} {:>9}\n",
        "workload", "items", "checksum", "optimized (s)", "reference (s)", "speedup"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<30} {:>7} {:>9} {:>16.6} {:>16} {:>9}\n",
            row.name,
            row.items,
            row.checksum,
            row.optimized_seconds,
            row.reference_seconds.map_or("n/a".to_string(), |t| format!("{t:.6}")),
            row.speedup().map_or("n/a".to_string(), |s| format!("{s:.1}x")),
        ));
    }
    out
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

    #[test]
    fn table2_has_44_verified_rows() {
        let reports = table2_reports();
        assert_eq!(reports.len(), 44);
        assert!(reports.iter().all(|r| r.verified));
        let text = table2_text();
        assert!(text.contains("CXCancellation"));
    }

    #[test]
    fn speedup_measurement_is_consistent() {
        let speedup = measure_verification_speedup(1);
        assert_eq!(speedup.passes, 44);
        assert!(speedup.sequential_seconds > 0.0);
        assert!(speedup.parallel_seconds > 0.0);
        let json = speedup.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"passes\": 44"));
    }

    #[test]
    fn table2_artifact_is_deterministic_and_parses() {
        let reports = table2_reports();
        let first = table2_artifact_json(&reports, None);
        let second = table2_artifact_json(&table2_reports(), None);
        assert_eq!(first, second, "artifact must be byte-stable without timings");
        let doc = giallar_core::json::parse(&first).unwrap();
        assert_eq!(doc.get("passes").and_then(Value::as_int), Some(44));
        assert_eq!(doc.get("verified").and_then(Value::as_int), Some(44));
        assert_eq!(doc.get("reports").and_then(Value::as_array).map(<[Value]>::len), Some(44));
        assert!(!first.contains("timing"));
        // With a measurement attached the timing section appears.
        let speedup = measure_verification_speedup(1);
        let timed = table2_artifact_json(&reports, Some(&speedup));
        let doc = giallar_core::json::parse(&timed).unwrap();
        assert!(doc.get("timing").is_some());
    }

    #[test]
    fn figure11_artifact_is_deterministic_and_parses() {
        let device = CouplingMap::grid(2, 3);
        let rows = figure11_rows(&device, 5);
        let first = figure11_artifact_json("grid:2x3", 5, &rows, false);
        let second = figure11_artifact_json("grid:2x3", 5, &figure11_rows(&device, 5), false);
        assert_eq!(first, second, "artifact must be byte-stable without timings");
        let doc = giallar_core::json::parse(&first).unwrap();
        assert_eq!(doc.get("device").and_then(Value::as_str), Some("grid:2x3"));
        assert!(!first.contains("qiskit_seconds"));
        let timed = figure11_artifact_json("grid:2x3", 5, &rows, true);
        assert!(timed.contains("qiskit_seconds"));
    }

    #[test]
    fn figure11_runs_on_a_small_device() {
        let device = CouplingMap::grid(2, 3);
        let rows = figure11_rows(&device, 5);
        assert!(!rows.is_empty());
        let text = figure11_text(&rows);
        assert!(text.contains("overhead"));
    }

    #[test]
    fn certify_artifact_is_deterministic_and_every_row_proves() {
        let device = CouplingMap::grid(2, 3);
        let rows = certify_rows(&device, "grid:2x3", 5);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.proved), "every compiled circuit must certify");
        assert!(rows.iter().all(|r| r.wires == device.num_qubits()));
        let first = certify_artifact_json("grid:2x3", 5, &rows, false);
        let second =
            certify_artifact_json("grid:2x3", 5, &certify_rows(&device, "grid:2x3", 5), false);
        assert_eq!(first, second, "structural content must be byte-stable without timings");
        assert!(!first.contains("_seconds"));
        let doc = giallar_core::json::parse(&first).unwrap();
        assert_eq!(doc.get("circuits").and_then(Value::as_int), Some(rows.len() as i64));
        let timed = certify_artifact_json("grid:2x3", 5, &rows, true);
        assert!(timed.contains("certify_seconds") && timed.contains("overhead"));
        let timed = giallar_core::json::parse(&timed).unwrap();
        assert_eq!(strip_timing(&timed), strip_timing(&doc));
        assert!(certify_text(&rows).contains("overhead"));
    }

    #[test]
    fn solver_microbench_artifact_is_deterministic_and_parses() {
        let rows = solver_microbench_rows(1);
        assert_eq!(rows.len(), 4);
        let first = solver_microbench_artifact_json(&rows, false);
        let second = solver_microbench_artifact_json(&solver_microbench_rows(1), false);
        assert_eq!(first, second, "structural content must be byte-stable without timings");
        assert!(!first.contains("_seconds"));
        let doc = giallar_core::json::parse(&first).unwrap();
        assert_eq!(doc.get("workloads").and_then(Value::as_int), Some(4));
        assert_eq!(
            doc.get("rule_library_fingerprint").and_then(Value::as_str),
            Some(qc_symbolic::rule_library_fingerprint().to_hex().as_str())
        );
        // With timings the speedup columns appear for referenced workloads.
        let timed = solver_microbench_artifact_json(&rows, true);
        assert!(timed.contains("optimized_seconds"));
        assert!(timed.contains("reference_seconds"));
        assert!(timed.contains("speedup"));
        // The referenced workloads (normalize, check, and the backend
        // head-to-head registry verify) report a speedup column; the actual
        // perf comparison lives in the criterion bench (a single debug-mode
        // iteration here would make wall-clock assertions flaky).
        assert_eq!(rows.iter().filter(|r| r.speedup().is_some()).count(), 3);
        assert!(solver_microbench_text(&rows).contains("normalize/wire_terms"));
    }

    #[test]
    fn strip_timing_removes_only_machine_dependent_fields() {
        let rows = solver_microbench_rows(1);
        let timed =
            giallar_core::json::parse(&solver_microbench_artifact_json(&rows, true)).unwrap();
        let bare =
            giallar_core::json::parse(&solver_microbench_artifact_json(&rows, false)).unwrap();
        assert_ne!(timed, bare);
        assert_eq!(strip_timing(&timed), strip_timing(&bare));
        assert_eq!(strip_timing(&bare), bare, "deterministic artifacts pass through unchanged");
        // The same holds for the Table 2 artifact with a timing section.
        let reports = table2_reports();
        let speedup = measure_verification_speedup(1);
        let timed =
            giallar_core::json::parse(&table2_artifact_json(&reports, Some(&speedup))).unwrap();
        let bare = giallar_core::json::parse(&table2_artifact_json(&reports, None)).unwrap();
        assert_eq!(strip_timing(&timed), strip_timing(&bare));
        // Structural drift stays visible through the filter.
        let other = table2_artifact_json(&reports[..43], None);
        let other = giallar_core::json::parse(&other).unwrap();
        assert_ne!(strip_timing(&other), strip_timing(&bare));
    }

    #[test]
    fn ablation_scales_without_panicking() {
        let rows = ablation_rows(6);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.matrix_seconds.is_some()));
        assert!(ablation_text(&rows).contains("symbolic"));
    }
}

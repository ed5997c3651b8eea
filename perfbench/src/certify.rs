//! `certify-roundtrip`: `giallar compile --verified --certify` followed by
//! `giallar check-cert`, in process.
//!
//! Each op compiles a drawn suite circuit with a drawn routing seed through
//! the baseline and the wrapped (verified) pipelines, certifies the result,
//! writes the certificate as pretty JSON, parses and decodes it back, and
//! checks it.  Every tenth op alters one evidence entry first, and the
//! check must refuse it.

use std::time::Instant;

use giallar_core::backend::{BackendRegistry, BackendSelection};
use giallar_core::certificate::{certify_compilation, check_certificate, EquivalenceCertificate};
use giallar_core::obligation::Goal;
use giallar_core::registry::{verified_passes, VerifiedPass};
use giallar_core::verifier::verify_pass_with;
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names, giallar_transpile};
use qasmbench::Benchmark;
use qc_ir::{Circuit, CouplingMap};
use qc_symbolic::SymCircuit;
use smtlite::Fingerprint;

use crate::common::{mean, Clock, OpSample, Outcome, Rng, RunConfig};
use crate::trace::{durations_by_op, self_ms_by_name, Tracer};

pub const DEVICE: &str = "falcon27";
const SELECTION: BackendSelection = BackendSelection::Default;
/// Every `ALTER_EVERY`-th op carries an altered evidence entry.
const ALTER_EVERY: u64 = 10;
/// The routing seeds each circuit compiles with.  A round is every (pool
/// circuit, routing seed) pair once, in seeded order, so every run does the
/// same work: a heavy circuit's check cost moves by tens of percent with
/// the routing seed, and free draws made run-to-run spread exceed 10 %.
/// Three seeds make a round of 99 ops, enough for a p90 per round.
const ROUTING_SEEDS: [u64; 3] = [1, 2, 3];
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 25;

/// Suite circuits left out of the pool, and why.  A later change that makes
/// the parse linear can add them back in its own benchmark change.
const EXCLUDED: [&str; 3] = ["qft_27", "ising_26_20", "dnn_24_16"];
const EXCLUDED_WHY: &str = "0.7-1.0 MB certificate: json::parse is quadratic in document size, \
                            so one check-cert takes seconds and a single op would fill a run";

struct Pool {
    device: CouplingMap,
    circuits: Vec<Benchmark>,
    registry: Vec<VerifiedPass>,
}

/// The suite circuits that fit the device, minus the excluded ones.
fn set_up() -> Pool {
    let device = CouplingMap::from_spec(DEVICE).expect("falcon27 is a known device");
    let circuits: Vec<Benchmark> = qasmbench::benchmark_suite()
        .into_iter()
        .filter(|b| b.circuit.num_qubits() <= device.num_qubits())
        .filter(|b| !EXCLUDED.contains(&b.name.as_str()))
        .collect();
    let pool = Pool { device, circuits, registry: verified_passes() };
    // One untimed op on the smallest circuit finishes lazy set-up (the
    // compiled rule library, the pass registry) before the clock starts.
    let bell = pool.circuits.iter().find(|b| b.name == "bell").expect("bell is in the suite");
    let mut tracer = Tracer::new(Instant::now());
    let probe = round_trip(&pool, bell, 0, false, &mut tracer);
    assert!(probe.ok, "the set-up op must certify and check");
    pool
}

/// The result of one op, beyond its latency.
struct Trip {
    ok: bool,
    output_2q: usize,
    cert_bytes: usize,
    baseline: qc_passes::pass::TranspileResult,
    pipeline: Vec<String>,
    refused: bool,
}

/// One op: compile twice, certify, emit, parse, decode, (alter,) check.
fn round_trip(pool: &Pool, bench: &Benchmark, seed: u64, alter: bool, tracer: &mut Tracer) -> Trip {
    let device = &pool.device;
    let baseline = tracer
        .time("passes.baseline", || baseline_transpile(&bench.circuit, device, seed))
        .expect("the baseline pipeline compiles every pool circuit");
    let wrapped =
        tracer.time("wrapper.transpile", || giallar_transpile(&bench.circuit, device, seed));
    let identical = wrapped.is_ok_and(|w| w.circuit == baseline.circuit);
    tracer.enter("certificate.emit");
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(device, seed).into_iter().map(str::to_string).collect();
    let cert = certify_compilation(
        &bench.name,
        DEVICE,
        seed,
        &bench.circuit,
        &baseline,
        &pipeline,
        SELECTION,
    );
    tracer.exit();
    let text = tracer.time("json.emit", || cert.to_json().to_pretty());
    let parsed = tracer.time("json.parse", || giallar_core::json::parse(&text));
    let decoded = tracer.time("certificate.decode", || {
        parsed.and_then(|value| EquivalenceCertificate::from_json(&value))
    });
    let Ok(mut decoded) = decoded else {
        return Trip {
            ok: false,
            output_2q: 0,
            cert_bytes: text.len(),
            baseline,
            pipeline,
            refused: false,
        };
    };
    let round_tripped = decoded == cert;
    let altered_wire = if alter && !decoded.evidence.is_empty() {
        let wire = (seed as usize) % decoded.evidence.len();
        let evidence = &mut decoded.evidence[wire];
        evidence.lhs_normal = Fingerprint(evidence.lhs_normal.0 ^ 1);
        Some(wire)
    } else {
        None
    };
    let checked = tracer.time("certificate.check", || check_certificate(&decoded));
    // An altered entry must be refused by the evidence comparison, which
    // runs after the replay and the discharge.
    let answer_ok = match (altered_wire, &checked) {
        (None, Ok(())) => true,
        (Some(wire), Err(reason)) => {
            reason.starts_with(&format!("wire {wire} evidence does not match a fresh discharge"))
        }
        _ => false,
    };
    Trip {
        ok: identical && round_tripped && cert.verdict.is_proved() && answer_ok,
        output_2q: baseline.circuit.two_qubit_gate_count(),
        cert_bytes: text.len(),
        baseline,
        pipeline,
        refused: checked.is_err(),
    }
}

/// Re-executes the stages inside `certify_compilation` and
/// `check_certificate` that a single call hides, as shadow spans.
fn shadow_stages(pool: &Pool, input: &Circuit, seed: u64, trip: &Trip, tracer: &mut Tracer) {
    let (input_sym, output_sym) = tracer.time("symbolic.from_circuit", || {
        (SymCircuit::from_circuit(input), SymCircuit::from_circuit(&trip.baseline.circuit))
    });
    std::hint::black_box(&input_sym);
    tracer.time("certificate.schedule_verify", || {
        for name in &trip.pipeline {
            let pass = pool.registry.iter().find(|p| p.name == name.as_str());
            let report = verify_pass_with(pass.expect("pipeline passes are registered"), SELECTION);
            assert!(report.verified, "{name} must verify");
        }
    });
    let replayed = tracer
        .time("certificate.replay", || baseline_transpile(input, &pool.device, seed))
        .expect("the replay compiles");
    tracer.time("certificate.evidence", || {
        let width = replayed.circuit.num_qubits().max(input.num_qubits());
        let goal =
            Goal::Equivalence { lhs: output_sym, rhs: SymCircuit::from_circuit(&replayed.circuit) };
        let mut registry = BackendRegistry::new(SELECTION);
        registry.prewarm(width);
        std::hint::black_box(registry.discharge_with_evidence(&goal));
    });
}

pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome { clients: 1, ..Outcome::default() };
    let pool = outcome.set_ups(SETUPS, set_up);
    outcome.pool = pool.circuits.iter().map(|b| b.name.clone()).collect();
    outcome.excluded = EXCLUDED.map(|name| (name.to_string(), EXCLUDED_WHY.to_string())).to_vec();

    let mut rng = Rng::new(config.seed, "certify-roundtrip");
    let mut tracer = Tracer::new(Instant::now());
    let mut traced_ops = 0usize;
    let mut refused = 0usize;
    let mut cert_bytes = Vec::new();
    let mut clock = Clock::start();
    let mut op_id = 0u64;
    let mut round_index = 0;
    while clock.elapsed_s() < config.seconds {
        let traced = config.traces_round(round_index);
        round_index += 1;
        tracer.set_enabled(traced);
        let mut order: Vec<usize> = (0..pool.circuits.len() * ROUTING_SEEDS.len()).collect();
        rng.shuffle(&mut order);
        for input in order {
            op_id += 1;
            let bench = &pool.circuits[input / ROUTING_SEEDS.len()];
            let seed = ROUTING_SEEDS[input % ROUTING_SEEDS.len()];
            let alter = op_id.is_multiple_of(ALTER_EVERY);
            // The self-test expects the opposite verdict on every op.
            let expect_refused = alter != config.wrong_answer;
            let op_start = Instant::now();
            tracer.begin_op(op_id, "certify.op");
            let trip = round_trip(&pool, bench, seed, alter, &mut tracer);
            tracer.exit();
            let latency_ms = crate::common::ms_since(op_start);
            let ok = trip.ok && trip.refused == expect_refused;
            let done_s = clock.elapsed_s();
            outcome.ops.push(OpSample { latency_ms, ok, traced, done_s, input: Some(input) });
            outcome.output_2q.push(trip.output_2q as f64);
            if traced {
                traced_ops += 1;
                refused += usize::from(trip.refused);
                cert_bytes.push(trip.cert_bytes as f64);
                tracer.begin_shadow(op_id, "certify.shadow");
                shadow_stages(&pool, &bench.circuit, seed, &trip, &mut tracer);
                tracer.exit();
            }
        }
        clock.mark();
    }
    tracer.set_enabled(false);
    outcome.marks = clock.into_marks();
    outcome.spans = tracer.into_spans();
    if config.trace {
        layers(&mut outcome, traced_ops, refused, &cert_bytes);
    }
    outcome
}

fn layers(outcome: &mut Outcome, traced_ops: usize, refused: usize, cert_bytes: &[f64]) {
    let ops = traced_ops.max(1) as f64;
    let self_ms = self_ms_by_name(&outcome.spans);
    let total = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    for (name, metric) in [
        ("passes.baseline", "passes.baseline_ms"),
        ("wrapper.transpile", "wrapper.transpile_ms"),
        ("symbolic.from_circuit", "symbolic.from_circuit_ms"),
        ("certificate.emit", "certificate.emit_ms"),
        ("certificate.schedule_verify", "certificate.schedule_verify_ms"),
        ("certificate.evidence", "certificate.evidence_ms"),
        ("certificate.replay", "certificate.replay_ms"),
        ("json.emit", "json.emit_ms"),
        ("json.parse", "json.parse_ms"),
        ("certificate.decode", "certificate.decode_ms"),
        ("certificate.check", "certificate.check_ms"),
    ] {
        outcome.layer(metric, total(name) / ops, "ms");
    }
    // Geometric mean of the per-op wrapped/baseline compile-time ratio.
    let log_ratios: Vec<f64> = durations_by_op(&outcome.spans)
        .values()
        .filter_map(|names| {
            let (wrapped, baseline) =
                (names.get("wrapper.transpile")?, names.get("passes.baseline")?);
            (*baseline > 0.0).then(|| (wrapped / baseline).ln())
        })
        .collect();
    outcome.layer("wrapper.overhead_ratio", mean(&log_ratios).exp(), "ratio");
    let parse_s = total("json.parse") / 1e3;
    let parsed_mb = cert_bytes.iter().sum::<f64>() / 1e6;
    outcome.layer(
        "json.parse_mb_per_s",
        if parse_s > 0.0 { parsed_mb / parse_s } else { 0.0 },
        "MB/s",
    );
    outcome.layer("json.cert_kb", mean(cert_bytes) / 1e3, "KB");
    outcome.layer("certificate.refused", refused as f64, "count");
}

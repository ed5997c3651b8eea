//! The three largest suite certificates (0.12–0.18 MB each as
//! `giallar-cert/v2`, 0.7–1.0 MB as v1) through the full
//! `compile --certify` / `check-cert` round trip: emit, pretty-print,
//! parse, decode and check.  The honest certificate is accepted; with one
//! evidence entry altered, it is refused at the evidence comparison.

use giallar::bench_circuits::benchmark_suite;
use giallar::core::backend::BackendSelection;
use giallar::core::certificate::{certify_compilation, check_certificate, EquivalenceCertificate};
use giallar::core::json;
use giallar::core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar::ir::CouplingMap;
use giallar::smt::Fingerprint;

const DEVICE: &str = "falcon27";
const SEED: u64 = 7;

fn round_trip(name: &str) {
    let bench = benchmark_suite().into_iter().find(|b| b.name == name).unwrap();
    let device = CouplingMap::from_spec(DEVICE).unwrap();
    let result = baseline_transpile(&bench.circuit, &device, SEED).unwrap();
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, SEED).into_iter().map(str::to_string).collect();
    let cert = certify_compilation(
        name,
        DEVICE,
        SEED,
        &bench.circuit,
        &result,
        &pipeline,
        BackendSelection::Default,
    );
    assert!(cert.verdict.is_proved(), "{name}: {:?}", cert.verdict);
    let text = cert.to_json().to_pretty();
    assert!(text.len() > 100_000, "{name} certificate is only {} bytes", text.len());
    let mut decoded = EquivalenceCertificate::from_json(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(decoded, cert);
    check_certificate(&decoded).unwrap_or_else(|error| panic!("{name} refused: {error}"));

    let wire = decoded.evidence.len() / 2;
    decoded.evidence[wire].lhs_normal = Fingerprint(decoded.evidence[wire].lhs_normal.0 ^ 1);
    let error = check_certificate(&decoded).unwrap_err();
    assert!(
        error.starts_with(&format!("wire {wire} evidence does not match a fresh discharge")),
        "{name}: {error}"
    );
}

#[test]
fn ising_26_20_round_trips_and_checks() {
    round_trip("ising_26_20");
}

#[test]
fn qft_27_round_trips_and_checks() {
    round_trip("qft_27");
}

#[test]
fn dnn_24_16_round_trips_and_checks() {
    round_trip("dnn_24_16");
}

//! Certificates pinned across versions.
//!
//! `tests/data/` holds two `giallar compile ghz_8 --seed 7 --certify`
//! outputs, one per backend selection, as an earlier binary wrote them.  The
//! evidence fingerprints inside are what a certificate's reader compares a
//! fresh discharge against, so a change to how terms are fingerprinted
//! would silently invalidate every certificate already written.  This test
//! holds the current code to those bytes: each file still checks, and
//! re-certifying the same compilation reproduces it byte for byte.

use giallar::bench_circuits::benchmark;
use giallar::core::backend::BackendSelection;
use giallar::core::certificate::{certify_compilation, check_certificate, EquivalenceCertificate};
use giallar::core::json;
use giallar::core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar::ir::CouplingMap;

const CIRCUIT: &str = "ghz_8";
const DEVICE: &str = "falcon27";
const SEED: u64 = 7;

fn golden(selection: BackendSelection) -> String {
    let path = format!(
        "{}/tests/data/{CIRCUIT}_seed{SEED}_{selection}.cert.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|error| panic!("reading {path}: {error}"))
}

#[test]
fn golden_certificates_still_check() {
    for selection in BackendSelection::ALL {
        let text = golden(selection);
        let cert = EquivalenceCertificate::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(cert.selection, selection);
        assert_eq!(cert.evidence.len(), cert.register_width);
        check_certificate(&cert).unwrap_or_else(|error| panic!("{selection}: {error}"));
    }
}

#[test]
fn certify_reproduces_the_golden_certificates_byte_for_byte() {
    let bench = benchmark(CIRCUIT).unwrap();
    let device = CouplingMap::from_spec(DEVICE).unwrap();
    let result = baseline_transpile(&bench.circuit, &device, SEED).unwrap();
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, SEED).into_iter().map(str::to_string).collect();
    for selection in BackendSelection::ALL {
        let cert = certify_compilation(
            CIRCUIT,
            DEVICE,
            SEED,
            &bench.circuit,
            &result,
            &pipeline,
            selection,
        );
        assert!(
            cert.to_json().to_pretty() == golden(selection),
            "{selection}: certify no longer reproduces tests/data/{CIRCUIT}_seed{SEED}_{selection}.cert.json"
        );
    }
}

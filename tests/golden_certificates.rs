//! Certificates pinned across versions.
//!
//! `tests/data/` holds `giallar compile ghz_8 --seed 7 --certify` outputs,
//! one per backend selection, in both certificate formats: the
//! `giallar-cert/v1` files an earlier binary wrote
//! (`ghz_8_seed7_<selection>.cert.json`) and their `giallar-cert/v2` twins
//! (`ghz_8_seed7_<selection>.v2.cert.json`).  The evidence fingerprints
//! inside are what a certificate's reader compares a fresh discharge
//! against, so a change to how terms are fingerprinted would silently
//! invalidate every certificate already written.  This test holds the
//! current code to those files: each one still checks, re-certifying the
//! same compilation reproduces the v2 file byte for byte, and decodes equal
//! to the v1 file.

use giallar::bench_circuits::benchmark;
use giallar::core::backend::BackendSelection;
use giallar::core::certificate::{
    certify_compilation, check_certificate, EquivalenceCertificate, CERT_SCHEMA, CERT_SCHEMA_V1,
};
use giallar::core::json;
use giallar::core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar::ir::CouplingMap;
use support::cert_v1::v1_document;

mod support;

const CIRCUIT: &str = "ghz_8";
const DEVICE: &str = "falcon27";
const SEED: u64 = 7;

/// The golden file of `selection` in the format `version` names (`""` for
/// v1, `".v2"` for v2).
fn golden(selection: BackendSelection, version: &str) -> String {
    let path = format!(
        "{}/tests/data/{CIRCUIT}_seed{SEED}_{selection}{version}.cert.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|error| panic!("reading {path}: {error}"))
}

fn decode(text: &str) -> EquivalenceCertificate {
    EquivalenceCertificate::from_json(&json::parse(text).unwrap()).unwrap()
}

/// Re-certifies the pinned compilation under `selection`.
fn recertify(selection: BackendSelection) -> EquivalenceCertificate {
    let bench = benchmark(CIRCUIT).unwrap();
    let device = CouplingMap::from_spec(DEVICE).unwrap();
    let result = baseline_transpile(&bench.circuit, &device, SEED).unwrap();
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, SEED).into_iter().map(str::to_string).collect();
    certify_compilation(CIRCUIT, DEVICE, SEED, &bench.circuit, &result, &pipeline, selection)
}

#[test]
fn golden_certificates_still_check() {
    for selection in BackendSelection::ALL {
        for (version, schema) in [("", CERT_SCHEMA_V1), (".v2", CERT_SCHEMA)] {
            let text = golden(selection, version);
            assert!(text.contains(&format!("\"schema\": \"{schema}\"")), "{selection}{version}");
            let cert = decode(&text);
            assert_eq!(cert.selection, selection);
            assert_eq!(cert.evidence.len(), cert.register_width);
            check_certificate(&cert).unwrap_or_else(|error| panic!("{selection}: {error}"));
        }
    }
}

#[test]
fn certify_reproduces_the_golden_certificates_byte_for_byte() {
    for selection in BackendSelection::ALL {
        assert!(
            recertify(selection).to_json().to_pretty() == golden(selection, ".v2"),
            "{selection}: certify no longer reproduces \
             tests/data/{CIRCUIT}_seed{SEED}_{selection}.v2.cert.json"
        );
    }
}

#[test]
fn recertification_decodes_equal_to_the_v1_goldens() {
    for selection in BackendSelection::ALL {
        assert!(
            recertify(selection) == decode(&golden(selection, "")),
            "{selection}: certify no longer reproduces \
             tests/data/{CIRCUIT}_seed{SEED}_{selection}.cert.json"
        );
    }
}

/// The reference v1 encoder other tests build `giallar-cert/v1` documents
/// with writes the v1 goldens byte for byte.
#[test]
fn the_reference_v1_encoder_writes_the_v1_goldens() {
    for selection in BackendSelection::ALL {
        let text = golden(selection, "");
        assert!(
            v1_document(&decode(&text)).to_pretty() == text,
            "{selection}: tests/support/cert_v1.rs no longer writes \
             tests/data/{CIRCUIT}_seed{SEED}_{selection}.cert.json"
        );
    }
}

//! Property tests for equivalence certificates:
//!
//! * the JSON encoding round-trips byte-stably for certificates emitted
//!   over arbitrary generated circuits, on both backend selections;
//! * every freshly emitted certificate passes independent re-validation;
//! * single-field tampering — a flipped fingerprint, a swapped wire map,
//!   evidence stamped with a different rule-library version — is refused
//!   with a message naming the mismatch.

use giallar::core::backend::BackendSelection;
use giallar::core::certificate::{certify_compilation, check_certificate, EquivalenceCertificate};
use giallar::core::json;
use giallar::core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar::ir::{Circuit, CouplingMap, Gate, GateKind};
use giallar::smt::Fingerprint;
use proptest::prelude::*;

/// Strategy: a random unconditioned gate over `n` qubits.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct qubits", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|q| Gate::new(GateKind::H, vec![q])),
        q.clone().prop_map(|q| Gate::new(GateKind::X, vec![q])),
        q.clone().prop_map(|q| Gate::new(GateKind::T, vec![q])),
        (q.clone(), -3.0..3.0f64).prop_map(|(q, a)| Gate::new(GateKind::U1(a), vec![q])),
        q2.clone().prop_map(|(a, b)| Gate::new(GateKind::CX, vec![a, b])),
        q2.prop_map(|(a, b)| Gate::new(GateKind::CZ, vec![a, b])),
    ]
}

/// Strategy: the full certification input — a circuit on `n` qubits, a
/// line device wide enough to hold it, a pipeline seed, and a backend
/// selection.  Gates are generated over the widest register and folded
/// onto `n` wires; two-qubit gates whose operands collide are dropped.
fn certify_input() -> impl Strategy<Value = (Circuit, usize, u64, BackendSelection)> {
    (2..5usize, 0..6u64, 0..2usize, prop::collection::vec(gate_strategy(4), 1..14)).prop_map(
        |(n, seed, which, gates)| {
            let selection =
                if which == 0 { BackendSelection::Default } else { BackendSelection::Reference };
            let mut circuit = Circuit::new(n);
            for mut gate in gates {
                for q in &mut gate.qubits {
                    *q %= n;
                }
                if gate.qubits.len() == 2 && gate.qubits[0] == gate.qubits[1] {
                    continue;
                }
                circuit.push(gate).expect("folded gates stay valid");
            }
            (circuit, n, seed, selection)
        },
    )
}

/// Emits a certificate for `circuit` on a `line:n` device, exactly like
/// `giallar compile --certify` does.
fn emit(
    circuit: &Circuit,
    n: usize,
    seed: u64,
    selection: BackendSelection,
) -> EquivalenceCertificate {
    let spec = format!("line:{n}");
    let device = CouplingMap::from_spec(&spec).expect("line devices parse");
    let result = baseline_transpile(circuit, &device, seed).expect("baseline pipeline succeeds");
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, seed).into_iter().map(str::to_string).collect();
    certify_compilation("generated", &spec, seed, circuit, &result, &pipeline, selection)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encoding a certificate, pretty-printing it (the on-disk form),
    /// parsing it back, and decoding reproduces the certificate exactly —
    /// and re-encoding the decoded certificate reproduces the document
    /// byte for byte, on both the pretty and compact wire forms.
    #[test]
    fn certificate_json_round_trips_byte_stably(
        input in certify_input(),
    ) {
        let (circuit, n, seed, selection) = input;
        let cert = emit(&circuit, n, seed, selection);
        let document = cert.to_json();
        let pretty = document.to_pretty();
        let parsed = json::parse(&pretty).expect("emitted document parses");
        let decoded = EquivalenceCertificate::from_json(&parsed)
            .expect("emitted document decodes");
        prop_assert_eq!(&decoded, &cert);
        prop_assert_eq!(decoded.to_json().to_pretty(), pretty);
        // The compact wire form (what `giallar serve` sends) carries the
        // same member order, so a client writing the received value
        // pretty-printed reproduces the local file byte for byte.
        let wired = json::parse(&document.to_compact()).expect("compact form parses");
        prop_assert_eq!(EquivalenceCertificate::from_json(&wired).expect("wire form decodes"), cert);
        prop_assert_eq!(wired.to_pretty(), pretty);
    }

    /// Every freshly emitted certificate passes independent re-validation:
    /// the checker verifies the schedule, replays the pipeline on the
    /// embedded input, and reproduces the recorded evidence.
    #[test]
    fn fresh_certificates_validate(
        input in certify_input(),
    ) {
        let (circuit, n, seed, selection) = input;
        let cert = emit(&circuit, n, seed, selection);
        prop_assert!(cert.verdict.is_proved(), "baseline pipeline must certify");
        if let Err(error) = check_certificate(&cert) {
            panic!("fresh certificate refused: {error}");
        }
    }

    /// Tampering with the output fingerprint is refused, and the message
    /// names the field and both hashes.
    #[test]
    fn tampered_fingerprint_is_refused(
        input in certify_input(),
        flip in 1..u64::MAX,
    ) {
        let (circuit, n, seed, selection) = input;
        let mut cert = emit(&circuit, n, seed, selection);
        cert.output_fingerprint = Fingerprint(cert.output_fingerprint.0 ^ flip);
        let error = check_certificate(&cert).expect_err("tampered certificate accepted");
        prop_assert!(
            error.contains("output circuit fingerprint mismatch"),
            "unhelpful refusal: {}", error
        );
    }

    /// Swapping two entries of the wire map — claiming the compiler routed
    /// the circuit differently than it did — is refused, because the
    /// replayed pipeline reproduces the real map.
    #[test]
    fn swapped_wire_map_is_refused(
        input in certify_input(),
        swap in (0..4usize, 0..4usize),
    ) {
        let (circuit, n, seed, selection) = input;
        let (a, b) = swap;
        let mut cert = emit(&circuit, n, seed, selection);
        let width = cert.wire_map.len();
        // The end-to-end wire map is a permutation, so any two distinct
        // indices carry distinct values — swapping them is real tampering.
        let a = a % width;
        let b = if a == b % width { (a + 1) % width } else { b % width };
        prop_assert_ne!(cert.wire_map[a], cert.wire_map[b], "wire map is not a permutation");
        cert.wire_map.swap(a, b);
        let error = check_certificate(&cert).expect_err("tampered certificate accepted");
        prop_assert!(
            error.contains("wire map mismatch") || error.contains("evidence"),
            "unhelpful refusal: {}", error
        );
    }

    /// Evidence produced under a different rule-library version is refused
    /// before any replay: the normal forms are not comparable.
    #[test]
    fn foreign_rule_library_is_refused(
        input in certify_input(),
        flip in 1..u64::MAX,
    ) {
        let (circuit, n, seed, selection) = input;
        let mut cert = emit(&circuit, n, seed, selection);
        cert.rule_library = Fingerprint(cert.rule_library.0 ^ flip);
        let error = check_certificate(&cert).expect_err("tampered certificate accepted");
        prop_assert!(
            error.contains("rule library mismatch"),
            "unhelpful refusal: {}", error
        );
    }

    /// Any single-member corruption of the JSON document either fails to
    /// decode or decodes to a certificate the checker refuses — a parsed
    /// document can never silently validate with altered content.
    #[test]
    fn corrupted_documents_never_validate(
        input in certify_input(),
        victim in 0..6usize,
    ) {
        let (circuit, n, seed, selection) = input;
        let cert = emit(&circuit, n, seed, selection);
        let document = cert.to_json();
        // `seed` is deliberately absent: replaying at a nearby seed can
        // legitimately reproduce the same compilation, in which case the
        // edited document simply describes that other (real) run.
        let member = ["input_fingerprint", "output_fingerprint", "rule_library",
                      "backend", "pipeline", "register_width"][victim];
        let corrupted = match &document {
            json::Value::Object(members) => json::Value::Object(
                members
                    .iter()
                    .map(|(key, value)| {
                        if key == member {
                            let tampered = match value {
                                json::Value::Int(i) => json::Value::Int(i + 1),
                                _ => json::Value::String("ffffffffffffffff".to_string()),
                            };
                            (key.clone(), tampered)
                        } else {
                            (key.clone(), value.clone())
                        }
                    })
                    .collect(),
            ),
            _ => unreachable!("certificates encode as objects"),
        };
        match EquivalenceCertificate::from_json(&corrupted) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert!(
                    check_certificate(&decoded).is_err(),
                    "corrupting `{}` went unnoticed", member
                );
            }
        }
    }
}

//! Property tests for equivalence certificates:
//!
//! * the JSON encoding round-trips byte-stably for certificates emitted
//!   over arbitrary generated circuits, on both backend selections;
//! * certificates carrying every gate kind, arbitrary finite angles,
//!   measures, classical and quantum conditions and opaque segments round
//!   trip bit-exactly through `giallar-cert/v2`, and their
//!   `giallar-cert/v1` encoding (written by the reference encoder in
//!   `tests/support/cert_v1.rs`, as the v1 writer wrote it) decodes to
//!   the same certificate;
//! * every freshly emitted certificate passes independent re-validation;
//! * single-field tampering — a flipped fingerprint, a swapped wire map,
//!   evidence stamped with a different rule-library version — is refused
//!   with a message naming the mismatch.

use giallar::core::backend::BackendSelection;
use giallar::core::certificate::{
    certify_compilation, check_certificate, circuit_fingerprint, EquivalenceCertificate,
};
use giallar::core::json;
use giallar::core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar::ir::{Circuit, Condition, CouplingMap, Gate, GateKind};
use giallar::smt::Fingerprint;
use giallar::symbolic::SymCircuit;
use proptest::prelude::*;
use support::cert_v1::v1_document;

mod support;

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
        assert_round_trips(&cert);
    }

    /// Certificates carrying every gate kind, arbitrary finite angles,
    /// measures, conditions and segments round trip bit-exactly through
    /// `giallar-cert/v2`, and decode to the same certificate from their
    /// `giallar-cert/v1` encoding.
    #[test]
    fn every_gate_form_round_trips_through_v2_and_decodes_equal_from_v1(
        input in certify_input(),
        circuits in (sym_circuit_strategy(), sym_circuit_strategy()),
    ) {
        let (circuit, n, seed, selection) = input;
        let mut cert = emit(&circuit, n, seed, selection);
        (cert.input, cert.output) = circuits;
        assert_round_trips(&cert);
        let v1 = v1_document(&cert);
        for document in [v1.clone(), json::parse(&v1.to_pretty()).expect("v1 text parses")] {
            let decoded = EquivalenceCertificate::from_json(&document).expect("v1 decodes");
            assert_bit_exact(&decoded, &cert);
            prop_assert_eq!(decoded.to_json().to_pretty(), cert.to_json().to_pretty());
        }
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
        let document = json::parse(&cert.to_json().to_pretty()).expect("emitted document parses");
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

/// `cert` equals `expected` with every angle bit for bit: equality alone
/// reads `0.0` and `-0.0` as one angle, the canonical form does not.
fn assert_bit_exact(cert: &EquivalenceCertificate, expected: &EquivalenceCertificate) {
    assert_eq!(cert, expected);
    for (decoded, original) in [(&cert.input, &expected.input), (&cert.output, &expected.output)] {
        assert_eq!(circuit_fingerprint(decoded), circuit_fingerprint(original));
    }
}

/// Encoding a certificate, pretty-printing it (the on-disk form), parsing
/// it back, and decoding reproduces the certificate bit for bit, and
/// re-encoding reproduces the document byte for byte; the compact wire
/// form (what `giallar serve` sends) decodes to the same certificate.
fn assert_round_trips(cert: &EquivalenceCertificate) {
    let pretty = cert.to_json().to_pretty();
    let parsed = json::parse(&pretty).expect("emitted document parses");
    let decoded = EquivalenceCertificate::from_json(&parsed).expect("emitted document decodes");
    assert_bit_exact(&decoded, cert);
    assert_eq!(decoded.to_json().to_pretty(), pretty);
    let mut compact = String::new();
    cert.to_json().write(&mut json::Writer::compact(&mut compact));
    assert!(!compact.contains('\n'), "compact form spans lines");
    let wired = json::parse(&compact).expect("compact form parses");
    assert_eq!(parsed, wired, "the two layouts hold different documents");
    assert_bit_exact(&EquivalenceCertificate::from_json(&wired).expect("wire form decodes"), cert);
}

/// Every gate name the decoder knows, aliases aside.
const GATE_NAMES: [&str; 32] = [
    "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "rx", "ry", "rz", "p", "u1",
    "u2", "u3", "cx", "cy", "cz", "ch", "swap", "ecr", "rzz", "cp", "crz", "ccx", "cswap",
    "barrier", "measure", "reset",
];

/// An angle: arbitrary finite bits, a plain value, or an edge case.
fn angle(kind: u64, bits: u64) -> f64 {
    const EDGES: [f64; 7] =
        [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX, std::f64::consts::PI];
    match kind % 3 {
        0 if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
        0 | 1 => (bits % 20_001) as f64 / 1000.0 - 10.0,
        _ => EDGES[(bits % 7) as usize],
    }
}

/// Strategy: a symbolic circuit over 3 to 6 qubits holding any gate kind
/// on distinct qubits, measures into clbits, classical and quantum
/// conditions, and the odd opaque segment.
fn sym_circuit_strategy() -> impl Strategy<Value = SymCircuit> {
    let draw = (0..40usize, 0..u64::MAX, 0..u64::MAX, 0..u64::MAX, 0..8u64);
    (3..7usize, prop::collection::vec(draw, 0..24)).prop_map(|(width, draws)| {
        let mut circuit = SymCircuit::new(width);
        for (which, order, bits, more, extra) in draws {
            if which >= GATE_NAMES.len() + 6 {
                let name = ["C1", "seg\"ment", "é"][(bits % 3) as usize];
                circuit.push_segment(name, (0..width).filter(|q| (order >> q) & 1 == 1).collect());
                continue;
            }
            let name = GATE_NAMES[which % GATE_NAMES.len()];
            let params = [angle(extra, bits), angle(extra + 1, more), angle(extra + 2, order)];
            let kind = (0..=3)
                .find_map(|len| GateKind::from_name(name, &params[..len]).ok())
                .expect("every listed name has a parameter count");
            // Distinct qubits: a rotation of the register by a drawn offset.
            let arity = if kind.arity() == 0 { 1 + (more as usize % width) } else { kind.arity() };
            let qubits = (0..arity).map(|i| (order as usize + i) % width).collect();
            let mut gate = Gate::new(kind, qubits);
            if name == "measure" {
                gate.clbits = vec![(bits % 5) as usize];
            }
            gate.condition = match extra % 4 {
                0 => Some(Condition::classical((more % 5) as usize, more & 1 == 1)),
                1 => Some(Condition::quantum(more as usize % width)),
                _ => None,
            };
            circuit.push_gate(gate);
        }
        circuit
    })
}

//! A reference `giallar-cert/v1` encoder.  The library writes only
//! `giallar-cert/v2` but still reads v1, so tests build v1 documents with
//! this writer, as the v1 emitter wrote them (`tests/golden_certificates.rs`
//! pins it to the committed v1 goldens byte for byte).

use giallar::core::certificate::{EquivalenceCertificate, CERT_SCHEMA_V1};
use giallar::core::json::{self, Value};
use giallar::ir::{ConditionKind, Gate};
use giallar::symbolic::{SymCircuit, SymElement};

fn ints(values: &[usize]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Int(v as i64)).collect())
}

/// A gate as `giallar-cert/v1` wrote it: a `kind`, `params`, `qubits`,
/// `clbits`, `condition` object.
fn v1_gate(gate: &Gate) -> Value {
    let condition = match gate.condition.map(|c| c.kind) {
        None => Value::Null,
        Some(ConditionKind::Classical { bit, value }) => Value::object(vec![
            ("type", Value::String("classical".to_string())),
            ("bit", Value::Int(bit as i64)),
            ("value", Value::Bool(value)),
        ]),
        Some(ConditionKind::Quantum { qubit }) => Value::object(vec![
            ("type", Value::String("quantum".to_string())),
            ("qubit", Value::Int(qubit as i64)),
        ]),
    };
    Value::object(vec![
        ("kind", Value::String(gate.kind.name().to_string())),
        ("params", Value::Array(gate.kind.params().iter().copied().map(Value::Float).collect())),
        ("qubits", ints(&gate.qubits)),
        ("clbits", ints(&gate.clbits)),
        ("condition", condition),
    ])
}

/// A circuit as `giallar-cert/v1` wrote it: `num_qubits` and an
/// `elements` list of `{"gate": ...}` and `{"segment": ...}` objects.
fn v1_circuit(circuit: &SymCircuit) -> Value {
    let elements = circuit
        .elements()
        .iter()
        .map(|element| match element {
            SymElement::Gate(gate) => Value::object(vec![("gate", v1_gate(gate))]),
            SymElement::Segment { name, excluded_qubits } => Value::object(vec![(
                "segment",
                Value::object(vec![
                    ("name", Value::String(name.clone())),
                    ("excluded_qubits", ints(excluded_qubits)),
                ]),
            )]),
        })
        .collect();
    Value::object(vec![
        ("num_qubits", Value::Int(circuit.num_qubits() as i64)),
        ("elements", Value::Array(elements)),
    ])
}

/// The `giallar-cert/v1` document of `cert`: v1 differs from v2 only in
/// its schema and its two circuits.
pub fn v1_document(cert: &EquivalenceCertificate) -> Value {
    let Value::Object(members) = json::parse(&cert.to_json().to_pretty()).unwrap() else {
        unreachable!("certificates encode as objects");
    };
    let members = members
        .into_iter()
        .map(|(key, value)| {
            let value = match key.as_str() {
                "schema" => Value::String(CERT_SCHEMA_V1.to_string()),
                "input" => v1_circuit(&cert.input),
                "output" => v1_circuit(&cert.output),
                _ => value,
            };
            (key, value)
        })
        .collect();
    Value::Object(members)
}

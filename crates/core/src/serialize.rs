//! Encodings of proof obligations and of the circuits certificates carry.
//!
//! * **JSON values** for gates and symbolic circuits ([`gate_to_json`],
//!   [`sym_circuit_to_json`] and their decoders) on top of [`crate::json`]:
//!   the input and output circuits a
//!   [`crate::certificate::EquivalenceCertificate`] embeds, with lossless
//!   round-trips — gate angles survive as exact IEEE doubles.
//! * **Canonical forms** (stable one-line text) for [`Goal`] and
//!   [`ProofObligation`], written into any [`fmt::Write`] sink; the
//!   incremental verification cache hashes them as they are written.  Two
//!   obligations write identically if and only if the verifier would
//!   discharge them identically, so a changed obligation generator always
//!   changes its pass's fingerprint.

use std::fmt;

use qc_ir::gate::write_list;
use qc_ir::{Condition, ConditionKind, Gate, GateKind};
use qc_symbolic::{SymCircuit, SymElement};

use crate::json::Value;
use crate::obligation::{Goal, ProofObligation};

impl Goal {
    /// Writes the canonical form of the goal, stable across releases.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Goal::Equivalence { lhs, rhs } => {
                out.write_str("equivalence(lhs=")?;
                lhs.write_canonical(out)?;
                out.write_str(";rhs=")?;
                rhs.write_canonical(out)?;
            }
            Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
                out.write_str("equivalence_up_to_permutation(lhs=")?;
                lhs.write_canonical(out)?;
                out.write_str(";rhs=")?;
                rhs.write_canonical(out)?;
                out.write_str(";perm=")?;
                write_list(out, perm)?;
            }
            Goal::TerminationDecrease { consumed, kept } => {
                write!(out, "termination_decrease(consumed={consumed};kept={kept}")?;
            }
            Goal::AlwaysTerminates => return out.write_str("always_terminates"),
            Goal::CircuitUnchanged => return out.write_str("circuit_unchanged"),
        }
        out.write_char(')')
    }
}

impl ProofObligation {
    /// Writes the canonical form of the obligation: description, ` :: `,
    /// goal.  The verification cache fingerprints it as it is written
    /// ([`crate::cache::obligation_fingerprint`]).
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(&self.description)?;
        out.write_str(" :: ")?;
        self.goal.write_canonical(out)
    }

    /// The canonical form ([`ProofObligation::write_canonical`]) as a
    /// `String`.
    pub fn canonical_form(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out).expect("writing to a String cannot fail");
        out
    }
}

fn usizes_to_json(values: &[usize]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Int(v as i64)).collect())
}

fn usizes_from_json(value: &Value, what: &str) -> Result<Vec<usize>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| format!("{what}: expected a non-negative integer"))
        })
        .collect()
}

/// Encodes a gate instruction as JSON.
pub fn gate_to_json(gate: &Gate) -> Value {
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
        ("qubits", usizes_to_json(&gate.qubits)),
        ("clbits", usizes_to_json(&gate.clbits)),
        ("condition", condition),
    ])
}

/// Decodes a gate instruction from JSON.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn gate_from_json(value: &Value) -> Result<Gate, String> {
    let name = value.get("kind").and_then(Value::as_str).ok_or("gate: missing `kind`")?;
    let params: Vec<f64> = value
        .get("params")
        .and_then(Value::as_array)
        .ok_or("gate: missing `params`")?
        .iter()
        .map(|v| v.as_float().ok_or("gate: non-numeric param"))
        .collect::<Result<_, _>>()?;
    let kind = GateKind::from_name(name, &params).map_err(|e| format!("gate: {e:?}"))?;
    let qubits = usizes_from_json(value.get("qubits").unwrap_or(&Value::Null), "gate qubits")?;
    let clbits = usizes_from_json(value.get("clbits").unwrap_or(&Value::Null), "gate clbits")?;
    let condition = match value.get("condition") {
        None | Some(Value::Null) => None,
        Some(cond) => {
            let kind = cond.get("type").and_then(Value::as_str).ok_or("condition: missing type")?;
            match kind {
                "classical" => {
                    let bit =
                        cond.get("bit").and_then(Value::as_int).ok_or("condition: missing bit")?
                            as usize;
                    let val = cond
                        .get("value")
                        .and_then(Value::as_bool)
                        .ok_or("condition: missing value")?;
                    Some(Condition::classical(bit, val))
                }
                "quantum" => {
                    let qubit =
                        cond.get("qubit")
                            .and_then(Value::as_int)
                            .ok_or("condition: missing qubit")? as usize;
                    Some(Condition::quantum(qubit))
                }
                other => return Err(format!("condition: unknown type `{other}`")),
            }
        }
    };
    let mut gate = Gate::new(kind, qubits);
    gate.clbits = clbits;
    gate.condition = condition;
    Ok(gate)
}

/// Encodes a symbolic circuit as JSON.
pub fn sym_circuit_to_json(circuit: &SymCircuit) -> Value {
    let elements: Vec<Value> = circuit
        .elements()
        .iter()
        .map(|element| match element {
            SymElement::Gate(gate) => Value::object(vec![("gate", gate_to_json(gate))]),
            SymElement::Segment { name, excluded_qubits } => Value::object(vec![(
                "segment",
                Value::object(vec![
                    ("name", Value::String(name.clone())),
                    ("excluded_qubits", usizes_to_json(excluded_qubits)),
                ]),
            )]),
        })
        .collect();
    Value::object(vec![
        ("num_qubits", Value::Int(circuit.num_qubits() as i64)),
        ("elements", Value::Array(elements)),
    ])
}

/// Decodes a symbolic circuit from JSON.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn sym_circuit_from_json(value: &Value) -> Result<SymCircuit, String> {
    let num_qubits = value
        .get("num_qubits")
        .and_then(Value::as_int)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or("sym circuit: missing `num_qubits`")?;
    let mut circuit = SymCircuit::new(num_qubits);
    for element in
        value.get("elements").and_then(Value::as_array).ok_or("sym circuit: missing `elements`")?
    {
        if let Some(gate) = element.get("gate") {
            circuit.push_gate(gate_from_json(gate)?);
        } else if let Some(segment) = element.get("segment") {
            let name =
                segment.get("name").and_then(Value::as_str).ok_or("segment: missing `name`")?;
            let excluded = usizes_from_json(
                segment.get("excluded_qubits").unwrap_or(&Value::Null),
                "segment excluded_qubits",
            )?;
            circuit.push_segment(name, excluded);
        } else {
            return Err("sym circuit: element is neither a gate nor a segment".to_string());
        }
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::Circuit;

    fn sample_obligations() -> Vec<ProofObligation> {
        let mut lhs = Circuit::with_clbits(2, 1);
        lhs.cx(0, 1).u1(0.1234567890123, 0);
        lhs.push(Gate::new(GateKind::U3(0.3, 0.4, 0.5), vec![1]).with_classical_condition(0, true))
            .unwrap();
        let mut sym_lhs = SymCircuit::from_circuit(&lhs);
        sym_lhs.push_segment("C1", vec![0, 1]);
        let rhs = SymCircuit::new(2);
        vec![
            ProofObligation::new(
                "equivalence with a segment",
                Goal::Equivalence { lhs: sym_lhs.clone(), rhs: rhs.clone() },
            ),
            ProofObligation::new(
                "routing permutation",
                Goal::EquivalenceUpToPermutation { lhs: sym_lhs, rhs, perm: vec![1, 0] },
            ),
            ProofObligation::new("termination", Goal::TerminationDecrease { consumed: 2, kept: 1 }),
            ProofObligation::new("range loop", Goal::AlwaysTerminates),
            ProofObligation::new("analysis", Goal::CircuitUnchanged),
        ]
    }

    #[test]
    fn sym_circuits_round_trip_through_json() {
        for obligation in sample_obligations() {
            if let Goal::EquivalenceUpToPermutation { lhs, .. } = obligation.goal {
                let text = sym_circuit_to_json(&lhs).to_pretty();
                let back = sym_circuit_from_json(&crate::json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, lhs);
                // And JSON re-encoding is byte-stable.
                assert_eq!(sym_circuit_to_json(&back).to_pretty(), text);
            }
        }
    }

    #[test]
    fn canonical_forms_distinguish_goals() {
        let forms: Vec<String> =
            sample_obligations().iter().map(ProofObligation::canonical_form).collect();
        let mut unique = forms.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), forms.len());
    }

    #[test]
    fn gate_angles_survive_exactly() {
        let gate = Gate::new(GateKind::RZ(0.1 + 0.2), vec![0]);
        let back = gate_from_json(&gate_to_json(&gate)).unwrap();
        match (back.kind, gate.kind) {
            (GateKind::RZ(a), GateKind::RZ(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("unexpected kinds {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            r#"{"elements": []}"#,
            r#"{"num_qubits": 1}"#,
            r#"{"num_qubits": 1, "elements": [{"neither": {}}]}"#,
            r#"{"num_qubits": 1, "elements": [{"gate": {"kind": "h"}}]}"#,
        ] {
            let value = crate::json::parse(bad).unwrap();
            assert!(sym_circuit_from_json(&value).is_err(), "{bad} should be rejected");
        }
    }
}

//! Encodings of proof obligations and of the circuits certificates carry.
//!
//! * **Gate rows** for the input and output circuits a
//!   [`crate::certificate::EquivalenceCertificate`] embeds:
//!   [`write_sym_circuit_rows`] writes one compact row per gate through a
//!   [`crate::json::Writer`] and [`sym_circuit_from_rows`] decodes them,
//!   losslessly — gate angles survive as exact IEEE doubles.  The
//!   `giallar-cert/v1` gate objects are still read
//!   ([`sym_circuit_from_json`]).
//! * **Canonical forms** (stable one-line text) for [`Goal`] and
//!   [`ProofObligation`], written into any [`fmt::Write`] sink; the
//!   incremental verification cache hashes them as they are written.  Two
//!   obligations write identically if and only if the verifier would
//!   discharge them identically, so a changed obligation generator always
//!   changes its pass's fingerprint.

use std::fmt;

use qc_ir::gate::write_list;
use qc_ir::{Condition, ConditionKind, Gate, GateKind, MAX_QUBITS};
use qc_symbolic::{SymCircuit, SymElement};

use crate::json::{Value, Writer};
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

/// Decodes a wire index: a non-negative integer below [`MAX_QUBITS`], so
/// no register sized from decoded indices can pass the qubit ceiling.
fn wire_from_json(value: &Value, what: &str) -> Result<usize, String> {
    let index = value
        .as_int()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| format!("{what}: expected a non-negative integer"))?;
    if index >= MAX_QUBITS {
        return Err(format!("{what}: index {index} is past the {MAX_QUBITS}-wire ceiling"));
    }
    Ok(index)
}

fn usizes_from_json(value: &Value, what: &str) -> Result<Vec<usize>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what}: expected an array"))?
        .iter()
        .map(|v| wire_from_json(v, what))
        .collect()
}

fn params_from_json(value: Option<&Value>) -> Result<Vec<f64>, String> {
    value
        .and_then(Value::as_array)
        .ok_or("gate: missing `params`")?
        .iter()
        .map(|v| match v.as_float() {
            Some(param) if param.is_finite() => Ok(param),
            Some(_) => Err("gate: non-finite param".to_string()),
            None => Err("gate: non-numeric param".to_string()),
        })
        .collect()
}

/// Decodes a gate condition: `null`, or the object
/// [`write_condition`] writes.
fn condition_from_json(value: &Value) -> Result<Option<Condition>, String> {
    if value.is_null() {
        return Ok(None);
    }
    let wire = |key: &str, what: &str| {
        wire_from_json(value.get(key).ok_or_else(|| format!("condition: missing {key}"))?, what)
    };
    match value.get("type").and_then(Value::as_str).ok_or("condition: missing type")? {
        "classical" => {
            let bit = wire("bit", "condition bit")?;
            let val =
                value.get("value").and_then(Value::as_bool).ok_or("condition: missing value")?;
            Ok(Some(Condition::classical(bit, val)))
        }
        "quantum" => Ok(Some(Condition::quantum(wire("qubit", "condition qubit")?))),
        other => Err(format!("condition: unknown type `{other}`")),
    }
}

/// Decodes a `giallar-cert/v1` gate object (`kind`, `params`, `qubits`,
/// `clbits`, `condition` members).
fn gate_from_json(value: &Value) -> Result<Gate, String> {
    let name = value.get("kind").and_then(Value::as_str).ok_or("gate: missing `kind`")?;
    let params = params_from_json(value.get("params"))?;
    let kind = GateKind::from_name(name, &params).map_err(|e| format!("gate: {e}"))?;
    let mut gate = Gate::new(
        kind,
        usizes_from_json(value.get("qubits").unwrap_or(&Value::Null), "gate qubits")?,
    );
    gate.clbits = usizes_from_json(value.get("clbits").unwrap_or(&Value::Null), "gate clbits")?;
    gate.condition = condition_from_json(value.get("condition").unwrap_or(&Value::Null))?;
    Ok(gate)
}

/// The declared register of a circuit object, capped at [`MAX_QUBITS`].
fn num_qubits_from_json(value: &Value) -> Result<usize, String> {
    let num_qubits = value
        .get("num_qubits")
        .and_then(Value::as_int)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or("sym circuit: missing `num_qubits`")?;
    if num_qubits > MAX_QUBITS {
        return Err(format!(
            "sym circuit: `num_qubits` {num_qubits} exceeds the {MAX_QUBITS}-qubit ceiling"
        ));
    }
    Ok(num_qubits)
}

/// Decodes an opaque segment: its `name` and `excluded_qubits` members.
fn push_segment_from_json(circuit: &mut SymCircuit, segment: &Value) -> Result<(), String> {
    let name = segment.get("name").and_then(Value::as_str).ok_or("segment: missing `name`")?;
    let excluded = usizes_from_json(
        segment.get("excluded_qubits").unwrap_or(&Value::Null),
        "segment excluded_qubits",
    )?;
    circuit.push_segment(name, excluded);
    Ok(())
}

/// Decodes a `giallar-cert/v1` symbolic circuit: `num_qubits` and an
/// `elements` list of `{"gate": ...}` and `{"segment": ...}` objects.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn sym_circuit_from_json(value: &Value) -> Result<SymCircuit, String> {
    let mut circuit = SymCircuit::new(num_qubits_from_json(value)?);
    for element in
        value.get("elements").and_then(Value::as_array).ok_or("sym circuit: missing `elements`")?
    {
        if let Some(gate) = element.get("gate") {
            circuit.push_gate(gate_from_json(gate)?);
        } else if let Some(segment) = element.get("segment") {
            push_segment_from_json(&mut circuit, segment)?;
        } else {
            return Err("sym circuit: element is neither a gate nor a segment".to_string());
        }
    }
    Ok(circuit)
}

/// Writes a symbolic circuit as `giallar-cert/v2` rows: `{"num_qubits": n,
/// "gates": [...]}` with one row per element, each on one line.  A gate
/// row is `[kind, [params], [qubits]]`, followed by its clbits when it has
/// clbits or a condition, and by its condition object when it has one.
/// Floats take their shortest round-trip form, so the row decodes
/// bit-exactly.  An opaque segment (which only a hand-built circuit
/// carries) is the object `{"segment": {"name": ..., "excluded_qubits":
/// [...]}}`.
pub fn write_sym_circuit_rows(w: &mut Writer, circuit: &SymCircuit) {
    w.open('{');
    w.key("num_qubits");
    w.int(circuit.num_qubits() as i64);
    w.key("gates");
    w.open('[');
    for element in circuit.elements() {
        w.item();
        w.inline(|w| match element {
            SymElement::Gate(gate) => write_gate_row(w, gate),
            SymElement::Segment { name, excluded_qubits } => {
                w.open('{');
                w.key("segment");
                w.open('{');
                w.key("name");
                w.string(name);
                w.key("excluded_qubits");
                write_wires(w, excluded_qubits);
                w.close('}');
                w.close('}');
            }
        });
    }
    w.close(']');
    w.close('}');
}

/// Writes a list of wire indices.
pub(crate) fn write_wires(w: &mut Writer, wires: &[usize]) {
    w.open('[');
    for &wire in wires {
        w.item();
        w.int(wire as i64);
    }
    w.close(']');
}

fn write_gate_row(w: &mut Writer, gate: &Gate) {
    w.open('[');
    w.item();
    w.string(gate.kind.name());
    w.item();
    w.open('[');
    for &param in gate.kind.params().iter() {
        w.item();
        w.float(param);
    }
    w.close(']');
    w.item();
    write_wires(w, &gate.qubits);
    if !gate.clbits.is_empty() || gate.condition.is_some() {
        w.item();
        write_wires(w, &gate.clbits);
    }
    if let Some(condition) = gate.condition {
        w.item();
        write_condition(w, condition);
    }
    w.close(']');
}

/// Writes a condition as the object v1 carried in its `condition` member.
fn write_condition(w: &mut Writer, condition: Condition) {
    w.open('{');
    w.key("type");
    match condition.kind {
        ConditionKind::Classical { bit, value } => {
            w.string("classical");
            w.key("bit");
            w.int(bit as i64);
            w.key("value");
            w.bool(value);
        }
        ConditionKind::Quantum { qubit } => {
            w.string("quantum");
            w.key("qubit");
            w.int(qubit as i64);
        }
    }
    w.close('}');
}

/// Decodes one `giallar-cert/v2` gate row.
fn gate_from_row(row: &Value) -> Result<Gate, String> {
    let items = row.as_array().ok_or("expected an array")?;
    if !(3..=5).contains(&items.len()) {
        return Err(format!("expected 3 to 5 elements, got {}", items.len()));
    }
    let name = items[0].as_str().ok_or("kind: expected a string")?;
    let params = params_from_json(Some(&items[1]))?;
    let kind = GateKind::from_name(name, &params).map_err(|e| e.to_string())?;
    let mut gate = Gate::new(kind, usizes_from_json(&items[2], "qubits")?);
    if let Some(clbits) = items.get(3) {
        gate.clbits = usizes_from_json(clbits, "clbits")?;
    }
    if let Some(condition) = items.get(4) {
        gate.condition = condition_from_json(condition)?;
    }
    gate.validate().map_err(|e| e.to_string())?;
    Ok(gate)
}

/// Decodes a `giallar-cert/v2` symbolic circuit, the rows
/// [`write_sym_circuit_rows`] writes.
///
/// # Errors
///
/// Returns a one-line description of the first malformed row or field.
pub fn sym_circuit_from_rows(value: &Value) -> Result<SymCircuit, String> {
    let mut circuit = SymCircuit::new(num_qubits_from_json(value)?);
    let rows =
        value.get("gates").and_then(Value::as_array).ok_or("sym circuit: missing `gates`")?;
    for (index, row) in rows.iter().enumerate() {
        if let Some(segment) = row.get("segment") {
            push_segment_from_json(&mut circuit, segment)?;
        } else {
            circuit.push_gate(gate_from_row(row).map_err(|e| format!("gate row {index}: {e}"))?);
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

    fn rows(circuit: &SymCircuit) -> String {
        let mut out = String::new();
        write_sym_circuit_rows(&mut Writer::pretty(&mut out), circuit);
        out
    }

    #[test]
    fn sym_circuits_round_trip_through_rows() {
        let mut circuit = Circuit::with_clbits(3, 2);
        circuit.h(0).measure(0, 1);
        circuit.push(Gate::new(GateKind::X, vec![2]).with_quantum_condition(1)).unwrap();
        let mut extra = SymCircuit::from_circuit(&circuit);
        extra.push_segment("C\"2", vec![]);
        let lhs = sample_obligations().into_iter().find_map(|o| match o.goal {
            Goal::EquivalenceUpToPermutation { lhs, .. } => Some(lhs),
            _ => None,
        });
        for sym in [lhs.unwrap(), extra] {
            let text = rows(&sym);
            let back = sym_circuit_from_rows(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, sym);
            assert_eq!(rows(&back), text);
        }
        let text = rows(&SymCircuit::from_circuit(&circuit));
        assert!(text.contains("    [\"measure\", [], [0], [1]],\n"), "{text}");
        assert!(text.contains("[\"x\", [], [2], [], {\"type\": \"quantum\", \"qubit\": 1}]"));
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
        let mut sym = SymCircuit::new(1);
        sym.push_gate(Gate::new(GateKind::RZ(0.1 + 0.2), vec![0]));
        let back = sym_circuit_from_rows(&crate::json::parse(&rows(&sym)).unwrap()).unwrap();
        assert_eq!(back, sym);
        match (&back.elements()[0], 0.1 + 0.2) {
            (SymElement::Gate(Gate { kind: GateKind::RZ(a), .. }), b) => {
                assert_eq!(a.to_bits(), f64::to_bits(b))
            }
            other => panic!("unexpected element {other:?}"),
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
        for (bad, error) in [
            (r#"{"num_qubits": 1}"#, "sym circuit: missing `gates`"),
            (r#"{"num_qubits": 1, "gates": [{"neither": {}}]}"#, "gate row 0: expected an array"),
            (r#"{"num_qubits": 1, "gates": [["h", []]]}"#, "gate row 0: expected 3 to 5 elements"),
            (r#"{"num_qubits": 2, "gates": [["cx", [], [0]]]}"#, "gate row 0: "),
        ] {
            let value = crate::json::parse(bad).unwrap();
            let refusal = sym_circuit_from_rows(&value).unwrap_err();
            assert!(refusal.starts_with(error), "{bad}: {refusal}");
        }
    }
}

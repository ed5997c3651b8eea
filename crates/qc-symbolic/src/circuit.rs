//! Symbolic circuits: concrete gates interleaved with opaque segments.
//!
//! Proof goals produced by Giallar's loop templates mention circuit
//! fragments that the pass never inspects (the "remaining gates" between two
//! cancelled CNOTs, the unscanned suffix of the input, …).  A [`SymCircuit`]
//! represents such a fragment as a [`SymElement::Segment`]: an uninterpreted
//! sub-circuit together with the set of qubits it is known *not* to touch.

use std::fmt;

use qc_ir::gate::write_list;
use qc_ir::{Circuit, Gate};
use serde::{Deserialize, Serialize};

/// One element of a symbolic circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SymElement {
    /// A concrete gate instruction.
    Gate(Gate),
    /// An opaque circuit segment.
    Segment {
        /// Name of the segment (e.g. `"C1"`); equal names denote the same
        /// (unknown) sub-circuit.
        name: String,
        /// Qubits the segment is known not to act on (from utility
        /// specifications such as `next_gate`).
        excluded_qubits: Vec<usize>,
    },
}

impl SymElement {
    /// Builds a segment element.
    pub fn segment(name: &str, excluded_qubits: Vec<usize>) -> Self {
        SymElement::Segment { name: name.to_string(), excluded_qubits }
    }

    /// Writes the canonical form of the element, stable across releases:
    /// `g(`gate`)` or `seg(`name`;excl:`qubits`)`.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            SymElement::Gate(gate) => {
                out.write_str("g(")?;
                gate.write_canonical(out)?;
            }
            SymElement::Segment { name, excluded_qubits } => {
                write!(out, "seg({name};excl:")?;
                write_list(out, excluded_qubits)?;
            }
        }
        out.write_char(')')
    }
}

/// A circuit whose gates may be interleaved with opaque segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymCircuit {
    num_qubits: usize,
    elements: Vec<SymElement>,
}

impl SymCircuit {
    /// Creates an empty symbolic circuit.
    pub fn new(num_qubits: usize) -> Self {
        SymCircuit { num_qubits, elements: Vec::new() }
    }

    /// Wraps a fully concrete circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        SymCircuit {
            num_qubits: circuit.num_qubits(),
            elements: circuit.iter().cloned().map(SymElement::Gate).collect(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The elements in program order.
    pub fn elements(&self) -> &[SymElement] {
        &self.elements
    }

    /// Number of elements (gates plus segments).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` when the circuit has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Appends a concrete gate.
    pub fn push_gate(&mut self, gate: Gate) -> &mut Self {
        self.elements.push(SymElement::Gate(gate));
        self
    }

    /// Appends an opaque segment known not to touch `excluded_qubits`.
    pub fn push_segment(&mut self, name: &str, excluded_qubits: Vec<usize>) -> &mut Self {
        self.elements.push(SymElement::segment(name, excluded_qubits));
        self
    }

    /// Concatenates two symbolic circuits.
    pub fn concatenated(&self, other: &SymCircuit) -> SymCircuit {
        let mut out = self.clone();
        out.elements.extend(other.elements.iter().cloned());
        out.num_qubits = out.num_qubits.max(other.num_qubits);
        out
    }

    /// Writes the canonical form of the circuit (register width plus every
    /// element in program order), stable across releases.  Two symbolic
    /// circuits write identically if and only if they are structurally
    /// equal, so certificates fingerprint circuits by this form as it is
    /// written.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "circ(n={};[", self.num_qubits)?;
        for (i, element) in self.elements.iter().enumerate() {
            if i > 0 {
                out.write_char(';')?;
            }
            element.write_canonical(out)?;
        }
        out.write_str("])")
    }

    /// Drops trailing measurement gates (used by the
    /// `RemoveFinalMeasurements` obligation).
    pub fn without_final_measurements(&self) -> SymCircuit {
        let mut elements = self.elements.clone();
        while matches!(
            elements.last(),
            Some(SymElement::Gate(g)) if g.kind == qc_ir::GateKind::Measure
        ) {
            elements.pop();
        }
        SymCircuit { num_qubits: self.num_qubits, elements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::GateKind;

    #[test]
    fn from_circuit_keeps_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sym = SymCircuit::from_circuit(&c);
        assert_eq!(sym.len(), 2);
        match &sym.elements()[1] {
            SymElement::Gate(g) => assert_eq!(g.kind, GateKind::CX),
            other => panic!("unexpected element {other:?}"),
        }
    }

    #[test]
    fn segments_and_concatenation() {
        let mut a = SymCircuit::new(3);
        a.push_gate(Gate::new(GateKind::CX, vec![0, 1]));
        a.push_segment("C1", vec![0, 1]);
        let mut b = SymCircuit::new(3);
        b.push_segment("C2", vec![]);
        let joined = a.concatenated(&b);
        assert_eq!(joined.len(), 3);
        assert!(!joined.is_empty());
        assert_eq!(joined.num_qubits(), 3);
    }

    #[test]
    fn final_measurements_are_stripped() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).measure(0, 0).measure(1, 1);
        let sym = SymCircuit::from_circuit(&c).without_final_measurements();
        assert_eq!(sym.len(), 1);
        // Non-final measurements survive.
        let mut c2 = Circuit::with_clbits(2, 2);
        c2.measure(0, 0).h(0);
        let sym2 = SymCircuit::from_circuit(&c2).without_final_measurements();
        assert_eq!(sym2.len(), 2);
    }
}

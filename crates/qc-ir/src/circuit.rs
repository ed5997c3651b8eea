//! The list-of-gates circuit representation.
//!
//! Giallar's verified library models a quantum circuit as a *list* of gates
//! (`P := skip | U(q₁,…,qₙ) | P₁; P₂` in the paper's syntax) because lists are
//! far easier to reason about than Qiskit's DAG.  [`Circuit`] is that list
//! representation; [`crate::DagCircuit`] is the DAG used by the baseline
//! compiler, with conversions in both directions.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{QcError, Result};
use crate::gate::{Gate, GateKind};

/// A quantum circuit represented as an ordered list of gate instructions.
///
/// # Example
///
/// ```
/// use qc_ir::Circuit;
/// let mut bell = Circuit::new(2);
/// bell.h(0);
/// bell.cx(0, 1);
/// assert_eq!(bell.size(), 2);
/// assert_eq!(bell.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and no classical bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, num_clbits: 0, gates: Vec::new() }
    }

    /// Creates an empty circuit with both quantum and classical registers.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit { num_qubits, num_clbits, gates: Vec::new() }
    }

    /// Number of qubits in the quantum register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of gate instructions (the paper's `size()`).
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Total number of qubits plus classical bits (Qiskit's `width`).
    pub fn width(&self) -> usize {
        self.num_qubits + self.num_clbits
    }

    /// Grows the quantum register to at least `num_qubits` qubits
    /// (used by the ancilla-allocation passes).
    pub fn enlarge_to(&mut self, num_qubits: usize) {
        if num_qubits > self.num_qubits {
            self.num_qubits = num_qubits;
        }
    }

    /// Grows the classical register to at least `num_clbits` bits.
    pub fn enlarge_clbits_to(&mut self, num_clbits: usize) {
        if num_clbits > self.num_clbits {
            self.num_clbits = num_clbits;
        }
    }

    /// Read-only access to the instruction list.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Consumes the circuit and returns its instruction list, for callers
    /// that rebuild a circuit without cloning every gate.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Reserves room for at least `additional` more instructions.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Returns the `i`-th gate, if present.
    pub fn get(&self, i: usize) -> Option<&Gate> {
        self.gates.get(i)
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Validates a gate against the registers and appends it.
    ///
    /// # Errors
    ///
    /// Returns an error when the gate arity is wrong, a qubit is duplicated,
    /// or any operand is out of range.
    pub fn push(&mut self, gate: Gate) -> Result<()> {
        gate.validate()?;
        for &q in &gate.qubits {
            if q >= self.num_qubits {
                return Err(QcError::QubitOutOfRange { qubit: q, num_qubits: self.num_qubits });
            }
        }
        for &c in &gate.clbits {
            if c >= self.num_clbits {
                return Err(QcError::ClbitOutOfRange { clbit: c, num_clbits: self.num_clbits });
            }
        }
        if let Some(cond) = &gate.condition {
            match cond.kind {
                crate::gate::ConditionKind::Classical { bit, .. } => {
                    if bit >= self.num_clbits {
                        return Err(QcError::ClbitOutOfRange {
                            clbit: bit,
                            num_clbits: self.num_clbits,
                        });
                    }
                }
                crate::gate::ConditionKind::Quantum { qubit } => {
                    if qubit >= self.num_qubits {
                        return Err(QcError::QubitOutOfRange {
                            qubit,
                            num_qubits: self.num_qubits,
                        });
                    }
                }
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate without touching the registers.
    ///
    /// # Panics
    ///
    /// Panics when the gate does not fit the circuit; prefer [`Circuit::push`]
    /// in library code.
    pub fn append(&mut self, gate: Gate) {
        self.push(gate).expect("gate does not fit the circuit");
    }

    /// Removes and returns the gate at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn delete(&mut self, index: usize) -> Gate {
        self.gates.remove(index)
    }

    /// Inserts a gate at `index`, shifting later gates right.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.size()` or the gate does not fit the registers.
    pub fn insert(&mut self, index: usize, gate: Gate) {
        gate.validate().expect("invalid gate");
        assert!(gate.qubits.iter().all(|&q| q < self.num_qubits), "qubit out of range in insert");
        self.gates.insert(index, gate);
    }

    /// Appends all gates of `other` (registers must be at least as large).
    ///
    /// # Errors
    ///
    /// Returns an error if any gate of `other` does not fit this circuit.
    pub fn compose(&mut self, other: &Circuit) -> Result<()> {
        for g in other.iter() {
            self.push(g.clone())?;
        }
        Ok(())
    }

    /// Returns the concatenation `self; other` as a new circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuits have incompatible registers.
    pub fn concatenated(&self, other: &Circuit) -> Result<Circuit> {
        let mut out = Circuit::with_clbits(
            self.num_qubits.max(other.num_qubits),
            self.num_clbits.max(other.num_clbits),
        );
        out.compose(self)?;
        out.compose(other)?;
        Ok(out)
    }

    /// The inverse circuit: gates reversed and individually inverted.
    ///
    /// # Errors
    ///
    /// Returns [`QcError::NonUnitary`] when the circuit contains a gate with
    /// no expressible inverse (measure, reset, ECR).
    pub fn inverse(&self) -> Result<Circuit> {
        let mut out = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        for gate in self.gates.iter().rev() {
            let inv_kind =
                gate.kind.inverse().ok_or_else(|| QcError::NonUnitary(gate.name().to_string()))?;
            let mut g = Gate::new(inv_kind, gate.qubits.clone());
            g.condition = gate.condition;
            out.push(g)?;
        }
        Ok(out)
    }

    /// Remaps every qubit index through `mapping` (logical → physical),
    /// consuming the circuit so that each gate is relabelled in place.
    ///
    /// # Errors
    ///
    /// Returns an error when the mapping is shorter than the register or maps
    /// outside `new_num_qubits`.
    pub fn map_qubits(self, mapping: &[usize], new_num_qubits: usize) -> Result<Circuit> {
        if mapping.len() < self.num_qubits {
            return Err(QcError::InvalidLayout(format!(
                "mapping covers {} qubits but the circuit has {}",
                mapping.len(),
                self.num_qubits
            )));
        }
        let mut out = Circuit::with_clbits(new_num_qubits, self.num_clbits);
        out.reserve(self.gates.len());
        for mut g in self.gates {
            for q in &mut g.qubits {
                *q = mapping[*q];
            }
            if let Some(cond) = &mut g.condition {
                if let crate::gate::ConditionKind::Quantum { qubit } = &mut cond.kind {
                    *qubit = mapping[*qubit];
                }
            }
            out.push(g)?;
        }
        Ok(out)
    }

    /// Circuit depth: the length of the longest chain of gates where each
    /// gate must wait for the previous one on a shared qubit or classical bit.
    /// Directives (barriers) count like ordinary gates, matching Qiskit.
    pub fn depth(&self) -> usize {
        let mut qubit_level = vec![0usize; self.num_qubits];
        let mut clbit_level = vec![0usize; self.num_clbits];
        let mut depth = 0usize;
        for gate in &self.gates {
            let mut level = 0usize;
            for &q in &gate.qubits {
                level = level.max(qubit_level[q]);
            }
            for &c in &gate.clbits {
                level = level.max(clbit_level[c]);
            }
            if let Some(cond) = &gate.condition {
                if let crate::gate::ConditionKind::Classical { bit, .. } = cond.kind {
                    level = level.max(clbit_level[bit]);
                }
            }
            level += 1;
            for &q in &gate.qubits {
                qubit_level[q] = level;
            }
            for &c in &gate.clbits {
                clbit_level[c] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// Histogram of operation names (Qiskit's `count_ops`).
    pub fn count_ops(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for gate in &self.gates {
            *map.entry(gate.name().to_string()).or_insert(0) += 1;
        }
        map
    }

    /// Number of two-qubit gates (excluding barriers).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_directive() && g.num_qubits() == 2).count()
    }

    /// Number of tensor factors: connected components of the qubit graph in
    /// which two qubits are connected when some gate acts on both.
    /// Qubits with no gates count as their own factor.
    pub fn num_tensor_factors(&self) -> usize {
        let mut parent: Vec<usize> = (0..self.num_qubits).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for gate in &self.gates {
            if gate.qubits.len() > 1 {
                let first = gate.qubits[0];
                for &q in &gate.qubits[1..] {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, q));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut roots: Vec<usize> = (0..self.num_qubits).map(|q| find(&mut parent, q)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Index of the first gate after `index` that shares a qubit with the
    /// gate at `index` — the `next_gate` utility from the paper's verified
    /// library.  Returns `None` when no such gate exists.
    pub fn next_shared_gate(&self, index: usize) -> Option<usize> {
        let gate = self.gates.get(index)?;
        (index + 1..self.gates.len()).find(|&j| self.gates[j].shares_qubit(gate))
    }

    /// The qubits on which at least one gate acts.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for gate in &self.gates {
            for &q in &gate.qubits {
                used[q] = true;
            }
        }
        (0..self.num_qubits).filter(|&q| used[q]).collect()
    }

    /// Returns a sub-circuit containing the gates in `range` over the same
    /// registers.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            gates: self.gates[range].to_vec(),
        }
    }

    /// Returns `true` when the circuit contains any conditioned gate.
    pub fn has_conditions(&self) -> bool {
        self.gates.iter().any(Gate::is_conditioned)
    }

    /// Returns `true` when the circuit contains measurements or resets.
    pub fn has_nonunitary_ops(&self) -> bool {
        self.gates.iter().any(|g| matches!(g.kind, GateKind::Measure | GateKind::Reset))
    }

    // --- convenience builders -------------------------------------------------

    /// Appends a gate built from a kind and operand list.
    ///
    /// # Panics
    ///
    /// Panics when the gate does not fit the circuit.
    pub fn add(&mut self, kind: GateKind, qubits: &[usize]) -> &mut Self {
        self.append(Gate::new(kind, qubits.to_vec()));
        self
    }

    /// Appends a Hadamard gate. # Panics Panics on an invalid qubit.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::H, &[q])
    }
    /// Appends a Pauli-X gate. # Panics Panics on an invalid qubit.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::X, &[q])
    }
    /// Appends a Pauli-Y gate. # Panics Panics on an invalid qubit.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::Y, &[q])
    }
    /// Appends a Pauli-Z gate. # Panics Panics on an invalid qubit.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::Z, &[q])
    }
    /// Appends an S gate. # Panics Panics on an invalid qubit.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::S, &[q])
    }
    /// Appends a T gate. # Panics Panics on an invalid qubit.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.add(GateKind::T, &[q])
    }
    /// Appends an RX rotation. # Panics Panics on an invalid qubit.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.add(GateKind::RX(theta), &[q])
    }
    /// Appends an RY rotation. # Panics Panics on an invalid qubit.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.add(GateKind::RY(theta), &[q])
    }
    /// Appends an RZ rotation. # Panics Panics on an invalid qubit.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.add(GateKind::RZ(theta), &[q])
    }
    /// Appends a `u1` gate. # Panics Panics on an invalid qubit.
    pub fn u1(&mut self, lam: f64, q: usize) -> &mut Self {
        self.add(GateKind::U1(lam), &[q])
    }
    /// Appends a `u2` gate. # Panics Panics on an invalid qubit.
    pub fn u2(&mut self, phi: f64, lam: f64, q: usize) -> &mut Self {
        self.add(GateKind::U2(phi, lam), &[q])
    }
    /// Appends a `u3` gate. # Panics Panics on an invalid qubit.
    pub fn u3(&mut self, theta: f64, phi: f64, lam: f64, q: usize) -> &mut Self {
        self.add(GateKind::U3(theta, phi, lam), &[q])
    }
    /// Appends a CNOT gate. # Panics Panics on invalid qubits.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.add(GateKind::CX, &[control, target])
    }
    /// Appends a CZ gate. # Panics Panics on invalid qubits.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.add(GateKind::CZ, &[a, b])
    }
    /// Appends a SWAP gate. # Panics Panics on invalid qubits.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.add(GateKind::Swap, &[a, b])
    }
    /// Appends a Toffoli gate. # Panics Panics on invalid qubits.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.add(GateKind::CCX, &[c1, c2, target])
    }
    /// Appends a barrier across all qubits. # Panics Never (register is non-empty).
    pub fn barrier_all(&mut self) -> &mut Self {
        let qubits: Vec<usize> = (0..self.num_qubits).collect();
        self.append(Gate::barrier(qubits));
        self
    }
    /// Appends a measurement. # Panics Panics on invalid operands.
    pub fn measure(&mut self, qubit: usize, clbit: usize) -> &mut Self {
        self.append(Gate::measure(qubit, clbit));
        self
    }
    /// Appends a reset. # Panics Panics on an invalid qubit.
    pub fn reset(&mut self, qubit: usize) -> &mut Self {
        self.add(GateKind::Reset, &[qubit])
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit({} qubits, {} clbits)", self.num_qubits, self.num_clbits)?;
        for gate in &self.gates {
            writeln!(f, "  {gate}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for gate in iter {
            self.append(gate);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn ghz() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c
    }

    #[test]
    fn size_depth_width() {
        let c = ghz();
        assert_eq!(c.size(), 3);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.width(), 3);
        assert_eq!(c.num_tensor_factors(), 1);
    }

    #[test]
    fn parallel_gates_do_not_increase_depth() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.depth(), 1);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::new(GateKind::X, vec![5])).is_err());
        assert!(c.push(Gate::measure(0, 0)).is_err(), "no classical bits");
        let mut c = Circuit::with_clbits(2, 1);
        assert!(c.push(Gate::measure(0, 0)).is_ok());
    }

    #[test]
    fn count_ops_and_two_qubit_count() {
        let c = ghz();
        let ops = c.count_ops();
        assert_eq!(ops.get("h"), Some(&1));
        assert_eq!(ops.get("cx"), Some(&2));
        assert_eq!(c.two_qubit_gate_count(), 2);
    }

    #[test]
    fn tensor_factors_counts_components() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(3, 4);
        // Components: {0,1}, {2}, {3,4}
        assert_eq!(c.num_tensor_factors(), 3);
    }

    #[test]
    fn next_shared_gate_matches_spec() {
        let mut c = Circuit::new(3);
        c.cx(0, 1); // 0
        c.h(2); // 1 (no shared qubit)
        c.x(1); // 2 (shares qubit 1)
        c.cx(0, 1); // 3
        let next = c.next_shared_gate(0).unwrap();
        assert_eq!(next, 2);
        // Specification: no gate strictly between shares a qubit.
        for j in 1..next {
            assert!(!c.gates()[j].shares_qubit(&c.gates()[0]));
        }
        assert!(c.next_shared_gate(3).is_none());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).cx(0, 1).t(1);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.size(), 4);
        assert_eq!(inv.gates()[0].kind, GateKind::Tdg);
        assert_eq!(inv.gates()[3].kind, GateKind::H);
        let mut with_measure = Circuit::with_clbits(1, 1);
        with_measure.measure(0, 0);
        assert!(with_measure.inverse().is_err());
    }

    #[test]
    fn map_qubits_relabels() {
        let c = ghz();
        let mapped = c.clone().map_qubits(&[2, 0, 1], 3).unwrap();
        assert_eq!(mapped.gates()[0].qubits, vec![2]);
        assert_eq!(mapped.gates()[1].qubits, vec![2, 0]);
        assert_eq!(mapped.gates()[2].qubits, vec![0, 1]);
        assert!(c.map_qubits(&[0], 3).is_err());
    }

    #[test]
    fn compose_and_slice() {
        let a = ghz();
        let b = ghz();
        let both = a.concatenated(&b).unwrap();
        assert_eq!(both.size(), 6);
        let tail = both.slice(3..6);
        assert_eq!(tail.size(), 3);
        assert_eq!(tail.gates()[0].kind, GateKind::H);
    }

    #[test]
    fn delete_and_insert() {
        let mut c = ghz();
        let removed = c.delete(1);
        assert_eq!(removed.kind, GateKind::CX);
        assert_eq!(c.size(), 2);
        c.insert(1, Gate::new(GateKind::Z, vec![1]));
        assert_eq!(c.gates()[1].kind, GateKind::Z);
    }

    #[test]
    fn conditions_and_nonunitary_detection() {
        let mut c = Circuit::with_clbits(2, 1);
        assert!(!c.has_conditions());
        c.push(Gate::new(GateKind::X, vec![0]).with_classical_condition(0, true)).unwrap();
        assert!(c.has_conditions());
        assert!(!c.has_nonunitary_ops());
        c.measure(1, 0);
        assert!(c.has_nonunitary_ops());
    }

    #[test]
    fn active_qubits_and_enlarge() {
        let mut c = Circuit::new(2);
        c.h(1);
        assert_eq!(c.active_qubits(), vec![1]);
        c.enlarge_to(5);
        assert_eq!(c.num_qubits(), 5);
        c.enlarge_to(3);
        assert_eq!(c.num_qubits(), 5, "enlarge never shrinks");
    }

    #[test]
    fn depth_accounts_for_classical_conditions() {
        let mut c = Circuit::with_clbits(2, 1);
        c.measure(0, 0);
        c.push(Gate::new(GateKind::X, vec![1]).with_classical_condition(0, true)).unwrap();
        // The conditioned X must wait for the measurement through c[0].
        assert_eq!(c.depth(), 2);
    }
}

//! DAG circuit representation, mirroring Qiskit's `DAGCircuit`.
//!
//! The baseline (unverified) compiler in `qc-passes` operates on this
//! representation; Giallar's verified library operates on the gate-list
//! [`Circuit`].  The Qiskit wrapper described in §4 of the paper converts
//! between the two around every verified pass, and this module provides the
//! lossless conversions it relies on.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::circuit::Circuit;
use crate::error::Result;
use crate::gate::{ConditionKind, Gate};

/// Identifier of an operation node inside a [`DagCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A directed acyclic graph of gate instructions with one edge per data
/// dependency (shared qubit, classical bit, or condition bit).
///
/// The DAG stores only its registers and its gates in a topological order
/// (insertion order).  The edges are a function of that list, so they are
/// derived on demand by the few queries that read them rather than kept up
/// to date on every append: building a DAG from a gate list is a move.
///
/// The default value is the empty DAG over no wires, which lets a pass move
/// the circuit out with `std::mem::take(dag).into_circuit()`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DagCircuit {
    num_qubits: usize,
    num_clbits: usize,
    gates: Vec<Gate>,
}

/// The edges of a [`DagCircuit`], derived from its gate list.
struct Edges {
    /// Direct predecessors of every node, flattened in node order: node
    /// `i`'s are `preds[pred_end[i - 1]..pred_end[i]]`, in wire order.
    preds: Vec<usize>,
    pred_end: Vec<usize>,
    /// Node order along each qubit wire.
    qubit_wires: Vec<Vec<usize>>,
}

impl Edges {
    /// The direct predecessors of node `id`, as indices.
    fn preds_of(&self, id: usize) -> &[usize] {
        let start = if id == 0 { 0 } else { self.pred_end[id - 1] };
        &self.preds[start..self.pred_end[id]]
    }
}

impl DagCircuit {
    /// Creates an empty DAG over the given registers.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        DagCircuit { num_qubits, num_clbits, gates: Vec::new() }
    }

    /// Builds a DAG from a gate-list circuit, cloning its gates.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        DagCircuit::from_owned(circuit.clone())
    }

    /// Builds a DAG from a gate-list circuit, moving its gates in.
    pub fn from_owned(circuit: Circuit) -> Self {
        let (num_qubits, num_clbits) = (circuit.num_qubits(), circuit.num_clbits());
        DagCircuit { num_qubits, num_clbits, gates: circuit.into_gates() }
    }

    /// Converts the DAG back into a gate list using a deterministic
    /// topological order (insertion order, which is always valid because
    /// nodes are only appended at the back of their wires).
    ///
    /// # Errors
    ///
    /// Returns the first gate that does not fit the registers.
    pub fn to_circuit(&self) -> Result<Circuit> {
        gate_list(self.num_qubits, self.num_clbits, self.gates.iter().cloned())
    }

    /// Consumes the DAG and returns its gates as a list in the order of
    /// [`DagCircuit::to_circuit`], moving every gate and validating each one
    /// through [`Circuit::push`].
    ///
    /// # Errors
    ///
    /// Returns the first gate that does not fit the registers.
    pub fn into_circuit(self) -> Result<Circuit> {
        gate_list(self.num_qubits, self.num_clbits, self.gates.into_iter())
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of operation nodes.
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// Qiskit's `width()`: qubits plus classical bits.
    pub fn width(&self) -> usize {
        self.num_qubits + self.num_clbits
    }

    /// The gate stored at a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is stale.
    pub fn gate(&self, node: NodeId) -> &Gate {
        &self.gates[node.0]
    }

    /// Appends a gate at the back of its wires and returns its node id.
    /// The gate depends on the last node of each wire it touches: its
    /// qubits, its classical bits, then its condition bit.
    pub fn push_gate(&mut self, gate: Gate) -> NodeId {
        self.gates.push(gate);
        NodeId(self.gates.len() - 1)
    }

    /// Derives the edges from the gate list: each node depends on the
    /// previous node of every wire it touches — its qubits, its classical
    /// bits, then its condition bit — listed once each, in that order.
    ///
    /// # Panics
    ///
    /// Panics when a gate names a wire outside the registers (a gate list
    /// validated by [`Circuit::push`] never does).
    fn edges(&self) -> Edges {
        let mut edges = Edges {
            preds: Vec::with_capacity(self.gates.len()),
            pred_end: Vec::with_capacity(self.gates.len()),
            qubit_wires: vec![Vec::new(); self.num_qubits],
        };
        let mut clbit_wires: Vec<Vec<usize>> = vec![Vec::new(); self.num_clbits];
        for (id, gate) in self.gates.iter().enumerate() {
            let first = edges.preds.len();
            let condition = match gate.condition.map(|cond| cond.kind) {
                Some(ConditionKind::Classical { bit, .. }) => Some((false, bit)),
                Some(ConditionKind::Quantum { qubit }) if !gate.qubits.contains(&qubit) => {
                    Some((true, qubit))
                }
                _ => None,
            };
            let qubits = gate.qubits.iter().map(|&q| (true, q));
            let clbits = gate.clbits.iter().map(|&c| (false, c));
            for (is_qubit, wire) in qubits.chain(clbits).chain(condition) {
                let wire =
                    if is_qubit { &mut edges.qubit_wires[wire] } else { &mut clbit_wires[wire] };
                if let Some(&last) = wire.last() {
                    if !edges.preds[first..].contains(&last) {
                        edges.preds.push(last);
                    }
                }
                wire.push(id);
            }
            edges.pred_end.push(edges.preds.len());
        }
        edges
    }

    /// All operation nodes in a deterministic topological order.
    pub fn topological_op_nodes(&self) -> Vec<NodeId> {
        (0..self.gates.len()).map(NodeId).collect()
    }

    /// Direct predecessors of a node.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges().preds_of(node.0).iter().map(|&i| NodeId(i)).collect()
    }

    /// Nodes grouped into layers: layer `k` contains the nodes whose longest
    /// dependency chain from an input has length `k` (Qiskit's `layers()`).
    pub fn layers(&self) -> Vec<Vec<NodeId>> {
        let edges = self.edges();
        let mut level = vec![0usize; self.gates.len()];
        let mut max_level = 0usize;
        for id in 0..self.gates.len() {
            let l = edges.preds_of(id).iter().map(|&p| level[p] + 1).max().unwrap_or(0);
            level[id] = l;
            max_level = max_level.max(l);
        }
        let mut layers = vec![Vec::new(); if self.gates.is_empty() { 0 } else { max_level + 1 }];
        for id in 0..self.gates.len() {
            layers[level[id]].push(NodeId(id));
        }
        layers
    }

    /// DAG depth: number of layers.
    pub fn depth(&self) -> usize {
        self.layers().len()
    }

    /// The longest dependency path through the DAG, as a list of nodes.
    pub fn longest_path(&self) -> Vec<NodeId> {
        if self.gates.is_empty() {
            return Vec::new();
        }
        let edges = self.edges();
        let n = self.gates.len();
        let mut best_len = vec![1usize; n];
        let mut best_prev: Vec<Option<usize>> = vec![None; n];
        for id in 0..n {
            for &p in edges.preds_of(id) {
                if best_len[p] + 1 > best_len[id] {
                    best_len[id] = best_len[p] + 1;
                    best_prev[id] = Some(p);
                }
            }
        }
        let mut end = 0usize;
        for id in 0..n {
            if best_len[id] > best_len[end] {
                end = id;
            }
        }
        let mut path = vec![end];
        while let Some(prev) = best_prev[*path.last().unwrap()] {
            path.push(prev);
        }
        path.reverse();
        path.into_iter().map(NodeId).collect()
    }

    /// Length (in nodes) of the longest path.
    pub fn longest_path_length(&self) -> usize {
        self.longest_path().len()
    }

    /// Histogram of operation names.
    pub fn count_ops(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for gate in &self.gates {
            *map.entry(gate.name().to_string()).or_insert(0) += 1;
        }
        map
    }

    /// Histogram of operation names restricted to the longest path
    /// (Qiskit's `CountOpsLongestPath`).
    pub fn count_ops_longest_path(&self) -> BTreeMap<String, usize> {
        let mut map = BTreeMap::new();
        for node in self.longest_path() {
            *map.entry(self.gate(node).name().to_string()).or_insert(0) += 1;
        }
        map
    }

    /// Maximal runs of consecutive single-qubit gates matching `pred` along
    /// each qubit wire (Qiskit's `collect_runs`, used by `Optimize1qGates`).
    /// A run is broken by any node not matching `pred` or touching more than
    /// one qubit.
    pub fn collect_1q_runs<F>(&self, pred: F) -> Vec<Vec<NodeId>>
    where
        F: Fn(&Gate) -> bool,
    {
        let mut runs = Vec::new();
        for wire in &self.edges().qubit_wires {
            let mut current: Vec<NodeId> = Vec::new();
            for &id in wire {
                let gate = &self.gates[id];
                if gate.num_qubits() == 1 && !gate.is_directive() && pred(gate) {
                    current.push(NodeId(id));
                } else {
                    if current.len() > 1 {
                        runs.push(std::mem::take(&mut current));
                    } else {
                        current.clear();
                    }
                }
            }
            if current.len() > 1 {
                runs.push(current);
            }
        }
        runs
    }

    /// The nodes on a given qubit wire in order.
    pub fn wire(&self, qubit: usize) -> Vec<NodeId> {
        self.edges().qubit_wires[qubit].iter().map(|&i| NodeId(i)).collect()
    }

    /// Returns `true` when the node is the last operation on every one of its
    /// qubit wires (used by `RemoveFinalMeasurements` and
    /// `BarrierBeforeFinalMeasurements`).
    pub fn is_final_on_its_wires(&self, node: NodeId) -> bool {
        let wires = self.edges().qubit_wires;
        self.gates[node.0].qubits.iter().all(|&q| wires[q].last() == Some(&node.0))
    }
}

/// Pushes `gates` in order onto a fresh circuit over the given registers.
fn gate_list(
    num_qubits: usize,
    num_clbits: usize,
    gates: impl ExactSizeIterator<Item = Gate>,
) -> Result<Circuit> {
    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits);
    circuit.reserve(gates.len());
    for gate in gates {
        circuit.push(gate)?;
    }
    Ok(circuit)
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
    fn roundtrip_preserves_gates() {
        let c = ghz();
        let dag = DagCircuit::from_circuit(&c);
        let back = dag.to_circuit().unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn owned_conversions_match_the_borrowing_ones() {
        let mut c = Circuit::with_clbits(3, 1);
        c.h(0).cx(0, 1).cx(1, 2).measure(2, 0);
        c.push(Gate::new(GateKind::X, vec![1]).with_classical_condition(0, true)).unwrap();
        let dag = DagCircuit::from_circuit(&c);
        assert_eq!(DagCircuit::from_owned(c.clone()), dag);
        assert_eq!(dag.clone().into_circuit().unwrap(), dag.to_circuit().unwrap());
        assert_eq!(std::mem::take(&mut dag.clone()).into_circuit().unwrap(), c);
    }

    #[test]
    fn dependencies_follow_wires() {
        let dag = DagCircuit::from_circuit(&ghz());
        // h(0) -> cx(0,1) -> cx(1,2)
        assert_eq!(dag.predecessors(NodeId(0)), vec![]);
        assert_eq!(dag.predecessors(NodeId(1)), vec![NodeId(0)]);
        assert_eq!(dag.predecessors(NodeId(2)), vec![NodeId(1)]);
    }

    #[test]
    fn layers_and_depth() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3).cx(0, 1).cx(2, 3).cx(1, 2);
        let dag = DagCircuit::from_circuit(&c);
        let layers = dag.layers();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].len(), 4);
        assert_eq!(layers[1].len(), 2);
        assert_eq!(layers[2].len(), 1);
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.depth(), c.depth());
    }

    #[test]
    fn longest_path_matches_depth() {
        let dag = DagCircuit::from_circuit(&ghz());
        assert_eq!(dag.longest_path_length(), 3);
        let path = dag.longest_path();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let ops = dag.count_ops_longest_path();
        assert_eq!(ops.get("cx"), Some(&2));
        assert_eq!(ops.get("h"), Some(&1));
    }

    #[test]
    fn collect_1q_runs_finds_u_gate_chains() {
        let mut c = Circuit::new(2);
        c.u1(0.1, 0).u2(0.2, 0.3, 0).cx(0, 1).u1(0.4, 0).u1(0.5, 1);
        let dag = DagCircuit::from_circuit(&c);
        let runs = dag.collect_1q_runs(|g| g.kind.is_u_gate());
        // Only the initial chain on qubit 0 has length > 1.
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 2);
        assert_eq!(dag.gate(runs[0][0]).kind, GateKind::U1(0.1));
    }

    #[test]
    fn conditions_create_classical_dependencies() {
        let mut c = Circuit::with_clbits(2, 1);
        c.measure(0, 0);
        c.push(Gate::new(GateKind::X, vec![1]).with_classical_condition(0, true)).unwrap();
        let dag = DagCircuit::from_circuit(&c);
        assert_eq!(dag.predecessors(NodeId(1)), vec![NodeId(0)]);
    }

    #[test]
    fn final_node_detection() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).cx(0, 1);
        c.measure(0, 0);
        c.measure(1, 1);
        let dag = DagCircuit::from_circuit(&c);
        assert!(dag.is_final_on_its_wires(NodeId(2)));
        assert!(dag.is_final_on_its_wires(NodeId(3)));
        assert!(!dag.is_final_on_its_wires(NodeId(0)));
    }

    #[test]
    fn empty_dag() {
        let dag = DagCircuit::new(3, 0);
        assert_eq!(dag.size(), 0);
        assert_eq!(dag.depth(), 0);
        assert!(dag.layers().is_empty());
        assert!(dag.longest_path().is_empty());
    }
}

//! Routing (swap-insertion) passes and the coupling-map checker.
//!
//! Routing passes assume the circuit is already expressed over physical
//! qubits (`ApplyLayout` has run).  They insert SWAP gates so that every
//! 2-qubit gate acts on coupled qubits, and record the final physical→logical
//! permutation in [`PropertySet::final_layout`].

use std::collections::VecDeque;

use qc_ir::{Circuit, CouplingMap, DagCircuit, Gate, GateKind, Layout, QcError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::pass::{AnalysisValue, PropertySet, TranspilerPass};

/// Shared state of a routing run: the output circuit and the running layout
/// (physical wire → original wire of the input circuit).
struct RoutingState {
    output: Circuit,
    layout: Layout,
}

impl RoutingState {
    fn new(num_qubits: usize, num_clbits: usize) -> Self {
        RoutingState {
            output: Circuit::with_clbits(num_qubits, num_clbits),
            layout: Layout::trivial(num_qubits),
        }
    }

    /// Physical location currently holding original wire `w`.
    fn physical_of(&self, wire: usize) -> usize {
        self.layout.logical_to_physical(wire)
    }

    /// Emits a gate of the input circuit, translating its wires to their
    /// current physical locations.
    fn emit(&mut self, mut gate: Gate) -> Result<(), QcError> {
        for q in &mut gate.qubits {
            *q = self.physical_of(*q);
        }
        self.output.push(gate)
    }

    /// Inserts a SWAP between two physical qubits and updates the layout.
    fn insert_swap(&mut self, a: usize, b: usize) -> Result<(), QcError> {
        self.output.push(Gate::new(GateKind::Swap, vec![a, b]))?;
        self.layout.swap_physical(a, b);
        Ok(())
    }
}

fn finish_routing(
    dag: &mut DagCircuit,
    props: &mut PropertySet,
    state: RoutingState,
) -> Result<(), QcError> {
    props.final_layout = Some(state.layout);
    *dag = DagCircuit::from_owned(state.output);
    Ok(())
}

/// Moves the circuit out of `dag` for routing, after checking that it fits
/// the device.  A circuit refused by the size check is left in place; after
/// any later error `dag` is empty (see [`TranspilerPass::run`]).
fn take_routable(dag: &mut DagCircuit, coupling: &CouplingMap) -> Result<Circuit, QcError> {
    if dag.num_qubits() > coupling.num_qubits() {
        return Err(QcError::Invariant("circuit larger than the device".to_string()));
    }
    std::mem::take(dag).into_circuit()
}

/// `BasicSwap`: route each 2-qubit gate by walking one operand along the
/// shortest path towards the other.
#[derive(Debug, Clone)]
pub struct BasicSwap {
    coupling: CouplingMap,
}

impl BasicSwap {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        BasicSwap { coupling }
    }
}

impl TranspilerPass for BasicSwap {
    fn name(&self) -> &'static str {
        "BasicSwap"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = take_routable(dag, &self.coupling)?;
        let mut state = RoutingState::new(circuit.num_qubits(), circuit.num_clbits());
        for gate in circuit.into_gates() {
            if is_two_qubit_op(&gate) {
                let a = state.physical_of(gate.qubits[0]);
                let b = state.physical_of(gate.qubits[1]);
                if !self.coupling.connected(a, b) {
                    let path = self
                        .coupling
                        .shortest_path(a, b)
                        .ok_or(QcError::CouplingViolation { a, b })?;
                    // Walk the first operand along the path until adjacent.
                    for window in path.windows(2).take(path.len().saturating_sub(2)) {
                        state.insert_swap(window[0], window[1])?;
                    }
                }
            }
            state.emit(gate)?;
        }
        finish_routing(dag, props, state)
    }
}

/// Termination/behaviour mode of [`LookaheadSwap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookaheadMode {
    /// The original (buggy) behaviour: when no single SWAP reduces the total
    /// distance, deterministically insert a SWAP on the first edge — which
    /// can undo itself forever (Figure 10 of the paper).
    Buggy,
    /// The fixed behaviour: break ties with a seeded random SWAP.
    Fixed,
}

/// `LookaheadSwap`: greedy swap selection minimising the summed distance of
/// the next few unsatisfied 2-qubit gates.
#[derive(Debug, Clone)]
pub struct LookaheadSwap {
    coupling: CouplingMap,
    lookahead: usize,
    mode: LookaheadMode,
    seed: u64,
    /// Safety budget on inserted SWAPs, after which the buggy variant reports
    /// non-termination instead of spinning forever.
    swap_budget: usize,
}

impl LookaheadSwap {
    /// The fixed (randomised tie-breaking) variant.
    pub fn new(coupling: CouplingMap, seed: u64) -> Self {
        LookaheadSwap {
            coupling,
            lookahead: 4,
            mode: LookaheadMode::Fixed,
            seed,
            swap_budget: 10_000,
        }
    }

    /// The original Qiskit behaviour containing the non-termination bug of
    /// §7.3: deterministic tie-breaking that can insert two cancelling SWAPs
    /// forever.  The run aborts with an error once the swap budget is
    /// exhausted so callers can observe the divergence.
    pub fn buggy(coupling: CouplingMap) -> Self {
        LookaheadSwap {
            coupling,
            lookahead: 4,
            mode: LookaheadMode::Buggy,
            seed: 0,
            swap_budget: 512,
        }
    }
}

/// Summed device distance between the operands of each pending gate (given
/// as its pair of logical qubits) under `layout`.
fn total_distance(pending: &[(usize, usize)], layout: &Layout, dist: &[Vec<usize>]) -> usize {
    pending
        .iter()
        .map(|&(a, b)| dist[layout.logical_to_physical(a)][layout.logical_to_physical(b)])
        .sum()
}

/// A gate routing must place on coupled qubits: two operands, not a barrier.
fn is_two_qubit_op(gate: &Gate) -> bool {
    gate.num_qubits() == 2 && !gate.is_directive()
}

impl TranspilerPass for LookaheadSwap {
    fn name(&self) -> &'static str {
        "LookaheadSwap"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = take_routable(dag, &self.coupling)?;
        let dist = self.coupling.distance_matrix();
        let edges: Vec<(usize, usize)> = self.coupling.directed_edges().collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = RoutingState::new(circuit.num_qubits(), circuit.num_clbits());
        state.output.reserve(circuit.size());
        let mut swaps_inserted = 0usize;
        let mut remain: VecDeque<Gate> = circuit.into_gates().into();
        // The next `lookahead` two-qubit gates, as pairs of input wires.
        let mut pending: Vec<(usize, usize)> = Vec::with_capacity(self.lookahead);
        while let Some(gate) = remain.front() {
            let routable = !is_two_qubit_op(gate) || {
                let a = state.physical_of(gate.qubits[0]);
                let b = state.physical_of(gate.qubits[1]);
                self.coupling.connected(a, b)
            };
            if routable {
                state.emit(remain.pop_front().expect("the front gate exists"))?;
                continue;
            }
            // Choose a SWAP: score each edge by swapping the layout in place
            // and swapping it back.
            pending.clear();
            pending.extend(
                remain
                    .iter()
                    .filter(|g| is_two_qubit_op(g))
                    .take(self.lookahead)
                    .map(|g| (g.qubits[0], g.qubits[1])),
            );
            let current = total_distance(&pending, &state.layout, &dist);
            let mut best: Option<((usize, usize), usize)> = None;
            for &(a, b) in &edges {
                state.layout.swap_physical(a, b);
                let score = total_distance(&pending, &state.layout, &dist);
                state.layout.swap_physical(a, b);
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some(((a, b), score));
                }
            }
            let (edge, best_score) = best.ok_or_else(|| {
                QcError::Invariant("device has no edges to route over".to_string())
            })?;
            let chosen = if best_score < current {
                edge
            } else {
                match self.mode {
                    // The bug: always the first edge, which the next iteration
                    // will undo, looping forever on Figure 10's configuration.
                    LookaheadMode::Buggy => edges[0],
                    // The fix: a random edge breaks the cycle.
                    LookaheadMode::Fixed => edges[rng.random_range(0..edges.len())],
                }
            };
            state.insert_swap(chosen.0, chosen.1)?;
            swaps_inserted += 1;
            if swaps_inserted > self.swap_budget {
                return Err(QcError::Invariant(format!(
                    "LookaheadSwap did not terminate within {} swaps (non-termination bug)",
                    self.swap_budget
                )));
            }
        }
        props.set("lookahead_swaps_inserted", AnalysisValue::Int(swaps_inserted));
        finish_routing(dag, props, state)
    }
}

/// `SabreSwap`: front-layer based heuristic routing (simplified SABRE).
#[derive(Debug, Clone)]
pub struct SabreSwap {
    coupling: CouplingMap,
    seed: u64,
}

impl SabreSwap {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap, seed: u64) -> Self {
        SabreSwap { coupling, seed }
    }
}

impl TranspilerPass for SabreSwap {
    fn name(&self) -> &'static str {
        "SabreSwap"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        // The simplified SABRE uses the same machinery as LookaheadSwap with a
        // shorter horizon (front layer only) and randomised tie-breaking.
        let inner = LookaheadSwap {
            coupling: self.coupling.clone(),
            lookahead: 1,
            mode: LookaheadMode::Fixed,
            seed: self.seed,
            swap_budget: 100_000,
        };
        inner.run(dag, props)
    }
}

/// `StochasticSwap`: routes by random trial swaps (the pass Giallar cannot
/// verify because of its randomised algorithm).
#[derive(Debug, Clone)]
pub struct StochasticSwap {
    coupling: CouplingMap,
    seed: u64,
    trials: usize,
}

impl StochasticSwap {
    /// Creates the pass with a number of random trials per gate.
    pub fn new(coupling: CouplingMap, seed: u64, trials: usize) -> Self {
        StochasticSwap { coupling, seed, trials }
    }
}

impl TranspilerPass for StochasticSwap {
    fn name(&self) -> &'static str {
        "StochasticSwap"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let circuit = std::mem::take(dag).into_circuit()?;
        let dist = self.coupling.distance_matrix();
        let edges: Vec<(usize, usize)> = self.coupling.directed_edges().collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = RoutingState::new(circuit.num_qubits(), circuit.num_clbits());
        for gate in circuit.into_gates() {
            if is_two_qubit_op(&gate) {
                let mut guard = 0usize;
                loop {
                    let a = state.physical_of(gate.qubits[0]);
                    let b = state.physical_of(gate.qubits[1]);
                    if self.coupling.connected(a, b) {
                        break;
                    }
                    // Try a few random swaps, keep the best one.
                    let mut best: Option<((usize, usize), usize)> = None;
                    for _ in 0..self.trials {
                        let (x, y) = edges[rng.random_range(0..edges.len())];
                        state.layout.swap_physical(x, y);
                        let score = total_distance(
                            &[(gate.qubits[0], gate.qubits[1])],
                            &state.layout,
                            &dist,
                        );
                        state.layout.swap_physical(x, y);
                        if best.is_none_or(|(_, s)| score < s) {
                            best = Some(((x, y), score));
                        }
                    }
                    let ((x, y), _) = best.expect("at least one trial");
                    state.insert_swap(x, y)?;
                    guard += 1;
                    if guard > 10_000 {
                        return Err(QcError::Invariant(
                            "StochasticSwap exceeded its swap budget".to_string(),
                        ));
                    }
                }
            }
            state.emit(gate)?;
        }
        finish_routing(dag, props, state)
    }
}

/// `CheckMap`: analysis pass recording whether every 2-qubit gate respects
/// the coupling map.
#[derive(Debug, Clone)]
pub struct CheckMap {
    coupling: CouplingMap,
}

impl CheckMap {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        CheckMap { coupling }
    }
}

impl TranspilerPass for CheckMap {
    fn name(&self) -> &'static str {
        "CheckMap"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let ok = dag.topological_op_nodes().iter().all(|&node| {
            let gate = dag.gate(node);
            gate.num_qubits() != 2
                || gate.is_directive()
                || self.coupling.connected(gate.qubits[0], gate.qubits[1])
        });
        props.set("is_swap_mapped", AnalysisValue::Bool(ok));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::unitary::equivalent_up_to_permutation;

    fn needs_routing() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(1, 3).cx(0, 2).cx(2, 3);
        c
    }

    fn routed_respects_map(circuit: &Circuit, coupling: &CouplingMap) -> bool {
        circuit.iter().all(|g| {
            g.num_qubits() != 2 || g.is_directive() || coupling.connected(g.qubits[0], g.qubits[1])
        })
    }

    fn check_routing_pass(pass: &dyn TranspilerPass, coupling: &CouplingMap) {
        let original = needs_routing();
        let mut dag = DagCircuit::from_circuit(&original);
        let mut props = PropertySet::new();
        pass.run(&mut dag, &mut props).unwrap();
        let routed = dag.to_circuit().unwrap();
        assert!(routed_respects_map(&routed, coupling), "{}: output violates map", pass.name());
        let final_layout = props.final_layout.expect("routing records the final layout");
        // Semantics: routed ≡ original up to the tracked permutation.
        let perm = final_layout.as_logical_to_physical().to_vec();
        assert!(
            equivalent_up_to_permutation(&original, &routed, &perm).unwrap(),
            "{}: output is not equivalent to the input",
            pass.name()
        );
    }

    #[test]
    fn basic_swap_routes_and_preserves_semantics() {
        let coupling = CouplingMap::line(4);
        check_routing_pass(&BasicSwap::new(coupling.clone()), &coupling);
    }

    #[test]
    fn lookahead_swap_routes_and_preserves_semantics() {
        let coupling = CouplingMap::line(4);
        check_routing_pass(&LookaheadSwap::new(coupling.clone(), 5), &coupling);
    }

    #[test]
    fn sabre_swap_routes_and_preserves_semantics() {
        let coupling = CouplingMap::ring(4);
        check_routing_pass(&SabreSwap::new(coupling.clone(), 9), &coupling);
    }

    #[test]
    fn stochastic_swap_routes_and_preserves_semantics() {
        let coupling = CouplingMap::line(4);
        check_routing_pass(&StochasticSwap::new(coupling.clone(), 13, 8), &coupling);
    }

    #[test]
    fn already_routed_circuits_are_untouched() {
        let coupling = CouplingMap::line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        BasicSwap::new(coupling).run(&mut dag, &mut props).unwrap();
        assert_eq!(dag.to_circuit().unwrap(), c);
    }

    #[test]
    fn buggy_lookahead_diverges_on_the_figure_10_configuration() {
        // Four logical qubits on Q0, Q8, Q7, Q15 of the IBM-16 device with
        // the interaction pattern of Figure 10b.
        let coupling = CouplingMap::ibm16();
        let mut c = Circuit::new(16);
        c.cx(0, 8).cx(0, 7).cx(8, 15).cx(0, 15);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        let result = LookaheadSwap::buggy(coupling.clone()).run(&mut dag, &mut props);
        assert!(result.is_err(), "the buggy lookahead pass should exhaust its swap budget");
        // The fixed pass terminates on the same input.
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        LookaheadSwap::new(coupling.clone(), 3).run(&mut dag, &mut props).unwrap();
        let routed = dag.to_circuit().unwrap();
        assert!(routed_respects_map(&routed, &coupling));
    }

    #[test]
    fn check_map_reports_violations() {
        let coupling = CouplingMap::line(3);
        let mut bad = Circuit::new(3);
        bad.cx(0, 2);
        let mut dag = DagCircuit::from_circuit(&bad);
        let mut props = PropertySet::new();
        CheckMap::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_swap_mapped"), Some(false));
        let mut good = Circuit::new(3);
        good.cx(0, 1).cx(1, 2);
        let mut dag = DagCircuit::from_circuit(&good);
        CheckMap::new(coupling).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("is_swap_mapped"), Some(true));
    }
}

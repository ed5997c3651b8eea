//! Reference equivalence for the compile-path kernels.
//!
//! `CouplingMap` answers neighbour, shortest-path and distance queries from
//! adjacency lists it maintains as edges are added, `Gate::validate` checks
//! short operand lists pairwise without sorting a copy, and `DagCircuit`
//! keeps its predecessor lists flattened.  This file
//! keeps the straightforward versions those replaced — an edge scan per
//! query, a sort and a scan per gate, a per-wire walk of the gate list — and
//! checks on random inputs that the fast kernels answer exactly as they do,
//! including on maps listing duplicate and reversed edges.

use std::collections::VecDeque;

use giallar::ir::{Circuit, CouplingMap, DagCircuit, Gate, GateKind, NodeId, QcError};
use proptest::prelude::*;

/// A random map: up to 12 qubits, edges drawn with repeats, and every third
/// edge also listed in the reverse direction.
fn map_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..12, prop::collection::vec((0usize..12, 0usize..12), 0..30)).prop_map(|(n, raw)| {
        let mut edges = Vec::new();
        for (i, (a, b)) in raw.into_iter().enumerate() {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            edges.push((a, b));
            if i % 3 == 0 {
                edges.push((b, a));
            }
        }
        (n, edges)
    })
}

fn reference_neighbors(edges: &[(usize, usize)], qubit: usize) -> Vec<usize> {
    let mut out: Vec<usize> = edges
        .iter()
        .filter_map(|&(a, b)| {
            if a == qubit {
                Some(b)
            } else if b == qubit {
                Some(a)
            } else {
                None
            }
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn reference_shortest_path(
    n: usize,
    edges: &[(usize, usize)],
    a: usize,
    b: usize,
) -> Option<Vec<usize>> {
    if a == b {
        return Some(vec![a]);
    }
    let mut prev = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::from([a]);
    visited[a] = true;
    while let Some(cur) = queue.pop_front() {
        for next in reference_neighbors(edges, cur) {
            if !visited[next] {
                visited[next] = true;
                prev[next] = cur;
                if next == b {
                    let mut path = vec![b];
                    let mut p = cur;
                    while p != a {
                        path.push(p);
                        p = prev[p];
                    }
                    path.push(a);
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

fn reference_distance_matrix(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    (0..n)
        .map(|start| {
            let mut row = vec![usize::MAX; n];
            row[start] = 0;
            let mut queue = VecDeque::from([start]);
            while let Some(cur) = queue.pop_front() {
                for next in reference_neighbors(edges, cur) {
                    if row[next] == usize::MAX {
                        row[next] = row[cur] + 1;
                        queue.push_back(next);
                    }
                }
            }
            row
        })
        .collect()
}

/// The smallest repeated operand, found by sorting a copy.
fn reference_duplicate(qubits: &[usize]) -> Option<usize> {
    let mut sorted = qubits.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// A random circuit over 4 qubits and 2 classical bits, mixing one-, two-
/// and three-qubit gates, barriers, measurements and conditioned gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    let gate =
        (0usize..6, 0usize..4, 0usize..4, 0usize..4, 0usize..2).prop_map(|(kind, a, b, c, bit)| {
            let (b, c) = ((a + 1 + b % 3) % 4, (a + 1 + (b + 1 + c % 2) % 3) % 4);
            match kind {
                0 => Gate::new(GateKind::H, vec![a]),
                1 => Gate::new(GateKind::CX, vec![a, b]),
                2 => Gate::new(GateKind::CCX, vec![a, b, c]),
                3 => Gate::barrier(vec![a.min(b), a.max(b)]),
                4 => Gate::measure(a, bit),
                _ => Gate::new(GateKind::X, vec![a]).with_classical_condition(bit, true),
            }
        });
    prop::collection::vec(gate, 0..24).prop_map(|gates| {
        let mut circuit = Circuit::with_clbits(4, 2);
        for gate in gates {
            circuit.push(gate).expect("generated gates are valid");
        }
        circuit
    })
}

/// Predecessors by walking the gate list: for each wire a gate touches (its
/// qubits, its classical bits, then its condition bit), the last earlier
/// gate on that wire, each listed once.
fn reference_predecessors(circuit: &Circuit) -> Vec<Vec<usize>> {
    let gates = circuit.gates();
    (0..gates.len())
        .map(|id| {
            let gate = &gates[id];
            let mut wires: Vec<(bool, usize)> = gate.qubits.iter().map(|&q| (true, q)).collect();
            wires.extend(gate.clbits.iter().map(|&c| (false, c)));
            if let Some(cond) = gate.condition {
                if let giallar::ir::ConditionKind::Classical { bit, .. } = cond.kind {
                    wires.push((false, bit));
                }
            }
            let mut preds = Vec::new();
            for (is_qubit, wire) in wires {
                let on_wire = |g: &Gate| {
                    if is_qubit {
                        g.qubits.contains(&wire)
                    } else {
                        g.clbits.contains(&wire)
                            || g.condition.is_some_and(|c| {
                                c.kind
                                    == giallar::ir::ConditionKind::Classical {
                                        bit: wire,
                                        value: true,
                                    }
                            })
                    }
                };
                if let Some(last) = (0..id).rev().find(|&j| on_wire(&gates[j])) {
                    if !preds.contains(&last) {
                        preds.push(last);
                    }
                }
            }
            preds
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dag_edges_match_the_gate_list_walk(circuit in circuit_strategy()) {
        let dag = DagCircuit::from_circuit(&circuit);
        let preds = reference_predecessors(&circuit);
        for (id, expected) in preds.iter().enumerate() {
            let expected: Vec<NodeId> = expected.iter().map(|&p| NodeId(p)).collect();
            prop_assert_eq!(dag.predecessors(NodeId(id)), expected);
        }
        let mut level = vec![0usize; preds.len()];
        for (id, pred) in preds.iter().enumerate() {
            level[id] = pred.iter().map(|&p| level[p] + 1).max().unwrap_or(0);
        }
        let depth = level.iter().max().map_or(0, |&l| l + 1);
        prop_assert_eq!(dag.depth(), depth);
        prop_assert_eq!(circuit.depth(), depth);
        prop_assert_eq!(dag.longest_path_length(), depth);
        prop_assert_eq!(dag.into_circuit().unwrap(), circuit);
    }

    #[test]
    fn device_queries_match_the_edge_scan(drawn in map_strategy()) {
        let (n, edges) = drawn;
        let map = CouplingMap::from_edges(n, &edges).unwrap();
        let matrix = map.distance_matrix();
        prop_assert_eq!(&matrix, &reference_distance_matrix(n, &edges));
        let reachable = matrix.first().is_none_or(|row| row.iter().all(|&d| d != usize::MAX));
        prop_assert_eq!(map.is_connected(), reachable);
        for a in 0..n {
            prop_assert_eq!(map.neighbors(a), reference_neighbors(&edges, a).as_slice());
            for b in 0..n {
                prop_assert_eq!(map.shortest_path(a, b), reference_shortest_path(n, &edges, a, b));
                let listed = edges.contains(&(a, b)) || edges.contains(&(b, a));
                prop_assert_eq!(map.connected(a, b), listed);
            }
        }
    }

    #[test]
    fn validate_reports_the_smallest_repeated_operand(
        qubits in prop::collection::vec(0usize..6, 1..14),
        sorted in 0usize..3,
    ) {
        let mut qubits = qubits;
        if sorted == 0 {
            qubits.sort_unstable();
        }
        let expected = reference_duplicate(&qubits).map(QcError::DuplicateQubit);
        prop_assert_eq!(Gate::barrier(qubits.clone()).validate().err(), expected.clone());
        if qubits.len() == 3 {
            prop_assert_eq!(Gate::new(GateKind::CCX, qubits).validate().err(), expected);
        }
    }
}

#[test]
fn validate_handles_long_unsorted_barriers() {
    let mut qubits: Vec<usize> = (0..40).rev().collect();
    qubits.extend([17, 3, 39]);
    let barrier = Gate::barrier(qubits);
    assert_eq!(barrier.validate(), Err(QcError::DuplicateQubit(3)));
    let distinct = Gate::barrier((0..40).rev().collect());
    assert_eq!(distinct.validate(), Ok(()));
}

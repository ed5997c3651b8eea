//! Hardware coupling maps (qubit connectivity graphs).
//!
//! A coupling map records between which physical qubit pairs a two-qubit gate
//! can be executed.  Routing passes insert SWAP gates until every two-qubit
//! gate in the circuit respects the map.  The constructors include the IBM
//! 16-qubit device from Figure 10 of the paper, on which the original
//! `lookahead_swap` pass fails to terminate.
//!
//! Every map keeps sorted adjacency lists next to its edge set, so a
//! neighbour query is a slice read and one breadth-first search costs
//! O(V + E); the all-pairs [`CouplingMap::distance_matrix`] is V such
//! searches.

use std::collections::{BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::error::{escaped, QcError, Result};

/// An undirected-by-default coupling graph over physical qubits.
///
/// Directions are tracked so that `CheckCXDirection`/`GateDirection` passes
/// can be expressed, but distances and routing treat edges as undirected
/// (CNOT direction can always be reversed with Hadamards).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CouplingMap {
    num_qubits: usize,
    /// Directed edges `(control, target)` as listed by the backend.
    edges: BTreeSet<(usize, usize)>,
    /// `adjacency[q]`: the neighbours of `q` in either direction, sorted and
    /// duplicate-free; [`CouplingMap::add_edge`] keeps it in step with `edges`.
    adjacency: Vec<Vec<usize>>,
}

/// The largest register a device spec or an OpenQASM program may declare.
///
/// Device specs and QASM files are untrusted input: `line:<n>`, `grid:<r>x<c>`
/// and `qreg q[<n>]` would otherwise allocate in proportion to whatever `n`
/// they name.  Routing needs the dense all-pairs distance matrix, which at
/// 1024 qubits is 1024² × 8 B = 8 MB and one BFS per qubit; the largest suite
/// circuit uses 27.  [`CouplingMap::from_spec`] and [`crate::qasm::from_qasm`]
/// refuse anything wider with a one-line error before allocating.
pub const MAX_QUBITS: usize = 1024;

impl CouplingMap {
    /// Creates a coupling map with no edges.
    pub fn new(num_qubits: usize) -> Self {
        CouplingMap { num_qubits, edges: BTreeSet::new(), adjacency: vec![Vec::new(); num_qubits] }
    }

    /// Builds a coupling map from a list of directed edges.
    ///
    /// # Errors
    ///
    /// Returns an error if an edge references a qubit out of range or is a
    /// self-loop.
    pub fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut map = CouplingMap::new(num_qubits);
        for &(a, b) in edges {
            map.add_edge(a, b)?;
        }
        Ok(map)
    }

    /// Adds a directed edge `(control, target)`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range qubits or self-loops.
    pub fn add_edge(&mut self, control: usize, target: usize) -> Result<()> {
        if control >= self.num_qubits {
            return Err(QcError::QubitOutOfRange { qubit: control, num_qubits: self.num_qubits });
        }
        if target >= self.num_qubits {
            return Err(QcError::QubitOutOfRange { qubit: target, num_qubits: self.num_qubits });
        }
        if control == target {
            return Err(QcError::DuplicateQubit(control));
        }
        if self.edges.insert((control, target)) {
            for (from, to) in [(control, target), (target, control)] {
                let list = &mut self.adjacency[from];
                if let Err(at) = list.binary_search(&to) {
                    list.insert(at, to);
                }
            }
        }
        Ok(())
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The directed edge list as provided by the backend.
    pub fn directed_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when a CNOT with the given direction is native.
    pub fn has_directed_edge(&self, control: usize, target: usize) -> bool {
        self.edges.contains(&(control, target))
    }

    /// Returns `true` when the two qubits are connected in either direction.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.adjacency.get(a).is_some_and(|list| list.binary_search(&b).is_ok())
    }

    /// Physical neighbours of a qubit (either direction), in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn neighbors(&self, qubit: usize) -> &[usize] {
        &self.adjacency[qubit]
    }

    /// Undirected shortest-path distance between two qubits, or `None` when
    /// they are disconnected.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        self.shortest_path(a, b).map(|p| p.len() - 1)
    }

    /// Breadth-first shortest path between two qubits (inclusive of both
    /// endpoints), or `None` when disconnected.  This is the `shortest_path`
    /// utility from Giallar's verified library, used by all routing passes.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a >= self.num_qubits || b >= self.num_qubits {
            return None;
        }
        if a == b {
            return Some(vec![a]);
        }
        let mut prev = vec![usize::MAX; self.num_qubits];
        let mut visited = vec![false; self.num_qubits];
        let mut queue = VecDeque::new();
        visited[a] = true;
        queue.push_back(a);
        while let Some(cur) = queue.pop_front() {
            for &n in &self.adjacency[cur] {
                if !visited[n] {
                    visited[n] = true;
                    prev[n] = cur;
                    if n == b {
                        let mut path = vec![b];
                        let mut p = cur;
                        while p != usize::MAX {
                            path.push(p);
                            if p == a {
                                break;
                            }
                            p = prev[p];
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// All-pairs distance matrix; disconnected pairs are `usize::MAX`.
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        let mut queue = VecDeque::with_capacity(self.num_qubits);
        (0..self.num_qubits).map(|start| self.bfs_distances(start, &mut queue)).collect()
    }

    /// Distances from `start` to every qubit (`usize::MAX` when unreachable),
    /// by one breadth-first search that reuses `queue` as scratch.
    fn bfs_distances(&self, start: usize, queue: &mut VecDeque<usize>) -> Vec<usize> {
        let mut row = vec![usize::MAX; self.num_qubits];
        row[start] = 0;
        queue.clear();
        queue.push_back(start);
        while let Some(cur) = queue.pop_front() {
            for &nb in &self.adjacency[cur] {
                if row[nb] == usize::MAX {
                    row[nb] = row[cur] + 1;
                    queue.push_back(nb);
                }
            }
        }
        row
    }

    /// Returns `true` when every pair of qubits is connected by some path.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        self.bfs_distances(0, &mut VecDeque::new()).iter().all(|&d| d != usize::MAX)
    }

    // --- standard topologies ---------------------------------------------

    /// A linear nearest-neighbour chain `0 - 1 - … - (n-1)`.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingMap::from_edges(n, &edges).expect("line edges are valid")
    }

    /// A ring of `n` qubits.
    pub fn ring(n: usize) -> Self {
        let mut edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        if n > 2 {
            edges.push((n - 1, 0));
        }
        CouplingMap::from_edges(n, &edges).expect("ring edges are valid")
    }

    /// A `rows × cols` 2-D grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        CouplingMap::from_edges(rows * cols, &edges).expect("grid edges are valid")
    }

    /// A fully connected device (no routing needed).
    pub fn full(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        CouplingMap::from_edges(n, &edges).expect("full edges are valid")
    }

    /// The IBM 16-qubit device (ibmqx5-style 2×8 ladder) from Figure 10 of
    /// the paper, on which the original `lookahead_swap` pass can loop
    /// forever when the four logical qubits sit on Q0, Q8, Q7 and Q15.
    pub fn ibm16() -> Self {
        // Top row 0..7, bottom row 8..15, with rungs connecting the rows.
        let edges = [
            (1, 0),
            (1, 2),
            (2, 3),
            (3, 4),
            (3, 14),
            (5, 4),
            (6, 5),
            (6, 7),
            (6, 11),
            (7, 10),
            (8, 7),
            (9, 8),
            (9, 10),
            (11, 10),
            (12, 5),
            (12, 11),
            (12, 13),
            (13, 4),
            (13, 14),
            (15, 0),
            (15, 2),
            (15, 14),
        ];
        CouplingMap::from_edges(16, &edges).expect("ibm16 edges are valid")
    }

    /// A 27-qubit heavy-hex style device (IBM Falcon family), used for the
    /// larger QASMBench circuits in the Figure 11 reproduction.
    pub fn falcon27() -> Self {
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        CouplingMap::from_edges(27, &edges).expect("falcon27 edges are valid")
    }

    /// Parses a textual device spec: `falcon27`, `line:<n>`, or
    /// `grid:<r>x<c>` — the format shared by `giallar compile --device` and
    /// the `compile` and `certify` ops of the `giallar-serve` protocol.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the malformed spec (echoed
    /// escaped and clamped, like every echo of untrusted text), including a
    /// device wider than [`MAX_QUBITS`], which is refused before anything is
    /// allocated for it.
    ///
    /// ```
    /// use qc_ir::CouplingMap;
    ///
    /// assert_eq!(CouplingMap::from_spec("line:5").unwrap().num_qubits(), 5);
    /// assert_eq!(CouplingMap::from_spec("grid:2x3").unwrap().num_qubits(), 6);
    /// assert_eq!(CouplingMap::from_spec("falcon27").unwrap().num_qubits(), 27);
    /// assert!(CouplingMap::from_spec("torus:4").is_err());
    /// assert!(CouplingMap::from_spec("line:4000").is_err());
    /// ```
    pub fn from_spec(spec: &str) -> std::result::Result<Self, String> {
        let within_ceiling = |qubits: Option<usize>| {
            if qubits.is_some_and(|n| n <= MAX_QUBITS) {
                Ok(())
            } else {
                Err(format!(
                    "device `{}` is wider than the {MAX_QUBITS}-qubit ceiling",
                    escaped(spec)
                ))
            }
        };
        if spec == "falcon27" {
            return Ok(CouplingMap::falcon27());
        }
        if let Some(n) = spec.strip_prefix("line:") {
            let n: usize =
                n.parse().map_err(|_| format!("bad line size in `{}`", escaped(spec)))?;
            if n == 0 {
                return Err("line needs at least 1 qubit".to_string());
            }
            within_ceiling(Some(n))?;
            return Ok(CouplingMap::line(n));
        }
        if let Some(dims) = spec.strip_prefix("grid:") {
            if let Some((rows, cols)) = dims.split_once('x') {
                let rows: usize =
                    rows.parse().map_err(|_| format!("bad grid rows in `{}`", escaped(spec)))?;
                let cols: usize =
                    cols.parse().map_err(|_| format!("bad grid cols in `{}`", escaped(spec)))?;
                if rows == 0 || cols == 0 {
                    return Err("grid dims must be positive".to_string());
                }
                within_ceiling(rows.checked_mul(cols))?;
                return Ok(CouplingMap::grid(rows, cols));
            }
        }
        Err(format!(
            "unknown device `{}` (expected falcon27, line:<n>, or grid:<r>x<c>)",
            escaped(spec)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let line = CouplingMap::line(5);
        assert_eq!(line.distance(0, 4), Some(4));
        assert_eq!(line.distance(2, 2), Some(0));
        assert_eq!(line.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
        assert!(line.is_connected());
    }

    #[test]
    fn ring_wraps_around() {
        let ring = CouplingMap::ring(6);
        assert_eq!(ring.distance(0, 5), Some(1));
        assert_eq!(ring.distance(0, 3), Some(3));
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let grid = CouplingMap::grid(3, 3);
        assert_eq!(grid.distance(0, 8), Some(4));
        assert_eq!(grid.distance(0, 4), Some(2));
    }

    #[test]
    fn full_graph_has_unit_distances() {
        let full = CouplingMap::full(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(full.distance(a, b), Some(1));
                }
            }
        }
    }

    #[test]
    fn directed_edges_and_connectivity() {
        let map = CouplingMap::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(map.has_directed_edge(0, 1));
        assert!(!map.has_directed_edge(1, 0));
        assert!(map.connected(1, 0));
        assert_eq!(map.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let mut map = CouplingMap::new(2);
        assert!(map.add_edge(0, 5).is_err());
        assert!(map.add_edge(1, 1).is_err());
        assert!(map.add_edge(0, 1).is_ok());
    }

    #[test]
    fn ibm16_matches_figure_10() {
        let map = CouplingMap::ibm16();
        assert_eq!(map.num_qubits(), 16);
        assert!(map.is_connected());
        // The counterexample of Fig. 10 relies on these adjacencies:
        assert!(map.connected(8, 7));
        assert!(map.connected(15, 0));
        // ... and on Q0/Q8 and Q7/Q15 being non-adjacent.
        assert!(!map.connected(0, 8));
        assert!(!map.connected(7, 15));
        assert!(map.distance(0, 8).unwrap() >= 2);
    }

    #[test]
    fn oversized_specs_are_refused_before_allocating() {
        assert_eq!(
            CouplingMap::from_spec(&format!("line:{MAX_QUBITS}")).unwrap().num_qubits(),
            1024
        );
        for spec in ["line:4000", "grid:3000x3000", "grid:33x32", "line:99999999999999999999"] {
            let error = CouplingMap::from_spec(spec).unwrap_err();
            assert!(!error.contains('\n'), "{spec}: {error}");
        }
        let overflow = format!("grid:{}x2", usize::MAX);
        assert!(CouplingMap::from_spec(&overflow).unwrap_err().contains("ceiling"));
    }

    #[test]
    fn falcon27_is_connected_and_sparse() {
        let map = CouplingMap::falcon27();
        assert_eq!(map.num_qubits(), 27);
        assert!(map.is_connected());
        assert!(map.num_edges() < 27 * 26 / 2);
    }

    #[test]
    fn distance_matrix_is_symmetric() {
        let map = CouplingMap::ibm16();
        let d = map.distance_matrix();
        for (a, row) in d.iter().enumerate() {
            for (b, &dist) in row.iter().enumerate() {
                assert_eq!(dist, d[b][a]);
            }
        }
    }

    #[test]
    fn disconnected_map_reports_none() {
        let map = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(map.distance(0, 3), None);
        assert!(!map.is_connected());
    }
}

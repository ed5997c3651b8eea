//! Layout-selection passes: map logical circuit qubits onto physical device
//! qubits.

use qc_ir::{CouplingMap, DagCircuit, DeviceProperties, Layout, QcError};

use crate::pass::{AnalysisValue, PropertySet, TranspilerPass};

fn require_fits(dag: &DagCircuit, coupling: &CouplingMap) -> Result<(), QcError> {
    if dag.num_qubits() > coupling.num_qubits() {
        return Err(QcError::Invariant(format!(
            "circuit has {} qubits but the device only {}",
            dag.num_qubits(),
            coupling.num_qubits()
        )));
    }
    Ok(())
}

/// Interaction count between logical qubit pairs (how many 2-qubit gates).
fn interaction_counts(dag: &DagCircuit) -> Vec<(usize, usize, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for node in dag.topological_op_nodes() {
        let gate = dag.gate(node);
        if gate.num_qubits() == 2 && !gate.is_directive() {
            let (a, b) = (gate.qubits[0].min(gate.qubits[1]), gate.qubits[0].max(gate.qubits[1]));
            *counts.entry((a, b)).or_insert(0usize) += 1;
        }
    }
    counts.into_iter().map(|((a, b), c)| (a, b, c)).collect()
}

/// Completes a partial logical→physical assignment into a full device-sized
/// layout (unassigned logical qubits, including ancillas, take the free
/// physical qubits in order).
fn complete_layout(partial: &[Option<usize>], device_size: usize) -> Result<Layout, QcError> {
    let mut used = vec![false; device_size];
    for p in partial.iter().flatten() {
        if *p >= device_size || used[*p] {
            return Err(QcError::InvalidLayout("partial layout is not injective".to_string()));
        }
        used[*p] = true;
    }
    let mut free = (0..device_size).filter(|&p| !used[p]);
    let mut l2p = Vec::with_capacity(device_size);
    for slot in partial {
        match slot {
            Some(p) => l2p.push(*p),
            None => l2p.push(free.next().expect("enough free physical qubits")),
        }
    }
    for p in free {
        l2p.push(p);
        if l2p.len() == device_size {
            break;
        }
    }
    Layout::from_logical_to_physical(l2p)
}

/// `SetLayout`: installs a user-provided layout.
#[derive(Debug, Clone)]
pub struct SetLayout {
    layout: Layout,
}

impl SetLayout {
    /// Creates the pass with the layout to install.
    pub fn new(layout: Layout) -> Self {
        SetLayout { layout }
    }
}

impl TranspilerPass for SetLayout {
    fn name(&self) -> &'static str {
        "SetLayout"
    }
    fn run(&self, _dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        props.layout = Some(self.layout.clone());
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `TrivialLayout`: logical qubit `i` goes to physical qubit `i`.
#[derive(Debug, Clone)]
pub struct TrivialLayout {
    coupling: CouplingMap,
}

impl TrivialLayout {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        TrivialLayout { coupling }
    }
}

impl TranspilerPass for TrivialLayout {
    fn name(&self) -> &'static str {
        "TrivialLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        require_fits(dag, &self.coupling)?;
        props.layout = Some(Layout::trivial(self.coupling.num_qubits()));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `DenseLayout`: choose a connected set of physical qubits with the best
/// calibration quality and map the most-interacting logical qubits onto it.
#[derive(Debug, Clone)]
pub struct DenseLayout {
    coupling: CouplingMap,
    properties: DeviceProperties,
}

impl DenseLayout {
    /// Creates the pass from a device description.
    pub fn new(coupling: CouplingMap, properties: DeviceProperties) -> Self {
        DenseLayout { coupling, properties }
    }
}

impl TranspilerPass for DenseLayout {
    fn name(&self) -> &'static str {
        "DenseLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        require_fits(dag, &self.coupling)?;
        let needed = dag.num_qubits();
        // Grow a connected region greedily from the best-quality qubit.
        let mut best_start = 0usize;
        for q in 0..self.coupling.num_qubits() {
            if self.properties.qubit_quality(q) < self.properties.qubit_quality(best_start) {
                best_start = q;
            }
        }
        let mut region = vec![best_start];
        while region.len() < needed {
            let mut candidates: Vec<usize> = region
                .iter()
                .flat_map(|&q| self.coupling.neighbors(q).iter().copied())
                .filter(|q| !region.contains(q))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let next = candidates
                .into_iter()
                .min_by(|&a, &b| {
                    self.properties
                        .qubit_quality(a)
                        .partial_cmp(&self.properties.qubit_quality(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or_else(|| QcError::Invariant("device region is too small".to_string()))?;
            region.push(next);
        }
        // Most-interacting logical qubits first onto the region in order.
        let mut logical_weight = vec![0usize; needed];
        for (a, b, c) in interaction_counts(dag) {
            logical_weight[a] += c;
            logical_weight[b] += c;
        }
        let mut logical_order: Vec<usize> = (0..needed).collect();
        logical_order.sort_by_key(|&l| std::cmp::Reverse(logical_weight[l]));
        let mut partial = vec![None; self.coupling.num_qubits()];
        for (slot, &logical) in logical_order.iter().enumerate() {
            partial[logical] = Some(region[slot]);
        }
        props.layout = Some(complete_layout(&partial, self.coupling.num_qubits())?);
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `NoiseAdaptiveLayout`: rank physical qubits by readout quality and map the
/// most frequently used logical qubits to the quietest physical qubits.
#[derive(Debug, Clone)]
pub struct NoiseAdaptiveLayout {
    coupling: CouplingMap,
    properties: DeviceProperties,
}

impl NoiseAdaptiveLayout {
    /// Creates the pass from a device description.
    pub fn new(coupling: CouplingMap, properties: DeviceProperties) -> Self {
        NoiseAdaptiveLayout { coupling, properties }
    }
}

impl TranspilerPass for NoiseAdaptiveLayout {
    fn name(&self) -> &'static str {
        "NoiseAdaptiveLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        require_fits(dag, &self.coupling)?;
        let mut physical: Vec<usize> = (0..self.coupling.num_qubits()).collect();
        physical.sort_by(|&a, &b| {
            self.properties
                .readout_error(a)
                .partial_cmp(&self.properties.readout_error(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut usage = vec![0usize; dag.num_qubits()];
        for node in dag.topological_op_nodes() {
            for &q in &dag.gate(node).qubits {
                usage[q] += 1;
            }
        }
        let mut logical_order: Vec<usize> = (0..dag.num_qubits()).collect();
        logical_order.sort_by_key(|&l| std::cmp::Reverse(usage[l]));
        let mut partial = vec![None; self.coupling.num_qubits()];
        for (slot, &logical) in logical_order.iter().enumerate() {
            partial[logical] = Some(physical[slot]);
        }
        props.layout = Some(complete_layout(&partial, self.coupling.num_qubits())?);
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `SabreLayout`: greedy hill-climbing over layouts to reduce the summed
/// coupling distance of all 2-qubit interactions (a simplified SABRE).
#[derive(Debug, Clone)]
pub struct SabreLayout {
    coupling: CouplingMap,
    iterations: usize,
}

impl SabreLayout {
    /// Creates the pass; `iterations` bounds the hill-climbing rounds.
    pub fn new(coupling: CouplingMap, iterations: usize) -> Self {
        SabreLayout { coupling, iterations }
    }
}

fn layout_cost(
    interactions: &[(usize, usize, usize)],
    layout: &Layout,
    dist: &[Vec<usize>],
) -> usize {
    interactions
        .iter()
        .map(|&(a, b, w)| {
            let pa = layout.logical_to_physical(a);
            let pb = layout.logical_to_physical(b);
            dist[pa][pb].saturating_mul(w)
        })
        .sum()
}

impl TranspilerPass for SabreLayout {
    fn name(&self) -> &'static str {
        "SabreLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        require_fits(dag, &self.coupling)?;
        let dist = self.coupling.distance_matrix();
        let interactions = interaction_counts(dag);
        let mut layout = Layout::trivial(self.coupling.num_qubits());
        let mut cost = layout_cost(&interactions, &layout, &dist);
        for _ in 0..self.iterations {
            let mut improved = false;
            for a in 0..self.coupling.num_qubits() {
                for b in (a + 1)..self.coupling.num_qubits() {
                    let mut candidate = layout.clone();
                    candidate.swap_physical(a, b);
                    let c = layout_cost(&interactions, &candidate, &dist);
                    if c < cost {
                        layout = candidate;
                        cost = c;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        props.layout = Some(layout);
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `CSPLayout`: backtracking search for a layout under which every 2-qubit
/// interaction sits on a coupling edge; falls back to no layout when the
/// search budget is exhausted.
#[derive(Debug, Clone)]
pub struct CspLayout {
    coupling: CouplingMap,
    node_budget: usize,
}

impl CspLayout {
    /// Creates the pass with a backtracking node budget.
    pub fn new(coupling: CouplingMap, node_budget: usize) -> Self {
        CspLayout { coupling, node_budget }
    }

    fn search(
        &self,
        interactions: &[(usize, usize, usize)],
        assignment: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
        logical: usize,
        budget: &mut usize,
    ) -> bool {
        if logical == assignment.len() {
            return true;
        }
        for physical in 0..self.coupling.num_qubits() {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if used[physical] {
                continue;
            }
            let compatible = interactions.iter().all(|&(a, b, _)| {
                let other = if a == logical {
                    b
                } else if b == logical {
                    a
                } else {
                    return true;
                };
                match assignment[other] {
                    Some(p) => self.coupling.connected(physical, p),
                    None => true,
                }
            });
            if !compatible {
                continue;
            }
            assignment[logical] = Some(physical);
            used[physical] = true;
            if self.search(interactions, assignment, used, logical + 1, budget) {
                return true;
            }
            assignment[logical] = None;
            used[physical] = false;
        }
        false
    }
}

impl TranspilerPass for CspLayout {
    fn name(&self) -> &'static str {
        "CSPLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        require_fits(dag, &self.coupling)?;
        let interactions = interaction_counts(dag);
        let mut assignment = vec![None; dag.num_qubits()];
        let mut used = vec![false; self.coupling.num_qubits()];
        let mut budget = self.node_budget;
        if self.search(&interactions, &mut assignment, &mut used, 0, &mut budget) {
            let mut partial = vec![None; self.coupling.num_qubits()];
            for (logical, slot) in assignment.iter().enumerate() {
                partial[logical] = *slot;
            }
            props.layout = Some(complete_layout(&partial, self.coupling.num_qubits())?);
            props.set("csp_layout_found", AnalysisValue::Bool(true));
        } else {
            props.set("csp_layout_found", AnalysisValue::Bool(false));
        }
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `Layout2qDistance`: scores the current layout by the summed coupling
/// distance of all 2-qubit interactions (analysis only).
#[derive(Debug, Clone)]
pub struct Layout2qDistance {
    coupling: CouplingMap,
}

impl Layout2qDistance {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        Layout2qDistance { coupling }
    }
}

impl TranspilerPass for Layout2qDistance {
    fn name(&self) -> &'static str {
        "Layout2qDistance"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let layout =
            props.layout.clone().unwrap_or_else(|| Layout::trivial(self.coupling.num_qubits()));
        let dist = self.coupling.distance_matrix();
        let score = layout_cost(&interaction_counts(dag), &layout, &dist);
        props.set("layout_score", AnalysisValue::Int(score));
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `FullAncillaAllocation`: extend the layout with ancillas covering every
/// unused physical qubit.
#[derive(Debug, Clone)]
pub struct FullAncillaAllocation {
    coupling: CouplingMap,
}

impl FullAncillaAllocation {
    /// Creates the pass for a device.
    pub fn new(coupling: CouplingMap) -> Self {
        FullAncillaAllocation { coupling }
    }
}

impl TranspilerPass for FullAncillaAllocation {
    fn name(&self) -> &'static str {
        "FullAncillaAllocation"
    }
    fn run(&self, _dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let mut layout = props
            .layout
            .clone()
            .ok_or_else(|| QcError::InvalidLayout("no layout selected yet".to_string()))?;
        layout.extend_with_ancillas(self.coupling.num_qubits());
        props.layout = Some(layout);
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        true
    }
}

/// `EnlargeWithAncilla`: grow the circuit register to the layout size.
#[derive(Debug, Clone, Default)]
pub struct EnlargeWithAncilla;

impl TranspilerPass for EnlargeWithAncilla {
    fn name(&self) -> &'static str {
        "EnlargeWithAncilla"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let layout = props
            .layout
            .as_ref()
            .ok_or_else(|| QcError::InvalidLayout("no layout selected yet".to_string()))?;
        let mut circuit = std::mem::take(dag).into_circuit()?;
        circuit.enlarge_to(layout.len());
        *dag = DagCircuit::from_owned(circuit);
        Ok(())
    }
}

/// `ApplyLayout`: rewrite the circuit onto physical qubits using the selected
/// layout.
#[derive(Debug, Clone, Default)]
pub struct ApplyLayout;

impl TranspilerPass for ApplyLayout {
    fn name(&self) -> &'static str {
        "ApplyLayout"
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        let layout = props
            .layout
            .as_ref()
            .ok_or_else(|| QcError::InvalidLayout("no layout selected yet".to_string()))?;
        let circuit = std::mem::take(dag).into_circuit()?;
        let mapped = circuit.map_qubits(layout.as_logical_to_physical(), layout.len())?;
        *dag = DagCircuit::from_owned(mapped);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::Circuit;

    fn sample_dag() -> DagCircuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(0, 2).cx(1, 2);
        DagCircuit::from_circuit(&c)
    }

    #[test]
    fn trivial_layout_is_identity_over_the_device() {
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        TrivialLayout::new(CouplingMap::line(5)).run(&mut dag, &mut props).unwrap();
        let layout = props.layout.unwrap();
        assert_eq!(layout.len(), 5);
        assert_eq!(layout.logical_to_physical(2), 2);
    }

    #[test]
    fn trivial_layout_rejects_small_devices() {
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        assert!(TrivialLayout::new(CouplingMap::line(2)).run(&mut dag, &mut props).is_err());
    }

    #[test]
    fn dense_layout_produces_a_connected_region() {
        let coupling = CouplingMap::ibm16();
        let props_dev = DeviceProperties::synthetic(&coupling, 3);
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        DenseLayout::new(coupling.clone(), props_dev).run(&mut dag, &mut props).unwrap();
        let layout = props.layout.unwrap();
        assert!(layout.is_valid());
        assert_eq!(layout.len(), 16);
    }

    #[test]
    fn noise_adaptive_layout_prefers_quiet_qubits() {
        let coupling = CouplingMap::line(6);
        let dev = DeviceProperties::synthetic(&coupling, 11);
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        NoiseAdaptiveLayout::new(coupling, dev.clone()).run(&mut dag, &mut props).unwrap();
        let layout = props.layout.unwrap();
        // The most used logical qubit (0) must live on the best readout qubit.
        let best = (0..6)
            .min_by(|&a, &b| dev.readout_error(a).partial_cmp(&dev.readout_error(b)).unwrap())
            .unwrap();
        assert_eq!(layout.logical_to_physical(0), best);
    }

    #[test]
    fn sabre_layout_never_increases_cost_over_trivial() {
        let coupling = CouplingMap::ibm16();
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        SabreLayout::new(coupling.clone(), 4).run(&mut dag, &mut props).unwrap();
        let dist = coupling.distance_matrix();
        let interactions = interaction_counts(&dag);
        let sabre_cost = layout_cost(&interactions, props.layout.as_ref().unwrap(), &dist);
        let trivial_cost = layout_cost(&interactions, &Layout::trivial(16), &dist);
        assert!(sabre_cost <= trivial_cost);
    }

    #[test]
    fn csp_layout_finds_an_exact_solution_on_a_line() {
        // A 3-qubit chain circuit fits a line device exactly.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        CspLayout::new(CouplingMap::line(4), 10_000).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("csp_layout_found"), Some(true));
        let layout = props.layout.unwrap();
        let map = CouplingMap::line(4);
        assert!(map.connected(layout.logical_to_physical(0), layout.logical_to_physical(1)));
        assert!(map.connected(layout.logical_to_physical(1), layout.logical_to_physical(2)));
    }

    #[test]
    fn csp_layout_reports_failure_on_impossible_instances() {
        // A triangle of interactions cannot be embedded in a 3-qubit line.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2).cx(0, 2);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        CspLayout::new(CouplingMap::line(3), 10_000).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_bool("csp_layout_found"), Some(false));
    }

    #[test]
    fn apply_layout_relabels_and_enlarges() {
        let coupling = CouplingMap::line(5);
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        props.layout = Some(Layout::from_logical_to_physical(vec![4, 3, 2, 1, 0]).unwrap());
        EnlargeWithAncilla.run(&mut dag, &mut props).unwrap();
        ApplyLayout.run(&mut dag, &mut props).unwrap();
        let circuit = dag.to_circuit().unwrap();
        assert_eq!(circuit.num_qubits(), 5);
        assert_eq!(circuit.gates()[0].qubits, vec![4]);
        assert_eq!(circuit.gates()[1].qubits, vec![4, 3]);
        let _ = coupling;
    }

    #[test]
    fn layout_2q_distance_scores_layouts() {
        let coupling = CouplingMap::line(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let mut dag = DagCircuit::from_circuit(&c);
        let mut props = PropertySet::new();
        Layout2qDistance::new(coupling.clone()).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_int("layout_score"), Some(2));
        props.layout = Some(Layout::from_logical_to_physical(vec![0, 2, 1]).unwrap());
        Layout2qDistance::new(coupling).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.get_int("layout_score"), Some(1));
    }

    #[test]
    fn full_ancilla_allocation_requires_a_layout() {
        let mut dag = sample_dag();
        let mut props = PropertySet::new();
        assert!(FullAncillaAllocation::new(CouplingMap::line(5))
            .run(&mut dag, &mut props)
            .is_err());
        props.layout = Some(Layout::trivial(3));
        FullAncillaAllocation::new(CouplingMap::line(5)).run(&mut dag, &mut props).unwrap();
        assert_eq!(props.layout.unwrap().len(), 5);
    }
}

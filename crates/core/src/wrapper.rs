//! The Qiskit wrapper (§4 of the paper).
//!
//! Giallar's verified library represents circuits as gate lists while Qiskit
//! uses a DAG.  To integrate a verified pass into a Qiskit-style pipeline the
//! wrapper (1) converts the incoming DAG to the gate-list representation,
//! (2) runs the verified pass on the list, and (3) converts the result back
//! to a DAG.  These conversions are what the Figure 11 experiment measures as
//! the overhead of the verified compiler.

use qc_ir::{Circuit, CouplingMap, DagCircuit, QcError};
use qc_passes::pass::{PassManager, PropertySet, TranspileResult, TranspilerPass};
use qc_passes::preset::{default_pass_manager, standard_passes, STANDARD_PIPELINE};

/// Wraps a pass so that it runs through the DAG → gate-list → DAG conversion
/// path of the verified library.
pub struct QiskitWrapper<P> {
    inner: P,
}

impl<P: TranspilerPass> QiskitWrapper<P> {
    /// Wraps a pass.
    pub fn new(inner: P) -> Self {
        QiskitWrapper { inner }
    }

    /// The wrapped pass.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: TranspilerPass> TranspilerPass for QiskitWrapper<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
        // Each conversion moves the gates rather than copying them; all four
        // still run for every wrapped pass.
        // 1) DAG -> OpenQASM-style gate list (the verified representation).
        let list = std::mem::take(dag).into_circuit()?;
        // 2) Run the pass on the list representation.
        let mut list_dag = DagCircuit::from_owned(list);
        self.inner.run(&mut list_dag, props)?;
        // 3) Convert back to the DAG representation.
        let compiled = list_dag.into_circuit()?;
        *dag = DagCircuit::from_owned(compiled);
        Ok(())
    }
    fn is_analysis(&self) -> bool {
        self.inner.is_analysis()
    }
}

/// Builds the verified (Giallar) pipeline: the standard schedule of
/// [`qc_passes::preset::STANDARD_PIPELINE`], with every pass routed through
/// the [`QiskitWrapper`] conversions.
pub fn giallar_pass_manager(coupling: &CouplingMap, seed: u64) -> PassManager {
    let mut pm = PassManager::new();
    for pass in standard_passes(coupling, seed) {
        pm.append(Box::new(QiskitWrapper::new(pass)));
    }
    pm
}

/// The registry names of the passes scheduled by [`giallar_pass_manager`]
/// (deduplicated — the pipeline runs `Unroller` twice), used by
/// `giallar compile --verified` to re-verify exactly the passes a
/// compilation ran through.  The schedule is the same for every device and
/// seed, so no pass is built to read it.
pub fn giallar_pipeline_pass_names(_coupling: &CouplingMap, _seed: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::with_capacity(STANDARD_PIPELINE.len());
    for name in STANDARD_PIPELINE {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Compiles a circuit with the verified (wrapped) pipeline.
///
/// # Errors
///
/// Propagates any pass failure.
pub fn giallar_transpile(
    circuit: &Circuit,
    coupling: &CouplingMap,
    seed: u64,
) -> Result<TranspileResult, QcError> {
    giallar_pass_manager(coupling, seed).run(circuit)
}

/// Compiles a circuit with the unverified baseline pipeline (re-exported for
/// the Figure 11 benches and examples).
///
/// # Errors
///
/// Propagates any pass failure.
pub fn baseline_transpile(
    circuit: &Circuit,
    coupling: &CouplingMap,
    seed: u64,
) -> Result<TranspileResult, QcError> {
    default_pass_manager(coupling, seed).run(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).ccx(0, 1, 2).cx(1, 3).t(2).cx(0, 2);
        c
    }

    #[test]
    fn wrapped_pipeline_matches_the_baseline_output() {
        let coupling = CouplingMap::line(5);
        let baseline = baseline_transpile(&sample(), &coupling, 7).unwrap();
        let verified = giallar_transpile(&sample(), &coupling, 7).unwrap();
        assert_eq!(baseline.circuit, verified.circuit);
        assert_eq!(
            baseline.properties.get_bool("is_swap_mapped"),
            verified.properties.get_bool("is_swap_mapped")
        );
    }

    #[test]
    fn pipeline_pass_names_are_registry_passes() {
        let coupling = CouplingMap::line(5);
        let names = giallar_pipeline_pass_names(&coupling, 7);
        assert!(!names.is_empty());
        let registry: Vec<&str> =
            crate::registry::verified_passes().iter().map(|p| p.name).collect();
        for name in &names {
            assert!(registry.contains(name), "{name} is not a registry pass");
        }
        // The double-scheduled Unroller is reported once.
        assert_eq!(names.iter().filter(|n| **n == "Unroller").count(), 1);
    }

    #[test]
    fn wrapper_preserves_pass_metadata() {
        let wrapped = QiskitWrapper::new(qc_passes::analysis::Depth);
        assert_eq!(wrapped.name(), "Depth");
        assert!(wrapped.is_analysis());
        assert_eq!(wrapped.inner().name(), "Depth");
    }

    #[test]
    fn wrapped_analysis_pass_leaves_the_circuit_intact() {
        let mut dag = DagCircuit::from_circuit(&sample());
        let mut props = PropertySet::new();
        QiskitWrapper::new(qc_passes::analysis::Size).run(&mut dag, &mut props).unwrap();
        assert_eq!(dag.to_circuit().unwrap(), sample());
        assert_eq!(props.get_int("size"), Some(sample().size()));
    }
}

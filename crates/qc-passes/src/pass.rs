//! The pass abstraction: [`TranspilerPass`], [`PropertySet`] and
//! [`PassManager`].

use std::collections::BTreeMap;

use qc_ir::{Circuit, DagCircuit, Layout, QcError};
use serde::{Deserialize, Serialize};

/// A value produced by an analysis pass and stored in the [`PropertySet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisValue {
    /// An integer-valued property (depth, size, width, …).
    Int(usize),
    /// A boolean property (`is_swap_mapped`, fixed-point flags, …).
    Bool(bool),
    /// An operation histogram.
    Counts(BTreeMap<String, usize>),
    /// Groups of gate indices (commutation groups, 2-qubit blocks).
    Groups(Vec<Vec<usize>>),
}

/// Shared state threaded through a pass pipeline (Qiskit's property set).
#[derive(Debug, Clone, Default)]
pub struct PropertySet {
    /// The initial layout selected by a layout pass.
    pub layout: Option<Layout>,
    /// The final layout after routing (tracks inserted SWAPs).
    pub final_layout: Option<Layout>,
    /// Analysis results keyed by property name.
    pub analysis: BTreeMap<String, AnalysisValue>,
}

impl PropertySet {
    /// Creates an empty property set.
    pub fn new() -> Self {
        PropertySet::default()
    }

    /// Stores an analysis value.
    pub fn set(&mut self, key: &str, value: AnalysisValue) {
        self.analysis.insert(key.to_string(), value);
    }

    /// Reads an integer property.
    pub fn get_int(&self, key: &str) -> Option<usize> {
        match self.analysis.get(key) {
            Some(AnalysisValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a boolean property.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.analysis.get(key) {
            Some(AnalysisValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a grouping property.
    pub fn get_groups(&self, key: &str) -> Option<&Vec<Vec<usize>>> {
        match self.analysis.get(key) {
            Some(AnalysisValue::Groups(v)) => Some(v),
            _ => None,
        }
    }
}

/// A transpiler pass: transforms the DAG and/or records analysis results.
pub trait TranspilerPass {
    /// The pass name as reported in logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns an error when the pass cannot complete (e.g. the routing
    /// budget is exhausted or the layout is missing).  After an error the
    /// contents of `dag` are unspecified: a transforming pass may already
    /// have moved the circuit out of it.
    fn run(&self, dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError>;

    /// Returns `true` for analysis passes, which never modify the circuit.
    fn is_analysis(&self) -> bool {
        false
    }
}

/// The result of running a [`PassManager`].
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The transformed circuit.
    pub circuit: Circuit,
    /// The property set after all passes ran.
    pub properties: PropertySet,
}

/// A sequential pipeline of passes.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn TranspilerPass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass to the pipeline.
    pub fn append(&mut self, pass: Box<dyn TranspilerPass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of scheduled passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` when no passes are scheduled.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the pipeline on a circuit.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn run(&self, circuit: &Circuit) -> Result<TranspileResult, QcError> {
        let mut dag = DagCircuit::from_circuit(circuit);
        let mut props = PropertySet::new();
        for pass in &self.passes {
            // The snapshot only feeds the debug-build check below; release
            // builds skip the whole-DAG clone.
            let before = (cfg!(debug_assertions) && pass.is_analysis()).then(|| dag.clone());
            pass.run(&mut dag, &mut props)?;
            if let Some(before) = before {
                debug_assert_eq!(
                    before.to_circuit().ok(),
                    dag.to_circuit().ok(),
                    "analysis pass {} modified the circuit",
                    pass.name()
                );
            }
        }
        Ok(TranspileResult { circuit: dag.into_circuit()?, properties: props })
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager").field("passes", &self.pass_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl TranspilerPass for Nop {
        fn name(&self) -> &'static str {
            "Nop"
        }
        fn run(&self, _dag: &mut DagCircuit, props: &mut PropertySet) -> Result<(), QcError> {
            props.set("ran", AnalysisValue::Bool(true));
            Ok(())
        }
        fn is_analysis(&self) -> bool {
            true
        }
    }

    #[test]
    fn pass_manager_runs_passes_in_order() {
        let mut pm = PassManager::new();
        pm.append(Box::new(Nop));
        assert_eq!(pm.pass_names(), vec!["Nop"]);
        assert_eq!(pm.len(), 1);
        let mut circuit = Circuit::new(2);
        circuit.h(0).cx(0, 1);
        let result = pm.run(&circuit).unwrap();
        assert_eq!(result.circuit, circuit);
        assert_eq!(result.properties.get_bool("ran"), Some(true));
    }

    #[test]
    fn property_set_typed_accessors() {
        let mut props = PropertySet::new();
        props.set("depth", AnalysisValue::Int(4));
        props.set("mapped", AnalysisValue::Bool(false));
        props.set("groups", AnalysisValue::Groups(vec![vec![0, 1]]));
        assert_eq!(props.get_int("depth"), Some(4));
        assert_eq!(props.get_bool("mapped"), Some(false));
        assert_eq!(props.get_groups("groups").unwrap().len(), 1);
        assert_eq!(props.get_int("missing"), None);
        assert_eq!(props.get_int("mapped"), None);
    }
}

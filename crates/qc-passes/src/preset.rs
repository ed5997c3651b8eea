//! The standard pipeline and the pass factory.
//!
//! [`STANDARD_PIPELINE`] is the one spelling of the schedule used as the
//! unverified baseline in the Figure 11 reproduction: layout selection →
//! ancilla allocation → layout application → unrolling → lookahead-swap
//! routing → gate direction fixing → unrolling → 1-qubit optimisation → CX
//! cancellation → coupling check.  [`instantiate`] maps every registry pass
//! name to the implementation of that name, so the schedule, the verified
//! (wrapped) pipeline in `giallar-core` and the conformance tests all build
//! their passes from the same table.

use qc_ir::{CouplingMap, DeviceProperties, Layout};

use crate::pass::{PassManager, TranspilerPass};
use crate::{analysis::*, basis::*, layout::*, misc::*, optimization::*, routing::*};

/// The target basis of the standard pipeline's unrolling steps, and the
/// basis [`instantiate`] gives every basis-changing pass.
pub const STANDARD_BASIS: &[&str] = &["u1", "u2", "u3", "cx", "swap"];

/// The standard schedule, by pass name, in run order.  `Unroller` runs
/// twice: once before routing and once after direction fixing.
pub const STANDARD_PIPELINE: [&str; 11] = [
    "TrivialLayout",
    "FullAncillaAllocation",
    "EnlargeWithAncilla",
    "ApplyLayout",
    "Unroller",
    "LookaheadSwap",
    "GateDirection",
    "Unroller",
    "Optimize1qGates",
    "CXCancellation",
    "CheckMap",
];

/// The implementation of the registry pass `name` for a device, or `None`
/// for a name no implementation carries.
///
/// Parameters the name does not fix get fixed defaults: the device and
/// `seed` wherever a pass takes them, [`STANDARD_BASIS`] for `Unroller`
/// and its `UnrollCustomDefinitions` and `BasisTranslator` names, the
/// trivial layout for `SetLayout`, `DeviceProperties::synthetic(coupling,
/// seed)` for the calibration-aware layouts, 4 rounds for `SabreLayout`, a
/// 10,000-node budget for `CSPLayout`, `ccx` for `Decompose` and the
/// `depth` property for `FixedPoint`.  The correct variant of each pass is
/// built; the buggy ones of §7 have their own constructors.
pub fn instantiate(
    name: &str,
    coupling: &CouplingMap,
    seed: u64,
) -> Option<Box<dyn TranspilerPass>> {
    let device = || coupling.clone();
    let calibration = || DeviceProperties::synthetic(coupling, seed);
    let pass: Box<dyn TranspilerPass> = match name {
        "SetLayout" => Box::new(SetLayout::new(Layout::trivial(coupling.num_qubits()))),
        "TrivialLayout" => Box::new(TrivialLayout::new(device())),
        "Layout2qDistance" => Box::new(Layout2qDistance::new(device())),
        "DenseLayout" => Box::new(DenseLayout::new(device(), calibration())),
        "NoiseAdaptiveLayout" => Box::new(NoiseAdaptiveLayout::new(device(), calibration())),
        "SabreLayout" => Box::new(SabreLayout::new(device(), 4)),
        "CSPLayout" => Box::new(CspLayout::new(device(), 10_000)),
        "EnlargeWithAncilla" => Box::new(EnlargeWithAncilla),
        "FullAncillaAllocation" => Box::new(FullAncillaAllocation::new(device())),
        "ApplyLayout" => Box::new(ApplyLayout),
        "BasicSwap" => Box::new(BasicSwap::new(device())),
        "LookaheadSwap" => Box::new(LookaheadSwap::new(device(), seed)),
        "SabreSwap" => Box::new(SabreSwap::new(device(), seed)),
        "Unroller" => Box::new(Unroller::new(STANDARD_BASIS)),
        "Unroll3qOrMore" => Box::new(Unroll3qOrMore),
        "Decompose" => Box::new(Decompose::new("ccx")),
        "UnrollCustomDefinitions" => {
            Box::new(Unroller::named("UnrollCustomDefinitions", STANDARD_BASIS))
        }
        "BasisTranslator" => Box::new(Unroller::named("BasisTranslator", STANDARD_BASIS)),
        "CXDirection" => Box::new(GateDirection::named("CXDirection", device())),
        "GateDirection" => Box::new(GateDirection::new(device())),
        "Optimize1qGates" => Box::new(Optimize1qGates::new()),
        "Optimize1qGatesDecomposition" => Box::new(Optimize1qGatesDecomposition),
        "Collect2qBlocks" => Box::new(Collect2qBlocks),
        "ConsolidateBlocks" => Box::new(ConsolidateBlocks),
        "CXCancellation" => Box::new(CxCancellation),
        "CommutationAnalysis" => Box::new(CommutationAnalysis::new()),
        "CommutativeCancellation" => Box::new(CommutativeCancellation::new()),
        "RemoveDiagonalGatesBeforeMeasure" => Box::new(RemoveDiagonalGatesBeforeMeasure),
        "RemoveResetInZeroState" => Box::new(RemoveResetInZeroState),
        "Width" => Box::new(Width),
        "Depth" => Box::new(Depth),
        "Size" => Box::new(Size),
        "CountOps" => Box::new(CountOps),
        "CountOpsLongestPath" => Box::new(CountOpsLongestPath),
        "NumTensorFactors" => Box::new(NumTensorFactors),
        "DAGLongestPath" => Box::new(DagLongestPath),
        "CheckMap" => Box::new(CheckMap::new(device())),
        "CheckCXDirection" => Box::new(CheckGateDirection::named("CheckCXDirection", device())),
        "CheckGateDirection" => Box::new(CheckGateDirection::new(device())),
        "DAGFixedPoint" => Box::new(DagFixedPoint),
        "FixedPoint" => Box::new(FixedPoint::new("depth")),
        "MergeAdjacentBarriers" => Box::new(MergeAdjacentBarriers),
        "BarrierBeforeFinalMeasurements" => Box::new(BarrierBeforeFinalMeasurements),
        "RemoveFinalMeasurements" => Box::new(RemoveFinalMeasurements),
        _ => return None,
    };
    Some(pass)
}

/// The passes of [`STANDARD_PIPELINE`] for a device, in run order.
pub fn standard_passes(
    coupling: &CouplingMap,
    seed: u64,
) -> impl Iterator<Item = Box<dyn TranspilerPass>> + '_ {
    STANDARD_PIPELINE.iter().map(move |name| {
        instantiate(name, coupling, seed).expect("every standard pass has an implementation")
    })
}

/// Builds the default (unverified baseline) pipeline for a device.
pub fn default_pass_manager(coupling: &CouplingMap, seed: u64) -> PassManager {
    let mut pm = PassManager::new();
    for pass in standard_passes(coupling, seed) {
        pm.append(pass);
    }
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::Circuit;

    #[test]
    fn pipeline_produces_a_hardware_compatible_circuit() {
        let mut circuit = Circuit::new(4);
        circuit.h(0).cx(0, 3).ccx(0, 1, 2).cx(1, 3).t(2).cx(0, 2);
        let coupling = CouplingMap::line(5);
        let result = default_pass_manager(&coupling, 11).run(&circuit).unwrap();
        assert_eq!(result.properties.get_bool("is_swap_mapped"), Some(true));
        for gate in result.circuit.iter() {
            if gate.num_qubits() == 2 && !gate.is_directive() {
                assert!(coupling.connected(gate.qubits[0], gate.qubits[1]));
            }
        }
        // Only basis gates (plus swap inserted by routing) remain.
        for gate in result.circuit.iter() {
            assert!(
                matches!(gate.name(), "u1" | "u2" | "u3" | "cx" | "swap" | "barrier" | "measure"),
                "unexpected gate {}",
                gate.name()
            );
        }
    }

    #[test]
    fn pipeline_is_deterministic_for_a_fixed_seed() {
        let mut circuit = Circuit::new(3);
        circuit.h(0).cx(0, 2).cx(1, 2);
        let coupling = CouplingMap::ring(4);
        let a = default_pass_manager(&coupling, 3).run(&circuit).unwrap();
        let b = default_pass_manager(&coupling, 3).run(&circuit).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn pipeline_rejects_circuits_larger_than_the_device() {
        let circuit = Circuit::new(6);
        let coupling = CouplingMap::line(3);
        assert!(default_pass_manager(&coupling, 1).run(&circuit).is_err());
    }

    #[test]
    fn the_default_pipeline_runs_the_standard_schedule() {
        let pm = default_pass_manager(&CouplingMap::line(3), 1);
        assert_eq!(pm.pass_names(), STANDARD_PIPELINE);
        assert!(instantiate("NoSuchPass", &CouplingMap::line(3), 1).is_none());
    }
}

//! Conformance of every registry pass's implementation against its own runs.
//!
//! The registry's obligation generators are models of the passes; the
//! compile path runs the `qc-passes` implementations.  The pass factory
//! links the two: every registry name must instantiate under that name.
//! Each instantiated pass then runs through the `QiskitWrapper` on seeded
//! random circuits of at most five qubits over every gate kind, with
//! classically conditioned gates, barriers, mid-circuit measurements and
//! at most one reset, on a random directed device, and its output is
//! compared with the input:
//!
//! * a **transforming** pass must be observably equivalent to its input, up
//!   to the layout it applied or the wire map its routing reported;
//! * an **analysis** pass must return the circuit unchanged, and `Depth`,
//!   `Size`, `Width` and `CountOps` must equal the `Circuit` methods;
//!   a layout it selects must be a valid layout of the device.
//!
//! A clean `Err` counts as a refusal; every transforming pass must accept
//! some cases.  A panic fails the test.  Failures name the pass and the
//! seed.  No registry pass is left out.
//!
//! The oracle is a small state-vector simulation: conditioned gates are
//! enumerated over their classical bits, a measurement is deferred to a CX
//! onto a fresh wire for its classical bit, a reset exchanges its qubit
//! with a fresh `|0⟩` wire, and the two sides may differ by one phase per
//! outcome of those extra wires.  Unlike `circuits_equivalent`, it gives
//! measurements and resets a meaning, which the measurement passes need.

use std::panic::{catch_unwind, AssertUnwindSafe};

use giallar::core::mutate::XorShift;
use giallar::core::registry::{verified_passes, PassFamily};
use giallar::core::wrapper::QiskitWrapper;
use giallar::ir::{Circuit, Complex, ConditionKind, CouplingMap, DagCircuit, Gate, GateKind};
use giallar::ir::{Layout, Matrix};
use giallar::passes::pass::{AnalysisValue, PropertySet, TranspilerPass};
use giallar::passes::preset::instantiate;

/// Seeded cases per pass.
const CASES: u64 = 64;
/// Widest device drawn; circuits are at most as wide.
const MAX_DEVICE: usize = 5;
/// Gates drawn per circuit, before measurements and the reset.
const MAX_GATES: usize = 14;
/// Amplitude tolerance of the oracle.
const TOL: f64 = 1e-6;

#[test]
fn every_registry_pass_instantiates_under_its_own_name() {
    let device = CouplingMap::line(3);
    let passes = verified_passes();
    assert_eq!(passes.len(), 44);
    for pass in &passes {
        let implementation = instantiate(pass.name, &device, 1)
            .unwrap_or_else(|| panic!("registry pass {} has no implementation", pass.name));
        assert_eq!(implementation.name(), pass.name);
    }
}

#[test]
fn layout_passes_conform() {
    conform_family(PassFamily::Layout);
}

#[test]
fn routing_passes_conform() {
    conform_family(PassFamily::Routing);
}

#[test]
fn basis_change_passes_conform() {
    conform_family(PassFamily::BasisChange);
}

#[test]
fn optimization_and_synthesis_passes_conform() {
    conform_family(PassFamily::Optimization);
    conform_family(PassFamily::Synthesis);
}

#[test]
fn analysis_passes_conform() {
    conform_family(PassFamily::Analysis);
}

#[test]
fn assorted_passes_conform() {
    conform_family(PassFamily::Assorted);
}

#[test]
fn the_oracle_refuses_what_a_measurement_can_tell_apart() {
    let mut original = Circuit::with_clbits(2, 1);
    original.h(0).cx(0, 1).measure(1, 0);
    // A phase before the measurement is invisible to it...
    let mut phased = original.clone();
    phased.insert(2, Gate::new(GateKind::T, vec![1]));
    assert_eq!(observably_equivalent(&original, &phased, None, false), Ok(()));
    // ...but a change of basis before it is seen, and so is a gate after it.
    let mut rotated = original.clone();
    rotated.insert(2, Gate::new(GateKind::H, vec![1]));
    assert!(observably_equivalent(&original, &rotated, None, false).is_err());
    let mut after = original.clone();
    after.push(Gate::new(GateKind::X, vec![1])).unwrap();
    assert!(observably_equivalent(&original, &after, None, false).is_err());
    // A reset of an untouched qubit is a no-op on the zero input only.
    let mut reset = Circuit::new(1);
    reset.reset(0).h(0);
    let mut hadamard = Circuit::new(1);
    hadamard.h(0);
    assert_eq!(observably_equivalent(&reset, &hadamard, None, true), Ok(()));
    assert!(observably_equivalent(&reset, &hadamard, None, false).is_err());
}

/// Runs every registry pass of `family` over the seeded cases.
fn conform_family(family: PassFamily) {
    for pass in verified_passes().iter().filter(|p| p.family == family) {
        let mut accepted = 0;
        for seed in 0..CASES {
            accepted += usize::from(conform(pass.name, seed));
        }
        let analysis = instantiate(pass.name, &CouplingMap::line(2), 0).unwrap().is_analysis();
        assert!(analysis || accepted > 0, "{} refused all {CASES} cases", pass.name);
    }
}

/// One seeded case: a device, a circuit no wider than it, and a layout
/// already selected for the passes that need one.
struct Case {
    device: CouplingMap,
    circuit: Circuit,
    layout: Layout,
}

/// Checks one pass on one case; `false` when the pass refused it.
fn conform(name: &str, seed: u64) -> bool {
    let case = draw_case(seed);
    let shown = show(&case.circuit);
    let pass = QiskitWrapper::new(instantiate(name, &case.device, seed).unwrap());
    let mut dag = DagCircuit::from_circuit(&case.circuit);
    let mut props = PropertySet::new();
    props.layout = Some(case.layout.clone());
    let run = catch_unwind(AssertUnwindSafe(|| pass.run(&mut dag, &mut props)));
    match run {
        Err(_) => panic!("{name} panicked on seed {seed}: {shown}"),
        Ok(Err(_)) => return false,
        Ok(Ok(())) => {}
    }
    let output = dag
        .into_circuit()
        .unwrap_or_else(|e| panic!("{name}, seed {seed}: invalid output ({e}): {shown}"));
    if pass.is_analysis() {
        check_analysis(name, seed, &case, &output, &props);
        return true;
    }
    let reference = match name {
        "ApplyLayout" => case
            .circuit
            .clone()
            .map_qubits(case.layout.as_logical_to_physical(), case.layout.len())
            .unwrap(),
        "RemoveFinalMeasurements" => without_final_measurements(&case.circuit),
        _ => {
            let mut widened = case.circuit.clone();
            widened.enlarge_to(output.num_qubits());
            widened
        }
    };
    let wire_map = props.final_layout.as_ref().map(Layout::as_logical_to_physical);
    // Removing a reset is only right on the all-zeros input the pass assumes.
    let zero_input = name == "RemoveResetInZeroState";
    if let Err(why) = observably_equivalent(&reference, &output, wire_map, zero_input) {
        panic!("{name}, seed {seed}: {why}\n  input:  {shown}\n  output: {}", show(&output));
    }
    true
}

fn check_analysis(name: &str, seed: u64, case: &Case, output: &Circuit, props: &PropertySet) {
    let input = &case.circuit;
    assert_eq!(output, input, "{name}, seed {seed}: an analysis pass changed the circuit");
    let expected = match name {
        "Depth" => Some(("depth", AnalysisValue::Int(input.depth()))),
        "Size" => Some(("size", AnalysisValue::Int(input.size()))),
        "Width" => Some(("width", AnalysisValue::Int(input.width()))),
        "CountOps" => Some(("count_ops", AnalysisValue::Counts(input.count_ops()))),
        _ => None,
    };
    if let Some((key, value)) = expected {
        assert_eq!(props.analysis.get(key), Some(&value), "{name}, seed {seed}: {}", show(input));
    }
    if let Some(layout) = &props.layout {
        assert!(
            layout.is_valid() && layout.len() >= case.device.num_qubits(),
            "{name}, seed {seed}: invalid layout {layout:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded cases
// ---------------------------------------------------------------------------

/// Every unitary gate kind, with angles filled in by [`draw_kind`].
const ONE_QUBIT: [GateKind; 18] = [
    GateKind::I,
    GateKind::X,
    GateKind::Y,
    GateKind::Z,
    GateKind::H,
    GateKind::S,
    GateKind::Sdg,
    GateKind::T,
    GateKind::Tdg,
    GateKind::SX,
    GateKind::SXdg,
    GateKind::RX(0.0),
    GateKind::RY(0.0),
    GateKind::RZ(0.0),
    GateKind::P(0.0),
    GateKind::U1(0.0),
    GateKind::U2(0.0, 0.0),
    GateKind::U3(0.0, 0.0, 0.0),
];
const TWO_QUBIT: [GateKind; 9] = [
    GateKind::CX,
    GateKind::CY,
    GateKind::CZ,
    GateKind::CH,
    GateKind::Swap,
    GateKind::Ecr,
    GateKind::RZZ(0.0),
    GateKind::CP(0.0),
    GateKind::CRZ(0.0),
];
const THREE_QUBIT: [GateKind; 2] = [GateKind::CCX, GateKind::CSwap];

fn draw_case(seed: u64) -> Case {
    let mut rng = XorShift::new(0x9a11_a4c0_0000_0000 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let width = 1 + rng.below(MAX_DEVICE);
    let device = draw_device(&mut rng, width);
    let qubits = if width > 1 && rng.below(4) == 0 { width - 1 } else { width };
    // Classical bits 0..conditions only feed conditions; the bits after
    // them are each measured once, so no condition reads a measurement.
    let conditions = rng.below(3);
    let measures = rng.below(3);
    let mut circuit = Circuit::with_clbits(qubits, conditions + measures);
    let mut pending_measures: Vec<usize> = (conditions..conditions + measures).collect();
    let mut reset = rng.below(2) == 1;
    // Half the cases keep to the two-qubit gates every direction can be
    // fixed for, so the direction passes do not refuse most of them.
    let flippable = rng.below(2) == 0;
    let gates = rng.below(MAX_GATES + 1);
    for _ in 0..gates {
        let gate = match rng.below(12) {
            0 if !pending_measures.is_empty() => {
                Gate::measure(rng.below(qubits), pending_measures.remove(0))
            }
            1 if reset => {
                reset = false;
                Gate::new(GateKind::Reset, vec![rng.below(qubits)])
            }
            2 => {
                let count = 1 + rng.below(qubits);
                Gate::barrier(distinct(&mut rng, qubits, count))
            }
            draw => {
                // A repeat of the last gate gives the cancelling passes
                // something to cancel.
                let last = circuit.gates().last().filter(|g| draw < 5 && !g.is_directive());
                let gate = match last {
                    Some(last) => Gate::new(last.kind, last.qubits.clone()),
                    None => {
                        let arity = [1, 1, 2, 2, 3][rng.below(5)].min(qubits);
                        let kind = draw_kind(&mut rng, arity, flippable);
                        Gate::new(kind, distinct(&mut rng, qubits, arity))
                    }
                };
                if conditions > 0 && rng.below(4) == 0 {
                    gate.with_classical_condition(rng.below(conditions), rng.below(2) == 1)
                } else {
                    gate
                }
            }
        };
        circuit.push(gate).expect("drawn gates are valid");
    }
    for clbit in pending_measures {
        circuit.push(Gate::measure(rng.below(qubits), clbit)).expect("valid measurement");
    }
    let mut physical: Vec<usize> = (0..width).collect();
    for i in (1..width).rev() {
        physical.swap(i, rng.below(i + 1));
    }
    let layout = Layout::from_logical_to_physical(physical).expect("a permutation");
    Case { device, circuit, layout }
}

/// A connected line over `width` qubits with drawn edge directions, plus
/// one drawn chord.
fn draw_device(rng: &mut XorShift, width: usize) -> CouplingMap {
    let mut device = CouplingMap::new(width);
    for a in 1..width {
        let (control, target) = if rng.below(2) == 0 { (a - 1, a) } else { (a, a - 1) };
        device.add_edge(control, target).unwrap();
    }
    if width > 2 {
        let a = rng.below(width);
        let b = (a + 2 + rng.below(width - 2)) % width;
        if !device.connected(a, b) {
            device.add_edge(a, b).unwrap();
        }
    }
    device
}

fn draw_kind(rng: &mut XorShift, arity: usize, flippable: bool) -> GateKind {
    let kind = match arity {
        1 => ONE_QUBIT[rng.below(ONE_QUBIT.len())],
        2 if flippable => [GateKind::CX, GateKind::CX, GateKind::CZ, GateKind::Swap][rng.below(4)],
        2 => TWO_QUBIT[rng.below(TWO_QUBIT.len())],
        _ => THREE_QUBIT[rng.below(THREE_QUBIT.len())],
    };
    let mut angle = || (rng.below(2001) as f64 - 1000.0) / 250.0;
    match kind {
        GateKind::RX(_) => GateKind::RX(angle()),
        GateKind::RY(_) => GateKind::RY(angle()),
        GateKind::RZ(_) => GateKind::RZ(angle()),
        GateKind::P(_) => GateKind::P(angle()),
        GateKind::U1(_) => GateKind::U1(angle()),
        GateKind::U2(..) => GateKind::U2(angle(), angle()),
        GateKind::U3(..) => GateKind::U3(angle(), angle(), angle()),
        GateKind::RZZ(_) => GateKind::RZZ(angle()),
        GateKind::CP(_) => GateKind::CP(angle()),
        GateKind::CRZ(_) => GateKind::CRZ(angle()),
        fixed => fixed,
    }
}

/// `count` distinct qubits out of `0..qubits`, in drawn order.
fn distinct(rng: &mut XorShift, qubits: usize, count: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..qubits).collect();
    (0..count).map(|_| pool.remove(rng.below(pool.len()))).collect()
}

fn show(circuit: &Circuit) -> String {
    let gates: Vec<String> = circuit.iter().map(Gate::canonical_form).collect();
    format!("{}q/{}c [{}]", circuit.num_qubits(), circuit.num_clbits(), gates.join("; "))
}

/// The reference computation of `RemoveFinalMeasurements`: drop every
/// measurement followed on its qubit by nothing but barriers.
fn without_final_measurements(circuit: &Circuit) -> Circuit {
    let gates = circuit.gates();
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for (i, gate) in gates.iter().enumerate() {
        let q = gate.qubits.first();
        let is_final = gate.kind == GateKind::Measure
            && gates[i + 1..]
                .iter()
                .all(|later| later.kind == GateKind::Barrier || !later.qubits.contains(q.unwrap()));
        if !is_final {
            out.push(gate.clone()).unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// Checks that `output` does what `reference` does, as far as measurements
/// can tell.  `wire_map[w] = p` says that `reference` wire `w` ends on
/// `output` wire `p`; `zero_input` compares on the all-zeros input only.
fn observably_equivalent(
    reference: &Circuit,
    output: &Circuit,
    wire_map: Option<&[usize]>,
    zero_input: bool,
) -> Result<(), String> {
    let data = output.num_qubits();
    if (reference.num_qubits(), reference.num_clbits()) != (data, output.num_clbits()) {
        return Err(format!(
            "register {}q/{}c, expected {}q/{}c",
            data,
            output.num_clbits(),
            reference.num_qubits(),
            reference.num_clbits()
        ));
    }
    if wire_map.is_some_and(|map| map.len() != data) {
        return Err(format!("wire map {wire_map:?} does not cover {data} wires"));
    }
    let both = || reference.iter().chain(output.iter());
    let mut measured: Vec<usize> =
        both().filter(|g| g.kind == GateKind::Measure).map(|g| g.clbits[0]).collect();
    measured.sort_unstable();
    measured.dedup();
    let mut condition_bits: Vec<usize> = both()
        .filter_map(|g| match g.condition?.kind {
            ConditionKind::Classical { bit, .. } => Some(bit),
            ConditionKind::Quantum { .. } => None,
        })
        .collect();
    condition_bits.sort_unstable();
    condition_bits.dedup();
    let register = Register { data, measured, env: both().any(|g| g.kind == GateKind::Reset) };
    let inputs = if zero_input { 1 } else { 1usize << data };
    for assignment in 0..1usize << condition_bits.len() {
        let mut clbits = vec![false; output.num_clbits()];
        for (i, &bit) in condition_bits.iter().enumerate() {
            clbits[bit] = assignment >> i & 1 == 1;
        }
        // One phase per outcome of the extra wires, fixed by the first
        // amplitude of that outcome large enough to read it from.
        let mut phases: Vec<Option<Complex>> = vec![None; 1 << register.extra()];
        for input in 0..inputs {
            let want = register.relabel(&register.run(reference, &clbits, input)?, wire_map);
            let got = register.run(output, &clbits, input)?;
            for (row, (w, g)) in want.iter().zip(&got).enumerate() {
                let phase = &mut phases[row >> data];
                let matches = match phase {
                    Some(phase) => (*g - *phase * *w).abs() < TOL,
                    None if w.abs() > TOL => {
                        let ratio = *g / *w;
                        *phase = Some(ratio);
                        (ratio.abs() - 1.0).abs() < TOL
                    }
                    None => g.abs() < TOL,
                };
                if !matches {
                    return Err(format!(
                        "differs under classical bits {clbits:?} on input {input:#b} at \
                         amplitude {row:#b}: {g} where {w} (times a phase) was expected"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The simulated register: the circuit's `data` qubits, one wire per
/// measured classical bit, and one wire a reset swaps its qubit into.
struct Register {
    data: usize,
    measured: Vec<usize>,
    env: bool,
}

impl Register {
    fn extra(&self) -> usize {
        self.measured.len() + usize::from(self.env)
    }

    /// The final state of `circuit` on the data basis state `input`.
    fn run(
        &self,
        circuit: &Circuit,
        clbits: &[bool],
        input: usize,
    ) -> Result<Vec<Complex>, String> {
        let mut state = vec![Complex::zero(); 1 << (self.data + self.extra())];
        state[input] = Complex::one();
        let cx = GateKind::CX.matrix().unwrap();
        let env = self.data + self.measured.len();
        for gate in circuit.iter() {
            match gate.condition.map(|c| c.kind) {
                Some(ConditionKind::Classical { bit, value }) if clbits[bit] != value => continue,
                Some(ConditionKind::Quantum { .. }) => return Err("quantum condition".into()),
                _ => {}
            }
            match gate.kind {
                GateKind::Barrier => {}
                GateKind::Measure => {
                    let slot = self.measured.binary_search(&gate.clbits[0]).unwrap();
                    apply(&mut state, &cx, &[gate.qubits[0], self.data + slot]);
                }
                GateKind::Reset => {
                    apply(&mut state, &cx, &[gate.qubits[0], env]);
                    apply(&mut state, &cx, &[env, gate.qubits[0]]);
                }
                kind => {
                    let matrix = kind.matrix().ok_or_else(|| format!("no matrix for {kind:?}"))?;
                    apply(&mut state, &matrix, &gate.qubits);
                }
            }
        }
        Ok(state)
    }

    /// Moves each data wire `w` of `state` to `wire_map[w]`.
    fn relabel(&self, state: &[Complex], wire_map: Option<&[usize]>) -> Vec<Complex> {
        let Some(map) = wire_map else { return state.to_vec() };
        let mut moved = vec![Complex::zero(); state.len()];
        for (row, amplitude) in state.iter().enumerate() {
            let mut to = row >> self.data << self.data;
            for (wire, &target) in map.iter().enumerate() {
                to |= (row >> wire & 1) << target;
            }
            moved[to] = *amplitude;
        }
        moved
    }
}

/// Applies a gate matrix to `targets` of a state vector (operand `i` is bit
/// `i` of the matrix index, as in `qc_ir::unitary::embed_gate`).
fn apply(state: &mut [Complex], matrix: &Matrix, targets: &[usize]) {
    let offsets: Vec<usize> = (0..1usize << targets.len())
        .map(|local| {
            targets
                .iter()
                .enumerate()
                .filter(|(i, _)| local >> i & 1 == 1)
                .map(|(_, t)| 1 << t)
                .sum()
        })
        .collect();
    let mask: usize = targets.iter().map(|t| 1 << t).sum();
    let mut amplitudes = vec![Complex::zero(); offsets.len()];
    for base in (0..state.len()).filter(|base| base & mask == 0) {
        for (amplitude, offset) in amplitudes.iter_mut().zip(&offsets) {
            *amplitude = state[base | offset];
        }
        for (row, offset) in offsets.iter().enumerate() {
            let mut sum = Complex::zero();
            for (col, amplitude) in amplitudes.iter().enumerate() {
                sum += matrix[(row, col)] * *amplitude;
            }
            state[base | offset] = sum;
        }
    }
}

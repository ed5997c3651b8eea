//! Fault-injection campaign: a mutation harness that proves the verifier
//! actually catches bugs.
//!
//! The registry of [`crate::registry::verified_passes`] demonstrates that
//! the verifier *accepts* correct passes; this module demonstrates the
//! other direction.  It systematically wounds pass semantics — swapped and
//! off-by-one wire maps, dropped/duplicated/reordered gates, wrong basis
//! decompositions, identity-instead-of-transform — and asserts that every
//! wound is refuted by **every** solver-backend routing, with a refutation that
//! carries structured fault coordinates ([`smtlite::FaultSite`]).
//!
//! Two layers:
//!
//! 1. **Mutation operators** ([`OperatorFamily`]) over the registry's
//!    proof obligations.  [`enumerate_mutants`] walks every
//!    `(pass × operator × site)` triple deterministically from a seed and
//!    keeps only *genuine* wounds: each candidate equivalence mutation is
//!    screened against the numeric unitary oracle
//!    ([`qc_ir::unitary::circuits_equivalent`]) under seeded segment
//!    instantiations, so semantically harmless mutations (dropping a
//!    barrier, reordering commuting gates, flipping a symmetric gate) are
//!    counted as *equivalent mutants* instead of polluting the detection
//!    rate.
//! 2. **Campaign driver** ([`run_campaign`]): each mutant's wounded
//!    obligation list is discharged through a fresh [`Discharger`] under
//!    both [`BackendSelection`]s, stopping at the first failure and folding
//!    through [`fold_verdict_stream`] like every verification run, recording
//!    the verdict, time-to-refute, and whether the refutation's
//!    [`FaultSite`] lands inside the wound's forward light-cone of wires.
//!
//! Sabotaged *compilations* are the generative campaign's job
//! ([`crate::gen`]).  The `giallar fuzz` CLI subcommand and the committed
//! `BENCH_bug_detection.json` artifact are thin wrappers over both.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use qc_ir::unitary::{circuits_equivalent, equivalent_up_to_permutation};
use qc_ir::{Circuit, Gate, GateKind};
use qc_symbolic::{SymCircuit, SymElement, Verdict};
use rayon::prelude::*;
use smtlite::FaultSite;

use crate::backend::BackendSelection;
use crate::obligation::{Goal, ProofObligation};
use crate::registry::verified_passes;
use crate::verifier::{fold_verdict_stream, pass_register_width, Discharger};

/// Parses a campaign seed.  Accepts a decimal integer, a `0x`-prefixed hex
/// integer, or — for anything else (the canonical CI seed `0xg1allar` is
/// not valid hex) — the FNV-1a hash of the raw string, so every spelling
/// names a deterministic campaign.
pub fn parse_seed(text: &str) -> u64 {
    if let Ok(value) = text.parse::<u64>() {
        return value;
    }
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        if let Ok(value) = u64::from_str_radix(hex, 16) {
            return value;
        }
    }
    fnv1a(text.as_bytes())
}

/// FNV-1a over bytes (the seed hash; stable across platforms).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A tiny deterministic PRNG (xorshift64*) for segment instantiation and
/// the generative corpus; the campaigns never need statistical quality,
/// only platform-stable variety.
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator from `seed` (the all-zeros fixed point is
    /// avoided by forcing the low bit).
    pub fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A draw uniform in `0..n` (`0` when `n` is zero).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The mutation operator families of the campaign (§"wounding pass
/// semantics").  At least five families must appear in any full campaign —
/// the committed artifact asserts seven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OperatorFamily {
    /// Swap two entries of a routing wire map (the pass tracked its SWAPs
    /// in the wrong order).
    WireMapSwap,
    /// Increment one wire-map entry (off-by-one routing target; may push
    /// the entry out of range or make the map non-bijective).
    WireMapOffByOne,
    /// Drop one emitted gate (the pass forgot to emit part of its
    /// rewrite).
    GateDrop,
    /// Duplicate one emitted gate (the pass emitted a rewrite twice).
    GateDuplicate,
    /// Swap two adjacent gates (the pass emitted its rewrite out of
    /// order).
    GateReorder,
    /// Replace a gate by a plausible-but-wrong variant: flipped CX
    /// direction, negated rotation angle, swapped Euler angles, truncated
    /// SWAP decomposition, S/T for their adjoints.
    WrongDecomposition,
    /// The pass claims a transformation but performs none: a termination
    /// measure that never decreases, or a routing goal whose emitted side
    /// is empty while the wire map still claims a permutation.
    IdentityTransform,
}

impl OperatorFamily {
    /// Every operator family, in artifact order.
    pub const ALL: [OperatorFamily; 7] = [
        OperatorFamily::WireMapSwap,
        OperatorFamily::WireMapOffByOne,
        OperatorFamily::GateDrop,
        OperatorFamily::GateDuplicate,
        OperatorFamily::GateReorder,
        OperatorFamily::WrongDecomposition,
        OperatorFamily::IdentityTransform,
    ];

    /// The family's stable name (used in the JSON artifact and CLI table).
    pub fn name(self) -> &'static str {
        match self {
            OperatorFamily::WireMapSwap => "wire-map-swap",
            OperatorFamily::WireMapOffByOne => "wire-map-off-by-one",
            OperatorFamily::GateDrop => "gate-drop",
            OperatorFamily::GateDuplicate => "gate-duplicate",
            OperatorFamily::GateReorder => "gate-reorder",
            OperatorFamily::WrongDecomposition => "wrong-decomposition",
            OperatorFamily::IdentityTransform => "identity-transform",
        }
    }
}

/// Where the refutation of a mutant is expected to point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// A [`FaultSite::Wire`] naming a wire inside this set (the forward
    /// light-cone of the mutated gate, or the remapped wire-map entries).
    Wires(Vec<usize>),
    /// A [`FaultSite::WireMap`] coordinate (malformed map), or a
    /// [`FaultSite::Wire`] within the remapped entries.
    WireMap(Vec<usize>),
    /// A [`FaultSite::Termination`] coordinate.
    Termination,
}

impl Expectation {
    /// Whether a reported fault site satisfies this expectation.
    pub fn matches(&self, site: &FaultSite) -> bool {
        match (self, site) {
            (Expectation::Wires(wires), FaultSite::Wire { wire }) => wires.contains(wire),
            (Expectation::WireMap(_), FaultSite::WireMap { .. }) => true,
            (Expectation::WireMap(wires), FaultSite::Wire { wire }) => wires.contains(wire),
            (Expectation::Termination, FaultSite::Termination { .. }) => true,
            _ => false,
        }
    }
}

/// One enumerated mutant: a registry pass with exactly one wounded proof
/// obligation.
#[derive(Clone)]
pub struct Mutant {
    /// Stable index in enumeration order (deterministic per seed).
    pub id: usize,
    /// The registry pass whose obligation was wounded.
    pub pass: &'static str,
    /// The operator family that produced the wound.
    pub family: OperatorFamily,
    /// Index of the wounded obligation in the pass's obligation list.
    pub obligation_index: usize,
    /// Description of the wounded obligation.
    pub obligation: String,
    /// Human-readable description of the wound site.
    pub site: String,
    /// Where the refutation is expected to point.
    pub expected: Expectation,
    /// The pass's full obligation list with the wound applied in place.
    pub obligations: Vec<ProofObligation>,
}

/// One candidate wound of a single goal, before the equivalent-mutant
/// filter.
struct Candidate {
    family: OperatorFamily,
    goal: Goal,
    site: String,
    expected: Expectation,
}

/// Outcome of screening a candidate against the numeric oracle.
enum Screen {
    /// Some instantiation witnesses non-equivalence: a genuine wound.
    Wound,
    /// Every instantiation stayed equivalent: an equivalent mutant.
    Equivalent,
    /// The oracle cannot decide (measurements, resets, oversized
    /// registers): conservatively skipped.
    Unknown,
}

/// The result of [`enumerate_mutants`]: the kept mutants plus the counts
/// of candidates the equivalent-mutant filter rejected.
pub struct MutantEnumeration {
    /// The kept (genuinely wounded) mutants, in deterministic order.
    pub mutants: Vec<Mutant>,
    /// Candidates rejected because every instantiation stayed equivalent.
    pub skipped_equivalent: usize,
    /// Candidates rejected because the numeric oracle could not decide.
    pub skipped_unknown: usize,
}

/// The wires a gate acts on (including a quantum condition's control
/// wire).
fn gate_wires(gate: &Gate) -> Vec<usize> {
    let mut wires = gate.qubits.clone();
    if let Some(condition) = &gate.condition {
        if let qc_ir::ConditionKind::Quantum { qubit } = condition.kind {
            wires.push(qubit);
        }
    }
    wires
}

/// The forward light-cone of a wound: starting from the mutated element's
/// wires, every wire a later element of the same circuit can entangle with
/// them.  The per-wire equivalence check can only report a differing wire
/// inside this set, so it bounds where a *precise* refutation must point.
fn forward_cone(
    elements: &[SymElement],
    from: usize,
    seed_wires: &[usize],
    width: usize,
) -> Vec<usize> {
    let mut cone: BTreeSet<usize> = seed_wires.iter().copied().collect();
    for element in elements.iter().skip(from) {
        match element {
            SymElement::Gate(gate) => {
                let wires = gate_wires(gate);
                if wires.iter().any(|w| cone.contains(w)) {
                    cone.extend(wires);
                }
            }
            SymElement::Segment { excluded_qubits, .. } => {
                let allowed: Vec<usize> =
                    (0..width).filter(|q| !excluded_qubits.contains(q)).collect();
                if allowed.iter().any(|w| cone.contains(w)) {
                    cone.extend(allowed);
                }
            }
        }
    }
    cone.into_iter().collect()
}

/// Rebuilds a symbolic circuit from an element list.
fn rebuild(width: usize, elements: Vec<SymElement>) -> SymCircuit {
    let mut circuit = SymCircuit::new(width);
    for element in elements {
        match element {
            SymElement::Gate(gate) => {
                circuit.push_gate(gate);
            }
            SymElement::Segment { name, excluded_qubits } => {
                circuit.push_segment(&name, excluded_qubits);
            }
        }
    }
    circuit
}

/// A plausible-but-wrong variant of a gate (the `wrong-decomposition`
/// operator), or `None` when no asymmetry is available to exploit.
fn wrong_variant(gate: &Gate) -> Option<(Gate, &'static str)> {
    let mut wounded = gate.clone();
    let label = match gate.kind {
        GateKind::CX | GateKind::CY | GateKind::CH | GateKind::Ecr => {
            wounded.qubits.reverse();
            "flipped operand order"
        }
        GateKind::CRZ(_) => {
            wounded.qubits.reverse();
            "flipped operand order"
        }
        GateKind::S => {
            wounded.kind = GateKind::Sdg;
            "adjoint instead of gate"
        }
        GateKind::Sdg => {
            wounded.kind = GateKind::S;
            "adjoint instead of gate"
        }
        GateKind::T => {
            wounded.kind = GateKind::Tdg;
            "adjoint instead of gate"
        }
        GateKind::Tdg => {
            wounded.kind = GateKind::T;
            "adjoint instead of gate"
        }
        GateKind::SX => {
            wounded.kind = GateKind::SXdg;
            "adjoint instead of gate"
        }
        GateKind::SXdg => {
            wounded.kind = GateKind::SX;
            "adjoint instead of gate"
        }
        GateKind::RX(theta) if theta != 0.0 => {
            wounded.kind = GateKind::RX(-theta);
            "negated angle"
        }
        GateKind::RY(theta) if theta != 0.0 => {
            wounded.kind = GateKind::RY(-theta);
            "negated angle"
        }
        GateKind::RZ(theta) if theta != 0.0 => {
            wounded.kind = GateKind::RZ(-theta);
            "negated angle"
        }
        GateKind::P(theta) if theta != 0.0 => {
            wounded.kind = GateKind::P(-theta);
            "negated angle"
        }
        GateKind::U1(theta) if theta != 0.0 => {
            wounded.kind = GateKind::U1(-theta);
            "negated angle"
        }
        GateKind::RZZ(theta) if theta != 0.0 => {
            wounded.kind = GateKind::RZZ(-theta);
            "negated angle"
        }
        GateKind::CP(theta) if theta != 0.0 => {
            wounded.kind = GateKind::CP(-theta);
            "negated angle"
        }
        GateKind::U2(phi, lam) if phi != lam => {
            wounded.kind = GateKind::U2(lam, phi);
            "swapped Euler angles"
        }
        GateKind::U3(theta, phi, lam) if phi != lam => {
            wounded.kind = GateKind::U3(theta, lam, phi);
            "swapped Euler angles"
        }
        GateKind::Swap => {
            wounded.kind = GateKind::CX;
            "truncated SWAP decomposition"
        }
        GateKind::CCX => {
            wounded.kind = GateKind::CX;
            wounded.qubits = vec![gate.qubits[1], gate.qubits[2]];
            "dropped Toffoli control"
        }
        _ => return None,
    };
    Some((wounded, label))
}

/// Translates a set of wound wires into the logical coordinates the
/// per-wire equivalence check reports in.  Plain equivalence goals and
/// lhs (original-side) wounds are already logical; a wound on the routed
/// side of a permutation goal lives in physical wires, and the check
/// reports the logical wire `l` whose image `perm[l]` differs.
fn expected_logical_wires(
    cone: Vec<usize>,
    mutated_is_lhs: bool,
    perm: Option<&[usize]>,
    width: usize,
) -> Vec<usize> {
    match perm {
        Some(perm) if !mutated_is_lhs => {
            (0..width).filter(|&l| cone.contains(perm.get(l).unwrap_or(&l))).collect()
        }
        _ => cone,
    }
}

/// Enumerates the gate-level candidates for one side of an equivalence
/// goal, rebuilding the goal with the mutated side in place.
fn side_candidates(
    side_name: &str,
    circuit: &SymCircuit,
    other: &SymCircuit,
    mutated_is_lhs: bool,
    perm: Option<&[usize]>,
    out: &mut Vec<Candidate>,
) {
    let width = circuit.num_qubits().max(other.num_qubits());
    let elements = circuit.elements();
    let remake_goal = |mutated: SymCircuit| -> Goal {
        let (lhs, rhs) =
            if mutated_is_lhs { (mutated, other.clone()) } else { (other.clone(), mutated) };
        match perm {
            None => Goal::Equivalence { lhs, rhs },
            Some(p) => Goal::EquivalenceUpToPermutation { lhs, rhs, perm: p.to_vec() },
        }
    };
    for (position, element) in elements.iter().enumerate() {
        let SymElement::Gate(gate) = element else { continue };
        let wires = gate_wires(gate);
        // gate-drop
        {
            let mut kept = elements.to_vec();
            kept.remove(position);
            let cone = forward_cone(elements, position + 1, &wires, width);
            out.push(Candidate {
                family: OperatorFamily::GateDrop,
                goal: remake_goal(rebuild(circuit.num_qubits(), kept)),
                site: format!("{side_name} gate {position} ({}) dropped", gate.name()),
                expected: Expectation::Wires(expected_logical_wires(
                    cone,
                    mutated_is_lhs,
                    perm,
                    width,
                )),
            });
        }
        // gate-duplicate
        {
            let mut doubled = elements.to_vec();
            doubled.insert(position + 1, element.clone());
            let cone = forward_cone(elements, position + 1, &wires, width);
            out.push(Candidate {
                family: OperatorFamily::GateDuplicate,
                goal: remake_goal(rebuild(circuit.num_qubits(), doubled)),
                site: format!("{side_name} gate {position} ({}) duplicated", gate.name()),
                expected: Expectation::Wires(expected_logical_wires(
                    cone,
                    mutated_is_lhs,
                    perm,
                    width,
                )),
            });
        }
        // gate-reorder (adjacent pair; identical gates are a no-op swap)
        if let Some(SymElement::Gate(next)) = elements.get(position + 1) {
            if next != gate {
                let mut swapped = elements.to_vec();
                swapped.swap(position, position + 1);
                let mut seeds = wires.clone();
                seeds.extend(gate_wires(next));
                let cone = forward_cone(elements, position + 2, &seeds, width);
                out.push(Candidate {
                    family: OperatorFamily::GateReorder,
                    goal: remake_goal(rebuild(circuit.num_qubits(), swapped)),
                    site: format!(
                        "{side_name} gates {position},{} ({},{}) reordered",
                        position + 1,
                        gate.name(),
                        next.name()
                    ),
                    expected: Expectation::Wires(expected_logical_wires(
                        cone,
                        mutated_is_lhs,
                        perm,
                        width,
                    )),
                });
            }
        }
        // wrong-decomposition
        if let Some((wounded, label)) = wrong_variant(gate) {
            let mut seeds = wires.clone();
            seeds.extend(gate_wires(&wounded));
            let cone = forward_cone(elements, position + 1, &seeds, width);
            let mut replaced = elements.to_vec();
            replaced[position] = SymElement::Gate(wounded);
            out.push(Candidate {
                family: OperatorFamily::WrongDecomposition,
                goal: remake_goal(rebuild(circuit.num_qubits(), replaced)),
                site: format!("{side_name} gate {position} ({}): {label}", gate.name()),
                expected: Expectation::Wires(expected_logical_wires(
                    cone,
                    mutated_is_lhs,
                    perm,
                    width,
                )),
            });
        }
    }
}

/// All candidate wounds of one goal, across every applicable operator
/// family.
fn goal_candidates(goal: &Goal) -> Vec<Candidate> {
    let mut out = Vec::new();
    match goal {
        Goal::Equivalence { lhs, rhs } => {
            side_candidates("lhs", lhs, rhs, true, None, &mut out);
            side_candidates("rhs", rhs, lhs, false, None, &mut out);
        }
        Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => {
            side_candidates("lhs", lhs, rhs, true, Some(perm), &mut out);
            side_candidates("rhs", rhs, lhs, false, Some(perm), &mut out);
            // wire-map-swap: exchange two distinct map entries.
            for i in 0..perm.len() {
                for j in (i + 1)..perm.len() {
                    if perm[i] == perm[j] {
                        continue;
                    }
                    let mut swapped = perm.clone();
                    swapped.swap(i, j);
                    out.push(Candidate {
                        family: OperatorFamily::WireMapSwap,
                        goal: Goal::EquivalenceUpToPermutation {
                            lhs: lhs.clone(),
                            rhs: rhs.clone(),
                            perm: swapped,
                        },
                        site: format!("wire map entries {i},{j} swapped"),
                        expected: Expectation::WireMap(vec![i, j]),
                    });
                }
            }
            // wire-map-off-by-one: increment one entry.
            for i in 0..perm.len() {
                let mut shifted = perm.clone();
                shifted[i] += 1;
                out.push(Candidate {
                    family: OperatorFamily::WireMapOffByOne,
                    goal: Goal::EquivalenceUpToPermutation {
                        lhs: lhs.clone(),
                        rhs: rhs.clone(),
                        perm: shifted,
                    },
                    site: format!("wire map entry {i} off by one"),
                    expected: Expectation::WireMap(vec![i]),
                });
            }
            // identity-transform: the routed side is emptied while the map
            // still claims the permutation happened.
            if !rhs.is_empty() {
                let removed: Vec<usize> = rhs
                    .elements()
                    .iter()
                    .flat_map(|e| match e {
                        SymElement::Gate(g) => gate_wires(g),
                        SymElement::Segment { excluded_qubits, .. } => {
                            (0..rhs.num_qubits()).filter(|q| !excluded_qubits.contains(q)).collect()
                        }
                    })
                    .collect();
                let mut affected: BTreeSet<usize> = removed.into_iter().collect();
                affected.extend((0..perm.len()).filter(|&l| perm[l] != l));
                out.push(Candidate {
                    family: OperatorFamily::IdentityTransform,
                    goal: Goal::EquivalenceUpToPermutation {
                        lhs: lhs.clone(),
                        rhs: SymCircuit::new(rhs.num_qubits()),
                        perm: perm.clone(),
                    },
                    site: "routed side emptied, wire map kept".to_string(),
                    expected: Expectation::Wires(affected.into_iter().collect()),
                });
            }
        }
        Goal::TerminationDecrease { consumed, kept } => {
            // identity-transform: the loop body pushes back everything it
            // consumed (kept = consumed), or consumes nothing at all.
            out.push(Candidate {
                family: OperatorFamily::IdentityTransform,
                goal: Goal::TerminationDecrease { consumed: *consumed, kept: *consumed },
                site: format!("kept raised to consumed ({consumed})"),
                expected: Expectation::Termination,
            });
            if *kept == 0 {
                out.push(Candidate {
                    family: OperatorFamily::IdentityTransform,
                    goal: Goal::TerminationDecrease { consumed: 0, kept: 0 },
                    site: "branch consumes nothing".to_string(),
                    expected: Expectation::Termination,
                });
            }
        }
        // The trivial goals have no falsifiable structure to wound.
        Goal::AlwaysTerminates | Goal::CircuitUnchanged => {}
    }
    out
}

/// Collects every segment name of a circuit with the union of its excluded
/// qubits (same name on both sides of a goal denotes the same subcircuit,
/// so the union keeps the instantiation consistent).
fn collect_segments(circuit: &SymCircuit, into: &mut BTreeMap<String, BTreeSet<usize>>) {
    for element in circuit.elements() {
        if let SymElement::Segment { name, excluded_qubits } = element {
            into.entry(name.clone()).or_default().extend(excluded_qubits.iter().copied());
        }
    }
}

/// Deterministically generates one concrete gate list per segment name:
/// variant 0 is the empty (identity) instantiation, later variants draw
/// 1–2 gates from a small palette on the segment's allowed qubits.
fn segment_assignment(
    segments: &BTreeMap<String, BTreeSet<usize>>,
    width: usize,
    seed: u64,
    variant: u64,
) -> BTreeMap<String, Vec<Gate>> {
    segments
        .iter()
        .map(|(name, excluded)| {
            let allowed: Vec<usize> = (0..width).filter(|q| !excluded.contains(q)).collect();
            let mut gates = Vec::new();
            if variant > 0 && !allowed.is_empty() {
                let mut rng = XorShift::new(
                    seed ^ fnv1a(name.as_bytes()) ^ variant.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                for _ in 0..=rng.below(2) {
                    let q = allowed[rng.below(allowed.len())];
                    match rng.below(4) {
                        0 => gates.push(Gate::new(GateKind::H, vec![q])),
                        1 => gates.push(Gate::new(GateKind::T, vec![q])),
                        2 => gates.push(Gate::new(GateKind::X, vec![q])),
                        _ if allowed.len() >= 2 => {
                            let candidates: Vec<usize> =
                                allowed.iter().copied().filter(|&p| p != q).collect();
                            let p = candidates[rng.below(candidates.len())];
                            gates.push(Gate::new(GateKind::CX, vec![q, p]));
                        }
                        _ => gates.push(Gate::new(GateKind::H, vec![q])),
                    }
                }
            }
            (name.clone(), gates)
        })
        .collect()
}

/// Instantiates a symbolic circuit to a concrete one over `width` wires,
/// substituting each segment by its assigned gates (pre-filtered to the
/// segment's allowed qubits via the exclusion union).
fn concretize(
    circuit: &SymCircuit,
    width: usize,
    assignment: &BTreeMap<String, Vec<Gate>>,
) -> Option<Circuit> {
    let mut num_clbits = 0;
    let mut gates: Vec<Gate> = Vec::new();
    for element in circuit.elements() {
        match element {
            SymElement::Gate(gate) => gates.push(gate.clone()),
            SymElement::Segment { name, .. } => {
                gates.extend(assignment.get(name)?.iter().cloned());
            }
        }
    }
    for gate in &gates {
        for &c in &gate.clbits {
            num_clbits = num_clbits.max(c + 1);
        }
        if let Some(condition) = &gate.condition {
            if let qc_ir::ConditionKind::Classical { bit, .. } = condition.kind {
                num_clbits = num_clbits.max(bit + 1);
            }
        }
    }
    let mut concrete = Circuit::with_clbits(width, num_clbits);
    for gate in gates {
        concrete.push(gate).ok()?;
    }
    Some(concrete)
}

/// Screens a mutated goal against the numeric unitary oracle: the wound is
/// kept only when some deterministic segment instantiation witnesses
/// non-equivalence.  Termination wounds are exact by construction.
fn screen_candidate(goal: &Goal, seed: u64) -> Screen {
    let (lhs, rhs, perm) = match goal {
        Goal::Equivalence { lhs, rhs } => (lhs, rhs, None),
        Goal::EquivalenceUpToPermutation { lhs, rhs, perm } => (lhs, rhs, Some(perm.as_slice())),
        Goal::TerminationDecrease { consumed, kept } => {
            return if kept >= consumed { Screen::Wound } else { Screen::Equivalent };
        }
        Goal::AlwaysTerminates | Goal::CircuitUnchanged => return Screen::Equivalent,
    };
    let width = lhs.num_qubits().max(rhs.num_qubits());
    let mut segments = BTreeMap::new();
    collect_segments(lhs, &mut segments);
    collect_segments(rhs, &mut segments);
    let mut undecided = false;
    for variant in 0..3u64 {
        let assignment = segment_assignment(&segments, width, seed, variant);
        let (Some(l), Some(r)) =
            (concretize(lhs, width, &assignment), concretize(rhs, width, &assignment))
        else {
            undecided = true;
            continue;
        };
        let verdict = match perm {
            None => circuits_equivalent(&l, &r),
            Some(p) => equivalent_up_to_permutation(&l, &r, p),
        };
        match verdict {
            Ok(false) => return Screen::Wound,
            Ok(true) => {}
            Err(_) => undecided = true,
        }
    }
    if undecided {
        Screen::Unknown
    } else {
        Screen::Equivalent
    }
}

/// Enumerates the mutant corpus: every `(pass × operator × site)` wound of
/// the registry's obligations that survives the equivalent-mutant filter,
/// in deterministic registry order.  `pass_filter` restricts to one pass.
pub fn enumerate_mutants(seed: u64, pass_filter: Option<&str>) -> MutantEnumeration {
    let mut mutants = Vec::new();
    let mut skipped_equivalent = 0;
    let mut skipped_unknown = 0;
    for pass in verified_passes() {
        if let Some(filter) = pass_filter {
            if pass.name != filter {
                continue;
            }
        }
        let obligations = (pass.obligations)();
        for (obligation_index, obligation) in obligations.iter().enumerate() {
            for candidate in goal_candidates(&obligation.goal) {
                match screen_candidate(&candidate.goal, seed) {
                    Screen::Equivalent => skipped_equivalent += 1,
                    Screen::Unknown => skipped_unknown += 1,
                    Screen::Wound => {
                        let mut wounded = obligations.clone();
                        wounded[obligation_index].goal = candidate.goal;
                        mutants.push(Mutant {
                            id: mutants.len(),
                            pass: pass.name,
                            family: candidate.family,
                            obligation_index,
                            obligation: obligation.description.clone(),
                            site: candidate.site,
                            expected: candidate.expected,
                            obligations: wounded,
                        });
                    }
                }
            }
        }
    }
    MutantEnumeration { mutants, skipped_equivalent, skipped_unknown }
}

/// One backend's run over a mutant's wounded obligation list.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// The backend selection the obligations were discharged under.
    pub selection: BackendSelection,
    /// Whether the walk ended in a refutation (not merely `Unknown`).
    pub refuted: bool,
    /// Index of the first failing obligation, when the walk failed.
    pub failed_index: Option<usize>,
    /// The fold's failure text (subgoal description plus counterexample).
    pub failure: Option<String>,
    /// The structured fault coordinates carried by the refutation.
    pub site: Option<FaultSite>,
    /// Wall-clock time of the walk (machine-dependent; stripped from the
    /// committed artifact).
    pub time_seconds: f64,
}

/// The campaign outcome for one mutant across every backend routing.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Mutant id (enumeration order).
    pub id: usize,
    /// The wounded registry pass.
    pub pass: &'static str,
    /// Operator family of the wound.
    pub family: OperatorFamily,
    /// Index of the wounded obligation.
    pub obligation_index: usize,
    /// Description of the wounded obligation.
    pub obligation: String,
    /// Wound site description.
    pub site: String,
    /// Both backends refuted the wound at the wounded obligation.
    pub detected: bool,
    /// Every refutation carried structured fault coordinates.
    pub localized: bool,
    /// Every reported coordinate lands inside the wound's expected set
    /// (forward cone / remapped entries / termination measure).
    pub precise: bool,
    /// The per-backend runs, in [`BackendSelection::ALL`] order.
    pub runs: Vec<BackendRun>,
}

/// Configuration of a registry campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Campaign seed (drives segment instantiation in the filter).
    pub seed: u64,
    /// Cap on the number of mutants run (enumeration order prefix).
    pub max_mutants: Option<usize>,
    /// Restrict to one registry pass.
    pub pass_filter: Option<String>,
}

/// The full registry-campaign report.
pub struct CampaignReport {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Per-mutant outcomes, in enumeration order.
    pub outcomes: Vec<MutantOutcome>,
    /// How many genuine mutants the enumeration produced *before* any
    /// `max_mutants` truncation — when this exceeds `outcomes.len()` the
    /// campaign covered only an enumeration-order prefix, and every report
    /// surface must say so (no silent caps).
    pub enumerated: usize,
    /// Candidates rejected as equivalent mutants.
    pub skipped_equivalent: usize,
    /// Candidates the numeric oracle could not decide.
    pub skipped_unknown: usize,
}

impl CampaignReport {
    /// Number of mutants run.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether `max_mutants` truncated the campaign to a prefix of the
    /// enumeration.
    pub fn truncated(&self) -> bool {
        self.enumerated > self.outcomes.len()
    }

    /// Number of detected (refuted-by-both-backends) mutants.
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// The surviving mutants (wounds the verifier failed to refute).
    pub fn survivors(&self) -> Vec<&MutantOutcome> {
        self.outcomes.iter().filter(|o| !o.detected).collect()
    }

    /// Detected fraction (1.0 on an empty campaign).
    pub fn detection_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.detected() as f64 / self.outcomes.len() as f64
        }
    }

    /// Fraction of detected mutants whose refutations carried precise
    /// structured coordinates (the explanation-quality score).
    pub fn explanation_quality(&self) -> f64 {
        let detected = self.detected();
        if detected == 0 {
            return if self.outcomes.is_empty() { 1.0 } else { 0.0 };
        }
        self.outcomes.iter().filter(|o| o.detected && o.localized && o.precise).count() as f64
            / detected as f64
    }

    /// Operator families present in the campaign, in artifact order.
    pub fn families(&self) -> Vec<OperatorFamily> {
        OperatorFamily::ALL
            .into_iter()
            .filter(|f| self.outcomes.iter().any(|o| o.family == *f))
            .collect()
    }
}

/// Discharges one mutant's wounded obligation list under one backend,
/// stopping at the first failure and folding through
/// [`fold_verdict_stream`], capturing the first failing verdict and its
/// fault site.  A mutant is not a registry pass, so it does not go through
/// the cached run, which discharges every miss.
fn run_mutant_backend(mutant: &Mutant, selection: BackendSelection) -> BackendRun {
    let start = Instant::now();
    let mut discharger = Discharger::with_selection(selection);
    discharger.prewarm(pass_register_width(&mutant.obligations));
    let mut stream: Vec<(Verdict, String)> = Vec::new();
    let mut failing: Option<(usize, Verdict)> = None;
    for (index, obligation) in mutant.obligations.iter().enumerate() {
        let verdict = discharger.discharge(&obligation.goal);
        let failed = !verdict.is_proved();
        stream.push((verdict.clone(), obligation.description.clone()));
        if failed {
            failing = Some((index, verdict));
            break;
        }
    }
    let fold = fold_verdict_stream(stream);
    let (failed_index, refuted, site) = match &failing {
        Some((index, verdict)) => (Some(*index), verdict.is_refuted(), verdict.fault_site()),
        None => (None, false, None),
    };
    debug_assert_eq!(fold.verified, failing.is_none());
    BackendRun {
        selection,
        refuted,
        failed_index,
        failure: fold.failure,
        site,
        time_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs one mutant through every backend routing and classifies the outcome.
fn run_mutant(mutant: &Mutant) -> MutantOutcome {
    let runs: Vec<BackendRun> =
        BackendSelection::ALL.iter().map(|s| run_mutant_backend(mutant, *s)).collect();
    let detected =
        runs.iter().all(|r| r.refuted && r.failed_index == Some(mutant.obligation_index));
    let localized = detected && runs.iter().all(|r| r.site.is_some());
    let precise = localized
        && runs.iter().all(|r| r.site.as_ref().is_some_and(|s| mutant.expected.matches(s)));
    MutantOutcome {
        id: mutant.id,
        pass: mutant.pass,
        family: mutant.family,
        obligation_index: mutant.obligation_index,
        obligation: mutant.obligation.clone(),
        site: mutant.site.clone(),
        detected,
        localized,
        precise,
        runs,
    }
}

/// Runs the registry campaign: enumerate the corpus, then discharge every
/// mutant through every backend routing in parallel (report order stays
/// deterministic — outcomes come back in enumeration order).
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let enumeration = enumerate_mutants(config.seed, config.pass_filter.as_deref());
    let mut mutants = enumeration.mutants;
    let enumerated = mutants.len();
    if let Some(max) = config.max_mutants {
        mutants.truncate(max);
    }
    let outcomes: Vec<MutantOutcome> = mutants.par_iter().map(run_mutant).collect();
    CampaignReport {
        seed: config.seed,
        outcomes,
        enumerated,
        skipped_equivalent: enumeration.skipped_equivalent,
        skipped_unknown: enumeration.skipped_unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_hex_and_arbitrary_strings() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xff"), 255);
        // `0xg1allar` is not valid hex: it hashes, deterministically.
        assert_eq!(parse_seed("0xg1allar"), parse_seed("0xg1allar"));
        assert_ne!(parse_seed("0xg1allar"), parse_seed("0xg1allaz"));
    }

    #[test]
    fn corpus_spans_the_required_families_and_size() {
        let enumeration = enumerate_mutants(parse_seed("0xg1allar"), None);
        assert!(
            enumeration.mutants.len() >= 100,
            "corpus has only {} mutants",
            enumeration.mutants.len()
        );
        let families: BTreeSet<OperatorFamily> =
            enumeration.mutants.iter().map(|m| m.family).collect();
        assert!(families.len() >= 5, "only {} operator families: {families:?}", families.len());
        // The equivalent-mutant filter is doing real work: barrier drops,
        // commuting reorders, and symmetric flips must be screened out.
        assert!(enumeration.skipped_equivalent > 0);
    }

    #[test]
    fn enumeration_is_deterministic_per_seed() {
        let seed = parse_seed("0xg1allar");
        let a = enumerate_mutants(seed, None);
        let b = enumerate_mutants(seed, None);
        assert_eq!(a.mutants.len(), b.mutants.len());
        for (x, y) in a.mutants.iter().zip(&b.mutants) {
            assert_eq!(x.pass, y.pass);
            assert_eq!(x.family, y.family);
            assert_eq!(x.site, y.site);
            assert_eq!(x.obligation_index, y.obligation_index);
        }
    }

    #[test]
    fn pass_filter_restricts_the_corpus() {
        let enumeration = enumerate_mutants(0, Some("CXCancellation"));
        assert!(!enumeration.mutants.is_empty());
        assert!(enumeration.mutants.iter().all(|m| m.pass == "CXCancellation"));
    }

    #[test]
    fn a_sampled_campaign_detects_and_localizes_every_wound() {
        // The full corpus runs in the release-mode CLI and CI; here a
        // bounded prefix keeps the debug-mode test fast while still
        // exercising the driver end to end.
        let report = run_campaign(&CampaignConfig {
            seed: parse_seed("0xg1allar"),
            max_mutants: Some(24),
            pass_filter: None,
        });
        assert_eq!(report.total(), 24);
        assert_eq!(report.detected(), 24, "survivors: {:?}", report.survivors().len());
        assert!(report.outcomes.iter().all(|o| o.localized), "a refutation lost its fault site");
        assert!(report.outcomes.iter().all(|o| o.precise), "a fault site escaped its cone");
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.explanation_quality(), 1.0);
    }

    #[test]
    fn termination_wounds_are_refuted_with_termination_sites() {
        let report = run_campaign(&CampaignConfig {
            seed: 7,
            max_mutants: None,
            pass_filter: Some("CXCancellation".to_string()),
        });
        assert!(report.total() > 0);
        assert_eq!(report.detected(), report.total());
        let termination: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.family == OperatorFamily::IdentityTransform)
            .collect();
        assert!(!termination.is_empty());
        for outcome in termination {
            for run in &outcome.runs {
                assert!(
                    matches!(run.site, Some(FaultSite::Termination { .. })),
                    "expected a termination site, got {:?}",
                    run.site
                );
            }
        }
    }
}

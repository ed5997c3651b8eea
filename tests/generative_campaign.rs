//! Properties of the generative fuzz campaign, exercised through the
//! `giallar` facade: every generated circuit is a valid `qc-ir` circuit,
//! restricted alphabets stay inside their gate sets, the corpus is a pure
//! function of the seed with stable prefixes, and a small end-to-end
//! campaign is byte-reproducible and survivor-free.

use giallar::core::gen::{
    generate_circuit, generate_corpus, run_generative_campaign, GateAlphabet, GenConfig,
};
use giallar::core::mutate::{parse_seed, XorShift};
use giallar::ir::GateKind;
use proptest::prelude::*;

fn config(
    seed: u64,
    circuits: usize,
    max_width: usize,
    max_depth: usize,
    alphabet: Option<GateAlphabet>,
) -> GenConfig {
    GenConfig { seed, circuits, max_width, max_depth, alphabet }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generated circuit is valid by construction: the drawn depth is
    /// hit exactly, arities match, and operands are distinct and in range.
    #[test]
    fn generated_circuits_are_valid(
        seed in 0u64..u64::MAX,
        width in 2usize..7,
        depth in 1usize..33,
        alphabet_index in 0usize..3,
    ) {
        let alphabet = GateAlphabet::ALL[alphabet_index];
        let circuit = generate_circuit(&mut XorShift::new(seed), alphabet, width, depth);
        prop_assert_eq!(circuit.num_qubits(), width);
        prop_assert_eq!(circuit.size(), depth);
        for gate in circuit.gates() {
            prop_assert_eq!(gate.qubits.len(), gate.kind.arity());
            for (i, &q) in gate.qubits.iter().enumerate() {
                prop_assert!(q < width, "operand {q} out of range for width {width}");
                prop_assert!(!gate.qubits[..i].contains(&q), "duplicate operand {q}");
            }
        }
    }

    /// Restricted alphabet presets emit only their own gates.
    #[test]
    fn restricted_alphabets_stay_in_their_gate_set(
        seed in 0u64..u64::MAX,
        depth in 1usize..33,
    ) {
        let basis = generate_circuit(&mut XorShift::new(seed), GateAlphabet::Basis, 4, depth);
        for gate in basis.gates() {
            prop_assert!(
                matches!(
                    gate.kind,
                    GateKind::RZ(_) | GateKind::RX(_) | GateKind::RY(_) | GateKind::H
                        | GateKind::CX
                ),
                "{:?} outside the basis alphabet",
                gate.kind
            );
        }
        let ct = generate_circuit(&mut XorShift::new(seed), GateAlphabet::CliffordT, 4, depth);
        for gate in ct.gates() {
            prop_assert!(
                matches!(
                    gate.kind,
                    GateKind::H | GateKind::S | GateKind::Sdg | GateKind::T | GateKind::Tdg
                        | GateKind::X | GateKind::Y | GateKind::Z | GateKind::CX
                ),
                "{:?} outside the clifford+t alphabet",
                gate.kind
            );
        }
    }

    /// The corpus is a pure function of the seed, and any prefix of a
    /// larger corpus equals the smaller corpus (per-index PRNG derivation).
    #[test]
    fn corpus_is_seed_deterministic_with_stable_prefixes(
        seed in 0u64..u64::MAX,
        circuits in 1usize..9,
    ) {
        let small = config(seed, circuits, 5, 12, None);
        let first = generate_corpus(&small).unwrap();
        let again = generate_corpus(&small).unwrap();
        let larger = generate_corpus(&config(seed, circuits + 3, 5, 12, None)).unwrap();
        prop_assert_eq!(first.len(), circuits);
        for (a, b) in first.iter().zip(again.iter()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.circuit, &b.circuit);
        }
        for (a, b) in first.iter().zip(larger.iter()) {
            prop_assert_eq!(&a.name, &b.name, "prefix drifted under a larger corpus");
            prop_assert_eq!(&a.circuit, &b.circuit);
        }
    }

    /// Invalid configurations are rejected with a message naming the
    /// offending parameter — the contract the CLI flag mapping relies on.
    #[test]
    fn invalid_configs_name_the_offending_parameter(seed in 0u64..u64::MAX) {
        let zero_circuits = generate_corpus(&config(seed, 0, 5, 12, None)).unwrap_err();
        prop_assert!(zero_circuits.contains("circuits"), "{zero_circuits}");
        let thin = generate_corpus(&config(seed, 2, 1, 12, None)).unwrap_err();
        prop_assert!(thin.contains("width"), "{thin}");
        let flat = generate_corpus(&config(seed, 2, 5, 0, None)).unwrap_err();
        prop_assert!(flat.contains("depth"), "{flat}");
    }
}

/// A small end-to-end campaign through the real certify/check oracle:
/// every semantic fault is refused by both backends, every honest
/// certificate is accepted, and the deterministic report is byte-stable
/// across runs of the same seed.
#[test]
fn small_campaign_is_survivor_free_and_byte_reproducible() {
    let config = config(parse_seed("0xg1allar"), 4, 4, 8, None);
    let first = run_generative_campaign(&config, "line:6", 11).unwrap();
    let second = run_generative_campaign(&config, "line:6", 11).unwrap();

    assert_eq!(first.generated, 4);
    assert!(first.drawn() >= first.generated * 2, "each circuit draws at least two faults");
    assert!(first.semantic() > 0, "a drawn matrix this size always wounds semantically");
    assert_eq!(first.refused(), first.semantic(), "a semantic fault escaped a backend");
    assert!(first.survivors().is_empty());
    assert_eq!(
        first.honest_accepted,
        first.generated - first.skipped_uncompiled,
        "an honest certificate was refused"
    );

    let a = first.to_json(false).to_pretty();
    let b = second.to_json(false).to_pretty();
    assert_eq!(a, b, "deterministic report drifted between runs of one seed");
}

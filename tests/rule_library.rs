//! The rewrite-rule library, pinned rule by rule and checked against the
//! matrix semantics.
//!
//! `tests/data/rule_library.txt` holds one line per rule, in library order:
//! its class, the identity it comes from and its canonical `name: lhs ->
//! rhs` form.  Every cached verdict and certificate is keyed by
//! `rule_library_fingerprint()`, which folds exactly these three fields, so
//! any edit to the library shows up here first, as a named line.  After an
//! intended library change, edit the data file by hand from the actual lines
//! the failing assertion prints and re-pin the fingerprint.
//!
//! Every rule is derived from a circuit identity, so the soundness tests
//! check the identities: each on its minimal register and embedded in a
//! larger one, the parameterised ones at seeded angles, and each must also
//! be discharged by the symbolic checker that uses the rules.

use std::collections::BTreeSet;
use std::f64::consts::{FRAC_PI_2, PI};

use giallar::ir::Circuit;
use giallar::symbolic::{
    check_equivalence, check_equivalence_with_permutation, check_identity, circuit_rewrite_rules,
    rule_identities, rule_library_fingerprint, RuleClass, RuleIdentity, SymCircuit,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const FINGERPRINT: &str = "97a1006bf4c9e1b3";

#[test]
fn the_library_matches_its_pinned_lines() {
    let path = format!("{}/tests/data/rule_library.txt", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let pinned: Vec<&str> = pinned.lines().collect();
    let actual: Vec<String> = circuit_rewrite_rules()
        .iter()
        .map(|rule| format!("{:?} {} {}", rule.class, rule.identity, rule.rule.canonical_form()))
        .collect();
    for (index, (pinned, actual)) in pinned.iter().zip(&actual).enumerate() {
        assert_eq!(pinned, actual, "rule {index} differs from line {}", index + 1);
    }
    assert_eq!(pinned.len(), actual.len(), "rule count differs");
    assert_eq!(rule_library_fingerprint().to_hex(), FINGERPRINT);
}

#[test]
fn rule_names_are_unique() {
    let rules = circuit_rewrite_rules();
    let names: BTreeSet<&str> = rules.iter().map(|r| r.rule.name.as_str()).collect();
    assert_eq!(names.len(), rules.len());
}

/// The angles every parameterised identity is checked at: 0, ±π/2, ±π and
/// six that are not multiples of π/2, four of them drawn from a fixed seed.
fn angles() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut angles = vec![0.0, FRAC_PI_2, -FRAC_PI_2, PI, -PI, 0.37, -2.5];
    angles.extend((0..4).map(|_| rng.random_range(-2.0 * PI..2.0 * PI)));
    angles
}

fn is_parameterised(identity: &RuleIdentity) -> bool {
    let gates = identity.lhs.gates().iter().chain(identity.rhs.gates());
    gates.clone().any(|gate| !gate.kind.params().is_empty())
}

#[test]
fn every_identity_is_sound_against_the_matrix_semantics() {
    let mut parameterised = BTreeSet::new();
    for angle in angles() {
        for identity in rule_identities(angle) {
            if is_parameterised(&identity) {
                parameterised.insert(identity.name.clone());
            }
            check_identity(&identity).unwrap_or_else(|error| panic!("at angle {angle}: {error}"));
        }
    }
    assert_eq!(parameterised.len(), 8, "{parameterised:?}");
}

#[test]
fn symbolic_checker_discharges_its_own_identities() {
    // Consistency: every identity that backs a rewrite rule must be
    // provable by the symbolic equivalence checker itself.
    for angle in angles() {
        for identity in rule_identities(angle) {
            let lhs = SymCircuit::from_circuit(&identity.lhs);
            let rhs = SymCircuit::from_circuit(&identity.rhs);
            let verdict = match &identity.permutation {
                None => check_equivalence(&lhs, &rhs),
                Some(perm) => check_equivalence_with_permutation(&rhs, &lhs, perm),
            };
            assert!(
                verdict.is_proved(),
                "identity `{}` at angle {angle} is not discharged symbolically: {verdict:?}",
                identity.name
            );
        }
    }
}

/// `rz(angle)` on a CX target, then the CX, claimed equal to the CX alone:
/// false for every angle but multiples of 2π.
fn planted(angle: f64) -> RuleIdentity {
    let mut lhs = Circuit::new(2);
    lhs.rz(angle, 1).cx(0, 1);
    let mut rhs = Circuit::new(2);
    rhs.cx(0, 1);
    RuleIdentity {
        name: "erase_rz_cx_target".into(),
        class: RuleClass::Commutation,
        lhs,
        rhs,
        permutation: None,
        rule_names: Vec::new(),
    }
}

#[test]
fn a_planted_unsound_identity_fails_and_names_its_rule() {
    // The rule that erases an `rz` on a CX target from the target's term.
    let rule = "erase_rz_cx_target_2: cx_2(?a,rz(?p,?b)) -> cx_2(?a,?b)";
    let derived: Vec<String> =
        planted(0.37).rules().iter().map(|r| r.rule.canonical_form()).collect();
    assert!(derived.iter().any(|form| form == rule), "{derived:?}");

    // At angle 0 the rotation is the identity gate and the planted identity
    // holds, so a check at one angle is not enough.
    assert_eq!(check_identity(&planted(0.0)), Ok(()));
    for angle in angles().into_iter().filter(|&angle| angle != 0.0) {
        let error = check_identity(&planted(angle)).expect_err("the planted identity is unsound");
        assert!(error.contains("identity `erase_rz_cx_target`"), "{error}");
        assert!(error.contains(rule), "{error}");
    }
}

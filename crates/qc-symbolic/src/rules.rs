//! The library of circuit rewrite rules (Figure 7 of the paper).
//!
//! The library is spelled once, as small *circuit identities*
//! ([`rule_identities`]) — e.g. "two adjacent CNOTs on the same qubits are
//! the identity", "a Z rotation on the control commutes with CNOT",
//! "conjugating a CNOT with Hadamards reverses its direction".  Every rewrite
//! rule is derived from one identity ([`RuleIdentity::rules`]): both sides
//! are folded over wire patterns into the terms the symbolic executor builds,
//! and each wire on which they differ becomes one directed rule, so that
//! rewriting every wire of the left-hand fragment yields exactly the wires of
//! the right-hand fragment.  A rule that is not the wire projection of an
//! identity cannot be written.
//!
//! The identities are checked against the dense matrix semantics by
//! [`crate::soundness`]; this replaces the paper's once-and-for-all Coq
//! proofs.  Where a rule's name or position differs from the default, the
//! identity carries it as data ([`RuleIdentity::rule_names`]), which keeps the
//! names, order and canonical forms — and with them
//! [`rule_library_fingerprint`], every cache key and every certificate —
//! stable.

use std::sync::OnceLock;

use qc_ir::{Circuit, GateKind};
use serde::{Deserialize, Serialize};
use smtlite::{Fingerprint, FingerprintBuilder, Pattern, RewriteRule};

use crate::exec::gate_func_name;

/// Version of the rewrite-rule library format.  Bump on any semantic change
/// that the structural fingerprint of [`rule_library_fingerprint`] cannot
/// see (e.g. a change to how rules are *applied* rather than which rules
/// exist); the incremental verification cache stores the combined
/// fingerprint and re-discharges every pass when it moves.
pub const RULE_LIBRARY_VERSION: u32 = 1;

/// A stable content fingerprint of the full rewrite-rule library: the
/// version constant above plus the class, backing identity, and canonical
/// `lhs -> rhs` form of every rule, in library order.
///
/// Cached pass verdicts are only valid for the rule library they were
/// discharged under, so this fingerprint is folded into every pass
/// fingerprint by the incremental verification cache in `giallar-core`.
pub fn rule_library_fingerprint() -> Fingerprint {
    static FINGERPRINT: OnceLock<Fingerprint> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let mut builder = FingerprintBuilder::new();
        builder.write_str("giallar-rule-library");
        builder.write_u64(u64::from(RULE_LIBRARY_VERSION));
        for rule in circuit_rewrite_rules() {
            builder.write_str(&format!("{:?}", rule.class));
            builder.write_str(&rule.identity);
            builder.write_str(&rule.rule.canonical_form());
        }
        builder.finish()
    })
}

/// The paper's classification of rewrite rules (§8, "Reusability").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuleClass {
    /// Adjacent self-inverse (or mutually inverse) gates cancel.
    Cancellation,
    /// Gates that commute may be reordered.
    Commutation,
    /// SWAP gates exchange their wires.
    Swap,
    /// CNOT direction reversal via Hadamard conjugation.
    Direction,
}

/// A rewrite rule together with its class and the name of the circuit
/// identity it was derived from.
#[derive(Debug, Clone)]
pub struct ClassifiedRule {
    /// Which family the rule belongs to.
    pub class: RuleClass,
    /// Name of the underlying circuit identity (see [`rule_identities`]).
    pub identity: String,
    /// The directed rewrite rule itself.
    pub rule: RewriteRule,
}

/// A circuit identity backing one or more rewrite rules.
#[derive(Debug, Clone)]
pub struct RuleIdentity {
    /// Identity name, referenced by [`ClassifiedRule::identity`].
    pub name: String,
    /// The class of every rule derived from the identity.
    pub class: RuleClass,
    /// Left-hand circuit.
    pub lhs: Circuit,
    /// Right-hand circuit.
    pub rhs: Circuit,
    /// When `Some(perm)`, the identity holds up to this output permutation
    /// (only the SWAP-elimination identity uses this).
    pub permutation: Option<Vec<usize>>,
    /// The derived rules as `(wire, rule name)` in library order, when not
    /// the default; empty means one rule per wire on which the sides
    /// differ, in wire order, named `{name}` on a one-qubit identity and
    /// `{name}_{wire + 1}` otherwise.
    pub rule_names: Vec<(usize, String)>,
}

impl RuleIdentity {
    /// The rewrite rules the identity backs: rule `k` rewrites lhs wire `k`
    /// into rhs wire `permutation[k]`, for every wire on which the two
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics when [`RuleIdentity::rule_names`] is not empty and names other
    /// wires than those on which the two sides differ.
    pub fn rules(&self) -> Vec<ClassifiedRule> {
        let lhs = wire_patterns(&self.lhs);
        let rhs = wire_patterns(&self.rhs);
        let target = |k: usize| self.permutation.as_ref().map_or(k, |perm| perm[k]);
        let differing: Vec<usize> = (0..lhs.len()).filter(|&k| lhs[k] != rhs[target(k)]).collect();
        let named = if self.rule_names.is_empty() {
            let name = |k: usize| match lhs.len() {
                1 => self.name.clone(),
                _ => format!("{}_{}", self.name, k + 1),
            };
            differing.iter().map(|&k| (k, name(k))).collect()
        } else {
            let mut wires: Vec<usize> = self.rule_names.iter().map(|&(k, _)| k).collect();
            wires.sort_unstable();
            assert_eq!(wires, differing, "identity `{}` names the wrong wires", self.name);
            self.rule_names.clone()
        };
        named
            .into_iter()
            .map(|(k, name)| ClassifiedRule {
                class: self.class,
                identity: self.name.clone(),
                rule: RewriteRule::new(&name, lhs[k].clone(), rhs[target(k)].clone()),
            })
            .collect()
    }
}

/// Folds a circuit over the wire patterns `q` (one qubit) or `a, b, c` into
/// the terms [`crate::SymbolicExecutor::apply_gate`] builds: head
/// [`gate_func_name`], suffixed `_k` on output `k` of a multi-qubit gate,
/// applied to the angles (each the variable `p`) and then the input wires.
/// Barriers are skipped.
fn wire_patterns(circuit: &Circuit) -> Vec<Pattern> {
    let mut wires: Vec<Pattern> = match circuit.num_qubits() {
        1 => vec![Pattern::var("q")],
        n => ["a", "b", "c"][..n].iter().map(|name| Pattern::var(name)).collect(),
    };
    for gate in circuit.gates().iter().filter(|gate| gate.kind != GateKind::Barrier) {
        let head = gate_func_name(gate);
        let mut args: Vec<Pattern> = gate.kind.params().iter().map(|_| Pattern::var("p")).collect();
        args.extend(gate.qubits.iter().map(|&q| wires[q].clone()));
        if let [q] = gate.qubits[..] {
            wires[q] = Pattern::app(&head, args);
        } else {
            for (k, &q) in gate.qubits.iter().enumerate() {
                wires[q] = Pattern::app(&format!("{head}_{}", k + 1), args.clone());
            }
        }
    }
    wires
}

/// Self-inverse 1-qubit gates.
const SELF_INV_1Q: [&str; 4] = ["x", "y", "z", "h"];
/// Mutually inverse 1-qubit gate pairs.
const INV_PAIRS_1Q: [(&str, &str); 3] = [("s", "sdg"), ("t", "tdg"), ("sx", "sxdg")];
/// Self-inverse multi-qubit gates with their operands (SWAP has its own
/// identity).
const SELF_INV_MULTI: [(&str, &[usize]); 5] =
    [("cx", &[0, 1]), ("cy", &[0, 1]), ("cz", &[0, 1]), ("ch", &[0, 1]), ("ccx", &[0, 1, 2])];
/// Diagonal 1-qubit gates, which commute with a CNOT control.
const CX_CONTROL: [&str; 8] = ["z", "s", "sdg", "t", "tdg", "rz", "u1", "p"];
/// X-axis 1-qubit gates, which commute with a CNOT target.
const CX_TARGET: [&str; 4] = ["x", "sx", "sxdg", "rx"];
/// Diagonal 1-qubit gates given a rule on either CZ wire.
const CZ_EITHER: [&str; 5] = ["z", "s", "t", "u1", "rz"];

/// The full rewrite-rule library, derived once per process from the
/// identities and shared by every solver context.
pub fn circuit_rewrite_rules() -> &'static [ClassifiedRule] {
    static LIBRARY: OnceLock<Vec<ClassifiedRule>> = OnceLock::new();
    // Any angle derives the same rules: each becomes the variable `p`.
    LIBRARY.get_or_init(|| rule_identities(0.37).iter().flat_map(RuleIdentity::rules).collect())
}

/// The circuit identities the rewrite rules are derived from, in library
/// order, with every gate angle set to `angle`.  [`crate::soundness`]
/// checks them against the dense matrix semantics.
pub fn rule_identities(angle: f64) -> Vec<RuleIdentity> {
    use RuleClass::{Cancellation, Commutation, Direction, Swap};
    let circuit = |n: usize, gates: &[(&str, &[usize])]| {
        let mut circuit = Circuit::new(n);
        for &(name, qubits) in gates {
            let kind = GateKind::from_name(name, &[])
                .or_else(|_| GateKind::from_name(name, &[angle]))
                .expect("a library gate");
            circuit.add(kind, qubits);
        }
        circuit
    };
    let identity = |name: String, class, (lhs, rhs), rule_names| RuleIdentity {
        name,
        class,
        lhs,
        rhs,
        permutation: None,
        rule_names,
    };
    // `gate` on `wire`, then `with` on both wires, in either order.
    let commute = |gate: &str, wire: usize, with: &str| {
        (
            circuit(2, &[(gate, &[wire]), (with, &[0, 1])]),
            circuit(2, &[(with, &[0, 1]), (gate, &[wire])]),
        )
    };
    // Identities around one CX name their rules `_ctl` (wire 0) and `_tgt`
    // (wire 1), listed in `order`.
    let cx_names = |name: &str, order: [usize; 2]| {
        order.iter().map(|&k| (k, format!("{name}_{}", ["ctl", "tgt"][k]))).collect()
    };

    let mut identities = Vec::new();
    for g in SELF_INV_1Q {
        let pair = (circuit(1, &[(g, &[0]), (g, &[0])]), Circuit::new(1));
        identities.push(identity(format!("cancel_{g}"), Cancellation, pair, vec![]));
    }
    let pair = (circuit(1, &[("id", &[0])]), Circuit::new(1));
    identities.push(identity("cancel_id".into(), Cancellation, pair, vec![]));
    for (a, b) in INV_PAIRS_1Q {
        // `cancel_{a}_{b}` rewrites `a(b(q))`: b first, then a.
        for (first, then) in [(b, a), (a, b)] {
            let pair = (circuit(1, &[(first, &[0]), (then, &[0])]), Circuit::new(1));
            identities.push(identity(format!("cancel_{then}_{first}"), Cancellation, pair, vec![]));
        }
    }
    for (g, wires) in SELF_INV_MULTI {
        let n = wires.len();
        let pair = (circuit(n, &[(g, wires), (g, wires)]), Circuit::new(n));
        identities.push(identity(format!("cancel_{g}"), Cancellation, pair, vec![]));
    }
    // SWAP ≡ the identity up to exchanging its two wires.
    identities.push(RuleIdentity {
        permutation: Some(vec![1, 0]),
        ..identity(
            "swap_wires".into(),
            Swap,
            (circuit(2, &[("swap", &[0, 1])]), Circuit::new(2)),
            vec![(0, "swap_1".into()), (1, "swap_2".into())],
        )
    });
    for d in CX_CONTROL {
        let name = format!("commute_{d}_cx_control");
        let names = cx_names(&name, [0, 1]);
        identities.push(identity(name, Commutation, commute(d, 0, "cx"), names));
    }
    for x in CX_TARGET {
        let name = format!("commute_{x}_cx_target");
        let names = cx_names(&name, [1, 0]);
        identities.push(identity(name, Commutation, commute(x, 1, "cx"), names));
    }
    for d in CZ_EITHER {
        for wire in 0..2 {
            let name = format!("commute_{d}_cz_{}", wire + 1);
            identities.push(identity(name, Commutation, commute(d, wire, "cz"), vec![]));
        }
    }
    // h⊗h ; cx(1,0) ; h⊗h  ≡  cx(0,1)
    let lhs = circuit(2, &[("h", &[0]), ("h", &[1]), ("cx", &[1, 0]), ("h", &[0]), ("h", &[1])]);
    let pair = (lhs, circuit(2, &[("cx", &[0, 1])]));
    let names = cx_names("cx_direction", [0, 1]);
    identities.push(identity("cx_direction".into(), Direction, pair, names));
    identities
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_library_fingerprint_is_deterministic_and_rule_sensitive() {
        assert_eq!(rule_library_fingerprint(), rule_library_fingerprint());
        // Recomputing the same fold with one rule dropped must change the
        // digest: the cache relies on library edits being visible.
        let mut truncated = FingerprintBuilder::new();
        truncated.write_str("giallar-rule-library");
        truncated.write_u64(u64::from(RULE_LIBRARY_VERSION));
        for rule in circuit_rewrite_rules().iter().skip(1) {
            truncated.write_str(&format!("{:?}", rule.class));
            truncated.write_str(&rule.identity);
            truncated.write_str(&rule.rule.canonical_form());
        }
        assert_ne!(truncated.finish(), rule_library_fingerprint());
    }

    #[test]
    #[should_panic(expected = "names the wrong wires")]
    fn rule_names_must_cover_the_differing_wires() {
        let mut identity = rule_identities(0.37).swap_remove(0);
        identity.rule_names = vec![(0, "one".into()), (1, "two".into())];
        identity.rules();
    }
}

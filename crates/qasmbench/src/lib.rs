//! # qasmbench — benchmark circuit generators
//!
//! The paper evaluates compilation performance on QASMBench (Li et al.),
//! whose circuit files are not available offline.  This crate generates the
//! same circuit families programmatically at the same scales (state
//! preparation, arithmetic, chemistry simulation, machine learning, and the
//! classic algorithms), so the Figure 11 experiment can be reproduced end to
//! end.  Every generator round-trips through the OpenQASM printer/parser in
//! the tests, which also exercises the `qc-ir` front end.
//!
//! # Example
//!
//! ```
//! use qasmbench::{ghz, qft};
//! assert_eq!(ghz(5).size(), 5);
//! assert!(qft(4).size() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::f64::consts::PI;

use qc_ir::{Circuit, GateKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A named benchmark circuit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Benchmark {
    /// Benchmark name (e.g. `"qft_10"`).
    pub name: String,
    /// The circuit.
    pub circuit: Circuit,
}

/// GHZ state preparation (`ghz_state` in QASMBench, Figure 2 of the paper).
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n.max(1));
    c.h(0);
    for q in 0..n.saturating_sub(1) {
        c.cx(q, q + 1);
    }
    c
}

/// Cat-state preparation (identical structure to GHZ at larger sizes).
pub fn cat_state(n: usize) -> Circuit {
    ghz(n)
}

/// A Bell pair with measurement.
pub fn bell() -> Circuit {
    let mut c = Circuit::with_clbits(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    c
}

/// Deutsch's algorithm on 2 qubits (balanced oracle `f(x) = x`).
pub fn deutsch() -> Circuit {
    let mut c = Circuit::with_clbits(2, 1);
    c.x(1).h(0).h(1).cx(0, 1).h(0).measure(0, 0);
    c
}

/// Bernstein–Vazirani with the secret string `1010…`.
pub fn bernstein_vazirani(n: usize) -> Circuit {
    let mut c = Circuit::with_clbits(n + 1, n);
    c.x(n).h(n);
    for q in 0..n {
        c.h(q);
    }
    for q in (0..n).step_by(2) {
        c.cx(q, n);
    }
    for q in 0..n {
        c.h(q);
        c.measure(q, q);
    }
    c
}

/// A ripple-carry adder on two `n`-bit registers plus carry qubits
/// (`adder` in QASMBench): uses Toffoli and CNOT gates.
pub fn adder(n: usize) -> Circuit {
    // Register layout: a[0..n], b[0..n], carry[0..n+1].
    let a = |i: usize| i;
    let b = |i: usize| n + i;
    let carry = |i: usize| 2 * n + i;
    let mut c = Circuit::new(3 * n + 1);
    // Prepare a simple input state.
    for i in 0..n {
        if i % 2 == 0 {
            c.x(a(i));
        }
        if i % 3 == 0 {
            c.x(b(i));
        }
    }
    // MAJ / UMA style ripple carry.
    for i in 0..n {
        c.ccx(a(i), b(i), carry(i + 1));
        c.cx(a(i), b(i));
        c.ccx(carry(i), b(i), carry(i + 1));
    }
    for i in (0..n).rev() {
        c.ccx(carry(i), b(i), carry(i + 1));
        c.cx(a(i), b(i));
        c.cx(carry(i), b(i));
    }
    c
}

/// The quantum Fourier transform on `n` qubits (`qft` in QASMBench).
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n.max(1));
    for target in 0..n {
        c.h(target);
        for control in (target + 1)..n {
            let angle = PI / (1 << (control - target)) as f64;
            c.add(GateKind::CP(angle), &[control, target]);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// Grover search on `n` qubits with a single marked element (all-ones) and
/// one iteration of the diffusion operator; uses Toffoli cascades for the
/// multi-controlled phase.
pub fn grover(n: usize) -> Circuit {
    let n = n.max(2);
    // Work qubits plus (n-2) ancillas for the Toffoli cascade.
    let num_ancilla = n.saturating_sub(2);
    let mut c = Circuit::new(n + num_ancilla);
    for q in 0..n {
        c.h(q);
    }
    let oracle = |c: &mut Circuit| {
        // Multi-controlled Z on the all-ones state via CCX cascade.
        if n == 2 {
            c.cz(0, 1);
            return;
        }
        c.ccx(0, 1, n);
        for k in 2..n - 1 {
            c.ccx(k, n + k - 2, n + k - 1);
        }
        c.cz(n + num_ancilla - 1, n - 1);
        for k in (2..n - 1).rev() {
            c.ccx(k, n + k - 2, n + k - 1);
        }
        c.ccx(0, 1, n);
    };
    oracle(&mut c);
    // Diffusion.
    for q in 0..n {
        c.h(q);
        c.x(q);
    }
    oracle(&mut c);
    for q in 0..n {
        c.x(q);
        c.h(q);
    }
    c
}

/// A QAOA ansatz for MaxCut on a ring of `n` vertices with `p` layers
/// (`qaoa` in QASMBench).
pub fn qaoa(n: usize, p: usize) -> Circuit {
    let mut c = Circuit::new(n.max(2));
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..p {
        let gamma = 0.4 + 0.1 * layer as f64;
        let beta = 0.7 - 0.05 * layer as f64;
        for q in 0..n {
            c.add(GateKind::RZZ(gamma), &[q, (q + 1) % n]);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

/// A first-order Trotter simulation of a transverse-field Ising chain
/// (`ising` in QASMBench).
pub fn ising(n: usize, steps: usize) -> Circuit {
    let mut c = Circuit::new(n.max(2));
    for _ in 0..steps {
        for q in 0..n.saturating_sub(1) {
            c.add(GateKind::RZZ(0.3), &[q, q + 1]);
        }
        for q in 0..n {
            c.rx(0.21, q);
        }
    }
    c
}

/// A layered "quantum neural network" ansatz (`dnn` in QASMBench): rotation
/// layers interleaved with linear entangling layers, with deterministic
/// pseudo-random angles.
pub fn dnn(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n.max(2));
    for _ in 0..layers {
        for q in 0..n {
            c.ry(rng.random_range(0.0..PI), q);
            c.rz(rng.random_range(0.0..PI), q);
        }
        for q in 0..n.saturating_sub(1) {
            c.cx(q, q + 1);
        }
    }
    c
}

/// A W-state preparation circuit.
pub fn w_state(n: usize) -> Circuit {
    let n = n.max(2);
    let mut c = Circuit::new(n);
    c.ry(2.0 * (1.0 / (n as f64)).sqrt().acos(), 0);
    for q in 1..n {
        let angle = 2.0 * (1.0 / ((n - q) as f64 + 1.0)).sqrt().acos();
        c.add(GateKind::CH, &[q - 1, q]);
        c.ry(angle / 2.0, q);
        c.cx(q - 1, q);
    }
    c
}

/// The suite's entries in suite order, each a name and a deferred builder,
/// so a lookup by name ([`benchmark`]) builds only the circuit it returns.
fn suite_entries() -> Vec<(String, Box<dyn Fn() -> Circuit>)> {
    let mut entries = Vec::new();
    let mut add = |name: String, build: Box<dyn Fn() -> Circuit>| entries.push((name, build));
    add("bell".to_string(), Box::new(bell));
    add("deutsch".to_string(), Box::new(deutsch));
    for n in [3, 8, 16, 24] {
        add(format!("ghz_{n}"), Box::new(move || ghz(n)));
        add(format!("cat_state_{n}"), Box::new(move || cat_state(n)));
    }
    for n in [4, 8, 16, 25] {
        add(format!("bv_{n}"), Box::new(move || bernstein_vazirani(n.min(26))));
    }
    for n in [2, 4, 8] {
        add(format!("adder_{}", 3 * n + 1), Box::new(move || adder(n)));
    }
    for n in [4, 8, 16, 27] {
        add(format!("qft_{n}"), Box::new(move || qft(n)));
    }
    for n in [3, 5, 9] {
        add(format!("grover_{n}"), Box::new(move || grover(n)));
    }
    for (n, p) in [(6, 1), (12, 2), (20, 3)] {
        add(format!("qaoa_{n}_{p}"), Box::new(move || qaoa(n, p)));
    }
    for (n, steps) in [(10, 5), (20, 10), (26, 20)] {
        add(format!("ising_{n}_{steps}"), Box::new(move || ising(n, steps)));
    }
    for (n, layers) in [(8, 4), (16, 8), (24, 16)] {
        add(format!("dnn_{n}_{layers}"), Box::new(move || dnn(n, layers, 42)));
    }
    for n in [4, 12, 27] {
        add(format!("wstate_{n}"), Box::new(move || w_state(n)));
    }
    entries
}

/// The benchmark suite used by the Figure 11 reproduction: the QASMBench
/// families the paper names, at NISQ scales up to 27 qubits and a few
/// thousand gates.
pub fn benchmark_suite() -> Vec<Benchmark> {
    suite_entries().into_iter().map(|(name, build)| Benchmark { name, circuit: build() }).collect()
}

/// The suite entry named `name`, building only that circuit (the whole
/// [`benchmark_suite`] builds all of them); `None` for an unknown name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    suite_entries()
        .into_iter()
        .find(|(entry, _)| entry == name)
        .map(|(name, build)| Benchmark { name, circuit: build() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::qasm::{from_qasm, to_qasm};
    use qc_ir::unitary::statevector;

    #[test]
    fn ghz_prepares_the_ghz_state() {
        let sv = statevector(&ghz(3)).unwrap();
        assert!((sv[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((sv[7].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn suite_matches_the_paper_scale() {
        let suite = benchmark_suite();
        assert!(suite.len() >= 30, "expected 30+ benchmark circuits, got {}", suite.len());
        let max_qubits = suite.iter().map(|b| b.circuit.num_qubits()).max().unwrap();
        assert!((25..=30).contains(&max_qubits));
        let max_gates = suite.iter().map(|b| b.circuit.size()).max().unwrap();
        assert!(max_gates >= 1000, "largest circuit should have 1000+ gates, got {max_gates}");
        // Names are unique.
        let mut names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn lookup_by_name_builds_the_suite_entry() {
        for entry in benchmark_suite() {
            let found = benchmark(&entry.name).expect("every suite name resolves");
            assert_eq!(found.name, entry.name);
            assert_eq!(found.circuit, entry.circuit, "{}", entry.name);
        }
        assert!(benchmark("no_such_circuit").is_none());
        assert!(benchmark("").is_none());
    }

    #[test]
    fn every_unconditioned_benchmark_roundtrips_through_qasm() {
        for bench in benchmark_suite() {
            let qasm = to_qasm(&bench.circuit).unwrap();
            let parsed = from_qasm(&qasm).unwrap();
            assert_eq!(parsed.size(), bench.circuit.size(), "size mismatch for {}", bench.name);
            assert_eq!(parsed.num_qubits(), bench.circuit.num_qubits());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(dnn(6, 3, 1), dnn(6, 3, 1));
        assert_ne!(dnn(6, 3, 1), dnn(6, 3, 2));
        assert_eq!(qft(5), qft(5));
    }

    #[test]
    fn small_benchmarks_are_valid_unitaries() {
        for circuit in [ghz(3), qft(4), grover(3), qaoa(4, 1), ising(4, 2), w_state(3)] {
            // No panics and a well-formed statevector of the right size.
            let sv = statevector(&circuit).unwrap();
            let norm: f64 = sv.iter().map(|a| a.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-6);
        }
    }
}

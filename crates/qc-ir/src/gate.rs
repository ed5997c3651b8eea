//! Quantum gates: the gate alphabet, operand lists, conditions, and matrices.
//!
//! The gate set covers the OpenQASM 2.0 standard library subset used by the
//! Qiskit passes reproduced in this repository, including the IBM physical
//! gates `u1`, `u2`, `u3` whose matrix representations appear in Table 1 of
//! the Giallar paper.

use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::complex::Complex;
use crate::error::{escaped, QcError};
use crate::matrix::Matrix;

/// The kind of condition attached to a gate (Qiskit `c_if` / `q_if`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConditionKind {
    /// Execute the gate only when the classical bit has the given value.
    Classical {
        /// Index of the classical bit.
        bit: usize,
        /// Required value of the bit.
        value: bool,
    },
    /// Execute the gate only when the (symbolic) quantum control is set.
    Quantum {
        /// Index of the controlling qubit.
        qubit: usize,
    },
}

/// A condition attached to a gate instruction.
///
/// Conditioned gates are the source of the `optimize_1q_gates` bug described
/// in §7.1 of the paper: merging a conditioned gate into an unconditioned one
/// changes the semantics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Condition {
    /// What the gate execution is conditioned on.
    pub kind: ConditionKind,
}

impl Condition {
    /// A classical condition (Qiskit's `c_if`).
    pub fn classical(bit: usize, value: bool) -> Self {
        Condition { kind: ConditionKind::Classical { bit, value } }
    }

    /// A quantum condition (Qiskit's `q_if`).
    pub fn quantum(qubit: usize) -> Self {
        Condition { kind: ConditionKind::Quantum { qubit } }
    }
}

/// The parameters of a [`GateKind`] (no kind has more than three), held
/// inline so reading them allocates nothing.  Dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    values: [f64; 3],
    len: usize,
}

impl std::ops::Deref for Params {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

/// Writes `values` separated by commas: the list syntax of the canonical
/// grammar ([`Gate::write_canonical`] and the symbolic forms built on it).
pub fn write_list(out: &mut impl fmt::Write, values: &[usize]) -> fmt::Result {
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{value}")?;
    }
    Ok(())
}

/// Gate kinds with their parameters.
///
/// Operand order conventions (used by [`GateKind::matrix`]): operand 0 is the
/// least-significant bit of the gate matrix index.  For controlled gates the
/// control is operand 0 and the target operand 1 (for `CCX` the controls are
/// operands 0 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GateKind {
    /// Identity gate.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    SX,
    /// Inverse square root of X.
    SXdg,
    /// Rotation about X by the given angle.
    RX(f64),
    /// Rotation about Y by the given angle.
    RY(f64),
    /// Rotation about Z by the given angle.
    RZ(f64),
    /// Phase rotation `diag(1, e^{iλ})` (Qiskit `p`).
    P(f64),
    /// IBM physical gate `u1(λ)` — a Z rotation on the Bloch sphere.
    U1(f64),
    /// IBM physical gate `u2(φ, λ)`.
    U2(f64, f64),
    /// IBM physical gate `u3(θ, φ, λ)`.
    U3(f64, f64, f64),
    /// Controlled-NOT (control = operand 0, target = operand 1).
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-Hadamard.
    CH,
    /// SWAP gate.
    Swap,
    /// Echoed cross-resonance gate (used by newer IBM backends).
    Ecr,
    /// Two-qubit ZZ interaction `rzz(θ)`.
    RZZ(f64),
    /// Controlled phase `cp(λ)`.
    CP(f64),
    /// Controlled Z rotation `crz(θ)`.
    CRZ(f64),
    /// Toffoli gate (controls = operands 0, 1; target = operand 2).
    CCX,
    /// Controlled SWAP (control = operand 0).
    CSwap,
    /// Barrier across the listed qubits (identity semantics, blocks reordering).
    Barrier,
    /// Measurement of a qubit into a classical bit (non-unitary).
    Measure,
    /// Reset of a qubit to `|0⟩` (non-unitary).
    Reset,
}

impl GateKind {
    /// The OpenQASM name of the gate.
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::I => "id",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::SX => "sx",
            GateKind::SXdg => "sxdg",
            GateKind::RX(_) => "rx",
            GateKind::RY(_) => "ry",
            GateKind::RZ(_) => "rz",
            GateKind::P(_) => "p",
            GateKind::U1(_) => "u1",
            GateKind::U2(_, _) => "u2",
            GateKind::U3(_, _, _) => "u3",
            GateKind::CX => "cx",
            GateKind::CY => "cy",
            GateKind::CZ => "cz",
            GateKind::CH => "ch",
            GateKind::Swap => "swap",
            GateKind::Ecr => "ecr",
            GateKind::RZZ(_) => "rzz",
            GateKind::CP(_) => "cp",
            GateKind::CRZ(_) => "crz",
            GateKind::CCX => "ccx",
            GateKind::CSwap => "cswap",
            GateKind::Barrier => "barrier",
            GateKind::Measure => "measure",
            GateKind::Reset => "reset",
        }
    }

    /// Builds a gate kind from an OpenQASM name and parameter list.
    ///
    /// # Errors
    ///
    /// Returns [`QcError::Unsupported`] for unknown names and
    /// [`QcError::ParamCountMismatch`] when the parameter count is wrong.
    pub fn from_name(name: &str, params: &[f64]) -> Result<Self, QcError> {
        let expect = |n: usize| -> Result<(), QcError> {
            if params.len() == n {
                Ok(())
            } else {
                Err(QcError::ParamCountMismatch {
                    gate: name.to_string(),
                    expected: n,
                    actual: params.len(),
                })
            }
        };
        let kind = match name {
            "id" | "i" => GateKind::I,
            "x" => GateKind::X,
            "y" => GateKind::Y,
            "z" => GateKind::Z,
            "h" => GateKind::H,
            "s" => GateKind::S,
            "sdg" => GateKind::Sdg,
            "t" => GateKind::T,
            "tdg" => GateKind::Tdg,
            "sx" => GateKind::SX,
            "sxdg" => GateKind::SXdg,
            "rx" => {
                expect(1)?;
                GateKind::RX(params[0])
            }
            "ry" => {
                expect(1)?;
                GateKind::RY(params[0])
            }
            "rz" => {
                expect(1)?;
                GateKind::RZ(params[0])
            }
            "p" => {
                expect(1)?;
                GateKind::P(params[0])
            }
            "u1" => {
                expect(1)?;
                GateKind::U1(params[0])
            }
            "u2" => {
                expect(2)?;
                GateKind::U2(params[0], params[1])
            }
            "u3" | "u" => {
                expect(3)?;
                GateKind::U3(params[0], params[1], params[2])
            }
            "cx" | "cnot" => GateKind::CX,
            "cy" => GateKind::CY,
            "cz" => GateKind::CZ,
            "ch" => GateKind::CH,
            "swap" => GateKind::Swap,
            "ecr" => GateKind::Ecr,
            "rzz" => {
                expect(1)?;
                GateKind::RZZ(params[0])
            }
            "cp" | "cu1" => {
                expect(1)?;
                GateKind::CP(params[0])
            }
            "crz" => {
                expect(1)?;
                GateKind::CRZ(params[0])
            }
            "ccx" | "toffoli" => GateKind::CCX,
            "cswap" => GateKind::CSwap,
            "barrier" => GateKind::Barrier,
            "measure" => GateKind::Measure,
            "reset" => GateKind::Reset,
            other => {
                return Err(QcError::Unsupported(format!("unknown gate `{}`", escaped(other))))
            }
        };
        Ok(kind)
    }

    /// Number of qubit operands the gate expects.  [`GateKind::Barrier`]
    /// accepts any positive number and reports `0` here.
    pub fn arity(&self) -> usize {
        match self {
            GateKind::Barrier => 0,
            GateKind::CCX | GateKind::CSwap => 3,
            GateKind::CX
            | GateKind::CY
            | GateKind::CZ
            | GateKind::CH
            | GateKind::Swap
            | GateKind::Ecr
            | GateKind::RZZ(_)
            | GateKind::CP(_)
            | GateKind::CRZ(_) => 2,
            _ => 1,
        }
    }

    /// Real-valued parameters of the gate (angles), held inline.
    pub fn params(&self) -> Params {
        let (values, len) = match *self {
            GateKind::RX(a)
            | GateKind::RY(a)
            | GateKind::RZ(a)
            | GateKind::P(a)
            | GateKind::U1(a)
            | GateKind::RZZ(a)
            | GateKind::CP(a)
            | GateKind::CRZ(a) => ([a, 0.0, 0.0], 1),
            GateKind::U2(a, b) => ([a, b, 0.0], 2),
            GateKind::U3(a, b, c) => ([a, b, c], 3),
            _ => ([0.0; 3], 0),
        };
        Params { values, len }
    }

    /// Writes the canonical form of the gate kind, stable across releases
    /// and exact on parameters: angles are written as IEEE-754 bit patterns,
    /// so two kinds write identically iff they are bit-identical.  Part of
    /// the canonical grammar the verification cache and certificates
    /// fingerprint.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(self.name())?;
        let params = self.params();
        if params.is_empty() {
            return Ok(());
        }
        for (i, p) in params.iter().enumerate() {
            out.write_char(if i == 0 { '[' } else { ',' })?;
            write!(out, "{:016x}", p.to_bits())?;
        }
        out.write_char(']')
    }

    /// Returns `true` for non-unitary or purely structural operations
    /// (barrier, measure, reset).
    pub fn is_directive(&self) -> bool {
        matches!(self, GateKind::Barrier | GateKind::Measure | GateKind::Reset)
    }

    /// Returns `true` when the gate matrix is diagonal in the computational
    /// basis (used by `RemoveDiagonalGatesBeforeMeasure`).
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            GateKind::I
                | GateKind::Z
                | GateKind::S
                | GateKind::Sdg
                | GateKind::T
                | GateKind::Tdg
                | GateKind::RZ(_)
                | GateKind::P(_)
                | GateKind::U1(_)
                | GateKind::CZ
                | GateKind::CP(_)
                | GateKind::CRZ(_)
                | GateKind::RZZ(_)
        )
    }

    /// Returns `true` when the gate equals its own inverse.
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            GateKind::I
                | GateKind::X
                | GateKind::Y
                | GateKind::Z
                | GateKind::H
                | GateKind::CX
                | GateKind::CY
                | GateKind::CZ
                | GateKind::CH
                | GateKind::Swap
                | GateKind::CCX
                | GateKind::CSwap
        )
    }

    /// Returns `true` for the IBM physical 1-qubit gate family `u1/u2/u3`.
    pub fn is_u_gate(&self) -> bool {
        matches!(self, GateKind::U1(_) | GateKind::U2(_, _) | GateKind::U3(_, _, _))
    }

    /// The inverse gate kind, when it is expressible in the same alphabet.
    pub fn inverse(&self) -> Option<GateKind> {
        Some(match *self {
            GateKind::I => GateKind::I,
            GateKind::X => GateKind::X,
            GateKind::Y => GateKind::Y,
            GateKind::Z => GateKind::Z,
            GateKind::H => GateKind::H,
            GateKind::S => GateKind::Sdg,
            GateKind::Sdg => GateKind::S,
            GateKind::T => GateKind::Tdg,
            GateKind::Tdg => GateKind::T,
            GateKind::SX => GateKind::SXdg,
            GateKind::SXdg => GateKind::SX,
            GateKind::RX(a) => GateKind::RX(-a),
            GateKind::RY(a) => GateKind::RY(-a),
            GateKind::RZ(a) => GateKind::RZ(-a),
            GateKind::P(a) => GateKind::P(-a),
            GateKind::U1(a) => GateKind::U1(-a),
            GateKind::U2(phi, lam) => GateKind::U3(-std::f64::consts::FRAC_PI_2, -lam, -phi),
            GateKind::U3(theta, phi, lam) => GateKind::U3(-theta, -lam, -phi),
            GateKind::CX => GateKind::CX,
            GateKind::CY => GateKind::CY,
            GateKind::CZ => GateKind::CZ,
            GateKind::CH => GateKind::CH,
            GateKind::Swap => GateKind::Swap,
            GateKind::RZZ(a) => GateKind::RZZ(-a),
            GateKind::CP(a) => GateKind::CP(-a),
            GateKind::CRZ(a) => GateKind::CRZ(-a),
            GateKind::CCX => GateKind::CCX,
            GateKind::CSwap => GateKind::CSwap,
            GateKind::Barrier => GateKind::Barrier,
            GateKind::Ecr | GateKind::Measure | GateKind::Reset => return None,
        })
    }

    /// The unitary matrix of the gate on its own operands, or `None` for
    /// barrier/measure/reset.
    ///
    /// Operand 0 is the least-significant bit of the matrix index; see the
    /// type-level documentation for control/target conventions.
    pub fn matrix(&self) -> Option<Matrix> {
        let c = Complex::new;
        let zero = Complex::zero();
        let one = Complex::one();
        let i = Complex::i();
        let m = match *self {
            GateKind::I => Matrix::identity(2),
            GateKind::X => Matrix::from_rows(&[[zero, one], [one, zero]]),
            GateKind::Y => Matrix::from_rows(&[[zero, -i], [i, zero]]),
            GateKind::Z => Matrix::from_rows(&[[one, zero], [zero, -one]]),
            GateKind::H => Matrix::from_rows(&[
                [c(FRAC_1_SQRT_2, 0.0), c(FRAC_1_SQRT_2, 0.0)],
                [c(FRAC_1_SQRT_2, 0.0), c(-FRAC_1_SQRT_2, 0.0)],
            ]),
            GateKind::S => Matrix::from_rows(&[[one, zero], [zero, i]]),
            GateKind::Sdg => Matrix::from_rows(&[[one, zero], [zero, -i]]),
            GateKind::T => {
                Matrix::from_rows(&[[one, zero], [zero, Complex::cis(std::f64::consts::FRAC_PI_4)]])
            }
            GateKind::Tdg => Matrix::from_rows(&[
                [one, zero],
                [zero, Complex::cis(-std::f64::consts::FRAC_PI_4)],
            ]),
            GateKind::SX => {
                Matrix::from_rows(&[[c(0.5, 0.5), c(0.5, -0.5)], [c(0.5, -0.5), c(0.5, 0.5)]])
            }
            GateKind::SXdg => {
                Matrix::from_rows(&[[c(0.5, -0.5), c(0.5, 0.5)], [c(0.5, 0.5), c(0.5, -0.5)]])
            }
            GateKind::RX(theta) => {
                let (cos, sin) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Matrix::from_rows(&[[c(cos, 0.0), c(0.0, -sin)], [c(0.0, -sin), c(cos, 0.0)]])
            }
            GateKind::RY(theta) => {
                let (cos, sin) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Matrix::from_rows(&[[c(cos, 0.0), c(-sin, 0.0)], [c(sin, 0.0), c(cos, 0.0)]])
            }
            GateKind::RZ(theta) => Matrix::from_rows(&[
                [Complex::cis(-theta / 2.0), zero],
                [zero, Complex::cis(theta / 2.0)],
            ]),
            GateKind::P(lam) | GateKind::U1(lam) => {
                Matrix::from_rows(&[[one, zero], [zero, Complex::cis(lam)]])
            }
            GateKind::U2(phi, lam) => Matrix::from_rows(&[
                [c(FRAC_1_SQRT_2, 0.0), Complex::cis(lam) * (-FRAC_1_SQRT_2)],
                [Complex::cis(phi) * FRAC_1_SQRT_2, Complex::cis(lam + phi) * FRAC_1_SQRT_2],
            ]),
            GateKind::U3(theta, phi, lam) => {
                let (cos, sin) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                Matrix::from_rows(&[
                    [c(cos, 0.0), Complex::cis(lam) * (-sin)],
                    [Complex::cis(phi) * sin, Complex::cis(lam + phi) * cos],
                ])
            }
            GateKind::CX => {
                // Control = operand 0 (LSB), target = operand 1.
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one; // |00⟩ -> |00⟩
                m[(3, 1)] = one; // |01⟩ (c=1,t=0) -> |11⟩
                m[(2, 2)] = one; // |10⟩ (c=0,t=1) -> |10⟩
                m[(1, 3)] = one; // |11⟩ -> |01⟩
                m
            }
            GateKind::CY => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one;
                m[(2, 2)] = one;
                // On c=1 subspace apply Y to target.
                m[(3, 1)] = i;
                m[(1, 3)] = -i;
                m
            }
            GateKind::CZ => {
                let mut m = Matrix::identity(4);
                m[(3, 3)] = -one;
                m
            }
            GateKind::CH => {
                let mut m = Matrix::identity(4);
                let s = FRAC_1_SQRT_2;
                m[(1, 1)] = c(s, 0.0);
                m[(1, 3)] = c(s, 0.0);
                m[(3, 1)] = c(s, 0.0);
                m[(3, 3)] = c(-s, 0.0);
                m
            }
            GateKind::Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one;
                m[(2, 1)] = one;
                m[(1, 2)] = one;
                m[(3, 3)] = one;
                m
            }
            GateKind::Ecr => {
                // Qiskit convention: ECR = (IX - XY)/sqrt(2) with q0 as LSB.
                let s = FRAC_1_SQRT_2;
                Matrix::from_rows(&[
                    [zero, c(s, 0.0), zero, c(0.0, s)],
                    [c(s, 0.0), zero, c(0.0, -s), zero],
                    [zero, c(0.0, s), zero, c(s, 0.0)],
                    [c(0.0, -s), zero, c(s, 0.0), zero],
                ])
            }
            GateKind::RZZ(theta) => {
                let p = Complex::cis(theta / 2.0);
                let n = Complex::cis(-theta / 2.0);
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = n;
                m[(1, 1)] = p;
                m[(2, 2)] = p;
                m[(3, 3)] = n;
                m
            }
            GateKind::CP(lam) => {
                let mut m = Matrix::identity(4);
                m[(3, 3)] = Complex::cis(lam);
                m
            }
            GateKind::CRZ(theta) => {
                let mut m = Matrix::identity(4);
                m[(1, 1)] = Complex::cis(-theta / 2.0);
                m[(3, 3)] = Complex::cis(theta / 2.0);
                m
            }
            GateKind::CCX => {
                let mut m = Matrix::identity(8);
                // Controls are bits 0 and 1, target is bit 2: swap |011⟩ <-> |111⟩.
                m[(3, 3)] = zero;
                m[(7, 7)] = zero;
                m[(7, 3)] = one;
                m[(3, 7)] = one;
                m
            }
            GateKind::CSwap => {
                let mut m = Matrix::identity(8);
                // Control is bit 0; swap bits 1 and 2 when it is set:
                // |c=1, b1=1, b2=0⟩ = index 3 <-> |c=1, b1=0, b2=1⟩ = index 5.
                m[(3, 3)] = zero;
                m[(5, 5)] = zero;
                m[(5, 3)] = one;
                m[(3, 5)] = one;
                m
            }
            GateKind::Barrier | GateKind::Measure | GateKind::Reset => return None,
        };
        Some(m)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), joined.join(","))
        }
    }
}

/// A gate instruction: a [`GateKind`] applied to concrete qubits, possibly
/// carrying classical bits (for measurement) and a condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// What operation is applied.
    pub kind: GateKind,
    /// Qubit operands, in gate order (control first for controlled gates).
    pub qubits: Vec<usize>,
    /// Classical bit operands (only used by measurements).
    pub clbits: Vec<usize>,
    /// Optional classical or quantum condition.
    pub condition: Option<Condition>,
}

impl Gate {
    /// Creates an unconditioned gate on the given qubits.
    pub fn new(kind: GateKind, qubits: Vec<usize>) -> Self {
        Gate { kind, qubits, clbits: Vec::new(), condition: None }
    }

    /// Creates a measurement of `qubit` into `clbit`.
    pub fn measure(qubit: usize, clbit: usize) -> Self {
        Gate { kind: GateKind::Measure, qubits: vec![qubit], clbits: vec![clbit], condition: None }
    }

    /// Creates a barrier across the given qubits.
    pub fn barrier(qubits: Vec<usize>) -> Self {
        Gate { kind: GateKind::Barrier, qubits, clbits: Vec::new(), condition: None }
    }

    /// Attaches a classical condition (`c_if`) and returns the gate.
    pub fn with_classical_condition(mut self, bit: usize, value: bool) -> Self {
        self.condition = Some(Condition::classical(bit, value));
        self
    }

    /// Attaches a quantum condition (`q_if`) and returns the gate.
    pub fn with_quantum_condition(mut self, qubit: usize) -> Self {
        self.condition = Some(Condition::quantum(qubit));
        self
    }

    /// The OpenQASM gate name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Number of qubit operands.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Returns `true` when the gate has any condition attached.
    pub fn is_conditioned(&self) -> bool {
        self.condition.is_some()
    }

    /// Returns `true` when the gate is a CNOT.
    pub fn is_cx(&self) -> bool {
        self.kind == GateKind::CX
    }

    /// Returns `true` for barrier/measure/reset directives.
    pub fn is_directive(&self) -> bool {
        self.kind.is_directive()
    }

    /// Returns `true` when this gate and `other` act on at least one common
    /// qubit (the notion used by the `next_gate` utility specification).
    pub fn shares_qubit(&self, other: &Gate) -> bool {
        self.qubits.iter().any(|q| other.qubits.contains(q))
    }

    /// Returns `true` when the two gates act on exactly the same qubit list
    /// in the same order.
    pub fn same_qubits(&self, other: &Gate) -> bool {
        self.qubits == other.qubits
    }

    /// Writes the canonical form of the whole instruction (kind, operands,
    /// classical bits, condition), stable across releases.  Part of the
    /// canonical grammar the verification cache and certificates
    /// fingerprint.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.kind.write_canonical(out)?;
        out.write_str(" q:")?;
        write_list(out, &self.qubits)?;
        out.write_str(" c:")?;
        write_list(out, &self.clbits)?;
        out.write_str(" if:")?;
        match self.condition.map(|c| c.kind) {
            None => out.write_char('-'),
            Some(ConditionKind::Classical { bit, value }) => write!(out, "c{bit}={}", value as u8),
            Some(ConditionKind::Quantum { qubit }) => write!(out, "q{qubit}"),
        }
    }

    /// The canonical form ([`Gate::write_canonical`]) as a `String`.
    pub fn canonical_form(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Validates operand arity and duplicate qubits.
    ///
    /// # Errors
    ///
    /// Returns [`QcError::ArityMismatch`] or [`QcError::DuplicateQubit`].
    pub fn validate(&self) -> Result<(), QcError> {
        let arity = self.kind.arity();
        if arity != 0 && self.qubits.len() != arity {
            return Err(QcError::ArityMismatch {
                gate: self.name().to_string(),
                expected: arity,
                actual: self.qubits.len(),
            });
        }
        if self.kind == GateKind::Barrier && self.qubits.is_empty() {
            return Err(QcError::ArityMismatch {
                gate: "barrier".to_string(),
                expected: 1,
                actual: 0,
            });
        }
        match smallest_repeat(&self.qubits) {
            Some(q) => Err(QcError::DuplicateQubit(q)),
            None => Ok(()),
        }
    }
}

/// The smallest value occurring more than once in `qubits`.  Short operand
/// lists (every gate but a wide barrier) are checked pairwise in place; a
/// long one is sorted in a copy and scanned.
fn smallest_repeat(qubits: &[usize]) -> Option<usize> {
    if qubits.len() <= 8 {
        qubits.iter().enumerate().filter(|&(i, q)| qubits[..i].contains(q)).map(|(_, &q)| q).min()
    } else {
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.kind, qs.join(", "))?;
        if let Some(cond) = &self.condition {
            match cond.kind {
                ConditionKind::Classical { bit, value } => {
                    write!(f, " if (c[{bit}] == {})", value as u8)?
                }
                ConditionKind::Quantum { qubit } => write!(f, " q_if q[{qubit}]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_UNITARY_KINDS: &[GateKind] = &[
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
        GateKind::RX(0.37),
        GateKind::RY(1.1),
        GateKind::RZ(-0.9),
        GateKind::P(0.4),
        GateKind::U1(0.8),
        GateKind::U2(0.3, -0.7),
        GateKind::U3(1.2, 0.5, -0.4),
        GateKind::CX,
        GateKind::CY,
        GateKind::CZ,
        GateKind::CH,
        GateKind::Swap,
        GateKind::Ecr,
        GateKind::RZZ(0.33),
        GateKind::CP(0.21),
        GateKind::CRZ(-1.3),
        GateKind::CCX,
        GateKind::CSwap,
    ];

    #[test]
    fn every_gate_matrix_is_unitary() {
        for kind in ALL_UNITARY_KINDS {
            let m = kind.matrix().unwrap_or_else(|| panic!("{kind:?} should have a matrix"));
            assert!(m.is_unitary(1e-10), "{kind:?} matrix is not unitary");
        }
    }

    #[test]
    fn directives_have_no_matrix() {
        assert!(GateKind::Barrier.matrix().is_none());
        assert!(GateKind::Measure.matrix().is_none());
        assert!(GateKind::Reset.matrix().is_none());
    }

    #[test]
    fn inverse_matrices_match_adjoint() {
        for kind in ALL_UNITARY_KINDS {
            if let Some(inv) = kind.inverse() {
                let m = kind.matrix().unwrap();
                let mi = inv.matrix().unwrap();
                assert!(
                    mi.equal_up_to_global_phase(&m.adjoint(), 1e-9),
                    "inverse of {kind:?} is wrong"
                );
            }
        }
    }

    #[test]
    fn self_inverse_gates_square_to_identity() {
        for kind in ALL_UNITARY_KINDS {
            if kind.is_self_inverse() {
                let m = kind.matrix().unwrap();
                let sq = &m * &m;
                assert!(
                    sq.equal_up_to_global_phase(&Matrix::identity(m.rows()), 1e-9),
                    "{kind:?} is marked self-inverse but is not"
                );
            }
        }
    }

    #[test]
    fn diagonal_flag_matches_matrix() {
        for kind in ALL_UNITARY_KINDS {
            let m = kind.matrix().unwrap();
            let mut diagonal = true;
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    if i != j && !m[(i, j)].is_zero(1e-12) {
                        diagonal = false;
                    }
                }
            }
            assert_eq!(kind.is_diagonal(), diagonal, "diagonal flag wrong for {kind:?}");
        }
    }

    #[test]
    fn u_gate_matrices_match_table_1() {
        // u1(λ) = diag(1, e^{iλ})
        let lam = 0.71;
        let u1 = GateKind::U1(lam).matrix().unwrap();
        assert!(u1[(0, 0)].approx_eq(Complex::one(), 1e-12));
        assert!(u1[(1, 1)].approx_eq(Complex::cis(lam), 1e-12));

        // u2(φ, λ) row structure from Table 1.
        let (phi, lam) = (0.4, -0.9);
        let u2 = GateKind::U2(phi, lam).matrix().unwrap();
        assert!(u2[(0, 0)].approx_eq(Complex::real(FRAC_1_SQRT_2), 1e-12));
        assert!(u2[(0, 1)].approx_eq(Complex::cis(lam) * (-FRAC_1_SQRT_2), 1e-12));
        assert!(u2[(1, 0)].approx_eq(Complex::cis(phi) * FRAC_1_SQRT_2, 1e-12));
        assert!(u2[(1, 1)].approx_eq(Complex::cis(phi + lam) * FRAC_1_SQRT_2, 1e-12));

        // u3 with θ = π/2 equals u2 with the same (φ, λ).
        let u3 = GateKind::U3(std::f64::consts::FRAC_PI_2, phi, lam).matrix().unwrap();
        assert!(u3.approx_eq(&u2, 1e-12));

        // u1 is a Z rotation up to global phase.
        let rz = GateKind::RZ(lam).matrix().unwrap();
        let u1 = GateKind::U1(lam).matrix().unwrap();
        assert!(u1.equal_up_to_global_phase(&rz, 1e-12));
    }

    #[test]
    fn cx_matrix_flips_target_when_control_set() {
        let cx = GateKind::CX.matrix().unwrap();
        // |01⟩ (control=1, target=0) maps to |11⟩.
        assert!(cx[(3, 1)].approx_eq(Complex::one(), 1e-12));
        // |10⟩ (control=0, target=1) unchanged.
        assert!(cx[(2, 2)].approx_eq(Complex::one(), 1e-12));
    }

    #[test]
    fn swap_matrix_exchanges_bits() {
        let swap = GateKind::Swap.matrix().unwrap();
        assert!(swap[(2, 1)].approx_eq(Complex::one(), 1e-12));
        assert!(swap[(1, 2)].approx_eq(Complex::one(), 1e-12));
    }

    #[test]
    fn from_name_round_trips() {
        for kind in ALL_UNITARY_KINDS {
            let name = kind.name();
            let params = kind.params();
            let rebuilt = GateKind::from_name(name, &params).unwrap();
            assert_eq!(&rebuilt, kind);
        }
        assert!(GateKind::from_name("frobnicate", &[]).is_err());
        assert!(GateKind::from_name("rz", &[]).is_err());
    }

    #[test]
    fn gate_validation() {
        assert!(Gate::new(GateKind::CX, vec![0, 1]).validate().is_ok());
        assert!(matches!(
            Gate::new(GateKind::CX, vec![0]).validate(),
            Err(QcError::ArityMismatch { .. })
        ));
        assert!(matches!(
            Gate::new(GateKind::CX, vec![1, 1]).validate(),
            Err(QcError::DuplicateQubit(1))
        ));
        assert!(Gate::barrier(vec![0, 1, 2]).validate().is_ok());
        assert!(Gate::barrier(vec![]).validate().is_err());
    }

    #[test]
    fn shares_qubit_and_conditions() {
        let a = Gate::new(GateKind::CX, vec![0, 1]);
        let b = Gate::new(GateKind::X, vec![1]);
        let c = Gate::new(GateKind::X, vec![2]);
        assert!(a.shares_qubit(&b));
        assert!(!a.shares_qubit(&c));
        let cond = Gate::new(GateKind::U1(0.3), vec![0]).with_classical_condition(0, true);
        assert!(cond.is_conditioned());
        assert!(!a.is_conditioned());
    }

    #[test]
    fn display_is_readable() {
        let g = Gate::new(GateKind::CX, vec![0, 1]);
        assert_eq!(format!("{g}"), "cx q[0], q[1]");
        let g = Gate::new(GateKind::RZ(0.5), vec![2]).with_classical_condition(1, true);
        assert!(format!("{g}").contains("rz(0.500000)"));
        assert!(format!("{g}").contains("if (c[1] == 1)"));
    }
}

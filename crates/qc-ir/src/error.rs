//! Error types shared across the `qc-ir` crate.

use std::fmt;

/// Errors produced by circuit construction, conversion, parsing, and the
/// matrix semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QcError {
    /// A qubit index was out of range for the circuit or device.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// Number of qubits available.
        num_qubits: usize,
    },
    /// A classical bit index was out of range.
    ClbitOutOfRange {
        /// The offending classical bit index.
        clbit: usize,
        /// Number of classical bits available.
        num_clbits: usize,
    },
    /// A gate was applied to a duplicated qubit (e.g. `cx q[1], q[1]`).
    DuplicateQubit(usize),
    /// The gate arity did not match the number of qubit operands.
    ArityMismatch {
        /// Gate name.
        gate: String,
        /// Expected operand count.
        expected: usize,
        /// Provided operand count.
        actual: usize,
    },
    /// The gate was given the wrong number of parameters (`u3(1,2)`).
    ParamCountMismatch {
        /// Gate name.
        gate: String,
        /// Expected parameter count.
        expected: usize,
        /// Provided parameter count.
        actual: usize,
    },
    /// The operation has no unitary matrix semantics (measure/reset).
    NonUnitary(String),
    /// OpenQASM parse error with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human readable message.
        message: String,
    },
    /// The requested basis/decomposition is not available.
    Unsupported(String),
    /// A coupling-map constraint was violated (edge missing).
    CouplingViolation {
        /// First physical qubit.
        a: usize,
        /// Second physical qubit.
        b: usize,
    },
    /// A layout was not a bijection or referenced unknown qubits.
    InvalidLayout(String),
    /// Generic invariant violation inside a transformation.
    Invariant(String),
}

impl fmt::Display for QcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QcError::QubitOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit {qubit} out of range for {num_qubits} qubits")
            }
            QcError::ClbitOutOfRange { clbit, num_clbits } => {
                write!(f, "classical bit {clbit} out of range for {num_clbits} bits")
            }
            QcError::DuplicateQubit(q) => write!(f, "duplicate qubit operand {q}"),
            QcError::ArityMismatch { gate, expected, actual } => {
                write!(f, "gate {gate} expects {expected} qubits, got {actual}")
            }
            QcError::ParamCountMismatch { gate, expected, actual } => {
                write!(f, "gate {gate} expects {expected} parameters, got {actual}")
            }
            QcError::NonUnitary(op) => write!(f, "operation {op} has no unitary semantics"),
            QcError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            QcError::Unsupported(what) => write!(f, "unsupported: {what}"),
            QcError::CouplingViolation { a, b } => {
                write!(f, "two-qubit gate on ({a}, {b}) violates the coupling map")
            }
            QcError::InvalidLayout(msg) => write!(f, "invalid layout: {msg}"),
            QcError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for QcError {}

/// Escapes untrusted text for a one-line error message: each character is
/// escaped the way `{:?}` escapes it inside a string, and the result is
/// clamped (with a trailing `…`) to 32 characters of input and 64 of
/// escaped output, so control characters cannot break the line and a huge
/// input cannot bloat it.
pub fn escaped(text: &str) -> String {
    const MAX_CHARS: usize = 32;
    const MAX_WIDTH: usize = 64;
    let mut out = String::new();
    let mut width = 0;
    for (taken, c) in text.chars().enumerate() {
        let piece = format!("{:?}", c.to_string());
        let piece = &piece[1..piece.len() - 1];
        width += piece.chars().count();
        if taken == MAX_CHARS || width > MAX_WIDTH {
            out.push('…');
            break;
        }
        out.push_str(piece);
    }
    out
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, QcError>;

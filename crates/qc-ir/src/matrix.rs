//! Dense complex matrices used for the denotational semantics of circuits.
//!
//! Matrices here are small (gate matrices are 2×2 or 4×4) or exponentially
//! sized full-circuit unitaries used only by tests, the rewrite-rule
//! soundness checker, and the ablation benchmark.  A simple row-major dense
//! layout is therefore sufficient and keeps the implementation auditable.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

use serde::{Deserialize, Serialize};

use crate::complex::Complex;

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use qc_ir::{Complex, Matrix};
/// let x = Matrix::from_rows(&[
///     [Complex::zero(), Complex::one()],
///     [Complex::one(), Complex::zero()],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!((&x * &x).approx_eq(&Matrix::identity(2), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Creates a zero-filled matrix of the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![Complex::zero(); rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::one();
        }
        m
    }

    /// Builds a matrix from an array of rows (fixed column count `N`).
    pub fn from_rows<const N: usize>(rows: &[[Complex; N]]) -> Self {
        let mut m = Matrix::zeros(rows.len(), N);
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                m[(i, j)] = *v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Conjugate transpose `M†`.
    pub fn adjoint(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] =
                            self[(i, j)] * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: Complex) -> Matrix {
        let data = self.data.iter().map(|&v| v * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Entry-wise approximate equality with tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Equality up to a global phase `e^{iφ}`: returns `true` when there is a
    /// unit-modulus scalar `c` with `self ≈ c · other`.
    ///
    /// Quantum states that differ only by a global phase are physically
    /// indistinguishable, so compiler passes are allowed to change it.
    pub fn equal_up_to_global_phase(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the largest entry of `other` to fix the phase robustly.
        let mut best = 0usize;
        let mut best_abs = 0.0f64;
        for (idx, v) in other.data.iter().enumerate() {
            if v.abs() > best_abs {
                best_abs = v.abs();
                best = idx;
            }
        }
        if best_abs <= tol {
            // `other` is numerically zero; require `self` to be zero too.
            return self.data.iter().all(|v| v.is_zero(tol));
        }
        let phase = self.data[best] / other.data[best];
        if (phase.abs() - 1.0).abs() > 10.0 * tol {
            return false;
        }
        self.approx_eq(&other.scale(phase), 10.0 * tol)
    }

    /// Returns `true` when `M† M ≈ I`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        (&self.adjoint() * self).approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Builds the `2^n × 2^n` permutation matrix that sends basis state
    /// `|x⟩` to `|π(x)⟩` where bit `i` of the input moves to bit `perm[i]`
    /// of the output (little-endian qubit order).
    ///
    /// Used to compare routed circuits with their originals "up to a
    /// permutation of qubits" (the `RoutingPass` obligation).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn qubit_permutation(perm: &[usize]) -> Matrix {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let dim = 1usize << n;
        let mut m = Matrix::zeros(dim, dim);
        for x in 0..dim {
            let mut y = 0usize;
            for (i, &p) in perm.iter().enumerate() {
                if (x >> i) & 1 == 1 {
                    y |= 1 << p;
                }
            }
            m[(y, x)] = Complex::one();
        }
        m
    }

    /// Frobenius norm of the difference `‖self - other‖_F`.
    pub fn distance(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).fold(Complex::zero(), |acc, i| acc + self[(i, i)])
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex;
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix dimension mismatch in multiplication");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero(0.0) {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Mul<Matrix> for Matrix {
    type Output = Matrix;
    fn mul(self, rhs: Matrix) -> Matrix {
        &self * &rhs
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{}\t", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[[Complex::zero(), Complex::one()], [Complex::one(), Complex::zero()]])
    }

    fn pauli_z() -> Matrix {
        Matrix::from_rows(&[
            [Complex::one(), Complex::zero()],
            [Complex::zero(), Complex::real(-1.0)],
        ])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i = Matrix::identity(2);
        assert!((&x * &i).approx_eq(&x, 1e-12));
        assert!((&i * &x).approx_eq(&x, 1e-12));
    }

    #[test]
    fn x_and_z_anticommute() {
        let xz = &pauli_x() * &pauli_z();
        let zx = &pauli_z() * &pauli_x();
        assert!(xz.approx_eq(&zx.scale(Complex::real(-1.0)), 1e-12));
        assert!(!xz.approx_eq(&zx, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_identity() {
        let k = Matrix::identity(2).kron(&Matrix::identity(4));
        assert_eq!(k.rows(), 8);
        assert!(k.approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn kron_of_paulis_is_unitary() {
        let k = pauli_x().kron(&pauli_z());
        assert!(k.is_unitary(1e-12));
        assert_eq!(k.rows(), 4);
    }

    #[test]
    fn global_phase_equality() {
        let x = pauli_x();
        let phased = x.scale(Complex::cis(0.7));
        assert!(x.equal_up_to_global_phase(&phased, 1e-10));
        assert!(!x.approx_eq(&phased, 1e-10));
        assert!(!x.equal_up_to_global_phase(&pauli_z(), 1e-10));
    }

    #[test]
    fn adjoint_of_unitary_is_inverse() {
        let h = Matrix::from_rows(&[
            [Complex::real(1.0 / 2f64.sqrt()), Complex::real(1.0 / 2f64.sqrt())],
            [Complex::real(1.0 / 2f64.sqrt()), Complex::real(-1.0 / 2f64.sqrt())],
        ]);
        assert!((&h * &h.adjoint()).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn permutation_matrix_swaps_bits() {
        // Swap qubits 0 and 1 on 2 qubits: |01⟩ <-> |10⟩.
        let p = Matrix::qubit_permutation(&[1, 0]);
        assert!(p.is_unitary(1e-12));
        assert!(p[(2, 1)].approx_eq(Complex::one(), 1e-12));
        assert!(p[(1, 2)].approx_eq(Complex::one(), 1e-12));
        assert!(p[(0, 0)].approx_eq(Complex::one(), 1e-12));
        assert!(p[(3, 3)].approx_eq(Complex::one(), 1e-12));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_permutation_panics() {
        let _ = Matrix::qubit_permutation(&[0, 0]);
    }

    #[test]
    fn trace_of_identity() {
        assert!(Matrix::identity(4).trace().approx_eq(Complex::real(4.0), 1e-12));
    }

    #[test]
    fn distance_is_zero_on_self() {
        let x = pauli_x();
        assert!(x.distance(&x) < 1e-15);
        assert!(x.distance(&pauli_z()) > 1.0);
    }
}

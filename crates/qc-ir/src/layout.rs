//! Layouts: bijective maps from logical (virtual) qubits to physical qubits.
//!
//! Layout-selection passes choose an initial layout; routing passes update it
//! as they insert SWAP gates; `ApplyLayout` rewrites the circuit onto the
//! physical register.

use serde::{Deserialize, Serialize};

use crate::error::{QcError, Result};

/// A bijection between `n` logical qubits and `n` physical qubits.
///
/// # Example
///
/// ```
/// use qc_ir::Layout;
/// let mut layout = Layout::trivial(3);
/// layout.swap_physical(0, 2);
/// assert_eq!(layout.logical_to_physical(0), 2);
/// assert_eq!(layout.physical_to_logical(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    /// `l2p[logical] = physical`
    l2p: Vec<usize>,
    /// `p2l[physical] = logical`
    p2l: Vec<usize>,
}

impl Layout {
    /// The identity layout on `n` qubits.
    pub fn trivial(n: usize) -> Self {
        Layout { l2p: (0..n).collect(), p2l: (0..n).collect() }
    }

    /// Builds a layout from a logical→physical vector.
    ///
    /// # Errors
    ///
    /// Returns an error when the vector is not a permutation.
    pub fn from_logical_to_physical(l2p: Vec<usize>) -> Result<Self> {
        let n = l2p.len();
        let mut p2l = vec![usize::MAX; n];
        for (logical, &physical) in l2p.iter().enumerate() {
            if physical >= n {
                return Err(QcError::InvalidLayout(format!(
                    "physical qubit {physical} out of range for {n} qubits"
                )));
            }
            if p2l[physical] != usize::MAX {
                return Err(QcError::InvalidLayout(format!(
                    "physical qubit {physical} assigned twice"
                )));
            }
            p2l[physical] = logical;
        }
        Ok(Layout { l2p, p2l })
    }

    /// Number of qubits covered by the layout.
    pub fn len(&self) -> usize {
        self.l2p.len()
    }

    /// Returns `true` for the empty layout.
    pub fn is_empty(&self) -> bool {
        self.l2p.is_empty()
    }

    /// The physical qubit hosting a logical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn logical_to_physical(&self, logical: usize) -> usize {
        self.l2p[logical]
    }

    /// The logical qubit hosted on a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `physical` is out of range.
    pub fn physical_to_logical(&self, physical: usize) -> usize {
        self.p2l[physical]
    }

    /// The full logical→physical vector.
    pub fn as_logical_to_physical(&self) -> &[usize] {
        &self.l2p
    }

    /// Records that the states on two *physical* qubits were exchanged by a
    /// SWAP gate: the logical qubits hosted there trade places.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_physical(&mut self, a: usize, b: usize) {
        let la = self.p2l[a];
        let lb = self.p2l[b];
        self.p2l[a] = lb;
        self.p2l[b] = la;
        self.l2p[la] = b;
        self.l2p[lb] = a;
    }

    /// Extends the layout with identity assignments for ancilla qubits up to
    /// `new_len` total qubits (used by `FullAncillaAllocation`).
    pub fn extend_with_ancillas(&mut self, new_len: usize) {
        let mut used_physical: Vec<bool> = vec![false; new_len];
        for &p in &self.l2p {
            if p < new_len {
                used_physical[p] = true;
            }
        }
        let mut next_free = 0usize;
        while self.l2p.len() < new_len {
            while next_free < new_len && used_physical[next_free] {
                next_free += 1;
            }
            let logical = self.l2p.len();
            self.l2p.push(next_free);
            used_physical[next_free] = true;
            let _ = logical;
        }
        // Rebuild p2l.
        self.p2l = vec![usize::MAX; new_len];
        for (logical, &physical) in self.l2p.iter().enumerate() {
            self.p2l[physical] = logical;
        }
    }

    /// Checks internal consistency (bijection in both directions).
    pub fn is_valid(&self) -> bool {
        if self.l2p.len() != self.p2l.len() {
            return false;
        }
        self.l2p.iter().enumerate().all(|(l, &p)| p < self.p2l.len() && self.p2l[p] == l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_layout_is_identity() {
        let layout = Layout::trivial(4);
        for q in 0..4 {
            assert_eq!(layout.logical_to_physical(q), q);
            assert_eq!(layout.physical_to_logical(q), q);
        }
        assert!(layout.is_valid());
    }

    #[test]
    fn from_vector_validates_permutation() {
        assert!(Layout::from_logical_to_physical(vec![2, 0, 1]).is_ok());
        assert!(Layout::from_logical_to_physical(vec![0, 0, 1]).is_err());
        assert!(Layout::from_logical_to_physical(vec![0, 5, 1]).is_err());
    }

    #[test]
    fn swap_physical_updates_both_directions() {
        let mut layout = Layout::from_logical_to_physical(vec![1, 0, 2]).unwrap();
        layout.swap_physical(0, 2);
        // Physical 0 hosted logical 1; physical 2 hosted logical 2.
        assert_eq!(layout.physical_to_logical(0), 2);
        assert_eq!(layout.physical_to_logical(2), 1);
        assert_eq!(layout.logical_to_physical(1), 2);
        assert_eq!(layout.logical_to_physical(2), 0);
        assert!(layout.is_valid());
    }

    #[test]
    fn swaps_are_involutive() {
        let mut layout = Layout::trivial(5);
        layout.swap_physical(1, 3);
        layout.swap_physical(1, 3);
        assert_eq!(layout, Layout::trivial(5));
    }

    #[test]
    fn ancilla_extension_preserves_existing_assignments() {
        let mut layout = Layout::from_logical_to_physical(vec![1, 0]).unwrap();
        layout.extend_with_ancillas(4);
        assert_eq!(layout.len(), 4);
        assert_eq!(layout.logical_to_physical(0), 1);
        assert_eq!(layout.logical_to_physical(1), 0);
        assert!(layout.is_valid());
        // Ancillas got the remaining physical qubits 2 and 3.
        let mut rest: Vec<usize> =
            vec![layout.logical_to_physical(2), layout.logical_to_physical(3)];
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 3]);
    }
}

//! Stable content fingerprints.
//!
//! The incremental verification cache (see `giallar-core`) keys every pass by
//! a fingerprint of its serialized proof obligations plus the rewrite-rule
//! library in force when the verdict was recorded.  Fingerprints therefore
//! must be stable across processes, platforms, and releases — `std`'s
//! `DefaultHasher` is explicitly unspecified, so this module implements the
//! 64-bit FNV-1a hash, which is fully specified and trivially portable.

use std::fmt;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit content fingerprint, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Renders the fingerprint as a fixed-width lowercase hex string.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses a fingerprint from the hex form produced by [`Self::to_hex`].
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Incremental FNV-1a hasher over byte and string fragments.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Creates a builder seeded with the FNV offset basis.
    pub fn new() -> Self {
        FingerprintBuilder { state: FNV_OFFSET_BASIS }
    }

    /// Feeds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a string fragment, terminated so that `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff])
    }

    /// Feeds the text `render` writes as one string fragment: the same
    /// state as [`Self::write_str`] over the rendered `String`, but the text
    /// is hashed as it is written and never stored.  `render` writes through
    /// the builder's [`fmt::Write`] impl, which feeds raw bytes; this method
    /// adds the one terminator after them.
    ///
    /// # Panics
    ///
    /// Panics when `render` returns an error of its own (writing into the
    /// builder never fails).
    pub fn write_rendered(&mut self, render: impl FnOnce(&mut Self) -> fmt::Result) -> &mut Self {
        render(self).expect("writing into a fingerprint never fails");
        self.write_bytes(&[0xff])
    }

    /// Feeds an unsigned integer (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// The fingerprint of everything fed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Raw bytes with no terminator: a fragment streamed through this impl is
/// ended by [`FingerprintBuilder::write_rendered`].
impl fmt::Write for FingerprintBuilder {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

/// One-shot fingerprint of a string.
pub fn fingerprint_str(s: &str) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    b.write_str(s);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Reference values for the 64-bit FNV-1a test vectors.
        let mut b = FingerprintBuilder::new();
        assert_eq!(b.finish().0, FNV_OFFSET_BASIS);
        b.write_bytes(b"a");
        assert_eq!(b.finish().0, 0xaf63_dc4c_8601_ec8c);
        let mut b = FingerprintBuilder::new();
        b.write_bytes(b"foobar");
        assert_eq!(b.finish().0, 0x85944171f73967e8);
    }

    #[test]
    fn hex_round_trips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(fp.to_hex(), "0123456789abcdef");
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex("0123"), None);
    }

    #[test]
    fn string_boundaries_matter() {
        let mut ab_c = FingerprintBuilder::new();
        ab_c.write_str("ab").write_str("c");
        let mut a_bc = FingerprintBuilder::new();
        a_bc.write_str("a").write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn rendered_fragments_hash_like_strings() {
        let mut streamed = FingerprintBuilder::new();
        streamed.write_rendered(|out| write!(out, "a{}", 1)).write_str("d");
        let mut whole = FingerprintBuilder::new();
        whole.write_str("a1").write_str("d");
        assert_eq!(streamed.finish(), whole.finish());
    }

    #[test]
    fn one_shot_matches_builder() {
        let mut b = FingerprintBuilder::new();
        b.write_str("hello");
        assert_eq!(fingerprint_str("hello"), b.finish());
    }
}

//! Determinism digests: FNV-1a folded over bit-exact `u64` streams.
//!
//! Search outcomes, the kill-and-resume smoke and the server protocol all
//! fold through this one hash, so "bit-identical" means one thing
//! everywhere. Feed floats through [`f64::to_bits`]; never hash a float's
//! textual form.

/// Incremental FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word into the digest.
    pub fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// Folds a float bit-exactly (`to_bits`; `None` hashes as 0).
    pub fn push_f64(&mut self, v: Option<f64>) {
        self.push(v.map_or(0, f64::to_bits));
    }

    /// The digest value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Fnv::new();
        a.push(1);
        a.push(2);
        let mut b = Fnv::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.push(1);
        c.push(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn float_none_and_zero_bits_are_distinct_from_values() {
        let mut a = Fnv::new();
        a.push_f64(None);
        let mut b = Fnv::new();
        b.push_f64(Some(1.0));
        assert_ne!(a.finish(), b.finish());
    }
}

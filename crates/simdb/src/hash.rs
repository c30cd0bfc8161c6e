//! Tiny deterministic hashing (FNV-1a) used for query identities and
//! plan signatures.
//!
//! Plan signatures must be stable across processes and runs — they key
//! the piecewise-linear memory model's plan-regime intervals (§5.1) —
//! so we avoid `std`'s randomly-seeded hasher.

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Start a fresh hash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Continue hashing from a previously [`finish`](Self::finish)ed
    /// state (used to derive salted variants of an existing hash).
    pub fn resume(state: u64) -> Self {
        Fnv64(state)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb `bytes` one little-endian 64-bit word per step (a short
    /// last word zero-padded), then their length. Each step is the FNV-1a
    /// step on a word instead of a byte — a different hash from
    /// [`Self::write`], about eight times fewer multiplies on long
    /// inputs. Each step is a bijection of the state, so a change
    /// confined to one word always changes the result.
    pub fn write_words(&mut self, bytes: &[u8]) -> &mut Self {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
        }
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
        self
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorb a string with a terminator so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xff])
    }

    /// Final hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash a whole string in one call.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(s);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fnv1a("select 1"), fnv1a("select 1"));
        assert_ne!(fnv1a("select 1"), fnv1a("select 2"));
    }

    #[test]
    fn concatenation_is_disambiguated() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty string is the offset basis; our write_str
        // appends a terminator so test the raw path.
        let h = Fnv64::new().finish();
        assert_eq!(h, 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn word_hash_sees_every_byte_and_the_length() {
        let words = |bytes: &[u8]| Fnv64::new().write_words(bytes).finish();
        let text = b"{\"format\":\"vda-fleet-snapshot\",\"version\":4}".to_vec();
        let base = words(&text);
        for at in 0..text.len() {
            let mut changed = text.clone();
            changed[at] ^= 0x20;
            assert_ne!(words(&changed), base, "byte {at}");
        }
        // The zero-padded tail is told apart from real zero bytes.
        assert_ne!(words(b"ab"), words(b"ab\0"));
        assert_ne!(words(b""), words(&[0; 8]));
    }
}

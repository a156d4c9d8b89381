//! A fast, non-cryptographic hasher (FxHash-style multiply-rotate).
//!
//! Hash joins and hash aggregation hash billions of short integer keys; the
//! default SipHash is far too slow for that (see the Rust Performance Book's
//! Hashing chapter). Rather than pulling an extra dependency we implement the
//! well-known Fx algorithm: per 8-byte word, `h = (h.rotl(5) ^ w) * K`.

use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx-style hasher state.
///
/// Its last step is a multiply, which never moves bits downwards: the low
/// `k` bits of the hash depend on the low `k` bits of the word alone. The
/// `std` hash containers pick a bucket from the low bits, so a key whose
/// low bits are constant lands every entry in one probe chain. Whole
/// numbers stored as `f64` bits are such keys (their low mantissa bits are
/// zero). Mix them through [`hash_u64`], a bijection, before they key an
/// [`FxHashMap`] or [`FxHashSet`].
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" differ.
            w[7] = rem.len() as u8;
            self.add_word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// splitmix64 finalizer: full-avalanche mixing so that *both* the low bits
/// (bucket index masks) and high bits of the result are usable.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a single 64-bit value (the vectorized hash primitives inline this).
/// Unlike the streaming [`FxHasher`], this fully avalanches, because hash
/// join / aggregation derive bucket indices from the low bits.
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    mix(v ^ 0x9e37_79b9_7f4a_7c15)
}

/// Combine an existing hash with a new one (multi-column keys).
#[inline]
pub fn hash_combine(seed: u64, v: u64) -> u64 {
    mix(seed.rotate_left(5) ^ v.wrapping_mul(K))
}

/// Hash a byte slice from scratch (string keys).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_u64(1), hash_u64(2));
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = hash_combine(hash_u64(1), 2);
        let b = hash_combine(hash_u64(2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn map_usable() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn low_bit_spread() {
        // Sequential keys must not collide in the low bits used for bucket
        // selection: count distinct low-10-bit patterns over 1024 keys.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1024u64 {
            seen.insert(hash_u64(i) & 1023);
        }
        assert!(seen.len() > 600, "poor low-bit dispersion: {}", seen.len());
    }
}

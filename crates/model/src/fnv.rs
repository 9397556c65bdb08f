//! The workspace's one byte-wise FNV-1a hasher.

use std::fmt;

/// Byte-wise FNV-1a: deterministic across processes and platforms
/// (unlike `DefaultHasher`), so fingerprints and digests stay comparable
/// across runs. DAG fingerprints, the home-invoker hash and the
/// dispatch-trace digest all use this one copy. As a [`fmt::Write`] sink
/// it hashes formatted text without buffering it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    /// Mixes `bytes` into the state, one byte at a time.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Mixes the little-endian bytes of `v` into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn formatted_text_hashes_like_its_bytes() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        write!(h, "D {};", 7).unwrap();
        let mut same = Fnv::new();
        same.write_bytes(b"D 7;");
        assert_eq!(h, same);
        // Reference FNV-1a 64 value of "a".
        let mut a = Fnv::new();
        a.write_bytes(b"a");
        assert_eq!(a.finish(), 0xaf63dc4c8601ec8c);
    }
}

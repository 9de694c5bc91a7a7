//! Deterministic 64-bit state hashing (FNV-1a).
//!
//! Control-plane state fingerprints must be identical across processes
//! and runs, so the default `std` hasher (randomly seeded per process)
//! is unusable. FNV-1a is tiny, allocation-free and byte-order
//! independent — plenty for divergence *detection* (this is an
//! integrity check against software bugs and torn replication, not an
//! adversarial MAC).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash one byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Hash the canonical (compact) JSON of `value` — the state fingerprint
/// every control-plane component uses — streamed through the hasher, so
/// it equals [`fnv1a`] of the serialised bytes without building them.
pub fn fnv1a_json<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    serde_json::to_writer(&mut h, value).expect("hashing cannot fail to write");
    h.finish()
}

/// Incremental FNV-1a-64 hasher, for chaining multiple state sections
/// into one fingerprint without concatenating them first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A hasher is a byte sink: writing folds the bytes in.
impl std::io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn streamed_json_hash_equals_hash_of_the_bytes() {
        let value = vec![
            ("site-0".to_string(), 1.5f64, Some(u64::MAX)),
            ("\"q\"\n".to_string(), -0.0, None),
        ];
        assert_eq!(fnv1a_json(&value), fnv1a(&serde_json::to_vec(&value).unwrap()));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(fnv1a(b"site-0"), fnv1a(b"site-1"));
    }
}

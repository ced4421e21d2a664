//! The workspace's one string hash.
//!
//! FNV-1a over bytes, optionally finished with SplitMix64. Simulator noise
//! keys and semantic-cache keys ([`hash_str`]), the snapshot and WAL
//! checksum ([`fnv1a64`]) and the wire plan hash all derive from these
//! functions, so their values are part of the on-disk and on-wire formats
//! and must never change.

/// The standard FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over `bytes`, starting from `state` instead of the offset
/// basis (independently seeded streams over the same bytes).
pub fn fnv1a64_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 over `bytes` (the raw, unmixed digest).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// SplitMix64: a fast, well-distributed 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a string into a 64-bit key (FNV-1a, then mixed).
pub fn hash_str(text: &str) -> u64 {
    splitmix64(fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_of_nothing_is_the_offset_basis() {
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64_from(7, b""), 7);
        assert_eq!(hash_str(""), splitmix64(FNV_OFFSET));
    }
}

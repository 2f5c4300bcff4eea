//! One-way, prefix-preserving address anonymization.
//!
//! The paper's capture program anonymizes campus packets in the data plane
//! using ONTAS before researchers ever see them (§6.1, §9). We model the
//! same property in software: a keyed one-way mapping of IPv4 addresses
//! that preserves prefix structure, so that "two clients in the same /24"
//! remains visible while real identities do not.
//!
//! The hash is a small keyed construction built on FNV-1a with key mixing
//! and output whitening. It is deliberately dependency-free and
//! deterministic for a given key; it is *not* cryptographically strong and
//! must not be used outside research traces — exactly the caveat that
//! applies to hardware-friendly anonymization schemes.

use std::net::Ipv4Addr;

/// A keyed one-way anonymizer.
///
/// The key is folded into the hash state once, at construction: every
/// hash this anonymizer computes starts from one of four key states, so an
/// address costs the FNV-1a rounds of its own bytes only.
#[derive(Debug, Clone, Copy)]
pub struct Anonymizer {
    /// FNV-1a state after the key bytes of octet position `i` (`key ^ i <<
    /// 56`).
    octet_keys: [u64; 4],
}

/// How much structure to preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Preserve prefix structure: each octet is substituted conditioned on
    /// all higher-order octets (Crypto-PAn-like at octet granularity), so
    /// addresses sharing a /8, /16, or /24 keep sharing it.
    PrefixPreserving,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a rounds over the 8 little-endian bytes of `word`, from state `h`.
fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The keyed hash of `data`, given the FNV-1a state after its key: FNV-1a
/// over the 16 bytes of (key, data), then a xorshift-multiply finalizer
/// (splitmix64 tail) for diffusion.
fn keyed_hash(key_state: u64, data: u64) -> u64 {
    let mut h = fnv_fold(key_state, data);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Anonymizer {
    /// Create with an explicit key (the "anonymization secret" an operator
    /// would rotate per capture campaign). [`Mode`] has one value.
    pub fn new(key: u64, _mode: Mode) -> Self {
        let state = |k: u64| fnv_fold(FNV_OFFSET, k);
        Anonymizer {
            octet_keys: [0u64, 1, 2, 3].map(|i| state(key ^ (i << 56))),
        }
    }

    /// Anonymize an IPv4 address.
    pub fn anonymize_v4(&self, ip: Ipv4Addr) -> Ipv4Addr {
        let octets = ip.octets();
        let mut out = [0u8; 4];
        let mut prefix: u64 = 0;
        for (i, &o) in octets.iter().enumerate() {
            // Substitute this octet keyed by position and the
            // *original* higher-order octets, so equal prefixes map
            // to equal prefixes.
            let h = keyed_hash(self.octet_keys[i], prefix | (u64::from(o) << 40));
            out[i] = (h & 0xFF) as u8;
            prefix = (prefix << 8) | u64::from(o);
        }
        Ipv4Addr::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_key() {
        let a = Anonymizer::new(42, Mode::PrefixPreserving);
        let ip = Ipv4Addr::new(10, 8, 1, 2);
        assert_eq!(a.anonymize_v4(ip), a.anonymize_v4(ip));
        let b = Anonymizer::new(43, Mode::PrefixPreserving);
        assert_ne!(a.anonymize_v4(ip), b.anonymize_v4(ip));
    }

    #[test]
    fn prefix_preserving_keeps_shared_prefixes() {
        let a = Anonymizer::new(7, Mode::PrefixPreserving);
        let x = a.anonymize_v4(Ipv4Addr::new(10, 8, 1, 2));
        let y = a.anonymize_v4(Ipv4Addr::new(10, 8, 1, 200));
        let z = a.anonymize_v4(Ipv4Addr::new(10, 8, 2, 2));
        // Same /24 stays same /24.
        assert_eq!(x.octets()[..3], y.octets()[..3]);
        assert_ne!(x.octets()[3], y.octets()[3]);
        // Same /16 stays same /16, differing at the third octet.
        assert_eq!(x.octets()[..2], z.octets()[..2]);
        assert_ne!(x.octets()[2], z.octets()[2]);
    }

    #[test]
    fn prefix_preserving_is_one_way_looking() {
        // Not a cryptographic proof — just check the output differs from
        // the input for a sample of addresses (no accidental identity).
        let a = Anonymizer::new(7, Mode::PrefixPreserving);
        let mut identical = 0;
        for i in 0..=255u8 {
            let ip = Ipv4Addr::new(10, 8, 0, i);
            if a.anonymize_v4(ip) == ip {
                identical += 1;
            }
        }
        assert!(identical <= 2);
    }

    /// Outputs of the construction as it stood before the key was folded
    /// in at construction: the fold must not move a single output byte.
    #[test]
    fn golden_vectors_are_stable() {
        // (key, address, output)
        type Octets = [u8; 4];
        let golden: [(u64, Octets, Octets); 8] = [
            (0, [0, 0, 0, 0], [63, 108, 13, 219]),
            (12345, [10, 8, 0, 2], [179, 81, 182, 243]),
            (12345, [10, 8, 255, 255], [179, 81, 183, 85]),
            (7, [192, 168, 1, 1], [227, 180, 136, 45]),
            (42, [255, 255, 255, 255], [103, 234, 211, 20]),
            (u64::MAX, [1, 2, 3, 4], [80, 234, 1, 118]),
            (
                0x0123_4567_89AB_CDEF,
                [172, 16, 31, 200],
                [122, 114, 176, 81],
            ),
            (1 << 56, [128, 0, 0, 1], [162, 8, 209, 231]),
        ];
        for (key, addr, prefix) in golden {
            let ip = Ipv4Addr::from(addr);
            let got = Anonymizer::new(key, Mode::PrefixPreserving).anonymize_v4(ip);
            assert_eq!(got.octets(), prefix, "key {key:#x}, {ip}");
        }
    }
}

//! A small vendored FxHash-style hasher for the per-packet state tables.
//!
//! Every packet probes a `HashMap` or two (the flow index, the STUN
//! registry, RTT candidates); with std's default SipHash the hashing
//! itself is a measurable slice of the per-packet cost floor. Keys here
//! are short, fixed-shape, and attacker-free (they come from our own
//! dissector over traces the operator chose to analyze), so a fast
//! non-cryptographic hash is appropriate. This is the classic
//! multiply-rotate construction used by the Firefox/rustc "FxHash"
//! (public domain algorithm), re-implemented locally because the build
//! environment is offline — no new crates.io dependencies.
//!
//! Determinism of *reports* never depends on hasher iteration order:
//! every emit site sorts (or walks a creation-ordered slab) first — see
//! `report.rs`'s ordering test and `StreamTracker`'s stream slab.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply constant from the original FxHash: a 64-bit truncation of
/// π's fractional bits, chosen for good avalanche on short keys.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A [`HashMap`] keyed with [`FxHasher`] — drop-in for std's, minus
/// SipHash's per-lookup cost.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, no per-map seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The rustc/Firefox multiply-rotate hasher: one rotate, one xor, one
/// multiply per 8 bytes of input.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add_to_hash(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        if let Some(chunk) = bytes.first_chunk::<2>() {
            self.add_to_hash(u64::from(u16::from_le_bytes(*chunk)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The multiply leaves a key's entropy in the *high* bits, while
    /// the std table picks its bucket from the low bits (and its control
    /// byte from the top seven). After many writes the per-round rotates
    /// have carried enough down; after the two writes of a
    /// [`zoom_wire::flow::FiveTuple`] they have not — uplink flows to one
    /// server would share all but five low bits. Rotating the high half
    /// down (as rustc-hash 2 does) serves both ends of the word.
    #[inline]
    fn finish(&self) -> u64 {
        #[cfg(test)]
        HASH_COMPUTATIONS.with(|c| c.set(c.get() + 1));
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
thread_local! {
    static HASH_COMPUTATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Hashes finished on this thread so far — one per table probe, so a
/// test can pin the per-packet probe budget (see
/// `pipeline::tests::steady_state_media_packet_costs_one_probe`).
#[cfg(test)]
pub(crate) fn hash_computations() -> u64 {
    HASH_COMPUTATIONS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        // BuildHasherDefault carries no random per-map seed: the same key
        // hashes identically in every table and every process.
        let k = (0x0a08_0001_u32, 50_000u16, 8801u16);
        assert_eq!(hash_of(&k), hash_of(&k));
        assert_eq!(hash_of(&"flow"), hash_of(&"flow"));
    }

    #[test]
    fn nearby_keys_disperse() {
        // Sequential ports/addresses (the common trace shape) must not
        // collapse onto a few buckets.
        let mut low_bits = HashSet::new();
        for port in 0u16..1024 {
            low_bits.insert(hash_of(&port) & 0xFF);
        }
        assert!(low_bits.len() > 200, "only {} distinct", low_bits.len());
    }

    #[test]
    fn flows_to_one_server_disperse() {
        // The flow table's worst realistic key set: one server endpoint,
        // clients differing in address and port only — in either
        // direction. Both ends of the hash the std table reads must
        // spread.
        use std::net::{IpAddr, Ipv4Addr};
        use zoom_wire::flow::FiveTuple;
        use zoom_wire::ipv4::Protocol;
        for downlink in [false, true] {
            let mut low = HashSet::new();
            let mut top = HashSet::new();
            for i in 0u32..4096 {
                let up = FiveTuple {
                    src_ip: IpAddr::V4(Ipv4Addr::from(0x0a08_0000 + i / 4)),
                    dst_ip: IpAddr::V4(Ipv4Addr::new(170, 114, 0, 1)),
                    src_port: 50_000 + (i % 4) as u16,
                    dst_port: 8801,
                    protocol: Protocol::Udp,
                };
                let h = hash_of(&if downlink { up.reversed() } else { up });
                low.insert(h & 0xFFF);
                top.insert(h >> 57);
            }
            // 4096 balls into 4096 bins leave ~63 % of bins occupied.
            assert!(
                low.len() > 2_300,
                "only {} of 4096 low-bit buckets",
                low.len()
            );
            assert_eq!(top.len(), 128, "control-byte bits collapse");
        }
    }

    #[test]
    fn counter_counts_one_per_finished_hash() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.reserve(8); // no growth (and so no rehash) below
        let before = hash_computations();
        m.insert(1, 1);
        m.insert(2, 2);
        assert!(m.contains_key(&1));
        assert_eq!(hash_computations() - before, 3);
    }

    #[test]
    fn write_paths_cover_all_tails() {
        // 8-, 4-, 2-, and 1-byte tails all feed the state. (All-zero
        // input is FxHash's fixed point, so start the bytes at 1.)
        for len in 0..=17 {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let mut a = FxHasher::default();
            a.write(&bytes);
            let mut b = FxHasher::default();
            b.write(&bytes);
            assert_eq!(a.finish(), b.finish());
            if len > 0 {
                let mut empty = FxHasher::default();
                empty.write(&[]);
                assert_ne!(a.finish(), empty.finish(), "len {len}");
            }
        }
    }

    #[test]
    fn fx_map_behaves_like_std_map() {
        let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
        let mut std_map = HashMap::new();
        for i in 0..1000u64 {
            fx.insert(i * 7, i);
            std_map.insert(i * 7, i);
        }
        assert_eq!(fx.len(), std_map.len());
        for (k, v) in &std_map {
            assert_eq!(fx.get(k), Some(v));
        }
    }
}

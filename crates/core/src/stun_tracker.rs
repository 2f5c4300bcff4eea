//! Stateful P2P detection from STUN exchanges (§4.1 of the paper).
//!
//! Zoom clients that are about to open a P2P connection first exchange
//! STUN binding requests with a Zoom zone controller on UDP port 3478 —
//! *from the same ephemeral port the P2P media flow will later use*. The
//! detector therefore:
//!
//! 1. on every STUN packet between a campus client and a Zoom server,
//!    records the campus-side `(ip, port)` endpoint with a timestamp;
//! 2. on every subsequent non-server UDP packet, looks the campus-side
//!    endpoint up; a hit within the configured timeout marks the flow as a
//!    Zoom P2P media flow.
//!
//! Port reuse can cause false positives; the paper notes these are
//! filtered downstream by checking the Zoom packet format, which our
//! pipeline does too. On Tofino this state lives in register hash tables
//! (the "P2P Sources" / "P2P Destinations" boxes of Fig. 13); here it is a
//! `HashMap` with lazy expiry, a periodic sweep, and the hardware's fixed
//! capacity: at [`REGISTER_ENTRIES`] live entries a new key is refused
//! (and counted) rather than stored, so a flood of spoofed STUN packets
//! cannot grow the table past what the registers would hold. The capture
//! filter and the analyzer keep this one type, keyed by endpoint — and,
//! for the analyzer's DTLS-SRTP flows, by canonical five-tuple.
//!
//! The map keeps std's randomly keyed SipHash on purpose: its keys come
//! from packets an outside sender can forge, and an unkeyed hash would
//! let that sender aim every key at one bucket.

use std::collections::HashMap;
use std::hash::Hash;

/// Live entries one register holds at most: the P2P register capacity
/// the capture crate's Tofino resource model budgets for.
pub const REGISTER_ENTRIES: usize = 65_536;

/// Statistics counters exposed for Fig. 13-style per-stage reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// STUN exchanges recorded (register writes).
    pub registered: u64,
    /// Lookups that confirmed a P2P flow.
    pub hits: u64,
    /// Entries dropped because they outlived the timeout.
    pub expired: u64,
    /// Registrations refused because [`REGISTER_ENTRIES`] keys were
    /// live.
    pub rejected_full: u64,
}

/// One P2P register: key → last activity, capped at
/// [`REGISTER_ENTRIES`].
#[derive(Debug)]
pub struct StunTracker<K> {
    /// Key → last activity (nanoseconds).
    entries: HashMap<K, u64>,
    timeout_nanos: u64,
    stats: TrackerStats,
    /// Sweep cadence: every `sweep_every` registrations, purge expired
    /// entries so memory stays proportional to active clients.
    sweep_every: u64,
    since_sweep: u64,
    /// No entry expires before this time (set by each sweep from its
    /// oldest survivor), so a full table is not swept again — at the cost
    /// of a whole-table pass per refused packet — until it has passed.
    next_expiry_nanos: u64,
}

impl<K: Hash + Eq + Copy> StunTracker<K> {
    /// Create a register with the given entry timeout.
    ///
    /// The paper leaves the timeout configurable; longer timeouts risk
    /// false positives through ephemeral-port reuse, shorter ones risk
    /// missing P2P flows that start slowly ("within tens of seconds").
    /// Every route uses [`crate::pipeline::STUN_TIMEOUT_NANOS`] (120 s);
    /// the timeout ablation sweeps others.
    pub fn new(timeout_nanos: u64) -> Self {
        StunTracker {
            entries: HashMap::new(),
            timeout_nanos,
            stats: TrackerStats::default(),
            sweep_every: 1024,
            since_sweep: 0,
            next_expiry_nanos: 0,
        }
    }

    /// Record a STUN exchange (or, for a flow register, a handshake):
    /// `key` is live from `now_nanos` for the timeout. With
    /// [`REGISTER_ENTRIES`] keys live even after a sweep, a new key is
    /// refused and counted in [`TrackerStats::rejected_full`].
    pub fn register(&mut self, key: K, now_nanos: u64) {
        if self.entries.len() >= REGISTER_ENTRIES && !self.entries.contains_key(&key) {
            if now_nanos >= self.next_expiry_nanos {
                self.sweep(now_nanos);
            }
            if self.entries.len() >= REGISTER_ENTRIES {
                self.stats.rejected_full += 1;
                return;
            }
        }
        self.entries.insert(key, now_nanos);
        self.stats.registered += 1;
        self.since_sweep += 1;
        if self.since_sweep >= self.sweep_every {
            self.sweep(now_nanos);
            self.since_sweep = 0;
        }
    }

    /// Check whether `key` was registered within the timeout — for an
    /// endpoint, whether a UDP flow from it to a non-Zoom address should
    /// be treated as P2P media. Refreshes the entry on hit so
    /// long-running P2P calls stay matched.
    pub fn check(&mut self, key: K, now_nanos: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(last) if now_nanos.saturating_sub(*last) <= self.timeout_nanos => {
                *last = now_nanos;
                self.stats.hits += 1;
                true
            }
            Some(_) => {
                self.entries.remove(&key);
                self.stats.expired += 1;
                false
            }
            None => false,
        }
    }

    /// Drop all entries older than the timeout.
    pub fn sweep(&mut self, now_nanos: u64) {
        let timeout = self.timeout_nanos;
        let before = self.entries.len();
        // Later registrations are stamped `now` or after.
        let mut oldest = now_nanos;
        self.entries.retain(|_, last| {
            let live = now_nanos.saturating_sub(*last) <= timeout;
            if live {
                oldest = oldest.min(*last);
            }
            live
        });
        self.stats.expired += (before - self.entries.len()) as u64;
        self.next_expiry_nanos = oldest.saturating_add(timeout).saturating_add(1);
    }

    /// Entries held, expired ones not yet swept included.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the register holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TrackerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use zoom_wire::flow::Endpoint;

    const SEC: u64 = 1_000_000_000;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(IpAddr::V4(Ipv4Addr::new(10, 8, 0, last)), port)
    }

    #[test]
    fn hit_within_timeout() {
        let mut t = StunTracker::new(10 * SEC);
        t.register(ep(1, 50_000), 0);
        assert!(t.check(ep(1, 50_000), 5 * SEC));
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn miss_after_timeout() {
        let mut t = StunTracker::new(10 * SEC);
        t.register(ep(1, 50_000), 0);
        assert!(!t.check(ep(1, 50_000), 11 * SEC));
        assert_eq!(t.stats().expired, 1);
        assert!(t.entries.is_empty());
    }

    #[test]
    fn different_port_is_a_miss() {
        let mut t = StunTracker::new(10 * SEC);
        t.register(ep(1, 50_000), 0);
        assert!(!t.check(ep(1, 50_001), SEC));
        assert!(!t.check(ep(2, 50_000), SEC));
        assert_eq!(t.stats().hits, 0);
    }

    #[test]
    fn hit_refreshes_entry() {
        let mut t = StunTracker::new(10 * SEC);
        t.register(ep(1, 50_000), 0);
        // A long P2P call: keep checking every 8 s; each hit refreshes.
        for i in 1..10 {
            assert!(t.check(ep(1, 50_000), i * 8 * SEC));
        }
    }

    #[test]
    fn sweep_purges_expired() {
        let mut t = StunTracker::new(SEC);
        for i in 0..100u16 {
            t.register(ep(1, 40_000 + i), 0);
        }
        assert_eq!(t.entries.len(), 100);
        t.sweep(5 * SEC);
        assert!(t.entries.is_empty());
        assert_eq!(t.stats().expired, 100);
    }

    #[test]
    fn automatic_sweep_bounds_memory() {
        let mut t = StunTracker::new(SEC);
        t.sweep_every = 10;
        // Register 100 endpoints spaced 1 s apart: by the time the sweep
        // runs, old entries have expired.
        for i in 0..100u64 {
            t.register(ep((i % 250) as u8, 40_000 + i as u16), i * SEC);
        }
        assert!(t.entries.len() < 100);
    }

    fn nth_ep(i: usize) -> Endpoint {
        let ip = Ipv4Addr::new(10, 8, (i >> 16) as u8, (i >> 8) as u8);
        Endpoint::new(IpAddr::V4(ip), 1024 + (i & 0xff) as u16)
    }

    #[test]
    fn full_table_sweeps_then_refuses() {
        let mut t = StunTracker::new(10 * SEC);
        t.sweep_every = u64::MAX; // only the capacity path sweeps
        let half = REGISTER_ENTRIES / 2;
        for i in 0..REGISTER_ENTRIES {
            t.register(nth_ep(i), if i < half { 0 } else { 8 * SEC });
        }
        assert_eq!(t.entries.len(), REGISTER_ENTRIES);

        // Full and nothing expired yet: refused, and never matched.
        let late = nth_ep(REGISTER_ENTRIES);
        t.register(late, 9 * SEC);
        assert_eq!(t.stats().rejected_full, 1);
        assert_eq!(t.entries.len(), REGISTER_ENTRIES);
        assert!(!t.check(late, 9 * SEC));
        // A live endpoint still refreshes at capacity.
        t.register(nth_ep(half), 9 * SEC);
        assert_eq!(t.stats().rejected_full, 1);

        // The older half has timed out: the sweep makes room.
        t.register(late, 11 * SEC);
        assert_eq!(t.stats().rejected_full, 1);
        assert_eq!(t.stats().expired, half as u64);
        assert_eq!(t.entries.len(), REGISTER_ENTRIES - half + 1);
        assert!(t.check(late, 11 * SEC));
    }

    #[test]
    fn refusals_at_capacity_do_not_resweep() {
        let mut t = StunTracker::new(10 * SEC);
        t.sweep_every = u64::MAX;
        for i in 0..REGISTER_ENTRIES {
            t.register(nth_ep(i), 5 * SEC);
        }
        t.register(nth_ep(REGISTER_ENTRIES), 6 * SEC); // sweeps, frees nothing
        assert_eq!(t.next_expiry_nanos, 15 * SEC + 1);
        t.next_expiry_nanos = u64::MAX; // a sweep from here on would be a bug
        for i in 1..1000 {
            t.register(nth_ep(REGISTER_ENTRIES + i), 7 * SEC);
        }
        assert_eq!(t.stats().rejected_full, 1000);
        assert_eq!(t.stats().expired, 0);
    }

    #[test]
    fn reregistration_updates_timestamp() {
        let mut t = StunTracker::new(10 * SEC);
        t.register(ep(1, 50_000), 0);
        t.register(ep(1, 50_000), 20 * SEC);
        assert!(t.check(ep(1, 50_000), 25 * SEC));
    }
}

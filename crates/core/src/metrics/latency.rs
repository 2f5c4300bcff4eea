//! Passive latency estimation (§5.3, Fig. 11 of the paper).
//!
//! **Method 1 — RTP stream copies.** Zoom's SFU forwards media packets
//! without rewriting RTP headers, so when two participants of a meeting
//! sit behind the same monitor, every uplink packet reappears later as a
//! forwarded downlink copy with identical (SSRC, payload type, sequence,
//! timestamp). The time between the two sightings is the RTT between the
//! monitor and the SFU — tens to hundreds of probes per second.
//!
//! **Method 2 — TCP control connection.** Each client keeps a TLS control
//! connection to a Zoom server. Matching the sequence number of a data
//! segment against the acknowledgment that covers it yields the RTT from
//! the monitor to whichever endpoint sent the ACK — server-side and
//! client-side RTTs separately, locating congestion upstream or
//! downstream of the tap.
//!
//! **The matching window.** Both methods hold their probes — the uplink
//! sightings of Method 1, the armed data segments of Method 2 — in one
//! kind of candidate table, and the rule is the same for both: a probe
//! first sighted at `t` is answered by a copy or ACK that arrives at any
//! time in `t ..= t + window_nanos` (5 s by default), and by nothing
//! after. A probe sighted again inside its window keeps its first time (a
//! retransmission must not shrink the RTT); a sighting after the window
//! has closed starts a new probe. Expired probes leave the table in sweeps
//! driven by capture time: one whenever a sighting or a copy comes a
//! quarter window after the last sweep — before it is looked up — and one
//! at every window close of the streaming engine.
//!
//! **What a probe holds.** The table is a set of probes whose equality
//! and hash read the probe's identity only; the time rides along. An RTP
//! probe is one `u128`, 16 bytes: the 88-bit identity (SSRC, payload
//! type, sequence, timestamp) and the sighting time modulo 2^40 ns
//! (≈ 18 min). Its age at `now` is `(now − t) mod 2^40`; an age in the
//! upper half (more than 2^39 ns, ≈ 9 min) belongs to a sighting after
//! `now` and reads as 0, as a sighting after `now` does in full
//! arithmetic. Every lookup that finds a sweep due sweeps first, and a
//! sweep more than a window after the latest sighting empties the table
//! outright, so while capture time runs forward no age is read past a
//! few windows, however long the gaps in the trace: the modular age is
//! the true one. It differs in one case only: when capture time steps
//! back by more than about 2^39 ns while a probe is held, that probe
//! reads as old rather than as sighted after `now`. A TCP probe keeps
//! its full `u64` time.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::packet::{Direction, PacketMeta, RtpMeta, TcpMeta};
use crate::stats::LogHistogram;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use zoom_wire::flow::FiveTuple;

/// Count and sum of a set of RTT samples: what the mean is exactly, and
/// what a window's mean is by difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttTotals {
    /// Number of samples.
    pub samples: u64,
    /// Their round-trip times summed, nanoseconds.
    pub sum_nanos: u128,
}

impl RttTotals {
    fn add(&mut self, rtt_nanos: u64) {
        self.samples += 1;
        self.sum_nanos += u128::from(rtt_nanos);
    }

    /// The samples taken after `earlier`, a state these totals passed
    /// through.
    pub fn since(self, earlier: RttTotals) -> RttTotals {
        RttTotals {
            samples: self.samples - earlier.samples,
            sum_nanos: self.sum_nanos - earlier.sum_nanos,
        }
    }

    /// Mean RTT in whole nanoseconds (the sum divided once, rounding
    /// down); `None` without samples.
    pub fn mean_nanos(self) -> Option<u64> {
        let n = u128::from(self.samples);
        // The mean of u64 values fits a u64.
        (n > 0).then(|| (self.sum_nanos / n) as u64)
    }

    /// [`RttTotals::mean_nanos`] in milliseconds.
    pub fn mean_ms(self) -> Option<f64> {
        self.mean_nanos().map(|m| m as f64 / 1e6)
    }
}

/// What an estimator keeps of its RTT samples — a fixed amount of state
/// however many it takes: their count and sum, a [`LogHistogram`] of the
/// round-trip times in nanoseconds, and a count and sum per responder (a
/// run has many samples but few responders: the SFUs, the control
/// servers, the campus clients that ACK).
#[derive(Debug, Default)]
pub struct RttStats {
    totals: RttTotals,
    histogram: LogHistogram,
    /// Per responder, by first appearance.
    responders: Vec<(IpAddr, RttTotals)>,
    /// Responder → its index in `responders`. The addresses come off the
    /// wire, so lookups go through a hash, never a scan.
    index: FxHashMap<IpAddr, u32>,
    /// Index of the responder counted last: consecutive matches mostly
    /// come from the same SFU.
    last: usize,
}

impl RttStats {
    /// Count one sample of `rtt_nanos` answered by `to`.
    pub(crate) fn record(&mut self, rtt_nanos: u64, to: IpAddr) {
        self.totals.add(rtt_nanos);
        self.histogram.record(rtt_nanos);
        let at = match self.responders.get(self.last) {
            Some(&(ip, _)) if ip == to => self.last,
            _ => {
                let responders = &mut self.responders;
                let at = *self.index.entry(to).or_insert_with(|| {
                    responders.push((to, RttTotals::default()));
                    u32::try_from(responders.len() - 1).expect("under 2^32 responders")
                }) as usize;
                self.last = at;
                at
            }
        };
        self.responders[at].1.add(rtt_nanos);
    }

    /// Count and sum over every sample.
    pub fn totals(&self) -> RttTotals {
        self.totals
    }

    /// Number of samples.
    pub fn samples(&self) -> u64 {
        self.totals.samples
    }

    /// The round-trip times, nanoseconds.
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }

    /// Count and sum over the samples attributed to `ip` (zero when it
    /// never responded).
    pub fn to(&self, ip: IpAddr) -> RttTotals {
        self.index
            .get(&ip)
            .map_or_else(RttTotals::default, |&i| self.responders[i as usize].1)
    }
}

/// A probe in a candidate table: an identity, under which the table
/// holds at most one probe, and the time the probe was sighted.
trait Probe: Copy + Hash + Eq {
    /// Nanoseconds from the sighting to `now`; 0 for a sighting after
    /// `now`.
    fn age(&self, now: u64) -> u64;
}

/// Probes awaiting their answer, under the module's matching-window rule.
#[derive(Debug)]
struct Candidates<P> {
    probes: FxHashSet<P>,
    window_nanos: u64,
    /// The capture time from which the next sighting or answer sweeps
    /// expired probes out first.
    next_sweep: u64,
    /// The latest sighting time: no probe held was sighted after it.
    latest: u64,
}

impl<P: Probe> Candidates<P> {
    fn new(window_nanos: u64) -> Candidates<P> {
        Candidates {
            probes: FxHashSet::default(),
            window_nanos,
            next_sweep: 0,
            latest: 0,
        }
    }

    /// Sweep when one is due at `now`.
    fn sweep_if_due(&mut self, now: u64) {
        if now >= self.next_sweep {
            self.sweep(now);
        }
    }

    /// A sighting of `probe` at `now`: a new probe, unless its identity
    /// is already a probe whose window is still open (first sighting
    /// wins).
    fn sight(&mut self, probe: P, now: u64) {
        self.sweep_if_due(now);
        self.latest = self.latest.max(now);
        if !self.probes.insert(probe)
            && self
                .probes
                .get(&probe)
                .is_some_and(|old| old.age(now) > self.window_nanos)
        {
            self.probes.replace(probe);
        }
    }

    /// Answer the probe with `probe`'s identity at `now`: it leaves the
    /// table, and its age comes back if its window is still open.
    fn answer(&mut self, probe: &P, now: u64) -> Option<u64> {
        self.sweep_if_due(now);
        let age = self.probes.take(probe)?.age(now);
        (age <= self.window_nanos).then_some(age)
    }

    /// Drop every probe whose window has closed at `now`.
    fn sweep(&mut self, now: u64) {
        let window = self.window_nanos;
        if now.saturating_sub(self.latest) > window {
            // Every probe has expired, however long ago it was sighted —
            // which an RTP probe's 40 bits of time alone could not tell.
            self.probes.clear();
        } else {
            self.probes.retain(|p| p.age(now) <= window);
        }
        self.next_sweep = now.saturating_add(window / 4);
    }

    fn len(&self) -> usize {
        self.probes.len()
    }
}

/// Bits of an RTP probe that hold its sighting time.
const TIME_BITS: u32 = 40;
const TIME_MASK: u128 = (1 << TIME_BITS) - 1;

/// An uplink RTP sighting: (SSRC, payload type, sequence, timestamp) in
/// the top 88 bits, the sighting time modulo 2^40 ns in the low 40.
#[derive(Debug, Clone, Copy)]
struct RtpProbe(u128);

impl RtpProbe {
    fn new(rtp: &RtpMeta, now: u64) -> RtpProbe {
        let identity = u128::from(rtp.ssrc) << 56
            | u128::from(rtp.payload_type) << 48
            | u128::from(rtp.sequence) << 32
            | u128::from(rtp.timestamp);
        RtpProbe(identity << TIME_BITS | u128::from(now) & TIME_MASK)
    }

    fn identity(self) -> u128 {
        self.0 >> TIME_BITS
    }
}

impl PartialEq for RtpProbe {
    fn eq(&self, other: &RtpProbe) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for RtpProbe {}

impl Hash for RtpProbe {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // 88 bits of identity in one integer: two hasher rounds.
        self.identity().hash(state);
    }
}

impl Probe for RtpProbe {
    fn age(&self, now: u64) -> u64 {
        let age = (u128::from(now).wrapping_sub(self.0) & TIME_MASK) as u64;
        if age >> (TIME_BITS - 1) == 0 {
            age
        } else {
            0
        }
    }
}

/// An armed TCP data segment: (data-direction 5-tuple, expected ACK) and
/// the time it was sent.
#[derive(Debug, Clone, Copy)]
struct TcpProbe {
    awaits: (FiveTuple, u32),
    sent: u64,
}

impl PartialEq for TcpProbe {
    fn eq(&self, other: &TcpProbe) -> bool {
        self.awaits == other.awaits
    }
}

impl Eq for TcpProbe {}

impl Hash for TcpProbe {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.awaits.hash(state);
    }
}

impl Probe for TcpProbe {
    fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.sent)
    }
}

/// Method 1: RTT to the SFU by matching forwarded stream copies.
#[derive(Debug)]
pub struct RtpRttEstimator {
    /// Uplink packets awaiting their forwarded copy.
    uplink: Candidates<RtpProbe>,
    stats: RttStats,
}

impl Default for RtpRttEstimator {
    fn default() -> Self {
        Self::new(5_000_000_000)
    }
}

impl RtpRttEstimator {
    /// Estimator that matches a downlink copy to an uplink packet up to
    /// `window_nanos` after the uplink sighting.
    pub fn new(window_nanos: u64) -> RtpRttEstimator {
        RtpRttEstimator {
            uplink: Candidates::new(window_nanos),
            stats: RttStats::default(),
        }
    }

    /// Feed every Zoom media packet.
    pub fn on_packet(&mut self, m: &PacketMeta) {
        let Some(rtp) = &m.rtp else { return };
        let (ts_nanos, direction) = (m.ts_nanos, m.direction);
        let probe = RtpProbe::new(rtp, ts_nanos);
        match direction {
            Direction::ToServer => self.uplink.sight(probe, ts_nanos),
            Direction::FromServer => {
                if let Some(rtt) = self.uplink.answer(&probe, ts_nanos) {
                    self.stats.record(rtt, m.five_tuple.src_ip);
                }
            }
            Direction::Unknown => {}
        }
    }

    /// Drop every unmatched uplink packet whose matching window has
    /// closed at `now` — the streaming engine's per-tick bound on
    /// candidate state. Lossless: none of them could match again.
    pub(crate) fn prune(&mut self, now: u64) {
        self.uplink.sweep(now);
    }

    /// What the samples so far add up to.
    pub fn stats(&self) -> &RttStats {
        &self.stats
    }

    /// Unmatched uplink packets currently held.
    pub fn outstanding(&self) -> usize {
        self.uplink.len()
    }
}

/// Method 2: RTTs from the TCP control connection.
#[derive(Debug)]
pub struct TcpRttEstimator {
    /// Data segments awaiting the ACK that covers them.
    pending: Candidates<TcpProbe>,
    stats: RttStats,
}

impl Default for TcpRttEstimator {
    fn default() -> Self {
        Self::new(5_000_000_000)
    }
}

impl TcpRttEstimator {
    /// Estimator with the given matching window.
    pub fn new(window_nanos: u64) -> TcpRttEstimator {
        TcpRttEstimator {
            pending: Candidates::new(window_nanos),
            stats: RttStats::default(),
        }
    }

    /// Feed every TCP segment on Zoom control connections.
    pub fn on_segment(&mut self, t: &TcpMeta) {
        // A data segment arms a probe: we await an ACK covering seq+len.
        if t.payload_len > 0 {
            let expected = t.seq.wrapping_add(t.payload_len as u32);
            let probe = TcpProbe {
                awaits: (t.five_tuple, expected),
                sent: t.ts_nanos,
            };
            self.pending.sight(probe, t.ts_nanos);
        }
        // An ACK answers a probe armed in the reverse direction; the RTT
        // is attributed to the ACK's sender.
        if t.has_ack {
            let probe = TcpProbe {
                awaits: (t.five_tuple.reversed(), t.ack),
                sent: t.ts_nanos,
            };
            if let Some(rtt) = self.pending.answer(&probe, t.ts_nanos) {
                self.stats.record(rtt, t.five_tuple.src_ip);
            }
        }
    }

    /// What the samples so far add up to.
    pub fn stats(&self) -> &RttStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};
    use std::net::{Ipv4Addr, Ipv6Addr};
    use zoom_wire::ipv4::Protocol;
    use zoom_wire::zoom::{Framing, MediaType, RtpPayloadKind};

    const MS: u64 = 1_000_000;

    fn tuple(up: bool) -> FiveTuple {
        let client = IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1));
        let server = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        if up {
            FiveTuple {
                src_ip: client,
                dst_ip: server,
                src_port: 51_000,
                dst_port: 8801,
                protocol: Protocol::Udp,
            }
        } else {
            FiveTuple {
                src_ip: server,
                dst_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, 2)),
                src_port: 8801,
                dst_port: 52_000,
                protocol: Protocol::Udp,
            }
        }
    }

    fn media(at: u64, dir: Direction, seq: u16) -> PacketMeta {
        PacketMeta {
            ts_nanos: at,
            five_tuple: tuple(dir == Direction::ToServer),
            ip_len: 1_000,
            family: zoom_wire::family::FamilyId::Zoom,
            framing: Framing::Server,
            media_type: MediaType::Video,
            direction: dir,
            rtp: Some(RtpMeta {
                ssrc: 0x21,
                payload_type: 98,
                sequence: seq,
                timestamp: 90_000,
                marker: false,
                kind: RtpPayloadKind::VideoMain,
            }),
            rtcp: None,
            frame_seq: Some(1),
            pkts_in_frame: Some(1),
            media_payload_len: 900,
        }
    }

    #[test]
    fn matches_stream_copies() {
        let mut e = RtpRttEstimator::default();
        e.on_packet(&media(1_000 * MS, Direction::ToServer, 5));
        e.on_packet(&media(1_046 * MS, Direction::FromServer, 5));
        let stats = e.stats();
        assert_eq!(stats.samples(), 1);
        assert_eq!(stats.totals().mean_nanos(), Some(46 * MS));
        assert_eq!(stats.totals().mean_ms(), Some(46.0));
        let median = stats.histogram().median();
        assert!(median.abs_diff(46 * MS) <= 46 * MS / 128, "{median}");
        let sfu = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        assert_eq!(stats.to(sfu), stats.totals());
    }

    #[test]
    fn no_match_for_different_seq_or_pt() {
        let mut e = RtpRttEstimator::default();
        e.on_packet(&media(0, Direction::ToServer, 5));
        e.on_packet(&media(10 * MS, Direction::FromServer, 6));
        let mut other_pt = media(12 * MS, Direction::FromServer, 5);
        other_pt.rtp.as_mut().unwrap().payload_type = 110;
        e.on_packet(&other_pt);
        assert_eq!(e.stats().samples(), 0);
    }

    #[test]
    fn retransmission_does_not_shrink_rtt() {
        let mut e = RtpRttEstimator::default();
        e.on_packet(&media(0, Direction::ToServer, 5));
        e.on_packet(&media(130 * MS, Direction::ToServer, 5)); // retransmit
        e.on_packet(&media(150 * MS, Direction::FromServer, 5));
        assert_eq!(e.stats().totals().mean_nanos(), Some(150 * MS));
    }

    #[test]
    fn old_probes_evicted() {
        let mut e = RtpRttEstimator::new(1_000 * MS);
        e.on_packet(&media(0, Direction::ToServer, 5));
        // Trigger eviction with a much later uplink packet.
        e.on_packet(&media(5_000 * MS, Direction::ToServer, 6));
        assert_eq!(e.outstanding(), 1);
        e.on_packet(&media(5_010 * MS, Direction::FromServer, 5));
        assert_eq!(e.stats().samples(), 0);
    }

    /// Uplink at 0, an optional uplink of another packet at `between`,
    /// then the copy at `copy`, all in a 1 s window: samples matched.
    fn copy_matches(between: Option<u64>, copy: u64) -> u64 {
        let mut e = RtpRttEstimator::new(1_000 * MS);
        e.on_packet(&media(0, Direction::ToServer, 5));
        if let Some(at) = between {
            e.on_packet(&media(at, Direction::ToServer, 6));
        }
        e.on_packet(&media(copy, Direction::FromServer, 5));
        e.stats().samples()
    }

    #[test]
    fn a_copy_matches_up_to_the_window_edge_and_not_after() {
        const W: u64 = 1_000 * MS;
        assert_eq!(copy_matches(None, W), 1);
        assert_eq!(copy_matches(Some(W), W), 1);
        assert_eq!(copy_matches(None, W + 1), 0);
        // An uplink packet at the edge sweeps the probe out one
        // nanosecond later, not at the edge itself.
        assert_eq!(copy_matches(Some(W), W + 1), 0);
        assert_eq!(copy_matches(Some(W + 1), W + 1), 0);
    }

    #[test]
    fn a_sighting_after_the_window_starts_a_new_probe() {
        let mut e = RtpRttEstimator::new(1_000 * MS);
        e.on_packet(&media(0, Direction::ToServer, 5));
        // Inside the window the first sighting wins…
        e.on_packet(&media(1_000 * MS, Direction::ToServer, 5));
        // …after it, the sighting is a probe of its own.
        e.on_packet(&media(2_500 * MS, Direction::ToServer, 5));
        e.on_packet(&media(2_540 * MS, Direction::FromServer, 5));
        assert_eq!(e.stats().totals().mean_nanos(), Some(40 * MS));
    }

    /// The insertion-order queue the candidate table replaced: a sighting
    /// is kept if its key is free, and every sighting queued, then every
    /// queued sighting more than a window old is dropped unless its key
    /// has been sighted anew since.
    struct Fifo {
        first_seen: HashMap<u32, u64>,
        order: VecDeque<(u32, u64)>,
        window: u64,
    }

    impl Fifo {
        fn sight(&mut self, key: u32, now: u64) {
            self.first_seen.entry(key).or_insert(now);
            self.order.push_back((key, now));
            self.evict(now);
        }

        fn evict(&mut self, now: u64) {
            while let Some(&(key, t)) = self.order.front() {
                if now - t <= self.window {
                    break;
                }
                self.order.pop_front();
                if self.first_seen.get(&key) == Some(&t) {
                    self.first_seen.remove(&key);
                }
            }
        }
    }

    /// Drive a candidate table and the queue it replaced through one
    /// time-ordered sequence of probes (retransmitted inside their
    /// window), answers (some long after their window) and prunes:
    /// after every prune both hold the same number of probes.
    fn prunes_leave_what_the_queue_left<K: Hash + Eq>(
        key: impl Fn(u32) -> K,
        mut sight: impl FnMut(K, u64),
        mut answer: impl FnMut(K, u64),
        mut prune: impl FnMut(u64) -> usize,
    ) {
        const W: u64 = 1_000 * MS;
        let mut fifo = Fifo {
            first_seen: HashMap::new(),
            order: VecDeque::new(),
            window: W,
        };
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut now, mut next, mut prunes) = (0, 0u32, 0);
        // When each probe was first sent.
        let mut sent = vec![0];
        for _ in 0..20_000 {
            now += draw(40) * MS;
            match draw(20) {
                // A retransmission of one of the last ten probes if that
                // is still inside its window, else a new probe.
                0..=9 => {
                    let again = next.saturating_sub(draw(10) as u32);
                    let k = if draw(3) == 0 && now - sent[again as usize] <= W {
                        again
                    } else {
                        next += 1;
                        sent.push(now);
                        next
                    };
                    fifo.sight(k, now);
                    sight(key(k), now);
                }
                // An answer to one of the last 100 probes: up to 4 s old.
                10..=18 => {
                    let k = next.saturating_sub(draw(100) as u32);
                    fifo.first_seen.remove(&k);
                    answer(key(k), now);
                }
                _ => {
                    fifo.evict(now);
                    assert_eq!(prune(now), fifo.first_seen.len(), "at {now}");
                    prunes += 1;
                }
            }
        }
        assert!(prunes > 500, "{prunes} prunes");
    }

    #[test]
    fn rtp_prune_leaves_what_the_queue_left() {
        let e = std::cell::RefCell::new(RtpRttEstimator::new(1_000 * MS));
        let at = |k: u32, t, dir| {
            let mut m = media(t, dir, k as u16);
            m.rtp.as_mut().unwrap().timestamp = k;
            m
        };
        prunes_leave_what_the_queue_left(
            |k| k,
            |k, t| e.borrow_mut().on_packet(&at(k, t, Direction::ToServer)),
            |k, t| e.borrow_mut().on_packet(&at(k, t, Direction::FromServer)),
            |t| {
                let mut e = e.borrow_mut();
                e.prune(t);
                e.outstanding()
            },
        );
        assert!(e.borrow().stats().samples() > 1_000);
    }

    #[test]
    fn tcp_prune_leaves_what_the_queue_left() {
        let e = std::cell::RefCell::new(TcpRttEstimator::new(1_000 * MS));
        prunes_leave_what_the_queue_left(
            |k| k,
            // Data segments of one byte each: the ACK for `k` is `k`.
            |k, t| {
                e.borrow_mut()
                    .on_segment(&tcp(t, true, k.wrapping_sub(1), 0, 1))
            },
            |k, t| e.borrow_mut().on_segment(&tcp(t, false, 0, k, 0)),
            |t| {
                let mut e = e.borrow_mut();
                e.pending.sweep(t);
                e.pending.len()
            },
        );
        assert!(e.borrow().stats().samples() > 1_000);
    }

    /// The table the probe set replaced — identity → full first-sighting
    /// time — on the probe set's sweep schedule.
    struct FullTimeTable {
        first_seen: FxHashMap<u128, u64>,
        window: u64,
        next_sweep: u64,
    }

    impl FullTimeTable {
        fn sweep(&mut self, now: u64) {
            let window = self.window;
            self.first_seen
                .retain(|_, t| now.saturating_sub(*t) <= window);
            self.next_sweep = now.saturating_add(window / 4);
        }

        fn sweep_if_due(&mut self, now: u64) {
            if now >= self.next_sweep {
                self.sweep(now);
            }
        }

        fn sight(&mut self, id: u128, now: u64) {
            self.sweep_if_due(now);
            let t = self.first_seen.entry(id).or_insert(now);
            if now.saturating_sub(*t) > self.window {
                *t = now;
            }
        }

        fn answer(&mut self, id: u128, now: u64) -> Option<u64> {
            self.sweep_if_due(now);
            let age = now.saturating_sub(self.first_seen.remove(&id)?);
            (age <= self.window).then_some(age)
        }
    }

    #[test]
    fn rtp_probes_answer_what_full_times_answered() {
        const W: u64 = 1_000 * MS;
        let probe = |id: u128, now: u64| RtpProbe(id << TIME_BITS | u128::from(now) & TIME_MASK);
        let mut rng = 0x51_7c_c1_b7_27_22_0a_95_u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut set = Candidates::<RtpProbe>::new(W);
        let mut full = FullTimeTable {
            first_seen: FxHashMap::default(),
            window: W,
            next_sweep: 0,
        };
        let (mut now, mut latest) = (0u64, 0u64);
        let (mut matched, mut steps_back, mut gaps) = (0, 0, 0);
        for step in 0..200_000 {
            // Capture time: mostly forward, sometimes jittered back a
            // little, now and then stepped back up to 2^38 ns behind the
            // latest time, or forward by more than 2^40 ns.
            now = match draw(1_000) {
                0 => {
                    steps_back += 1;
                    latest.saturating_sub(draw(1 << 38))
                }
                1 => {
                    gaps += 1;
                    now + (1 << 40) + draw(3 * W)
                }
                2..=99 => now
                    .saturating_sub(draw(30 * MS))
                    .max(latest.saturating_sub(1 << 38)),
                _ => now + draw(20 * MS),
            };
            latest = latest.max(now);
            // Identities in the 88 bits a probe keeps, from a pool small
            // enough to be sighted again and answered.
            let id =
                u128::from(draw(300)).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c) & ((1 << 88) - 1);
            match draw(10) {
                0..=4 => {
                    set.sight(probe(id, now), now);
                    full.sight(id, now);
                }
                5..=8 => {
                    let got = set.answer(&probe(id, now), now);
                    assert_eq!(got, full.answer(id, now), "step {step} at {now}");
                    matched += usize::from(got.is_some());
                }
                _ => {
                    set.sweep(now);
                    full.sweep(now);
                }
            }
            assert_eq!(set.len(), full.first_seen.len(), "step {step} at {now}");
        }
        assert!(matched > 5_000 && steps_back > 100 && gaps > 100);
    }

    #[test]
    fn a_step_back_of_more_than_2_pow_39_ns_reads_as_age() {
        // A probe sighted after `now` reads as age 0, as in full
        // arithmetic — up to 2^39 ns after. Further, its age reads
        // modulo 2^40: the one case where the 40-bit time differs.
        let rtt_of = |sighted: u64, copy: u64| {
            let mut e = RtpRttEstimator::default();
            e.on_packet(&media(sighted, Direction::ToServer, 5));
            e.on_packet(&media(copy, Direction::FromServer, 5));
            e.stats().totals().mean_nanos()
        };
        assert_eq!(rtt_of(500_000 * MS, 100 * MS), Some(0));
        assert_eq!(rtt_of((1 << 39) + 100 * MS, 100 * MS), Some(0));
        assert_eq!(rtt_of((1 << 39) + 100 * MS + 1, 100 * MS), None);
        assert_eq!(rtt_of(700_000 * MS, 100 * MS), None);
        // Past a gap of 2^40 ns the probe has expired, whatever its low
        // bits say.
        assert_eq!(rtt_of(0, 1 << 40), None);
        assert_eq!(rtt_of(7 * MS, (1 << 40) + 50 * MS), None);
    }

    #[test]
    fn an_rtp_probe_takes_16_bytes() {
        assert_eq!(std::mem::size_of::<RtpProbe>(), 16);
        assert_eq!(std::mem::size_of::<TcpProbe>(), 56);
    }

    fn tcp(at: u64, up: bool, seq: u32, ack: u32, len: usize) -> TcpMeta {
        let client = IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1));
        let server = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        let ft = if up {
            FiveTuple {
                src_ip: client,
                dst_ip: server,
                src_port: 50_000,
                dst_port: 443,
                protocol: Protocol::Tcp,
            }
        } else {
            FiveTuple {
                src_ip: server,
                dst_ip: client,
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            }
        };
        TcpMeta {
            ts_nanos: at,
            five_tuple: ft,
            seq,
            ack,
            has_ack: true,
            payload_len: len,
            ip_len: 40 + len,
        }
    }

    #[test]
    fn tcp_rtt_to_server_and_client() {
        let mut e = TcpRttEstimator::default();
        // Client data at t=0, server ACK at t=40 ms → RTT to server.
        e.on_segment(&tcp(0, true, 1_000, 0, 100));
        e.on_segment(&tcp(40 * MS, false, 500, 1_100, 0));
        // Server data at t=100 ms, client ACK at t=103 ms → RTT to client.
        e.on_segment(&tcp(100 * MS, false, 500, 1_100, 50));
        e.on_segment(&tcp(103 * MS, true, 1_100, 550, 0));
        assert_eq!(e.stats().samples(), 2);
        let server = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        let client = IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1));
        assert_eq!(e.stats().to(server).mean_nanos(), Some(40 * MS));
        assert_eq!(e.stats().to(client).mean_nanos(), Some(3 * MS));
    }

    /// Data at 0, an optional data segment of another probe at
    /// `between`, then the ACK at `ack`, all in a 1 s window: samples
    /// matched.
    fn ack_matches(between: Option<u64>, ack: u64) -> u64 {
        let mut e = TcpRttEstimator::new(1_000 * MS);
        e.on_segment(&tcp(0, true, 1_000, 0, 100));
        if let Some(at) = between {
            e.on_segment(&tcp(at, true, 1_100, 0, 100));
        }
        e.on_segment(&tcp(ack, false, 500, 1_100, 0));
        e.stats().samples()
    }

    #[test]
    fn tcp_ack_matches_up_to_the_window_edge_and_not_after() {
        const W: u64 = 1_000 * MS;
        assert_eq!(ack_matches(None, W), 1);
        assert_eq!(ack_matches(Some(W), W), 1);
        assert_eq!(ack_matches(None, W + 1), 0);
        assert_eq!(ack_matches(Some(W), W + 1), 0);
        assert_eq!(ack_matches(Some(W + 1), W + 1), 0);
    }

    #[test]
    fn tcp_retransmission_inside_the_window_keeps_the_first_send() {
        let mut e = TcpRttEstimator::new(1_000 * MS);
        e.on_segment(&tcp(0, true, 1_000, 0, 100));
        e.on_segment(&tcp(300 * MS, true, 1_000, 0, 100));
        e.on_segment(&tcp(340 * MS, false, 500, 1_100, 0));
        assert_eq!(e.stats().totals().mean_nanos(), Some(340 * MS));
        // Past the window a resend is a probe of its own.
        e.on_segment(&tcp(2_000 * MS, true, 1_100, 0, 100));
        e.on_segment(&tcp(3_500 * MS, true, 1_100, 0, 100));
        e.on_segment(&tcp(3_520 * MS, false, 500, 1_200, 0));
        assert_eq!(e.stats().samples(), 2);
        assert_eq!(e.stats().totals().sum_nanos, u128::from(360 * MS));
    }

    #[test]
    fn tcp_partial_ack_does_not_match() {
        let mut e = TcpRttEstimator::default();
        e.on_segment(&tcp(0, true, 1_000, 0, 100));
        e.on_segment(&tcp(40 * MS, false, 500, 1_050, 0)); // acks half
        assert_eq!(e.stats().samples(), 0);
    }

    #[test]
    fn tcp_seq_wraparound() {
        let mut e = TcpRttEstimator::default();
        e.on_segment(&tcp(0, true, u32::MAX - 10, 0, 100));
        e.on_segment(&tcp(
            25 * MS,
            false,
            500,
            (u32::MAX - 10).wrapping_add(100),
            0,
        ));
        assert_eq!(e.stats().samples(), 1);
        assert_eq!(e.stats().totals().mean_nanos(), Some(25 * MS));
    }

    #[test]
    fn interleaved_v4_and_v6_responders_keep_their_samples() {
        let v4 = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        let v6 = IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 9));
        // The v4-mapped form of `v4` is a distinct responder.
        let mapped = IpAddr::V6(Ipv4Addr::new(170, 114, 0, 9).to_ipv6_mapped());
        let mut stats = RttStats::default();
        let order = [v4, v6, v6, v4, mapped, v6, v4, mapped];
        for (i, &to) in order.iter().enumerate() {
            stats.record((i as u64 + 1) * MS, to);
        }
        assert_eq!(stats.samples(), order.len() as u64);
        assert_eq!(stats.totals().sum_nanos, u128::from(36 * MS));
        // Samples 1, 4 and 7 ms went to v4; 2, 3 and 6 to v6; 5 and 8 to
        // its v4-mapped twin.
        let want = |samples, sum_ms: u64| RttTotals {
            samples,
            sum_nanos: u128::from(sum_ms * MS),
        };
        assert_eq!(
            stats.responders,
            [(v4, want(3, 12)), (v6, want(3, 11)), (mapped, want(2, 13))]
        );
        for &(ip, totals) in &stats.responders {
            assert_eq!(stats.to(ip), totals);
        }
        assert_eq!(stats.to(mapped).mean_nanos(), Some(6_500_000));
        let stranger = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(stats.to(stranger), RttTotals::default());
        assert_eq!(stats.to(stranger).mean_nanos(), None);
    }

    #[test]
    fn ten_thousand_responders_intern_once_each() {
        let responder = |i: u32| {
            if i.is_multiple_of(2) {
                IpAddr::V4(Ipv4Addr::from(0x0a00_0000 + i))
            } else {
                IpAddr::V6(Ipv6Addr::from(0x2001_0db8_u128 << 96 | u128::from(i)))
            }
        };
        let mut stats = RttStats::default();
        for i in 0..10_000u32 {
            stats.record(u64::from(i) + 1, responder(i));
        }
        assert_eq!(stats.responders.len(), 10_000);
        assert_eq!(stats.samples(), 10_000);
        for i in 0..10_000u32 {
            let got = stats.to(responder(i));
            assert_eq!(got.samples, 1, "responder {i}");
            assert_eq!(got.mean_nanos(), Some(u64::from(i) + 1));
        }
    }

    #[test]
    fn totals_since_an_earlier_state_are_the_later_samples() {
        let mut stats = RttStats::default();
        let sfu = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        stats.record(10 * MS, sfu);
        let mark = stats.totals();
        stats.record(20 * MS, sfu);
        stats.record(31 * MS, sfu);
        let window = stats.totals().since(mark);
        assert_eq!(window.samples, 2);
        assert_eq!(window.mean_nanos(), Some(25_500_000));
        assert_eq!(window.mean_ms(), Some(25.5));
    }
}

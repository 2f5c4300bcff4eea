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

use crate::fxhash::FxHashMap;
use crate::packet::{Direction, PacketMeta, TcpMeta};
use crate::stats::LogHistogram;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
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
    fn record(&mut self, rtt_nanos: u64, to: IpAddr) {
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

/// Method 1: RTT to the SFU by matching forwarded stream copies.
#[derive(Debug)]
pub struct RtpRttEstimator {
    /// Packed (ssrc, pt, seq, ts) of uplink packets → first-seen time.
    outstanding: FxHashMap<u128, u64>,
    /// Insertion order for eviction.
    order: VecDeque<(u128, u64)>,
    window_nanos: u64,
    stats: RttStats,
}

impl Default for RtpRttEstimator {
    fn default() -> Self {
        Self::new(5_000_000_000)
    }
}

impl RtpRttEstimator {
    /// Estimator that forgets unmatched uplink packets after `window`.
    pub fn new(window_nanos: u64) -> RtpRttEstimator {
        RtpRttEstimator {
            outstanding: FxHashMap::default(),
            order: VecDeque::new(),
            window_nanos,
            stats: RttStats::default(),
        }
    }

    /// Feed every Zoom media packet.
    pub fn on_packet(&mut self, m: &PacketMeta) {
        let Some(rtp) = &m.rtp else { return };
        let (ts_nanos, direction) = (m.ts_nanos, m.direction);
        // 88 bits of identity in one integer: two hasher rounds instead
        // of a tuple's four.
        let key = u128::from(rtp.ssrc) << 56
            | u128::from(rtp.payload_type) << 48
            | u128::from(rtp.sequence) << 32
            | u128::from(rtp.timestamp);
        match direction {
            Direction::ToServer => {
                // Record the egress sighting (first one wins: a
                // retransmission should not shrink the measured RTT).
                if let Entry::Vacant(e) = self.outstanding.entry(key) {
                    e.insert(ts_nanos);
                    self.order.push_back((key, ts_nanos));
                }
                self.evict(ts_nanos);
            }
            Direction::FromServer => {
                if let Some(t_out) = self.outstanding.remove(&key) {
                    self.stats
                        .record(ts_nanos.saturating_sub(t_out), m.five_tuple.src_ip);
                }
            }
            Direction::Unknown => {}
        }
    }

    fn evict(&mut self, now: u64) {
        while let Some(&(key, t)) = self.order.front() {
            if now.saturating_sub(t) > self.window_nanos {
                self.order.pop_front();
                // Only remove if the stored time still matches (it may
                // have been matched and re-inserted meanwhile).
                if let Entry::Occupied(e) = self.outstanding.entry(key) {
                    if *e.get() == t {
                        e.remove();
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Drop unmatched uplink packets older than the matching window —
    /// the streaming engine's per-tick bound on candidate state. Lossless
    /// (the evicted entries could never match again anyway).
    pub(crate) fn prune(&mut self, now: u64) {
        self.evict(now);
    }

    /// What the samples so far add up to.
    pub fn stats(&self) -> &RttStats {
        &self.stats
    }

    /// Unmatched uplink packets currently held.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

/// Method 2: RTTs from the TCP control connection.
#[derive(Debug)]
pub struct TcpRttEstimator {
    /// (data-direction 5-tuple, expected ack) → send time.
    pending: FxHashMap<(FiveTuple, u32), u64>,
    order: VecDeque<((FiveTuple, u32), u64)>,
    window_nanos: u64,
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
            pending: FxHashMap::default(),
            order: VecDeque::new(),
            window_nanos,
            stats: RttStats::default(),
        }
    }

    /// Feed every TCP segment on Zoom control connections.
    pub fn on_segment(&mut self, t: &TcpMeta) {
        // A data segment arms a probe: we await an ACK covering seq+len.
        if t.payload_len > 0 {
            let expected = t.seq.wrapping_add(t.payload_len as u32);
            let key = (t.five_tuple, expected);
            self.pending.entry(key).or_insert(t.ts_nanos);
            self.order.push_back((key, t.ts_nanos));
            self.evict(t.ts_nanos);
        }
        // An ACK answers a probe armed in the reverse direction; the RTT
        // is attributed to the ACK's sender.
        if t.has_ack {
            let key = (t.five_tuple.reversed(), t.ack);
            if let Some(t_data) = self.pending.remove(&key) {
                self.stats
                    .record(t.ts_nanos.saturating_sub(t_data), t.five_tuple.src_ip);
            }
        }
    }

    fn evict(&mut self, now: u64) {
        while let Some(&(key, t)) = self.order.front() {
            if now.saturating_sub(t) > self.window_nanos {
                self.order.pop_front();
                if let Entry::Occupied(e) = self.pending.entry(key) {
                    if *e.get() == t {
                        e.remove();
                    }
                }
            } else {
                break;
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
    use crate::packet::RtpMeta;
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

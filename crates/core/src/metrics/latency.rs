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
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::net::IpAddr;
use zoom_wire::flow::FiveTuple;

/// One RTT observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// When the returning packet was seen.
    pub at: u64,
    /// Round-trip time, nanoseconds.
    pub rtt_nanos: u64,
    /// The endpoint the RTT is measured to (the SFU for RTP samples; the
    /// ACK sender for TCP samples).
    pub to: IpAddr,
}

impl RttSample {
    /// RTT in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        self.rtt_nanos as f64 / 1e6
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
    samples: Vec<RttSample>,
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
            samples: Vec::new(),
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
                    self.samples.push(RttSample {
                        at: ts_nanos,
                        rtt_nanos: ts_nanos.saturating_sub(t_out),
                        to: m.five_tuple.src_ip,
                    });
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

    /// All samples so far.
    pub fn samples(&self) -> &[RttSample] {
        &self.samples
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
    samples: Vec<RttSample>,
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
            samples: Vec::new(),
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
                self.samples.push(RttSample {
                    at: t.ts_nanos,
                    rtt_nanos: t.ts_nanos.saturating_sub(t_data),
                    to: t.five_tuple.src_ip,
                });
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

    /// All samples so far.
    pub fn samples(&self) -> &[RttSample] {
        &self.samples
    }

    /// Samples attributed to a particular responder.
    pub fn samples_to(&self, ip: IpAddr) -> Vec<RttSample> {
        self.samples
            .iter()
            .filter(|s| s.to == ip)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RtpMeta;
    use std::net::Ipv4Addr;
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
        assert_eq!(e.samples().len(), 1);
        let s = e.samples()[0];
        assert_eq!(s.rtt_nanos, 46 * MS);
        assert!((s.rtt_ms() - 46.0).abs() < 1e-9);
        assert_eq!(s.to, IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9)));
    }

    #[test]
    fn no_match_for_different_seq_or_pt() {
        let mut e = RtpRttEstimator::default();
        e.on_packet(&media(0, Direction::ToServer, 5));
        e.on_packet(&media(10 * MS, Direction::FromServer, 6));
        let mut other_pt = media(12 * MS, Direction::FromServer, 5);
        other_pt.rtp.as_mut().unwrap().payload_type = 110;
        e.on_packet(&other_pt);
        assert!(e.samples().is_empty());
    }

    #[test]
    fn retransmission_does_not_shrink_rtt() {
        let mut e = RtpRttEstimator::default();
        e.on_packet(&media(0, Direction::ToServer, 5));
        e.on_packet(&media(130 * MS, Direction::ToServer, 5)); // retransmit
        e.on_packet(&media(150 * MS, Direction::FromServer, 5));
        assert_eq!(e.samples()[0].rtt_nanos, 150 * MS);
    }

    #[test]
    fn old_probes_evicted() {
        let mut e = RtpRttEstimator::new(1_000 * MS);
        e.on_packet(&media(0, Direction::ToServer, 5));
        // Trigger eviction with a much later uplink packet.
        e.on_packet(&media(5_000 * MS, Direction::ToServer, 6));
        assert_eq!(e.outstanding(), 1);
        e.on_packet(&media(5_010 * MS, Direction::FromServer, 5));
        assert!(e.samples().is_empty());
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
        assert_eq!(e.samples().len(), 2);
        let server = IpAddr::V4(Ipv4Addr::new(170, 114, 0, 9));
        let client = IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1));
        assert_eq!(e.samples_to(server)[0].rtt_nanos, 40 * MS);
        assert_eq!(e.samples_to(client)[0].rtt_nanos, 3 * MS);
    }

    #[test]
    fn tcp_partial_ack_does_not_match() {
        let mut e = TcpRttEstimator::default();
        e.on_segment(&tcp(0, true, 1_000, 0, 100));
        e.on_segment(&tcp(40 * MS, false, 500, 1_050, 0)); // acks half
        assert!(e.samples().is_empty());
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
        assert_eq!(e.samples().len(), 1);
        assert_eq!(e.samples()[0].rtt_nanos, 25 * MS);
    }
}

//! Property-based tests on the analysis layer's core invariants.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr};
use zoom_analysis::entropy::{extract_series, FieldSeries};
use zoom_analysis::metrics::frame::{Completion, FrameRecord, FrameTracker};
use zoom_analysis::metrics::jitter::JitterEstimator;
use zoom_analysis::metrics::loss::SeqTracker;
use zoom_analysis::packet::{Direction, PacketMeta, RtpMeta};
use zoom_analysis::pipeline::FlowStats;
use zoom_analysis::stats::{RateRows, Samples};
use zoom_analysis::stream::{StreamKey, StreamTracker};
use zoom_wire::family::FamilyId;
use zoom_wire::flow::FiveTuple;
use zoom_wire::ipv4::Protocol;
use zoom_wire::zoom::{Framing, MediaType, RtpPayloadKind};

const MS: u64 = 1_000_000;

/// The map-backed frame tracker the vector-backed one replaced, kept as
/// the reference: `completed_ts` is consulted first, pending frames live
/// in a hash map keyed by RTP timestamp.
struct MapFrameTracker {
    completion: Completion,
    sampling_rate: u32,
    /// Keyed by RTP timestamp.
    pending: HashMap<u32, MapPending>,
    completed: Vec<FrameRecord>,
    last_completed_ts: Option<u32>,
    completed_ts: VecDeque<u32>,
}

struct MapPending {
    first_at: u64,
    seqs: Vec<u16>,
    bytes: usize,
    expected: Option<u8>,
    marker_seen: bool,
}

impl MapFrameTracker {
    fn new(completion: Completion) -> MapFrameTracker {
        MapFrameTracker {
            completion,
            sampling_rate: 90_000,
            pending: HashMap::new(),
            completed: Vec::new(),
            last_completed_ts: None,
            completed_ts: VecDeque::new(),
        }
    }

    fn on_packet(
        &mut self,
        at: u64,
        rtp_timestamp: u32,
        sequence: u16,
        marker: bool,
        payload_len: usize,
        pkts_in_frame: Option<u8>,
    ) {
        if self.completed_ts.contains(&rtp_timestamp) {
            return;
        }
        let p = self.pending.entry(rtp_timestamp).or_insert(MapPending {
            first_at: at,
            seqs: Vec::new(),
            bytes: 0,
            expected: pkts_in_frame,
            marker_seen: false,
        });
        if p.seqs.contains(&sequence) {
            return;
        }
        p.seqs.push(sequence);
        p.bytes += payload_len;
        p.marker_seen |= marker;
        if p.expected.is_none() {
            p.expected = pkts_in_frame;
        }
        let complete = match self.completion {
            Completion::PacketCount => p
                .expected
                .is_some_and(|n| p.seqs.len() >= usize::from(n.max(1))),
            Completion::MarkerBit => p.marker_seen,
        };
        if complete {
            let p = self.pending.remove(&rtp_timestamp).unwrap();
            let encoder_interval_nanos = self.last_completed_ts.and_then(|prev| {
                let delta = rtp_timestamp.wrapping_sub(prev);
                if delta == 0 || delta > self.sampling_rate * 30 {
                    None
                } else {
                    Some(u64::from(delta) * 1_000_000_000 / u64::from(self.sampling_rate))
                }
            });
            self.last_completed_ts = Some(rtp_timestamp);
            self.completed.push(FrameRecord {
                first_packet_at: p.first_at,
                completed_at: at,
                rtp_timestamp,
                size_bytes: p.bytes,
                packets: p.seqs.len() as u32,
                encoder_interval_nanos,
            });
            self.completed_ts.push_back(rtp_timestamp);
            if self.completed_ts.len() > 128 {
                self.completed_ts.pop_front();
            }
        }
        if self.pending.len() > 64 {
            self.pending
                .retain(|_, p| at.saturating_sub(p.first_at) < 5_000_000_000);
        }
    }
}

fn flow(i: u8) -> FiveTuple {
    FiveTuple {
        src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, i)),
        dst_ip: IpAddr::V4(Ipv4Addr::new(170, 114, 0, 1)),
        src_port: 50_000 + u16::from(i),
        dst_port: 8801,
        protocol: Protocol::Udp,
    }
}

fn media_packet(at: u64, flow_no: u8, ssrc: u32, pt: u8, seq: u16) -> PacketMeta {
    PacketMeta {
        ts_nanos: at,
        five_tuple: flow(flow_no),
        ip_len: 1_000 + usize::from(flow_no),
        family: FamilyId::Zoom,
        framing: Framing::Server,
        media_type: MediaType::Audio,
        direction: Direction::ToServer,
        rtp: Some(RtpMeta {
            ssrc,
            payload_type: pt,
            sequence: seq,
            timestamp: u32::from(seq) * 960,
            marker: false,
            kind: RtpPayloadKind::classify(MediaType::Audio, pt),
        }),
        rtcp: None,
        frame_seq: None,
        pkts_in_frame: None,
        media_payload_len: 160,
    }
}

/// The keyed tables the flow-table/slab tracker replaced, reduced to
/// what is observable: a flow map, a stream map of (first seen, last
/// seen, packets), and the creation-order key vector.
#[derive(Default)]
struct KeyedTracker {
    flows: HashMap<FiveTuple, FlowStats>,
    streams: HashMap<StreamKey, (u64, u64, u64)>,
    order: Vec<StreamKey>,
}

impl KeyedTracker {
    fn on_packet(&mut self, m: &PacketMeta) -> (StreamKey, bool) {
        let f = self.flows.entry(m.five_tuple).or_insert(FlowStats {
            first_seen: m.ts_nanos,
            ..Default::default()
        });
        f.packets += 1;
        f.bytes += m.ip_len as u64;
        f.last_seen = m.ts_nanos;
        let key = StreamKey {
            flow: m.five_tuple,
            ssrc: m.rtp.unwrap().ssrc,
        };
        let created = !self.streams.contains_key(&key);
        let s = self
            .streams
            .entry(key)
            .or_insert((m.ts_nanos, m.ts_nanos, 0));
        s.1 = m.ts_nanos;
        s.2 += 1;
        if created {
            self.order.push(key);
        }
        (key, created)
    }

    fn evict_idle(&mut self, cutoff: u64) -> (Vec<StreamKey>, Vec<(FiveTuple, FlowStats)>) {
        let mut evicted = Vec::new();
        let streams = &mut self.streams;
        self.order.retain(|k| {
            let idle = streams[k].1 < cutoff;
            if idle {
                streams.remove(k);
                evicted.push(*k);
            }
            !idle
        });
        let mut flows = Vec::new();
        self.flows.retain(|ft, fs| {
            let idle = fs.last_seen < cutoff;
            if idle {
                flows.push((*ft, *fs));
            }
            !idle
        });
        (evicted, flows)
    }
}

/// What grouping step 1 may ask about any stream key ever seen, kept by a
/// tracker that never evicts: per payload type the packet count and the
/// last RTP sequence number and timestamp, and the key's last-seen time.
#[derive(Default)]
struct CandidateReference {
    keys: HashMap<StreamKey, KeyHistory>,
}

/// One key's sub-streams by payload type — `(packets, last sequence,
/// last RTP timestamp)` — and its last-seen time.
#[derive(Default)]
struct KeyHistory {
    subs: HashMap<u8, (u64, u16, u32)>,
    last_seen: u64,
}

impl CandidateReference {
    fn on_packet(&mut self, m: &PacketMeta) {
        let rtp = m.rtp.unwrap();
        let key = StreamKey {
            flow: m.five_tuple,
            ssrc: rtp.ssrc,
        };
        let history = self.keys.entry(key).or_default();
        history.last_seen = m.ts_nanos;
        let sub = history.subs.entry(rtp.payload_type).or_default();
        *sub = (sub.0 + 1, rtp.sequence, rtp.timestamp);
    }

    /// `(last RTP timestamp, last sequence, last seen)` of the dominant
    /// sub-stream: most packets, ties to the higher payload type.
    fn candidate(&self, key: &StreamKey) -> Option<(u32, u16, u64)> {
        let history = self.keys.get(key)?;
        history
            .subs
            .iter()
            .max_by_key(|(&pt, &(packets, _, _))| (packets, pt))
            .map(|(_, &(_, seq, ts))| (ts, seq, history.last_seen))
    }
}

proptest! {
    /// Sequence-tracker conservation: unique + duplicates == received, and
    /// unique ≤ received, for ANY input sequence.
    #[test]
    fn seq_tracker_conservation(seqs in proptest::collection::vec(any::<u16>(), 1..2_000)) {
        let mut t = SeqTracker::new();
        for &s in &seqs {
            t.on_sequence(s);
        }
        let st = t.finish();
        prop_assert_eq!(st.received, seqs.len() as u64);
        prop_assert_eq!(st.unique + st.duplicates, st.received);
        prop_assert!(st.reordered <= st.unique);
        prop_assert!(st.loss_fraction() >= 0.0 && st.loss_fraction() <= 1.0);
    }

    /// An in-order run with arbitrary start has no loss, dupes, reorders.
    #[test]
    fn seq_tracker_clean_run(start: u16, len in 1usize..5_000) {
        let mut t = SeqTracker::new();
        for i in 0..len {
            t.on_sequence(start.wrapping_add(i as u16));
        }
        let st = t.finish();
        prop_assert_eq!(st.unique, len as u64);
        prop_assert_eq!(st.duplicates, 0);
        prop_assert_eq!(st.missing, 0);
        prop_assert_eq!(st.reordered, 0);
    }

    /// Jitter is always non-negative and zero for perfectly paced input.
    #[test]
    fn jitter_nonnegative(
        deltas in proptest::collection::vec(0u64..200_000_000, 2..500),
        ticks in 1u32..10_000,
    ) {
        let mut j = JitterEstimator::video();
        let mut t = 0u64;
        let mut ts = 0u32;
        for d in deltas {
            j.on_frame(t, ts);
            t += d;
            ts = ts.wrapping_add(ticks);
        }
        prop_assert!(j.jitter_nanos() >= 0.0);
    }

    /// Perfectly paced: jitter stays ~0 regardless of rate.
    #[test]
    fn jitter_zero_when_paced(fps in 1u64..120, n in 10usize..300) {
        let mut j = JitterEstimator::video();
        let interval = 1_000_000_000 / fps;
        let ticks = (90_000 / fps) as u32;
        for i in 0..n as u64 {
            j.on_frame(i * interval, (i as u32).wrapping_mul(ticks));
        }
        // Rounding of ticks introduces sub-ms residue at odd rates.
        prop_assert!(j.jitter_ms() < 1.0, "jitter {}", j.jitter_ms());
    }

    /// Frame tracker: every completed frame has the announced packet
    /// count, and duplicates never inflate sizes.
    #[test]
    fn frame_tracker_counts(
        frames in proptest::collection::vec((1u8..8, 1usize..1_200), 1..50),
    ) {
        let mut t = FrameTracker::video();
        let mut seq = 0u16;
        let mut at = 0u64;
        let mut completed = Vec::new();
        for (i, &(pkts, payload)) in frames.iter().enumerate() {
            let ts = (i as u32 + 1) * 3_000;
            for k in 0..pkts {
                seq = seq.wrapping_add(1);
                at += 1_000_000;
                completed.extend(t.on_packet(at, ts, seq, k + 1 == pkts, payload, Some(pkts)));
                // Duplicate delivery of the same packet:
                completed.extend(t.on_packet(at + 1, ts, seq, k + 1 == pkts, payload, Some(pkts)));
            }
        }
        prop_assert_eq!(completed.len(), frames.len());
        for (f, &(pkts, payload)) in completed.iter().zip(&frames) {
            prop_assert_eq!(f.packets, u32::from(pkts));
            prop_assert_eq!(f.size_bytes, payload * pkts as usize);
        }
    }

    /// CDF invariants: monotone, ends at 1, quantiles ordered.
    #[test]
    fn samples_cdf_invariants(values in proptest::collection::vec(-1e9f64..1e9, 1..500)) {
        let mut s = Samples::new();
        for &v in &values {
            s.push(v);
        }
        let pts = s.cdf_points(50);
        prop_assert!(!pts.is_empty());
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 < w[1].1);
        }
        prop_assert_eq!(pts.last().unwrap().1, 1.0);
        let q10 = s.quantile(0.1);
        let q50 = s.quantile(0.5);
        let q90 = s.quantile(0.9);
        prop_assert!(q10 <= q50 && q50 <= q90);
        prop_assert!(s.cdf_at(q90) >= 0.5);
    }

    /// The time-ordered rate rows hold exactly what three per-second
    /// hash maps of `f64` sums held, for timestamps in any order: runs
    /// within a second, duplicates, and steps backwards by whole seconds.
    #[test]
    fn rate_rows_match_hash_map_model(
        packets in proptest::collection::vec(
            (0u64..40, 0u64..1_000_000_000, 0u64..1_600, 0u64..1_500, 0u8..4),
            0..400,
        ),
    ) {
        let mut rows = RateRows::new();
        let mut ip: HashMap<u64, f64> = HashMap::new();
        let mut pkts: HashMap<u64, f64> = HashMap::new();
        let mut media: HashMap<u64, f64> = HashMap::new();
        let mut base = 0;
        for &(second, nanos, ip_len, media_len, repeat) in &packets {
            // Mostly forward-moving time with stragglers: `second` jumps
            // anywhere in 0..40 one time in four, else stays near `base`.
            let second = if repeat == 0 { second } else { base + second % 2 };
            base = second;
            let t = second * 1_000_000_000 + nanos;
            for _ in 0..=repeat {
                rows.add(t, ip_len, media_len);
                *ip.entry(second).or_insert(0.0) += ip_len as f64;
                *pkts.entry(second).or_insert(0.0) += 1.0;
                *media.entry(second).or_insert(0.0) += media_len as f64;
            }
        }
        prop_assert_eq!(rows.len(), ip.len());
        prop_assert!(rows.rows().windows(2).all(|w| w[0].second < w[1].second));
        for r in rows.rows() {
            prop_assert_eq!(r.ip_bytes as f64, ip[&r.second]);
            prop_assert_eq!(r.packets as f64, pkts[&r.second]);
            prop_assert_eq!(r.media_bytes as f64, media[&r.second]);
        }
    }

    /// The vector-backed frame tracker completes exactly the frames the
    /// map-backed one did — through retransmitted duplicates, frames
    /// re-opened after `completed_ts` (128 entries) has rolled past them,
    /// the purge once more than 64 frames are pending, and capture times
    /// that step backwards.
    #[test]
    fn frame_tracker_matches_map_backed_reference(
        marker_mode: bool,
        packets in proptest::collection::vec(
            (0u32..220, 0u16..5, 0u64..400, any::<bool>(), 1u8..4, 0u8..8),
            1..1_500,
        ),
    ) {
        let completion = if marker_mode { Completion::MarkerBit } else { Completion::PacketCount };
        let mut fast = FrameTracker::new(completion, 90_000);
        let mut completed = Vec::new();
        let mut reference = MapFrameTracker::new(completion);
        for (i, &(frame, seq, jitter_ms, marker, expected, lag)) in packets.iter().enumerate() {
            // Frames drift forward with the packet index; `lag` reaches
            // back to frames that completed (or were purged) long ago.
            let frame = (i as u32 / 6 + frame).saturating_sub(u32::from(lag) * 30);
            let ts = frame.wrapping_mul(3_000);
            let at = i as u64 * 40 * MS + jitter_ms * MS;
            let expected = (expected < 3).then_some(expected);
            let marker = marker && seq >= 2;
            completed.extend(fast.on_packet(at, ts, seq, marker, 700, expected));
            reference.on_packet(at, ts, seq, marker, 700, expected);
            prop_assert_eq!(fast.incomplete(), reference.pending.len(), "after packet {}", i);
        }
        prop_assert_eq!(completed, reference.completed);
    }

    /// The flow-table/slab stream tracker agrees with the keyed maps it
    /// replaced through interleaved packets and evictions: same created
    /// flags, same creation-order `iter()`, same per-stream and per-flow
    /// counters, same evicted sets — including streams that re-appear
    /// after eviction (fresh streams, at the end of the order) and, with
    /// capture times stepping backwards, a flow evicted while one of its
    /// streams lives on. And the grouping candidate of every key ever
    /// seen — live, evicted (read off its tombstone) or returned (its
    /// tombstone folded into the new stream) — is what a tracker that
    /// never evicted would answer, dominant payload type included.
    #[test]
    fn stream_tracker_matches_keyed_maps(
        ops in proptest::collection::vec(
            (0u8..10, 1u8..6, 0u32..4, 0u64..3_000, 0u64..8_000),
            1..400,
        ),
    ) {
        let mut slab = StreamTracker::new();
        let mut keyed = KeyedTracker::default();
        let mut never_evicts = CandidateReference::default();
        let mut now = 0u64;
        for (i, &(kind, flow_no, ssrc, step_ms, back_ms)) in ops.iter().enumerate() {
            now += step_ms * MS;
            if kind == 0 {
                let cutoff = now.saturating_sub(back_ms * MS);
                let (streams, mut flows) = slab.evict_idle(cutoff);
                let (want_streams, mut want_flows) = keyed.evict_idle(cutoff);
                let got: Vec<StreamKey> = streams.iter().map(|s| s.key).collect();
                prop_assert_eq!(got, want_streams, "evicted streams at op {}", i);
                flows.sort_by_key(|(ft, _)| *ft);
                want_flows.sort_by_key(|(ft, _)| *ft);
                prop_assert_eq!(flows, want_flows, "evicted flows at op {}", i);
            } else {
                // One packet in five carries a timestamp from the past.
                let at = if kind == 1 { now.saturating_sub(back_ms * MS) } else { now };
                let pt = [112, 99, 113][usize::from(kind) % 3];
                let m = media_packet(at, flow_no, ssrc, pt, i as u16);
                prop_assert_eq!(slab.on_packet(&m), Some(keyed.on_packet(&m)), "op {}", i);
                never_evicts.on_packet(&m);
            }
            for key in never_evicts.keys.keys() {
                let got = slab.candidate(key).map(|c| (c.last_rtp_ts, c.last_seq, c.last_seen));
                prop_assert_eq!(got, never_evicts.candidate(key), "candidate after op {}", i);
            }
            let evicted_now = never_evicts.keys.len() - keyed.streams.len();
            prop_assert_eq!(slab.evicted_keys(), evicted_now, "tombstones after op {}", i);
            let order: Vec<StreamKey> = slab.iter().map(|s| s.key).collect();
            prop_assert_eq!(&order, &keyed.order, "creation order after op {}", i);
            prop_assert_eq!(slab.len(), keyed.streams.len());
            for s in slab.iter() {
                prop_assert_eq!((s.first_seen, s.last_seen, s.packets), keyed.streams[&s.key]);
                prop_assert_eq!(slab.get(&s.key).map(|found| found.key), Some(s.key));
            }
            prop_assert_eq!(slab.flow_count(), keyed.flows.len(), "flows after op {}", i);
            for (ft, stats) in slab.flows() {
                prop_assert_eq!(Some(stats), keyed.flows.get(ft));
                prop_assert_eq!(slab.flow(ft), Some(stats));
            }
        }
    }

    /// The entropy classifier never panics and yields a signature with all
    /// fields in range for arbitrary series.
    #[test]
    fn entropy_signature_in_range(
        values in proptest::collection::vec(any::<u8>(), 0..1_000),
        width in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let packets: Vec<(u64, Vec<u8>)> = values
            .chunks(8)
            .enumerate()
            .map(|(i, c)| (i as u64, c.to_vec()))
            .collect();
        let series: FieldSeries = extract_series(
            packets.iter().map(|(t, p)| (*t, p.as_slice())),
            0,
            width,
        );
        let sig = series.signature();
        prop_assert!((0.0..=1.0).contains(&sig.normalized_entropy));
        prop_assert!((0.0..=1.0).contains(&sig.distinct_ratio));
        prop_assert!((0.0..=1.0).contains(&sig.monotonic_fraction));
        prop_assert!((0.0..=1.0).contains(&sig.small_step_fraction));
        prop_assert!((0.0..=1.0).contains(&sig.top_value_fraction) || series.values.is_empty());
        let _ = series.classify();
    }
}

//! RTP stream and sub-stream tracking (Fig. 6's aggregation levels).
//!
//! A *media stream* is identified by IP 5-tuple + SSRC; inside it,
//! *sub-streams* are told apart by RTP payload type (main vs FEC — same
//! timestamps, separate sequence spaces, §4.2.3). On top of each video or
//! screen-share stream sit frames, reconstructed by
//! [`crate::metrics::frame::FrameTracker`]; every stream also accumulates
//! per-second media bit rates and the frame-level jitter estimate.

use crate::fxhash::FxHashMap;
use crate::meeting::CandidateState;
use crate::metrics::frame::{Completion, FrameTracker};
use crate::metrics::jitter::JitterEstimator;
use crate::metrics::loss::{SeqStats, SeqTracker};
use crate::metrics::VIDEO_SAMPLING_RATE;
use crate::packet::{Direction, PacketMeta, RtpMeta};
use crate::pipeline::FlowStats;
use crate::position_hinted;
use crate::stats::RateRows;
use std::collections::VecDeque;
use zoom_wire::family::FamilyId;
use zoom_wire::flow::FiveTuple;
use zoom_wire::zoom::{MediaType, RtpPayloadKind};

/// Identity of one directional media stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamKey {
    /// The directional 5-tuple carrying the stream.
    pub flow: FiveTuple,
    /// RTP synchronization source.
    pub ssrc: u32,
}

/// One RTP sub-stream (payload type) within a stream.
#[derive(Debug)]
pub struct SubStream {
    /// RTP payload type.
    pub payload_type: u8,
    /// Sub-stream classification (media, FEC, probe, …).
    pub kind: RtpPayloadKind,
    /// Packets observed.
    pub packets: u64,
    /// RTP payload bytes observed.
    pub media_bytes: u64,
    /// First RTP sequence number seen.
    pub first_seq: u16,
    /// Most recent RTP sequence number.
    pub last_seq: u16,
    /// First RTP timestamp seen.
    pub first_rtp_ts: u32,
    /// Most recent RTP timestamp.
    pub last_rtp_ts: u32,
    seq: SeqTracker,
}

impl SubStream {
    /// Sequence statistics so far.
    pub fn seq_stats(&self) -> SeqStats {
        self.seq.stats()
    }
}

/// One tracked media stream.
pub struct Stream {
    /// The stream's identity: (flow, SSRC).
    pub key: StreamKey,
    /// Protocol family the stream was classified under.
    pub family: FamilyId,
    /// Media type (ZME encapsulation type, or the WebRTC payload-type
    /// mapping).
    pub media_type: MediaType,
    /// Inferred direction.
    pub direction: Direction,
    /// Timestamp of the first packet, nanoseconds.
    pub first_seen: u64,
    /// Timestamp of the most recent packet, nanoseconds.
    pub last_seen: u64,
    /// Identifier shared by all copies of the same media (assigned by the
    /// grouping heuristic's step 1).
    pub unique_id: Option<u32>,
    /// Sub-streams, one per RTP payload type, in first-seen order (a
    /// stream carries two or three: main, FEC, perhaps a probe).
    pub substreams: Vec<SubStream>,
    /// Index into `substreams` of the one the previous packet hit.
    last_sub: usize,
    /// Frame reconstruction (video and screen share only).
    pub frames: Option<FrameTracker>,
    /// Frame-level jitter over the main sub-stream.
    pub frame_jitter: JitterEstimator,
    /// Per-second IP bytes, packets and media payload bytes.
    pub rates: RateRows,
    /// Recently fed RTP timestamps: the jitter estimator gets exactly one
    /// observation per frame (its first sighting), and a retransmitted
    /// duplicate of an already-seen frame must not re-trigger it. Genuine
    /// reorderings (a frame first seen late) still feed it — that lateness
    /// IS jitter, per RFC 3550. Kept for video and screen share only, the
    /// media the estimator is fed for.
    fed_jitter_ts: VecDeque<u32>,
    /// Total packets.
    pub packets: u64,
    /// The stream key's creation rank within its tracker: counts up from
    /// 0, and a stream that is evicted and reappears gets the rank it had
    /// (through its [`Tombstone`]). The end-of-trace report lists evicted
    /// fragments and live streams in this order.
    pub(crate) serial: u32,
    /// Meeting id as the grouping heuristic first assigned it; reports
    /// resolve it through [`MeetingGrouper::canonical`], which follows
    /// later merges.
    ///
    /// [`MeetingGrouper::canonical`]: crate::meeting::MeetingGrouper::canonical
    pub(crate) meeting: Option<u32>,
    /// The counters as of the last window close (all zero for a stream
    /// no window has seen); the next close reports the difference.
    pub(crate) window_snap: StreamSnap,
    /// What this key's earlier, evicted incarnations left behind.
    past: Option<Box<Tombstone>>,
}

/// A stream's monotonic counters at one instant; the difference of two
/// snapshots is one window's activity. Every field only grows (including
/// `missing`, which grows as holes retire from the sequence tracker's
/// window), so differences never go negative.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct StreamSnap {
    pub(crate) packets: u64,
    pub(crate) media_bytes: u64,
    pub(crate) frames: u64,
    pub(crate) jitter_len: usize,
    pub(crate) missing: u64,
    pub(crate) duplicates: u64,
}

impl StreamSnap {
    pub(crate) fn of(s: &Stream) -> StreamSnap {
        let (missing, duplicates) = s.seq_totals();
        StreamSnap {
            packets: s.packets,
            media_bytes: s.media_bytes(),
            frames: s.frames.as_ref().map(|f| f.frames().len()).unwrap_or(0) as u64,
            jitter_len: s.frame_jitter.samples().len(),
            missing,
            duplicates,
        }
    }
}

/// What an evicted stream leaves in its tracker: enough for the grouping
/// heuristic's step 1 to still match copies against it (a key stays a
/// candidate for `max_idle_nanos`, far longer than the idle timeout that
/// evicted it), and for the stream to be the stream it was if it returns.
/// Consumed by the key's next packet.
#[derive(Debug, Clone)]
struct Tombstone {
    /// The key's creation rank ([`Stream::serial`]).
    serial: u32,
    /// Per payload type, summed over every incarnation so far.
    subs: InlineList<SubMark, 3>,
    last_seen: u64,
}

/// [`Tombstone`]'s record of one sub-stream.
#[derive(Debug, Clone, Copy, Default)]
struct SubMark {
    payload_type: u8,
    packets: u64,
    last_seq: u16,
    last_rtp_ts: u32,
}

impl Tombstone {
    /// Fold a (later) incarnation's sub-streams in.
    fn absorb(&mut self, s: &Stream) {
        self.last_seen = s.last_seen;
        for sub in &s.substreams {
            let pt = sub.payload_type;
            let known = self.subs.iter_mut().find(|m| m.payload_type == pt);
            let mark = match known {
                Some(mark) => mark,
                None => self.subs.push(SubMark {
                    payload_type: pt,
                    ..SubMark::default()
                }),
            };
            mark.packets += sub.packets;
            mark.last_seq = sub.last_seq;
            mark.last_rtp_ts = sub.last_rtp_ts;
        }
    }

    /// The dominant recorded sub-stream (most packets, ties to the higher
    /// payload type), as grouping step 1 reads it.
    fn candidate(&self) -> Option<CandidateState> {
        self.subs
            .iter()
            .max_by_key(|m| (m.packets, m.payload_type))
            .map(|m| CandidateState {
                last_rtp_ts: m.last_rtp_ts,
                last_seq: m.last_seq,
                last_seen: self.last_seen,
            })
    }
}

impl Stream {
    fn new(
        key: StreamKey,
        serial: u32,
        family: FamilyId,
        media_type: MediaType,
        direction: Direction,
        now: u64,
    ) -> Stream {
        let frames = match (family, media_type) {
            // Zoom video carries a packets-in-frame field (Table 1);
            // WebRTC video has no such field, so frames complete on the
            // RTP marker bit like screen share does.
            (FamilyId::Zoom, MediaType::Video) => Some(FrameTracker::video()),
            (_, MediaType::Video) => Some(FrameTracker::new(
                Completion::MarkerBit,
                VIDEO_SAMPLING_RATE,
            )),
            (_, MediaType::ScreenShare) => Some(FrameTracker::screen_share()),
            _ => None,
        };
        Stream {
            key,
            family,
            media_type,
            direction,
            first_seen: now,
            last_seen: now,
            unique_id: None,
            substreams: Vec::new(),
            last_sub: 0,
            frames,
            frame_jitter: JitterEstimator::video(),
            rates: RateRows::new(),
            fed_jitter_ts: VecDeque::new(),
            packets: 0,
            serial,
            meeting: None,
            window_snap: StreamSnap::default(),
            past: None,
        }
    }

    fn on_packet(&mut self, m: &PacketMeta, rtp: &RtpMeta) {
        self.last_seen = m.ts_nanos;
        self.packets += 1;
        self.rates
            .add(m.ts_nanos, m.ip_len as u64, m.media_payload_len as u64);

        let sub = self.substream_mut(rtp);
        sub.packets += 1;
        sub.media_bytes += m.media_payload_len as u64;
        sub.last_seq = rtp.sequence;
        sub.last_rtp_ts = rtp.timestamp;
        sub.seq.on_sequence(rtp.sequence);

        // Frames and jitter: main sub-stream only (FEC shares timestamps
        // but is not part of the frame).
        if !rtp.kind.is_fec() {
            if let Some(frames) = &mut self.frames {
                frames.on_packet(
                    m.ts_nanos,
                    rtp.timestamp,
                    rtp.sequence,
                    rtp.marker,
                    m.media_payload_len,
                    m.pkts_in_frame,
                );
            }
            // Feed the jitter estimator once per frame, on the frame's
            // first sighting. Duplicates (Zoom retransmissions reuse the
            // timestamp) must not re-trigger; first-seen-late frames do.
            // A frame's packets arrive back to back, so all but its first
            // match the newest entry and skip the scan.
            if (self.media_type == MediaType::Video || self.media_type == MediaType::ScreenShare)
                && self.fed_jitter_ts.back() != Some(&rtp.timestamp)
                && !self.fed_jitter_ts.contains(&rtp.timestamp)
            {
                self.fed_jitter_ts.push_back(rtp.timestamp);
                if self.fed_jitter_ts.len() > 64 {
                    self.fed_jitter_ts.pop_front();
                }
                self.frame_jitter.on_frame(m.ts_nanos, rtp.timestamp);
            }
        }
    }

    /// The sub-stream of this packet's payload type, created on first
    /// sight.
    fn substream_mut(&mut self, rtp: &RtpMeta) -> &mut SubStream {
        let pt = rtp.payload_type;
        let hit = position_hinted(&self.substreams, self.last_sub, |s| s.payload_type == pt)
            .unwrap_or_else(|| {
                self.substreams.push(SubStream {
                    payload_type: pt,
                    kind: rtp.kind,
                    packets: 0,
                    media_bytes: 0,
                    first_seq: rtp.sequence,
                    last_seq: rtp.sequence,
                    first_rtp_ts: rtp.timestamp,
                    last_rtp_ts: rtp.timestamp,
                    seq: SeqTracker::new(),
                });
                self.substreams.len() - 1
            });
        self.last_sub = hit;
        &mut self.substreams[hit]
    }

    /// The sub-stream carrying `payload_type`, if one was seen.
    pub fn substream(&self, payload_type: u8) -> Option<&SubStream> {
        self.substreams
            .iter()
            .find(|s| s.payload_type == payload_type)
    }

    /// The dominant sub-stream: most packets, ties broken by payload type.
    ///
    /// The explicit tie-break makes the choice a function of the counters
    /// alone, whatever order the sub-streams were first seen in.
    fn dominant_substream(&self) -> Option<&SubStream> {
        self.substreams
            .iter()
            .max_by_key(|s| (s.packets, s.payload_type))
    }

    /// Most recent RTP timestamp across sub-streams (grouping step 1 uses
    /// this to match stream copies).
    pub fn last_rtp_timestamp(&self) -> Option<u32> {
        self.dominant_substream().map(|s| s.last_rtp_ts)
    }

    /// Snapshot of the state grouping step 1 compares candidates on,
    /// read from the dominant sub-stream — dominant over every
    /// incarnation of the key, for a stream that returned after an
    /// eviction. `None` until the first RTP packet.
    pub fn candidate_state(&self) -> Option<CandidateState> {
        self.history().candidate()
    }

    /// The key's sub-stream history over every incarnation, this one
    /// included: what the stream leaves behind if it is evicted now.
    fn history(&self) -> Tombstone {
        let mut all = match &self.past {
            Some(past) => (**past).clone(),
            None => Tombstone {
                serial: self.serial,
                subs: InlineList::default(),
                last_seen: 0,
            },
        };
        all.absorb(self);
        all
    }

    /// `(missing, duplicates)` summed over the sub-streams' sequence
    /// trackers.
    pub(crate) fn seq_totals(&self) -> (u64, u64) {
        self.substreams.iter().fold((0, 0), |(m, d), sub| {
            let st = sub.seq_stats();
            (m + st.missing, d + st.duplicates)
        })
    }

    /// Media payload bytes across all sub-streams.
    pub fn media_bytes(&self) -> u64 {
        self.substreams.iter().map(|s| s.media_bytes).sum()
    }

    /// Duration from first to last packet.
    pub fn duration_nanos(&self) -> u64 {
        self.last_seen.saturating_sub(self.first_seen)
    }

    /// Mean media bit rate over the stream's lifetime, bits/s.
    pub fn mean_media_bitrate(&self) -> f64 {
        let d = self.duration_nanos();
        if d == 0 {
            return 0.0;
        }
        self.media_bytes() as f64 * 8.0 / (d as f64 / 1e9)
    }
}

/// A short list whose first `N` entries sit inline in its owner and the
/// rest in a spill vector that stays unallocated while unused — for the
/// per-flow and per-stream lists that hold two or three entries nearly
/// always, where a hash map or a heap vector per owner would cost more
/// than the scan.
#[derive(Debug, Clone)]
struct InlineList<T, const N: usize> {
    inline: [T; N],
    inline_len: u8,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        InlineList {
            inline: [T::default(); N],
            inline_len: 0,
            spill: Vec::new(),
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .chain(&self.spill)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline[..usize::from(self.inline_len)]
            .iter_mut()
            .chain(&mut self.spill)
    }

    /// Append `item`; returns it in place.
    fn push(&mut self, item: T) -> &mut T {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(free) => {
                *free = item;
                self.inline_len += 1;
                free
            }
            None => {
                self.spill.push(item);
                self.spill.last_mut().expect("just pushed")
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.inline_len == 0
    }
}

/// How many of a flow's streams are listed inside its table slot; a
/// client's own flow carries two or three, and only a busy server→client
/// flow (one stream per remote participant and medium) spills.
const INLINE_STREAMS: usize = 4;

/// A flow's `(SSRC, stream index)` pairs.
type StreamRefs = InlineList<(u32, u32), INLINE_STREAMS>;

impl StreamRefs {
    fn get(&self, ssrc: u32) -> Option<usize> {
        self.iter()
            .find(|(s, _)| *s == ssrc)
            .map(|&(_, stream)| stream as usize)
    }

    /// Re-point every pair through `remap` (old stream index → new one,
    /// [`GONE`] for a stream that left the slab), dropping the gone ones.
    fn remap(&mut self, remap: &[u32]) {
        let old = std::mem::take(self);
        for &(ssrc, stream) in old.iter() {
            let new = remap[stream as usize];
            if new != GONE {
                self.push((ssrc, new));
            }
        }
    }
}

/// [`StreamRefs::remap`]'s marker for an evicted stream.
const GONE: u32 = u32::MAX;

/// One flow's slot in the table: its accounting and its streams.
#[derive(Debug)]
struct FlowSlot {
    key: FiveTuple,
    stats: FlowStats,
    /// Whether `stats` describes a live flow. False for a slot that only
    /// anchors streams, after the flow's accounting was evicted while a
    /// stream of it stayed live (possible when capture timestamps step
    /// backwards).
    counted: bool,
    streams: StreamRefs,
}

/// Handle to a flow's slot, valid until the next eviction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowId(usize);

/// An analyzer's state tables: every flow and every media stream of a
/// trace.
///
/// A packet's 5-tuple is resolved **once**, to a slot of the flow slab
/// (skipping even that probe when it is the flow the previous packet
/// was on); the slot holds the flow's accounting and lists its streams
/// by SSRC, so everything after the probe is an index: slot → stream
/// index → [`Stream`] in a creation-ordered slab.
#[derive(Default)]
pub struct StreamTracker {
    /// 5-tuple → index into `flows`.
    index: FxHashMap<FiveTuple, u32>,
    flows: Vec<FlowSlot>,
    /// Slots with `counted` set.
    live_flows: usize,
    /// Index of the slot touched last (checked by key before use, so a
    /// stale value costs a probe, never a wrong answer).
    last_flow: usize,
    /// Streams in creation order (stable reporting).
    streams: Vec<Stream>,
    /// The [`Stream::serial`] the next never-seen stream key gets.
    next_serial: u32,
    /// One entry per key whose stream is currently evicted.
    tombstones: FxHashMap<StreamKey, Tombstone>,
}

impl StreamTracker {
    /// Empty tracker.
    pub fn new() -> StreamTracker {
        StreamTracker::default()
    }

    /// The slot of `ft`, created (uncounted) when new. One table probe,
    /// none when `ft` is the flow resolved last.
    #[inline]
    fn slot_of(&mut self, ft: &FiveTuple) -> usize {
        if self.flows.get(self.last_flow).is_some_and(|s| s.key == *ft) {
            return self.last_flow;
        }
        let next = self.flows.len();
        let slot = *self.index.entry(*ft).or_insert(next as u32) as usize;
        if slot == next {
            self.flows.push(FlowSlot {
                key: *ft,
                stats: FlowStats::default(),
                counted: false,
                streams: StreamRefs::default(),
            });
        }
        self.last_flow = slot;
        slot
    }

    /// Count one classified packet of `ip_len` IP bytes on flow `ft` and
    /// return the flow's handle for [`StreamTracker::on_flow_packet`].
    #[inline]
    pub(crate) fn touch_flow(&mut self, ft: &FiveTuple, ts: u64, ip_len: usize) -> FlowId {
        let slot = self.slot_of(ft);
        let f = &mut self.flows[slot];
        if !f.counted {
            f.counted = true;
            f.stats = FlowStats {
                first_seen: ts,
                ..Default::default()
            };
            self.live_flows += 1;
        }
        f.stats.packets += 1;
        f.stats.bytes += ip_len as u64;
        f.stats.last_seen = ts;
        FlowId(slot)
    }

    /// Feed one RTP media packet on the flow `flow` names (the handle
    /// [`StreamTracker::touch_flow`] returned for this packet). Returns
    /// the stream (for [`StreamTracker::at_mut`], valid until the next
    /// eviction) and whether the packet created it (the grouping
    /// heuristic hooks on creation).
    #[inline]
    pub(crate) fn on_flow_packet(
        &mut self,
        flow: FlowId,
        m: &PacketMeta,
        rtp: &RtpMeta,
    ) -> (usize, bool) {
        let slot = &mut self.flows[flow.0];
        debug_assert_eq!(slot.key, m.five_tuple);
        let (at, created) = match slot.streams.get(rtp.ssrc) {
            Some(at) => (at, false),
            None => {
                let key = StreamKey {
                    flow: m.five_tuple,
                    ssrc: rtp.ssrc,
                };
                slot.streams.push((rtp.ssrc, self.streams.len() as u32));
                // Only a tracker that has evicted pays the keyed probe.
                let past = if self.tombstones.is_empty() {
                    None
                } else {
                    self.tombstones.remove(&key).map(Box::new)
                };
                let serial = match &past {
                    Some(past) => past.serial,
                    None => {
                        // Wrapping, not checked: the grouper keeps an
                        // entry per stream key ever seen, so memory runs
                        // out long before 2^32 keys do.
                        let serial = self.next_serial;
                        self.next_serial = serial.wrapping_add(1);
                        serial
                    }
                };
                let mut stream =
                    Stream::new(key, serial, m.family, m.media_type, m.direction, m.ts_nanos);
                stream.past = past;
                self.streams.push(stream);
                (self.streams.len() - 1, true)
            }
        };
        self.streams[at].on_packet(m, rtp);
        (at, created)
    }

    /// The stream [`StreamTracker::on_flow_packet`] just resolved.
    pub(crate) fn at_mut(&mut self, at: usize) -> &mut Stream {
        &mut self.streams[at]
    }

    /// Feed one media packet: count it on its flow and track its stream.
    /// Returns the key and whether the packet created a new stream;
    /// `None` (and nothing counted) for a packet without RTP.
    pub fn on_packet(&mut self, m: &PacketMeta) -> Option<(StreamKey, bool)> {
        let rtp = m.rtp.as_ref()?;
        let flow = self.touch_flow(&m.five_tuple, m.ts_nanos, m.ip_len);
        let (_, created) = self.on_flow_packet(flow, m, rtp);
        let key = StreamKey {
            flow: m.five_tuple,
            ssrc: rtp.ssrc,
        };
        Some((key, created))
    }

    /// Number of tracked streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams were seen.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    fn position(&self, key: &StreamKey) -> Option<usize> {
        let slot = *self.index.get(&key.flow)? as usize;
        self.flows[slot].streams.get(key.ssrc)
    }

    /// Access one stream.
    pub fn get(&self, key: &StreamKey) -> Option<&Stream> {
        self.position(key).map(|at| &self.streams[at])
    }

    /// Mutable access (grouping sets `unique_id`).
    pub fn get_mut(&mut self, key: &StreamKey) -> Option<&mut Stream> {
        self.position(key).map(|at| &mut self.streams[at])
    }

    /// Iterate streams in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &Stream> + '_ {
        self.streams.iter()
    }

    /// Iterate streams in creation order, mutably (the window clock
    /// updates each stream's snapshot).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Stream> + '_ {
        self.streams.iter_mut()
    }

    /// What grouping step 1 compares a new stream against for `key`:
    /// the live stream's state, else what an evicted one left behind.
    pub fn candidate(&self, key: &StreamKey) -> Option<CandidateState> {
        match self.get(key) {
            Some(s) => s.candidate_state(),
            None => self.tombstones.get(key)?.candidate(),
        }
    }

    /// Number of stream keys whose stream is currently evicted.
    pub fn evicted_keys(&self) -> usize {
        self.tombstones.len()
    }

    /// Iterate streams of one media type.
    pub fn of_type(&self, t: MediaType) -> impl Iterator<Item = &Stream> + '_ {
        self.iter().filter(move |s| s.media_type == t)
    }

    /// Number of flows with live accounting.
    pub fn flow_count(&self) -> usize {
        self.live_flows
    }

    /// One flow's accounting.
    pub fn flow(&self, ft: &FiveTuple) -> Option<&FlowStats> {
        let slot = &self.flows[*self.index.get(ft)? as usize];
        slot.counted.then_some(&slot.stats)
    }

    /// Every flow's accounting, in no particular order.
    pub fn flows(&self) -> impl Iterator<Item = (&FiveTuple, &FlowStats)> + '_ {
        self.flows
            .iter()
            .filter(|s| s.counted)
            .map(|s| (&s.key, &s.stats))
    }

    /// Remove and return every stream and every flow idle since before
    /// `cutoff` (`last_seen < cutoff`), preserving creation order among
    /// both the evicted streams and the survivors. The streaming engine's
    /// bounded-memory tick. A flow that reappears later is tracked as a
    /// fresh one; so is a stream (fresh counters, at the end of the
    /// order), except that it takes its key's tombstone with it: its
    /// creation rank and, for [`StreamTracker::candidate`], the
    /// sub-stream state of its earlier incarnations.
    pub fn evict_idle(&mut self, cutoff: u64) -> (Vec<Stream>, Vec<(FiveTuple, FlowStats)>) {
        let mut evicted_streams = Vec::new();
        if self.streams.iter().any(|s| s.last_seen < cutoff) {
            // Old stream index → new one.
            let mut remap = Vec::with_capacity(self.streams.len());
            let mut kept = 0;
            evicted_streams.extend(self.streams.extract_if(.., |s| {
                let idle = s.last_seen < cutoff;
                remap.push(if idle { GONE } else { kept });
                kept += u32::from(!idle);
                idle
            }));
            for slot in &mut self.flows {
                slot.streams.remap(&remap);
            }
            for s in &evicted_streams {
                self.tombstones.insert(s.key, s.history());
            }
        }

        let mut evicted_flows = Vec::new();
        let mut at = 0;
        while let Some(slot) = self.flows.get_mut(at) {
            if slot.counted && slot.stats.last_seen < cutoff {
                slot.counted = false;
                self.live_flows -= 1;
                evicted_flows.push((slot.key, slot.stats));
            }
            if slot.counted || !slot.streams.is_empty() {
                at += 1;
                continue;
            }
            // Nothing left to anchor: free the slot, moving the last one
            // into its place.
            let gone = self.flows.swap_remove(at);
            self.index.remove(&gone.key);
            if let Some(moved) = self.flows.get(at) {
                self.index.insert(moved.key, at as u32);
            }
        }
        (evicted_streams, evicted_flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RtpMeta;
    use std::net::{IpAddr, Ipv4Addr};
    use zoom_wire::ipv4::Protocol;
    use zoom_wire::zoom::Framing;

    const MS: u64 = 1_000_000;

    fn meta(at: u64, ssrc: u32, pt: u8, seq: u16, ts: u32, marker: bool) -> PacketMeta {
        PacketMeta {
            ts_nanos: at,
            five_tuple: FiveTuple {
                src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1)),
                dst_ip: IpAddr::V4(Ipv4Addr::new(170, 114, 0, 1)),
                src_port: 50_000,
                dst_port: 8801,
                protocol: Protocol::Udp,
            },
            ip_len: 1_000,
            family: zoom_wire::family::FamilyId::Zoom,
            framing: Framing::Server,
            media_type: MediaType::Video,
            direction: Direction::ToServer,
            rtp: Some(RtpMeta {
                ssrc,
                payload_type: pt,
                sequence: seq,
                timestamp: ts,
                marker,
                kind: RtpPayloadKind::classify(MediaType::Video, pt),
            }),
            rtcp: None,
            frame_seq: Some(1),
            pkts_in_frame: Some(1),
            media_payload_len: 900,
        }
    }

    #[test]
    fn streams_keyed_by_flow_and_ssrc() {
        let mut t = StreamTracker::new();
        let (k1, created1) = t.on_packet(&meta(0, 0x21, 98, 1, 100, true)).unwrap();
        let (_, created2) = t.on_packet(&meta(MS, 0x21, 98, 2, 200, true)).unwrap();
        let (k3, created3) = t.on_packet(&meta(MS, 0x22, 98, 1, 100, true)).unwrap();
        assert!(created1);
        assert!(!created2);
        assert!(created3);
        assert_ne!(k1, k3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k1).unwrap().packets, 2);
    }

    #[test]
    fn fec_forms_separate_substream() {
        let mut t = StreamTracker::new();
        let (k, _) = t.on_packet(&meta(0, 0x21, 98, 1, 100, true)).unwrap();
        t.on_packet(&meta(MS, 0x21, 110, 1, 100, false)).unwrap();
        let s = t.get(&k).unwrap();
        assert_eq!(s.substreams.len(), 2);
        assert!(s.substream(110).unwrap().kind.is_fec());
        // FEC packets don't create frames; the single main packet does.
        assert_eq!(s.frames.as_ref().unwrap().frames().len(), 1);
    }

    #[test]
    fn media_rate_accumulates() {
        let mut t = StreamTracker::new();
        let (k, _) = t.on_packet(&meta(0, 0x21, 98, 1, 100, true)).unwrap();
        t.on_packet(&meta(100 * MS, 0x21, 98, 2, 200, true))
            .unwrap();
        t.on_packet(&meta(1_500 * MS, 0x21, 98, 3, 300, true))
            .unwrap();
        let s = t.get(&k).unwrap();
        assert_eq!(s.media_bytes(), 2_700);
        assert_eq!(s.rates.len(), 2); // two seconds touched
        assert!(s.mean_media_bitrate() > 0.0);
        assert_eq!(s.duration_nanos(), 1_500 * MS);
    }

    #[test]
    fn jitter_fed_once_per_timestamp() {
        let mut t = StreamTracker::new();
        // Two packets of the same frame, then the next frame.
        let (k, _) = t.on_packet(&meta(0, 0x21, 98, 1, 100, false)).unwrap();
        t.on_packet(&meta(MS / 4, 0x21, 98, 2, 100, true)).unwrap();
        t.on_packet(&meta(33 * MS, 0x21, 98, 3, 3_100, true))
            .unwrap();
        let s = t.get(&k).unwrap();
        // Only two jitter observations (one per distinct timestamp).
        assert!(s.frame_jitter.samples().len() <= 2);
        assert_eq!(s.last_rtp_timestamp(), Some(3_100));
    }

    #[test]
    fn of_type_filters() {
        let mut t = StreamTracker::new();
        t.on_packet(&meta(0, 0x21, 98, 1, 100, true)).unwrap();
        assert_eq!(t.of_type(MediaType::Video).count(), 1);
        assert_eq!(t.of_type(MediaType::Audio).count(), 0);
    }
}

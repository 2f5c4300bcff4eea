//! Frame reconstruction: frame rate (two methods), frame size, and frame
//! delay (§5.2, §5.5 of the paper).
//!
//! **Method 1** counts *delivered* frames: a video frame is complete when
//! N distinct RTP sequence numbers share one RTP timestamp, where N comes
//! from the packets-in-frame field of the Zoom media encapsulation; the
//! current frame rate is the number of completions within the trailing
//! second. Screen-share packets have no packets-in-frame field, so their
//! frames complete on the RTP marker bit instead.
//!
//! **Method 2** recovers the *encoder's* intended frame rate from RTP
//! timestamp increments at the stream's sampling rate (90 kHz for video):
//! `FR = SR / ΔRTP`. Under congestion the two diverge — delivered frames
//! lag the encoder — which is precisely the signal that distinguishes a
//! network problem from a user-behaviour change.

use super::VIDEO_SAMPLING_RATE;
use crate::stats::row_of;
use crate::{position_hinted, RecentTimestamps};

/// One fully delivered frame, as [`FrameTracker::on_packet`] returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Arrival time of the first packet of the frame.
    pub first_packet_at: u64,
    /// Arrival time of the packet that completed the frame.
    pub completed_at: u64,
    /// Media payload bytes across the frame's packets.
    pub size_bytes: usize,
    /// Method 2: the encoder's frame interval derived from the RTP
    /// timestamp increment since the previous completed frame, in
    /// nanoseconds (`None` for the first frame or after a wrap anomaly).
    pub encoder_interval_nanos: Option<u64>,
}

impl FrameRecord {
    /// Frame delay (§5.5): first packet to completion. Values far above
    /// the path RTT + ~100 ms indicate retransmission.
    ///
    /// Capture clocks can step backwards (pcap timestamps are input); a
    /// frame completed "before" its first packet has a delay of zero, not
    /// a wrapped one that every threshold downstream would exceed.
    pub fn frame_delay_nanos(&self) -> u64 {
        self.completed_at.saturating_sub(self.first_packet_at)
    }

    /// Method 2 encoder frame rate, frames/second.
    pub fn encoder_fps(&self) -> Option<f64> {
        self.encoder_interval_nanos
            .filter(|&i| i > 0)
            .map(|i| 1e9 / i as f64)
    }
}

/// How frames are recognized as complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Count distinct sequence numbers up to the packets-in-frame field
    /// (video — Table 1 gives us the field).
    PacketCount,
    /// Complete on the marker-bit packet (screen share).
    MarkerBit,
}

/// Method 2: the encoder's frame interval implied by the RTP timestamp
/// step from the previous completed frame, in nanoseconds. Rejects a zero
/// step and wraps/reorders that imply absurd intervals.
fn encoder_interval_nanos(
    prev: Option<u32>,
    rtp_timestamp: u32,
    sampling_rate: u32,
) -> Option<u64> {
    let delta = rtp_timestamp.wrapping_sub(prev?);
    if delta == 0 || delta > sampling_rate * 30 {
        None
    } else {
        Some(u64::from(delta) * 1_000_000_000 / u64::from(sampling_rate))
    }
}

/// A frame still collecting packets.
#[derive(Debug)]
struct Pending {
    rtp_timestamp: u32,
    first_at: u64,
    seqs: SeqSet,
    bytes: usize,
    expected: Option<u8>,
    marker_seen: bool,
}

/// The distinct sequence numbers of one frame's packets. A frame's
/// packets are numbered one after another, so a bitmap around the first
/// number seen holds them where they fall; a number out of its reach
/// (reordering by more than [`SEQ_BEHIND`], or a frame of some 190
/// packets) goes to a list on the heap.
#[derive(Debug)]
struct SeqSet {
    /// The number bit 0 of `bits` stands for.
    base: u16,
    bits: [u64; 4],
    len: u32,
    far: Vec<u16>,
}

/// How far before a frame's first sequence number its bitmap reaches.
const SEQ_BEHIND: u16 = 64;

impl SeqSet {
    fn new(first: u16) -> SeqSet {
        SeqSet {
            base: first.wrapping_sub(SEQ_BEHIND),
            bits: [0; 4],
            len: 0,
            far: Vec::new(),
        }
    }

    /// Add `seq`; false when it was there already.
    #[inline]
    fn insert(&mut self, seq: u16) -> bool {
        let at = usize::from(seq.wrapping_sub(self.base));
        if let Some(word) = self.bits.get_mut(at / 64) {
            let bit = 1 << (at % 64);
            if *word & bit != 0 {
                return false;
            }
            *word |= bit;
        } else if self.far.contains(&seq) {
            return false;
        } else {
            self.far.push(seq);
        }
        self.len += 1;
        true
    }
}

/// Per-stream frame tracker.
#[derive(Debug)]
pub struct FrameTracker {
    completion: Completion,
    sampling_rate: u32,
    /// Frames still collecting packets, in no particular order. A
    /// handful at most in steady state (bounded by the purge below), so a
    /// scan beats a hash — and consecutive packets nearly always belong
    /// to the frame hit last.
    pending: Vec<Pending>,
    /// Index into `pending` of the frame the previous packet joined.
    last_hit: usize,
    /// RTP timestamp of the frame completed last: Method 2's reference.
    last_completed_ts: Option<u32>,
    /// Timestamps of recently completed frames: a retransmitted duplicate
    /// arriving after completion must not re-open (and re-count) the
    /// frame.
    completed_ts: RecentTimestamps<128>,
    /// No pending frame opened before this: while it is less than the
    /// purge age ago, the purge below has nothing to drop.
    opened_since: u64,
}

/// Pending frames beyond which the tracker purges stale ones.
const MAX_PENDING: usize = 64;

/// How long a frame may stay pending once more than [`MAX_PENDING`] are.
const PURGE_AGE_NANOS: u64 = 5_000_000_000;

impl FrameTracker {
    /// Tracker for video streams (90 kHz, packet-count completion).
    pub fn video() -> FrameTracker {
        FrameTracker::new(Completion::PacketCount, VIDEO_SAMPLING_RATE)
    }

    /// Tracker for screen-share streams (marker-bit completion; the
    /// paper uses 90 kHz here too but flags the uncertainty).
    pub fn screen_share() -> FrameTracker {
        FrameTracker::new(Completion::MarkerBit, VIDEO_SAMPLING_RATE)
    }

    /// Custom tracker.
    pub fn new(completion: Completion, sampling_rate: u32) -> FrameTracker {
        FrameTracker {
            completion,
            sampling_rate,
            pending: Vec::new(),
            last_hit: 0,
            last_completed_ts: None,
            completed_ts: RecentTimestamps::new(),
            opened_since: u64::MAX,
        }
    }

    /// Feed one main-substream media packet (callers must filter out FEC:
    /// it shares timestamps but is not part of the frame). Returns the
    /// frame this packet completed, if it completed one; the tracker keeps
    /// nothing of it but its RTP timestamp.
    pub fn on_packet(
        &mut self,
        at: u64,
        rtp_timestamp: u32,
        sequence: u16,
        marker: bool,
        payload_len: usize,
        pkts_in_frame: Option<u8>,
    ) -> Option<FrameRecord> {
        // A frame is pending or recently completed, never both (it leaves
        // `pending` on completion and cannot re-open while `completed_ts`
        // remembers it), so the common case — another packet of an open
        // frame — is settled without scanning `completed_ts` at all.
        let slot = position_hinted(&self.pending, self.last_hit, |p| {
            p.rtp_timestamp == rtp_timestamp
        });
        let slot = match slot {
            Some(i) => i,
            None => {
                if self.completed_ts.contains(rtp_timestamp) {
                    return None; // late duplicate of an already-completed frame
                }
                self.opened_since = self.opened_since.min(at);
                self.pending.push(Pending {
                    rtp_timestamp,
                    first_at: at,
                    seqs: SeqSet::new(sequence),
                    bytes: 0,
                    expected: pkts_in_frame,
                    marker_seen: false,
                });
                self.pending.len() - 1
            }
        };
        self.last_hit = slot;
        let pending = &mut self.pending[slot];
        if !pending.seqs.insert(sequence) {
            return None; // retransmission duplicate
        }
        pending.bytes += payload_len;
        pending.marker_seen |= marker;
        if pending.expected.is_none() {
            pending.expected = pkts_in_frame;
        }
        let complete = match self.completion {
            Completion::PacketCount => pending
                .expected
                .is_some_and(|n| pending.seqs.len >= u32::from(n.max(1))),
            Completion::MarkerBit => pending.marker_seen,
        };
        let completed = complete.then(|| {
            let p = self.pending.swap_remove(slot);
            let frame = FrameRecord {
                first_packet_at: p.first_at,
                completed_at: at,
                size_bytes: p.bytes,
                encoder_interval_nanos: encoder_interval_nanos(
                    self.last_completed_ts,
                    rtp_timestamp,
                    self.sampling_rate,
                ),
            };
            self.last_completed_ts = Some(rtp_timestamp);
            self.completed_ts.push(rtp_timestamp);
            frame
        });
        // Bound pending state: discard frames that have not completed
        // within 5 seconds (packets lost beyond recovery).
        if self.pending.len() > MAX_PENDING
            && at.saturating_sub(self.opened_since) >= PURGE_AGE_NANOS
        {
            self.pending
                .retain(|p| at.saturating_sub(p.first_at) < PURGE_AGE_NANOS);
            self.opened_since = self
                .pending
                .iter()
                .map(|p| p.first_at)
                .min()
                .unwrap_or(u64::MAX);
        }
        completed
    }

    /// Frames that never completed (lost packets).
    pub fn incomplete(&self) -> usize {
        self.pending.len()
    }
}

/// One second of a stream's completed frames (by completion time): what
/// the per-second readers need of them — delivered fps, mean frame size
/// and encoder fps, and the worst frame delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRow {
    /// Whole seconds since time zero.
    pub second: u64,
    /// Frames completed (Method 1's delivered frame rate).
    pub frames: u32,
    /// Their sizes summed, bytes.
    pub size_bytes: u64,
    /// Method 2's encoder frame rates summed, over the frames that have
    /// one, in completion order.
    pub encoder_fps_sum: f64,
    /// How many frames have an encoder frame rate.
    pub encoder_fps_frames: u32,
    /// The longest frame delay, nanoseconds.
    pub max_frame_delay_nanos: u64,
}

impl FrameRow {
    /// Mean frame size, bytes (0 for a row without frames).
    pub fn mean_frame_size(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.size_bytes as f64 / f64::from(self.frames)
        }
    }

    /// Mean encoder frame rate, if any frame had one.
    pub fn encoder_fps(&self) -> Option<f64> {
        (self.encoder_fps_frames > 0)
            .then(|| self.encoder_fps_sum / f64::from(self.encoder_fps_frames))
    }
}

/// Per-second frame rows of one stream, in time order; only seconds in
/// which a frame completed have a row (like [`crate::stats::RateRows`]).
#[derive(Debug, Clone, Default)]
pub struct FrameRows {
    rows: Vec<FrameRow>,
}

impl FrameRows {
    /// Fold one completed frame into its second's row.
    pub fn add(&mut self, f: &FrameRecord) {
        let second = f.completed_at / 1_000_000_000;
        let row = row_of(
            &mut self.rows,
            second,
            |r| r.second,
            |second| FrameRow {
                second,
                frames: 0,
                size_bytes: 0,
                encoder_fps_sum: 0.0,
                encoder_fps_frames: 0,
                max_frame_delay_nanos: 0,
            },
        );
        row.frames += 1;
        row.size_bytes += f.size_bytes as u64;
        if let Some(fps) = f.encoder_fps() {
            row.encoder_fps_sum += fps;
            row.encoder_fps_frames += 1;
        }
        row.max_frame_delay_nanos = row.max_frame_delay_nanos.max(f.frame_delay_nanos());
    }

    /// The rows, in time order.
    pub fn rows(&self) -> &[FrameRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Drive the bitmap tracker and the vector tracker it replaced
    /// through one random packet sequence each run — packets of a frame
    /// in order, reordered, duplicated or lost; sequence numbers
    /// wrapping and jumping past the bitmap's reach; frames of up to 255
    /// packets; timestamps reused after their frames completed; capture
    /// time stepping back; runs that leave far more than 64 frames
    /// pending — comparing every frame returned and the pending count
    /// after each packet.
    #[test]
    fn bitmap_tracker_completes_what_the_vector_tracker_completed() {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut completed = 0;
        for run in 0..300u64 {
            let completion = if run % 3 == 2 {
                Completion::MarkerBit
            } else {
                Completion::PacketCount
            };
            let mut new = FrameTracker::new(completion, VIDEO_SAMPLING_RATE);
            let mut old = vec_tracker::VecTracker::new(completion, VIDEO_SAMPLING_RATE);
            // Lossy runs abandon most frames, piling up pending ones.
            let loss = if run % 5 == 0 { 60 } else { draw(8) };
            let (mut at, mut seq, mut ts) =
                (draw(1 << 40), draw(65_536) as u16, draw(1 << 32) as u32);
            let mut sent: Vec<u32> = Vec::new();
            for _ in 0..400 {
                // A frame of 1..=N packets, N sometimes past the bitmap.
                let n = if draw(20) == 0 {
                    1 + draw(255)
                } else {
                    1 + draw(8)
                } as u16;
                ts = match draw(30) {
                    // A timestamp seen before: a late duplicate frame.
                    0 if !sent.is_empty() => sent[draw(sent.len() as u64) as usize],
                    1 => ts.wrapping_sub(draw(9_000) as u32),
                    _ => ts.wrapping_add(3_000),
                };
                sent.push(ts);
                let mut packets: Vec<u16> = (0..n).map(|k| seq.wrapping_add(k)).collect();
                seq = seq.wrapping_add(n);
                if draw(10) == 0 {
                    seq = seq.wrapping_add(draw(40_000) as u16);
                }
                // Reorder, duplicate, lose.
                for _ in 0..draw(3) {
                    let (a, b) = (draw(n.into()) as usize, draw(n.into()) as usize);
                    packets.swap(a, b);
                }
                if draw(4) == 0 {
                    let dup = packets[draw(n.into()) as usize];
                    packets.insert(draw(u64::from(n) + 1) as usize, dup);
                }
                if draw(6) == 0 {
                    // A stray far from the frame's own numbers.
                    packets.push(seq.wrapping_add(300 + draw(60_000) as u16));
                }
                let claimed = match draw(12) {
                    0 => None,
                    1 => Some(0),
                    _ => Some(n.min(255) as u8),
                };
                for (k, &s) in packets.iter().enumerate() {
                    if draw(100) < loss {
                        continue;
                    }
                    at = match draw(50) {
                        0 => at.saturating_sub(draw(2_000) * MS),
                        1 => at + draw(8_000) * MS,
                        _ => at + draw(3 * MS),
                    };
                    let marker = k + 1 == packets.len() || draw(40) == 0;
                    let pif = if draw(15) == 0 {
                        Some(draw(256) as u8)
                    } else {
                        claimed
                    };
                    let len = draw(1_400) as usize;
                    let want = old.on_packet(at, ts, s, marker, len, pif);
                    let got = new.on_packet(at, ts, s, marker, len, pif);
                    assert_eq!(got, want, "run {run}");
                    assert_eq!(new.incomplete(), old.incomplete(), "run {run}");
                    completed += u64::from(got.is_some());
                }
            }
        }
        assert!(completed > 10_000, "{completed} frames completed");
    }

    /// The tracker the bitmap one replaced, kept as its oracle: each
    /// pending frame's sequence numbers in a heap vector, a completed
    /// frame taken out with `Vec::remove`, emptied vectors recycled
    /// through a spare pool, a purge pass on every packet while more
    /// than 64 frames are pending.
    mod vec_tracker {
        use super::super::*;

        #[derive(Debug)]
        struct Pending {
            rtp_timestamp: u32,
            first_at: u64,
            seqs: Vec<u16>,
            bytes: usize,
            expected: Option<u8>,
            marker_seen: bool,
        }

        /// Per-stream frame tracker.
        #[derive(Debug)]
        pub(super) struct VecTracker {
            completion: Completion,
            sampling_rate: u32,
            /// Frames still collecting packets, oldest first. A handful at most
            /// in steady state (bounded by the purge below), so a scan beats a
            /// hash — and consecutive packets nearly always belong to the frame
            /// hit last.
            pending: Vec<Pending>,
            /// Index into `pending` of the frame the previous packet joined.
            last_hit: usize,
            /// RTP timestamp of the frame completed last: Method 2's reference.
            last_completed_ts: Option<u32>,
            /// Timestamps of recently completed frames: a retransmitted duplicate
            /// arriving after completion must not re-open (and re-count) the
            /// frame.
            completed_ts: RecentTimestamps<128>,
            /// Emptied `seqs` vectors recovered from completed (or purged) frames
            /// and handed to the next frame opened, so steady-state frame
            /// reconstruction never allocates per frame.
            spare_seqs: Vec<Vec<u16>>,
        }

        /// Spare `seqs` vectors kept for reuse; more in-flight frames than this
        /// fall back to fresh allocations.
        const SPARE_SEQS: usize = 8;

        impl VecTracker {
            pub(super) fn new(completion: Completion, sampling_rate: u32) -> VecTracker {
                VecTracker {
                    completion,
                    sampling_rate,
                    pending: Vec::new(),
                    last_hit: 0,
                    last_completed_ts: None,
                    completed_ts: RecentTimestamps::new(),
                    spare_seqs: Vec::new(),
                }
            }

            /// Feed one main-substream media packet (callers must filter out FEC:
            /// it shares timestamps but is not part of the frame). Returns the
            /// frame this packet completed, if it completed one; the tracker keeps
            /// nothing of it but its RTP timestamp.
            pub(super) fn on_packet(
                &mut self,
                at: u64,
                rtp_timestamp: u32,
                sequence: u16,
                marker: bool,
                payload_len: usize,
                pkts_in_frame: Option<u8>,
            ) -> Option<FrameRecord> {
                // A frame is pending or recently completed, never both (it leaves
                // `pending` on completion and cannot re-open while `completed_ts`
                // remembers it), so the common case — another packet of an open
                // frame — is settled without scanning `completed_ts` at all.
                let slot = position_hinted(&self.pending, self.last_hit, |p| {
                    p.rtp_timestamp == rtp_timestamp
                });
                let slot = match slot {
                    Some(i) => i,
                    None => {
                        if self.completed_ts.contains(rtp_timestamp) {
                            return None; // late duplicate of an already-completed frame
                        }
                        self.pending.push(Pending {
                            rtp_timestamp,
                            first_at: at,
                            seqs: self.spare_seqs.pop().unwrap_or_default(),
                            bytes: 0,
                            expected: pkts_in_frame,
                            marker_seen: false,
                        });
                        self.pending.len() - 1
                    }
                };
                self.last_hit = slot;
                let pending = &mut self.pending[slot];
                if pending.seqs.contains(&sequence) {
                    return None; // retransmission duplicate
                }
                pending.seqs.push(sequence);
                pending.bytes += payload_len;
                pending.marker_seen |= marker;
                if pending.expected.is_none() {
                    pending.expected = pkts_in_frame;
                }
                let complete = match self.completion {
                    Completion::PacketCount => pending
                        .expected
                        .map(|n| pending.seqs.len() >= usize::from(n.max(1)))
                        .unwrap_or(false),
                    Completion::MarkerBit => pending.marker_seen,
                };
                let completed = complete.then(|| {
                    let mut p = self.pending.remove(slot);
                    let frame = FrameRecord {
                        first_packet_at: p.first_at,
                        completed_at: at,
                        size_bytes: p.bytes,
                        encoder_interval_nanos: encoder_interval_nanos(
                            self.last_completed_ts,
                            rtp_timestamp,
                            self.sampling_rate,
                        ),
                    };
                    self.last_completed_ts = Some(rtp_timestamp);
                    self.completed_ts.push(rtp_timestamp);
                    if self.spare_seqs.len() < SPARE_SEQS {
                        p.seqs.clear();
                        self.spare_seqs.push(std::mem::take(&mut p.seqs));
                    }
                    frame
                });
                // Bound pending state: discard frames that have not completed
                // within 5 seconds (packets lost beyond recovery).
                if self.pending.len() > 64 {
                    let spare = &mut self.spare_seqs;
                    self.pending.retain_mut(|p| {
                        let keep = at.saturating_sub(p.first_at) < 5_000_000_000;
                        if !keep && spare.len() < SPARE_SEQS {
                            p.seqs.clear();
                            spare.push(std::mem::take(&mut p.seqs));
                        }
                        keep
                    });
                }
                completed
            }

            /// Frames that never completed (lost packets).
            pub(super) fn incomplete(&self) -> usize {
                self.pending.len()
            }
        }
    }

    /// Feed a 3-packet frame at the given base time/timestamp; returns
    /// what the last packet completed.
    fn feed_frame(t: &mut FrameTracker, at: u64, ts: u32, seq0: u16) -> Option<FrameRecord> {
        assert_eq!(t.on_packet(at, ts, seq0, false, 1_000, Some(3)), None);
        assert_eq!(
            t.on_packet(at + MS / 4, ts, seq0 + 1, false, 1_000, Some(3)),
            None
        );
        t.on_packet(at + MS / 2, ts, seq0 + 2, true, 500, Some(3))
    }

    #[test]
    fn completes_on_packet_count() {
        let mut t = FrameTracker::video();
        let f = feed_frame(&mut t, 1_000 * MS, 90_000, 1).expect("completed");
        assert_eq!(f.size_bytes, 2_500);
        assert_eq!(f.frame_delay_nanos(), MS / 2);
        assert_eq!(f.encoder_interval_nanos, None); // first frame
    }

    #[test]
    fn backwards_clock_step_gives_zero_frame_delay() {
        // The completing packet carries an earlier capture timestamp than
        // the frame's first (a pcap clock stepping back): the delay
        // saturates at zero instead of panicking (test profile) or
        // wrapping to ~1.8e19 ns (release).
        let mut t = FrameTracker::video();
        assert_eq!(t.on_packet(10 * MS, 100, 1, false, 500, Some(2)), None);
        let f = t
            .on_packet(9 * MS, 100, 2, true, 500, Some(2))
            .expect("completed");
        assert!(f.completed_at < f.first_packet_at);
        assert_eq!(f.frame_delay_nanos(), 0);
    }

    #[test]
    fn late_duplicate_after_completion_is_ignored_then_reopens() {
        let mut t = FrameTracker::video();
        assert!(feed_frame(&mut t, 0, 500, 1).is_some());
        // Duplicate of the completed frame: ignored while remembered.
        assert_eq!(t.on_packet(MS, 500, 1, false, 1_000, Some(3)), None);
        assert_eq!(t.incomplete(), 0);
        // 128 further completions push it out of `completed_ts`; the
        // same timestamp then opens a fresh frame.
        for i in 0..128u32 {
            let f = feed_frame(
                &mut t,
                u64::from(i + 1) * 33 * MS,
                10_000 + i * 3_000,
                (i * 3) as u16 + 10,
            );
            assert!(f.is_some());
        }
        assert_eq!(t.on_packet(5_000 * MS, 500, 1, false, 1_000, Some(3)), None);
        assert_eq!(t.incomplete(), 1);
    }

    #[test]
    fn method2_interval_from_rtp_delta() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 1_000 * MS, 90_000, 1);
        // Δ = 3000 ticks = 1/30 s.
        let f = feed_frame(&mut t, 1_033 * MS, 90_000 + 3_000, 10).expect("completed");
        assert_eq!(f.encoder_interval_nanos, Some(33_333_333));
        assert!((f.encoder_fps().unwrap() - 30.0).abs() < 0.01);
    }

    #[test]
    fn duplicates_do_not_complete_frames_early() {
        let mut t = FrameTracker::video();
        t.on_packet(0, 100, 1, false, 500, Some(3));
        t.on_packet(MS, 100, 1, false, 500, Some(3)); // retransmission
        assert_eq!(t.on_packet(2 * MS, 100, 2, false, 500, Some(3)), None);
        let f = t.on_packet(3 * MS, 100, 3, true, 500, Some(3));
        assert_eq!(f.map(|f| f.size_bytes), Some(1_500));
    }

    #[test]
    fn marker_bit_completion_for_screen_share() {
        let mut t = FrameTracker::screen_share();
        assert_eq!(t.on_packet(0, 200, 1, false, 1_000, None), None);
        assert_eq!(t.on_packet(MS, 200, 2, false, 1_000, None), None);
        let f = t.on_packet(2 * MS, 200, 3, true, 300, None);
        assert_eq!(f.map(|f| f.size_bytes), Some(2_300));
    }

    #[test]
    fn fps_bins_count_per_second() {
        // Ten frames in the first second, two in the third, and a
        // straggler completing back in the first: one row per second
        // that completed a frame, in time order.
        let mut t = FrameTracker::video();
        let mut rows = FrameRows::default();
        let mut feed = |at: u64, ts: u32, seq: u16| {
            rows.add(&feed_frame(&mut t, at, ts, seq).expect("completed"));
        };
        for i in 0..10u64 {
            feed(i * 100 * MS, 1_000 + i as u32 * 9_000, (i * 10) as u16);
        }
        feed(2_100 * MS, 200_000, 200);
        feed(2_200 * MS, 209_000, 210);
        feed(900 * MS, 100, 300);
        let frames: Vec<(u64, u32)> = rows.rows().iter().map(|r| (r.second, r.frames)).collect();
        assert_eq!(frames, [(0, 11), (2, 2)]);
        let first = rows.rows()[0];
        assert_eq!(first.size_bytes, 11 * 2_500);
        assert_eq!(first.mean_frame_size(), 2_500.0);
        assert_eq!(first.max_frame_delay_nanos, MS / 2);
        // Nine frames of the first second are 9 000 ticks (10 fps) after
        // the one before; the straggler jumps back (no encoder rate).
        assert_eq!(first.encoder_fps_frames, 9);
        assert!((first.encoder_fps().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_frames_tracked_and_purged() {
        let mut t = FrameTracker::video();
        // 100 frames each missing one packet.
        for i in 0..100u32 {
            let f = t.on_packet(
                u64::from(i) * 40 * MS,
                i * 3_000,
                (i * 10) as u16,
                false,
                800,
                Some(2),
            );
            assert_eq!(f, None);
        }
        assert!(t.incomplete() > 0);
        // Much later, a new packet triggers the purge path.
        t.on_packet(60_000 * MS, 999_999, 9_999, false, 10, Some(2));
        assert!(t.incomplete() < 100);
    }

    #[test]
    fn timestamp_wrap_rejected_for_method2() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 0, u32::MAX - 100, 1);
        // Wrap of ~150 ticks is tiny and fine; a huge "backwards" wrap is
        // what gets rejected:
        let f = feed_frame(&mut t, 33 * MS, 50, 10).expect("completed");
        assert!(f.encoder_interval_nanos.is_some());
        let f = feed_frame(&mut t, 66 * MS, 40, 20).expect("completed"); // goes backwards → huge delta
        assert_eq!(f.encoder_interval_nanos, None);
    }

    #[test]
    fn frames_rederive_each_interval_from_the_previous_entry() {
        // The timestamps of the cases above, in one stream: a first
        // frame, a 1/30 s step, a huge forward jump, a 151-tick wrap
        // past u32::MAX, and a step backwards.
        let steps: [(u32, Option<u64>); 5] = [
            (90_000, None),
            (93_000, Some(33_333_333)),
            (u32::MAX - 100, None),
            (50, Some(151 * 1_000_000_000 / 90_000)),
            (40, None),
        ];
        let mut t = FrameTracker::video();
        for (i, &(ts, want)) in steps.iter().enumerate() {
            let f = feed_frame(&mut t, i as u64 * 33 * MS, ts, i as u16 * 10).expect("completed");
            assert_eq!(f.encoder_interval_nanos, want, "step {i}");
            assert_eq!(f.size_bytes, 2_500);
        }
        // A repeated timestamp cannot complete twice in a row through
        // `on_packet` (`completed_ts` drops it); the zero step it would
        // be has no interval.
        assert_eq!(encoder_interval_nanos(Some(40), 40, 90_000), None);
        assert_eq!(encoder_interval_nanos(None, 40, 90_000), None);
    }
}

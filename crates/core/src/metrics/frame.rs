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
use crate::position_hinted;
use std::collections::VecDeque;

/// One fully delivered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Arrival time of the first packet of the frame.
    pub first_packet_at: u64,
    /// Arrival time of the packet that completed the frame.
    pub completed_at: u64,
    /// The frame's RTP timestamp.
    pub rtp_timestamp: u32,
    /// Media payload bytes across the frame's packets.
    pub size_bytes: usize,
    /// Packets in the frame.
    pub packets: u32,
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
pub struct FrameTracker {
    completion: Completion,
    sampling_rate: u32,
    /// Frames still collecting packets, oldest first. A handful at most
    /// in steady state (bounded by the purge below), so a scan beats a
    /// hash — and consecutive packets nearly always belong to the frame
    /// hit last.
    pending: Vec<Pending>,
    /// Index into `pending` of the frame the previous packet joined.
    last_hit: usize,
    completed: Vec<FrameRecord>,
    /// Completion times within the trailing window (method 1's circular
    /// buffer).
    recent: VecDeque<u64>,
    last_completed_ts: Option<u32>,
    /// Timestamps of recently completed frames: a retransmitted duplicate
    /// arriving after completion must not re-open (and re-count) the
    /// frame.
    completed_ts: VecDeque<u32>,
    /// Emptied `seqs` vectors recovered from completed (or purged) frames
    /// and handed to the next frame opened, so steady-state frame
    /// reconstruction never allocates per frame.
    spare_seqs: Vec<Vec<u16>>,
}

/// Spare `seqs` vectors kept for reuse; more in-flight frames than this
/// fall back to fresh allocations.
const SPARE_SEQS: usize = 8;

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
            completed: Vec::new(),
            recent: VecDeque::new(),
            last_completed_ts: None,
            completed_ts: VecDeque::new(),
            spare_seqs: Vec::new(),
        }
    }

    /// Feed one main-substream media packet (callers must filter out FEC:
    /// it shares timestamps but is not part of the frame).
    pub fn on_packet(
        &mut self,
        at: u64,
        rtp_timestamp: u32,
        sequence: u16,
        marker: bool,
        payload_len: usize,
        pkts_in_frame: Option<u8>,
    ) {
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
                if self.completed_ts.contains(&rtp_timestamp) {
                    return; // late duplicate of an already-completed frame
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
            return; // retransmission duplicate
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
        if complete {
            let mut p = self.pending.remove(slot);
            let encoder_interval_nanos = self.last_completed_ts.and_then(|prev| {
                let delta = rtp_timestamp.wrapping_sub(prev);
                // Reject wraps/reorders that imply absurd intervals.
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
            self.recent.push_back(at);
            self.completed_ts.push_back(rtp_timestamp);
            if self.completed_ts.len() > 128 {
                self.completed_ts.pop_front();
            }
            if self.spare_seqs.len() < SPARE_SEQS {
                p.seqs.clear();
                self.spare_seqs.push(std::mem::take(&mut p.seqs));
            }
        }
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
    }

    /// Method 1's instantaneous frame rate: completed frames within the
    /// second before `now`.
    pub fn instantaneous_fps(&mut self, now: u64) -> usize {
        while let Some(&front) = self.recent.front() {
            if now.saturating_sub(front) > 1_000_000_000 {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        self.recent.len()
    }

    /// All completed frames, in completion order.
    pub fn frames(&self) -> &[FrameRecord] {
        &self.completed
    }

    /// Frames that never completed (lost packets).
    pub fn incomplete(&self) -> usize {
        self.pending.len()
    }

    /// Per-second delivered frame rate over `[0, end)`; index = second.
    pub fn fps_bins(&self, end: u64) -> Vec<u32> {
        let n = end.div_ceil(1_000_000_000) as usize;
        let mut bins = vec![0u32; n];
        for f in &self.completed {
            let idx = (f.completed_at / 1_000_000_000) as usize;
            if idx < n {
                bins[idx] += 1;
            }
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Feed a 3-packet frame at the given base time/timestamp.
    fn feed_frame(t: &mut FrameTracker, at: u64, ts: u32, seq0: u16) {
        t.on_packet(at, ts, seq0, false, 1_000, Some(3));
        t.on_packet(at + MS / 4, ts, seq0 + 1, false, 1_000, Some(3));
        t.on_packet(at + MS / 2, ts, seq0 + 2, true, 500, Some(3));
    }

    #[test]
    fn completes_on_packet_count() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 1_000 * MS, 90_000, 1);
        assert_eq!(t.frames().len(), 1);
        let f = &t.frames()[0];
        assert_eq!(f.size_bytes, 2_500);
        assert_eq!(f.packets, 3);
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
        t.on_packet(10 * MS, 100, 1, false, 500, Some(2));
        t.on_packet(9 * MS, 100, 2, true, 500, Some(2));
        assert_eq!(t.frames().len(), 1);
        let f = &t.frames()[0];
        assert!(f.completed_at < f.first_packet_at);
        assert_eq!(f.frame_delay_nanos(), 0);
    }

    #[test]
    fn late_duplicate_after_completion_is_ignored_then_reopens() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 0, 500, 1);
        // Duplicate of the completed frame: ignored while remembered.
        t.on_packet(MS, 500, 1, false, 1_000, Some(3));
        assert_eq!(t.frames().len(), 1);
        assert_eq!(t.incomplete(), 0);
        // 128 further completions push it out of `completed_ts`; the
        // same timestamp then opens a fresh frame.
        for i in 0..128u32 {
            feed_frame(
                &mut t,
                u64::from(i + 1) * 33 * MS,
                10_000 + i * 3_000,
                (i * 3) as u16 + 10,
            );
        }
        t.on_packet(5_000 * MS, 500, 1, false, 1_000, Some(3));
        assert_eq!(t.incomplete(), 1);
        assert_eq!(t.frames().len(), 129);
    }

    #[test]
    fn method2_interval_from_rtp_delta() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 1_000 * MS, 90_000, 1);
        feed_frame(&mut t, 1_033 * MS, 90_000 + 3_000, 10); // Δ=3000 ticks = 1/30 s
        let f = &t.frames()[1];
        assert_eq!(f.encoder_interval_nanos, Some(33_333_333));
        assert!((f.encoder_fps().unwrap() - 30.0).abs() < 0.01);
    }

    #[test]
    fn duplicates_do_not_complete_frames_early() {
        let mut t = FrameTracker::video();
        t.on_packet(0, 100, 1, false, 500, Some(3));
        t.on_packet(MS, 100, 1, false, 500, Some(3)); // retransmission
        t.on_packet(2 * MS, 100, 2, false, 500, Some(3));
        assert!(t.frames().is_empty());
        t.on_packet(3 * MS, 100, 3, true, 500, Some(3));
        assert_eq!(t.frames().len(), 1);
        assert_eq!(t.frames()[0].size_bytes, 1_500);
    }

    #[test]
    fn marker_bit_completion_for_screen_share() {
        let mut t = FrameTracker::screen_share();
        t.on_packet(0, 200, 1, false, 1_000, None);
        t.on_packet(MS, 200, 2, false, 1_000, None);
        assert!(t.frames().is_empty());
        t.on_packet(2 * MS, 200, 3, true, 300, None);
        assert_eq!(t.frames().len(), 1);
        assert_eq!(t.frames()[0].size_bytes, 2_300);
    }

    #[test]
    fn instantaneous_fps_window() {
        let mut t = FrameTracker::video();
        for i in 0..30u64 {
            feed_frame(
                &mut t,
                i * 33 * MS,
                90_000 + i as u32 * 3_000,
                (i * 10) as u16,
            );
        }
        // All 30 frames completed within ~1 s.
        let fps = t.instantaneous_fps(30 * 33 * MS);
        assert!((28..=30).contains(&fps), "fps {fps}");
        // Two seconds later the window is empty.
        assert_eq!(t.instantaneous_fps(3_000 * MS), 0);
    }

    #[test]
    fn fps_bins_count_per_second() {
        let mut t = FrameTracker::video();
        for i in 0..10u64 {
            feed_frame(
                &mut t,
                i * 100 * MS,
                1_000 + i as u32 * 9_000,
                (i * 10) as u16,
            );
        }
        let bins = t.fps_bins(2_000 * MS);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0], 10);
        assert_eq!(bins[1], 0);
    }

    #[test]
    fn incomplete_frames_tracked_and_purged() {
        let mut t = FrameTracker::video();
        // 100 frames each missing one packet.
        for i in 0..100u32 {
            t.on_packet(
                u64::from(i) * 40 * MS,
                i * 3_000,
                (i * 10) as u16,
                false,
                800,
                Some(2),
            );
        }
        assert!(t.frames().is_empty());
        assert!(t.incomplete() > 0);
        // Much later, a new packet triggers the purge path.
        t.on_packet(60_000 * MS, 999_999, 9_999, false, 10, Some(2));
        assert!(t.incomplete() < 100);
    }

    #[test]
    fn timestamp_wrap_rejected_for_method2() {
        let mut t = FrameTracker::video();
        feed_frame(&mut t, 0, u32::MAX - 100, 1);
        feed_frame(&mut t, 33 * MS, 50, 10); // wraps
                                             // Wrap of ~150 ticks is tiny and fine; a huge "backwards" wrap is
                                             // what gets rejected:
        let f = &t.frames()[1];
        assert!(f.encoder_interval_nanos.is_some());
        feed_frame(&mut t, 66 * MS, 40, 20); // goes backwards → huge delta
        assert_eq!(t.frames()[2].encoder_interval_nanos, None);
    }
}

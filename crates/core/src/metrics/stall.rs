//! Stall detection and retransmission inference from frame delay — the
//! §5.5/§8 extensions the paper sketches and leaves as future work.
//!
//! Two signals come out of the frame records:
//!
//! * **Retransmission-recovered frames.** "Observing a packet with
//!   suspiciously high delay (i.e., 100 ms + RTT) delivered out-of-order
//!   ... is a strong indicator that the respective packet was
//!   retransmitted" (§5.5): a frame whose delivery took longer than
//!   RTT + retransmission timeout almost certainly needed one.
//! * **Jitter-buffer drain / stalls.** "If the delay is larger than the
//!   packetization time over the course of several frames, the jitter
//!   buffer gets drained and the video will eventually stall" (§5.5). We
//!   model a receive-side jitter buffer of [`JITTER_BUFFER_NANOS`]: frame
//!   lateness (delivery interval minus media interval) accumulates as
//!   drain; when the buffer empties, a stall begins, and playable time
//!   must build back up before playback resumes.
//!
//! Both are computed online: a stream steps its [`StallTracker`] once per
//! frame as the frame completes, and no frame is kept.

use crate::metrics::frame::FrameRecord;

/// Retransmission-timeout constant observed by the paper (§5.5).
pub const ZOOM_RETRANSMIT_TIMEOUT_NANOS: u64 = 100_000_000;

/// The RTT the retransmission threshold assumes before the first RTT
/// sample has been taken.
pub const FALLBACK_RTT_NANOS: u64 = 50_000_000;

/// Receive jitter-buffer depth the analyzer models; Zoom-class apps hold
/// roughly 100–200 ms of media.
pub const JITTER_BUFFER_NANOS: u64 = 150_000_000;

/// Report of the frame-delay analysis of one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Frames whose delivery exceeded RTT + retransmission timeout — the
    /// §5.5 retransmission indicator.
    pub retransmission_recovered: usize,
    /// Total frames analyzed.
    pub frames: usize,
    /// Detected playback stalls.
    pub stalls: usize,
    /// Total stalled time, nanoseconds.
    pub stalled_nanos: u64,
}

impl StallReport {
    /// Fraction of frames that needed retransmission recovery.
    pub fn retransmission_fraction(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.retransmission_recovered as f64 / self.frames as f64
        }
    }
}

/// The jitter-buffer model of one stream, stepped once per completed
/// frame, in completion order: a fixed amount of state, however long the
/// stream runs.
#[derive(Debug, Clone)]
pub struct StallTracker {
    /// Playable media in the buffer, nanoseconds. Starts full (initial
    /// buffering is not a stall).
    buffer: i64,
    /// When the ongoing stall began, if playback is stalled.
    stall_start: Option<u64>,
    /// Completion time of the previous frame.
    prev_completed_at: Option<u64>,
    /// Counts over the stalls that have ended.
    done: StallReport,
}

impl Default for StallTracker {
    /// A full buffer of [`JITTER_BUFFER_NANOS`], no frame seen.
    fn default() -> Self {
        StallTracker {
            buffer: JITTER_BUFFER_NANOS as i64,
            stall_start: None,
            prev_completed_at: None,
            done: StallReport::default(),
        }
    }
}

impl StallTracker {
    /// Step the model over the next completed frame. `rtt_nanos` is the
    /// RTT estimate to the SFU as of the frame's completion; the frame
    /// counts as retransmission-recovered when its delay exceeds that plus
    /// [`ZOOM_RETRANSMIT_TIMEOUT_NANOS`].
    pub fn on_frame(&mut self, f: &FrameRecord, rtt_nanos: u64) {
        self.done.frames += 1;
        if f.frame_delay_nanos() > rtt_nanos.saturating_add(ZOOM_RETRANSMIT_TIMEOUT_NANOS) {
            self.done.retransmission_recovered += 1;
        }
        let Some(prev) = self.prev_completed_at.replace(f.completed_at) else {
            return;
        };
        // Media time this frame adds (the packetization interval).
        let media = f.encoder_interval_nanos.unwrap_or(0) as i64;
        let full = JITTER_BUFFER_NANOS as i64;
        if let Some(start) = self.stall_start {
            // Stalled: playback is paused, so arriving media only
            // accumulates; resume once half the buffer has re-built
            // (standard rebuffering behaviour).
            self.buffer += media;
            if self.buffer >= full / 2 {
                self.done.stalls += 1;
                self.done.stalled_nanos += f.completed_at.max(start) - start;
                self.stall_start = None;
            }
            return;
        }
        // Playing: wall time consumes the buffer, media refills it.
        let wall = f.completed_at.saturating_sub(prev) as i64;
        self.buffer = (self.buffer + media - wall).min(full);
        if self.buffer <= 0 {
            // Buffer dry: playback stalls.
            self.stall_start = Some(f.completed_at);
            self.buffer = 0;
        }
    }

    /// The report as of now: a stall still under way counts up to the
    /// last frame's completion.
    pub fn report(&self) -> StallReport {
        let mut report = self.done;
        if let (Some(start), Some(last)) = (self.stall_start, self.prev_completed_at) {
            if last > start {
                report.stalls += 1;
                report.stalled_nanos += last - start;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Step a default tracker over `frames` at a fixed RTT.
    fn analyze(frames: impl IntoIterator<Item = FrameRecord>, rtt_nanos: u64) -> StallReport {
        let mut t = StallTracker::default();
        for f in frames {
            t.on_frame(&f, rtt_nanos);
        }
        t.report()
    }

    /// Frames delivered at a steady cadence matching their media time.
    fn steady(n: usize, interval_ms: u64) -> Vec<FrameRecord> {
        (0..n)
            .map(|i| FrameRecord {
                first_packet_at: i as u64 * interval_ms * MS,
                completed_at: i as u64 * interval_ms * MS + 2 * MS,
                rtp_timestamp: (i as u32) * 3_000,
                size_bytes: 1_000,
                packets: 1,
                encoder_interval_nanos: Some(interval_ms * MS),
            })
            .collect()
    }

    #[test]
    fn steady_stream_never_stalls() {
        let report = analyze(steady(300, 33), FALLBACK_RTT_NANOS);
        assert_eq!(report.stalls, 0);
        assert_eq!(report.stalled_nanos, 0);
        assert_eq!(report.retransmission_recovered, 0);
        assert_eq!(report.frames, 300);
    }

    #[test]
    fn high_frame_delay_flags_retransmission() {
        let mut frames = steady(100, 33);
        // One frame took 300 ms first-packet → completion.
        frames[50].completed_at = frames[50].first_packet_at + 300 * MS;
        let report = analyze(frames.clone(), 50 * MS);
        assert_eq!(report.retransmission_recovered, 1);
        assert!((report.retransmission_fraction() - 0.01).abs() < 1e-9);
        // The threshold follows the RTT each frame is stepped with.
        assert_eq!(analyze(frames, 250 * MS).retransmission_recovered, 0);
    }

    #[test]
    fn sustained_lateness_drains_buffer_and_stalls() {
        // 33 ms of media per frame but 80 ms between deliveries: the
        // buffer drains at 47 ms per frame; a 150 ms buffer dies after
        // ~4 frames.
        let frames: Vec<FrameRecord> = (0..60)
            .map(|i| FrameRecord {
                first_packet_at: i as u64 * 80 * MS,
                completed_at: i as u64 * 80 * MS + MS,
                rtp_timestamp: (i as u32) * 3_000,
                size_bytes: 1_000,
                packets: 1,
                encoder_interval_nanos: Some(33 * MS),
            })
            .collect();
        let report = analyze(frames, FALLBACK_RTT_NANOS);
        assert!(report.stalls > 0);
        assert!(report.stalled_nanos > 0);
    }

    #[test]
    fn brief_hiccup_absorbed_by_buffer() {
        let mut frames = steady(100, 33);
        // One 120 ms gap: within the 150 ms buffer, no stall.
        for f in frames.iter_mut().skip(50) {
            f.completed_at += 120 * MS;
            f.first_packet_at += 120 * MS;
        }
        let report = analyze(frames, FALLBACK_RTT_NANOS);
        assert_eq!(report.stalls, 0, "{report:?}");
    }

    #[test]
    fn long_gap_causes_one_bounded_stall() {
        let mut frames = steady(100, 33);
        // A 400 ms freeze mid-stream.
        for f in frames.iter_mut().skip(50) {
            f.completed_at += 400 * MS;
            f.first_packet_at += 400 * MS;
        }
        let report = analyze(frames, FALLBACK_RTT_NANOS);
        assert_eq!(report.stalls, 1);
        // Rebuffering takes ~half the buffer of media time to recover.
        assert!(report.stalled_nanos > 30 * MS);
        assert!(report.stalled_nanos < 600 * MS);
    }

    #[test]
    fn stall_under_way_counts_up_to_the_last_frame() {
        // Deliveries stop keeping up and never recover: the open stall
        // is in the report, and keeps growing with each frame.
        let mut t = StallTracker::default();
        let mut last = StallReport::default();
        for i in 0..20u64 {
            let f = FrameRecord {
                first_packet_at: i * 200 * MS,
                completed_at: i * 200 * MS + MS,
                rtp_timestamp: i as u32 * 300,
                size_bytes: 1_000,
                packets: 1,
                encoder_interval_nanos: Some(3 * MS),
            };
            t.on_frame(&f, FALLBACK_RTT_NANOS);
            let now = t.report();
            assert!(now.stalled_nanos >= last.stalled_nanos);
            last = now;
        }
        assert_eq!(last.stalls, 1);
        assert_eq!(last.stalled_nanos, 18 * 200 * MS);
    }

    #[test]
    fn empty_input() {
        let report = analyze([], FALLBACK_RTT_NANOS);
        assert_eq!(report.frames, 0);
        assert_eq!(report.retransmission_fraction(), 0.0);
    }
}

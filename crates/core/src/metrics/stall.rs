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
//!   model a receive-side jitter buffer with a configurable depth: frame
//!   lateness (delivery interval minus media interval) accumulates as
//!   drain; when the buffer empties, a stall begins, and playable time
//!   must build back up before playback resumes.

use crate::metrics::frame::FrameRecord;

/// Retransmission-timeout constant observed by the paper (§5.5).
pub const ZOOM_RETRANSMIT_TIMEOUT_NANOS: u64 = 100_000_000;

/// One detected stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// When the buffer ran dry.
    pub start: u64,
    /// When enough media had re-buffered to resume.
    pub end: u64,
}

impl Stall {
    /// Stall duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Report of the frame-delay analysis of one stream.
#[derive(Debug, Clone, Default)]
pub struct StallReport {
    /// Frames whose delivery exceeded RTT + retransmission timeout — the
    /// §5.5 retransmission indicator.
    pub retransmission_recovered: usize,
    /// Total frames analyzed.
    pub frames: usize,
    /// Detected playback stalls.
    pub stalls: Vec<Stall>,
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

/// Configuration of the analysis.
#[derive(Debug, Clone, Copy)]
pub struct StallConfig {
    /// Current RTT estimate to the SFU (from Method-1/-2 latency), used
    /// for the retransmission threshold.
    pub rtt_nanos: u64,
    /// Receive jitter-buffer depth; Zoom-class apps hold roughly
    /// 100–200 ms of media.
    pub jitter_buffer_nanos: u64,
}

impl Default for StallConfig {
    fn default() -> Self {
        StallConfig {
            rtt_nanos: 50_000_000,
            jitter_buffer_nanos: 150_000_000,
        }
    }
}

/// Analyze a stream's completed frames.
///
/// `frames` must be in completion order (as produced by
/// [`crate::metrics::frame::FrameTracker::frames`]).
pub fn analyze(frames: impl IntoIterator<Item = FrameRecord>, config: StallConfig) -> StallReport {
    let mut report = StallReport::default();
    let retx_threshold = config.rtt_nanos + ZOOM_RETRANSMIT_TIMEOUT_NANOS;

    // Playable media in the buffer, nanoseconds. Starts full (initial
    // buffering is not a stall).
    let mut buffer = config.jitter_buffer_nanos as i64;
    let mut stall_start: Option<u64> = None;
    let mut prev: Option<FrameRecord> = None;

    for f in frames {
        report.frames += 1;
        if f.frame_delay_nanos() > retx_threshold {
            report.retransmission_recovered += 1;
        }
        let Some(prev) = prev.replace(f) else {
            continue;
        };
        // Media time this frame adds (the packetization interval).
        let media = f.encoder_interval_nanos.unwrap_or(0) as i64;
        if let Some(start) = stall_start {
            // Stalled: playback is paused, so arriving media only
            // accumulates; resume once half the buffer has re-built
            // (standard rebuffering behaviour).
            buffer += media;
            if buffer >= config.jitter_buffer_nanos as i64 / 2 {
                let stall = Stall {
                    start,
                    end: f.completed_at.max(start),
                };
                report.stalled_nanos += stall.duration_nanos();
                report.stalls.push(stall);
                stall_start = None;
            }
            continue;
        }
        // Playing: wall time consumes the buffer, media refills it.
        let wall = f.completed_at.saturating_sub(prev.completed_at) as i64;
        buffer += media - wall;
        buffer = buffer.min(config.jitter_buffer_nanos as i64);
        if buffer <= 0 {
            // Buffer dry: playback stalls.
            stall_start = Some(f.completed_at);
            buffer = 0;
        }
    }
    if let Some(start) = stall_start {
        if let Some(last) = prev {
            if last.completed_at > start {
                let stall = Stall {
                    start,
                    end: last.completed_at,
                };
                report.stalled_nanos += stall.duration_nanos();
                report.stalls.push(stall);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

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
        let report = analyze(steady(300, 33), StallConfig::default());
        assert!(report.stalls.is_empty());
        assert_eq!(report.stalled_nanos, 0);
        assert_eq!(report.retransmission_recovered, 0);
        assert_eq!(report.frames, 300);
    }

    #[test]
    fn high_frame_delay_flags_retransmission() {
        let mut frames = steady(100, 33);
        // One frame took 300 ms first-packet → completion.
        frames[50].completed_at = frames[50].first_packet_at + 300 * MS;
        let report = analyze(
            frames,
            StallConfig {
                rtt_nanos: 50 * MS,
                jitter_buffer_nanos: 150 * MS,
            },
        );
        assert_eq!(report.retransmission_recovered, 1);
        assert!((report.retransmission_fraction() - 0.01).abs() < 1e-9);
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
        let report = analyze(frames, StallConfig::default());
        assert!(!report.stalls.is_empty());
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
        let report = analyze(frames, StallConfig::default());
        assert!(report.stalls.is_empty(), "stalls: {:?}", report.stalls);
    }

    #[test]
    fn long_gap_causes_one_bounded_stall() {
        let mut frames = steady(100, 33);
        // A 400 ms freeze mid-stream.
        for f in frames.iter_mut().skip(50) {
            f.completed_at += 400 * MS;
            f.first_packet_at += 400 * MS;
        }
        let report = analyze(frames, StallConfig::default());
        assert_eq!(report.stalls.len(), 1);
        let stall = report.stalls[0];
        // Rebuffering takes ~half the buffer of media time to recover.
        assert!(stall.duration_nanos() > 30 * MS);
        assert!(stall.duration_nanos() < 600 * MS);
    }

    #[test]
    fn empty_input() {
        let report = analyze([], StallConfig::default());
        assert_eq!(report.frames, 0);
        assert_eq!(report.retransmission_fraction(), 0.0);
    }
}

//! Ground-truth QoS logging — the simulator-side stand-in for the Zoom SDK
//! feed the paper used for validation (§5, "Validation of Metrics").
//!
//! The paper instrumented a custom macOS SDK client to log latency, jitter,
//! frame rate, etc. once per second, and compared those values against the
//! passive estimates (Fig. 10). Our simulator knows the true values and
//! logs them through the same reporting quirks the paper observed in
//! Zoom's own feed:
//!
//! * samples are emitted at 1 Hz;
//! * the **latency** value refreshes only every 5 seconds (Fig. 10b);
//! * the **jitter** value is implausibly small and smooth — Zoom "always
//!   reported very low jitter which never exceeded 2 ms, even in the
//!   presence of congestion" (Fig. 10c) — modeled as a heavily damped,
//!   clamped EWMA;
//! * the **frame rate** is a slightly smoothed version of truth with a
//!   coarse refresh, which is why rapid dips can be missed (Fig. 10a).

use crate::time::{Nanos, MS, SEC};

/// One 1-Hz QoS sample for one media stream, as "the Zoom client" would
/// report it, alongside the unfiltered truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSample {
    /// Sample time (second boundary).
    pub at: Nanos,
    /// Frame rate the client reports (smoothed / refresh-limited).
    pub reported_fps: f64,
    /// True delivered frame rate over the last second.
    pub true_fps: f64,
    /// Latency (RTT to SFU) the client reports — refreshes every 5 s.
    pub reported_latency_ms: f64,
    /// True current RTT to the SFU.
    pub true_latency_ms: f64,
    /// Jitter the client reports (tiny, smooth).
    pub reported_jitter_ms: f64,
    /// Bit rate over the last second, bits/s (truthful in the client UI).
    pub bitrate_bps: f64,
    /// Packets lost in the last second (after retransmission).
    pub lost_packets: u32,
}

/// Accumulates per-second truth and emits [`QosSample`]s with Zoom-like
/// reporting behaviour.
#[derive(Debug, Clone)]
pub struct QosLogger {
    samples: Vec<QosSample>,
    // Current-second accumulators.
    second_start: Nanos,
    frames_this_second: u32,
    bytes_this_second: u64,
    lost_this_second: u32,
    // Latest truth pushed by the simulator.
    current_latency_ms: f64,
    current_jitter_ms: f64,
    // Reporting state.
    displayed_latency_ms: f64,
    last_latency_refresh: Nanos,
    smoothed_jitter_ms: f64,
    smoothed_fps: f64,
}

impl Default for QosLogger {
    fn default() -> Self {
        Self::new()
    }
}

impl QosLogger {
    /// Fresh logger starting at t = 0.
    pub fn new() -> QosLogger {
        QosLogger {
            samples: Vec::new(),
            second_start: 0,
            frames_this_second: 0,
            bytes_this_second: 0,
            lost_this_second: 0,
            current_latency_ms: 0.0,
            current_jitter_ms: 0.0,
            displayed_latency_ms: 0.0,
            last_latency_refresh: 0,
            smoothed_jitter_ms: 0.0,
            smoothed_fps: 0.0,
        }
    }

    /// Record a fully delivered frame of `bytes` bytes at `now`.
    pub fn frame_delivered(&mut self, now: Nanos, bytes: usize) {
        self.roll(now);
        self.frames_this_second += 1;
        self.bytes_this_second += bytes as u64;
    }

    /// Record a packet lost beyond recovery.
    pub fn packet_lost(&mut self, now: Nanos) {
        self.roll(now);
        self.lost_this_second += 1;
    }

    /// Push the current true RTT-to-SFU and instantaneous jitter.
    pub fn network_truth(&mut self, now: Nanos, latency: Nanos, jitter: Nanos) {
        self.roll(now);
        self.current_latency_ms = latency as f64 / MS as f64;
        self.current_jitter_ms = jitter as f64 / MS as f64;
    }

    /// Advance to `now`, emitting one sample per elapsed second boundary.
    fn roll(&mut self, now: Nanos) {
        while now >= self.second_start + SEC {
            let at = self.second_start + SEC;
            let true_fps = f64::from(self.frames_this_second);
            // Zoom-style fps display: EWMA with a modest constant.
            self.smoothed_fps = if self.samples.is_empty() {
                true_fps
            } else {
                0.6 * self.smoothed_fps + 0.4 * true_fps
            };
            // Latency refreshes every 5 s only.
            if at.saturating_sub(self.last_latency_refresh) >= 5 * SEC {
                self.displayed_latency_ms = self.current_latency_ms;
                self.last_latency_refresh = at;
            }
            // Jitter: damped hard and clamped — reproducing the paper's
            // observation that Zoom's jitter never exceeded ~2 ms.
            self.smoothed_jitter_ms =
                (0.95 * self.smoothed_jitter_ms + 0.05 * self.current_jitter_ms).min(2.0);
            self.samples.push(QosSample {
                at,
                reported_fps: self.smoothed_fps,
                true_fps,
                reported_latency_ms: self.displayed_latency_ms,
                true_latency_ms: self.current_latency_ms,
                reported_jitter_ms: self.smoothed_jitter_ms,
                bitrate_bps: self.bytes_this_second as f64 * 8.0,
                lost_packets: self.lost_this_second,
            });
            self.second_start = at;
            self.frames_this_second = 0;
            self.bytes_this_second = 0;
            self.lost_this_second = 0;
        }
    }

    /// Finish at `end`, flushing the last partial second, and return all
    /// samples.
    pub fn finish(mut self, end: Nanos) -> Vec<QosSample> {
        self.roll(end + SEC);
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_per_second() {
        let mut q = QosLogger::new();
        for s in 0..10u64 {
            for f in 0..28u64 {
                q.frame_delivered(s * SEC + f * SEC / 28, 2_000);
            }
        }
        let samples = q.finish(10 * SEC);
        assert!(samples.len() >= 10);
        assert!((samples[5].true_fps - 28.0).abs() <= 1.0);
        assert!(samples[5].bitrate_bps > 300_000.0);
    }

    #[test]
    fn latency_refreshes_every_five_seconds() {
        let mut q = QosLogger::new();
        for s in 0..20u64 {
            q.network_truth(s * SEC + 1, (20 + s) * MS, MS);
            q.frame_delivered(s * SEC + 2, 100);
        }
        let samples = q.finish(20 * SEC);
        // Reported latency forms steps: at most 5 distinct values in 20 s
        // (plus the initial zero), while the truth changes every second.
        let mut reported: Vec<u64> = samples
            .iter()
            .map(|s| s.reported_latency_ms as u64)
            .collect();
        reported.dedup();
        assert!(reported.len() <= 6, "reported steps: {reported:?}");
        let mut truth: Vec<u64> = samples.iter().map(|s| s.true_latency_ms as u64).collect();
        truth.dedup();
        assert!(truth.len() > 10);
    }

    #[test]
    fn reported_jitter_is_clamped_at_2ms() {
        let mut q = QosLogger::new();
        for s in 0..60u64 {
            q.network_truth(s * SEC, 20 * MS, 30 * MS); // true jitter 30 ms!
            q.frame_delivered(s * SEC + 1, 100);
        }
        let samples = q.finish(60 * SEC);
        assert!(samples.iter().all(|s| s.reported_jitter_ms <= 2.0));
    }

    #[test]
    fn loss_counted_per_second() {
        let mut q = QosLogger::new();
        q.packet_lost(100);
        q.packet_lost(200);
        q.packet_lost(SEC + 100);
        let samples = q.finish(2 * SEC);
        assert_eq!(samples[0].lost_packets, 2);
        assert_eq!(samples[1].lost_packets, 1);
    }

    #[test]
    fn fps_smoothing_lags_truth() {
        let mut q = QosLogger::new();
        // 5 s at 28 fps then a sudden drop to 10 fps.
        for s in 0..5u64 {
            for f in 0..28u64 {
                q.frame_delivered(s * SEC + f * SEC / 28, 1_000);
            }
        }
        for f in 0..10u64 {
            q.frame_delivered(5 * SEC + f * SEC / 10, 1_000);
        }
        let samples = q.finish(6 * SEC);
        let drop_sample = samples.iter().find(|s| s.at == 6 * SEC).unwrap();
        assert_eq!(drop_sample.true_fps, 10.0);
        assert!(drop_sample.reported_fps > drop_sample.true_fps);
    }
}

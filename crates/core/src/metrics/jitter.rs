//! Frame-level interarrival jitter (§5.4, Fig. 12 of the paper).
//!
//! Naïve packet interarrival variance is meaningless for RTP video: frames
//! are bursts of back-to-back packets, and Zoom's packetization interval
//! varies. The paper therefore computes jitter *between frames*, corrected
//! by what the gap *should* be according to the RTP timestamps — exactly
//! the RFC 3550 §A.8 estimator applied at frame granularity:
//!
//! ```text
//! D(i,j) = (Rj − Ri) − (Sj − Si)        // arrival delta − media delta
//! J     += (|D| − J) / 16
//! ```
//!
//! where `R` is the arrival time of the first packet of a frame and `S`
//! the frame's RTP timestamp converted to wall time via the sampling rate.

use super::VIDEO_SAMPLING_RATE;

/// RFC 3550 jitter estimator over frame-level observations.
#[derive(Debug, Clone)]
pub struct JitterEstimator {
    sampling_rate: f64,
    jitter_nanos: f64,
    last: Option<(u64, u32)>,
    /// The wall-clock second of the last per-second sample.
    last_sample_second: Option<u64>,
}

impl JitterEstimator {
    /// Estimator with the given RTP clock rate.
    pub fn new(sampling_rate: u32) -> JitterEstimator {
        JitterEstimator {
            sampling_rate: f64::from(sampling_rate),
            jitter_nanos: 0.0,
            last: None,
            last_sample_second: None,
        }
    }

    /// Estimator for Zoom video (90 kHz).
    pub fn video() -> JitterEstimator {
        JitterEstimator::new(VIDEO_SAMPLING_RATE)
    }

    /// Feed the first packet of each frame (a new RTP timestamp on the
    /// main sub-stream). Returns the estimate in milliseconds when this
    /// frame is the first of its wall-clock second — the once-per-second
    /// sample of Fig. 15d's 1 s bins — and `None` otherwise. The estimator
    /// keeps no samples; the caller folds or stores them.
    pub fn on_frame(&mut self, arrival_nanos: u64, rtp_timestamp: u32) -> Option<f64> {
        if let Some((prev_arrival, prev_ts)) = self.last {
            let r_delta = arrival_nanos as f64 - prev_arrival as f64;
            // Signed RTP delta (handles wraparound).
            let s_ticks = rtp_timestamp.wrapping_sub(prev_ts) as i32;
            let s_delta = f64::from(s_ticks) * 1e9 / self.sampling_rate;
            let d = r_delta - s_delta;
            self.jitter_nanos += (d.abs() - self.jitter_nanos) / 16.0;
        }
        self.last = Some((arrival_nanos, rtp_timestamp));
        let second = arrival_nanos / 1_000_000_000;
        if self.last_sample_second == Some(second) {
            return None;
        }
        self.last_sample_second = Some(second);
        Some(self.jitter_ms())
    }

    /// Current jitter estimate in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.jitter_nanos / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn perfectly_paced_stream_has_zero_jitter() {
        let mut j = JitterEstimator::video();
        // 30 fps: 3000 ticks and 33.333... ms per frame, exactly matched.
        for i in 0..100u64 {
            j.on_frame(i * 33_333_333, (i as u32) * 3_000);
        }
        assert!(j.jitter_ms() < 0.2, "jitter {}", j.jitter_ms());
    }

    #[test]
    fn variable_packetization_is_not_jitter() {
        // The encoder alternates 1/30 s and 1/15 s frame intervals, and
        // the network delivers each exactly on time: the RTP-timestamp
        // correction must cancel the variation (the whole point of §5.4).
        let mut j = JitterEstimator::video();
        let mut t = 0u64;
        let mut ts = 0u32;
        for i in 0..200 {
            j.on_frame(t, ts);
            let (dt, dticks) = if i % 2 == 0 {
                (33_333_333u64, 3_000u32)
            } else {
                (66_666_666, 6_000)
            };
            t += dt;
            ts = ts.wrapping_add(dticks);
        }
        assert!(j.jitter_ms() < 0.2, "jitter {}", j.jitter_ms());
    }

    #[test]
    fn network_delay_variation_is_jitter() {
        // Constant 30 fps encoding, but arrivals alternate ±8 ms.
        let mut j = JitterEstimator::video();
        for i in 0..200u64 {
            let wobble = if i % 2 == 0 { 0 } else { 8 * MS };
            j.on_frame(i * 33_333_333 + wobble, (i as u32) * 3_000);
        }
        // |D| = 8 ms every frame → J converges toward 8 ms.
        assert!(j.jitter_ms() > 6.0, "jitter {}", j.jitter_ms());
    }

    #[test]
    fn converges_per_rfc_recursion() {
        let mut j = JitterEstimator::video();
        j.on_frame(0, 0);
        j.on_frame(33_333_333 + 16 * MS, 3_000);
        // First difference: |16 ms| / 16 = 1 ms.
        assert!((j.jitter_ms() - 1.0).abs() < 0.01, "{}", j.jitter_ms());
    }

    #[test]
    fn timestamp_wrap_handled() {
        let mut j = JitterEstimator::video();
        j.on_frame(0, u32::MAX - 1_500);
        j.on_frame(33_333_333, 1_500); // Δticks = 3000 across the wrap
        assert!(j.jitter_ms() < 0.1, "jitter {}", j.jitter_ms());
    }

    #[test]
    fn samples_once_per_second() {
        let mut j = JitterEstimator::video();
        // 90 frames at 30 fps: about 3 s.
        let samples: Vec<f64> = (0..90u64)
            .filter_map(|i| j.on_frame(i * 33_333_333, (i as u32) * 3_000))
            .collect();
        assert_eq!(samples.len(), 3);
    }
}

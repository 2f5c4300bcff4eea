//! Sender-side rate adaptation.
//!
//! Prior controlled-experiment studies cited by the paper (Lee et al.)
//! found that Zoom adapts to congestion primarily by reducing the
//! *sender's* bit rate and frame rate — keyed on **jitter**, not absolute
//! delay — rather than thinning streams at the SFU. This controller
//! reproduces that behaviour: it watches a jitter estimate of the uplink,
//! halves the frame rate (switching the encoder to
//! [`crate::codec::VideoMode::Reduced`]) when jitter stays high, and
//! recovers conservatively once conditions clear.

use crate::codec::{VideoEncoder, VideoMode};
use crate::time::{Nanos, MS, SEC};

/// Jitter-driven video rate controller.
#[derive(Debug, Clone)]
pub struct RateController {
    /// RFC 3550-style smoothed jitter estimate of the uplink, nanoseconds.
    jitter_estimate: f64,
    /// Slow-moving baseline of the same signal: steady access-link jitter
    /// (wifi) is the path's normal state, not congestion; only a *rise*
    /// above baseline triggers adaptation.
    jitter_baseline: f64,
    /// Expected inter-departure delta for the last packet (for the jitter
    /// update).
    last_transit: Option<i64>,
    /// Observations so far (drives the baseline warm-up).
    observations: u64,
    /// Jitter above this for `degrade_after` → reduce.
    degrade_threshold: Nanos,
    /// Jitter below this for `recover_after` → restore.
    recover_threshold: Nanos,
    degrade_after: Nanos,
    recover_after: Nanos,
    /// Time the jitter first crossed the degrade threshold.
    high_since: Option<Nanos>,
    /// Time the jitter last fell below the recover threshold.
    low_since: Option<Nanos>,
    /// When a layout change (not the network) pinned the encoder to
    /// reduced mode, the controller leaves it alone.
    pinned_reduced: bool,
}

impl Default for RateController {
    fn default() -> Self {
        Self::new()
    }
}

impl RateController {
    /// Controller with Zoom-like reaction times: degrade after ~2 s of
    /// high jitter, recover after ~8 s of calm.
    pub fn new() -> RateController {
        RateController {
            jitter_estimate: 0.0,
            jitter_baseline: 0.0,
            last_transit: None,
            observations: 0,
            degrade_threshold: 8 * MS,
            recover_threshold: 3 * MS,
            degrade_after: 2 * SEC,
            recover_after: 8 * SEC,
            high_since: None,
            low_since: None,
            pinned_reduced: false,
        }
    }

    /// Pin the encoder to reduced mode for UI reasons (thumbnail view);
    /// the controller will not upgrade it.
    pub fn pin_reduced(&mut self, pinned: bool) {
        self.pinned_reduced = pinned;
    }

    /// Feed one uplink observation: `sent_at` → `arrived_at` (at the SFU)
    /// for consecutive packets; applies the RFC 3550 recursion
    /// `J += (|D| − J) / 16`.
    pub fn observe(&mut self, sent_at: Nanos, arrived_at: Nanos) {
        let transit = arrived_at as i64 - sent_at as i64;
        if let Some(prev) = self.last_transit {
            let d = (transit - prev).unsigned_abs();
            self.jitter_estimate += (d as f64 - self.jitter_estimate) / 16.0;
            // The baseline learns the path's normal jitter quickly during
            // the first seconds of a call (Zoom probes the path at join),
            // then adapts ~1000× slower than the estimate — so steady
            // wifi jitter is the norm while a congestion burst stands out.
            let gain = if self.observations < 512 {
                64.0
            } else {
                16_384.0
            };
            self.jitter_baseline += (d as f64 - self.jitter_baseline) / gain;
            self.observations += 1;
        }
        self.last_transit = Some(transit);
    }

    /// Decide and apply the encoder mode; call about once per frame.
    /// Returns `true` when the mode changed.
    pub fn control(&mut self, now: Nanos, encoder: &mut VideoEncoder) -> bool {
        if self.pinned_reduced {
            if encoder.mode() != VideoMode::Reduced {
                encoder.set_mode(VideoMode::Reduced);
                return true;
            }
            return false;
        }
        // Compare against the path's own baseline: congestion is a rise,
        // not a level.
        let excess = self.jitter_estimate - self.jitter_baseline;
        let high = excess > self.degrade_threshold as f64;
        let low = excess < self.recover_threshold as f64;
        if high {
            self.low_since = None;
            let since = *self.high_since.get_or_insert(now);
            if encoder.mode() == VideoMode::Full && now - since >= self.degrade_after {
                encoder.set_mode(VideoMode::Reduced);
                return true;
            }
        } else {
            self.high_since = None;
            if low {
                let since = *self.low_since.get_or_insert(now);
                if encoder.mode() == VideoMode::Reduced && now - since >= self.recover_after {
                    encoder.set_mode(VideoMode::Full);
                    self.low_since = None;
                    return true;
                }
            } else {
                self.low_since = None;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> VideoEncoder {
        VideoEncoder::new(600_000.0, 28.0, 1.0, 0)
    }

    /// Feed `n` packets with inter-send 10 ms and the given per-packet
    /// delay pattern.
    fn feed(rc: &mut RateController, start: Nanos, n: u64, delay: impl Fn(u64) -> Nanos) -> Nanos {
        let mut t = start;
        for i in 0..n {
            rc.observe(t, t + delay(i));
            t += 10 * MS;
        }
        t
    }

    #[test]
    fn stable_network_keeps_full_mode() {
        let mut rc = RateController::new();
        let mut enc = encoder();
        let end = feed(&mut rc, 0, 1000, |_| 20 * MS);
        assert!(!rc.control(end, &mut enc));
        assert_eq!(enc.mode(), VideoMode::Full);
        assert!(rc.jitter_estimate < MS as f64);
    }

    #[test]
    fn sustained_jitter_degrades_then_recovers() {
        let mut rc = RateController::new();
        let mut enc = encoder();
        // Calm warm-up first: the baseline learns a quiet path (jitter
        // present from the very first packet would be learned as the
        // path's normal state instead).
        let mut t = feed(&mut rc, 0, 700, |_| 20 * MS);
        // Jittery: delays alternate 20 ms / 60 ms → |D| = 40 ms ≫ 8 ms.
        t = feed(
            &mut rc,
            t,
            50,
            |i| if i % 2 == 0 { 20 * MS } else { 60 * MS },
        );
        rc.control(t, &mut enc);
        // Keep jitter high past the 2 s hold-down.
        for _ in 0..10 {
            t = feed(
                &mut rc,
                t,
                50,
                |i| if i % 2 == 0 { 20 * MS } else { 60 * MS },
            );
            rc.control(t, &mut enc);
        }
        assert_eq!(enc.mode(), VideoMode::Reduced);

        // Calm again: recover after the 8 s hold-down.
        for _ in 0..40 {
            t = feed(&mut rc, t, 50, |_| 20 * MS);
            rc.control(t, &mut enc);
        }
        assert_eq!(enc.mode(), VideoMode::Full);
    }

    #[test]
    fn brief_spike_does_not_degrade() {
        let mut rc = RateController::new();
        let mut enc = encoder();
        // 0.5 s of jitter, then calm — below the 2 s hold-down.
        let t = feed(
            &mut rc,
            0,
            50,
            |i| if i % 2 == 0 { 20 * MS } else { 60 * MS },
        );
        rc.control(t, &mut enc);
        let t2 = feed(&mut rc, t, 500, |_| 20 * MS);
        rc.control(t2, &mut enc);
        assert_eq!(enc.mode(), VideoMode::Full);
    }

    #[test]
    fn pinned_reduced_wins() {
        let mut rc = RateController::new();
        let mut enc = encoder();
        rc.pin_reduced(true);
        assert!(rc.control(0, &mut enc));
        assert_eq!(enc.mode(), VideoMode::Reduced);
        // Perfect network; still reduced.
        let t = feed(&mut rc, 0, 2000, |_| 20 * MS);
        assert!(!rc.control(t, &mut enc));
        assert_eq!(enc.mode(), VideoMode::Reduced);
    }

    #[test]
    fn jitter_recursion_matches_rfc_form() {
        let mut rc = RateController::new();
        rc.observe(0, 20 * MS);
        rc.observe(10 * MS, 10 * MS + 36 * MS); // transit +16 ms
                                                // First difference: |16 ms| / 16 = 1 ms.
        assert!((rc.jitter_estimate - MS as f64).abs() < 1.0);
    }
}

//! Network path models: delay, jitter, loss, and congestion events.
//!
//! A meeting participant's traffic traverses two legs in SFU mode —
//! client ⇄ border tap (campus) and tap ⇄ SFU (WAN) — or a single direct
//! leg in P2P mode. Each leg is an [`Leg`] with a base one-way delay, an
//! autocorrelated jitter process, a loss probability, and a queueing term
//! driven by [`CongestionEvent`]s (the "cross-traffic" bursts of the
//! paper's validation experiments, §5).

use crate::time::{Nanos, MS, SEC};
use rand::Rng;

/// A time window during which a leg is congested.
///
/// During the window, queueing delay ramps up toward `added_delay` and loss
/// rises to `added_loss` — a coarse but well-shaped stand-in for a
/// bandwidth-limited queue being filled by a competing download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEvent {
    pub start: Nanos,
    pub end: Nanos,
    /// Peak extra one-way delay at the height of the event.
    pub added_delay: Nanos,
    /// Extra loss probability at the height of the event.
    pub added_loss: f64,
}

impl CongestionEvent {
    /// Intensity in [0, 1]: ramps up over the first quarter of the window
    /// and down over the last quarter, mimicking queue fill/drain.
    fn intensity(&self, now: Nanos) -> f64 {
        if now < self.start || now > self.end {
            return 0.0;
        }
        let span = (self.end - self.start).max(1) as f64;
        let pos = (now - self.start) as f64 / span;
        if pos < 0.25 {
            pos / 0.25
        } else if pos > 0.75 {
            (1.0 - pos) / 0.25
        } else {
            1.0
        }
    }
}

/// One direction of one network leg.
#[derive(Debug, Clone)]
pub struct Leg {
    /// Propagation + transmission baseline.
    pub base_delay: Nanos,
    /// Standard deviation of the jitter process.
    pub jitter_std: Nanos,
    /// Steady-state loss probability.
    pub loss: f64,
    /// Scheduled congestion windows.
    pub congestion: Vec<CongestionEvent>,
    /// Autocorrelated jitter state (an AR(1) process), so consecutive
    /// packets see similar queueing — real jitter is not white noise.
    jitter_state: f64,
}

impl Leg {
    /// A leg with the given base delay and jitter, no loss.
    pub fn new(base_delay: Nanos, jitter_std: Nanos) -> Leg {
        Leg {
            base_delay,
            jitter_std,
            loss: 0.0,
            congestion: Vec::new(),
            jitter_state: 0.0,
        }
    }

    /// Set steady-state loss.
    pub fn with_loss(mut self, loss: f64) -> Leg {
        self.loss = loss;
        self
    }

    /// Add a congestion window.
    pub fn with_congestion(mut self, ev: CongestionEvent) -> Leg {
        self.congestion.push(ev);
        self
    }

    /// Current congestion intensity (max over scheduled events).
    pub fn congestion_intensity(&self, now: Nanos) -> f64 {
        self.congestion
            .iter()
            .map(|c| c.intensity(now))
            .fold(0.0, f64::max)
    }

    /// Sample the one-way delay for a packet sent `now`, or `None` when
    /// the packet is lost.
    pub fn traverse<R: Rng>(&mut self, now: Nanos, rng: &mut R) -> Option<Nanos> {
        let intensity = self.congestion_intensity(now);
        let extra_loss: f64 = self
            .congestion
            .iter()
            .map(|c| c.added_loss * c.intensity(now))
            .fold(0.0, f64::max);
        if rng.gen_bool((self.loss + extra_loss).clamp(0.0, 0.9)) {
            return None;
        }
        // AR(1) jitter: x' = 0.75 x + e, e ~ approx normal via sum of
        // uniforms; the 0.75 decay keeps per-packet correlation while
        // letting most of the configured std show up between frames.
        let e: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
        self.jitter_state = 0.75 * self.jitter_state + e * self.jitter_std as f64 * 0.66;
        // Congestion delay: a deterministic queue-level component plus a
        // substantial per-packet random component — a congested queue's
        // occupancy varies packet to packet, which is what makes jitter
        // (not just delay) rise under cross-traffic (the signal Zoom's
        // rate adaptation keys on).
        let congestion_delay: f64 = self
            .congestion
            .iter()
            .map(|c| {
                let level = c.added_delay as f64 * c.intensity(now);
                level * 0.6 + rng.gen_range(0.0..1.0) * level * 0.8
            })
            .fold(0.0, f64::max);
        let delay = self.base_delay as f64
            + self.jitter_state.max(-(self.base_delay as f64) * 0.5)
            + self.jitter_state.abs() * 0.2
            + congestion_delay
            + intensity * rng.gen_range(0.0..5.0) * MS as f64;
        Some(delay.max(0.1 * MS as f64) as Nanos)
    }
}

/// The two-leg path of an SFU participant as seen from the border tap.
#[derive(Debug, Clone)]
pub struct SfuPath {
    /// Client ⇄ tap (campus-internal; absent for off-campus clients whose
    /// packets never cross the tap on this side).
    pub campus_up: Leg,
    pub campus_down: Leg,
    /// Tap ⇄ SFU (WAN). For off-campus clients this models the whole
    /// client ⇄ SFU path instead.
    pub wan_up: Leg,
    pub wan_down: Leg,
    /// SFU forwarding latency.
    pub sfu_processing: Nanos,
}

impl SfuPath {
    /// Path for a participant whose dominant jitter source is the client
    /// *access link* (wifi/cellular): for on-campus clients the access
    /// jitter sits on the campus legs (client ⇄ tap) and the WAN is a
    /// clean backbone; for off-campus clients the WAN legs are the access
    /// path. This is what makes access-link jitter visible at the border
    /// monitor — it rides the client's own side of the tap.
    pub fn for_participant(
        wan_ms: u64,
        wan_loss: f64,
        access_jitter_us: u64,
        on_campus: bool,
    ) -> SfuPath {
        let access = access_jitter_us * 1_000;
        if on_campus {
            SfuPath {
                campus_up: Leg::new(1_500_000, access.max(300_000)),
                campus_down: Leg::new(1_500_000, access.max(300_000)),
                wan_up: Leg::new(wan_ms * MS, 1_200_000).with_loss(wan_loss),
                wan_down: Leg::new(wan_ms * MS, 1_200_000).with_loss(wan_loss),
                sfu_processing: 700_000,
            }
        } else {
            SfuPath {
                campus_up: Leg::new(1_500_000, 300_000),
                campus_down: Leg::new(1_500_000, 300_000),
                wan_up: Leg::new(wan_ms * MS, access.max(1_200_000)).with_loss(wan_loss),
                wan_down: Leg::new(wan_ms * MS, access.max(1_200_000)).with_loss(wan_loss),
                sfu_processing: 700_000,
            }
        }
    }

    /// The RTT between the tap and the SFU under current conditions,
    /// excluding jitter — what "Method 1" latency estimation measures in
    /// expectation (§5.3).
    pub fn nominal_tap_sfu_rtt(&self) -> Nanos {
        self.wan_up.base_delay + self.wan_down.base_delay + self.sfu_processing
    }

    /// The client ⇄ SFU RTT — what the Zoom client reports as latency.
    pub fn nominal_client_sfu_rtt(&self) -> Nanos {
        self.campus_up.base_delay + self.campus_down.base_delay + self.nominal_tap_sfu_rtt()
    }

    /// Instantaneous one-way client→SFU delay including congestion (used
    /// by the ground-truth QoS logger).
    pub fn current_up_delay(&self, now: Nanos) -> Nanos {
        let extra: f64 = self
            .wan_up
            .congestion
            .iter()
            .map(|c| c.added_delay as f64 * c.intensity(now))
            .fold(0.0, f64::max);
        self.campus_up.base_delay + self.wan_up.base_delay + extra as Nanos
    }

    /// Instantaneous SFU→client delay including congestion.
    pub fn current_down_delay(&self, now: Nanos) -> Nanos {
        let extra: f64 = self
            .wan_down
            .congestion
            .iter()
            .map(|c| c.added_delay as f64 * c.intensity(now))
            .fold(0.0, f64::max);
        self.campus_down.base_delay + self.wan_down.base_delay + extra as Nanos
    }
}

/// Convenience: two 10–20 s congestion bursts like the paper's validation
/// runs ("we introduced cross-traffic twice during each call").
pub fn validation_bursts(first_at: Nanos, second_at: Nanos) -> Vec<CongestionEvent> {
    vec![
        CongestionEvent {
            start: first_at,
            end: first_at + 15 * SEC,
            added_delay: 70 * MS,
            added_loss: 0.02,
        },
        CongestionEvent {
            start: second_at,
            end: second_at + 12 * SEC,
            added_delay: 55 * MS,
            added_loss: 0.015,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn congestion_intensity_ramps() {
        let ev = CongestionEvent {
            start: 100,
            end: 200,
            added_delay: MS,
            added_loss: 0.0,
        };
        assert_eq!(ev.intensity(50), 0.0);
        assert_eq!(ev.intensity(250), 0.0);
        assert!(ev.intensity(110) > 0.0 && ev.intensity(110) < 1.0);
        assert_eq!(ev.intensity(150), 1.0);
        assert!(ev.intensity(195) < 1.0);
    }

    #[test]
    fn traverse_stays_near_base_without_congestion() {
        let mut leg = Leg::new(20 * MS, MS);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0u64;
        let n = 1000;
        for i in 0..n {
            let d = leg.traverse(i * MS, &mut rng).unwrap();
            sum += d;
            assert!(d > 10 * MS && d < 40 * MS, "delay {d} out of band");
        }
        let avg = sum / n;
        assert!((avg as i64 - (20 * MS) as i64).abs() < (4 * MS) as i64);
    }

    #[test]
    fn congestion_raises_delay() {
        let mut quiet = Leg::new(20 * MS, MS);
        let mut congested = Leg::new(20 * MS, MS).with_congestion(CongestionEvent {
            start: 0,
            end: 100 * SEC,
            added_delay: 40 * MS,
            added_loss: 0.0,
        });
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let t = 50 * SEC; // middle of the window, full intensity
        let dq: u64 = (0..100)
            .map(|i| quiet.traverse(t + i, &mut rng1).unwrap())
            .sum();
        let dc: u64 = (0..100)
            .map(|i| congested.traverse(t + i, &mut rng2).unwrap())
            .sum();
        assert!(dc > dq + 100 * 30 * MS);
    }

    #[test]
    fn loss_probability_honored() {
        let mut leg = Leg::new(MS, 0).with_loss(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let lost = (0..10_000)
            .filter(|&i| leg.traverse(i, &mut rng).is_none())
            .count();
        assert!((4_500..5_500).contains(&lost), "lost {lost}");
    }

    #[test]
    fn jitter_is_autocorrelated() {
        // Consecutive delays should correlate more than distant ones.
        let mut leg = Leg::new(20 * MS, 2 * MS);
        let mut rng = StdRng::seed_from_u64(4);
        let d: Vec<f64> = (0..2000)
            .map(|i| leg.traverse(i * MS, &mut rng).unwrap() as f64)
            .collect();
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
        let lag1: f64 = d.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let rho1 = lag1 / var;
        assert!(rho1 > 0.4, "lag-1 autocorrelation {rho1}");
    }

    #[test]
    fn sfu_path_rtts() {
        let p = SfuPath::for_participant(25, 0.0, 0, true);
        assert_eq!(p.nominal_tap_sfu_rtt(), 50 * MS + 700_000);
        assert!(p.nominal_client_sfu_rtt() > p.nominal_tap_sfu_rtt());
    }

    #[test]
    fn validation_bursts_shape() {
        let b = validation_bursts(100 * SEC, 200 * SEC);
        assert_eq!(b.len(), 2);
        assert!(b[0].end - b[0].start >= 10 * SEC);
        assert!(b[0].end - b[0].start <= 20 * SEC);
    }
}

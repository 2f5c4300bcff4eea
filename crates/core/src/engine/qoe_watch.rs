//! QoE degradation detector over closed windows.
//!
//! [`QoeWatch`] consumes each [`WindowReport`] a [`StreamingEngine`]
//! closes and compares per-`(meeting, media)` aggregates against three
//! fixed thresholds — the §5 estimator signals behind the
//! paper's Fig. 16-style diagnostic vignettes:
//!
//! * **fps floor** (`low_fps`) — mean frame rate across a meeting's
//!   active *video* streams fell below [`FPS_FLOOR`];
//! * **jitter ceiling** (`high_jitter`) — mean RFC 3550 jitter across
//!   active streams rose above [`JITTER_CEILING_MS`];
//! * **bitrate collapse** (`bitrate_collapse`) — aggregate media
//!   bitrate fell below [`COLLAPSE_RATIO`] × the last healthy window's
//!   bitrate. The baseline freezes while degraded, so recovery means
//!   climbing back to the ratio of the *pre-collapse* rate, not of the
//!   collapsed one (hysteresis).
//!
//! Each threshold crossing emits one [`QoeAlert`] on the degrading
//! window and one on the recovering window — never one per window in
//! between — and the engine mirrors the active set into the
//! `zoom_qoe_degraded{meeting,kind}` gauge family (1 degraded,
//! 0 recovered). A meeting that disappears from the window (ended or
//! evicted) recovers all of its active verdicts.
//!
//! The detector sees only the [`WindowReport`], a function of the
//! records alone, so the alert sequence is deterministic (pinned in
//! `tests/observability.rs`).
//!
//! [`StreamingEngine`]: super::StreamingEngine

use crate::obs::media_slug;
use crate::report::{JsonObj, WindowReport};
use std::collections::BTreeMap;

/// `low_fps` fires when mean video fps over a window drops below this
/// floor.
pub const FPS_FLOOR: f64 = 10.0;

/// `high_jitter` fires when mean jitter over a window exceeds this
/// ceiling, in milliseconds.
pub const JITTER_CEILING_MS: f64 = 50.0;

/// `bitrate_collapse` fires when a window's aggregate bitrate drops below
/// this fraction of the last healthy window's.
pub const COLLAPSE_RATIO: f64 = 0.5;

/// Whether an alert opens or closes a degradation episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The threshold was crossed on this window.
    Degraded,
    /// The signal returned inside the threshold on this window.
    Recovered,
}

impl AlertState {
    /// Stable string used in both NDJSON and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Degraded => "degraded",
            AlertState::Recovered => "recovered",
        }
    }
}

/// One degradation-episode edge (open or close) for one
/// `(meeting, media, kind)` series.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeAlert {
    /// Index of the window that crossed the threshold.
    pub window: u64,
    /// End timestamp of that window, capture nanoseconds.
    pub end_nanos: u64,
    /// Meeting label: the meeting id, or `"none"` for ungrouped streams.
    pub meeting: String,
    /// Media label ([`media_slug`] vocabulary, e.g. `"video"`).
    pub media: &'static str,
    /// `"low_fps"`, `"high_jitter"`, or `"bitrate_collapse"`.
    pub kind: &'static str,
    /// Opening or closing edge.
    pub state: AlertState,
    /// The observed value that crossed (mean fps, mean jitter ms, or
    /// bitrate bps; 0 when the meeting vanished from the window).
    pub value: f64,
    /// The threshold it crossed (for `bitrate_collapse`, the collapse
    /// floor in bps: [`COLLAPSE_RATIO`] × baseline).
    pub threshold: f64,
}

impl QoeAlert {
    /// One NDJSON line: `{"type":"qoe_alert",...}`. Field order is
    /// fixed; the rendering is deterministic byte for byte.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", "qoe_alert")
            .u64("window", self.window)
            .u64("end_nanos", self.end_nanos)
            .str("meeting", &self.meeting)
            .str("media", self.media)
            .str("kind", self.kind)
            .str("state", self.state.as_str())
            .f64("value", self.value)
            .f64("threshold", self.threshold);
        o.finish()
    }
}

/// Per-window `(meeting, media)` aggregate the detector (and the
/// engine's QoE gauge update) evaluates. Only active streams
/// (`packets > 0`) contribute.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct WindowAgg {
    /// Sum of active streams' bitrates, bits per second.
    pub bitrate_bps: f64,
    /// Mean fps across active streams (0 when none report frames).
    pub fps_mean: f64,
    /// Mean jitter across streams that produced samples this window.
    pub jitter_mean: Option<f64>,
    /// Duplicate-sequence (retransmission-estimate) delta this window.
    pub duplicates: u64,
}

/// Aggregate a window's stream rows per `(meeting label, media slug,
/// family label)`. `BTreeMap` keying makes every downstream iteration
/// deterministic.
pub(crate) fn aggregate(
    report: &WindowReport,
) -> BTreeMap<(String, &'static str, &'static str), WindowAgg> {
    struct Acc {
        bitrate: f64,
        fps_sum: f64,
        streams: u64,
        jitter_sum: f64,
        jitter_n: u64,
        duplicates: u64,
    }
    let mut acc: BTreeMap<(String, &'static str, &'static str), Acc> = BTreeMap::new();
    for s in &report.streams {
        if s.packets == 0 {
            continue;
        }
        let meeting = s
            .meeting
            .map(|m| m.to_string())
            .unwrap_or_else(|| "none".to_string());
        let a = acc
            .entry((meeting, media_slug(s.media_type), s.family.label()))
            .or_insert(Acc {
                bitrate: 0.0,
                fps_sum: 0.0,
                streams: 0,
                jitter_sum: 0.0,
                jitter_n: 0,
                duplicates: 0,
            });
        a.bitrate += s.bitrate_bps;
        a.fps_sum += s.fps;
        a.streams += 1;
        if let Some(j) = s.jitter_ms {
            a.jitter_sum += j;
            a.jitter_n += 1;
        }
        a.duplicates += s.duplicates;
    }
    acc.into_iter()
        .map(|(k, a)| {
            (
                k,
                WindowAgg {
                    bitrate_bps: a.bitrate,
                    fps_mean: if a.streams > 0 {
                        a.fps_sum / a.streams as f64
                    } else {
                        0.0
                    },
                    jitter_mean: (a.jitter_n > 0).then(|| a.jitter_sum / a.jitter_n as f64),
                    duplicates: a.duplicates,
                },
            )
        })
        .collect()
}

/// Per-key episode state.
#[derive(Debug, Default, Clone)]
struct KeyState {
    low_fps: bool,
    high_jitter: bool,
    collapse: bool,
    /// Last healthy window's bitrate; frozen while `collapse` is set.
    baseline_bps: f64,
}

/// Stateful window-by-window degradation detector. Feed every closed
/// window in order via [`QoeWatch::observe`].
#[derive(Debug, Default)]
pub struct QoeWatch {
    states: BTreeMap<(String, &'static str, &'static str), KeyState>,
}

impl QoeWatch {
    /// Evaluate one closed window; returns the episode edges it caused,
    /// in deterministic `(meeting, media)` then kind order.
    pub fn observe(&mut self, report: &WindowReport) -> Vec<QoeAlert> {
        let agg = aggregate(report);
        let mut alerts = Vec::new();
        let mut edge = |key: &(String, &'static str, &'static str),
                        kind: &'static str,
                        state: AlertState,
                        value: f64,
                        threshold: f64| {
            alerts.push(QoeAlert {
                window: report.index,
                end_nanos: report.end_nanos,
                meeting: key.0.clone(),
                media: key.1,
                kind,
                state,
                value,
                threshold,
            });
        };

        for (key, a) in &agg {
            let s = self.states.entry(key.clone()).or_default();

            // fps floor: meaningful for video only — audio and screen
            // share carry no comparable frame cadence.
            let low = key.1 == "video" && a.fps_mean < FPS_FLOOR;
            if low != s.low_fps {
                let state = if low {
                    AlertState::Degraded
                } else {
                    AlertState::Recovered
                };
                edge(key, "low_fps", state, a.fps_mean, FPS_FLOOR);
                s.low_fps = low;
            }

            // jitter ceiling: evaluated when the window produced
            // samples; a sampleless window reads as recovered.
            let jitter = a.jitter_mean.unwrap_or(0.0);
            let high = a.jitter_mean.is_some_and(|j| j > JITTER_CEILING_MS);
            if high != s.high_jitter {
                let state = if high {
                    AlertState::Degraded
                } else {
                    AlertState::Recovered
                };
                edge(key, "high_jitter", state, jitter, JITTER_CEILING_MS);
                s.high_jitter = high;
            }

            // bitrate collapse with a frozen-baseline hysteresis.
            let floor = COLLAPSE_RATIO * s.baseline_bps;
            if !s.collapse {
                if s.baseline_bps > 0.0 && a.bitrate_bps < floor {
                    edge(
                        key,
                        "bitrate_collapse",
                        AlertState::Degraded,
                        a.bitrate_bps,
                        floor,
                    );
                    s.collapse = true; // baseline stays frozen
                } else {
                    s.baseline_bps = a.bitrate_bps;
                }
            } else if a.bitrate_bps >= floor {
                edge(
                    key,
                    "bitrate_collapse",
                    AlertState::Recovered,
                    a.bitrate_bps,
                    floor,
                );
                s.collapse = false;
                s.baseline_bps = a.bitrate_bps;
            }
        }

        // Meetings absent from this window (ended, evicted, or idle)
        // recover every open episode and drop their state.
        self.states.retain(|key, s| {
            if agg.contains_key(key) {
                return true;
            }
            for (kind, open) in [
                ("low_fps", s.low_fps),
                ("high_jitter", s.high_jitter),
                ("bitrate_collapse", s.collapse),
            ] {
                if open {
                    alerts.push(QoeAlert {
                        window: report.index,
                        end_nanos: report.end_nanos,
                        meeting: key.0.clone(),
                        media: key.1,
                        kind,
                        state: AlertState::Recovered,
                        value: 0.0,
                        threshold: 0.0,
                    });
                }
            }
            false
        });
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Direction;
    use crate::report::{StreamWindow, WindowTotals};
    use crate::stream::StreamKey;
    use std::net::{IpAddr, Ipv4Addr};
    use zoom_wire::flow::FiveTuple;
    use zoom_wire::zoom::MediaType;

    fn row(meeting: Option<u32>, fps: f64, bitrate: f64, jitter: Option<f64>) -> StreamWindow {
        StreamWindow {
            key: StreamKey {
                flow: FiveTuple {
                    src_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                    dst_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
                    src_port: 1000,
                    dst_port: 8801,
                    protocol: zoom_wire::ipv4::Protocol::Udp,
                },
                ssrc: 1,
            },
            media_type: MediaType::Video,
            direction: Direction::ToServer,
            family: zoom_wire::family::FamilyId::Zoom,
            meeting,
            packets: 10,
            media_bytes: (bitrate / 8.0) as u64,
            frames: fps as u64,
            bitrate_bps: bitrate,
            fps,
            jitter_ms: jitter,
            lost: 0,
            duplicates: 0,
            evicted: false,
        }
    }

    fn window(index: u64, streams: Vec<StreamWindow>) -> WindowReport {
        WindowReport {
            index,
            start_nanos: index * 1_000_000_000,
            end_nanos: (index + 1) * 1_000_000_000,
            totals: WindowTotals::default(),
            meetings: Vec::new(),
            streams,
        }
    }

    #[test]
    fn fps_episode_opens_once_and_closes_on_recovery() {
        let mut w = QoeWatch::default();
        assert!(w
            .observe(&window(0, vec![row(Some(1), 25.0, 1e6, None)]))
            .is_empty());
        let a = w.observe(&window(1, vec![row(Some(1), 4.0, 1e6, None)]));
        assert_eq!(a.len(), 1);
        assert_eq!((a[0].kind, a[0].state), ("low_fps", AlertState::Degraded));
        // Still degraded: no repeat alert.
        assert!(w
            .observe(&window(2, vec![row(Some(1), 3.0, 1e6, None)]))
            .is_empty());
        let a = w.observe(&window(3, vec![row(Some(1), 24.0, 1e6, None)]));
        assert_eq!(a.len(), 1);
        assert_eq!((a[0].kind, a[0].state), ("low_fps", AlertState::Recovered));
    }

    #[test]
    fn collapse_baseline_freezes_until_recovery() {
        let mut w = QoeWatch::default();
        assert!(w
            .observe(&window(0, vec![row(Some(1), 25.0, 1_000_000.0, None)]))
            .is_empty());
        let a = w.observe(&window(1, vec![row(Some(1), 25.0, 100_000.0, None)]));
        assert_eq!(
            (a[0].kind, a[0].state),
            ("bitrate_collapse", AlertState::Degraded)
        );
        assert_eq!(a[0].threshold, 500_000.0);
        // 200 kbps is double the collapsed rate but still under half the
        // frozen 1 Mbps baseline — the episode stays open.
        assert!(w
            .observe(&window(2, vec![row(Some(1), 25.0, 200_000.0, None)]))
            .is_empty());
        let a = w.observe(&window(3, vec![row(Some(1), 25.0, 600_000.0, None)]));
        assert_eq!(
            (a[0].kind, a[0].state),
            ("bitrate_collapse", AlertState::Recovered)
        );
    }

    #[test]
    fn vanished_meeting_recovers_open_episodes() {
        let mut w = QoeWatch::default();
        w.observe(&window(0, vec![row(Some(1), 4.0, 1e6, Some(80.0))]));
        let a = w.observe(&window(1, Vec::new()));
        let kinds: Vec<_> = a.iter().map(|x| (x.kind, x.state)).collect();
        assert_eq!(
            kinds,
            [
                ("low_fps", AlertState::Recovered),
                ("high_jitter", AlertState::Recovered),
            ]
        );
        // State dropped: nothing further.
        assert!(w.observe(&window(2, Vec::new())).is_empty());
    }

    #[test]
    fn alert_json_is_pinned() {
        let a = QoeAlert {
            window: 3,
            end_nanos: 4_000_000_000,
            meeting: "1".into(),
            media: "video",
            kind: "low_fps",
            state: AlertState::Degraded,
            value: 4.0,
            threshold: 10.0,
        };
        assert_eq!(
            a.to_json(),
            "{\"type\":\"qoe_alert\",\"window\":3,\"end_nanos\":4000000000,\
             \"meeting\":\"1\",\"media\":\"video\",\"kind\":\"low_fps\",\
             \"state\":\"degraded\",\"value\":4,\"threshold\":10}"
        );
    }
}

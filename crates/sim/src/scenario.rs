//! Canned scenarios used by examples, tests, and the experiment harness.
//!
//! Each function returns a ready-to-run configuration that mirrors one of
//! the paper's experimental setups, so every table/figure regenerator and
//! every integration test shares identical, documented workloads.

use crate::campus::{CampusConfig, CampusScenario};
use crate::infra::Infrastructure;
use crate::meeting::{AudioParams, MeetingConfig, ParticipantConfig, VideoParams};
use crate::path::validation_bursts;
use crate::time::{Nanos, SEC};
use std::net::Ipv4Addr;

/// Default campus client subnet used across scenarios.
pub const CAMPUS_NET: &str = "10.8.0.0/16";

/// Default SFU address for single-meeting scenarios (inside Zoom's
/// 170.114.0.0/16, covered by the sample IP list).
pub const DEFAULT_SFU: Ipv4Addr = Ipv4Addr::new(170, 114, 1, 10);
/// Default zone-controller (STUN) address.
pub const DEFAULT_ZC: Ipv4Addr = Ipv4Addr::new(170, 114, 2, 20);

/// The paper's validation experiment (§5, Fig. 10): a two-person
/// SFU meeting, 5–6 minutes long, with cross-traffic injected twice for
/// 10–20 s. One participant is on campus (the instrumented "SDK client"),
/// the other off campus.
pub fn validation_experiment(seed: u64) -> MeetingConfig {
    let duration = 330 * SEC; // 5.5 minutes
                              // Both clients sit on campus, as in the paper's controlled runs —
                              // which is what makes Method-1 RTT estimation possible: the second
                              // client's uplink stream is forwarded back through the border tap to
                              // the first.
    let sender = ParticipantConfig {
        video: Some(VideoParams {
            bitrate: 700_000.0,
            fps: 28.0,
            motion: 1.1,
            reduced: false,
        }),
        ..ParticipantConfig::standard(Ipv4Addr::new(10, 8, 7, 7), 0, duration)
    };
    // The competing download runs at the instrumented "SDK" client
    // (where the paper ran its bandwidth test): its WAN legs congest
    // around t≈100 s and t≈210 s, raising its latency and — through the
    // receiver-feedback loop — driving the remote sender's rate down.
    let sdk_client = ParticipantConfig {
        congestion: validation_bursts(100 * SEC, 210 * SEC),
        ..ParticipantConfig::standard(Ipv4Addr::new(10, 8, 3, 3), 0, duration)
    };
    MeetingConfig {
        id: 99,
        sfu_ip: DEFAULT_SFU,
        zc_ip: DEFAULT_ZC,
        participants: vec![sdk_client, sender],
        p2p_switch_at: None,
        control_tcp: true,
        keepalives: true,
        seed,
    }
}

/// A two-party meeting that switches to P2P (Fig. 2 / §4.1): campus
/// client and off-campus peer, switch ~20 s in.
pub fn p2p_meeting(seed: u64, duration: Nanos) -> MeetingConfig {
    MeetingConfig {
        id: 7,
        sfu_ip: DEFAULT_SFU,
        zc_ip: DEFAULT_ZC,
        participants: vec![
            ParticipantConfig::standard(Ipv4Addr::new(10, 8, 5, 5), 0, duration),
            ParticipantConfig {
                on_campus: false,
                ..ParticipantConfig::standard(Ipv4Addr::new(67, 40, 2, 2), 2 * SEC, duration)
            },
        ],
        p2p_switch_at: Some(20 * SEC),
        control_tcp: true,
        keepalives: true,
        seed,
    }
}

/// A multi-party meeting with mixed media: two campus participants (so
/// stream copies cross the monitor — the precondition for Method-1 RTT
/// estimation, §5.3), one off-campus mobile-audio sender, and a passive
/// off-campus participant, plus a screen sharer.
pub fn multi_party(seed: u64, duration: Nanos) -> MeetingConfig {
    MeetingConfig {
        id: 21,
        sfu_ip: DEFAULT_SFU,
        zc_ip: DEFAULT_ZC,
        participants: vec![
            // Campus participant A: video + audio + screen share.
            ParticipantConfig {
                screen_share: Some((30 * SEC, duration.saturating_sub(20 * SEC))),
                ..ParticipantConfig::standard(Ipv4Addr::new(10, 8, 1, 10), 0, duration)
            },
            // Campus participant B: thumbnail-mode video.
            ParticipantConfig {
                video: Some(VideoParams {
                    reduced: true,
                    ..VideoParams::default()
                }),
                ..ParticipantConfig::standard(Ipv4Addr::new(10, 8, 2, 20), 3 * SEC, duration)
            },
            // Off-campus sender on mobile audio.
            ParticipantConfig {
                on_campus: false,
                video: Some(VideoParams::default()),
                audio: Some(AudioParams {
                    mobile: true,
                    talk_fraction: 0.5,
                }),
                ..ParticipantConfig::standard(Ipv4Addr::new(151, 14, 8, 8), 5 * SEC, duration)
            },
            // Passive off-campus participant: invisible to the monitor.
            ParticipantConfig {
                on_campus: false,
                video: None,
                audio: None,
                ..ParticipantConfig::standard(Ipv4Addr::new(203, 6, 7, 8), 8 * SEC, duration)
            },
        ],
        p2p_switch_at: None,
        control_tcp: true,
        keepalives: true,
        seed,
    }
}

/// Meeting churn: several short, staggered meetings that start and end
/// throughout the trace, each with its own SFU and client subnet.
///
/// Streams from early meetings go permanently silent long before the
/// trace ends, which is exactly the workload the streaming engine's
/// idle-timeout eviction is for — `tests/streaming_differential.rs` uses
/// this to verify that evicted-stream report fragments still sum to the
/// batch totals and that the tracked-entry count stays bounded.
pub fn churn(seed: u64, duration: Nanos) -> Vec<MeetingConfig> {
    let n: u64 = 6;
    // Each meeting runs for a quarter of the trace; starts are spread so
    // the last one still finishes inside the trace.
    let dwell = duration / 4;
    let step = duration.saturating_sub(dwell) / (n - 1).max(1);
    (0..n)
        .map(|i| {
            let start = i * step;
            let end = start + dwell;
            let subnet = (i + 1) as u8;
            MeetingConfig {
                id: 100 + i as u32,
                sfu_ip: Ipv4Addr::new(170, 114, 1, 10 + i as u8),
                zc_ip: DEFAULT_ZC,
                participants: vec![
                    ParticipantConfig::standard(Ipv4Addr::new(10, 8, subnet, 1), start, end),
                    ParticipantConfig::standard(
                        Ipv4Addr::new(10, 8, subnet, 2),
                        start + SEC / 2,
                        end,
                    ),
                ],
                p2p_switch_at: None,
                control_tcp: true,
                keepalives: true,
                seed: seed.wrapping_add(i),
            }
        })
        .collect()
}

/// Campus `scale` behind [`campus_10x`], calibrated so one bench-length
/// (60 s) trace carries ~10x the [`churn`] scenario's meeting count.
pub const CAMPUS_10X_SCALE: f64 = 12.0;

/// The `campus-10x` workload — the standard heavy load
/// (`zoom-tools simulate --scenario campus-10x`): the campus study with its
/// `scale` knob cranked far past the default. The diurnal arrival model
/// needs tens of minutes to build concurrency, so a bench-length trace
/// buys its meeting population through scale instead of wall-clock
/// hours — at the default 60 s this lands ~10x the `churn` scenario's
/// meeting count, with meetings arriving, clipping, and leaving
/// throughout (heavy churn).
pub fn campus_10x(seed: u64, duration: Nanos) -> Vec<MeetingConfig> {
    let (scenario, _infra) = campus_study(seed, duration, CAMPUS_10X_SCALE, 0.0);
    scenario.meetings
}

/// The 12-hour campus study (Table 6, Figs. 14–17) at the given load
/// scale. `background_ratio > 0` adds non-Zoom traffic for capture-
/// pipeline experiments.
pub fn campus_study(
    seed: u64,
    duration: Nanos,
    scale: f64,
    background_ratio: f64,
) -> (CampusScenario, Infrastructure) {
    let infra = Infrastructure::generate();
    let scenario = CampusScenario::generate(
        CampusConfig {
            duration,
            scale,
            background_ratio,
            seed,
            ..Default::default()
        },
        &infra,
    );
    (scenario, infra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meeting::MeetingSim;

    #[test]
    fn validation_experiment_runs_to_completion() {
        let mut sim = MeetingSim::new(validation_experiment(1));
        let emitted = sim.by_ref().count();
        let gt = sim.ground_truth();
        assert!(emitted > 10_000);
        assert_eq!(gt.len(), 2);
        // The campus participant observed ~330 one-second QoS samples.
        assert!(gt[0].len() >= 300, "samples {}", gt[0].len());
        // Cross traffic raised true latency during the bursts.
        let calm: f64 = gt[0]
            .iter()
            .filter(|s| s.at > 20 * SEC && s.at < 90 * SEC)
            .map(|s| s.true_latency_ms)
            .sum::<f64>()
            / 70.0;
        let burst: f64 = gt[0]
            .iter()
            .filter(|s| s.at > 104 * SEC && s.at < 112 * SEC)
            .map(|s| s.true_latency_ms)
            .sum::<f64>()
            / 8.0;
        assert!(burst > calm + 10.0, "calm {calm:.1} burst {burst:.1}");
    }

    #[test]
    fn multi_party_has_screen_share_traffic() {
        let sim = MeetingSim::new(multi_party(2, 60 * SEC));
        let mut screen = 0;
        for r in sim {
            let d = zoom_wire::dissect::dissect(
                r.ts_nanos,
                &r.data,
                zoom_wire::pcap::LinkType::Ethernet,
                zoom_wire::dissect::P2pProbe::Off,
            )
            .unwrap();
            if let Some(z) = d.zoom() {
                if z.media.media_type == zoom_wire::zoom::MediaType::ScreenShare {
                    screen += 1;
                }
            }
        }
        assert!(screen > 20, "screen packets {screen}");
    }
}

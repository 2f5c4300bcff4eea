//! Grouping-heuristic validation against campus ground truth: the
//! analyzer's meeting count and participant estimates compared with what
//! the workload generator actually created (§4.3, Figs. 8 & 9).

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::campus::{CampusConfig, CampusScenario};
use zoom_sim::infra::Infrastructure;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;

#[test]
fn meeting_count_close_to_truth() {
    let infra = Infrastructure::generate();
    let scenario = CampusScenario::generate(
        CampusConfig {
            duration: 600 * SEC, // 10 minutes
            scale: 1.0 / 2.0,
            start_hour: 10.0,
            background_ratio: 0.0,
            seed: 21,
            ..Default::default()
        },
        &infra,
    );
    let truth_meetings = scenario.truth.len();
    assert!(truth_meetings >= 3, "workload too small: {truth_meetings}");
    // Ground truth for visible-participant comparison; meetings whose
    // campus participants are all passive can legitimately be missed.
    let truth_visible: usize = scenario.truth.iter().map(|t| t.active_participants).sum();

    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    for record in scenario.into_stream() {
        analyzer
            .push(record.ts_nanos, &record.data, LinkType::Ethernet)
            .expect("push");
    }
    let summary = analyzer.summary();
    // The heuristic may merge meetings (shared NAT'd client IPs) or miss
    // invisible ones, but must land in the right ballpark.
    assert!(
        summary.meetings >= truth_meetings / 2 && summary.meetings <= truth_meetings + 2,
        "estimated {} meetings vs {} true",
        summary.meetings,
        truth_meetings
    );

    // Participant estimates: the sum of visible clients is bounded by
    // the true active participant count (passivity and off-campus legs
    // only ever *hide* participants).
    let est_participants: usize = analyzer
        .meetings()
        .iter()
        .map(|m| m.participant_estimate)
        .sum();
    assert!(est_participants > 0);
    assert!(
        est_participants <= truth_visible + 2,
        "estimated {est_participants} vs visible truth {truth_visible}"
    );
}

#[test]
fn duplicate_streams_grouped_for_rtt() {
    // A meeting with two campus participants produces duplicate stream
    // groups (uplink + forwarded copy) — the prerequisite for Method-1
    // RTT (§4.3.1: "detecting stream copies ... is the only part of the
    // heuristic required for RTT estimation").
    use zoom_sim::meeting::MeetingSim;
    use zoom_sim::scenario;

    let sim = MeetingSim::new(scenario::validation_experiment(31));
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    for record in sim {
        analyzer
            .push(record.ts_nanos, &record.data, LinkType::Ethernet)
            .expect("push");
    }
    let groups = analyzer.duplicate_stream_groups();
    let multi: Vec<_> = groups.values().filter(|v| v.len() >= 2).collect();
    assert!(
        !multi.is_empty(),
        "no duplicate stream groups found: {groups:?}"
    );
    // Each multi-stream group must span distinct 5-tuples.
    for group in multi {
        let flows: std::collections::HashSet<_> = group.iter().map(|k| k.flow).collect();
        assert_eq!(flows.len(), group.len());
    }
}

#[test]
fn ssrc_collisions_across_meetings_do_not_merge() {
    // Two separate meetings reuse the same small SSRC values (the Zoom
    // behaviour §4.2.3 documents); random RTP timestamp origins keep
    // step 1 from falsely matching them.
    use std::net::Ipv4Addr;
    use zoom_sim::meeting::{MeetingConfig, MeetingSim, ParticipantConfig};

    let mk = |id: u32, client: Ipv4Addr, sfu: Ipv4Addr, seed: u64| MeetingConfig {
        id,
        sfu_ip: sfu,
        zc_ip: Ipv4Addr::new(170, 114, 2, 20),
        participants: vec![
            ParticipantConfig::standard(client, 0, 30 * SEC),
            ParticipantConfig {
                on_campus: false,
                ..ParticipantConfig::standard(Ipv4Addr::new(98, 1, 1, 9), 0, 30 * SEC)
            },
        ],
        p2p_switch_at: None,
        control_tcp: false,
        keepalives: false,
        seed,
    };
    // Same id modulo 8 → identical SSRC sets.
    let a = MeetingSim::new(mk(
        8,
        Ipv4Addr::new(10, 8, 1, 1),
        Ipv4Addr::new(170, 114, 5, 5),
        1,
    ));
    let b = MeetingSim::new(mk(
        16,
        Ipv4Addr::new(10, 8, 2, 2),
        Ipv4Addr::new(170, 114, 6, 6),
        2,
    ));

    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    // Interleave the two meetings' records by time.
    let mut records: Vec<_> = a.chain(b).collect();
    records.sort_by_key(|r| r.ts_nanos);
    for r in &records {
        analyzer
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    assert_eq!(analyzer.summary().meetings, 2);
}

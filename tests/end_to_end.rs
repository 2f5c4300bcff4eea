//! End-to-end integration: simulator → capture pipeline → analyzer, over
//! a multi-party meeting with mixed media.

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_capture::cidr::prefix_set;
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_capture::zoom_nets::{Owner, ZoomIpList, ZoomNetwork};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::MediaType;

fn zoom_list() -> ZoomIpList {
    ZoomIpList::from_networks(vec![ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: Owner::ZoomAs,
    }])
}

#[test]
fn multi_party_meeting_full_chain() {
    let sim = MeetingSim::new(scenario::multi_party(5, 90 * SEC));
    let mut capture = CapturePipeline::new(PipelineConfig {
        campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
        excluded_nets: Default::default(),
        zoom_list: zoom_list(),
        stun_timeout_nanos: 120 * SEC,
        anonymizer: None,
        family: zoom_wire::family::FamilySelect::Only(zoom_wire::family::FamilyId::Zoom),
    });
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());

    for record in sim {
        let (verdict, out) = capture.process_record(&record, LinkType::Ethernet);
        assert!(
            verdict.passes(),
            "every simulated packet is Zoom traffic, got {verdict:?}"
        );
        let out = out.unwrap();
        analyzer.process_packet(out.ts_nanos, &out.data, LinkType::Ethernet);
    }

    let summary = analyzer.summary();
    assert!(summary.zoom_packets > 10_000, "{summary:?}");
    assert_eq!(summary.meetings, 1, "all streams group into one meeting");
    // Streams: campus uplinks (audio+video+screen for A, audio+video for
    // B) plus downlink copies toward both campus clients.
    assert!(summary.rtp_streams >= 8, "streams {}", summary.rtp_streams);

    // All three media types observed.
    assert!(analyzer.streams().of_type(MediaType::Video).count() >= 2);
    assert!(analyzer.streams().of_type(MediaType::Audio).count() >= 2);
    assert!(analyzer.streams().of_type(MediaType::ScreenShare).count() >= 1);

    // Participant estimate: the two campus clients are visible; the
    // passive off-campus participant is invisible (Fig. 9 limitation).
    let meetings = analyzer.meetings();
    assert_eq!(meetings.len(), 1);
    assert_eq!(meetings[0].participant_estimate, 2);

    // Method-1 RTT: copies of campus uplinks come back to the other
    // campus client; nominal tap↔SFU RTT is 2×22 ms + 0.7 ms processing.
    let rtts = analyzer.rtp_rtt().totals();
    assert!(rtts.samples > 200, "rtt samples {}", rtts.samples);
    let mean = rtts.mean_ms().expect("samples");
    assert!((35.0..60.0).contains(&mean), "mean rtt {mean}");

    // Decoded fraction: the vast majority of packets are media/RTCP,
    // like Table 2's ~90 %.
    let (dp, _db) = analyzer.classifier().decoded_fraction();
    assert!(dp > 0.75, "decoded packet fraction {dp}");

    // Mobile participant's audio is PT 113 (AudioUnknownMode, Table 3).
    let (pt113_pkts, _) = analyzer.classifier().share(MediaType::Audio, 113);
    assert!(pt113_pkts > 0.0, "mobile PT 113 audio missing");
}

#[test]
fn p2p_meeting_stays_one_meeting_across_switch() {
    let sim = MeetingSim::new(scenario::p2p_meeting(9, 60 * SEC));
    let mut capture = CapturePipeline::new(PipelineConfig {
        campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
        excluded_nets: Default::default(),
        zoom_list: zoom_list(),
        stun_timeout_nanos: 120 * SEC,
        anonymizer: None,
        family: zoom_wire::family::FamilySelect::Only(zoom_wire::family::FamilyId::Zoom),
    });
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let mut p2p_passed = 0u64;
    for record in sim {
        let (verdict, out) = capture.process_record(&record, LinkType::Ethernet);
        assert!(verdict.passes(), "{verdict:?}");
        if verdict == zoom_capture::pipeline::Verdict::ZoomP2p {
            p2p_passed += 1;
        }
        let out = out.unwrap();
        analyzer.process_packet(out.ts_nanos, &out.data, LinkType::Ethernet);
    }
    assert!(p2p_passed > 1_000, "p2p packets {p2p_passed}");

    let summary = analyzer.summary();
    // Streams exist in both SFU mode (before the switch) and P2P mode;
    // the grouping heuristic must keep them in ONE meeting via RTP-state
    // continuity across the 5-tuple change (§4.3 step 1).
    assert_eq!(summary.meetings, 1, "P2P transition split the meeting");
    let p2p_streams = analyzer
        .streams()
        .iter()
        .filter(|s| !s.key.flow.involves_port(8801))
        .count();
    assert!(p2p_streams >= 1, "p2p streams {p2p_streams}");
}

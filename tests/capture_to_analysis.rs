//! Capture-pipeline ↔ analyzer integration: filtering from a mixed feed,
//! anonymization, and exclusion behaviour.

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, Verdict};
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::cidr::Cidr;
use zoom_wire::pcap::LinkType;

fn mixed_feed() -> (
    zoom_sim::campus::CampusStream,
    zoom_sim::infra::Infrastructure,
) {
    // Seed chosen so the 5-minute window draws a healthy number of campus
    // meetings under the workspace PRNG (see vendor/README.md): 3 meetings,
    // 10 on-campus participants.
    let (scenario, infra) = scenario::campus_study(5, 300 * SEC, 1.0 / 5.0, 4.0);
    (scenario.into_stream(), infra)
}

#[test]
fn pipeline_filters_background_and_keeps_zoom() {
    let (stream, infra) = mixed_feed();
    let mut capture = CapturePipeline::new(PipelineConfig {
        zoom_list: infra.ip_list.clone(),
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    for record in stream {
        let (_, out) = capture.process_record(&record, LinkType::Ethernet);
        if let Some(out) = out {
            analyzer
                .push(out.ts_nanos, &out.data, LinkType::Ethernet)
                .expect("push");
        }
    }
    let c = capture.counters();
    assert!(c.dropped > 0, "background must be dropped");
    assert!(c.passed > 0, "zoom must pass");
    // Background runs at ~4× the long-run average Zoom rate; the short
    // window's actual Zoom share varies with the meeting draw, but must
    // be a strict minority-to-moderate share, never all or nothing.
    let pass_rate = c.passed as f64 / c.total as f64;
    assert!(
        (0.003..0.85).contains(&pass_rate),
        "pass rate {pass_rate:.3}"
    );
    assert!(c.passed > 1_000, "too little zoom traffic: {}", c.passed);
    // Whatever passed analyzes into streams and meetings.
    let summary = analyzer.summary();
    assert!(summary.rtp_streams > 0);
    assert!(summary.meetings > 0);
    // The analyzer saw essentially no non-Zoom packets: its Zoom packet
    // count ≈ what the pipeline passed (control/STUN included).
    assert!(summary.zoom_packets as f64 > 0.9 * c.passed as f64);
}

#[test]
fn anonymized_output_remains_fully_analyzable() {
    // Anonymize campus addresses prefix-preservingly; the analyzer —
    // configured for the *anonymized* campus prefix, as the researchers
    // in the paper were — must reconstruct the same meetings.
    let anonymizer = Anonymizer::new(0xfeed, Mode::PrefixPreserving);
    let campus_v4: std::net::Ipv4Addr = "10.8.0.0".parse().unwrap();
    let anon_campus = anonymizer.anonymize_v4(campus_v4);
    let anon_prefix = Cidr::new(anon_campus, 16);

    let run = |anon: Option<Anonymizer>, campus: Cidr| {
        let (stream, infra) = mixed_feed();
        let mut capture = CapturePipeline::new(PipelineConfig {
            zoom_list: infra.ip_list.clone(),
            anonymizer: anon,
            ..PipelineConfig::sample(scenario::CAMPUS_NET)
        });
        let mut analyzer = Analyzer::new(AnalyzerConfig {
            campus: vec![campus],
            ..AnalyzerConfig::default()
        });
        for record in stream {
            let (_, out) = capture.process_record(&record, LinkType::Ethernet);
            if let Some(out) = out {
                analyzer
                    .push(out.ts_nanos, &out.data, LinkType::Ethernet)
                    .expect("push");
            }
        }
        analyzer.summary()
    };

    let clear = run(None, Cidr::new(campus_v4, 16));
    let anonymized = run(Some(anonymizer), anon_prefix);
    assert_eq!(clear.rtp_streams, anonymized.rtp_streams);
    assert_eq!(clear.meetings, anonymized.meetings);
    assert_eq!(clear.zoom_packets, anonymized.zoom_packets);
}

#[test]
fn excluded_subnets_are_dropped_entirely() {
    // Enough meetings that clients land in both halves of the /16.
    let (scenario_obj, infra) = scenario::campus_study(13, 240 * SEC, 1.0 / 2.0, 0.0);
    let mut capture = CapturePipeline::new(PipelineConfig {
        // Exclude half the campus client space.
        excluded_nets: vec!["10.8.0.0/17".parse().unwrap()],
        zoom_list: infra.ip_list.clone(),
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });
    let mut excluded_seen = 0u64;
    for record in scenario_obj.into_stream() {
        let (verdict, out) = capture.process_record(&record, LinkType::Ethernet);
        if verdict == Verdict::Excluded {
            excluded_seen += 1;
            assert!(out.is_none());
        }
    }
    assert!(excluded_seen > 0, "nothing hit the excluded subnets");
}

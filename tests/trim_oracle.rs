//! The oracle for shipping headers instead of media: analysing a trace of
//! which every record has been cut down to its analysis prefix
//! (`zoom_wire::dissect::analysis_prefix` — what a `ZFRG` worker ships)
//! must print what analysing the trace itself prints, byte for byte.
//!
//! For every simulator scenario and every `--family` selection:
//!
//! * the batch report, every one-second window, the drain's final window
//!   and the drained report are identical;
//! * so is the ingest accounting — `bytes_in`, the `packet_size`
//!   histogram, every drop counter: it follows the wire, not the capture;
//! * nothing is dropped `truncated` that the full trace does not drop.
//!
//! A `tcpdump -s 256` copy of a Zoom trace must pass the same comparison:
//! the prefix of every record in one is shorter than that. (A WebRTC
//! session's DTLS handshake flights are not, and DTLS records are checked
//! against their own length: they must arrive whole.)

use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::obs::MetricsSnapshot;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::{MeetingConfig, MeetingSim};
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::analysis_prefix;
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

const LINK: LinkType = LinkType::Ethernet;

fn merged(configs: Vec<MeetingConfig>) -> Vec<Record> {
    let mut records: Vec<Record> = configs.into_iter().flat_map(MeetingSim::new).collect();
    records.sort_by_key(|r| r.ts_nanos);
    records
}

fn scenarios() -> Vec<(&'static str, Vec<Record>)> {
    // The diurnal arrival model works in whole minutes; a few of its
    // meetings are slice enough.
    let mut campus = scenario::campus_10x(7, 60 * SEC);
    campus.truncate(4);
    let mut campus = merged(campus);
    campus.truncate(40_000);
    vec![
        (
            "validation",
            merged(vec![scenario::validation_experiment(77)]),
        ),
        ("p2p", merged(vec![scenario::p2p_meeting(5, 20 * SEC)])),
        ("multi", merged(vec![scenario::multi_party(9, 15 * SEC)])),
        ("churn", merged(scenario::churn(3, 30 * SEC))),
        ("campus-10x slice", campus),
        ("webrtc", zoom_sim::webrtc::scenario(3, 20 * SEC)),
    ]
}

/// Every record cut to `keep(record)` bytes under its original length.
fn cut(records: &[Record], keep: impl Fn(&Record) -> usize) -> Vec<Record> {
    records
        .iter()
        .map(|r| Record {
            ts_nanos: r.ts_nanos,
            orig_len: r.orig_len,
            data: r.data[..keep(r).min(r.data.len())].to_vec(),
        })
        .collect()
}

/// Batch report, then every window line, the final window and the drained
/// report — fed the CLI's way, a capture batch at a time — and the two
/// sinks' metrics.
fn analyze(records: &[Record], family: FamilySelect) -> (String, MetricsSnapshot, MetricsSnapshot) {
    let config = || AnalyzerConfig {
        family,
        ..AnalyzerConfig::default()
    };
    let mut analyzer = Analyzer::new(config());
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: config(),
        window: Some(Duration::from_secs(1)),
        idle_timeout: Some(Duration::from_secs(10)),
        qoe: false,
    })
    .expect("valid engine config");
    let mut windows = String::new();
    let mut batch = RecordBatch::new();
    for chunk in records.chunks(128) {
        batch.clear();
        for r in chunk {
            batch.push(r.ts_nanos, r.orig_len, &r.data);
        }
        analyzer.push_batch(&batch, LINK).expect("push_batch");
        engine.push_batch(&batch, LINK).expect("push_batch");
        for w in engine.take_windows() {
            windows.push_str(&w.to_json());
            windows.push('\n');
        }
    }
    let batch_metrics = analyzer.metrics();
    let drained = engine.drain().expect("drain");
    let out = format!(
        "{}\n{windows}{}\n{}\n",
        analyzer.finish().expect("finish").to_json(),
        drained.final_window().to_json(),
        drained.report.to_json(),
    );
    (out, batch_metrics, drained.analyzer.metrics())
}

/// What of a snapshot depends on the records and not on the clock.
fn accounting(m: &MetricsSnapshot) -> impl PartialEq + std::fmt::Debug {
    (
        (m.packets_in, m.bytes_in, m.packet_size.clone()),
        (
            m.packets_classified,
            m.packets_not_zoom,
            m.classified_webrtc,
        ),
        (m.malformed_zme, m.malformed_srtp),
        (m.drop_non_ip, m.drop_non_transport, m.drop_truncated),
        (m.drop_malformed, m.drop_unsupported_link),
    )
}

#[test]
fn a_trimmed_trace_analyses_like_the_trace() {
    for (name, records) in scenarios() {
        let trimmed = cut(&records, |r| analysis_prefix(&r.data, LINK));
        let snapped = cut(&records, |_| 256);
        let snap_keeps_every_prefix = records
            .iter()
            .all(|r| analysis_prefix(&r.data, LINK) <= 256);
        assert_eq!(snap_keeps_every_prefix, name != "webrtc", "{name}");
        let bytes = |rs: &[Record]| rs.iter().map(|r| r.data.len()).sum::<usize>();
        assert!(
            bytes(&trimmed) * 10 < bytes(&records) * 3,
            "{name}: {} of {} bytes left",
            bytes(&trimmed),
            bytes(&records)
        );
        for family in [
            FamilySelect::Auto,
            FamilySelect::Only(FamilyId::Zoom),
            FamilySelect::Only(FamilyId::Webrtc),
        ] {
            let (full, full_batch, full_windowed) = analyze(&records, family);
            assert_eq!(full_batch.drop_truncated, 0, "{name}/{family}");
            for (how, cut) in [("trimmed", &trimmed), ("snapped at 256", &snapped)] {
                if how != "trimmed" && !snap_keeps_every_prefix {
                    continue;
                }
                let label = format!("{name}/{family}/{how}");
                let (out, batch, windowed) = analyze(cut, family);
                if out != full {
                    let at = out
                        .lines()
                        .zip(full.lines())
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    panic!("{label}: output differs from the full trace's at line {at}");
                }
                assert_eq!(accounting(&batch), accounting(&full_batch), "{label}");
                assert_eq!(accounting(&windowed), accounting(&full_windowed), "{label}");
            }
        }
    }
}

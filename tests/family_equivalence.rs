//! Equivalence suite for the protocol-family dispatch (STUN, then Zoom,
//! then WebRTC; `zoom_wire::family`).
//!
//! The family dispatch must be invisible on Zoom traffic: a
//! Zoom-only trace produces **byte-identical** report JSON whether the
//! analyzer runs with its default configuration, an explicit
//! `FamilySelect::Only(Zoom)`, or `FamilySelect::Auto` — through the
//! analyzer and the engine, windowed and unwindowed, batched and
//! per-record.
//!
//! The WebRTC family side is pinned too: a simulated WebRTC trace
//! classifies under `Auto` (and is untouched under `Only(Zoom)`), reads
//! the same through the engine as through the analyzer, batched or not,
//! and attributes
//! SRTP framing failures to `malformed_srtp` — never to Zoom's
//! `malformed_zme` stage.

use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::{AnalysisReport, WindowReport};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::{MS, SEC};
use zoom_wire::compose;
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

/// A Zoom-only trace that exercises both dispatch paths the refactor
/// touched: SFU media (multi-party) and the STUN-registered P2P second
/// chance, where the keep-alive claim now checks the WebRTC framing.
fn zoom_records() -> Vec<Record> {
    let mut records: Vec<Record> = MeetingSim::new(scenario::multi_party(3, 20 * SEC)).collect();
    records.extend(MeetingSim::new(scenario::p2p_meeting(5, 20 * SEC)));
    records.sort_by_key(|r| r.ts_nanos);
    records
}

fn webrtc_records() -> Vec<Record> {
    zoom_sim::webrtc::scenario(3, 5 * SEC)
}

fn family_config(select: FamilySelect) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .family(select)
        .build()
        .expect("valid config")
}

fn sequential_report(records: &[Record], config: AnalyzerConfig) -> AnalysisReport {
    let mut a = Analyzer::new(config);
    for r in records {
        a.push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    a.finish().expect("finish")
}

fn fill(batch: &mut RecordBatch, records: &[Record]) {
    batch.clear();
    for r in records {
        batch.push(r.ts_nanos, r.orig_len, &r.data);
    }
}

fn stream(
    records: &[Record],
    config: AnalyzerConfig,
    window: Option<Duration>,
    batch_size: Option<usize>,
) -> (Vec<WindowReport>, EngineOutput) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: config,
        window,
        idle_timeout: None,
        qoe: None,
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    match batch_size {
        None => {
            for r in records {
                engine
                    .push(r.ts_nanos, &r.data, LinkType::Ethernet)
                    .expect("push");
                windows.extend(engine.take_windows());
            }
        }
        Some(size) => {
            let mut batch = RecordBatch::new();
            for chunk in records.chunks(size) {
                fill(&mut batch, chunk);
                engine
                    .push_batch(&batch, LinkType::Ethernet)
                    .expect("push_batch");
                windows.extend(engine.take_windows());
            }
        }
    }
    let out = engine.drain().expect("drain");
    (windows, out)
}

fn assert_streams_identical(
    label: &str,
    got: &(Vec<WindowReport>, EngineOutput),
    want: &(Vec<WindowReport>, EngineOutput),
) {
    assert_eq!(got.0.len(), want.0.len(), "{label}: window count");
    for (i, (x, y)) in got.0.iter().zip(&want.0).enumerate() {
        assert_eq!(x.to_json(), y.to_json(), "{label}: window {i}");
    }
    assert_eq!(
        got.1.final_window().to_json(),
        want.1.final_window().to_json(),
        "{label}: final window"
    );
    assert_eq!(
        got.1.report.to_json(),
        want.1.report.to_json(),
        "{label}: final report"
    );
}

/// The family selector variants that must all be no-ops on Zoom traffic.
fn zoom_equivalent_selects() -> [FamilySelect; 2] {
    [FamilySelect::Only(FamilyId::Zoom), FamilySelect::Auto]
}

#[test]
fn zoom_report_invariant_across_family_selects() {
    let records = zoom_records();
    let want = sequential_report(&records, AnalyzerConfig::default());
    assert!(
        want.summary.zoom_packets > 0,
        "trace must carry Zoom traffic"
    );
    assert_eq!(
        want.summary.webrtc_packets, 0,
        "a Zoom-only trace must not classify as WebRTC"
    );
    assert!(
        want.families.is_empty(),
        "no family table on Zoom-only traces"
    );
    let want = want.to_json();
    for select in zoom_equivalent_selects() {
        let got = sequential_report(&records, family_config(select)).to_json();
        assert_eq!(got, want, "family select {select:?}");
    }
}

#[test]
fn zoom_engine_invariant_across_selects_and_batching() {
    let records = zoom_records();
    let want = stream(&records, AnalyzerConfig::default(), None, None);
    for select in zoom_equivalent_selects() {
        for batch_size in [None, Some(64usize)] {
            let got = stream(&records, family_config(select), None, batch_size);
            assert_streams_identical(&format!("{select:?}, batch {batch_size:?}"), &got, &want);
        }
    }
}

#[test]
fn zoom_windowed_engine_invariant_across_selects_and_batching() {
    let records = zoom_records();
    let window = Some(Duration::from_secs(2));
    let want = stream(&records, AnalyzerConfig::default(), window, None);
    assert!(want.0.len() > 3, "expected several 2s windows");
    for select in zoom_equivalent_selects() {
        for batch_size in [None, Some(4096usize)] {
            let got = stream(&records, family_config(select), window, batch_size);
            assert_streams_identical(
                &format!("windowed, {select:?}, batch {batch_size:?}"),
                &got,
                &want,
            );
        }
    }
}

#[test]
fn webrtc_trace_classifies_under_auto() {
    let records = webrtc_records();
    let report = sequential_report(&records, AnalyzerConfig::default());
    assert!(
        report.summary.webrtc_packets > 100,
        "WebRTC media must classify under Auto (got {})",
        report.summary.webrtc_packets
    );
    assert!(
        report.summary.webrtc_packets > report.summary.zoom_packets,
        "the trace is WebRTC-dominated"
    );
    assert!(!report.families.is_empty(), "Table-6 family rows expected");
    assert!(
        report.families.iter().all(|r| r.label == "webrtc"),
        "every classified family row is WebRTC"
    );
    assert!(!report.streams.is_empty(), "SRTP streams must be tracked");
    assert!(
        report.streams.iter().all(|s| s.family == FamilyId::Webrtc),
        "every stream belongs to the WebRTC family"
    );
    assert_eq!(
        report.drops.malformed_zme, 0,
        "WebRTC traffic must never hit Zoom's ZME drop stage"
    );
    assert_eq!(report.drops.malformed_srtp, 0, "clean trace: no SRTP drops");
}

#[test]
fn webrtc_trace_untouched_under_only_zoom() {
    let records = webrtc_records();
    let report = sequential_report(&records, family_config(FamilySelect::Only(FamilyId::Zoom)));
    assert_eq!(
        report.summary.webrtc_packets, 0,
        "Only(Zoom) must not classify WebRTC traffic"
    );
    assert!(
        report.families.is_empty(),
        "no family table without WebRTC packets"
    );
    assert!(
        report.streams.iter().all(|s| s.family == FamilyId::Zoom),
        "any tracked stream stays in the Zoom family"
    );
}

#[test]
fn webrtc_engine_deterministic_across_batching() {
    let records = webrtc_records();
    let want = stream(&records, AnalyzerConfig::default(), None, None);
    assert!(
        want.1.report.summary.webrtc_packets > 100,
        "baseline must classify WebRTC"
    );
    assert_eq!(
        want.1.report.to_json(),
        sequential_report(&records, AnalyzerConfig::default()).to_json(),
        "webrtc, engine vs analyzer"
    );
    let got = stream(&records, AnalyzerConfig::default(), None, Some(64));
    assert_streams_identical("webrtc, batch 64", &got, &want);
}

/// Satellite: drop attribution. A record on a flow with an observed
/// DTLS-SRTP handshake whose payload fails both family framings is a
/// WebRTC-family drop (`malformed_srtp`), not a Zoom one
/// (`malformed_zme`).
#[test]
fn srtp_framing_failure_attributed_to_webrtc_family() {
    let cfg = zoom_sim::webrtc::SessionConfig::single(7, 3 * SEC);
    let mut records = zoom_sim::webrtc::session_records(cfg);
    // Media type 15 (Audio) needs a 19-byte header, so Zoom's loose P2P
    // parse rejects this payload; version bits 0b00 reject it as SRTP
    // and byte 15 is no DTLS content type. Both framings fail — the
    // drop must land on the WebRTC flow's SRTP stage.
    let last_ts = records.last().expect("session records").ts_nanos;
    let data = compose::udp_ipv4_ethernet(
        cfg.client,
        cfg.peer,
        cfg.client_port,
        cfg.peer_port,
        &[15, 0, 0],
    );
    records.push(Record {
        ts_nanos: last_ts + MS,
        orig_len: data.len() as u32,
        data,
    });

    let (_, out) = stream(&records, AnalyzerConfig::default(), None, None);
    assert_eq!(
        out.report.drops.malformed_srtp, 1,
        "SRTP framing failure must count once"
    );
    assert_eq!(
        out.report.drops.malformed_zme, 0,
        "the drop must not leak into Zoom's ZME stage"
    );
    // Conservation per family: the malformed record is the only
    // non-classified one in the trace.
    assert_eq!(
        out.report.summary.total_packets,
        out.report.summary.zoom_packets + out.report.summary.webrtc_packets + 1,
        "exactly the malformed record stays unclassified"
    );
}

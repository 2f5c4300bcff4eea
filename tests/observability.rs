//! Integration tests for the observability layer: the conservation
//! invariant (`packets_in == packets_classified + packets_not_zoom +
//! drops`), identical drop accounting across the sequential and
//! streaming sinks, the drop section of the JSON report, the QoE
//! degradation detector (exact alert NDJSON sequence, gauge recovery),
//! and the per-source renders.

use std::time::Duration;

use proptest::prelude::*;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::obs::{MetricsSnapshot, PipelineMetrics};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::source::{PacketSource, ReplaySource};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

/// A frame too short for an Ethernet header: dissects as a truncated
/// drop.
fn truncated_frame() -> Vec<u8> {
    vec![0u8; 7]
}

/// A well-formed Ethernet frame carrying ARP: a non-IP drop.
fn non_ip_frame() -> Vec<u8> {
    let mut f = vec![0u8; 14];
    f[12] = 0x08;
    f[13] = 0x06;
    f
}

/// Ethernet + minimal IPv4 header with protocol 1 (ICMP): a
/// non-transport drop.
fn non_transport_frame() -> Vec<u8> {
    let mut f = vec![0u8; 34];
    f[12] = 0x08; // ethertype IPv4
    f[13] = 0x00;
    f[14] = 0x45; // version 4, IHL 5
    f[16] = 0x00; // total length 20
    f[17] = 0x14;
    f[22] = 64; // TTL
    f[23] = 1; // protocol ICMP
    f
}

/// A meeting trace with dissect garbage salted in at `every`-record
/// intervals, cycling through the three drop stages above. Returns the
/// records and the number of garbage frames inserted.
fn salted_records(seed: u64, secs: u64, every: usize) -> (Vec<Record>, u64) {
    let sim: Vec<Record> = MeetingSim::new(scenario::multi_party(seed, secs * SEC)).collect();
    let mut out = Vec::with_capacity(sim.len() + sim.len() / every + 1);
    let mut garbage = 0u64;
    for (i, r) in sim.into_iter().enumerate() {
        if i % every == 0 {
            let frame = match garbage % 3 {
                0 => truncated_frame(),
                1 => non_ip_frame(),
                _ => non_transport_frame(),
            };
            out.push(Record::full(r.ts_nanos, frame));
            garbage += 1;
        }
        out.push(r);
    }
    (out, garbage)
}

fn feed<S: PacketSink>(sink: &mut S, records: &[Record]) {
    for r in records {
        sink.push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
}

/// The full accounting vector a sink exposes; two sinks that saw the
/// same trace must agree on every component.
fn accounting(m: &MetricsSnapshot) -> [u64; 9] {
    [
        m.packets_in,
        m.packets_classified,
        m.packets_not_zoom,
        m.malformed_zme,
        m.drop_unsupported_link,
        m.drop_non_ip,
        m.drop_non_transport,
        m.drop_truncated,
        m.drop_malformed,
    ]
}

#[test]
fn sequential_sink_conserves_and_attributes_drops() {
    let (records, garbage) = salted_records(7, 20, 50);
    let mut a = Analyzer::new(AnalyzerConfig::default());
    feed(&mut a, &records);
    let m = a.metrics();
    assert_eq!(m.packets_in, records.len() as u64);
    assert_eq!(m.drops_total(), garbage);
    assert!(m.drop_truncated > 0);
    assert!(m.drop_non_ip > 0);
    assert!(m.drop_non_transport > 0);
    assert!(m.conservation_holds(), "conservation: {m:?}");
}

#[test]
fn report_json_surfaces_drop_counters_and_truncation() {
    let (records, _) = salted_records(11, 15, 40);
    let mut a = Analyzer::new(AnalyzerConfig::default());
    feed(&mut a, &records);
    a.note_pcap_truncated(3);
    let report = a.finish().expect("finish");
    assert_eq!(report.drops.pcap_truncated, 3);
    assert!(report.drops.truncated > 0);
    let json = report.to_json();
    assert!(json.contains("\"drops\":{"), "missing drops section");
    assert!(json.contains("\"pcap_truncated\":3"), "missing truncation");
}

#[test]
fn metrics_json_and_prom_agree_on_totals() {
    let (records, garbage) = salted_records(3, 15, 30);
    let mut a = Analyzer::new(AnalyzerConfig::default());
    feed(&mut a, &records);
    let m = a.metrics();
    let json = m.to_json();
    assert!(json.contains("\"conservation_holds\":true"));
    assert!(json.contains(&format!("\"packets_in\":{}", records.len())));
    let prom = m.to_prom();
    assert!(prom.contains("zoom_packets_in_total"));
    assert!(prom.contains(&format!("zoom_packets_in_total {}", records.len())));
    let dropped: u64 = prom
        .lines()
        .filter(|l| l.starts_with("zoom_dissect_drops_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(dropped, garbage);
}

/// Runs the streaming engine over the records and returns the quiesced
/// accounting snapshot.
fn engine_accounting(records: &[Record], window: Option<Duration>) -> [u64; 9] {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: false,
    })
    .expect("engine");
    feed(&mut engine, records);
    let _ = engine.take_windows();
    let out = engine.drain().expect("drain");
    accounting(&out.analyzer.metrics())
}

// ------------------------------------------------------ QoE detector --

/// One ZME-wrapped video packet toward the SFU: the same shape as the
/// engine's unit-test traffic, with caller-controlled arrival time and
/// RTP timestamp so the scenario can script fps drops and jitter
/// spikes.
fn qoe_video_record(ts: u64, seq: u16, rtp_ts: u32) -> Record {
    use zoom_wire::{compose, rtp, zoom};
    let payload = zoom::Builder {
        sfu: Some(zoom::SfuEncapRepr {
            encap_type: zoom::SFU_TYPE_MEDIA,
            sequence: seq,
            direction: zoom::DIR_TO_SFU,
        }),
        media: zoom::MediaEncapRepr {
            media_type: zoom::MediaType::Video,
            sequence: seq,
            timestamp: (ts / 1_000_000) as u32,
            frame_sequence: Some(seq),
            packets_in_frame: Some(1),
        },
        rtp: Some(rtp::Repr {
            marker: true,
            payload_type: 98,
            sequence_number: seq,
            timestamp: rtp_ts,
            ssrc: 0x77,
            csrc_count: 0,
            has_extension: false,
        }),
        payload: vec![0xA5; 700],
    }
    .build();
    let data = compose::udp_ipv4_ethernet(
        std::net::Ipv4Addr::new(10, 8, 0, 1),
        std::net::Ipv4Addr::new(170, 114, 0, 1),
        50_000,
        8801,
        &payload,
    );
    Record::full(ts, data)
}

const MS: u64 = 1_000_000;

/// A scripted churn-style vignette on one video stream, 2-second
/// windows:
///
/// * windows 0–1 (0–4 s): healthy — 30 fps, clean 33 ms cadence;
/// * windows 2–3 (4–8 s): degraded — 5 fps with ±150 ms arrival
///   displacement against a steady RTP clock (fps floor break, jitter
///   spike, and a >50% bitrate collapse all at once);
/// * windows 4–5 (8–12 s): recovered — healthy cadence again.
fn qoe_scenario() -> Vec<Record> {
    let mut out = Vec::new();
    let mut seq: u16 = 0;
    let mut push = |ts: u64, rtp_ts: u32| {
        seq += 1;
        out.push(qoe_video_record(ts, seq, rtp_ts));
    };
    for i in 0..120u64 {
        // 90 kHz RTP clock tracking arrival exactly.
        push(i * 33 * MS, (i * 33 * 90) as u32);
    }
    let deg_base = 4_000 * MS;
    let deg_rtp = 120 * 33 * 90;
    for i in 0..20u64 {
        // Nominal 200 ms cadence; odd packets arrive 150 ms late with an
        // on-schedule RTP timestamp -> transit swings of 150 ms.
        let displace = if i % 2 == 1 { 150 * MS } else { 0 };
        push(
            deg_base + i * 200 * MS + displace,
            (deg_rtp + i * 200 * 90) as u32,
        );
    }
    let rec_base = 8_000 * MS;
    let rec_rtp = deg_rtp + 20 * 200 * 90;
    for i in 0..182u64 {
        // Runs past 12 s so window 5 (10–12 s) closes and the jitter
        // estimator has decayed back under the ceiling.
        push(rec_base + i * 33 * MS, (rec_rtp + i * 33 * 90) as u32);
    }
    out
}

/// Feed the scenario through a QoE-watching engine; returns each
/// alert's NDJSON line (in emission order), the degraded-gauge state
/// observed right after the alert fired, and the quiesced metrics.
fn run_qoe(records: &[Record]) -> (Vec<String>, Vec<(String, u64)>, MetricsSnapshot) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(Duration::from_secs(2)),
        idle_timeout: None,
        qoe: true,
    })
    .expect("engine");
    let mut ndjson = Vec::new();
    let mut gauge_trail = Vec::new();
    for r in records {
        engine
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        let alerts = engine.take_alerts();
        if !alerts.is_empty() {
            for a in &alerts {
                ndjson.push(a.to_json());
            }
            // Observe the gauge family as the operator would, right
            // after the alerts fired.
            for (labels, v) in engine.metrics().qoe.degraded {
                gauge_trail.push((labels.join("/"), v));
            }
        }
    }
    let _ = engine.take_windows();
    let out = engine.drain().expect("drain");
    (ndjson, gauge_trail, out.analyzer.metrics())
}

#[test]
fn qoe_alert_ndjson_sequence_is_exact_and_gauge_clears() {
    let records = qoe_scenario();
    let (ndjson, gauge_trail, metrics) = run_qoe(&records);
    // The scenario is fully scripted, so the alert stream is pinned
    // byte-for-byte: the fps drop and bitrate collapse trip in the first
    // fully-degraded window (window 2), the RFC 3550 jitter estimator
    // crosses its ceiling one window later, and everything recovers once
    // the healthy cadence resumes (jitter last, since the estimator
    // decays with a 1/16 gain).
    assert_eq!(
        ndjson,
        [
            r#"{"type":"qoe_alert","window":2,"end_nanos":6000000000,"meeting":"0","media":"video","kind":"low_fps","state":"degraded","value":5,"threshold":10}"#,
            r#"{"type":"qoe_alert","window":2,"end_nanos":6000000000,"meeting":"0","media":"video","kind":"bitrate_collapse","state":"degraded","value":28000,"threshold":82600}"#,
            r#"{"type":"qoe_alert","window":3,"end_nanos":8000000000,"meeting":"0","media":"video","kind":"high_jitter","state":"degraded","value":83.30987503628202,"threshold":50}"#,
            r#"{"type":"qoe_alert","window":4,"end_nanos":10000000000,"meeting":"0","media":"video","kind":"low_fps","state":"recovered","value":30.5,"threshold":10}"#,
            r#"{"type":"qoe_alert","window":4,"end_nanos":10000000000,"meeting":"0","media":"video","kind":"bitrate_collapse","state":"recovered","value":170800,"threshold":82600}"#,
            r#"{"type":"qoe_alert","window":5,"end_nanos":12000000000,"meeting":"0","media":"video","kind":"high_jitter","state":"recovered","value":1.2214434597768484,"threshold":50}"#,
        ]
    );
    // The zoom_qoe_degraded gauge tracks the alert stream: each kind
    // goes to 1 when it degrades and clears to 0 on recovery, ending
    // with every series at 0.
    let g = |kind: &str, v: u64| (format!("0/{kind}"), v);
    assert_eq!(
        gauge_trail,
        [
            // after window 2: fps + bitrate degraded
            g("bitrate_collapse", 1),
            g("low_fps", 1),
            // after window 3: jitter joins them
            g("bitrate_collapse", 1),
            g("high_jitter", 1),
            g("low_fps", 1),
            // after window 4: fps + bitrate recovered
            g("bitrate_collapse", 0),
            g("high_jitter", 1),
            g("low_fps", 0),
            // after window 5: everything clear
            g("bitrate_collapse", 0),
            g("high_jitter", 0),
            g("low_fps", 0),
        ]
    );
    assert!(metrics.conservation_holds());
}

/// Every per-source render lists each source once, with its own
/// counters and nothing of a hand-off ring: the fan-in reads every source
/// in-line.
#[test]
fn every_render_lists_each_source_with_its_own_counters() {
    let records: Vec<Record> = (0..300).map(|i| Record::full(i, vec![0; 60])).collect();
    let sources: Vec<Box<dyn PacketSource>> = ["replay:file", "replay:tap"]
        .iter()
        .map(|label| {
            Box::new(ReplaySource::new(
                label,
                LinkType::Ethernet,
                records.clone(),
            )) as Box<dyn PacketSource>
        })
        .collect();
    let metrics = PipelineMetrics::new();
    let mut mux = CaptureMux::start(sources, MuxConfig, Some(&metrics));
    let mut batch = RecordBatch::new();
    while mux
        .next_batch(&mut batch, 128)
        .expect("mux batch")
        .is_some()
    {
        metrics.record_batch_in(&batch);
        metrics.packets_not_zoom.add(batch.len() as u64);
    }
    mux.finish().unwrap();

    let snap = metrics.snapshot();
    assert!(snap.conservation_holds());
    let json = snap.to_json();
    assert!(
        json.contains(concat!(
            r#""sources":[{"source":"replay:file","packets":300,"bytes":18000,"#,
            r#""batches":3,"delivered_ts_nanos":299},{"source":"replay:tap","packets":300,"#
        )),
        "{json}"
    );
    let prom = snap.to_prom();
    assert!(
        prom.contains(concat!(
            "zoom_source_packets_total{source=\"replay:file\"} 300\n",
            "zoom_source_packets_total{source=\"replay:tap\"} 300\n",
        )),
        "{prom}"
    );
    let debug = metrics.debug_json();
    assert!(
        debug.contains(r#"{"source":"replay:file","packets":300,"delivered_ts_nanos":299,"#),
        "{debug}"
    );
    for render in [&json, &prom, &debug] {
        assert!(
            !render.contains("\"lane\"") && !render.contains("lane="),
            "{render}"
        );
        assert!(!render.contains("ring_"), "{render}");
    }
}

proptest! {
    /// The drop/classification accounting is a property of the trace,
    /// not of the sink: the sequential analyzer and the engine —
    /// windowed or not — must produce the identical accounting vector,
    /// and it must satisfy the conservation invariant.
    #[test]
    fn drop_accounting_identical_across_sinks(
        seed in 0u64..10_000,
        secs in 12u64..16,
        every in 20usize..60,
        windowed in proptest::arbitrary::any::<bool>(),
    ) {
        let (records, garbage) = salted_records(seed, secs, every);
        let window = windowed.then(|| Duration::from_secs(5));

        let mut seq = Analyzer::new(AnalyzerConfig::default());
        feed(&mut seq, &records);
        let baseline = accounting(&seq.metrics());
        prop_assert_eq!(
            baseline[4] + baseline[5] + baseline[6] + baseline[7] + baseline[8],
            garbage
        );
        // Conservation: packets_in == classified + not_zoom + Σ drops.
        prop_assert_eq!(
            baseline[0],
            baseline[1] + baseline[2] + baseline[4] + baseline[5]
                + baseline[6] + baseline[7] + baseline[8]
        );

        prop_assert_eq!(
            engine_accounting(&records, window),
            baseline,
            "window {:?}",
            window
        );
    }
}

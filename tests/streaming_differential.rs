//! Differential tests for the streaming engine: windowed, bounded-memory
//! analysis must not change what gets measured.
//!
//! * With no window and no eviction, `StreamingEngine::drain` must emit a
//!   report **byte-identical** to the sequential `Analyzer::finish`.
//! * With windows enabled, every windowed counter is a delta: summing a
//!   stream's deltas over all windows reproduces its whole-trace counters
//!   exactly, and the end-of-trace report is still byte-identical.
//! * With idle eviction enabled on a meeting-churn workload, evicted
//!   report fragments plus live rows still sum to the batch totals, and
//!   the peak tracked-entry count is strictly lower than without
//!   eviction.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::{AnalysisReport, WindowReport};
use zoom_analysis::stream::StreamKey;
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, Writer};

fn batch_report(records: &[Record]) -> AnalysisReport {
    let mut a = Analyzer::new(AnalyzerConfig::default());
    for r in records {
        a.push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    a.finish().expect("finish")
}

fn stream_run(
    records: &[Record],
    window: Option<Duration>,
    idle_timeout: Option<Duration>,
) -> (Vec<WindowReport>, EngineOutput) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout,
        qoe: false,
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    for r in records {
        engine
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        windows.extend(engine.take_windows());
    }
    let out = engine.drain().expect("drain");
    (windows, out)
}

fn churn_records(seed: u64, duration_secs: u64) -> Vec<Record> {
    let mut records: Vec<Record> = scenario::churn(seed, duration_secs * SEC)
        .into_iter()
        .flat_map(MeetingSim::new)
        .collect();
    records.sort_by_key(|r| r.ts_nanos);
    records
}

/// Per-key counter totals, summed over report rows or window deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    packets: u64,
    media_bytes: u64,
    frames: u64,
    lost: u64,
    duplicates: u64,
}

fn report_totals(report: &AnalysisReport) -> BTreeMap<StreamKey, Totals> {
    let mut map: BTreeMap<StreamKey, Totals> = BTreeMap::new();
    for s in &report.streams {
        let t = map.entry(s.key).or_default();
        t.packets += s.packets;
        t.media_bytes += s.media_bytes;
        t.frames += s.frames;
        t.lost += s.lost;
        t.duplicates += s.duplicates;
    }
    map
}

fn window_totals<'a>(
    windows: impl Iterator<Item = &'a WindowReport>,
) -> BTreeMap<StreamKey, Totals> {
    let mut map: BTreeMap<StreamKey, Totals> = BTreeMap::new();
    for w in windows {
        for s in &w.streams {
            let t = map.entry(s.key).or_default();
            t.packets += s.packets;
            t.media_bytes += s.media_bytes;
            t.frames += s.frames;
            t.lost += s.lost;
            t.duplicates += s.duplicates;
        }
    }
    map
}

#[test]
fn unwindowed_streaming_report_is_byte_identical_to_batch() {
    // The P2P meeting is recognized through the STUN endpoint registry.
    for (name, config) in [
        ("multi", scenario::multi_party(3, 60 * SEC)),
        ("p2p", scenario::p2p_meeting(7, 120 * SEC)),
    ] {
        let records: Vec<Record> = MeetingSim::new(config).collect();
        assert!(records.len() > 1_000, "{name}");
        let batch = batch_report(&records);
        assert!(batch.summary.rtp_streams > 0, "{name}");
        let (windows, out) = stream_run(&records, None, None);
        assert!(windows.is_empty(), "{name}: no window configured");
        assert_eq!(out.report.to_json(), batch.to_json(), "{name}: final JSON");
    }
}

#[test]
fn window_deltas_sum_to_batch_totals_without_eviction() {
    let records: Vec<Record> = MeetingSim::new(scenario::multi_party(9, 45 * SEC)).collect();
    let batch = batch_report(&records);
    let per_key = report_totals(&batch);
    let (windows, out) = stream_run(&records, Some(Duration::from_secs(10)), None);
    assert!(windows.len() >= 4, "{}", windows.len());
    // Window indices are consecutive from zero; the drain fragment
    // continues past the last closed window.
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index, i as u64);
    }

    let all = windows.iter().chain(std::iter::once(out.final_window()));
    let packets: u64 = all.clone().map(|w| w.totals.packets).sum();
    let zoom_packets: u64 = all.clone().map(|w| w.totals.zoom_packets).sum();
    let zoom_bytes: u64 = all.clone().map(|w| w.totals.zoom_bytes).sum();
    let new_streams: u64 = all.clone().map(|w| w.totals.new_streams).sum();
    assert_eq!(packets, batch.summary.total_packets);
    assert_eq!(zoom_packets, batch.summary.zoom_packets);
    assert_eq!(zoom_bytes, batch.summary.zoom_bytes);
    assert_eq!(new_streams, batch.summary.rtp_streams as u64);
    assert_eq!(window_totals(all), per_key, "per-stream");

    // Windowing must not perturb the end-of-trace report at all.
    assert_eq!(out.report.to_json(), batch.to_json(), "final JSON");
}

#[test]
fn eviction_fragments_sum_to_batch_totals_and_bound_memory() {
    let records = churn_records(5, 120);
    assert!(records.len() > 5_000);
    let batch = batch_report(&records);
    assert!(batch.summary.meetings >= 4, "{}", batch.summary.meetings);
    let per_key = report_totals(&batch);

    // A no-eviction run establishes the unbounded peak to beat.
    let (_, unbounded) = stream_run(&records, Some(Duration::from_secs(5)), None);

    let (windows, out) = stream_run(
        &records,
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(5)),
    );
    let evicted: u64 = windows.iter().map(|w| w.totals.evicted_streams).sum();
    assert!(evicted > 0, "churn forced no evictions");

    // Exactness: evicted fragments + live rows reproduce every batch
    // counter, per stream and in the rollup.
    assert_eq!(report_totals(&out.report), per_key);
    assert_eq!(
        out.report.summary.total_packets,
        batch.summary.total_packets
    );
    assert_eq!(out.report.summary.zoom_packets, batch.summary.zoom_packets);
    assert_eq!(out.report.summary.zoom_bytes, batch.summary.zoom_bytes);
    assert_eq!(out.report.summary.zoom_flows, batch.summary.zoom_flows);
    assert_eq!(out.report.summary.rtp_streams, batch.summary.rtp_streams);
    assert_eq!(out.report.summary.meetings, batch.summary.meetings);

    // Boundedness: idle-out keeps the tracked-entry gauge strictly
    // below the never-evict peak, and under an absolute cap sized
    // for the concurrently-active portion of the workload (at most
    // two of the six meetings overlap, plus STUN/RTT candidates).
    const TRACKED_ENTRY_CAP: usize = 160;
    eprintln!(
        "evicting peak {}, never-evict peak {}",
        out.peak_tracked_entries, unbounded.peak_tracked_entries
    );
    assert!(
        out.peak_tracked_entries < unbounded.peak_tracked_entries,
        "peak {} !< {}",
        out.peak_tracked_entries,
        unbounded.peak_tracked_entries
    );
    assert!(
        out.peak_tracked_entries <= TRACKED_ENTRY_CAP,
        "peak {} exceeds cap {TRACKED_ENTRY_CAP}",
        out.peak_tracked_entries
    );
}

// ---------------------------------------------------------------------
// Ingest-path equivalence: reading a trace back from pcap bytes must not
// change a byte of output relative to pushing the records from memory.
// ---------------------------------------------------------------------

/// Serialize the synthetic records into an in-memory classic pcap image.
fn pcap_image(records: &[Record]) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("write header");
    for r in records {
        w.write_record(r).expect("write record");
    }
    w.finish().expect("flush")
}

/// The pcap image through the buffer-reusing `read_into` loop.
fn stream_via_pcap(img: &[u8], window: Option<Duration>) -> (Vec<WindowReport>, EngineOutput) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: false,
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    let mut r = Reader::new(img).expect("pcap header");
    let link = r.link_type();
    let mut buf = RecordBuf::new();
    while r.read_into(&mut buf).expect("record") {
        engine.push(buf.ts_nanos(), buf.data(), link).expect("push");
        windows.extend(engine.take_windows());
    }
    let out = engine.drain().expect("drain");
    (windows, out)
}

fn assert_same_run(
    a: &(Vec<WindowReport>, EngineOutput),
    b: &(Vec<WindowReport>, EngineOutput),
    label: &str,
) {
    assert_eq!(a.0.len(), b.0.len(), "{label}: window count");
    for (x, y) in a.0.iter().zip(&b.0) {
        assert_eq!(x.to_json(), y.to_json(), "{label}: window {}", x.index);
    }
    assert_eq!(
        a.1.final_window().to_json(),
        b.1.final_window().to_json(),
        "{label}: final window"
    );
    assert_eq!(
        a.1.report.to_json(),
        b.1.report.to_json(),
        "{label}: final report"
    );
}

#[test]
fn ingest_paths_byte_identical() {
    let records: Vec<Record> = MeetingSim::new(scenario::multi_party(11, 45 * SEC)).collect();
    assert!(records.len() > 1_000);
    let img = pcap_image(&records);
    let batch = batch_report(&records);
    for window in [None, Some(Duration::from_secs(10))] {
        let baseline = stream_run(&records, window, None);
        // Without eviction the drain report equals the batch report,
        // whatever the ingest path.
        assert_eq!(
            baseline.1.report.to_json(),
            batch.to_json(),
            "in memory/{window:?}"
        );
        let run = stream_via_pcap(&img, window);
        assert_same_run(&run, &baseline, &format!("read_into/{window:?}"));
    }
}

proptest! {
    /// Randomized traces through (in memory, read_into) ×
    /// randomized windowing: all windows and both final reports must
    /// serialize identically. (`window_secs` of 0 means unwindowed.)
    #[test]
    fn randomized_traces_identical_across_ingest_paths(
        seed in 0u64..100_000,
        window_secs in 0u64..20,
    ) {
        let records: Vec<Record> =
            MeetingSim::new(scenario::multi_party(seed, 15 * SEC)).collect();
        let img = pcap_image(&records);
        let window = (window_secs > 0).then(|| Duration::from_secs(window_secs));
        let baseline = stream_run(&records, window, None);
        let run = stream_via_pcap(&img, window);
        prop_assert_eq!(run.0.len(), baseline.0.len());
        for (x, y) in run.0.iter().zip(&baseline.0) {
            prop_assert_eq!(x.to_json(), y.to_json());
        }
        prop_assert_eq!(run.1.final_window().to_json(), baseline.1.final_window().to_json());
        prop_assert_eq!(run.1.report.to_json(), baseline.1.report.to_json());
    }
}

proptest! {
    /// For randomized window sizes, window deltas always sum back to the
    /// batch totals.
    #[test]
    fn randomized_window_sizes_preserve_totals(
        seed in 0u64..100_000,
        window_secs in 1u64..30,
    ) {
        let records: Vec<Record> =
            MeetingSim::new(scenario::multi_party(seed, 30 * SEC)).collect();
        let batch = batch_report(&records);
        let (windows, out) =
            stream_run(&records, Some(Duration::from_secs(window_secs)), None);
        let all = windows.iter().chain(std::iter::once(out.final_window()));
        let packets: u64 = all.clone().map(|w| w.totals.packets).sum();
        prop_assert_eq!(packets, batch.summary.total_packets);
        prop_assert_eq!(window_totals(all), report_totals(&batch));
        prop_assert_eq!(out.report.to_json(), batch.to_json());
    }
}

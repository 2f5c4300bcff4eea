//! Differential tests for the batched ingest hot path: feeding the
//! analysis sinks whole [`RecordBatch`]es via `push_batch` must produce
//! output **byte-identical** to the per-record `push` loop, for every
//! batch size and windowing mode.
//!
//! * The sequential `Analyzer` emits the same report JSON whether records
//!   arrive one at a time or in batches of 1, 7, 64 or 4096 — including
//!   on a mixed-source trace (two scenarios interleaved by timestamp).
//! * The `StreamingEngine` emits the same window stream and the same
//!   final report, windowed and unwindowed, regardless of how the input
//!   is batched — a window may close on any record of a batch, and the
//!   batch's dissections were made before it did.
//! * A proptest cuts the trace at arbitrary batch boundaries (including
//!   empty batches) and asserts the report is invariant to the cut.
//!
//! Every case compares the sinks' `metrics()` snapshots too, all but the
//! wall-clock `uptime_seconds` and `stage_latency` histograms: one
//! per-record body behind both entries counts the same.

use proptest::prelude::*;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::obs::MetricsSnapshot;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::{AnalysisReport, WindowReport};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

/// The batch sizes exercised everywhere below: degenerate (1), prime and
/// smaller than any internal batch (7), typical (64), and larger than the
/// engine's internal batch so one push spans several internal hand-offs
/// (4096).
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 4096];

fn multi_records() -> Vec<Record> {
    let mut records: Vec<Record> = MeetingSim::new(scenario::multi_party(3, 30 * SEC)).collect();
    records.sort_by_key(|r| r.ts_nanos);
    records
}

/// Two scenarios merged by timestamp — the shape a `CaptureMux` fan-in
/// delivers, so batching is exercised across interleaved sources.
fn mixed_source_records() -> Vec<Record> {
    let mut records: Vec<Record> = MeetingSim::new(scenario::multi_party(3, 20 * SEC)).collect();
    records.extend(
        scenario::churn(11, 20 * SEC)
            .into_iter()
            .flat_map(MeetingSim::new),
    );
    records.sort_by_key(|r| r.ts_nanos);
    records
}

/// A sink's metrics snapshot without what the wall clock decides: the
/// `uptime_seconds` gauge and the `stage_latency` histograms.
fn counted(sink: &impl PacketSink) -> MetricsSnapshot {
    let mut m = sink.metrics();
    m.uptime_seconds = 0;
    for h in [&mut m.stage_push_nanos, &mut m.stage_merge_nanos] {
        h.buckets.clear();
        h.sum = 0;
        h.count = 0;
    }
    m
}

/// The report and the counted metrics of one analysis.
type Run = (AnalysisReport, MetricsSnapshot);

fn per_record_report(records: &[Record]) -> Run {
    let mut a = Analyzer::new(AnalyzerConfig::default());
    for r in records {
        a.push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    let m = counted(&a);
    (a.finish().expect("finish"), m)
}

/// Packs `records[lo..hi)` into a cleared, reused `RecordBatch`.
fn fill(batch: &mut RecordBatch, records: &[Record]) {
    batch.clear();
    for r in records {
        batch.push(r.ts_nanos, r.orig_len, &r.data);
    }
}

fn batched_report(records: &[Record], batch_size: usize) -> Run {
    let mut a = Analyzer::new(AnalyzerConfig::default());
    let mut batch = RecordBatch::new();
    for chunk in records.chunks(batch_size) {
        fill(&mut batch, chunk);
        a.push_batch(&batch, LinkType::Ethernet)
            .expect("push_batch");
    }
    let m = counted(&a);
    (a.finish().expect("finish"), m)
}

/// Two analyses agree on every report byte and every counted metric.
fn assert_runs_identical(label: &str, got: &Run, want: &Run) {
    assert_eq!(got.0.to_json(), want.0.to_json(), "{label}: report");
    assert_eq!(got.1, want.1, "{label}: metrics");
}

/// The windows, the drained output and the counted metrics of one
/// engine run.
type StreamRun = (Vec<WindowReport>, EngineOutput, MetricsSnapshot);

fn stream_per_record(records: &[Record], window: Option<Duration>) -> StreamRun {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
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
    let m = counted(&engine);
    let out = engine.drain().expect("drain");
    (windows, out, m)
}

fn stream_batched(records: &[Record], window: Option<Duration>, batch_size: usize) -> StreamRun {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: false,
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    let mut batch = RecordBatch::new();
    for chunk in records.chunks(batch_size) {
        fill(&mut batch, chunk);
        engine
            .push_batch(&batch, LinkType::Ethernet)
            .expect("push_batch");
        windows.extend(engine.take_windows());
    }
    let m = counted(&engine);
    let out = engine.drain().expect("drain");
    (windows, out, m)
}

fn assert_streams_identical(label: &str, got: &StreamRun, want: &StreamRun) {
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
    assert_eq!(got.2, want.2, "{label}: metrics");
}

#[test]
fn analyzer_batched_matches_per_record_at_all_batch_sizes() {
    let records = multi_records();
    assert!(records.len() > 4096, "trace must outsize the largest batch");
    let want = per_record_report(&records);
    for size in BATCH_SIZES {
        let got = batched_report(&records, size);
        assert_runs_identical(&format!("batch size {size}"), &got, &want);
    }
}

#[test]
fn mixed_source_batched_matches_per_record() {
    let records = mixed_source_records();
    assert!(records.len() > 4096);
    let want = per_record_report(&records);
    for size in BATCH_SIZES {
        let got = batched_report(&records, size);
        assert_runs_identical(&format!("mixed sources, batch size {size}"), &got, &want);
    }
}

#[test]
fn engine_batched_matches_per_record() {
    let records = multi_records();
    let want = stream_per_record(&records, None);
    assert!(want.0.is_empty(), "no window configured");
    for size in [1usize, 64, 4096] {
        let got = stream_batched(&records, None, size);
        assert_streams_identical(&format!("batch size {size}"), &got, &want);
    }
}

#[test]
fn windowed_engine_batched_matches_per_record() {
    let records = mixed_source_records();
    let window = Some(Duration::from_secs(2));
    let want = stream_per_record(&records, window);
    assert!(want.0.len() > 3, "expected several 2s windows");
    for size in [7usize, 4096] {
        let got = stream_batched(&records, window, size);
        assert_streams_identical(&format!("windowed, batch size {size}"), &got, &want);
    }
}

proptest! {
    /// Arbitrary batch boundaries — including empty batches — never
    /// change a byte of the report. The cut sizes are drawn freely and
    /// applied cyclically over the trace, so batches straddle frame,
    /// stream, and window boundaries in ways the fixed sizes above
    /// don't.
    #[test]
    fn report_invariant_under_arbitrary_batch_boundaries(
        seed in 0u64..100_000,
        cuts in proptest::collection::vec(0usize..600, 1..24),
    ) {
        let mut records: Vec<Record> =
            MeetingSim::new(scenario::multi_party(seed, 10 * SEC)).collect();
        records.sort_by_key(|r| r.ts_nanos);
        let (want, want_metrics) = per_record_report(&records);

        let mut a = Analyzer::new(AnalyzerConfig::default());
        let mut batch = RecordBatch::new();
        let mut at = 0usize;
        for take in &cuts {
            let take = (*take).min(records.len() - at);
            fill(&mut batch, &records[at..at + take]);
            a.push_batch(&batch, LinkType::Ethernet).expect("push_batch");
            at += take;
        }
        // Whatever the drawn cuts didn't cover goes in fixed-size tail
        // batches so every case consumes the whole trace.
        while at < records.len() {
            let take = 97.min(records.len() - at);
            fill(&mut batch, &records[at..at + take]);
            a.push_batch(&batch, LinkType::Ethernet).expect("push_batch");
            at += take;
        }
        prop_assert_eq!(counted(&a), want_metrics);
        let got = a.finish().expect("finish").to_json();
        prop_assert_eq!(got, want.to_json());
    }
}

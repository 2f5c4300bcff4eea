//! Differential tests for the multi-source capture front-end: splitting
//! one trace across N concurrent sources and merging it back through the
//! `CaptureMux` fan-in must not change a byte of output.
//!
//! * Any split of a strictly-increasing-timestamp trace (round-robin
//!   interleave or time-disjoint chunks) across 2 or 4 sources produces
//!   window reports and a final report **byte-identical** to the single
//!   concatenated source, windowed and unwindowed.
//! * The fan-in never drops: per-source packet counters match the split
//!   sizes exactly, and the extended conservation invariant
//!   (`Σ source_packets == packets_in`) holds.
//! * Drained the CLI's way (`next_batch(BATCH_RECORDS)` → `push_batch`),
//!   the split sources equal the single concatenated source drained the
//!   same way: same windows, same report, same per-source counters.

use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::obs::MetricsSnapshot;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::WindowReport;
use zoom_analysis::PacketSink;
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::source::{PacketSource, ReplaySource, BATCH_RECORDS};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};

/// A multi-party workload with strictly increasing timestamps, so the
/// timestamp-ordered merge has exactly one valid output order and the
/// differential below is unambiguous. (Equal timestamps are legal — the
/// mux tie-breaks by source index — but then "the equivalent single
/// source" is itself ambiguous.)
fn strictly_increasing_records(seed: u64, secs: u64) -> Vec<Record> {
    let mut records: Vec<Record> =
        MeetingSim::new(scenario::multi_party(seed, secs * SEC)).collect();
    records.sort_by_key(|r| r.ts_nanos);
    let mut last = 0u64;
    for r in &mut records {
        if r.ts_nanos <= last {
            r.ts_nanos = last + 1;
        }
        last = r.ts_nanos;
    }
    records
}

/// How one trace is dealt out to N sources.
#[derive(Clone, Copy, Debug)]
enum Split {
    /// Record `i` goes to source `i % n`: every source spans the whole
    /// trace and the merge interleaves constantly.
    RoundRobin,
    /// Source `j` gets the `j`-th contiguous time slice: the merge
    /// drains sources mostly one after another.
    Contiguous,
}

fn split_records(records: &[Record], n: usize, how: Split) -> Vec<Vec<Record>> {
    let mut parts = vec![Vec::new(); n];
    match how {
        Split::RoundRobin => {
            for (i, r) in records.iter().enumerate() {
                parts[i % n].push(r.clone());
            }
        }
        Split::Contiguous => {
            let chunk = records.len().div_ceil(n);
            for (j, c) in records.chunks(chunk).enumerate() {
                parts[j] = c.to_vec();
            }
        }
    }
    parts
}

/// Run one engine over the mux-merged splits; returns the windows, the
/// drained output, and the metrics snapshot — taken after drain, when
/// both halves of the conservation invariant are stable.
fn mux_run(
    splits: Vec<Vec<Record>>,
    window: Option<Duration>,
) -> (Vec<WindowReport>, EngineOutput, MetricsSnapshot) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: None,
    })
    .expect("valid engine config");
    let mh = engine.metrics_handle();
    let sources: Vec<Box<dyn PacketSource>> = splits
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            Box::new(ReplaySource::new(
                &format!("replay:{i}"),
                LinkType::Ethernet,
                recs.clone(),
            )) as Box<dyn PacketSource>
        })
        .collect();
    let mut mux = CaptureMux::start(sources, MuxConfig, Some(&mh));
    let mut windows = Vec::new();
    let mut batch = zoom_wire::handoff::RecordBatch::new();
    while let Some(link) = mux
        .next_batch(&mut batch, BATCH_RECORDS)
        .expect("mux batch")
    {
        for r in batch.iter() {
            engine.push(r.ts_nanos, r.data, link).expect("push");
            windows.extend(engine.take_windows());
        }
    }
    mux.finish().expect("capture teardown");
    let out = engine.drain().expect("drain");
    let snap = out.analyzer.metrics();
    (windows, out, snap)
}

fn assert_same_run(
    a: &(Vec<WindowReport>, EngineOutput, MetricsSnapshot),
    b: &(Vec<WindowReport>, EngineOutput, MetricsSnapshot),
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

/// Conservation and per-source accounting over one run's snapshot.
fn assert_capture_accounting(snap: &MetricsSnapshot, splits: &[Vec<Record>], label: &str) {
    assert!(snap.conservation_holds(), "{label}: conservation");
    assert_eq!(snap.sources.len(), splits.len(), "{label}: source count");
    let total: u64 = splits.iter().map(|s| s.len() as u64).sum();
    assert_eq!(
        snap.source_packets_total(),
        total,
        "{label}: Σ source packets"
    );
    assert_eq!(snap.packets_in, total, "{label}: packets_in");
    // Snapshot sources are in registration order, which is lane order.
    for (i, part) in splits.iter().enumerate() {
        let s = &snap.sources[i];
        assert_eq!(s.label, format!("replay:{i}"), "{label}: label order");
        assert_eq!(s.packets, part.len() as u64, "{label}: source {i} packets");
        let bytes: u64 = part.iter().map(|r| r.data.len() as u64).sum();
        assert_eq!(s.bytes, bytes, "{label}: source {i} bytes");
    }
}

#[test]
fn split_sources_byte_identical_to_a_single_source() {
    let records = strictly_increasing_records(11, 30);
    assert!(records.len() > 1_000);

    // The sequential no-mux report anchors the whole family.
    let mut direct = Analyzer::new(AnalyzerConfig::default());
    for r in &records {
        direct
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    let direct = direct.finish().expect("finish");

    for window in [None, Some(Duration::from_secs(10))] {
        let baseline = mux_run(vec![records.clone()], window);
        assert_eq!(
            baseline.1.report.to_json(),
            direct.to_json(),
            "single source/{window:?}: vs direct analyzer"
        );
        assert_capture_accounting(
            &baseline.2,
            std::slice::from_ref(&records),
            &format!("single/{window:?}"),
        );
        for n in [2usize, 4] {
            for how in [Split::RoundRobin, Split::Contiguous] {
                let splits = split_records(&records, n, how);
                let run = mux_run(splits.clone(), window);
                let label = format!("{n} sources/{how:?}/{window:?}");
                assert_same_run(&run, &baseline, &label);
                assert_capture_accounting(&run.2, &splits, &label);
            }
        }
    }
}

/// The CLI's drain — `next_batch` into `push_batch` — over `splits`.
fn batched_run(
    splits: &[Vec<Record>],
    window: Option<Duration>,
) -> (Vec<WindowReport>, EngineOutput, MetricsSnapshot) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: Some(Duration::from_secs(5)),
        qoe: None,
    })
    .expect("valid engine config");
    let mh = engine.metrics_handle();
    let sources: Vec<Box<dyn PacketSource>> = splits
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            Box::new(ReplaySource::new(
                &format!("replay:{i}"),
                LinkType::Ethernet,
                recs.clone(),
            )) as Box<dyn PacketSource>
        })
        .collect();
    let mut mux = CaptureMux::start(sources, MuxConfig, Some(&mh));
    let mut windows = Vec::new();
    let mut batch = zoom_wire::handoff::RecordBatch::new();
    while let Some(link) = mux
        .next_batch(&mut batch, BATCH_RECORDS)
        .expect("mux batch")
    {
        engine.push_batch(&batch, link).expect("push_batch");
        windows.extend(engine.take_windows());
    }
    let total: usize = splits.iter().map(Vec::len).sum();
    assert_eq!(mux.records_delivered(), total as u64);
    mux.finish().expect("capture teardown");
    let out = engine.drain().expect("drain");
    let snap = out.analyzer.metrics();
    (windows, out, snap)
}

#[test]
fn batched_drain_of_split_sources_matches_one_source() {
    let records = strictly_increasing_records(17, 30);
    for window in [None, Some(Duration::from_secs(2))] {
        let single = batched_run(std::slice::from_ref(&records), window);
        assert!(
            window.is_none() || single.0.len() > 5,
            "{window:?}: windows closed"
        );
        assert_capture_accounting(&single.2, std::slice::from_ref(&records), "single");
        for splits in [
            split_records(&records, 2, Split::RoundRobin),
            split_records(&records, 3, Split::Contiguous),
        ] {
            let label = format!("{} sources/{window:?}", splits.len());
            let run = batched_run(&splits, window);
            assert_same_run(&run, &single, &label);
            assert_capture_accounting(&run.2, &splits, &label);
        }
    }
}

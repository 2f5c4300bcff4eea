//! Streaming-engine overhead and memory bounds: windowed streaming vs
//! one-shot batch analysis on the same record stream, plus the tracked-
//! entry gauge that eviction is supposed to hold down.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, QoeThresholds, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};

fn churn_records(seed: u64, secs: u64) -> Vec<Record> {
    let mut records: Vec<Record> = scenario::churn(seed, secs * SEC)
        .into_iter()
        .flat_map(MeetingSim::new)
        .collect();
    records.sort_by_key(|r| r.ts_nanos);
    records
}

fn run_streaming(
    records: &[Record],
    window: Option<Duration>,
    idle: Option<Duration>,
) -> (u64, usize) {
    run_streaming_qoe(records, window, idle, None)
}

fn run_streaming_qoe(
    records: &[Record],
    window: Option<Duration>,
    idle: Option<Duration>,
    qoe: Option<QoeThresholds>,
) -> (u64, usize) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: idle,
        qoe,
    })
    .expect("valid config");
    for r in records {
        engine
            .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        engine.take_alerts();
    }
    let out = engine.drain().expect("drain");
    (out.report.summary.zoom_packets, out.peak_tracked_entries)
}

fn bench(c: &mut Criterion) {
    let records = churn_records(5, 90);

    // Report the memory story once, outside the timed loops: with the
    // same window cadence (the gauge is sampled at window ticks),
    // eviction must hold the tracked-entry peak below the never-evict
    // run.
    let (_, peak_retaining) = run_streaming(&records, Some(Duration::from_secs(10)), None);
    let (_, peak_evicting) = run_streaming(
        &records,
        Some(Duration::from_secs(10)),
        Some(Duration::from_secs(10)),
    );
    eprintln!(
        "tracked entries over {} records: never-evict peak {peak_retaining}, \
         evicting peak {peak_evicting}",
        records.len()
    );
    assert!(peak_evicting < peak_retaining);

    let mut g = c.benchmark_group("streaming_vs_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("batch_sequential", |b| {
        b.iter(|| {
            let mut analyzer = Analyzer::new(AnalyzerConfig::default());
            for r in &records {
                analyzer.process_packet(r.ts_nanos, &r.data, LinkType::Ethernet);
            }
            analyzer.finish().expect("finish").summary.zoom_packets
        })
    });
    g.bench_function("streaming_unwindowed", |b| {
        b.iter(|| run_streaming(&records, None, None).0)
    });
    g.bench_function("streaming_10s_windows", |b| {
        b.iter(|| run_streaming(&records, Some(Duration::from_secs(10)), None).0)
    });
    // Full QoE telemetry on: labeled series updated and the degradation
    // detector scored at every window tick. The delta against
    // streaming_10s_windows is the telemetry-on cost quoted in
    // docs/PERFORMANCE.md.
    g.bench_function("streaming_10s_windows_qoe_watch", |b| {
        b.iter(|| {
            run_streaming_qoe(
                &records,
                Some(Duration::from_secs(10)),
                None,
                Some(QoeThresholds::default()),
            )
            .0
        })
    });
    g.bench_function("streaming_10s_windows_evicting", |b| {
        b.iter(|| {
            run_streaming(
                &records,
                Some(Duration::from_secs(10)),
                Some(Duration::from_secs(10)),
            )
            .0
        })
    });
    // The zero-copy entry point: same engine, records fed as borrowed
    // slices via push_packet (what a SliceReader/read_into loop does)
    // instead of owned Records.
    g.bench_function("streaming_unwindowed_push_packet", |b| {
        b.iter(|| {
            let mut engine = StreamingEngine::new(EngineConfig {
                analyzer: AnalyzerConfig::default(),
                window: None,
                idle_timeout: None,
                qoe: None,
            })
            .expect("valid config");
            for r in &records {
                engine
                    .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
                    .expect("push");
            }
            engine.drain().expect("drain").report.summary.zoom_packets
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The ingest hot path stays off the allocator once it is warm: a second
//! pass of `Reader::read_into` over a pcap image, and of batch fill plus
//! `peek_batch` classification, allocates nothing; a time-shifted replay
//! through a `StreamingEngine` with 10 s windows allocates less than 0.05
//! times per record (window-close report assembly is the remainder).
//! And what the analyzer retains grows with stream-seconds, not with
//! frames or RTT matches: analyzing a four times longer trace raises the
//! peak live heap by a few bytes per added record.
//!
//! Allocations and live bytes are counted per thread, so tests running
//! beside these cannot pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{peek_batch, PeekArena};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, Writer};

/// Counts every allocation and reallocation the calling thread makes,
/// and the bytes it holds live (allocated and not yet freed by it) with
/// their high-water mark.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Move this thread's live bytes by `delta`, raising the peak with them.
fn live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get() + delta;
        l.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s; counting touches only const-
// initialised thread-local `Cell`s, which do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // A moving realloc holds both blocks for a moment: count the new
        // one before the old one goes.
        live(new_size as i64);
        live(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// How far `f` raises this thread's live heap above where it started, at
/// its peak, and what `f` returns.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as u64, out)
}

/// Records per hand-off batch (the streaming engine's batch size).
const BATCH: usize = 256;

/// Reader-only pass reusing one `RecordBuf`; returns the record count.
fn read_pass(img: &[u8], buf: &mut RecordBuf) -> u64 {
    let mut reader = Reader::new(img).expect("pcap header");
    let mut n = 0;
    while reader.read_into(buf).expect("record") {
        n += 1;
    }
    n
}

/// Batch fill plus `peek_batch` over the whole image, reusing one batch
/// and one arena; returns the record count.
fn classify_pass(img: &[u8], batch: &mut RecordBatch, arena: &mut PeekArena) -> u64 {
    let mut reader = Reader::new(img).expect("pcap header");
    let link = reader.link_type();
    let mut n = 0;
    loop {
        batch.clear();
        while batch.len() < BATCH && reader.read_into_batch(batch).expect("record") {}
        if batch.is_empty() {
            return n;
        }
        peek_batch(batch, link, arena);
        n += batch.len() as u64;
    }
}

/// One windowed pass over the trace with every timestamp shifted by
/// `offset`, taking window reports as they close.
fn windowed_pass(
    engine: &mut StreamingEngine,
    records: &[Record],
    batch: &mut RecordBatch,
    offset: u64,
) {
    for chunk in records.chunks(BATCH) {
        batch.clear();
        for r in chunk {
            batch.push(r.ts_nanos + offset, r.orig_len, &r.data);
        }
        engine
            .push_batch(batch, LinkType::Ethernet)
            .expect("push_batch");
        engine.take_windows();
    }
}

#[test]
fn warm_ingest_passes_stay_off_the_allocator() {
    let mut records: Vec<Record> = scenario::churn(7, 60 * SEC)
        .into_iter()
        .flat_map(MeetingSim::new)
        .collect();
    records.sort_by_key(|r| r.ts_nanos);
    let mut writer = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
    for r in &records {
        writer.write_record(r).expect("record");
    }
    let img = writer.finish().expect("flush");
    let n = records.len() as u64;
    assert!(n > 10_000, "{n} records");

    // `read_into`: the first pass grows the buffer, the second reuses it.
    let mut buf = RecordBuf::new();
    assert_eq!(read_pass(&img, &mut buf), n);
    let (allocs, read) = allocations(|| read_pass(&img, &mut buf));
    assert_eq!(read, n);
    assert_eq!(allocs, 0, "warm read_into pass allocated");

    // Batch fill + classification: the batch arena and the peek arena
    // are at capacity after the first pass.
    let mut batch = RecordBatch::new();
    let mut arena = PeekArena::new();
    assert_eq!(classify_pass(&img, &mut batch, &mut arena), n);
    let (allocs, classified) = allocations(|| classify_pass(&img, &mut batch, &mut arena));
    assert_eq!(classified, n);
    assert_eq!(allocs, 0, "warm peek_batch pass allocated");

    // Windowed engine: the first pass warms the flow tables, the second
    // replays the same flows later, so windows keep rolling.
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(Duration::from_secs(10)),
        idle_timeout: None,
        qoe: None,
    })
    .expect("engine");
    let span = records.last().map_or(0, |r| r.ts_nanos + SEC);
    windowed_pass(&mut engine, &records, &mut batch, 0);
    let (allocs, ()) = allocations(|| windowed_pass(&mut engine, &records, &mut batch, span));
    let per_record = allocs as f64 / n as f64;
    eprintln!(
        "windowed engine: {allocs} allocations over {n} records ({per_record:.4} per record)"
    );
    assert!(
        per_record < 0.05,
        "windowed steady state allocates {per_record:.4} per record"
    );
    engine.drain().expect("drain");
}

/// Peak live heap of a batch analysis of `records`, fed in hand-off
/// batches; the analyzer is dropped inside the measurement.
fn analysis_peak(records: &[Record]) -> u64 {
    let mut batch = RecordBatch::new();
    let (peak, ()) = peak_live_bytes(|| {
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        for chunk in records.chunks(BATCH) {
            batch.clear();
            for r in chunk {
                batch.push(r.ts_nanos, r.orig_len, &r.data);
            }
            analyzer
                .push_batch(&batch, LinkType::Ethernet)
                .expect("push_batch");
        }
        analyzer.finish().expect("finish");
    });
    peak
}

/// Heap the analyzer may add per added record when the same meeting runs
/// four times longer. What grows is per stream-second — a 32-byte rate
/// row per stream, a 40-byte frame row and a 16-byte jitter sample per
/// video stream, each in a vector that may hold twice that — against
/// tens of records per stream-second. It measures 2.8 bytes; with one
/// log entry kept per completed frame and per RTT match it measured 26.
const MAX_BYTES_PER_ADDED_RECORD: f64 = 6.0;

#[test]
fn retained_heap_grows_with_stream_seconds_not_records() {
    // Copies of both campus clients' uplinks come back downlink, so the
    // RTP-copy estimator matches a probe for most media packets.
    let short: Vec<Record> = MeetingSim::new(scenario::multi_party(5, 30 * SEC)).collect();
    let long: Vec<Record> = MeetingSim::new(scenario::multi_party(5, 120 * SEC)).collect();
    let added = long.len() - short.len();
    assert!(
        added > 3 * short.len() / 2,
        "{} vs {} records",
        long.len(),
        short.len()
    );
    let (short_peak, long_peak) = (analysis_peak(&short), analysis_peak(&long));
    let per_record = long_peak.saturating_sub(short_peak) as f64 / added as f64;
    eprintln!(
        "analyzer peak live heap: {short_peak} B over {} records, {long_peak} B over {}: \
         {per_record:.2} B per added record",
        short.len(),
        long.len()
    );
    assert!(
        per_record < MAX_BYTES_PER_ADDED_RECORD,
        "retained heap grows {per_record:.2} B per record"
    );
}

//! The traced run: the per-layer cost table, measured from outside in.
//!
//! Nothing here is instrumentation inside the program. Each row times
//! calls into one layer's public functions from this file, over the same
//! trace *files* the end-to-end passes read (streamed; never a whole
//! trace in memory). Rows are cumulative prefixes of the pipeline — read;
//! read + batch fill; read + fill + peek; … — each run [`REPS`] times with
//! the median kept, and a layer's self cost is its prefix less the prefix
//! before it ([`self_cost_per_pkt`]).
//!
//! Allocations come from the counting global allocator, CPU time from
//! `getrusage(RUSAGE_SELF)` so that capture and shard threads which have
//! already exited are included. A few rows come from the CLI instead:
//! start-up time, the worker/merge split of a `dist-merge` pass, the
//! program's own `--metrics` accounting and its own `--trace` spans
//! (folded in as `trace.*`, next to the outside-in figure they should
//! agree with). The plain CLI passes those rows are read against are not
//! made here: the caller hands in the samples `e2e::measure` took.
//! `layers.batch-file.coverage` closes the loop: the CPU of the rows
//! `batch-file` passes through, summed, over the CPU of the CLI pass.

use crate::e2e::{self, Env, Samples};
use crate::json::Json;
use crate::metrics::{self, TRACE_SPANS};
use crate::stats::{median, self_cost_per_pkt, Summary};
use crate::sys;
use crate::traces::{Manifest, BORDER, CAMPUS, TAPS};
use crate::workloads::{run_step, Instrument, PassCost, Step, Workload, METRICS_FILE};
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::fragment::FragmentSource;
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_capture::ring;
use zoom_capture::source::{PacketSource, PcapFileSource, BATCH_RECORDS};
use zoom_wire::dissect::{self, P2pProbe, PeekArena};
use zoom_wire::frame::{FrameReader, FrameWriter, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, Writer};

/// Repetitions of every in-process probe; the median is kept.
const REPS: usize = 3;
/// Plain CLI passes per workload the traced run needs handed in (for the
/// `cli.*` rows and the untraced side of `trace.overhead_pct`).
pub const CLI_PASSES: usize = 5;
/// In-process/CLI pass pairs behind `layers.batch-file.coverage`.
const COVERAGE_PAIRS: usize = 5;
/// Start-ups timed for `cli.startup_ms`.
const STARTUPS: usize = 10;
/// Records per hand-off batch in the in-process probes (the streaming
/// engine's internal batch size).
const BATCH: usize = 256;
/// Records per fan-in drain (the CLI's `MUX_BATCH`).
const MUX_BATCH: usize = 1024;
/// Hand-offs timed for `capture.ring.hop_ns`.
const RING_HOPS: u64 = 200_000;
/// What the CLI's `capture` and `filter` commands assume.
const CAMPUS_NET: &str = "10.8.0.0/16";

/// The traced run's result: the table in catalogue order, and how the
/// CLI passes it made itself (not the ones handed in) fared.
#[derive(Debug)]
pub struct Outcome {
    pub table: Vec<(metrics::Layer, f64)>,
    pub attempted_records: u64,
    pub failed_records: u64,
}

/// What one probe run cost.
#[derive(Debug, Clone, Copy)]
struct Cost {
    wall_nanos: f64,
    /// Process CPU, all threads.
    cpu_nanos: f64,
    allocs: u64,
    records: u64,
}

fn measure(f: impl FnOnce() -> u64) -> Cost {
    let (a0, c0, t0) = (sys::allocations(), sys::process_cpu_nanos(), Instant::now());
    let records = f();
    Cost {
        wall_nanos: t0.elapsed().as_nanos() as f64,
        cpu_nanos: (sys::process_cpu_nanos() - c0) as f64,
        allocs: sys::allocations() - a0,
        records,
    }
}

/// Runs a probe [`REPS`] times; medians of wall and CPU, allocations of
/// the first (cold) run.
fn repeat(mut probe: impl FnMut() -> Cost) -> Cost {
    let runs: Vec<Cost> = (0..REPS).map(|_| probe()).collect();
    assert!(
        runs.iter().all(|r| r.records == runs[0].records),
        "repetitions of a probe saw different record counts"
    );
    Cost {
        wall_nanos: median(&runs.iter().map(|r| r.wall_nanos).collect::<Vec<_>>()),
        cpu_nanos: median(&runs.iter().map(|r| r.cpu_nanos).collect::<Vec<_>>()),
        ..runs[0]
    }
}

fn open_pcap(path: &Path) -> Reader<BufReader<File>> {
    let file = File::open(path).expect("a trace this run wrote opens");
    Reader::new(BufReader::new(file)).expect("a trace this run wrote has a pcap header")
}

/// Streams `path` record by record; returns the record count.
fn each_record(path: &Path, mut f: impl FnMut(&RecordBuf)) -> u64 {
    let mut reader = open_pcap(path);
    let mut buf = RecordBuf::new();
    while reader
        .read_into(&mut buf)
        .expect("a trace this run wrote reads")
    {
        f(&buf);
    }
    reader.records_read()
}

/// Streams `path` in batches of `size` through one reused arena, every
/// timestamp shifted by `ts_offset`; returns the record count.
fn each_batch(path: &Path, size: usize, ts_offset: u64, mut f: impl FnMut(&RecordBatch)) -> u64 {
    let mut batch = RecordBatch::new();
    let records = each_record(path, |r| {
        batch.push(r.ts_nanos() + ts_offset, r.orig_len(), r.data());
        if batch.len() == size {
            f(&batch);
            batch.clear();
        }
    });
    if !batch.is_empty() {
        f(&batch);
    }
    records
}

/// A sink that counts what is written to it.
#[derive(Default)]
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One pass of the streaming engine over `path`, as the CLI drives it.
struct EnginePass {
    /// The whole pass, drain included.
    cost: Cost,
    /// Caller-thread time inside `push_batch`.
    router_nanos: f64,
    /// Durations of the `push_batch` calls that closed a window.
    close_micros: Vec<f64>,
    windows: u64,
    window_json_bytes: u64,
    peak_tracked: u64,
    evicted: u64,
    drain_millis: f64,
}

fn engine_pass(
    path: &Path,
    window: Option<Duration>,
    idle_timeout: Option<Duration>,
) -> EnginePass {
    let mut router_nanos = 0.0;
    let mut close_micros = Vec::new();
    let (mut windows, mut window_json_bytes, mut peak_tracked, mut evicted) = (0, 0, 0, 0);
    let mut drain_millis = 0.0;
    let cost = measure(|| {
        let mut engine = StreamingEngine::new(EngineConfig {
            window,
            idle_timeout,
            ..EngineConfig::default()
        })
        .expect("a valid engine configuration");
        let records = each_batch(path, BATCH, 0, |batch| {
            let t0 = Instant::now();
            engine
                .push_batch(batch, LinkType::Ethernet)
                .expect("the engine accepts a generated trace");
            let took = t0.elapsed().as_nanos() as f64;
            router_nanos += took;
            let closed = engine.take_windows();
            if !closed.is_empty() {
                close_micros.push(took / 1e3);
                windows += closed.len() as u64;
                window_json_bytes += closed.iter().map(|w| w.to_json().len() as u64).sum::<u64>();
            }
        });
        let registry = engine.metrics_handle();
        let t0 = Instant::now();
        let drained = engine.drain().expect("the engine drains");
        drain_millis = t0.elapsed().as_nanos() as f64 / 1e6;
        peak_tracked = drained.peak_tracked_entries as u64;
        evicted = registry.evicted_flows.get() + registry.evicted_streams.get();
        black_box(drained.report.summary.total_packets);
        records
    });
    EnginePass {
        cost,
        router_nanos,
        close_micros,
        windows,
        window_json_bytes,
        peak_tracked,
        evicted,
        drain_millis,
    }
}

/// Drains `sources` through the capture fan-in, as the CLI's ingest loop
/// does, doing nothing with the records. Returns the cost and the number
/// of batches the drain took.
fn mux_drain(sources: Vec<Box<dyn PacketSource>>) -> (Cost, u64) {
    let mut batches = 0u64;
    let cost = measure(|| {
        let mut mux = CaptureMux::start(sources, MuxConfig::default(), None);
        let mut batch = RecordBatch::new();
        while mux
            .next_batch(&mut batch, MUX_BATCH)
            .expect("the fan-in delivers a generated trace")
            .is_some()
        {
            black_box(batch.arena_bytes());
            batches += 1;
        }
        let delivered = mux.records_delivered();
        mux.finish().expect("capture threads end cleanly");
        delivered
    });
    (cost, batches)
}

fn pcap_source(path: &Path) -> Box<dyn PacketSource> {
    Box::new(PcapFileSource::open(&path.to_string_lossy()).expect("a trace this run wrote opens"))
}

/// Writes `pcap` as a `ZFRG` spool, framed as a CLI worker frames it.
/// Returns the bytes written.
fn write_spool(pcap: &Path, spool: &Path, label: &str) -> u64 {
    let file = File::create(spool).expect("the data directory is writable");
    let mut writer = FrameWriter::new(BufWriter::new(file), label, LinkType::Ethernet)
        .expect("the data directory is writable");
    let (mut bytes, mut frames) = (0u64, 0u64);
    let packets = each_batch(pcap, BATCH_RECORDS, 0, |batch| {
        writer
            .write_batch(batch)
            .expect("the data directory is writable");
        bytes += batch.arena_bytes() as u64;
        frames += 1;
    });
    writer
        .finish(Totals {
            packets,
            bytes,
            batches: frames,
            ring_full_drops: 0,
            truncated: 0,
        })
        .and_then(|mut w| w.flush())
        .expect("the data directory is writable");
    std::fs::metadata(spool)
        .expect("the spool was just written")
        .len()
}

fn spool_source(spool: &Path) -> Box<dyn PacketSource> {
    let file = File::open(spool).expect("the spool was just written");
    Box::new(FragmentSource::open(BufReader::new(file)).expect("the spool has a stream header"))
}

/// Wall time of one push-and-pop hand-off of a `RecordBatch` between two
/// threads over a capacity-8 ring.
fn ring_hop_nanos() -> f64 {
    let (mut tx, mut rx) = ring::spsc::<RecordBatch>(8);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..RING_HOPS {
                let mut batch = RecordBatch::new();
                while let Err(back) = tx.try_push(batch) {
                    batch = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut popped = 0;
        while popped < RING_HOPS {
            match rx.try_pop() {
                Some(batch) => {
                    black_box(&batch);
                    popped += 1;
                }
                None => std::thread::yield_now(),
            }
        }
    });
    t0.elapsed().as_nanos() as f64 / RING_HOPS as f64
}

/// Σ dur_nanos and Σ records per span name over the trace files.
fn fold_spans(files: &[std::path::PathBuf]) -> Result<HashMap<String, (f64, f64)>, String> {
    let mut spans: HashMap<String, (f64, f64)> = HashMap::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines() {
            let event = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let field = |k: &str| event.get(k).and_then(Json::as_f64);
            let (Some(span), Some(dur), Some(records)) = (
                event.get("span").and_then(Json::as_str),
                field("dur_nanos"),
                field("records"),
            ) else {
                return Err(format!(
                    "{}: not a trace_span event: {line}",
                    path.display()
                ));
            };
            let entry = spans.entry(span.to_string()).or_default();
            entry.0 += dur;
            entry.1 += records;
        }
    }
    Ok(spans)
}

/// The table under construction; `finish` puts it in catalogue order and
/// insists that it is complete.
#[derive(Default)]
struct Table(HashMap<String, f64>);

impl Table {
    fn set(&mut self, name: &str, value: f64) {
        let fresh = self.0.insert(name.to_string(), value).is_none();
        assert!(fresh, "layer metric {name} measured twice");
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn finish(mut self) -> Vec<(metrics::Layer, f64)> {
        let rows: Vec<(metrics::Layer, f64)> = metrics::layers()
            .into_iter()
            .map(|l| {
                let value = self
                    .0
                    .remove(&l.name)
                    .unwrap_or_else(|| panic!("layer metric {} not measured", l.name));
                (l, value)
            })
            .collect();
        assert!(
            self.0.is_empty(),
            "measured but not in the catalogue: {:?}",
            self.0.keys()
        );
        rows
    }
}

/// `batch-file`'s whole per-packet path, in process: read, then dissect
/// and state per record through `PacketSink::push`.
fn inline_pass(campus: &Path) -> Cost {
    measure(|| {
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        let records = each_record(campus, |r| {
            analyzer
                .push(r.ts_nanos(), r.data(), LinkType::Ethernet)
                .expect("the analyzer accepts a generated trace");
        });
        black_box(analyzer.summary().zoom_packets);
        records
    })
}

/// The in-process probes: every row that times library calls. Returns
/// the median CPU time of `finish()` and report printing, in nanoseconds,
/// for the coverage row.
fn probe_library(dir: &Path, manifest: &Manifest, t: &mut Table) -> f64 {
    let campus = dir.join(CAMPUS);
    let border = dir.join(BORDER);
    let taps = [dir.join(TAPS[0]), dir.join(TAPS[1])];
    let n = manifest.file(CAMPUS).records;
    let link = LinkType::Ethernet;
    let per_pkt = |prefix: &Cost, previous: &Cost| {
        self_cost_per_pkt(prefix.wall_nanos, previous.wall_nanos, prefix.records)
    };
    let cpu_per_pkt = |prefix: &Cost, previous: &Cost| {
        self_cost_per_pkt(prefix.cpu_nanos, previous.cpu_nanos, prefix.records)
    };
    let nothing = Cost {
        wall_nanos: 0.0,
        cpu_nanos: 0.0,
        allocs: 0,
        records: n,
    };

    // wire: read, write, batch fill, peek, dissect.
    let read = repeat(|| {
        measure(|| {
            each_record(&campus, |r| {
                black_box(r.data().len());
            })
        })
    });
    assert_eq!(
        read.records, n,
        "the probes and the manifest disagree on {CAMPUS}"
    );
    t.set("wire.pcap.read_ns_per_pkt", per_pkt(&read, &nothing));

    let copy = dir.join("probe-copy.pcap");
    let write = repeat(|| {
        measure(|| {
            let file = File::create(&copy).expect("the data directory is writable");
            let mut writer =
                Writer::new(BufWriter::new(file), link).expect("the data directory is writable");
            // One reused record, filled as the CLI's capture loop fills its own.
            let mut rec = Record::full(0, Vec::new());
            let records = each_record(&campus, |r| {
                rec.ts_nanos = r.ts_nanos();
                rec.orig_len = r.orig_len();
                rec.data.clear();
                rec.data.extend_from_slice(r.data());
                writer
                    .write_record(&rec)
                    .expect("the data directory is writable");
            });
            writer
                .finish()
                .and_then(|mut w| w.flush())
                .expect("the data directory is writable");
            records
        })
    });
    let _ = std::fs::remove_file(&copy);
    t.set("wire.pcap.write_ns_per_pkt", per_pkt(&write, &read));

    let mut copied = 0u64;
    let fill = repeat(|| {
        copied = 0;
        measure(|| each_batch(&campus, BATCH, 0, |b| copied += b.arena_bytes() as u64))
    });
    t.set("wire.handoff.fill_ns_per_pkt", per_pkt(&fill, &read));
    t.set(
        "wire.handoff.bytes_copied_per_pkt",
        copied as f64 / n as f64,
    );

    let mut arena = PeekArena::new();
    let peek = repeat(|| {
        measure(|| {
            each_batch(&campus, BATCH, 0, |b| {
                dissect::peek_batch(b, link, &mut arena);
                black_box(arena.len());
            })
        })
    });
    t.set("wire.dissect.peek_ns_per_pkt", per_pkt(&peek, &fill));

    let dissect_batch = repeat(|| {
        measure(|| {
            each_batch(&campus, BATCH, 0, |b| {
                dissect::dissect_batch(b, link, P2pProbe::Off, &mut arena);
                black_box(arena.len());
            })
        })
    });
    t.set(
        "wire.dissect.full_ns_per_pkt",
        per_pkt(&dissect_batch, &peek),
    );

    // core: the sequential analyzer, per record and per batch.
    let dissect_each = repeat(|| {
        measure(|| {
            each_record(&campus, |r| {
                black_box(dissect::dissect(r.ts_nanos(), r.data(), link, P2pProbe::Off).is_ok());
            })
        })
    });
    let push = repeat(|| inline_pass(&campus));
    t.set(
        "core.pipeline.push_ns_per_pkt",
        per_pkt(&push, &dissect_each),
    );

    let mut finish_millis = Vec::new();
    let mut finish_cpu = Vec::new();
    let push_batch = repeat(|| {
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        let cost = measure(|| {
            each_batch(&campus, BATCH, 0, |b| {
                analyzer
                    .push_batch(b, link)
                    .expect("the analyzer accepts a generated trace");
            })
        });
        let (c0, t0) = (sys::process_cpu_nanos(), Instant::now());
        let report = analyzer.finish().expect("the analyzer finishes");
        black_box(report.to_json().len());
        finish_cpu.push((sys::process_cpu_nanos() - c0) as f64);
        finish_millis.push(t0.elapsed().as_nanos() as f64 / 1e6);
        cost
    });
    t.set(
        "core.pipeline.push_batch_ns_per_pkt",
        per_pkt(&push_batch, &dissect_batch),
    );
    t.set("core.pipeline.finish_ms", median(&finish_millis));

    // Exact allocation count of a warm pass: the same flows again, one
    // trace length later, so every table and arena is already grown.
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let mut last_ts = 0;
    each_batch(&campus, BATCH, 0, |b| {
        analyzer
            .push_batch(b, link)
            .expect("the analyzer accepts a generated trace");
        last_ts = b.iter().last().map_or(last_ts, |r| r.ts_nanos);
    });
    let warm = measure(|| {
        each_batch(&campus, BATCH, last_ts + 1, |b| {
            analyzer
                .push_batch(b, link)
                .expect("the analyzer accepts a generated trace");
        })
    });
    // The reader's and the batch arena's own allocations are not the
    // pipeline's: subtract what the bare fill makes.
    t.set(
        "core.pipeline.allocs_per_pkt",
        warm.allocs.saturating_sub(fill.allocs) as f64 / n as f64,
    );
    drop(analyzer);

    // core: the streaming engine, unwindowed and windowed.
    let mut router = Vec::new();
    let unwindowed = repeat(|| {
        let pass = engine_pass(&campus, None, None);
        router.push(pass.router_nanos);
        pass.cost
    });
    t.set("core.engine.router_ns_per_pkt", median(&router) / n as f64);
    let sequential = Cost {
        cpu_nanos: push_batch.cpu_nanos + median(&finish_cpu),
        ..push_batch
    };
    t.set(
        "core.engine.hop_cpu_ns_per_pkt",
        cpu_per_pkt(&unwindowed, &sequential),
    );

    let mut passes = Vec::new();
    let windowed = repeat(|| {
        let pass = engine_pass(
            &campus,
            Some(Duration::from_secs(1)),
            Some(Duration::from_secs(10)),
        );
        let cost = pass.cost;
        passes.push(pass);
        cost
    });
    t.set(
        "core.engine.window_cpu_ns_per_pkt",
        cpu_per_pkt(&windowed, &unwindowed),
    );
    let closes: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.close_micros.iter().copied())
        .collect();
    let mut sorted = closes.clone();
    sorted.sort_by(f64::total_cmp);
    t.set(
        "core.engine.window_close_us_p50",
        Summary::of(&closes).median,
    );
    t.set(
        "core.engine.window_close_us_p95",
        sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)],
    );
    let first = &passes[0];
    assert!(
        passes.iter().all(|p| (p.windows, p.peak_tracked, p.evicted)
            == (first.windows, first.peak_tracked, first.evicted)),
        "the engine's counts differ between repetitions over one trace"
    );
    t.set("core.engine.windows_closed", first.windows as f64);
    t.set(
        "core.engine.peak_tracked_entries",
        first.peak_tracked as f64,
    );
    t.set("core.engine.evicted_entries", first.evicted as f64);
    t.set(
        "core.engine.drain_ms",
        median(&passes.iter().map(|p| p.drain_millis).collect::<Vec<_>>()),
    );
    t.set(
        "core.report.window_json_bytes",
        first.window_json_bytes as f64,
    );

    // capture: the fan-in over one and two lanes, the ring on its own.
    let lane1 = repeat(|| mux_drain(vec![pcap_source(&campus)]).0);
    t.set(
        "capture.mux.lane1_cpu_ns_per_pkt",
        cpu_per_pkt(&lane1, &read),
    );
    t.set("capture.mux.allocs_per_pkt", lane1.allocs as f64 / n as f64);
    let mut batches = 0;
    let lane2 = repeat(|| {
        let (cost, b) = mux_drain(taps.iter().map(|p| pcap_source(p)).collect());
        batches = b;
        cost
    });
    assert_eq!(lane2.records, n, "the taps do not add up to {CAMPUS}");
    t.set(
        "capture.mux.lane2_cpu_ns_per_pkt",
        cpu_per_pkt(&lane2, &read),
    );
    t.set("capture.mux.pkts_per_batch", n as f64 / batches as f64);
    t.set(
        "capture.ring.hop_ns",
        median(&(0..REPS).map(|_| ring_hop_nanos()).collect::<Vec<_>>()),
    );

    // wire + capture: ZFRG framing and the fragment lanes.
    let mut framed = 0u64;
    let encode = repeat(|| {
        measure(|| {
            let mut writer = FrameWriter::new(CountingSink::default(), "probe", link)
                .expect("a sink takes a header");
            let records = each_batch(&campus, BATCH, 0, |b| {
                writer.write_batch(b).expect("a sink takes a frame")
            });
            framed = writer
                .finish(Totals::default())
                .expect("a sink takes a frame")
                .0;
            records
        })
    });
    t.set("wire.frame.encode_ns_per_pkt", per_pkt(&encode, &fill));
    t.set(
        "wire.frame.overhead_bytes_per_pkt",
        (framed as f64 - copied as f64) / n as f64,
    );

    let spools = [dir.join("probe0.zfrg"), dir.join("probe1.zfrg")];
    write_spool(&campus, &spools[0], "probe");
    let decode = repeat(|| {
        measure(|| {
            let file = File::open(&spools[0]).expect("the spool was just written");
            let mut reader =
                FrameReader::new(BufReader::new(file)).expect("the spool has a stream header");
            let mut batch = RecordBatch::new();
            while reader
                .next(&mut batch)
                .expect("the spool decodes")
                .is_some()
            {
                black_box(batch.len());
                batch.clear();
            }
            reader.records_read()
        })
    });
    t.set("wire.frame.decode_ns_per_pkt", per_pkt(&decode, &nothing));
    for (tap, spool) in taps.iter().zip(&spools) {
        write_spool(tap, spool, "probe");
    }
    let fragments = repeat(|| mux_drain(spools.iter().map(|p| spool_source(p)).collect()).0);
    assert_eq!(
        fragments.records, n,
        "the fragment lanes do not add up to {CAMPUS}"
    );
    t.set(
        "capture.fragment.lane2_cpu_ns_per_pkt",
        cpu_per_pkt(&fragments, &nothing),
    );
    for spool in &spools {
        let _ = std::fs::remove_file(spool);
    }

    // capture: the filter, on the border trace.
    let read_border = repeat(|| {
        measure(|| {
            each_record(&border, |r| {
                black_box(r.data().len());
            })
        })
    });
    let mut passed = 0;
    let classify = repeat(|| {
        measure(|| {
            let mut pipeline = CapturePipeline::new(PipelineConfig::sample(CAMPUS_NET));
            let records = each_record(&border, |r| {
                black_box(pipeline.classify(r.ts_nanos(), r.data(), link));
            });
            passed = pipeline.counters().passed;
            records
        })
    });
    t.set(
        "capture.pipeline.classify_ns_per_pkt",
        per_pkt(&classify, &read_border),
    );
    t.set(
        "capture.pipeline.pass_share",
        passed as f64 / classify.records as f64,
    );
    let process = repeat(|| {
        measure(|| {
            let mut pipeline = CapturePipeline::new(PipelineConfig {
                anonymizer: Some(Anonymizer::new(12345, Mode::PrefixPreserving)),
                ..PipelineConfig::sample(CAMPUS_NET)
            });
            let mut rec = Record::full(0, Vec::new());
            each_record(&border, |r| {
                rec.ts_nanos = r.ts_nanos();
                rec.orig_len = r.orig_len();
                rec.data.clear();
                rec.data.extend_from_slice(r.data());
                black_box(pipeline.process_record(&rec, link).1.is_some());
            })
        })
    });
    t.set(
        "capture.pipeline.process_ns_per_pkt",
        per_pkt(&process, &read_border),
    );
    median(&finish_cpu)
}

/// What the CLI passes the traced run made itself found.
struct CliOutcome {
    attempted_records: u64,
    failed_records: u64,
}

/// The rows that come from running the CLI: start-up, the pass split,
/// the program's own accounting, the program's own trace. `plain` holds
/// the plain passes of every workload; `finish_cpu_nanos` is what
/// [`probe_library`] returned.
fn probe_cli(
    env: &Env,
    manifest: &Manifest,
    plain: &[Samples],
    finish_cpu_nanos: f64,
    t: &mut Table,
) -> Result<CliOutcome, String> {
    let dir = env.data.path();
    let mut out = CliOutcome {
        attempted_records: 0,
        failed_records: 0,
    };
    let plain_of = |w: Workload| -> Result<&Samples, String> {
        plain
            .iter()
            .find(|s| s.workload == w && !s.passes.is_empty())
            .ok_or(format!(
                "the traced run was given no plain {} pass",
                w.name()
            ))
    };

    // Start-up: everything a pass costs that does not scale with input.
    let empty = dir.join("empty.pcap");
    Writer::new(
        File::create(&empty).map_err(|e| e.to_string())?,
        LinkType::Ethernet,
    )
    .and_then(Writer::finish)
    .map_err(|e| format!("empty.pcap: {e}"))?;
    let startup = Step {
        label: "startup",
        args: vec![
            "analyze".to_string(),
            empty.to_string_lossy().into_owned(),
            "--json".to_string(),
        ],
    };
    let (mut startup_millis, mut startup_cpu) = (Vec::new(), Vec::new());
    for _ in 0..STARTUPS {
        let cost = run_step(&env.tools, dir, &startup)?;
        if !cost.usage.success {
            return Err("zoom-tools analyze fails on a header-only pcap".to_string());
        }
        startup_millis.push(cost.wall_nanos as f64 / 1e6);
        startup_cpu.push(cost.usage.cpu_nanos as f64);
    }
    t.set("cli.startup_ms", median(&startup_millis));

    // Coverage: the CPU of what batch-file passes through — read, dissect
    // and state per record, finish and print, start-up — over the CPU of
    // the CLI pass. The per-packet rows are prefix differences, so read +
    // dissect + `core.pipeline.push` telescope to the whole `push` prefix,
    // which is one `inline_pass`; the row therefore says whether that
    // loop plus the fixed costs is all the CLI does, not whether the rows
    // add up (they do by construction). Each CLI pass is paired with an
    // in-process one run right before it: the box's speed drifts by more
    // than the gap the row is after, and pairing puts both under the same
    // drift.
    let reference = e2e::reference(env, manifest)?;
    let fixed_cpu = finish_cpu_nanos + median(&startup_cpu);
    let mut paired = Samples::new(Workload::BatchFile, manifest);
    let mut coverages = Vec::new();
    for _ in 0..COVERAGE_PAIRS {
        let inline = inline_pass(&dir.join(CAMPUS));
        paired.timed_pass(env, manifest, reference.as_ref())?;
        let cli_cpu = paired.passes.last().map_or(0, PassCost::cpu_nanos);
        coverages.push((inline.cpu_nanos + fixed_cpu) / cli_cpu as f64);
    }
    out.attempted_records += paired.attempted_records();
    out.failed_records += paired.failed_records;
    let coverage = median(&coverages);
    if !(0.8..=1.2).contains(&coverage) {
        eprintln!("[benchmark] warning: coverage {coverage:.2} is outside 0.8–1.2: the table does not explain batch-file's CPU per packet");
    }
    t.set("layers.batch-file.coverage", coverage);

    // Rows that are properties of a plain pass. A pass that failed early
    // has fewer steps; its records were counted as failed where it ran.
    let step_seconds =
        |p: &PassCost, i: usize| p.steps.get(i).map_or(0.0, |s| s.wall_nanos as f64 / 1e9);
    t.set(
        "cli.stream-windowed.stdout_bytes",
        plain_of(Workload::StreamWindowed)?
            .median_of(|p| p.steps.first().map_or(0.0, |s| s.stdout_bytes as f64)),
    );
    let dist_merge = plain_of(Workload::DistMerge)?;
    t.set(
        "cli.dist-merge.emit_s",
        dist_merge.median_of(|p| step_seconds(p, 0) + step_seconds(p, 1)),
    );
    t.set(
        "cli.dist-merge.merge_s",
        dist_merge.median_of(|p| step_seconds(p, 2)),
    );

    // One pass per workload with --metrics: the program's own accounting.
    for w in Workload::ALL {
        let records = w.records(manifest);
        out.attempted_records += records;
        let cost = w.run_pass(&env.tools, dir, Instrument::Metrics)?;
        let snapshot = std::fs::read_to_string(dir.join(METRICS_FILE))
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        let (drops, holds) = match (&snapshot, cost.success()) {
            (Ok(v), true) => (
                v.get("sources").and_then(Json::as_arr).map_or(0.0, |s| {
                    s.iter()
                        .filter_map(|x| x.get("ring_full_drops")?.as_f64())
                        .sum()
                }),
                v.get("conservation_holds").and_then(Json::as_bool) == Some(true),
            ),
            _ => (f64::from(u32::MAX), false),
        };
        if drops != 0.0 || !holds {
            eprintln!("[benchmark] traced run: {} --metrics pass: {drops} ring-full drops, conservation {holds}", w.name());
            out.failed_records += records;
        }
        t.set(&format!("obs.{}.ring_full_drops", w.name()), drops);
        t.set(
            &format!("obs.{}.conservation_holds", w.name()),
            f64::from(u8::from(holds)),
        );
        w.clean(dir);
        let _ = std::fs::remove_file(dir.join(METRICS_FILE));
    }

    // One stream-windowed and one dist-merge pass with --trace: the
    // program's own spans, and what recording them costs.
    let mut trace_files = Vec::new();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    for w in [Workload::StreamWindowed, Workload::DistMerge] {
        let records = w.records(manifest);
        out.attempted_records += records;
        let cost = w.run_pass(&env.tools, dir, Instrument::Trace)?;
        if !cost.success() {
            eprintln!(
                "[benchmark] traced run: {} --trace pass exited non-zero",
                w.name()
            );
            out.failed_records += records;
        }
        traced_wall += cost.wall_nanos() as f64;
        untraced_wall += plain_of(w)?.median_of(|p| p.wall_nanos() as f64);
        trace_files.extend(
            w.steps(dir, Instrument::Trace)
                .iter()
                .map(|s| s.trace_path(dir)),
        );
        w.clean(dir);
    }
    let spans = fold_spans(&trace_files)?;
    for path in &trace_files {
        let _ = std::fs::remove_file(path);
    }
    for span in TRACE_SPANS {
        let per_pkt = match spans.get(span) {
            Some((dur, records)) if *records > 0.0 => dur / records,
            _ => {
                eprintln!(
                    "[benchmark] traced run: no {span} span with records in the program's trace"
                );
                0.0
            }
        };
        t.set(&format!("trace.{span}.ns_per_pkt"), per_pkt);
    }
    t.set(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    Ok(out)
}

/// Runs the whole traced run over the traces in `env`'s data directory
/// (all four files must be there). `plain` is `e2e::measure`'s samples
/// of every workload: [`CLI_PASSES`] passes each when taken for this run
/// alone, `run`'s own timed passes otherwise.
pub fn run(env: &Env, manifest: &Manifest, plain: &[Samples]) -> Result<Outcome, String> {
    let mut t = Table::default();
    let finish_cpu_nanos = probe_library(env.data.path(), manifest, &mut t);
    let cli = probe_cli(env, manifest, plain, finish_cpu_nanos, &mut t)?;

    // The program's spans beside the outside-in rows they should match.
    for (span, rows) in [
        (
            "source_read",
            &["wire.pcap.read_ns_per_pkt", "wire.handoff.fill_ns_per_pkt"][..],
        ),
        (
            "dissect",
            &[
                "wire.dissect.peek_ns_per_pkt",
                "wire.dissect.full_ns_per_pkt",
            ][..],
        ),
        ("engine_push", &["core.engine.router_ns_per_pkt"][..]),
        ("merge_decode", &["wire.frame.decode_ns_per_pkt"][..]),
        ("fragment_encode", &["wire.frame.encode_ns_per_pkt"][..]),
    ] {
        let outside: f64 = rows.iter().map(|r| t.get(r)).sum();
        eprintln!(
            "[benchmark] cross-check {span:<16} program's span {:>9.1} ns/pkt | outside-in {:>9.1} ns/pkt ({})",
            t.get(&format!("trace.{span}.ns_per_pkt")),
            outside,
            rows.join(" + ")
        );
    }
    eprintln!(
        "[benchmark] cross-check window_emit      program's span {:>9.1} us/window | outside-in {:>9.1} us (core.engine.window_close_us_p50)",
        t.get("trace.window_emit.ns_per_pkt") / 1e3,
        t.get("core.engine.window_close_us_p50")
    );

    Ok(Outcome {
        table: t.finish(),
        attempted_records: cli.attempted_records,
        failed_records: cli.failed_records,
    })
}

//! The metric catalogue: every name the benchmark reports, with its
//! unit, which way is better, and — for the layer table — the public
//! call that is timed. `BENCHMARK.json` lists the same names; a test
//! keeps the two equal. `README.md` has the definitions and, per layer,
//! the end-to-end metric it should move and on which workload.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the program would see, measured per workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const PKTS_PER_S: &str = "pkts_per_s";
pub const CPU_NS_PER_PKT: &str = "cpu_ns_per_pkt";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";
pub const PASS_SHARE: &str = "pass_share";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: PKTS_PER_S,
        unit: "records/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: CPU_NS_PER_PKT,
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MIB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: PASS_SHARE,
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One row of the layer table.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The public call timed, from the benchmark's own code.
    pub probe: &'static str,
}

/// The nine span names of `zoom_analysis::obs::trace::SPAN_CATALOGUE`,
/// spelled out so that the catalogue is readable here; the traced run
/// asserts the two lists are equal.
pub const TRACE_SPANS: [&str; 9] = [
    "source_read",
    "ring_enqueue",
    "ring_dequeue",
    "dissect",
    "shard_route",
    "engine_push",
    "window_emit",
    "fragment_encode",
    "merge_decode",
];

/// The rows whose names are fixed: name, unit, better, probe.
#[rustfmt::skip]
const FIXED_ROWS: &[(&str, &str, Better, &str)] = {
    use Better::{Higher, Lower};
    &[
        ("wire.pcap.read_ns_per_pkt", "ns", Lower, "pcap::Reader::read_into over BufReader<File>"),
        ("wire.pcap.write_ns_per_pkt", "ns", Lower, "pcap::Writer::write_record − read"),
        ("wire.handoff.fill_ns_per_pkt", "ns", Lower, "RecordBatch::push, 256/batch − read"),
        ("wire.handoff.bytes_copied_per_pkt", "bytes", Lower, "Σ RecordBatch::arena_bytes ÷ records (exact)"),
        ("wire.dissect.peek_ns_per_pkt", "ns", Lower, "dissect::peek_batch − fill"),
        ("wire.dissect.full_ns_per_pkt", "ns", Lower, "dissect::dissect_batch − peek_batch"),
        ("core.pipeline.push_ns_per_pkt", "ns", Lower, "PacketSink::push on Analyzer, per record − dissect::dissect"),
        ("core.pipeline.push_batch_ns_per_pkt", "ns", Lower, "PacketSink::push_batch on Analyzer − dissect_batch"),
        ("core.pipeline.allocs_per_pkt", "count", Lower, "allocations in a warm second push_batch pass ÷ records (exact)"),
        ("core.pipeline.finish_ms", "ms", Lower, "Analyzer::finish + AnalysisReport::to_json"),
        ("core.engine.router_ns_per_pkt", "ns", Lower, "caller-thread time in StreamingEngine::push_batch, 1 shard, no window"),
        ("core.engine.hop_cpu_ns_per_pkt", "ns", Lower, "process CPU/pkt of that engine − process CPU/pkt of Analyzer::push_batch"),
        ("core.engine.window_cpu_ns_per_pkt", "ns", Lower, "engine(1 s window, 10 s idle) CPU/pkt − engine(no window) CPU/pkt"),
        ("core.engine.window_close_us_p50", "us", Lower, "push_batch calls after which take_windows() is non-empty, median"),
        ("core.engine.window_close_us_p95", "us", Lower, "the same calls, 95th percentile"),
        ("core.engine.windows_closed", "count", Higher, "window reports taken before drain (exact)"),
        ("core.engine.peak_tracked_entries", "count", Lower, "StreamingEngine::peak_tracked_entries (exact)"),
        ("core.engine.evicted_entries", "count", Higher, "evicted_flows + evicted_streams of the engine's registry (exact)"),
        ("core.engine.drain_ms", "ms", Lower, "StreamingEngine::drain"),
        ("core.report.window_json_bytes", "bytes", Lower, "Σ WindowReport::to_json().len()"),
        ("capture.mux.lane1_cpu_ns_per_pkt", "ns", Lower, "CaptureMux::start([PcapFileSource]), next_batch(1024) drain only, CPU/pkt − read"),
        ("capture.mux.allocs_per_pkt", "count", Lower, "allocations of that one-lane drain ÷ records"),
        ("capture.mux.lane2_cpu_ns_per_pkt", "ns", Lower, "the same drain over tap0 + tap1, CPU/pkt − read"),
        ("capture.mux.pkts_per_batch", "count", Higher, "records delivered ÷ next_batch calls of the two-lane drain: the merge-run length"),
        ("capture.ring.hop_ns", "ns", Lower, "ring::spsc push + pop of a RecordBatch between two threads, capacity 8"),
        ("wire.frame.encode_ns_per_pkt", "ns", Lower, "FrameWriter::write_batch into a counting sink − fill"),
        ("wire.frame.overhead_bytes_per_pkt", "bytes", Lower, "(bytes framed − bytes captured) ÷ records (exact)"),
        ("wire.frame.decode_ns_per_pkt", "ns", Lower, "FrameReader::next over a spool file"),
        ("capture.fragment.lane2_cpu_ns_per_pkt", "ns", Lower, "two FragmentSource::open lanes through CaptureMux, drain only, CPU/pkt"),
        ("capture.pipeline.classify_ns_per_pkt", "ns", Lower, "CapturePipeline::classify on border.pcap − read"),
        ("capture.pipeline.pass_share", "ratio", Lower, "records the filter passes ÷ records (exact)"),
        ("capture.pipeline.process_ns_per_pkt", "ns", Lower, "CapturePipeline::process_record with Anonymizer − read"),
        ("cli.startup_ms", "ms", Lower, "zoom-tools analyze on a header-only pcap"),
        ("cli.dist-merge.emit_s", "s", Lower, "the two worker processes of a dist-merge pass"),
        ("cli.dist-merge.merge_s", "s", Lower, "the merge process of a dist-merge pass"),
        ("cli.stream-windowed.stdout_bytes", "bytes", Lower, "NDJSON a stream-windowed pass prints"),
    ]
};

/// Every per-layer metric, in table order.
pub fn layers() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let row = |name: &str, unit, better, probe| Layer {
        name: name.to_string(),
        unit,
        better,
        probe,
    };
    let mut t: Vec<Layer> = FIXED_ROWS
        .iter()
        .map(|&(name, unit, better, probe)| row(name, unit, better, probe))
        .collect();
    for w in Workload::ALL {
        let name = w.name();
        t.push(row(
            &format!("obs.{name}.ring_full_drops"),
            "count",
            Lower,
            "one pass with --metrics, read back; must be 0",
        ));
        t.push(row(
            &format!("obs.{name}.conservation_holds"),
            "bool",
            Higher,
            "the same snapshot; must be 1",
        ));
    }
    t.push(row(
        "layers.batch-file.coverage",
        "ratio",
        Higher,
        "CPU of (pcap.read + pipeline.push incl. dissect, replayed in process, + finish + CLI start-up) ÷ CPU of a batch-file pass; five pairs",
    ));
    for span in TRACE_SPANS {
        t.push(row(
            &format!("trace.{span}.ns_per_pkt"),
            "ns",
            Lower,
            "the program's own --trace spans, Σ dur_nanos ÷ Σ records (per window for window_emit)",
        ));
    }
    t.push(row(
        "trace.overhead_pct",
        "%",
        Lower,
        "traced stream-windowed + dist-merge pass wall vs their untraced medians",
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Names are `[A-Za-z0-9_.-]+`, start with a letter or digit, and are at
    /// most 64 characters (the `BENCHMARK.json` contract).
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} twice", m.name);
        }
        let layers = layers();
        assert!(layers.len() <= 128);
        for l in &layers {
            assert!(valid_name(&l.name) && valid_unit(l.unit), "{}", l.name);
            assert!(seen.insert(l.name.clone()), "{} twice", l.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name().to_string()));
        }
        assert!(
            !valid_name("")
                && !valid_name("-x")
                && !valid_name("a b")
                && !valid_name(&"x".repeat(65))
        );
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn span_names_match_the_programs_catalogue() {
        assert_eq!(TRACE_SPANS, zoom_analysis::obs::trace::SPAN_CATALOGUE);
    }
}

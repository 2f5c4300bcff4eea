//! End-to-end throughput: simulate → filter → analyze, packets per second,
//! plus the pcap ingest paths on the campus scenario.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_capture::cidr::prefix_set;
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_capture::zoom_nets::{Owner, ZoomIpList, ZoomNetwork};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Reader, RecordBuf, SliceReader, Writer};

fn bench(c: &mut Criterion) {
    // Pre-generate the records: the benchmark measures the consumer side.
    let mut cfg = scenario::multi_party(5, 30 * SEC);
    cfg.participants.truncate(3);
    let records: Vec<_> = MeetingSim::new(cfg).collect();
    let zoom_list = ZoomIpList::from_networks(vec![ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: Owner::ZoomAs,
    }]);

    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("capture_plus_analysis", |b| {
        b.iter(|| {
            let mut capture = CapturePipeline::new(PipelineConfig {
                campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
                excluded_nets: Default::default(),
                zoom_list: zoom_list.clone(),
                stun_timeout_nanos: 120 * SEC,
                anonymizer: None,
                family: zoom_wire::family::FamilySelect::Only(zoom_wire::family::FamilyId::Zoom),
            });
            let mut analyzer = Analyzer::new(AnalyzerConfig::default());
            for r in &records {
                let (_, out) = capture.process_record(r, LinkType::Ethernet);
                if let Some(out) = out {
                    analyzer.process_packet(out.ts_nanos, &out.data, LinkType::Ethernet);
                }
            }
            analyzer.summary().zoom_packets
        })
    });
    g.finish();

    // The campus scenario (Table 6's workload), for the ingest group
    // below.
    let (campus, _infra) = scenario::campus_study(5, 120 * SEC, 1.0 / 2.0, 0.0);
    let records: Vec<_> = campus.into_stream().collect();

    // Ingest fast path: the same pcap image through the owning reader,
    // the buffer-reusing `read_into` loop, and the borrowed-slice
    // `SliceReader`, each feeding the sequential analyzer. Results are
    // byte-identical (tests/*_differential.rs); this measures only the
    // per-record allocation and copy savings.
    let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
    for r in &records {
        w.write_record(r).expect("record");
    }
    let img = w.finish().expect("flush");

    let mut g = c.benchmark_group("ingest_fast_path");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("owning_reader", |b| {
        b.iter(|| {
            let mut reader = Reader::new(&img[..]).expect("header");
            let mut analyzer = Analyzer::new(AnalyzerConfig::default());
            while let Some(r) = reader.next_record().expect("record") {
                analyzer.process_packet(r.ts_nanos, &r.data, LinkType::Ethernet);
            }
            analyzer.summary().zoom_packets
        })
    });
    g.bench_function("read_into_reuse", |b| {
        b.iter(|| {
            let mut reader = Reader::new(&img[..]).expect("header");
            let mut analyzer = Analyzer::new(AnalyzerConfig::default());
            let mut buf = RecordBuf::new();
            while reader.read_into(&mut buf).expect("record") {
                analyzer.process_packet(buf.ts_nanos(), buf.data(), LinkType::Ethernet);
            }
            analyzer.summary().zoom_packets
        })
    });
    g.bench_function("slice_reader", |b| {
        b.iter(|| {
            let mut reader = SliceReader::new(&img).expect("header");
            let mut analyzer = Analyzer::new(AnalyzerConfig::default());
            while let Some(r) = reader.next_record().expect("record") {
                analyzer.process_packet(r.ts_nanos, r.data, LinkType::Ethernet);
            }
            analyzer.summary().zoom_packets
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Differential tests for the sharded pipeline: for any shard count, the
//! `ParallelAnalyzer` must produce results identical to the sequential
//! `Analyzer` — the same `TraceSummary`, the same meeting reports, the
//! same per-media sample sets, and the same RTT samples.
//!
//! The fixed-scenario tests cover the campus workload (many concurrent
//! meetings, background traffic filtered by the capture pipeline) and a
//! P2P meeting (exercising the router-owned STUN registry and the
//! per-record P2P verdict). The property test sweeps randomized small
//! scenarios and shard counts.
//!
//! One shard runs the engine's in-line lane (shard state on the calling
//! thread, no copy, no channel), more run worker threads: every 1-vs-N
//! comparison here also pins in-line ≡ threaded.

use proptest::prelude::*;
use zoom_analysis::parallel::ParallelAnalyzer;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::cidr::prefix_set;
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, SliceReader, Writer};
use zoom_wire::zoom::MediaType;

fn run_sequential(records: &[Record]) -> Analyzer {
    let mut a = Analyzer::new(AnalyzerConfig::default());
    for r in records {
        a.push(r.ts_nanos, &r.data, LinkType::Ethernet).expect("push");
    }
    a
}

fn run_parallel(records: &[Record], shards: usize) -> Analyzer {
    let mut p = ParallelAnalyzer::new(AnalyzerConfig::default(), shards);
    for r in records {
        p.push(r.ts_nanos, &r.data, LinkType::Ethernet).expect("push");
    }
    p.into_analyzer()
}

/// Full-surface equivalence: everything the analyzer reports must match.
fn assert_equivalent(seq: &Analyzer, par: &Analyzer, label: &str) {
    assert_eq!(par.summary(), seq.summary(), "{label}: summary");
    assert_eq!(par.meetings(), seq.meetings(), "{label}: meetings");
    for media in [MediaType::Video, MediaType::Audio, MediaType::ScreenShare] {
        let s = seq.media_samples(media);
        let p = par.media_samples(media);
        assert_eq!(
            p.bitrate_mbps.values(),
            s.bitrate_mbps.values(),
            "{label}: {media:?} bitrate"
        );
        assert_eq!(p.fps.values(), s.fps.values(), "{label}: {media:?} fps");
        assert_eq!(
            p.frame_size.values(),
            s.frame_size.values(),
            "{label}: {media:?} frame size"
        );
        assert_eq!(
            p.jitter_ms.values(),
            s.jitter_ms.values(),
            "{label}: {media:?} jitter"
        );
    }
    assert_eq!(par.fig16_samples(), seq.fig16_samples(), "{label}: fig16");
    assert_eq!(
        par.rtp_rtt_samples(),
        seq.rtp_rtt_samples(),
        "{label}: rtp rtt"
    );
    // TCP handshake RTT samples on distinct flows that share a timestamp
    // may merge in either order; compare as ordered-by-key sets.
    let sort_key =
        |s: &zoom_analysis::metrics::latency::RttSample| (s.at, s.rtt_nanos, s.to);
    let mut seq_tcp = seq.tcp_rtt_samples().to_vec();
    let mut par_tcp = par.tcp_rtt_samples().to_vec();
    seq_tcp.sort_by_key(sort_key);
    par_tcp.sort_by_key(sort_key);
    assert_eq!(par_tcp, seq_tcp, "{label}: tcp rtt");
}

#[test]
fn campus_study_identical_at_1_2_8_shards() {
    // The capture pipeline filters the 4:1 background mix down to Zoom
    // traffic, exactly as in production; both analyzer paths then see the
    // same filtered stream.
    let (scenario_obj, infra) = scenario::campus_study(5, 300 * SEC, 1.0 / 5.0, 4.0);
    let mut capture = CapturePipeline::new(PipelineConfig {
        campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
        excluded_nets: Default::default(),
        zoom_list: infra.ip_list.clone(),
        stun_timeout_nanos: 120 * SEC,
        anonymizer: None,
        family: zoom_wire::family::FamilySelect::Only(zoom_wire::family::FamilyId::Zoom),
    });
    let mut records = Vec::new();
    for record in scenario_obj.into_stream() {
        let (_, out) = capture.process_record(&record, LinkType::Ethernet);
        if let Some(out) = out {
            records.push(out);
        }
    }
    assert!(records.len() > 10_000, "thin feed: {}", records.len());

    let seq = run_sequential(&records);
    assert!(seq.summary().meetings > 0);
    for shards in [1usize, 2, 8] {
        let par = run_parallel(&records, shards);
        assert_equivalent(&seq, &par, &format!("campus/{shards} shards"));
    }
}

#[test]
fn p2p_meeting_identical_at_1_2_8_shards() {
    // P2P flows are recognized via the STUN endpoint registry; in the
    // sharded pipeline that registry lives on the router and its verdict
    // ships with each record, so this exercises the hint path end to end.
    let records: Vec<Record> = MeetingSim::new(scenario::p2p_meeting(7, 120 * SEC)).collect();
    assert!(records.len() > 1_000);

    let seq = run_sequential(&records);
    assert!(
        seq.summary().rtp_streams > 0,
        "p2p scenario produced no streams"
    );
    for shards in [1usize, 2, 8] {
        let par = run_parallel(&records, shards);
        assert_equivalent(&seq, &par, &format!("p2p/{shards} shards"));
    }
}

// ---------------------------------------------------------------------
// Ingest-path equivalence for the batch front-end: feeding the parallel
// analyzer from any of the three readers produces identical JSON.
// ---------------------------------------------------------------------

/// Serialize records into an in-memory classic pcap image so each ingest
/// path starts from identical bytes.
fn pcap_image(records: &[Record]) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("write header");
    for r in records {
        w.write_record(r).expect("write record");
    }
    w.finish().expect("flush")
}

#[derive(Clone, Copy, Debug)]
enum Ingest {
    Owning,
    ReadInto,
    Slice,
}

fn parallel_report_via(img: &[u8], ingest: Ingest, shards: usize) -> String {
    let mut p = ParallelAnalyzer::new(AnalyzerConfig::default(), shards);
    match ingest {
        Ingest::Owning => {
            let mut r = Reader::new(img).expect("pcap header");
            let link = r.link_type();
            while let Some(rec) = r.next_record().expect("record") {
                p.push(rec.ts_nanos, &rec.data, link).expect("push");
            }
        }
        Ingest::ReadInto => {
            let mut r = Reader::new(img).expect("pcap header");
            let link = r.link_type();
            let mut buf = RecordBuf::new();
            while r.read_into(&mut buf).expect("record") {
                p.process_packet(buf.ts_nanos(), buf.data(), link);
            }
        }
        Ingest::Slice => {
            let mut r = SliceReader::new(img).expect("pcap header");
            let link = r.link_type();
            while let Some(rec) = r.next_record().expect("record") {
                p.process_packet(rec.ts_nanos, rec.data, link);
            }
        }
    }
    p.finish().expect("no shard failure").to_json()
}

#[test]
fn ingest_paths_identical_at_1_2_8_shards() {
    let records: Vec<Record> = MeetingSim::new(scenario::multi_party(13, 45 * SEC)).collect();
    assert!(records.len() > 1_000);
    let img = pcap_image(&records);
    let sequential = run_sequential(&records).finish().expect("finish").to_json();
    for shards in [1usize, 2, 8] {
        let baseline = parallel_report_via(&img, Ingest::Owning, shards);
        assert_eq!(baseline, sequential, "owning/{shards} shards vs sequential");
        for ingest in [Ingest::ReadInto, Ingest::Slice] {
            let json = parallel_report_via(&img, ingest, shards);
            assert_eq!(json, baseline, "{ingest:?}/{shards} shards");
        }
    }
}

proptest! {
    /// Randomized traces: every ingest path × shard count serializes the
    /// same final report.
    #[test]
    fn randomized_traces_identical_across_ingest_paths(
        seed in 0u64..100_000,
        shards in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let records: Vec<Record> =
            MeetingSim::new(scenario::multi_party(seed, 15 * SEC)).collect();
        let img = pcap_image(&records);
        let baseline = parallel_report_via(&img, Ingest::Owning, shards);
        for ingest in [Ingest::ReadInto, Ingest::Slice] {
            prop_assert_eq!(parallel_report_via(&img, ingest, shards), baseline.clone());
        }
    }
}

proptest! {
    /// For randomized small meetings and shard counts, the parallel path
    /// reproduces the sequential trace summary and meeting grouping.
    #[test]
    fn randomized_scenarios_match(
        seed in 0u64..1_000_000,
        secs in 12u64..30,
        shards in 2usize..9,
        p2p in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = if p2p {
            scenario::p2p_meeting(seed, secs * SEC)
        } else {
            scenario::multi_party(seed, secs * SEC)
        };
        let records: Vec<Record> = MeetingSim::new(cfg).collect();
        let seq = run_sequential(&records);
        let par = run_parallel(&records, shards);
        prop_assert_eq!(par.summary(), seq.summary());
        prop_assert_eq!(par.meetings(), seq.meetings());
    }
}

//! Trace I/O integration: a simulated meeting written to pcap and read
//! back must analyze identically to the in-memory stream, for both
//! nanosecond (our writer) and microsecond (tcpdump-classic) files.

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, Writer, MAGIC_USEC};

fn capture(duration_secs: u64) -> Vec<Record> {
    let mut cfg = scenario::validation_experiment(55);
    for p in &mut cfg.participants {
        p.leave_at = duration_secs * SEC;
    }
    MeetingSim::new(cfg).collect()
}

/// Every record of the pcap image `img`, copied out of one reused buffer.
fn read_back(img: &[u8]) -> Vec<Record> {
    let mut reader = Reader::new(img).unwrap();
    assert_eq!(reader.link_type(), LinkType::Ethernet);
    let mut buf = RecordBuf::new();
    let mut out = Vec::new();
    while reader.read_into(&mut buf).unwrap() {
        out.push(buf.to_record());
    }
    out
}

fn analyze(records: impl IntoIterator<Item = Record>) -> zoom_analysis::pipeline::TraceSummary {
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    for r in records {
        analyzer.process_packet(r.ts_nanos, &r.data, LinkType::Ethernet);
    }
    analyzer.summary()
}

#[test]
fn nanosecond_roundtrip_is_lossless() {
    let records = capture(20);
    let direct = analyze(records.clone());

    let mut buf = Vec::new();
    {
        let mut w = Writer::new(&mut buf, LinkType::Ethernet).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
    }
    let replayed = read_back(&buf);
    assert_eq!(replayed.len(), records.len());
    assert_eq!(replayed, records, "byte-exact roundtrip");

    let from_file = analyze(replayed);
    assert_eq!(direct.zoom_packets, from_file.zoom_packets);
    assert_eq!(direct.rtp_streams, from_file.rtp_streams);
    assert_eq!(direct.meetings, from_file.meetings);
}

#[test]
fn microsecond_file_truncates_timestamps_but_still_analyzes() {
    let records = capture(15);

    // Hand-write a µs-resolution file (what classic tcpdump produces).
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC_USEC.to_le_bytes());
    buf.extend_from_slice(&2u16.to_le_bytes());
    buf.extend_from_slice(&4u16.to_le_bytes());
    buf.extend_from_slice(&[0u8; 8]);
    buf.extend_from_slice(&262_144u32.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes()); // Ethernet
    for r in &records {
        let secs = (r.ts_nanos / 1_000_000_000) as u32;
        let usecs = ((r.ts_nanos % 1_000_000_000) / 1_000) as u32;
        buf.extend_from_slice(&secs.to_le_bytes());
        buf.extend_from_slice(&usecs.to_le_bytes());
        buf.extend_from_slice(&(r.data.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(r.data.len() as u32).to_le_bytes());
        buf.extend_from_slice(&r.data);
    }
    let replayed = read_back(&buf);
    assert_eq!(replayed.len(), records.len());
    // Timestamps rounded down to µs.
    for (a, b) in records.iter().zip(&replayed) {
        assert_eq!(a.ts_nanos / 1_000, b.ts_nanos / 1_000);
        assert!(a.ts_nanos >= b.ts_nanos);
    }
    let direct = analyze(records);
    let from_file = analyze(replayed);
    assert_eq!(direct.zoom_packets, from_file.zoom_packets);
    assert_eq!(direct.rtp_streams, from_file.rtp_streams);
    assert_eq!(direct.meetings, from_file.meetings);
}

#[test]
fn snaplen_clipped_records_partially_analyzable() {
    // A capture that clips packets at 128 bytes: every header survives,
    // only media payload is cut, and lengths come from the headers — the
    // summary is the full capture's (`tests/trim_oracle.rs` compares
    // whole reports). At 64 bytes the Zoom headers themselves are cut:
    // those records drop as truncated, the trace still analyzes.
    let records = capture(10);
    let clipped = |snap: usize| -> Vec<Record> {
        records
            .iter()
            .map(|r| Record {
                ts_nanos: r.ts_nanos,
                orig_len: r.data.len() as u32,
                data: r.data[..r.data.len().min(snap)].to_vec(),
            })
            .collect()
    };
    let full = analyze(records.clone());
    assert_eq!(analyze(clipped(128)), full);
    let cut = analyze(clipped(64));
    assert_eq!(cut.total_packets, full.total_packets);
    assert!(cut.zoom_packets < full.zoom_packets);
}

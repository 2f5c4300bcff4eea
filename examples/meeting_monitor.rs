//! Live meeting monitor: watch a multi-party meeting through the analyzer
//! and print a per-5-seconds health line for every video stream — the
//! operator dashboard the paper's introduction motivates (troubleshooting
//! and QoS policy without end-host cooperation).
//!
//! Run with: `cargo run --release --example meeting_monitor`

use std::collections::HashMap;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::stream::StreamKey;
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::MediaType;

fn main() {
    let duration = 120 * SEC;
    let sim = MeetingSim::new(scenario::multi_party(7, duration));
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());

    // Snapshot state so we can print deltas per interval.
    let mut last_frames: HashMap<StreamKey, u64> = HashMap::new();
    let mut last_bytes: HashMap<StreamKey, u64> = HashMap::new();
    let mut next_report = 5 * SEC;

    println!("monitoring a simulated 4-participant meeting (2 on campus)...\n");
    for record in sim {
        if record.ts_nanos >= next_report {
            report(
                next_report,
                &mut analyzer,
                &mut last_frames,
                &mut last_bytes,
            );
            next_report += 5 * SEC;
        }
        analyzer
            .push(record.ts_nanos, &record.data, LinkType::Ethernet)
            .expect("push");
    }

    let summary = analyzer.summary();
    println!(
        "\nfinal: {} zoom packets, {} streams, {} meeting(s)",
        summary.zoom_packets, summary.rtp_streams, summary.meetings
    );
    for m in analyzer.meetings() {
        println!(
            "meeting {}: {} visible participant(s), {} stream(s), servers {:?}",
            m.id,
            m.participant_estimate,
            m.streams.len(),
            m.servers
        );
    }
}

fn report(
    at: u64,
    analyzer: &mut Analyzer,
    last_frames: &mut HashMap<StreamKey, u64>,
    last_bytes: &mut HashMap<StreamKey, u64>,
) {
    println!("t={:>4}s", at / SEC);
    let mut rows = Vec::new();
    for s in analyzer.streams().iter() {
        if s.media_type != MediaType::Video && s.media_type != MediaType::ScreenShare {
            continue;
        }
        let frames_total = s.frames().map_or(0, |f| f.count());
        let bytes_total = s.media_bytes();
        let df = frames_total - last_frames.insert(s.key, frames_total).unwrap_or(0);
        let db = bytes_total - last_bytes.insert(s.key, bytes_total).unwrap_or(0);
        rows.push(format!(
            "  {:<13} ssrc=0x{:02x} {:>5.1} fps {:>8.0} kbit/s  jitter {:>5.2} ms",
            s.media_type.label(),
            s.key.ssrc,
            df as f64 / 5.0,
            db as f64 * 8.0 / 5.0 / 1e3,
            s.jitter_ms(),
        ));
    }
    rows.sort();
    for r in rows {
        println!("{r}");
    }
    let rtt = analyzer.rtp_rtt().totals();
    if let Some(mean) = rtt.mean_ms() {
        println!(
            "  rtt-to-sfu {mean:>5.1} ms mean ({} samples so far)",
            rtt.samples
        );
    }
}

//! Mini campus study: generate a scaled-down campus workload (the §6.2
//! study), filter it with the capture pipeline, analyze it, and print the
//! headline numbers — the fast version of the full 12-hour experiments in
//! `crates/bench`.
//!
//! Run with: `cargo run --release --example campus_study [minutes] [scale-denominator]`
//! e.g. `cargo run --release --example campus_study 30 64`

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::MediaType;

fn main() {
    let mut args = std::env::args().skip(1);
    let minutes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(15);
    let denom: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64.0);

    println!("generating {minutes} min of campus traffic at 1/{denom} scale...");
    let (scenario, infra) = scenario::campus_study(11, minutes * 60 * SEC, 1.0 / denom, 1.0);
    println!("{} meetings scheduled", scenario.meetings.len());

    // The capture pipeline filters Zoom from the mixed feed...
    let mut capture = CapturePipeline::new(PipelineConfig {
        zoom_list: infra.ip_list.clone(),
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });
    // ...and the analyzer consumes only what passes, keeping the
    // per-second series the media samples below are read from.
    let config = AnalyzerConfig {
        per_second_rows: true,
        ..AnalyzerConfig::default()
    };
    let mut analyzer = Analyzer::new(config);

    for record in scenario.into_stream() {
        let (verdict, passed) = capture.process_record(&record, LinkType::Ethernet);
        let _ = verdict;
        if let Some(out) = passed {
            analyzer
                .push(out.ts_nanos, &out.data, LinkType::Ethernet)
                .expect("push");
        }
    }

    let c = capture.counters();
    println!("\n=== capture pipeline (Fig. 13) ===");
    println!("total packets:    {}", c.total);
    println!("zoom-ip matched:  {}", c.zoom_ip_matched);
    println!("stun registered:  {}", c.stun_registered);
    println!("p2p matched:      {}", c.p2p_matched);
    println!("dropped non-zoom: {}", c.dropped);
    println!(
        "pass rate:        {:.1} % of packets, {:.1} % of bytes",
        100.0 * c.passed as f64 / c.total.max(1) as f64,
        100.0 * c.passed_bytes as f64 / c.total_bytes.max(1) as f64
    );

    let summary = analyzer.summary();
    println!("\n=== analysis (Table 6 shape) ===");
    println!("zoom packets:  {}", summary.zoom_packets);
    println!("zoom flows:    {}", summary.zoom_flows);
    println!("rtp streams:   {}", summary.rtp_streams);
    println!("meetings:      {}", summary.meetings);

    let (dp, db) = analyzer.classifier().decoded_fraction();
    println!(
        "decoded as media: {:.1} % of packets, {:.1} % of bytes",
        dp * 100.0,
        db * 100.0
    );

    println!("\n=== per-media medians (Fig. 15 shape) ===");
    for media in [MediaType::Video, MediaType::Audio, MediaType::ScreenShare] {
        let mut s = analyzer.media_samples(media);
        if s.bitrate_mbps.is_empty() {
            continue;
        }
        println!(
            "{:<14} rate {:.3} Mbit/s | fps {:>4.1} | frame {:>6.0} B | jitter {:>5.2} ms",
            media.label(),
            s.bitrate_mbps.median(),
            s.fps.median(),
            s.frame_size.median(),
            s.jitter_ms.median(),
        );
    }
}

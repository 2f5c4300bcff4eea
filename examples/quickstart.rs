//! Quickstart: simulate a short Zoom meeting, write it to a pcap file,
//! read it back, and analyze it — the full round trip a user of this
//! library would perform on a real capture.
//!
//! Run with: `cargo run --release --example quickstart`

use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Writer};
use zoom_wire::zoom::MediaType;

fn main() -> std::io::Result<()> {
    // 1. Simulate a 60-second two-party meeting and capture it to a pcap
    //    file, exactly as a border tap + tcpdump would.
    let mut config = scenario::validation_experiment(42);
    for p in &mut config.participants {
        p.leave_at = 60 * SEC;
    }
    let path = std::env::temp_dir().join("zoom_quickstart.pcap");
    {
        let file = std::fs::File::create(&path)?;
        let mut writer = Writer::new(std::io::BufWriter::new(file), LinkType::Ethernet)?;
        for record in MeetingSim::new(config) {
            writer.write_record(&record)?;
        }
        writer.finish()?;
    }
    println!("wrote capture to {}", path.display());

    // 2. Read the capture back, a chunk of records at a time, and run the
    //    passive analyzer on it.
    let mut reader = Reader::new(std::fs::File::open(&path)?)?;
    let link = reader.link_type();
    // The default campus is the simulator's `scenario::CAMPUS_NET`.
    let analyzer_config = AnalyzerConfig {
        per_second_rows: true, // for `media_samples` below
        ..AnalyzerConfig::default()
    };
    let mut analyzer = Analyzer::new(analyzer_config);
    let (mut batch, mut more) = (RecordBatch::new(), true);
    while more {
        batch.clear();
        more = reader.read_chunk(&mut batch)?;
        analyzer.push_batch(&batch, link).expect("push_batch");
    }

    // 3. Report what passive analysis alone could see.
    let summary = analyzer.summary();
    println!("\n=== trace summary ===");
    println!("packets:       {}", summary.total_packets);
    println!("zoom packets:  {}", summary.zoom_packets);
    println!("zoom bytes:    {}", summary.zoom_bytes);
    println!("zoom flows:    {}", summary.zoom_flows);
    println!("rtp streams:   {}", summary.rtp_streams);
    println!("meetings:      {}", summary.meetings);
    println!(
        "duration:      {:.1} s",
        summary.duration_nanos as f64 / 1e9
    );

    println!("\n=== per-stream metrics ===");
    for stream in analyzer.streams().iter() {
        println!(
            "{} ssrc=0x{:02x} [{}] pkts={} media={:.0} kbit/s frames={} jitter={:.2} ms",
            stream.key.flow,
            stream.key.ssrc,
            stream.media_type.label(),
            stream.packets,
            stream.mean_media_bitrate() / 1e3,
            stream.frames().map_or(0, |f| f.count()),
            stream.jitter_ms(),
        );
    }

    let mut video = analyzer.media_samples(MediaType::Video);
    if !video.fps.is_empty() {
        println!("\n=== video summary ===");
        println!("median delivered fps:  {:.1}", video.fps.median());
        println!(
            "median bit rate:       {:.2} Mbit/s",
            video.bitrate_mbps.median()
        );
        println!("median frame size:     {} B", video.frame_size.median());
        println!(
            "p95 frame jitter:      {:.2} ms",
            video.jitter_ms.quantile(0.95)
        );
    }

    let rtp = analyzer.rtp_rtt();
    if let Some(mean) = rtp.totals().mean_ms() {
        println!(
            "\nRTT to SFU (RTP copies): {} samples, mean {mean:.1} ms, p95 {:.1} ms",
            rtp.samples(),
            rtp.histogram().quantile(0.95) as f64 / 1e6
        );
    }
    let tcp = analyzer.tcp_rtt().totals();
    if let Some(mean) = tcp.mean_ms() {
        println!(
            "RTT via TCP control:     {} samples, mean {mean:.1} ms",
            tcp.samples
        );
    }
    // 4. The same results as one owned, machine-readable report — what
    //    `zoom-tools analyze --json` and the streaming engine emit.
    let report = analyzer.finish().expect("finish");
    println!(
        "\nfinal report: {} stream row(s), {} JSON bytes",
        report.streams.len(),
        report.to_json().len()
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}

//! Regenerators for the paper's tables (1–7).
//!
//! Each function prints the table in the paper's layout, annotated with
//! the paper's own numbers for side-by-side comparison, and returns the
//! measured rows for programmatic checks. `EXPERIMENTS.md` records the
//! expected shapes.

use crate::harness::{CampusRun, ExpArgs};
use zoom_capture::resources::{self, ResourceConfig};
use zoom_capture::zoom_nets::Owner;
use zoom_sim::infra::Infrastructure;
use zoom_wire::rtp;
use zoom_wire::zoom::{self, MediaEncap, MediaEncapRepr, MediaType, SfuEncap, SfuEncapRepr};

/// Table 1: select cleartext header fields — print the byte map and
/// verify every field round-trips through the emitters/parsers.
pub fn table1() {
    println!("Table 1: Select Header Fields in Cleartext");
    println!("{:-<72}", "");
    println!("{:<28}{:<12}Comment", "Field Name", "Byte Range");
    println!("Zoom SFU Encapsulation");
    println!(
        "{:<28}{:<12}0x05 => media encapsulation follows",
        "- Type", "0"
    );
    println!("{:<28}{:<12}", "- Sequence #", "1-2");
    println!("{:<28}{:<12}0x00/0x04 - to/from SFU", "- Direction", "7");
    println!("Zoom Media Encapsulation");
    println!("{:<28}{:<12}media type or RTCP", "- Type", "0");
    println!("{:<28}{:<12}", "- Sequence #", "9-10");
    println!("{:<28}{:<12}", "- Timestamp", "11-14");
    println!(
        "{:<28}{:<12}only in video packets",
        "- Frame seq. #", "21-22"
    );
    println!(
        "{:<28}{:<12}only in video packets",
        "- # Packets/frame", "23"
    );

    // Round-trip verification at the byte level.
    let sfu = SfuEncapRepr {
        encap_type: zoom::SFU_TYPE_MEDIA,
        sequence: 0xBEEF,
        direction: zoom::DIR_FROM_SFU,
    };
    let mut buf = [0u8; zoom::SFU_ENCAP_LEN];
    sfu.emit(&mut SfuEncap::new_unchecked(&mut buf[..]));
    assert_eq!(buf[0], 0x05);
    assert_eq!(&buf[1..3], &[0xBE, 0xEF]);
    assert_eq!(buf[7], 0x04);

    let media = MediaEncapRepr {
        media_type: MediaType::Video,
        sequence: 0x1234,
        timestamp: 0xCAFE_F00D,
        frame_sequence: Some(0x0042),
        packets_in_frame: Some(7),
    };
    let mut mbuf = vec![0u8; media.header_len()];
    media.emit(&mut mbuf);
    assert_eq!(mbuf[0], 16);
    assert_eq!(&mbuf[9..11], &[0x12, 0x34]);
    assert_eq!(&mbuf[11..15], &[0xCA, 0xFE, 0xF0, 0x0D]);
    assert_eq!(&mbuf[21..23], &[0x00, 0x42]);
    assert_eq!(mbuf[23], 7);
    let parsed = MediaEncapRepr::parse(&MediaEncap::new_unchecked(&mbuf[..])).unwrap();
    assert_eq!(parsed, media);
    println!("\n[verified] every field emits to and parses from the documented byte range");
}

/// Table 2: media-encapsulation type values with their offsets and
/// packet/byte shares, against the paper's trace percentages.
pub fn table2(run: &CampusRun) {
    // (type value, paper % pkts, paper % bytes, paper offset)
    let paper: &[(u8, f64, f64, usize)] = &[
        (16, 62.77, 80.67, 24),
        (15, 25.60, 8.61, 19),
        (13, 4.25, 3.72, 27),
        (34, 0.89, 0.09, 16),
        (33, 0.27, 0.02, 16),
    ];
    println!("Table 2: Zoom Media Encapsulation Type Values");
    println!(
        "{:<6}{:<28}{:>8}{:>12}{:>12}{:>14}{:>14}",
        "Value", "Packet Type", "Offset", "% Pkts", "% Bytes", "(paper %P)", "(paper %B)"
    );
    let classifier = run.analyzer.classifier();
    let mut sum_p = 0.0;
    let mut sum_b = 0.0;
    for &(value, pp, pb, off) in paper {
        let mt = MediaType::from_byte(value);
        let rows = classifier.table2();
        let row = rows.iter().find(|r| r.label == value.to_string());
        let (mp, mb) = row
            .map(|r| (r.packets_pct, r.bytes_pct))
            .unwrap_or((0.0, 0.0));
        sum_p += mp;
        sum_b += mb;
        println!(
            "{value:<6}{:<28}{off:>8}{mp:>12.2}{mb:>12.2}{pp:>14.2}{pb:>14.2}",
            mt.label()
        );
    }
    let (dp, db) = classifier.decoded_fraction();
    println!(
        "{:<42}{sum_p:>12.2}{sum_b:>12.2}{:>14.2}{:>14.2}",
        "Sum:", 89.78, 93.11
    );
    println!(
        "\ndecoded fraction: {:.1} % pkts / {:.1} % bytes (paper: 90.0 % / 94.5 %)",
        dp * 100.0,
        db * 100.0
    );
}

/// Table 3: RTP payload types per media type against the paper's shares.
pub fn table3(run: &CampusRun) {
    let paper: &[(MediaType, u8, &str, f64, f64)] = &[
        (MediaType::Video, 98, "main stream", 62.00, 79.27),
        (MediaType::Audio, 112, "speaking mode", 22.04, 7.92),
        (MediaType::Video, 110, "FEC", 6.14, 7.47),
        (MediaType::ScreenShare, 99, "main stream", 3.59, 3.72),
        (MediaType::Audio, 113, "mode unknown", 2.96, 0.89),
        (MediaType::Audio, 99, "silent mode", 2.60, 0.56),
        (MediaType::Audio, 110, "FEC", 0.62, 0.13),
    ];
    println!("Table 3: RTP Payload Type Values in Trace");
    println!(
        "{:<20}{:<8}{:<16}{:>10}{:>10}{:>12}{:>12}",
        "Media Type", "RTP PT", "Description", "% Pkts", "% Bytes", "(paper %P)", "(paper %B)"
    );
    let classifier = run.analyzer.classifier();
    for &(mt, pt, desc, pp, pb) in paper {
        let (mp, mb) = classifier.share(mt, pt);
        println!(
            "{:<20}{pt:<8}{desc:<16}{mp:>10.2}{mb:>10.2}{pp:>12.2}{pb:>12.2}",
            format!("{} ({})", media_short(mt), mt.to_byte()),
        );
    }
}

fn media_short(mt: MediaType) -> &'static str {
    match mt {
        MediaType::Video => "Video",
        MediaType::Audio => "Audio",
        MediaType::ScreenShare => "Screen Share",
        _ => "Other",
    }
}

/// Table 4: the metric capability matrix — derived from what the
/// implementation actually provides, not hard-coded claims.
pub fn table4(run: &CampusRun) {
    println!("Table 4: Key Zoom Performance and Quality Metrics");
    println!(
        "{:<26}{:<18}{:<20}Validated here",
        "Metric", "Requires Headers", "In Zoom Client"
    );
    let a = &run.analyzer;
    let video = a.media_samples(MediaType::Video);
    let rows: Vec<(&str, bool, bool, bool)> = vec![
        (
            "Overall Bit Rate (§5.1)",
            false,
            false,
            a.flows().next().is_some(),
        ),
        (
            "Media Bit Rate (§5.1)",
            true,
            false,
            !video.bitrate_mbps.is_empty(),
        ),
        ("Frame Rate (§5.2)", true, true, !video.fps.is_empty()),
        (
            "Frame Size (§5.2)",
            true,
            false,
            !video.frame_size.is_empty(),
        ),
        (
            "Latency (§5.3)",
            true,
            true,
            a.rtp_rtt().samples() > 0 || a.tcp_rtt().samples() > 0,
        ),
        ("Jitter (§5.4)", true, true, !video.jitter_ms.is_empty()),
    ];
    for (name, hdrs, client, measured) in rows {
        println!(
            "{name:<26}{:<18}{:<20}{}",
            if hdrs { "yes" } else { "-" },
            if client { "yes" } else { "-" },
            if measured {
                "measured in this run"
            } else {
                "NOT MEASURED"
            }
        );
    }
}

/// Table 5: Tofino resource usage of the capture program, from the
/// resource-accounting model.
pub fn table5() {
    let paper: &[(&str, u32, f64, f64, f64, f64)] = &[
        ("Zoom IP Match", 2, 0.7, 0.1, 1.3, 0.0),
        ("P2P Detection", 7, 1.0, 10.9, 3.4, 16.7),
        ("Anonymization", 11, 1.4, 1.1, 5.2, 8.3),
    ];
    let rows = resources::table5(&ResourceConfig::default());
    println!("Table 5: Hardware Resource Usage of the Tofino Capture Program");
    println!(
        "{:<18}{:>8}{:>10}{:>10}{:>14}{:>12}   (paper: stages/TCAM/SRAM/instr/hash)",
        "Component", "Stages", "TCAM %", "SRAM %", "Instr %", "Hash %"
    );
    for (row, &(pname, pst, ptc, psr, pin, pha)) in rows.iter().zip(paper) {
        assert_eq!(row.name, pname);
        println!(
            "{:<18}{:>8}{:>10.1}{:>10.1}{:>14.1}{:>12.1}   ({pst}/{ptc}/{psr}/{pin}/{pha})",
            row.name,
            row.stages,
            row.tcam_pct,
            row.sram_pct,
            row.instructions_pct,
            row.hash_units_pct
        );
    }
    println!(
        "\nlightweight (paper's claim: <15 % of most resources): {}",
        resources::is_lightweight(&rows)
    );
}

/// Table 6: capture summary of the campus trace, with the paper's values
/// scaled by the run's load factor for comparison.
pub fn table6(run: &CampusRun, args: &ExpArgs) {
    let analyzer_summary = run.analyzer.summary();
    let scale = args.scale() * (args.minutes as f64 / (12.0 * 60.0));
    println!("Table 6: Capture Summary");
    println!("{:<22}{:>16}{:>22}", "", "measured", "paper (scaled)");
    println!(
        "{:<22}{:>16}{:>22.0}",
        "Zoom packets",
        analyzer_summary.zoom_packets,
        1_846e6 * scale
    );
    println!(
        "{:<22}{:>16}{:>22.0}",
        "Zoom flows",
        analyzer_summary.zoom_flows,
        583_777.0 * scale
    );
    println!(
        "{:<22}{:>16.1}{:>22.1}",
        "Zoom data (GB)",
        analyzer_summary.zoom_bytes as f64 / 1e9,
        1_203.0 * scale
    );
    println!(
        "{:<22}{:>16}{:>22.0}",
        "RTP media streams",
        analyzer_summary.rtp_streams,
        59_020.0 * scale
    );
    println!("{:<22}{:>16}", "Meetings", analyzer_summary.meetings);
    let mean_rate = analyzer_summary.zoom_packets as f64
        / (analyzer_summary.duration_nanos as f64 / 1e9).max(1.0);
    println!(
        "{:<22}{:>16.0}{:>22.0}",
        "mean Zoom pkt/s",
        mean_rate,
        42_733.0 * args.scale()
    );
}

/// Table 7: Zoom server locations from the synthetic infrastructure —
/// reverse-DNS + geo rollup (Appendix B).
pub fn table7() {
    let infra = Infrastructure::generate();
    let paper: &[(&str, u32, u32)] = &[
        ("United States (all)", 3_710, 167),
        ("Netherlands (Amsterdam)", 419, 21),
        ("China (Hongkong)", 274, 8),
        ("Germany (Frankfurt)", 214, 2),
        ("Australia", 210, 20),
        ("India", 196, 10),
        ("Japan (Tokyo)", 128, 2),
        ("Brasil (Sao Paulo)", 124, 6),
        ("Canada (Toronto)", 93, 12),
        ("China (Mainland)", 84, 8),
    ];
    println!("Table 7: Locations of Zoom Servers");
    println!("{:<44}{:>8}{:>8}", "Location", "# MMRs", "# ZCs");
    let rows = infra.table7();
    let mut total_mmr = 0;
    let mut total_zc = 0;
    for (loc, mmrs, zcs) in &rows {
        println!("{loc:<44}{mmrs:>8}{zcs:>8}");
        total_mmr += mmrs;
        total_zc += zcs;
    }
    println!("{:<44}{total_mmr:>8}{total_zc:>8}", "Total");
    println!("\n(paper rollup for reference)");
    for (loc, m, z) in paper {
        println!("{loc:<44}{m:>8}{z:>8}");
    }
    println!("{:<44}{:>8}{:>8}", "Total", 5_452, 256);

    println!("\nAppendix B address breakdown:");
    for (owner, addrs) in infra.ip_list.owner_breakdown() {
        let pct = 100.0 * addrs as f64 / infra.ip_list.total_addresses() as f64;
        let paper_pct = match owner {
            Owner::ZoomAs => 36.7,
            Owner::Aws => 39.6,
            Owner::OracleCloud => 23.2,
            Owner::Other => 0.5,
        };
        println!(
            "  {:<24}{addrs:>10} addresses ({pct:>5.1} %, paper {paper_pct:.1} %)",
            owner.label()
        );
    }
    println!(
        "  {} networks, {} addresses (paper: 117 networks, 427,168 addresses)",
        infra.ip_list.len(),
        infra.ip_list.total_addresses()
    );

    // Exercise the name parser on a sample, as the reverse-DNS study did.
    let sample = &infra.servers[0];
    let (code, id, ty) =
        zoom_sim::infra::parse_server_name(&sample.name).expect("server names parse");
    println!(
        "\nname-scheme check: {} -> site '{}', id {}, type {:?}",
        sample.name, code, id, ty
    );
}

/// Helper: checked RTP parse used by table1's verification.
#[allow(dead_code)]
fn rtp_roundtrip_check() {
    let repr = rtp::Repr {
        marker: true,
        payload_type: 98,
        sequence_number: 1,
        timestamp: 2,
        ssrc: 3,
        csrc_count: 0,
        has_extension: false,
    };
    let mut buf = [0u8; 12];
    repr.emit(&mut rtp::Packet::new_unchecked(&mut buf[..]));
    assert!(rtp::Packet::new_checked(&buf[..]).is_ok());
}

//! Per-stream, per-second feature vectors for ML-based QoE inference —
//! the §8 "Labeled Datasets for ML-based QoE Inference" direction: "our
//! system can help automatically generate large, feature-rich data sets
//! from real-world traffic."
//!
//! [`extract_features`] joins every per-second signal the analyzer
//! computes for a stream (bit rates, packet rate, delivered and encoder
//! frame rates, frame sizes, frame delay, jitter) into one row per second
//! of stream lifetime, ready to be labeled with viewer opinions and fed
//! to a model.

use crate::metrics::frame::FrameRow;
use crate::stream::Stream;
use std::collections::HashMap;
use std::io::Write;

/// One feature row: a (stream, second) observation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureRow {
    /// Stream SSRC (the participant's media identity within the meeting).
    pub ssrc: u32,
    /// Second index from trace start.
    pub second: u64,
    /// Media payload bits per second.
    pub media_bps: f64,
    /// IP-level bits per second (headers included) — the only feature
    /// prior flow-level work had.
    pub ip_bps: f64,
    /// Packets per second.
    pub pps: f64,
    /// Delivered frames this second (Method 1).
    pub delivered_fps: f64,
    /// Mean encoder frame rate this second (Method 2), if measurable.
    pub encoder_fps: Option<f64>,
    /// Mean frame size, bytes.
    pub mean_frame_size: f64,
    /// Max frame delay this second, ms.
    pub max_frame_delay_ms: f64,
    /// Frame-level jitter estimate, ms.
    pub jitter_ms: Option<f64>,
}

/// Extract the per-second feature matrix of one stream.
pub fn extract_features(stream: &Stream) -> Vec<FeatureRow> {
    const SEC: u64 = 1_000_000_000;
    // Rate and frame rows are time-ordered and seconds without traffic
    // (or without a completed frame) have none.
    let mut rates = stream.rates.rows().iter().peekable();
    let mut frames = stream.frames.iter().flat_map(|f| f.rows()).peekable();
    let jitter: HashMap<u64, f64> = stream
        .frame_jitter
        .samples()
        .iter()
        .map(|&(t, j)| (t / SEC, j))
        .collect();

    let first = stream.first_seen / SEC;
    let last = stream.last_seen / SEC;
    (first..=last)
        .map(|second| {
            while rates.next_if(|r| r.second < second).is_some() {}
            let rate = rates.next_if(|r| r.second == second);
            while frames.next_if(|r| r.second < second).is_some() {}
            let frame = frames.next_if(|r| r.second == second);
            FeatureRow {
                ssrc: stream.key.ssrc,
                second,
                media_bps: rate.map_or(0.0, |r| r.media_bytes as f64 * 8.0),
                ip_bps: rate.map_or(0.0, |r| r.ip_bytes as f64 * 8.0),
                pps: rate.map_or(0.0, |r| r.packets as f64),
                delivered_fps: frame.map_or(0.0, |r| f64::from(r.frames)),
                encoder_fps: frame.and_then(FrameRow::encoder_fps),
                mean_frame_size: frame.map_or(0.0, FrameRow::mean_frame_size),
                max_frame_delay_ms: frame.map_or(0.0, |r| r.max_frame_delay_nanos as f64 / 1e6),
                jitter_ms: jitter.get(&second).copied(),
            }
        })
        .collect()
}

/// The CSV header line.
const CSV_HEADER: &str = "ssrc,second,media_bps,ip_bps,pps,delivered_fps,encoder_fps,\
                          mean_frame_size,max_frame_delay_ms,jitter_ms\n";

/// Write the CSV header, then every row of each stream in turn: the
/// `--features` export, the format for labeling. The header is written even when there are no
/// streams, so an empty export is still a well-formed table. Returns the
/// number of rows written.
pub fn write_csv<'a>(
    out: &mut impl Write,
    streams: impl IntoIterator<Item = &'a Stream>,
) -> std::io::Result<usize> {
    out.write_all(CSV_HEADER.as_bytes())?;
    let mut total = 0;
    for s in streams {
        let rows = extract_features(s);
        for r in &rows {
            write_row(out, r)?;
        }
        total += rows.len();
    }
    Ok(total)
}

fn write_row(out: &mut impl Write, r: &FeatureRow) -> std::io::Result<()> {
    writeln!(
        out,
        "{},{},{:.0},{:.0},{:.1},{:.1},{},{:.0},{:.2},{}",
        r.ssrc,
        r.second,
        r.media_bps,
        r.ip_bps,
        r.pps,
        r.delivered_fps,
        r.encoder_fps.map(|v| format!("{v:.1}")).unwrap_or_default(),
        r.mean_frame_size,
        r.max_frame_delay_ms,
        r.jitter_ms.map(|v| format!("{v:.3}")).unwrap_or_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, PacketMeta, RtpMeta};
    use crate::stream::StreamTracker;
    use std::net::{IpAddr, Ipv4Addr};
    use zoom_wire::flow::FiveTuple;
    use zoom_wire::ipv4::Protocol;
    use zoom_wire::zoom::{Framing, MediaType, RtpPayloadKind};

    const SEC: u64 = 1_000_000_000;

    fn meta(at: u64, seq: u16, ts: u32) -> PacketMeta {
        PacketMeta {
            ts_nanos: at,
            five_tuple: FiveTuple {
                src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, 1)),
                dst_ip: IpAddr::V4(Ipv4Addr::new(170, 114, 0, 1)),
                src_port: 50_000,
                dst_port: 8801,
                protocol: Protocol::Udp,
            },
            ip_len: 1_000,
            family: zoom_wire::family::FamilyId::Zoom,
            framing: Framing::Server,
            media_type: MediaType::Video,
            direction: Direction::ToServer,
            rtp: Some(RtpMeta {
                ssrc: 0x21,
                payload_type: 98,
                sequence: seq,
                timestamp: ts,
                marker: true,
                kind: RtpPayloadKind::VideoMain,
            }),
            rtcp: None,
            frame_seq: Some(seq),
            pkts_in_frame: Some(1),
            media_payload_len: 900,
        }
    }

    #[test]
    fn features_cover_every_second_of_lifetime() {
        let mut tracker = StreamTracker::new();
        // 30 fps for 5 seconds.
        let mut key = None;
        for i in 0..150u64 {
            let m = meta(i * SEC / 30, i as u16, (i as u32) * 3_000);
            key = Some(tracker.on_packet(&m).unwrap().0);
        }
        let stream = tracker.get(&key.unwrap()).unwrap();
        let rows = extract_features(stream);
        // 150 frames at 30 fps span seconds 0..=4.
        assert_eq!(rows.len(), 5);
        // A full middle second has full-rate features.
        let r = &rows[2];
        assert!((r.delivered_fps - 30.0).abs() <= 1.0);
        assert!(r.media_bps > 100_000.0);
        assert!(r.ip_bps > r.media_bps);
        assert!((r.pps - 30.0).abs() <= 1.0);
        assert!(r.mean_frame_size > 800.0);
        let enc = r.encoder_fps.unwrap();
        assert!((enc - 30.0).abs() < 0.5, "encoder fps {enc}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = vec![FeatureRow {
            ssrc: 0x21,
            second: 3,
            media_bps: 500_000.0,
            ip_bps: 560_000.0,
            pps: 55.0,
            delivered_fps: 28.0,
            encoder_fps: Some(28.5),
            mean_frame_size: 1_800.0,
            max_frame_delay_ms: 4.25,
            jitter_ms: None,
        }];
        let mut csv = CSV_HEADER.as_bytes().to_vec();
        for r in &rows {
            write_row(&mut csv, r).unwrap();
        }
        let csv = String::from_utf8(csv).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("ssrc,second"));
        assert!(lines[1].starts_with("33,3,500000,560000,55.0,28.0,28.5,1800,4.25,"));
    }

    #[test]
    fn export_without_video_streams_is_the_header_alone() {
        let mut out = Vec::new();
        assert_eq!(write_csv(&mut out, []).unwrap(), 0);
        assert_eq!(out, CSV_HEADER.as_bytes());
        assert!(CSV_HEADER.starts_with("ssrc,second,") && CSV_HEADER.ends_with("jitter_ms\n"));
    }
}

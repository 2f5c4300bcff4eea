//! Text dissector — the library equivalent of the paper's Wireshark
//! plugin (Appendix C, Fig. 18). Pass a pcap file to dissect it; with no
//! argument, a few representative Zoom packets are synthesized and shown.
//!
//! Run with: `cargo run --release --example dissect [capture.pcap] [max-packets]`

use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{dissect, render_tree, P2pProbe};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader};

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    if let Some(path) = args.next() {
        let max: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
        let mut reader = Reader::new(std::fs::File::open(&path)?)?;
        let link = reader.link_type();
        let mut shown = 0;
        let mut index = 0u64;
        let (mut batch, mut more) = (RecordBatch::new(), true);
        while more {
            batch.clear();
            more = reader.read_chunk(&mut batch)?;
            for record in batch.iter() {
                index += 1;
                match dissect(record.ts_nanos, record.data, link, P2pProbe::Auto) {
                    Ok(d) => {
                        println!("--- packet {index} ---");
                        print!("{}", render_tree(&d));
                        shown += 1;
                    }
                    Err(e) => println!("--- packet {index}: not dissectable ({e}) ---"),
                }
                if shown >= max {
                    return Ok(());
                }
            }
        }
        return Ok(());
    }

    // No file: synthesize a short meeting and show one packet of each
    // interesting kind.
    println!("(no pcap given — dissecting synthesized packets; pass a file to dissect it)\n");
    let sim = MeetingSim::new(scenario::p2p_meeting(5, 30 * SEC));
    let mut seen = std::collections::HashSet::new();
    for record in sim {
        let Ok(d) = dissect(
            record.ts_nanos,
            &record.data,
            LinkType::Ethernet,
            P2pProbe::Auto,
        ) else {
            continue;
        };
        let kind = match &d.app {
            zoom_wire::dissect::App::Stun(_) => "stun".to_string(),
            zoom_wire::dissect::App::Zoom(framing, z) => {
                format!("{framing:?}/{}", z.media.media_type.label())
            }
            zoom_wire::dissect::App::Webrtc(pdu) => format!("webrtc/{}", pdu.label()),
            zoom_wire::dissect::App::Opaque => match d.transport {
                zoom_wire::dissect::Transport::Tcp { .. } => "tcp".to_string(),
                _ => "udp".to_string(),
            },
        };
        if seen.insert(kind.clone()) {
            println!("=== first {kind} packet ===");
            print!("{}", render_tree(&d));
            println!();
        }
    }
    Ok(())
}

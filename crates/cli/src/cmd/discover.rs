//! `zoom-tools discover` — the §4.2 reverse-engineering blueprint against
//! an arbitrary pcap: classify field positions per UDP flow, scan for RTP
//! signatures, and hunt RTCP by learned SSRCs.

use super::{parse_args, CmdResult, FlagSpec};
use std::collections::HashMap;
use zoom_analysis::entropy::{find_rtcp_by_ssrc, find_rtp_offsets, scan_flow, FieldClass};
use zoom_wire::dissect::{dissect, P2pProbe, Transport};
use zoom_wire::flow::FiveTuple;
use zoom_wire::pcap::{Reader, RecordBuf};

const FLAGS: FlagSpec = FlagSpec {
    command: "discover",
    bools: &[],
    values: &["max-offset"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [input] = pos.as_slice() else {
        return Err("discover needs exactly one input pcap".into());
    };
    let max_offset: usize = flags
        .get("max-offset")
        .map(|v| {
            v.parse()
                .map_err(|_| "--max-offset must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(48);

    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let mut reader =
        Reader::new(std::io::BufReader::new(file)).map_err(|e| format!("{input}: {e}"))?;
    let link = reader.link_type();
    let mut flows: HashMap<FiveTuple, Vec<(u64, Vec<u8>)>> = HashMap::new();
    let mut record = RecordBuf::new();
    while reader.read_into(&mut record).map_err(|e| e.to_string())? {
        if let Ok(d) = dissect(record.ts_nanos(), record.data(), link, P2pProbe::Off) {
            if matches!(d.transport, Transport::Udp { .. }) {
                flows
                    .entry(d.five_tuple)
                    .or_default()
                    .push((d.ts_nanos, d.payload.to_vec()));
            }
        }
    }
    type FlowPackets = Vec<(FiveTuple, Vec<(u64, Vec<u8>)>)>;
    let mut ordered: FlowPackets = flows.into_iter().collect();
    ordered.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));

    for (flow, packets) in ordered.iter().take(5) {
        if packets.len() < 50 {
            continue;
        }
        println!("=== flow {flow} ({} packets) ===", packets.len());
        // Confident field classifications.
        for (offset, width, class, sig) in scan_flow(packets, max_offset) {
            if class == FieldClass::Mixed {
                continue;
            }
            println!(
                "  +{offset:<3} w{width}  {class:<14?} entropy={:.2} distinct={}",
                sig.normalized_entropy, sig.distinct
            );
        }
        // RTP signature scan.
        let hits = find_rtp_offsets(packets, max_offset);
        for (offset, frac) in &hits {
            println!(
                "  RTP header at offset {offset} ({:.0} % structural match)",
                frac * 100.0
            );
        }
        // RTCP by SSRC correlation.
        if let Some(&(off, _)) = hits.first() {
            let mut ssrcs = std::collections::HashSet::new();
            let mut non_rtp = Vec::new();
            for (t, p) in packets {
                if p.len() >= off + 12 && zoom_wire::rtp::Packet::new_checked(&p[off..]).is_ok() {
                    ssrcs.insert(zoom_wire::rtp::Packet::new_unchecked(&p[off..]).ssrc());
                } else {
                    non_rtp.push((*t, p.clone()));
                }
            }
            let ssrcs: Vec<u32> = ssrcs.into_iter().collect();
            println!("  SSRCs: {ssrcs:x?}");
            let mut rtcp_hits: Vec<(usize, usize)> =
                find_rtcp_by_ssrc(&non_rtp, &ssrcs).into_iter().collect();
            rtcp_hits.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for (offset, count) in rtcp_hits.iter().take(3) {
                println!("  SSRC seen at offset {offset} in {count} non-RTP packets (RTCP?)");
            }
        }
        println!();
    }
    Ok(())
}

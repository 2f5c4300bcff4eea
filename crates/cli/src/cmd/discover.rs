//! `zoom-tools discover` — the §4.2 reverse-engineering blueprint against
//! an arbitrary pcap: classify field positions per UDP flow, scan for RTP
//! signatures, and hunt RTCP by learned SSRCs.

use super::sources::{build_sources, start_capture};
use super::{number_flag, parse_args, CliError, CmdResult, FlagSpec};
use std::collections::{BTreeSet, HashMap};
use std::io::Write as _;
use zoom_analysis::entropy::{find_rtcp_by_ssrc, find_rtp_offsets, scan_flow, FieldClass};
use zoom_capture::source::BATCH_RECORDS;
use zoom_wire::dissect::{dissect, P2pProbe, Transport};
use zoom_wire::flow::FiveTuple;
use zoom_wire::handoff::RecordBatch;

pub(crate) const FLAGS: FlagSpec = FlagSpec {
    command: "discover",
    bools: &[],
    values: &["max-offset"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("discover needs exactly one input pcap"));
    };
    let max_offset: usize = number_flag(&flags, "max-offset", 48)?;

    // Pass 1: count each flow's UDP records and pick the flows that are
    // printed — the five longest, of those the ones with at least 50
    // records; flows of one length in five-tuple order, so the output is a
    // function of the input.
    let mut counts: HashMap<FiveTuple, usize> = HashMap::new();
    each_udp(input, |flow, _, _| *counts.entry(flow).or_default() += 1)?;
    let mut ordered: Vec<(FiveTuple, usize)> = counts.into_iter().collect();
    ordered.sort_by(|(a, x), (b, y)| y.cmp(x).then(a.cmp(b)));
    ordered.truncate(5);
    ordered.retain(|&(_, n)| n >= 50);
    // Pass 2: keep the payloads of those flows only.
    let mut flows: HashMap<FiveTuple, Vec<(u64, Vec<u8>)>> = (ordered.iter())
        .map(|&(flow, n)| (flow, Vec::with_capacity(n)))
        .collect();
    each_udp(input, |flow, ts, payload| {
        if let Some(packets) = flows.get_mut(&flow) {
            packets.push((ts, payload.to_vec()));
        }
    })?;

    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for (flow, _) in &ordered {
        let packets = &flows[flow];
        writeln!(out, "=== flow {flow} ({} packets) ===", packets.len())
            .map_err(CliError::stdout)?;
        // Confident field classifications.
        for (offset, width, class, sig) in scan_flow(packets, max_offset) {
            if class == FieldClass::Mixed {
                continue;
            }
            writeln!(
                out,
                "  +{offset:<3} w{width}  {class:<14?} entropy={:.2} distinct={}",
                sig.normalized_entropy, sig.distinct
            )
            .map_err(CliError::stdout)?;
        }
        // RTP signature scan.
        let hits = find_rtp_offsets(packets, max_offset);
        for (offset, frac) in &hits {
            writeln!(
                out,
                "  RTP header at offset {offset} ({:.0} % structural match)",
                frac * 100.0
            )
            .map_err(CliError::stdout)?;
        }
        // RTCP by SSRC correlation.
        if let Some(&(off, _)) = hits.first() {
            let mut ssrcs = BTreeSet::new();
            let mut non_rtp = Vec::new();
            for (t, p) in packets {
                if p.len() >= off + 12 && zoom_wire::rtp::Packet::new_checked(&p[off..]).is_ok() {
                    ssrcs.insert(zoom_wire::rtp::Packet::new_unchecked(&p[off..]).ssrc());
                } else {
                    non_rtp.push((*t, p.clone()));
                }
            }
            let ssrcs: Vec<u32> = ssrcs.into_iter().collect();
            writeln!(out, "  SSRCs: {ssrcs:x?}").map_err(CliError::stdout)?;
            let mut rtcp_hits: Vec<(usize, usize)> =
                find_rtcp_by_ssrc(&non_rtp, &ssrcs).into_iter().collect();
            rtcp_hits.sort_by_key(|&(offset, n)| (std::cmp::Reverse(n), offset));
            for (offset, count) in rtcp_hits.iter().take(3) {
                writeln!(
                    out,
                    "  SSRC seen at offset {offset} in {count} non-RTP packets (RTCP?)"
                )
                .map_err(CliError::stdout)?;
            }
        }
        writeln!(out).map_err(CliError::stdout)?;
    }
    out.flush().map_err(CliError::stdout)
}

/// Reads `input` once, handing each record that dissects as UDP to `each`
/// as its flow, timestamp and payload.
fn each_udp(input: &str, mut each: impl FnMut(FiveTuple, u64, &[u8])) -> CmdResult {
    let sources = build_sources(&[input.to_owned()], &[], None)?;
    let mut mux = start_capture(sources, None);
    let mut batch = RecordBatch::new();
    while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? {
        for record in batch.iter() {
            if let Ok(d) = dissect(record.ts_nanos, record.data, link, P2pProbe::Off) {
                if matches!(d.transport, Transport::Udp { .. }) {
                    each(d.five_tuple, d.ts_nanos, d.payload);
                }
            }
        }
    }
    Ok(())
}

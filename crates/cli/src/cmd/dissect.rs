//! `zoom-tools dissect` — print Wireshark-plugin-style field trees for the
//! packets of a pcap file (Appendix C).

use super::sources::{build_sources, start_capture};
use super::{parse_args, CliError, CmdResult, FlagSpec};
use zoom_capture::source::BATCH_RECORDS;
use zoom_wire::dissect::{dissect, render_tree, P2pProbe, Probe, WebrtcProbe};
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::handoff::RecordBatch;

const FLAGS: FlagSpec = FlagSpec {
    command: "dissect",
    bools: &[],
    values: &["max", "family"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [input] = pos.as_slice() else {
        return Err("dissect needs exactly one input pcap".into());
    };
    let max: usize = flags
        .get("max")
        .map(|v| v.parse().map_err(|_| "--max must be a number".to_string()))
        .transpose()?
        .unwrap_or(25);
    let family = flags
        .get("family")
        .map(|v| {
            v.parse::<FamilySelect>()
                .map_err(|e| CliError::config(e.to_string()))
        })
        .transpose()?
        .unwrap_or_default();
    // Dissection is display-only, so probe eagerly: analysis-side session
    // gating doesn't apply, and showing every recognizable layer is the
    // point of the tool.
    let probe = match family {
        FamilySelect::Auto => Probe {
            zoom: true,
            p2p: P2pProbe::Auto,
            webrtc: WebrtcProbe::Auto,
        },
        FamilySelect::Only(FamilyId::Zoom) => Probe::from(P2pProbe::Auto),
        other => other.probe(),
    };

    let mut mux = start_capture(build_sources(std::slice::from_ref(input), &[], None)?, None);
    let mut batch = RecordBatch::new();
    let mut index = 0u64;
    let mut shown = 0usize;
    while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? {
        for record in batch.iter() {
            index += 1;
            if shown >= max {
                return Ok(());
            }
            match dissect(record.ts_nanos, record.data, link, probe) {
                Ok(d) => {
                    println!("--- packet {index} ({} bytes) ---", record.data.len());
                    print!("{}", render_tree(&d));
                    shown += 1;
                }
                Err(e) => println!("--- packet {index}: not dissectable ({e}) ---"),
            }
        }
    }
    Ok(())
}

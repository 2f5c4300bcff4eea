//! `zoom-tools dissect` — print Wireshark-plugin-style field trees for the
//! packets of a pcap file (Appendix C).

use super::sources::{build_sources, start_capture};
use super::{family_flag, number_flag, parse_args, CliError, CmdResult, FlagSpec};
use std::io::Write as _;
use zoom_capture::source::BATCH_RECORDS;
use zoom_wire::dissect::{dissect, render_tree, P2pProbe, Probe, WebrtcProbe};
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::handoff::RecordBatch;

pub(crate) const FLAGS: FlagSpec = FlagSpec {
    command: "dissect",
    bools: &[],
    values: &["max", "family"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [input] = pos.as_slice() else {
        return Err(CliError::usage("dissect needs exactly one input pcap"));
    };
    let max: usize = number_flag(&flags, "max", 25)?;
    let family = family_flag(&flags, FamilySelect::Auto)?;
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
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut batch = RecordBatch::new();
    let mut index = 0u64;
    let mut shown = 0usize;
    'read: while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? {
        for record in batch.iter() {
            index += 1;
            if shown >= max {
                break 'read;
            }
            match dissect(record.ts_nanos, record.data, link, probe) {
                Ok(d) => {
                    writeln!(out, "--- packet {index} ({} bytes) ---", record.data.len())
                        .and_then(|()| out.write_all(render_tree(&d).as_bytes()))
                        .map_err(CliError::stdout)?;
                    shown += 1;
                }
                Err(e) => writeln!(out, "--- packet {index}: not dissectable ({e}) ---")
                    .map_err(CliError::stdout)?,
            }
        }
    }
    out.flush().map_err(CliError::stdout)
}

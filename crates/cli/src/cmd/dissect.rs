//! `zoom-tools dissect` — print Wireshark-plugin-style field trees for the
//! packets of a pcap file (Appendix C).

use super::{parse_args, CliError, CmdResult, FlagSpec};
use zoom_wire::dissect::{dissect, render_tree, P2pProbe, Probe, WebrtcProbe};
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::pcap::Reader;

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

    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let mut reader =
        Reader::new(std::io::BufReader::new(file)).map_err(|e| format!("{input}: {e}"))?;
    let link = reader.link_type();
    let mut index = 0u64;
    let mut shown = 0usize;
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        index += 1;
        if shown >= max {
            break;
        }
        match dissect(record.ts_nanos, &record.data, link, probe) {
            Ok(d) => {
                println!("--- packet {index} ({} bytes) ---", record.data.len());
                print!("{}", render_tree(&d));
                shown += 1;
            }
            Err(e) => println!("--- packet {index}: not dissectable ({e}) ---"),
        }
    }
    Ok(())
}

//! `zoom-tools simulate` — generate a synthetic Zoom capture for testing
//! downstream tooling (including this repository's own `analyze`).

use super::sources::Scenario;
use super::{number_flag, parse_args, CliError, CmdResult, FlagSpec};
use zoom_wire::pcap::{LinkType, Writer};

pub(crate) const FLAGS: FlagSpec = FlagSpec {
    command: "simulate",
    bools: &[],
    values: &["seconds", "seed", "scenario"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [output] = pos.as_slice() else {
        return Err(CliError::usage("simulate needs exactly one output pcap"));
    };
    let seconds: u64 = number_flag(&flags, "seconds", 60)?;
    let seed: u64 = number_flag(&flags, "seed", 7)?;
    let scenario_name = flags
        .get("scenario")
        .map(String::as_str)
        .unwrap_or("validation");

    // The same generator backs `--source sim:SPEC`, so a simulated file
    // and a simulated live source with matching parameters are
    // record-identical.
    let records = Scenario::new(scenario_name, seed, seconds)
        .map_err(CliError::config)?
        .records();

    let file = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut writer = Writer::new(std::io::BufWriter::new(file), LinkType::Ethernet)
        .map_err(|e| e.to_string())?;
    let mut packets = 0u64;
    let mut bytes = 0u64;
    for record in records {
        packets += 1;
        bytes += record.data.len() as u64;
        writer.write_record(&record).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    eprintln!("wrote {packets} packets ({bytes} bytes) of '{scenario_name}' traffic to {output}");
    Ok(())
}

//! `zoom-tools` — the command-line face of the toolchain, mirroring the
//! software analysis tools the paper released alongside the study.
//!
//! ```text
//! zoom-tools analyze  [in.pcap] [--source pcap:FILE|sim:SPEC]... [--campus CIDR]
//!                     [--family auto|zoom|webrtc] [--window DUR [--idle-timeout DUR]]
//!                     [--follow] [--idle-exit DUR] [--qoe-watch]
//!                     [--json] [--features out.csv] [--serve ADDR]
//!                     [--metrics out.json|out.prom] [--metrics-interval DUR]
//!                     [--trace out.ndjson] [--trace-sample N] [--self-profile out.folded]
//!                     [--emit-fragments ADDR|FILE [--worker-label NAME]]
//! zoom-tools capture  <out.pcap> --source pcap:FILE|sim:SPEC [--source ...]
//!                     [--campus CIDR] [--family auto|zoom|webrtc]
//!                     [--anonymize KEY] [--no-filter] [--follow] [--idle-exit DUR]
//!                     [--metrics out.json|out.prom]
//! zoom-tools merge    <frags...> | --listen ADDR --workers N [--journal DIR]
//!                     [--window DUR [--idle-timeout DUR]] [--campus CIDR]
//!                     [--checkpoint PATH] [--restore] [--json] [--features out.csv]
//!                     [--serve ADDR]
//!                     [--metrics out.json|out.prom] [--metrics-interval DUR]
//!                     [--trace out.ndjson] [--trace-sample N] [--self-profile out.folded]
//! zoom-tools dissect  <in.pcap> [--max N] [--family auto|zoom|webrtc]
//! zoom-tools discover <in.pcap> [--max-offset N]
//! zoom-tools filter   <in.pcap> <out.pcap> [--campus CIDR] [--family auto|zoom|webrtc]
//!                     [--anonymize KEY] [--metrics out.json|out.prom]
//! zoom-tools simulate <out.pcap> [--seconds N] [--seed N]
//!                     [--scenario validation|p2p|multi|churn|campus-10x|webrtc]
//! ```
//!
//! `analyze` and `merge` run one analysis loop (`cmd::ingest`): the text
//! or `--json` report, or with `--window` (`analyze`: or `--follow`) one
//! NDJSON line per window and the final report; every flag they share
//! does the same on both.
//!
//! Argument parsing is hand-rolled (the workspace deliberately avoids
//! extra dependencies); every subcommand lives in its own module.
//!
//! Failures exit with a distinct code per error class — see
//! [`cmd::CliError`] for the full table (2 usage, 3 configuration,
//! 4 parse/protocol, 5 I/O, 7 checkpoint, 1 otherwise). A flag a
//! subcommand does not know is a usage error, never ignored.

#![forbid(unsafe_code)]

mod cmd;

use std::process::ExitCode;

/// Each command's synopsis, continuation lines aligned under its first
/// argument.
const USAGE: &str = "\
usage:
  zoom-tools analyze  [in.pcap] [--source pcap:FILE|sim:SPEC]... [--campus CIDR]
                      [--family auto|zoom|webrtc] [--window DUR [--idle-timeout DUR]]
                      [--follow] [--idle-exit DUR] [--qoe-watch] [--json] [--features out.csv]
                      [--serve ADDR]
                      [--metrics out.json|out.prom] [--metrics-interval DUR]
                      [--trace out.ndjson] [--trace-sample N] [--self-profile out.folded]
                      [--emit-fragments ADDR|FILE [--worker-label NAME]]
  zoom-tools merge    <frags...> | --listen ADDR --workers N [--journal DIR]
                      [--window DUR [--idle-timeout DUR]] [--campus CIDR]
                      [--checkpoint PATH] [--restore] [--json] [--features out.csv]
                      [--serve ADDR]
                      [--metrics out.json|out.prom] [--metrics-interval DUR]
                      [--trace out.ndjson] [--trace-sample N] [--self-profile out.folded]
  zoom-tools capture  <out.pcap> --source pcap:FILE|sim:SPEC [--source ...] [--campus CIDR]
                      [--family auto|zoom|webrtc] [--anonymize KEY] [--no-filter]
                      [--follow] [--idle-exit DUR] [--metrics out.json|out.prom]
  zoom-tools dissect  <in.pcap> [--max N] [--family auto|zoom|webrtc]
  zoom-tools discover <in.pcap> [--max-offset N]
  zoom-tools filter   <in.pcap> <out.pcap> [--campus CIDR] [--family auto|zoom|webrtc]
                      [--anonymize KEY] [--metrics out.json|out.prom]
  zoom-tools simulate <out.pcap> [--seconds N] [--seed N]
                      [--scenario validation|p2p|multi|churn|campus-10x|webrtc]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "analyze" => cmd::analyze::run(rest),
        "capture" => cmd::capture::run(rest),
        "dissect" => cmd::dissect::run(rest),
        "discover" => cmd::discover::run(rest),
        "filter" => cmd::filter::run(rest),
        "merge" => cmd::merge::run(rest),
        "simulate" => cmd::simulate::run(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Each error class exits with its own code (see cmd::CliError).
            ExitCode::from(e.code)
        }
    }
}

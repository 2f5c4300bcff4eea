//! `zoom-tools filter` — run the capture pipeline (the software Tofino)
//! over a pcap, writing only Zoom packets, optionally anonymized: the
//! offline equivalent of the paper's data-plane deployment.
//!
//! This is `capture` over one `pcap:` source under its older name: the
//! same [`filter_sources`] call, so the same in-line read, the same loop,
//! byte-identical output and an equal `--metrics` snapshot. What `filter`
//! keeps of its own is its command line, its one-line summary of the
//! filter's stage counters, and exit status 1 for every failure.

use super::capture::{filter_sources, warn_of_losses};
use super::sources::build_sources;
use super::{filter_config, parse_args, CliError, CmdResult, FlagSpec};
use zoom_capture::mux::MuxConfig;
use zoom_capture::pipeline::CapturePipeline;

const FLAGS: FlagSpec = FlagSpec {
    command: "filter",
    bools: &[],
    values: &["campus", "anonymize", "family", "metrics"],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, _) = parse_args(args, &FLAGS)?;
    let [input, output] = pos.as_slice() else {
        return Err("filter needs <in.pcap> <out.pcap>".into());
    };
    let mut pipeline = CapturePipeline::new(filter_config(&flags)?);
    let sources = build_sources(std::slice::from_ref(input), &[], None)
        .map_err(|e| CliError::from(e.message))?;
    let run = filter_sources(
        sources,
        MuxConfig::default(),
        Some(&mut pipeline),
        output,
        flags.get("metrics"),
    )?;
    warn_of_losses(&run);

    let c = pipeline.counters();
    eprintln!(
        "filtered {} -> {} packets ({:.1} %); server {}, stun {}, p2p {}, dropped {}",
        c.total,
        c.passed,
        100.0 * c.passed as f64 / c.total.max(1) as f64,
        c.zoom_ip_matched,
        c.stun_registered,
        c.p2p_matched,
        c.dropped
    );
    Ok(())
}

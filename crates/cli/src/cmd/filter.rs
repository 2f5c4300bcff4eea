//! `zoom-tools filter` — run the capture pipeline (the software Tofino)
//! over a pcap, writing only Zoom packets, optionally anonymized: the
//! offline equivalent of the paper's data-plane deployment.

use super::{capture_snapshot, filter_config, parse_args, write_snapshot, CmdResult, FlagSpec};
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::pipeline::CapturePipeline;
use zoom_wire::pcap::{Reader, Record, RecordBuf, Writer, READ_BUFFER_BYTES};

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

    let infile = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let mut reader = Reader::new(std::io::BufReader::with_capacity(READ_BUFFER_BYTES, infile))
        .map_err(|e| format!("{input}: {e}"))?;
    let link = reader.link_type();
    let outfile = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut writer = Writer::new(std::io::BufWriter::new(outfile), link)
        .map_err(|e| format!("{output}: {e}"))?;

    // One read buffer and one output record, both reused: only packets
    // that pass are copied.
    let mut buf = RecordBuf::new();
    let mut out = Record::full(0, Vec::new());
    while reader.read_into(&mut buf).map_err(|e| e.to_string())? {
        let verdict =
            pipeline.process_into(buf.ts_nanos(), buf.orig_len(), buf.data(), link, &mut out);
        if verdict.passes() {
            writer.write_record(&out).map_err(|e| e.to_string())?;
        }
    }
    writer.finish().map_err(|e| e.to_string())?;

    let c = pipeline.counters();
    if let Some(path) = flags.get("metrics") {
        // The capture stage has no analysis pipeline behind it, so the
        // base snapshot is empty; only the `capture` section is populated.
        let mut snap = PipelineMetrics::new().snapshot();
        snap.capture = Some(capture_snapshot(c));
        write_snapshot(path, &snap)?;
    }
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

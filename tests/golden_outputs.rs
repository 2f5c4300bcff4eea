//! Pinned output bytes of the two analysis sinks.
//!
//! Window NDJSON and the end-of-trace report have one implementation
//! each, so "byte-identical to the sibling path" cannot catch a drift in
//! them. This suite regenerates four seeded simulator traces and compares
//! a 64-bit FNV-1a digest and the byte length of
//!
//! * **batch** — `Analyzer` → `report.to_json()`, and
//! * **windowed** — `StreamingEngine { window: 1 s, idle_timeout: 10 s }`
//!   → every closed window's `to_json()` line in order, the drain's final
//!   window, then the drained report, one line each,
//!
//! against constants recorded from the code. A change that means to move
//! an output edits the constant and says why in its description; a change
//! that does not must leave every row alone.

use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};

/// Digest, byte length and line count of one rendered output.
#[derive(PartialEq, Eq, Clone, Copy)]
struct Pin {
    fnv1a: u64,
    bytes: usize,
    lines: usize,
}

impl std::fmt::Display for Pin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fnv1a {:#018x}, {} bytes, {} lines",
            self.fnv1a, self.bytes, self.lines
        )
    }
}

impl Pin {
    fn of(text: &str) -> Pin {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in text.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Pin {
            fnv1a: h,
            bytes: text.len(),
            lines: text.lines().count(),
        }
    }
}

struct Golden {
    scenario: &'static str,
    records: fn() -> Vec<Record>,
    batch: Pin,
    windowed: Pin,
}

fn merged(configs: Vec<zoom_sim::meeting::MeetingConfig>) -> Vec<Record> {
    let mut records: Vec<Record> = configs.into_iter().flat_map(MeetingSim::new).collect();
    records.sort_by_key(|r| r.ts_nanos);
    records
}

const fn pin(fnv1a: u64, bytes: usize, lines: usize) -> Pin {
    Pin {
        fnv1a,
        bytes,
        lines,
    }
}

/// Recorded at the last commit that still had a threaded shard tier,
/// where `shards: 1` and `shards: 2` produced these same bytes.
const GOLDEN: [Golden; 4] = [
    Golden {
        scenario: "validation_experiment(77)",
        records: || MeetingSim::new(scenario::validation_experiment(77)).collect(),
        batch: pin(0x32cb_7767_f234_1a94, 3_319, 1),
        windowed: pin(0x2cc0_8582_1891_f89c, 801_680, 332),
    },
    Golden {
        scenario: "multi_party(9, 30 s)",
        records: || MeetingSim::new(scenario::multi_party(9, 30 * SEC)).collect(),
        batch: pin(0x7595_5abf_e113_3032, 4_657, 1),
        windowed: pin(0x8314_1674_741b_ac2d, 99_341, 32),
    },
    Golden {
        scenario: "p2p_meeting(5, 30 s)",
        records: || MeetingSim::new(scenario::p2p_meeting(5, 30 * SEC)).collect(),
        batch: pin(0xd5eb_2cd3_bf83_2638, 3_256, 1),
        windowed: pin(0xc9cf_c272_6580_977e, 45_701, 32),
    },
    Golden {
        scenario: "churn(3, 60 s)",
        records: || merged(scenario::churn(3, 60 * SEC)),
        batch: pin(0x7a8f_22f0_826e_77f7, 17_302, 1),
        windowed: pin(0x1f83_8c2a_6025_2500, 235_518, 62),
    },
];

fn batch_output(records: &[Record]) -> String {
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    for r in records {
        analyzer
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    analyzer.finish().expect("finish").to_json()
}

fn windowed_output(records: &[Record]) -> String {
    let mut engine = StreamingEngine::new(EngineConfig {
        window: Some(Duration::from_secs(1)),
        idle_timeout: Some(Duration::from_secs(10)),
        ..EngineConfig::default()
    })
    .expect("valid engine config");
    let mut out = String::new();
    for r in records {
        engine
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        for w in engine.take_windows() {
            out.push_str(&w.to_json());
            out.push('\n');
        }
    }
    let drained = engine.drain().expect("drain");
    out.push_str(&drained.final_window.to_json());
    out.push('\n');
    out.push_str(&drained.report.to_json());
    out.push('\n');
    out
}

#[test]
fn batch_and_windowed_outputs_match_their_pins() {
    let mut moved = Vec::new();
    for g in &GOLDEN {
        let records = (g.records)();
        for (sink, expected, actual) in [
            ("batch", g.batch, Pin::of(&batch_output(&records))),
            ("windowed", g.windowed, Pin::of(&windowed_output(&records))),
        ] {
            if actual != expected {
                moved.push(format!(
                    "{} / {sink}:\n  expected {expected}\n  actual   {actual}",
                    g.scenario
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} pinned output(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

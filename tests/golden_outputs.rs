//! Pinned output bytes of the two analysis sinks.
//!
//! Window NDJSON and the end-of-trace report have one implementation
//! each, so "byte-identical to the sibling path" cannot catch a drift in
//! them. This suite regenerates four seeded simulator traces and one
//! hand-built evict-and-return trace and compares
//! a 64-bit FNV-1a digest and the byte length of
//!
//! * **batch** — `Analyzer` → `report.to_json()`, and
//! * **windowed** — `StreamingEngine { window: 1 s, idle_timeout: 10 s }`
//!   → every closed window's `to_json()` line in order, the drain's final
//!   window, then the drained report, one line each,
//! * **features** — the batch analyzer's `--features` CSV, and
//! * **text** — its text report (`analyze` without `--json`),
//!
//! against constants recorded from the code. A change that means to move
//! an output edits the constant and says why in its description; a change
//! that does not must leave every row alone.
//!
//! Only the feature CSV needs the streams' per-second series; the batch,
//! windowed and text outputs are pinned without them and must come out
//! the same with them.

use std::net::Ipv4Addr;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::features;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::write_text;
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};
use zoom_wire::zoom::MediaType;
use zoom_wire::{compose, rtp, zoom};

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
    /// The batch analyzer's `--features` CSV.
    features: Pin,
    /// The batch analyzer's text report (`analyze` without `--json`).
    text: Pin,
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

/// The four simulator rows were recorded when the engine could still run
/// its state on one worker thread or two (both produced these bytes); the
/// hand-built `evict_and_return` row at the last commit whose engine kept
/// a second copy of every stream's grouping state beside the analyzer's.
/// The `features` and `text` rows were recorded at the last commit that
/// kept every completed frame and RTT sample. Since then the `batch` and
/// `windowed` rows with RTT samples moved through `p50_ms`/`p95_ms` alone
/// (read from a histogram, within 1/128 of the exact order statistic) and
/// the validation `text` row through its `stalls=… retx-frames=…` fields
/// alone (the retransmission threshold became the mean RTT as of each
/// frame's completion, not at the end of the run).
const GOLDEN: [Golden; 5] = [
    Golden {
        scenario: "validation_experiment(77)",
        records: || MeetingSim::new(scenario::validation_experiment(77)).collect(),
        batch: pin(0xbd4b_06c9_bb66_04a7, 3_319, 1),
        windowed: pin(0xb442_c176_1ec1_84d0, 801_723, 332),
        features: pin(0x11af_8ebd_401e_1001, 69_454, 1322),
        text: pin(0xde05_18af_21f6_bef5, 1_391, 24),
    },
    Golden {
        scenario: "multi_party(9, 30 s)",
        records: || MeetingSim::new(scenario::multi_party(9, 30 * SEC)).collect(),
        batch: pin(0xd036_d7e7_84fb_8bb9, 4_657, 1),
        windowed: pin(0xa288_89e9_2314_9cd2, 99_344, 32),
        features: pin(0xaafc_e8fb_187a_e3a3, 8_382, 163),
        text: pin(0xfc4a_c0d4_b6a2_18c5, 1_903, 28),
    },
    Golden {
        scenario: "p2p_meeting(5, 30 s)",
        records: || MeetingSim::new(scenario::p2p_meeting(5, 30 * SEC)).collect(),
        batch: pin(0x8f28_12ba_9478_0d30, 3_255, 1),
        windowed: pin(0x2786_dc33_940f_e634, 45_700, 32),
        features: pin(0xe31e_3395_76de_64ac, 3_159, 61),
        text: pin(0x996e_1fed_4da8_af7f, 1_256, 22),
    },
    Golden {
        scenario: "churn(3, 60 s)",
        records: || merged(scenario::churn(3, 60 * SEC)),
        batch: pin(0xed0b_369d_8b1e_03e0, 17_301, 1),
        windowed: pin(0x4fec_829f_a470_5e68, 235_529, 62),
        features: pin(0x3a33_55bd_38b4_68df, 19_090, 373),
        text: pin(0x3e02_a987_055a_8a73, 6_532, 69),
    },
    Golden {
        scenario: "evict_and_return",
        records: evict_and_return,
        batch: pin(0xb8e9_fe7d_990d_3143, 2_412, 1),
        windowed: pin(0xbd2e_d987_3233_70b1, 47_780, 64),
        features: pin(0xf012_6399_a2bb_4e34, 4_323, 98),
        text: pin(0x327d_fea3_4385_6844, 974, 19),
    },
];

/// One video packet of `ssrc` between campus client `10.8.0.<host>` and
/// the SFU, uplink or downlink.
fn video_record(ts: u64, up: bool, host: u8, ssrc: u32, pt: u8, seq: u16, rtp_ts: u32) -> Record {
    let payload = zoom::Builder {
        sfu: Some(zoom::SfuEncapRepr {
            encap_type: zoom::SFU_TYPE_MEDIA,
            sequence: seq,
            direction: if up {
                zoom::DIR_TO_SFU
            } else {
                zoom::DIR_FROM_SFU
            },
        }),
        media: zoom::MediaEncapRepr {
            media_type: zoom::MediaType::Video,
            sequence: seq,
            timestamp: (ts / 1_000_000) as u32,
            frame_sequence: Some(seq / 2),
            packets_in_frame: Some(1),
        },
        rtp: Some(rtp::Repr {
            marker: true,
            payload_type: pt,
            sequence_number: seq,
            timestamp: rtp_ts,
            ssrc,
            csrc_count: 0,
            has_extension: false,
        }),
        payload: vec![0xA5; 700],
    }
    .build();
    let client = Ipv4Addr::new(10, 8, 0, host);
    let sfu = Ipv4Addr::new(170, 114, 0, 1);
    let data = if up {
        compose::udp_ipv4_ethernet(client, sfu, 50_000, 8801, &payload)
    } else {
        compose::udp_ipv4_ethernet(sfu, client, 8801, 50_000, &payload)
    };
    Record::full(ts, data)
}

/// A stream that is evicted and comes back, and copies of it that start
/// while it is gone — the grouping heuristic's step-1 lookup has to find
/// the evicted key, and the returning stream has to be the stream it was.
///
/// * `A` (client 1 uplink, SSRC `0xA`) sends 90 main-video packets over
///   0–3 s and falls silent; `B` (client 2) runs 3–62 s and keeps the
///   window clock ticking, so `A` is evicted (10 s idle) at 14 s.
/// * `C`, a downlink copy of `A` toward client 3 (same SSRC, next
///   sequence numbers and RTP timestamps), starts at 20 s, while `A` is
///   evicted but well inside the 120 s candidate limit. It belongs to
///   `A`'s meeting only through `A`'s unique id. (Each copy ends far from
///   where it started, so a later copy can only match `A` itself.)
/// * `A` returns at 30 s for 3 s. In this second life its FEC sub-stream
///   (payload type 110, its own sequence space) outnumbers main video
///   four to one; over both lives main video still dominates.
/// * `D`, a copy toward client 4, starts at 32 s on `A`'s main-video
///   state while `A` is live: it matches only if `A`'s dominant
///   sub-stream is chosen over both incarnations.
/// * `A` is evicted again at 44 s; `E`, a copy toward client 5, starts at
///   50 s and has to match the state both lives left behind.
fn evict_and_return() -> Vec<Record> {
    const MS: u64 = 1_000_000;
    const A: u32 = 0xA;
    let main_ts = |n: u64| 1_000 + n as u32 * 3_000;
    let mut records = Vec::new();
    for n in 0..90u64 {
        records.push(video_record(
            n * 33 * MS,
            true,
            1,
            A,
            98,
            n as u16 + 1,
            main_ts(n),
        ));
    }
    for n in 0..1_800u64 {
        let ts = 3 * SEC + n * 33 * MS;
        records.push(video_record(ts, true, 2, 0xB, 98, n as u16 + 1, main_ts(n)));
    }
    // C: continues A's main video where the first life stopped, then
    // jumps away in sequence and timestamp so that no later copy can
    // match C instead of A.
    for i in 0..60u64 {
        let n = 90 + i;
        let ts = 20 * SEC + i * 33 * MS;
        let (seq, rtp_ts) = match i < 30 {
            true => (n as u16 + 1, main_ts(n)),
            false => (n as u16 + 20_001, main_ts(n) + 50_000_000),
        };
        records.push(video_record(ts, false, 3, A, 98, seq, rtp_ts));
    }
    // A's second life: four FEC packets to every main-video one.
    let mut main = 90u64;
    for i in 0..90u64 {
        let ts = 30 * SEC + i * 33 * MS;
        if i % 5 == 0 {
            records.push(video_record(
                ts,
                true,
                1,
                A,
                98,
                main as u16 + 1,
                main_ts(main),
            ));
            main += 1;
        } else {
            let fec_ts = 900_000_000 + i as u32 * 3_000;
            records.push(video_record(ts, true, 1, A, 110, 30_000 + i as u16, fec_ts));
        }
    }
    // D: starts two seconds into the second life, on main video's state.
    // Jumps away like C.
    for i in 0..30u64 {
        let n = 103 + i;
        let ts = 32 * SEC + i * 33 * MS;
        let (seq, rtp_ts) = match i < 15 {
            true => (n as u16 + 1, main_ts(n)),
            false => (n as u16 + 40_001, main_ts(n) + 100_000_000),
        };
        records.push(video_record(ts, false, 4, A, 98, seq, rtp_ts));
    }
    // E: starts after the second eviction.
    for i in 0..30u64 {
        let n = 108 + i;
        let ts = 50 * SEC + i * 33 * MS;
        records.push(video_record(ts, false, 5, A, 98, n as u16 + 1, main_ts(n)));
    }
    records.sort_by_key(|r| r.ts_nanos);
    records
}

fn config(per_second_rows: bool) -> AnalyzerConfig {
    AnalyzerConfig {
        per_second_rows,
        ..AnalyzerConfig::default()
    }
}

fn batch_analyzer(records: &[Record], per_second_rows: bool) -> Analyzer {
    let mut analyzer = Analyzer::new(config(per_second_rows));
    for r in records {
        analyzer
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    analyzer
}

fn batch_output(records: &[Record], per_second_rows: bool) -> String {
    batch_analyzer(records, per_second_rows)
        .finish()
        .expect("finish")
        .to_json()
}

/// The `--features` CSV and the text report of a batch pass.
fn features_and_text(records: &[Record]) -> (String, String) {
    let analyzer = batch_analyzer(records, true);
    let mut csv = Vec::new();
    features::write_csv(&mut csv, analyzer.streams().of_type(MediaType::Video)).expect("csv");
    let csv = String::from_utf8(csv).expect("ASCII");
    (csv, text(&analyzer))
}

/// The text report, written into memory.
fn text(analyzer: &Analyzer) -> String {
    let mut out = Vec::new();
    write_text(analyzer, &mut out).expect("a Vec takes every write");
    String::from_utf8(out).expect("the report is UTF-8")
}

fn windowed_output(records: &[Record], per_second_rows: bool) -> String {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: config(per_second_rows),
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
    out.push_str(&drained.final_window().to_json());
    out.push('\n');
    out.push_str(&drained.report.to_json());
    out.push('\n');
    out
}

/// Each scenario's rows that `outputs` renders, checked against their
/// pins; the message lists every row that moved.
fn check_pins(outputs: impl Fn(&Golden, &[Record]) -> Vec<(&'static str, Pin, String)>) {
    let mut moved = Vec::new();
    for g in &GOLDEN {
        let records = (g.records)();
        for (sink, expected, text) in outputs(g, &records) {
            let actual = Pin::of(&text);
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

#[test]
fn batch_and_windowed_outputs_match_their_pins() {
    check_pins(|g, records| {
        vec![
            ("batch", g.batch, batch_output(records, false)),
            ("windowed", g.windowed, windowed_output(records, false)),
        ]
    });
}

#[test]
fn feature_csv_and_text_report_match_their_pins() {
    check_pins(|g, records| {
        let (csv, text) = features_and_text(records);
        vec![("features", g.features, csv), ("text", g.text, text)]
    });
}

#[test]
fn per_second_rows_move_no_other_output() {
    for g in &GOLDEN {
        let records = (g.records)();
        let text = |rows| text(&batch_analyzer(&records, rows));
        assert!(text(false) == text(true), "{}: text report", g.scenario);
        assert!(
            batch_output(&records, false) == batch_output(&records, true),
            "{}: batch JSON",
            g.scenario
        );
        assert!(
            windowed_output(&records, false) == windowed_output(&records, true),
            "{}: windowed NDJSON",
            g.scenario
        );
    }
}

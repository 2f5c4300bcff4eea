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
//!
//! against constants recorded from the code. A change that means to move
//! an output edits the constant and says why in its description; a change
//! that does not must leave every row alone.

use std::net::Ipv4Addr;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};
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
const GOLDEN: [Golden; 5] = [
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
    Golden {
        scenario: "evict_and_return",
        records: evict_and_return,
        batch: pin(0xb8e9_fe7d_990d_3143, 2_412, 1),
        windowed: pin(0xbd2e_d987_3233_70b1, 47_780, 64),
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

//! Pins every byte the simulator emits.
//!
//! Each case runs a short seeded scenario and folds every record's
//! `ts_nanos`, `orig_len` and `data` into an FNV-1a digest. The analyzer's
//! golden outputs cannot catch drift here: it never reads payload bytes or
//! checksums, so a change to how records are built could move them
//! unnoticed. A change that means to alter the simulator's output must
//! update the constants below and say why.

use zoom_sim::campus::CampusScenario;
use zoom_sim::meeting::{MeetingConfig, MeetingSim};
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_sim::webrtc;
use zoom_wire::pcap::Record;

/// Record count and FNV-1a digest of a record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    records: u64,
    digest: u64,
}

fn pin(records: impl IntoIterator<Item = Record>) -> Pin {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut n = 0;
    for r in records {
        fold(&r.ts_nanos.to_le_bytes());
        fold(&r.orig_len.to_le_bytes());
        fold(&r.data);
        n += 1;
    }
    Pin {
        records: n,
        digest: h,
    }
}

fn meetings(configs: Vec<MeetingConfig>) -> Pin {
    pin(configs.into_iter().flat_map(MeetingSim::new))
}

fn check(name: &str, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{name}: the simulator's bytes moved (records {}, digest {:#018x})",
        got.records, got.digest
    );
}

#[test]
fn validation_experiment_bytes_are_pinned() {
    let mut cfg = scenario::validation_experiment(3);
    for p in &mut cfg.participants {
        p.leave_at = 8 * SEC;
    }
    check(
        "validation",
        meetings(vec![cfg]),
        Pin {
            records: 4231,
            digest: 0x6f4efeba992581fe,
        },
    );
}

#[test]
fn p2p_meeting_bytes_are_pinned() {
    // The switch is at 20 s, preceded by the STUN exchanges at 18 s.
    check(
        "p2p",
        meetings(vec![scenario::p2p_meeting(5, 24 * SEC)]),
        Pin {
            records: 5794,
            digest: 0x76ed177698801b34,
        },
    );
}

#[test]
fn multi_party_bytes_are_pinned() {
    // Screen sharing runs from 30 s to `duration - 20 s`.
    check(
        "multi",
        meetings(vec![scenario::multi_party(2, 54 * SEC)]),
        Pin {
            records: 31740,
            digest: 0x49e6acf37fadd3e4,
        },
    );
}

#[test]
fn churn_bytes_are_pinned() {
    check(
        "churn",
        meetings(scenario::churn(11, 12 * SEC)),
        Pin {
            records: 8630,
            digest: 0xcc7a5bb95243ee64,
        },
    );
}

#[test]
fn webrtc_bytes_are_pinned() {
    check(
        "webrtc",
        pin(webrtc::scenario(3, 5 * SEC)),
        Pin {
            records: 2647,
            digest: 0x3a1478bf33e69e0b,
        },
    );
}

#[test]
fn campus_with_background_bytes_are_pinned() {
    // A minute is the shortest trace the campus generator fills; the
    // background covers DNS, QUIC and TCP records.
    let (scenario, _infra): (CampusScenario, _) = scenario::campus_study(11, 60 * SEC, 0.5, 0.02);
    check(
        "campus",
        pin(scenario.into_stream()),
        Pin {
            records: 97563,
            digest: 0x1dc0508cc9c488eb,
        },
    );
}

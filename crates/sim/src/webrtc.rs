//! Native-WebRTC session generator: the cross-family ground truth for
//! the `webrtc` scenario.
//!
//! Unlike the Zoom scenarios (which model meetings through
//! [`crate::meeting::MeetingSim`]), a WebRTC session is a direct
//! client↔peer exchange with standards-track framing end to end:
//!
//! 1. **STUN binding** — request/response between the campus client and
//!    the peer (RFC 5389), which is also what registers the session with
//!    the capture filter's WebRTC stage.
//! 2. **DTLS handshake** — a short burst of DTLS 1.2 records
//!    (`ClientHello` onward), content types 20/22 with the 0xfe version
//!    bytes the wire-level [`zoom_wire::webrtc`] checks pin down.
//! 3. **DTLS-SRTP media** — standard RTP headers in the clear (RFC
//!    3711): Opus-style audio at 50 packets/s (payload type 111) and
//!    VP8-style video at 30 frames/s (payload type 96, 2–5 packets per
//!    frame, marker on the last packet, 90 kHz clock), both directions.
//! 4. **SRTCP sender reports** — packet type 200 once per second per
//!    direction, with everything past the first SSRC opaque.
//!
//! All sizes and counts derive from the seed, so a `(seed, duration)`
//! pair is fully reproducible across runs and shard counts.

use crate::time::{Nanos, MS as MSEC, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use zoom_wire::pcap::Record;
use zoom_wire::webrtc::{
    DtlsRepr, DTLS_APPLICATION_DATA, DTLS_CHANGE_CIPHER_SPEC, DTLS_HANDSHAKE, SRTP_AUTH_TAG_LEN,
};
use zoom_wire::{compose, rtp, stun};

/// Off-campus peer the campus clients call (a public STUN/media host,
/// deliberately outside the published Zoom networks).
pub const DEFAULT_PEER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// Audio payload type (dynamic range, Opus by convention).
pub const AUDIO_PT: u8 = 111;

/// Video payload type (dynamic range, VP8 by convention).
pub const VIDEO_PT: u8 = 96;

/// SRTCP sender-report packet type (RFC 3550).
const SRTCP_SR: u8 = 200;

/// Configuration of one simulated WebRTC session.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Deterministic seed; every byte of the session derives from it.
    pub seed: u64,
    /// Campus-side client address.
    pub client: Ipv4Addr,
    /// Remote peer address.
    pub peer: Ipv4Addr,
    /// Client-side UDP port (single ICE candidate pair: media, STUN,
    /// and DTLS all multiplex on one 5-tuple, as RFC 7983 prescribes).
    pub client_port: u16,
    /// Peer-side UDP port.
    pub peer_port: u16,
    /// Session length.
    pub duration: Nanos,
}

impl SessionConfig {
    /// The standard single-session shape: one campus client calling
    /// [`DEFAULT_PEER`] for `duration`.
    pub fn single(seed: u64, duration: Nanos) -> SessionConfig {
        SessionConfig {
            seed,
            client: Ipv4Addr::new(10, 8, (seed >> 8) as u8, 2u8.wrapping_add(seed as u8)),
            peer: DEFAULT_PEER,
            client_port: 52_000 + (seed % 997) as u16,
            peer_port: 3478,
            duration,
        }
    }
}

/// A timestamped datagram payload before IP/Ethernet composition.
struct Event {
    ts: Nanos,
    uplink: bool,
    payload: Vec<u8>,
}

/// Generate the timestamp-sorted records of one WebRTC session.
pub fn session_records(cfg: SessionConfig) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eb_47c);
    let mut events: Vec<Event> = Vec::new();

    // --- STUN binding (connectivity check) -------------------------------
    let txid: [u8; 12] = core::array::from_fn(|i| (cfg.seed as u8).wrapping_add(i as u8));
    let req = stun::Repr {
        message_type: stun::MessageType::BindingRequest,
        transaction_id: txid,
        xor_mapped_address: None,
    };
    let mut buf = vec![0u8; req.buffer_len()];
    req.emit(&mut buf);
    events.push(Event {
        ts: 0,
        uplink: true,
        payload: buf,
    });
    let resp = stun::Repr {
        message_type: stun::MessageType::BindingSuccess,
        transaction_id: txid,
        xor_mapped_address: None,
    };
    let mut buf = vec![0u8; resp.buffer_len()];
    resp.emit(&mut buf);
    events.push(Event {
        ts: 20 * MSEC,
        uplink: false,
        payload: buf,
    });

    // --- DTLS handshake ---------------------------------------------------
    // ClientHello/ServerHello+certs/keys/Finished plus the change-cipher
    // records: six records over ~100 ms, alternating directions.
    let handshake = [
        (DTLS_HANDSHAKE, true, 180usize),  // ClientHello
        (DTLS_HANDSHAKE, false, 700),      // ServerHello..ServerHelloDone
        (DTLS_HANDSHAKE, true, 300),       // ClientKeyExchange
        (DTLS_CHANGE_CIPHER_SPEC, true, 1),
        (DTLS_CHANGE_CIPHER_SPEC, false, 1),
        (DTLS_HANDSHAKE, false, 60),       // Finished
    ];
    let mut seq: u64 = 0;
    for (i, (content_type, uplink, body_len)) in handshake.into_iter().enumerate() {
        let repr = DtlsRepr {
            content_type,
            version_minor: 0xfd, // DTLS 1.2
            epoch: u16::from(content_type == DTLS_CHANGE_CIPHER_SPEC && !uplink),
            sequence: seq,
            length: body_len as u16,
        };
        seq += 1;
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        for b in &mut buf[zoom_wire::webrtc::DTLS_HEADER_LEN..] {
            *b = rng.gen();
        }
        events.push(Event {
            ts: 40 * MSEC + (i as Nanos) * 12 * MSEC,
            uplink,
            payload: buf,
        });
    }

    // One DTLS application-data record (e.g. an SCTP data channel probe)
    // so the application-data content type is exercised too.
    let appdata = DtlsRepr {
        content_type: DTLS_APPLICATION_DATA,
        version_minor: 0xfd,
        epoch: 1,
        sequence: seq,
        length: 48,
    };
    let mut buf = vec![0u8; appdata.buffer_len()];
    appdata.emit(&mut buf);
    for b in &mut buf[zoom_wire::webrtc::DTLS_HEADER_LEN..] {
        *b = rng.gen();
    }
    events.push(Event {
        ts: 150 * MSEC,
        uplink: true,
        payload: buf,
    });

    // --- SRTP media -------------------------------------------------------
    let media_start = 200 * MSEC;
    if cfg.duration > media_start {
        let media_len = cfg.duration - media_start;
        for uplink in [true, false] {
            let dir_bit = u32::from(uplink);
            let audio_ssrc = 0x5000_0000 | (cfg.seed as u32 & 0xFFFF) << 4 | dir_bit;
            let video_ssrc = 0x6000_0000 | (cfg.seed as u32 & 0xFFFF) << 4 | dir_bit;

            // Audio: 50 packets/s, 80-120 B encrypted payload, 48 kHz
            // clock (960 ticks per 20 ms frame).
            let mut audio_seq: u16 = rng.gen();
            let frames = media_len / (20 * MSEC);
            for n in 0..frames {
                let payload_len = rng.gen_range(80..=120);
                events.push(srtp_event(
                    media_start + n * 20 * MSEC,
                    uplink,
                    rtp::Repr {
                        marker: n == 0,
                        payload_type: AUDIO_PT,
                        sequence_number: audio_seq,
                        timestamp: (n as u32).wrapping_mul(960),
                        ssrc: audio_ssrc,
                        csrc_count: 0,
                        has_extension: false,
                    },
                    payload_len,
                    &mut rng,
                ));
                audio_seq = audio_seq.wrapping_add(1);
            }

            // Video: 30 frames/s on a 90 kHz clock, 2-5 packets per
            // frame, marker on the last packet of each frame.
            let mut video_seq: u16 = rng.gen();
            let frame_interval = SEC / 30;
            let frames = media_len / frame_interval;
            for n in 0..frames {
                let pkts = rng.gen_range(2..=5);
                let ts90k = ((n * frame_interval) / (SEC / 90_000)) as u32;
                for k in 0..pkts {
                    let payload_len = rng.gen_range(700..=1150);
                    events.push(srtp_event(
                        media_start + n * frame_interval + k * MSEC,
                        uplink,
                        rtp::Repr {
                            marker: k + 1 == pkts,
                            payload_type: VIDEO_PT,
                            sequence_number: video_seq,
                            timestamp: ts90k,
                            ssrc: video_ssrc,
                            csrc_count: 0,
                            has_extension: true,
                        },
                        payload_len,
                        &mut rng,
                    ));
                    video_seq = video_seq.wrapping_add(1);
                }
            }

            // SRTCP sender reports: one compound packet per second.
            for n in 0..media_len / SEC {
                events.push(srtcp_sr_event(
                    media_start + 500 * MSEC + n * SEC,
                    uplink,
                    video_ssrc,
                    &mut rng,
                ));
            }
        }
    }

    // --- compose ---------------------------------------------------------
    events.sort_by_key(|e| e.ts);
    events
        .into_iter()
        .map(|e| {
            let (src, dst, sport, dport) = if e.uplink {
                (cfg.client, cfg.peer, cfg.client_port, cfg.peer_port)
            } else {
                (cfg.peer, cfg.client, cfg.peer_port, cfg.client_port)
            };
            let data = compose::udp_ipv4_ethernet(src, dst, sport, dport, &e.payload);
            Record::full(e.ts, data)
        })
        .collect()
}

/// The `webrtc` scenario: a handful of concurrent campus WebRTC calls,
/// staggered so sessions overlap the way independent calls would.
pub fn scenario(seed: u64, duration: Nanos) -> Vec<Record> {
    let sessions = 3;
    let mut records: Vec<Record> = Vec::new();
    for i in 0..sessions {
        let offset = i * 2 * SEC;
        if duration <= offset {
            continue;
        }
        let cfg = SessionConfig::single(seed.wrapping_add(i * 101), duration - offset);
        records.extend(session_records(cfg).into_iter().map(|mut r| {
            r.ts_nanos += offset;
            r
        }));
    }
    records.sort_by_key(|r| r.ts_nanos);
    records
}

/// One SRTP packet: cleartext RTP header, random "encrypted" payload,
/// and the trailing auth tag.
fn srtp_event(ts: Nanos, uplink: bool, repr: rtp::Repr, payload_len: usize, rng: &mut StdRng) -> Event {
    let total = repr.header_len() + payload_len + SRTP_AUTH_TAG_LEN;
    let mut buf = vec![0u8; total];
    let mut pkt = rtp::Packet::new_unchecked(&mut buf[..]);
    repr.emit(&mut pkt);
    for b in &mut buf[repr.header_len()..] {
        *b = rng.gen();
    }
    Event {
        ts,
        uplink,
        payload: buf,
    }
}

/// One SRTCP sender report: a cleartext RTCP SR header + SSRC, then the
/// encrypted report body, SRTCP index, and auth tag.
fn srtcp_sr_event(ts: Nanos, uplink: bool, ssrc: u32, rng: &mut StdRng) -> Event {
    // SR with no report blocks: 6 th 32-bit words follow the first word.
    let words: u16 = 6;
    let first_len = (usize::from(words) + 1) * 4;
    let total = first_len + 4 + SRTP_AUTH_TAG_LEN; // + SRTCP index + tag
    let mut buf = vec![0u8; total];
    buf[0] = 2 << 6; // version 2, no padding, RC 0
    buf[1] = SRTCP_SR;
    buf[2..4].copy_from_slice(&words.to_be_bytes());
    buf[4..8].copy_from_slice(&ssrc.to_be_bytes());
    for b in &mut buf[8..] {
        *b = rng.gen();
    }
    Event {
        ts,
        uplink,
        payload: buf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_wire::webrtc::{classify, Pdu};

    fn udp_payload(rec: &Record) -> Vec<u8> {
        let ip = &rec.data[zoom_wire::ethernet::HEADER_LEN..];
        let ipp = zoom_wire::ipv4::Packet::new_checked(ip).unwrap();
        let u = zoom_wire::udp::Packet::new_checked(ipp.payload()).unwrap();
        u.payload().to_vec()
    }

    #[test]
    fn session_is_deterministic() {
        let a = session_records(SessionConfig::single(7, 3 * SEC));
        let b = session_records(SessionConfig::single(7, 3 * SEC));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.data == y.data));
        let c = session_records(SessionConfig::single(8, 3 * SEC));
        assert!(a.iter().zip(&c).any(|(x, y)| x.data != y.data));
    }

    #[test]
    fn every_non_stun_payload_classifies_as_webrtc() {
        let records = session_records(SessionConfig::single(3, 2 * SEC));
        assert!(records.len() > 100, "too few records: {}", records.len());
        let mut dtls = 0;
        let mut srtp = 0;
        let mut srtcp = 0;
        for rec in &records {
            let payload = udp_payload(rec);
            if zoom_wire::stun::looks_like_stun(&payload) {
                continue;
            }
            match classify(&payload, payload.len()).expect("generated payload must classify") {
                Pdu::Dtls(_) => dtls += 1,
                Pdu::Srtp(s) => {
                    assert!(matches!(s.rtp.payload_type, AUDIO_PT | VIDEO_PT));
                    srtp += 1;
                }
                Pdu::Srtcp(s) => {
                    assert_eq!(s.packet_type, 200);
                    srtcp += 1;
                }
                _ => unreachable!("non-exhaustive Pdu grew a variant"),
            }
        }
        assert!(dtls >= 7, "dtls records: {dtls}");
        assert!(srtp > 100, "srtp packets: {srtp}");
        assert!(srtcp >= 2, "srtcp packets: {srtcp}");
    }

    #[test]
    fn timestamps_sorted_and_sessions_overlap() {
        let records = scenario(1, 6 * SEC);
        assert!(records.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        // Three sessions staggered by 2 s inside 6 s must interleave:
        // more than one client address appears.
        let mut clients = std::collections::HashSet::new();
        for rec in &records {
            let ip = zoom_wire::ipv4::Packet::new_checked(
                &rec.data[zoom_wire::ethernet::HEADER_LEN..],
            )
            .unwrap();
            let (src, dst) = (ip.src_addr(), ip.dst_addr());
            let campus = if src.octets()[0] == 10 { src } else { dst };
            clients.insert(campus);
        }
        assert!(clients.len() >= 2, "clients: {clients:?}");
    }
}

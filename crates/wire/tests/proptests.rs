//! Property-based tests for the wire formats: every emitter/parser pair
//! must round-trip for arbitrary field values, and no parser may panic on
//! arbitrary bytes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use zoom_wire::dissect::{analysis_prefix, dissect, P2pProbe, Probe, Transport, WebrtcProbe};
use zoom_wire::pcap::LinkType;
use zoom_wire::{compose, ethernet, ipv4, rtcp, rtp, stun, tcp, udp, webrtc, zoom, Error};

/// One record of every kind the dissector tells apart, on any port, for
/// the every-offset truncation property. `kind` picks the payload shape,
/// `ports` the 5-tuple's ports; `body` is the (encrypted, never parsed)
/// media or filler behind the headers.
#[allow(clippy::too_many_arguments)]
fn record_of_kind(
    kind: u8,
    ports: u8,
    csrc_count: u8,
    has_extension: bool,
    padded: bool,
    body: &[u8],
    trailer: usize,
    raw_ip: bool,
) -> (Vec<u8>, LinkType) {
    let rtp_repr = rtp::Repr {
        marker: !body.len().is_multiple_of(2),
        payload_type: if kind == 5 { 111 } else { 98 },
        sequence_number: 700,
        timestamp: 90_000,
        ssrc: 0x99,
        csrc_count,
        has_extension,
    };
    let zoom_media = |sfu: bool, media_type: zoom::MediaType| {
        let rtp = media_type.is_rtp_media().then_some(rtp_repr);
        let mut payload = zoom::Builder {
            sfu: sfu.then_some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 9,
                direction: zoom::DIR_FROM_SFU,
            }),
            media: zoom::MediaEncapRepr {
                media_type,
                sequence: 100,
                timestamp: 9_000,
                frame_sequence: (media_type == zoom::MediaType::Video).then_some(5),
                packets_in_frame: (media_type == zoom::MediaType::Video).then_some(2),
            },
            rtp,
            payload: body.to_vec(),
        }
        .build();
        if rtp.is_some() && padded && !body.is_empty() {
            let rtp_at = usize::from(sfu) * zoom::SFU_ENCAP_LEN
                + media_type
                    .payload_offset()
                    .expect("rtp media has an offset");
            payload[rtp_at] |= 0x20;
            *payload.last_mut().expect("body is not empty") = 1;
        }
        payload
    };
    let sender_report = || {
        let sr = rtcp::SenderReportRepr {
            ssrc: 0x42,
            info: rtcp::SenderInfo {
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
            },
            with_sdes: body.len().is_multiple_of(2),
        };
        let mut buf = vec![0u8; sr.buffer_len()];
        sr.emit(&mut buf);
        buf
    };
    let payload: Vec<u8> = match kind {
        0 => zoom_media(true, zoom::MediaType::Video),
        1 => zoom_media(true, zoom::MediaType::Audio),
        2 => zoom_media(true, zoom::MediaType::ScreenShare),
        3 => zoom_media(false, zoom::MediaType::Video),
        4 => zoom_media(false, zoom::MediaType::Audio),
        5 => {
            // SRTP: bare RTP header, body, auth tag.
            let mut buf = vec![0u8; rtp_repr.header_len()];
            rtp_repr.emit(&mut rtp::Packet::new_unchecked(&mut buf[..]));
            buf.extend_from_slice(body);
            buf.extend_from_slice(&[0xA7; webrtc::SRTP_AUTH_TAG_LEN]);
            if padded {
                buf[0] |= 0x20;
            }
            buf
        }
        6 => {
            // SRTCP: a cleartext sender report, ciphertext behind it.
            let mut buf = sender_report();
            buf.extend_from_slice(body);
            buf
        }
        7 => {
            let repr = webrtc::DtlsRepr {
                content_type: webrtc::DTLS_HANDSHAKE,
                version_minor: 0xfd,
                epoch: 0,
                sequence: 1,
                length: body.len() as u16,
            };
            let mut buf = vec![0u8; webrtc::DTLS_HEADER_LEN];
            repr.emit(&mut buf);
            buf.extend_from_slice(body);
            buf
        }
        8 => {
            let msg = stun::Repr {
                message_type: stun::MessageType::BindingSuccess,
                transaction_id: [7; 12],
                xor_mapped_address: Some("10.8.0.3:50111".parse().expect("an address")),
            };
            let mut buf = vec![0u8; msg.buffer_len()];
            msg.emit(&mut buf);
            buf
        }
        9 => {
            let mut b = zoom_media(true, zoom::MediaType::RtcpSr);
            b.truncate(b.len() - body.len());
            b.extend_from_slice(&sender_report());
            b
        }
        10 => zoom_media(true, zoom::MediaType::Other(7)),
        11 => {
            // An SFU encapsulation that announces no media.
            let mut buf = vec![0x01, 0, 1, 0, 0, 0, 0, zoom::DIR_TO_SFU];
            buf.extend_from_slice(body);
            buf
        }
        _ => body.to_vec(),
    };
    let (src_port, dst_port) = match ports {
        0 => (50_111, zoom::ZOOM_SFU_PORT),
        1 => (zoom::ZOOM_SFU_PORT, 50_111),
        2 => (50_111, 61_234),
        _ => (50_111, stun::STUN_PORT),
    };
    let (src, dst) = (Ipv4Addr::new(10, 8, 0, 3), Ipv4Addr::new(52, 202, 62, 1));
    let mut data = if kind == 13 {
        let flags = tcp::Flags {
            ack: true,
            psh: true,
            ..Default::default()
        };
        compose::tcp_ipv4_ethernet(src, dst, src_port, 443, 1_000, 2_000, flags, body)
    } else {
        compose::udp_ipv4_ethernet(src, dst, src_port, dst_port, &payload)
    };
    // Link-layer padding behind the IP packet.
    data.extend(std::iter::repeat_n(0u8, trailer));
    if raw_ip {
        (data.split_off(ethernet::HEADER_LEN), LinkType::RawIp)
    } else {
        (data, LinkType::Ethernet)
    }
}

proptest! {
    #[test]
    fn rtp_repr_roundtrips(
        marker: bool,
        pt in 0u8..128,
        seq: u16,
        ts: u32,
        ssrc: u32,
        csrc in 0u8..16,
        ext: bool,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = rtp::Repr {
            marker,
            payload_type: pt,
            sequence_number: seq,
            timestamp: ts,
            ssrc,
            csrc_count: csrc,
            has_extension: ext,
        };
        let mut buf = vec![0u8; repr.header_len() + payload.len()];
        repr.emit(&mut rtp::Packet::new_unchecked(&mut buf[..]));
        buf[repr.header_len()..].copy_from_slice(&payload);
        let pkt = rtp::Packet::new_checked(&buf[..]).unwrap();
        prop_assert_eq!(rtp::Repr::parse(&pkt).unwrap(), repr);
        prop_assert_eq!(&buf[pkt.payload_offset()..][..pkt.payload_len(buf.len())], &payload[..]);
    }

    #[test]
    fn rtp_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rtp::Packet::new_checked(&data[..]).map(|p| {
            let _ = p.payload_len(data.len());
            p.payload_offset()
        });
    }

    #[test]
    fn zoom_builder_roundtrips(
        sfu_seq: u16,
        direction in prop_oneof![Just(zoom::DIR_TO_SFU), Just(zoom::DIR_FROM_SFU)],
        media_byte in prop_oneof![Just(13u8), Just(15), Just(16)],
        mseq: u16,
        mts: u32,
        frame_seq: u16,
        pkts in 1u8..32,
        rtp_seq: u16,
        rtp_ts: u32,
        ssrc: u32,
        payload in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let media_type = zoom::MediaType::from_byte(media_byte);
        let is_video = media_type == zoom::MediaType::Video;
        let b = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: sfu_seq,
                direction,
            }),
            media: zoom::MediaEncapRepr {
                media_type,
                sequence: mseq,
                timestamp: mts,
                frame_sequence: is_video.then_some(frame_seq),
                packets_in_frame: is_video.then_some(pkts),
            },
            rtp: Some(rtp::Repr {
                marker: false,
                payload_type: 98,
                sequence_number: rtp_seq,
                timestamp: rtp_ts,
                ssrc,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: payload.clone(),
        };
        let bytes = b.build();
        let parsed = zoom::parse(&bytes, bytes.len(), zoom::Framing::Server).unwrap();
        let sfu = parsed.sfu.unwrap();
        prop_assert_eq!(sfu.sequence, sfu_seq);
        prop_assert_eq!(sfu.direction, direction);
        prop_assert_eq!(parsed.media.media_type, media_type);
        prop_assert_eq!(parsed.media.sequence, mseq);
        prop_assert_eq!(parsed.media.timestamp, mts);
        if is_video {
            prop_assert_eq!(parsed.media.frame_sequence, Some(frame_seq));
            prop_assert_eq!(parsed.media.packets_in_frame, Some(pkts));
        }
        let r = parsed.rtp.unwrap();
        prop_assert_eq!(r.sequence_number, rtp_seq);
        prop_assert_eq!(r.ssrc, ssrc);
        prop_assert_eq!(parsed.media_payload_len, payload.len());
    }

    #[test]
    fn zoom_parser_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        clipped in 0usize..2_000,
        framing in prop_oneof![Just(zoom::Framing::Server), Just(zoom::Framing::P2p)],
    ) {
        // ... whether the bytes are the whole datagram or the start of a
        // longer one.
        for wire_len in [data.len(), data.len() + clipped] {
            let _ = zoom::parse(&data, wire_len, framing);
            let _ = zoom::parse_auto(&data, wire_len);
        }
    }

    #[test]
    fn stun_repr_roundtrips(tid: [u8; 12], ip: u32, port: u16) {
        let addr = std::net::SocketAddr::new(
            std::net::IpAddr::V4(Ipv4Addr::from(ip)),
            port,
        );
        let repr = stun::Repr {
            message_type: stun::MessageType::BindingSuccess,
            transaction_id: tid,
            xor_mapped_address: Some(addr),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        let parsed = stun::Repr::parse(&stun::Packet::new_checked(&buf[..]).unwrap()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn stun_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(p) = stun::Packet::new_checked(&data[..]) {
            let _ = p.xor_mapped_address();
            let _: Vec<_> = p.attributes().collect();
        }
    }

    #[test]
    fn rtcp_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rtcp::parse_compound(&data);
    }

    /// The summary a parsed Zoom packet keeps and the item list
    /// `parse_compound` builds come from one walk: the same bytes are
    /// accepted or refused with the same error, and the summary's item
    /// count and first sender report are the list's. Checked on arbitrary
    /// bytes and on compounds of every sub-packet type (SR and RR bodies
    /// long enough or not) cut short or with one byte flipped.
    #[test]
    fn rtcp_summary_agrees_with_the_item_list(
        subs in proptest::collection::vec((0u8..6, 0u8..32, 0u8..12), 1..6),
        filler in proptest::collection::vec(any::<u8>(), 1..64),
        cut in 0usize..300,
        flip_at in 0usize..300,
        flip: u8,
        noise in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut compound = Vec::new();
        for (i, &(kind, count, words)) in subs.iter().enumerate() {
            let pt = [200u8, 201, 202, 203, 204]
                .get(usize::from(kind))
                .copied()
                .unwrap_or(filler[0]);
            compound.extend_from_slice(&[0x80 | count, pt, 0, words]);
            compound.extend((0..usize::from(words) * 4).map(|j| filler[(i + j) % filler.len()]));
        }
        compound.truncate(cut);
        if let Some(b) = compound.get_mut(flip_at) {
            *b ^= flip;
        }
        for data in [&compound, &noise] {
            match (rtcp::parse_compound(data), rtcp::summarize(data)) {
                (Ok(items), Ok(summary)) => {
                    prop_assert_eq!(summary.is_empty(), items.is_empty());
                    let first_sr = items.iter().find_map(|item| match item {
                        rtcp::Item::SenderReport { ssrc, info, .. } => Some((*ssrc, *info)),
                        _ => None,
                    });
                    prop_assert_eq!(summary.sender_report(), first_sr);
                }
                (Err(list), Err(summary)) => prop_assert_eq!(list, summary),
                (list, summary) => prop_assert!(false, "{:?} vs {:?} on {:?}", list, summary, data),
            }
        }
    }

    #[test]
    fn rtcp_sr_roundtrips(ssrc: u32, ntp: u64, rts: u32, pk: u32, oc: u32, sdes: bool) {
        let sr = rtcp::SenderReportRepr {
            ssrc,
            info: rtcp::SenderInfo {
                ntp_timestamp: ntp,
                rtp_timestamp: rts,
                packet_count: pk,
                octet_count: oc,
            },
            with_sdes: sdes,
        };
        let mut buf = vec![0u8; sr.buffer_len()];
        sr.emit(&mut buf);
        let items = rtcp::parse_compound(&buf).unwrap();
        match &items[0] {
            rtcp::Item::SenderReport { ssrc: s, info, .. } => {
                prop_assert_eq!(*s, ssrc);
                prop_assert_eq!(info.ntp_timestamp, ntp);
                prop_assert_eq!(info.packet_count, pk);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
        prop_assert_eq!(items.len(), if sdes { 2 } else { 1 });
        let summary = rtcp::summarize(&buf).unwrap();
        prop_assert!(!summary.is_empty());
        prop_assert_eq!(summary.sender_report(), Some((ssrc, rtcp::SenderInfo {
            ntp_timestamp: ntp,
            rtp_timestamp: rts,
            packet_count: pk,
            octet_count: oc,
        })));
    }

    #[test]
    fn composed_packets_always_dissect(
        src: u32,
        dst: u32,
        sport: u16,
        dport: u16,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::from(src),
            Ipv4Addr::from(dst),
            sport,
            dport,
            &payload,
        );
        // Every composed packet parses layer by layer with verified
        // checksums.
        let eth = ethernet::Packet::new_checked(&data[..]).unwrap();
        prop_assert_eq!(eth.ethertype(), ethernet::EtherType::Ipv4);
        let ip = ipv4::Packet::new_checked(&data[ethernet::HEADER_LEN..]).unwrap();
        prop_assert!(ip.verify_checksum());
        let u = udp::Packet::new_checked(ip.payload()).unwrap();
        prop_assert!(u.verify_checksum_v4(Ipv4Addr::from(src), Ipv4Addr::from(dst)));
        prop_assert_eq!(u.payload(), &payload[..]);
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        prop_assert_eq!(d.five_tuple.src_port, sport);
        prop_assert_eq!(d.payload, &payload[..]);
    }

    #[test]
    fn dissect_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        link in prop_oneof![Just(LinkType::Ethernet), Just(LinkType::RawIp)],
    ) {
        let _ = dissect(0, &data, link, P2pProbe::Auto);
        prop_assert!(analysis_prefix(&data, link) <= data.len());
    }

    /// A capture may keep any leading part of a record (`tcpdump -s`), a
    /// `ZFRG` worker keeps the analysis prefix: a record cut at **every**
    /// offset never panics, cut at or past its prefix it dissects exactly
    /// like the full record — under every probe, and under the parsers
    /// the analysis layer's second chances run on the payload — and cut
    /// short of it it is `Truncated`.
    #[test]
    fn a_record_cut_anywhere_dissects_like_the_full_one_or_is_truncated(
        kind in 0u8..14,
        ports in 0u8..4,
        csrc_count in 0u8..3,
        has_extension: bool,
        padded in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
        body in proptest::collection::vec(any::<u8>(), 0..300),
        trailer in 0usize..6,
        raw_ip: bool,
    ) {
        let (data, link) = record_of_kind(
            kind, ports, csrc_count, has_extension, padded, &body, trailer, raw_ip,
        );
        let prefix = analysis_prefix(&data, link);
        prop_assert!(prefix <= data.len());
        let webrtc_only = Probe {
            zoom: false,
            p2p: P2pProbe::Off,
            webrtc: WebrtcProbe::Auto,
        };
        let everything = Probe {
            zoom: true,
            p2p: P2pProbe::Auto,
            webrtc: WebrtcProbe::Auto,
        };
        for probe in [Probe::default(), P2pProbe::Auto.into(), webrtc_only, everything] {
            let full = dissect(7, &data, link, probe).expect("a composed record dissects");
            for cut in 0..=data.len() {
                let got = match dissect(7, &data[..cut], link, probe) {
                    Ok(got) => got,
                    Err(e) => {
                        prop_assert!(cut < prefix, "cut {} of {}, prefix {}: {:?}", cut, data.len(), prefix, e);
                        prop_assert_eq!(e, Error::Truncated, "cut {}", cut);
                        continue;
                    }
                };
                prop_assert!(cut >= prefix, "cut {} under prefix {} dissected", cut, prefix);
                prop_assert_eq!(
                    (got.link, got.five_tuple, got.ip_total_len, &got.transport, &got.app),
                    (full.link, full.five_tuple, full.ip_total_len, &full.transport, &full.app),
                    "cut {}", cut
                );
                prop_assert!(full.payload.starts_with(got.payload));
                if let Transport::Udp { payload_len } = full.transport {
                    for framing in [zoom::Framing::Server, zoom::Framing::P2p] {
                        prop_assert_eq!(
                            zoom::parse(got.payload, payload_len, framing),
                            zoom::parse(full.payload, payload_len, framing),
                            "cut {}", cut
                        );
                    }
                    prop_assert_eq!(
                        zoom::parse_auto(got.payload, payload_len),
                        zoom::parse_auto(full.payload, payload_len)
                    );
                    prop_assert_eq!(
                        webrtc::classify(got.payload, payload_len),
                        webrtc::classify(full.payload, payload_len)
                    );
                    prop_assert_eq!(
                        stun::looks_like_stun(got.payload),
                        stun::looks_like_stun(full.payload)
                    );
                }
            }
        }
    }

    #[test]
    fn tcp_repr_roundtrips(
        sport: u16,
        dport: u16,
        seq: u32,
        ack: u32,
        flags_byte in 0u8..64,
        window: u16,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let repr = tcp::Repr {
            src_port: sport,
            dst_port: dport,
            seq_number: seq,
            ack_number: ack,
            flags: tcp::Flags::from_byte(flags_byte),
            window,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut tcp::Packet::new_unchecked(&mut buf[..]));
        buf[tcp::HEADER_LEN..].copy_from_slice(&payload);
        let p = tcp::Packet::new_checked(&buf[..]).unwrap();
        let parsed = tcp::Repr {
            src_port: p.src_port(),
            dst_port: p.dst_port(),
            seq_number: p.seq_number(),
            ack_number: p.ack_number(),
            flags: p.flags(),
            window: p.window(),
            payload_len: buf.len() - p.header_len(),
        };
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn pcap_roundtrips_arbitrary_records(
        records in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256)),
            0..20,
        )
    ) {
        use zoom_wire::pcap::{Reader, Record, RecordBuf, Writer};
        let records: Vec<Record> = records
            .into_iter()
            // Keep timestamps in the representable range (u32 seconds).
            .map(|(t, d)| Record::full(t % (u64::from(u32::MAX) * 1_000_000_000), d))
            .collect();
        let mut buf = Vec::new();
        {
            let mut w = Writer::new(&mut buf, LinkType::Ethernet).unwrap();
            for r in &records {
                w.write_record(r).unwrap();
            }
            w.finish().unwrap();
        }
        let mut reader = Reader::new(&buf[..]).unwrap();
        let mut rec = RecordBuf::new();
        let mut got = Vec::new();
        while reader.read_into(&mut rec).unwrap() {
            got.push(rec.to_record());
        }
        prop_assert_eq!(got, records);
    }

    #[test]
    fn fragment_frames_roundtrip_arbitrary_records(
        label_seed in proptest::collection::vec(any::<u8>(), 0..40),
        chunks in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u64>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..256)),
                1..20,
            ),
            0..6,
        ),
        totals in any::<[u64; 5]>(),
    ) {
        use zoom_wire::frame::{FrameEvent, FrameReader, FrameWriter, Totals};
        use zoom_wire::handoff::RecordBatch;

        // Arbitrary worker label over the charset the CLI accepts.
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:._-";
        let label: String = label_seed
            .iter()
            .map(|b| CHARSET[*b as usize % CHARSET.len()] as char)
            .collect();
        let totals = Totals {
            packets: totals[0],
            bytes: totals[1],
            batches: totals[2],
            ring_full_drops: totals[3],
            truncated: totals[4],
        };
        let mut w = FrameWriter::new(Vec::new(), &label, LinkType::RawIp).unwrap();
        let mut batch = RecordBatch::new();
        for chunk in &chunks {
            batch.clear();
            for (ts, orig, data) in chunk {
                batch.push(*ts, *orig, data);
            }
            w.write_batch(&batch).unwrap();
            w.write_accounting(totals).unwrap();
        }
        let stream = w.finish(totals).unwrap();

        let mut r = FrameReader::new(&stream[..]).unwrap();
        prop_assert_eq!(r.label(), &label[..]);
        prop_assert_eq!(r.link_type(), LinkType::RawIp);
        let mut got = RecordBatch::new();
        let mut bye = None;
        let mut accounting_frames = 0usize;
        while let Some(ev) = r.next(&mut got).unwrap() {
            match ev {
                FrameEvent::Records { .. } => {}
                FrameEvent::Accounting(t) => {
                    accounting_frames += 1;
                    prop_assert_eq!(t, totals);
                }
                FrameEvent::Bye(t) => {
                    prop_assert_eq!(t, totals);
                    bye = Some(t);
                }
                FrameEvent::Trace { .. } => {
                    prop_assert!(false, "untraced writer emitted a Trace frame");
                }
            }
        }
        prop_assert!(bye.is_some(), "stream must end with Bye");
        prop_assert_eq!(accounting_frames, chunks.len());
        // A record arrives under the length it had on the wire, holding
        // its analysis prefix (all of it, for bytes that dissect as
        // nothing).
        let expected: Vec<(u64, u32, Vec<u8>)> = chunks.concat();
        prop_assert_eq!(got.len(), expected.len());
        for (rec, (ts, orig, data)) in got.iter().zip(&expected) {
            prop_assert_eq!(rec.ts_nanos, *ts);
            prop_assert_eq!(rec.orig_len, (*orig).max(data.len() as u32));
            prop_assert_eq!(rec.data, &data[..analysis_prefix(data, LinkType::RawIp)]);
        }
    }

    #[test]
    fn fragment_reader_rejects_corruption_without_panicking(
        records in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
            1..10,
        ),
        flip_at: usize,
        flip_bits in 1u8..=255,
        cut_at: usize,
    ) {
        use zoom_wire::frame::{FrameReader, FrameWriter, Totals};
        use zoom_wire::handoff::RecordBatch;

        // Two Records frames (the first may be empty and is then skipped),
        // so damage can land behind records already decoded.
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        let mut batch = RecordBatch::new();
        for half in [&records[..records.len() / 2], &records[records.len() / 2..]] {
            batch.clear();
            for (ts, data) in half {
                batch.push(*ts, data.len() as u32, data);
            }
            w.write_batch(&batch).unwrap();
        }
        let stream = w.finish(Totals::default()).unwrap();

        // Drain a (possibly damaged) stream; must never panic and must
        // not report a clean Bye unless the bytes still form one. Records
        // are decoded in place on the batch's arena, so a frame that
        // fails must be rolled back out of it: whatever the damage, the
        // batch after an `Err` is the batch before the call.
        let contents = |b: &RecordBatch| {
            let records: Vec<(u64, u32, Vec<u8>)> =
                b.iter().map(|r| (r.ts_nanos, r.orig_len, r.data.to_vec())).collect();
            (b.len(), b.arena_bytes(), records)
        };
        let drain = |bytes: &[u8]| -> Result<bool, zoom_wire::Error> {
            let mut r = FrameReader::new(bytes)?;
            let mut b = RecordBatch::new();
            b.push(7, 7, &[7; 7]);
            let mut bye = false;
            loop {
                let before = contents(&b);
                match r.next(&mut b) {
                    Ok(Some(event)) => bye |= matches!(event, zoom_wire::frame::FrameEvent::Bye(_)),
                    Ok(None) => return Ok(bye),
                    Err(e) => {
                        assert_eq!(contents(&b), before, "{e:?} left the batch changed");
                        return Err(e);
                    }
                }
            }
        };

        // Any truncation strictly inside the stream must surface an
        // error somewhere — header, frame, or the missing Bye.
        let cut = cut_at % stream.len().max(1);
        if cut < stream.len() {
            prop_assert!(
                matches!(drain(&stream[..cut]), Err(_) | Ok(false)),
                "truncated stream passed as complete"
            );
        }

        // A bit-flip anywhere must not panic; the reader either errors
        // out or the flip landed in a spot (timestamp, payload byte,
        // totals) that stays structurally valid.
        let mut flipped = stream.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= flip_bits;
        let _ = drain(&flipped);
    }
}

proptest! {
    /// DTLS record headers round-trip for arbitrary field values with a
    /// valid content type.
    #[test]
    fn dtls_repr_roundtrips(
        content_type in 20u8..=23,
        version_minor in prop_oneof![Just(0xffu8), Just(0xfdu8)],
        epoch: u16,
        sequence in 0u64..(1 << 48),
        length in 0u16..1024,
    ) {
        let repr = webrtc::DtlsRepr {
            content_type,
            version_minor,
            epoch,
            sequence,
            length,
        };
        // The parser checks that the record body fits the datagram, so
        // emit header + body, not just the 13-byte header.
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        let parsed = webrtc::DtlsRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    /// The WebRTC family classifier returns errors, never panics, on
    /// arbitrary bytes — a malformed datagram on a known WebRTC flow
    /// must become a `malformed_srtp` drop, not a crash.
    #[test]
    fn webrtc_classify_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = webrtc::classify(&data, data.len());
        let _ = webrtc::classify(&data, data.len() + 1_000);
        let _ = webrtc::DtlsRepr::parse(&data);
        let _ = webrtc::parse_srtp(&data, data.len());
        let _ = webrtc::parse_srtp(&data, data.len() + 1_000);
        let _ = webrtc::parse_srtcp(&data);
    }

    /// An emitted SRTP-shaped packet (strict RTP header + payload + auth
    /// tag) always classifies as SRTP, and the parsed header matches.
    #[test]
    fn srtp_shaped_payloads_classify(
        pt in prop_oneof![0u8..72, 96u8..128],
        seq: u16,
        ts: u32,
        ssrc: u32,
        payload in proptest::collection::vec(any::<u8>(), 10..256),
    ) {
        let repr = rtp::Repr {
            marker: false,
            payload_type: pt,
            sequence_number: seq,
            timestamp: ts,
            ssrc,
            csrc_count: 0,
            has_extension: false,
        };
        let mut buf = vec![0u8; repr.header_len() + payload.len() + webrtc::SRTP_AUTH_TAG_LEN];
        let mut pkt = rtp::Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        buf[repr.header_len()..repr.header_len() + payload.len()].copy_from_slice(&payload);
        match webrtc::classify(&buf, buf.len()) {
            Ok(webrtc::Pdu::Srtp(s)) => {
                prop_assert_eq!(s.rtp.payload_type, pt);
                prop_assert_eq!(s.rtp.ssrc, ssrc);
                prop_assert_eq!(s.payload_len, payload.len());
            }
            other => prop_assert!(false, "expected SRTP, got {other:?}"),
        }
    }
}

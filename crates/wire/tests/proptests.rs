//! Property-based tests for the wire formats: every emitter/parser pair
//! must round-trip for arbitrary field values, and no parser may panic on
//! arbitrary bytes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use zoom_wire::dissect::{dissect, P2pProbe};
use zoom_wire::pcap::LinkType;
use zoom_wire::{compose, ethernet, ipv4, rtcp, rtp, stun, tcp, udp, webrtc, zoom};

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
        prop_assert_eq!(pkt.payload(), &payload[..]);
    }

    #[test]
    fn rtp_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = rtp::Packet::new_checked(&data[..]).map(|p| {
            let _ = p.payload();
            let _ = p.payload_offset();
            p.csrcs()
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
        let parsed = zoom::parse(&bytes, zoom::Framing::Server).unwrap();
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
        framing in prop_oneof![Just(zoom::Framing::Server), Just(zoom::Framing::P2p)],
    ) {
        let _ = zoom::parse(&data, framing);
        let _ = zoom::parse_auto(&data);
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
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
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
        let parsed = tcp::Repr::parse(&tcp::Packet::new_checked(&buf[..]).unwrap()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn pcap_roundtrips_arbitrary_records(
        records in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256)),
            0..20,
        )
    ) {
        use zoom_wire::pcap::{Reader, Record, Writer};
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
        let got: Vec<Record> = Reader::new(&buf[..])
            .unwrap()
            .records()
            .map(|r| r.unwrap())
            .collect();
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
        prop_assert!(r.saw_bye());
        prop_assert_eq!(accounting_frames, chunks.len());
        let expected: Vec<(u64, u32, Vec<u8>)> = chunks.concat();
        prop_assert_eq!(got.len(), expected.len());
        for (rec, (ts, orig, data)) in got.iter().zip(&expected) {
            prop_assert_eq!(rec.ts_nanos, *ts);
            prop_assert_eq!(rec.orig_len, *orig);
            prop_assert_eq!(rec.data, &data[..]);
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
            loop {
                let before = contents(&b);
                match r.next(&mut b) {
                    Ok(Some(_)) => {}
                    Ok(None) => return Ok(r.saw_bye()),
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
        let _ = webrtc::classify(&data);
        let _ = webrtc::DtlsRepr::parse(&data);
        let _ = webrtc::parse_srtp(&data);
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
        match webrtc::classify(&buf) {
            Ok(webrtc::Pdu::Srtp(s)) => {
                prop_assert_eq!(s.rtp.payload_type, pt);
                prop_assert_eq!(s.rtp.ssrc, ssrc);
                prop_assert_eq!(s.payload_len, payload.len());
            }
            other => prop_assert!(false, "expected SRTP, got {other:?}"),
        }
    }
}

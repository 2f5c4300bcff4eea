//! Wire-format parsing throughput: the per-packet cost floor of the whole
//! toolchain.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::net::Ipv4Addr;
use zoom_wire::dissect::{dissect, dissect_from, peek, P2pProbe};
use zoom_wire::pcap::LinkType;
use zoom_wire::{compose, rtp, stun, zoom};

fn video_packet() -> Vec<u8> {
    let payload = zoom::Builder {
        sfu: Some(zoom::SfuEncapRepr {
            encap_type: zoom::SFU_TYPE_MEDIA,
            sequence: 9,
            direction: zoom::DIR_FROM_SFU,
        }),
        media: zoom::MediaEncapRepr {
            media_type: zoom::MediaType::Video,
            sequence: 100,
            timestamp: 9_000,
            frame_sequence: Some(5),
            packets_in_frame: Some(3),
        },
        rtp: Some(rtp::Repr {
            marker: false,
            payload_type: 98,
            sequence_number: 700,
            timestamp: 90_000,
            ssrc: 0x21,
            csrc_count: 0,
            has_extension: true,
        }),
        payload: vec![0x5A; 1_100],
    }
    .build();
    compose::udp_ipv4_ethernet(
        Ipv4Addr::new(170, 114, 0, 1),
        Ipv4Addr::new(10, 8, 0, 3),
        8801,
        50_111,
        &payload,
    )
}

fn bench(c: &mut Criterion) {
    let pkt = video_packet();
    let mut g = c.benchmark_group("wire_parse");
    g.throughput(Throughput::Bytes(pkt.len() as u64));
    g.bench_function("dissect_full_stack", |b| {
        b.iter(|| dissect(0, black_box(&pkt), LinkType::Ethernet, P2pProbe::Off).unwrap())
    });
    // The one-pass fast path: a header-only peek (what the shard router
    // pays per packet) and a dissection resumed from its offsets (what a
    // shard pays) — together they equal dissect_full_stack by
    // construction.
    g.bench_function("peek_header_only", |b| {
        b.iter(|| peek(black_box(&pkt), LinkType::Ethernet).unwrap().info)
    });
    let peeked = peek(&pkt, LinkType::Ethernet).unwrap().info;
    g.bench_function("dissect_from_peek", |b| {
        b.iter(|| dissect_from(black_box(&peeked), 0, black_box(&pkt), P2pProbe::Off))
    });
    let udp_payload = &pkt[14 + 20 + 8..];
    g.bench_function("zoom_parse_server", |b| {
        b.iter(|| {
            zoom::parse(
                black_box(udp_payload),
                udp_payload.len(),
                zoom::Framing::Server,
            )
            .unwrap()
        })
    });
    let rtp_bytes = &udp_payload[8 + 24..];
    g.bench_function("rtp_header_parse", |b| {
        b.iter(|| {
            rtp::Packet::new_checked(black_box(rtp_bytes))
                .unwrap()
                .sequence_number()
        })
    });
    let msg = stun::Repr {
        message_type: stun::MessageType::BindingRequest,
        transaction_id: [7; 12],
        xor_mapped_address: None,
    };
    let mut stun_buf = vec![0u8; msg.buffer_len()];
    msg.emit(&mut stun_buf);
    g.bench_function("stun_looks_like", |b| {
        b.iter(|| stun::looks_like_stun(black_box(&stun_buf)))
    });
    g.bench_function("compose_udp_packet", |b| {
        b.iter(|| {
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, 1),
                Ipv4Addr::new(170, 114, 0, 1),
                50_000,
                8801,
                black_box(&udp_payload[..200]),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

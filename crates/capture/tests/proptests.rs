//! Property-based tests for the capture substrate.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use zoom_analysis::stun_tracker::StunTracker;
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, Verdict};
use zoom_capture::source::{PacketSource, ReplaySource};
use zoom_capture::zoom_nets::{Owner, ZoomIpList, ZoomNetwork};
use zoom_wire::cidr::Cidr;
use zoom_wire::family::FamilySelect;
use zoom_wire::flow::Endpoint;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

proptest! {
    /// CIDR membership is consistent with explicit masking.
    #[test]
    fn cidr_contains_matches_mask(addr: u32, prefix_len in 0u8..=32, probe: u32) {
        let c = Cidr::new(Ipv4Addr::from(addr), prefix_len);
        let mask: u64 = if prefix_len == 0 { 0 } else { (!0u32 << (32 - u32::from(prefix_len))) as u64 };
        let expect = (u64::from(probe) & mask) == (u64::from(addr) & mask);
        prop_assert_eq!(c.contains(Ipv4Addr::from(probe)), expect);
        // The network address itself is always contained.
        prop_assert!(c.contains(c.address()));
        // Size is 2^(32-len).
        prop_assert_eq!(c.size(), 1u64 << (32 - prefix_len));
    }

    /// Anonymization is deterministic, key-sensitive, and the
    /// prefix-preserving mode maps equal prefixes to equal prefixes.
    #[test]
    fn anonymizer_prefix_preservation(key: u64, a: u32, b: u32) {
        let anon = Anonymizer::new(key, Mode::PrefixPreserving);
        let ia = Ipv4Addr::from(a);
        let ib = Ipv4Addr::from(b);
        let oa = anon.anonymize_v4(ia);
        let ob = anon.anonymize_v4(ib);
        prop_assert_eq!(oa, anon.anonymize_v4(ia)); // deterministic
        let shared_in = ia.octets().iter().zip(ib.octets()).take_while(|(x, y)| **x == *y).count();
        let shared_out = oa.octets().iter().zip(ob.octets()).take_while(|(x, y)| **x == *y).count();
        // Output prefixes shared at least as far as input prefixes.
        prop_assert!(shared_out >= shared_in, "in {shared_in} out {shared_out}");
    }

    /// The STUN tracker's hit/miss behaviour is exactly the timeout
    /// predicate.
    #[test]
    fn stun_tracker_timeout_predicate(
        timeout in 1u64..1_000_000_000,
        register_at in 0u64..1_000_000_000,
        check_delta in 0u64..2_000_000_000,
    ) {
        let mut t = StunTracker::new(timeout);
        let ep = Endpoint::new("10.0.0.1".parse().unwrap(), 5_000);
        t.register(ep, register_at);
        let hit = t.check(ep, register_at + check_delta);
        prop_assert_eq!(hit, check_delta <= timeout);
    }

    /// The capture pipeline never panics on arbitrary bytes and counts
    /// every packet exactly once.
    #[test]
    fn pipeline_total_accounting(packets in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 1..60))
    {
        let mut p = CapturePipeline::new(PipelineConfig::sample("10.8.0.0/16"));
        for (i, data) in packets.iter().enumerate() {
            p.classify(i as u64, data, LinkType::Ethernet);
        }
        let c = p.counters();
        prop_assert_eq!(c.total, packets.len() as u64);
        prop_assert_eq!(
            c.total,
            c.excluded + c.zoom_ip_matched + c.stun_registered + c.p2p_matched
                + c.dropped + c.unparseable
        );
        prop_assert_eq!(c.passed, c.zoom_ip_matched + c.stun_registered + c.p2p_matched);
    }
}

/// Prefixes drawn around a few anchors, which sit on /16 block edges as
/// often as not: `(anchor, length, sibling)` picks give nested prefixes
/// (one anchor, several lengths), adjacent ones (`sibling` steps to the
/// next prefix of the same length) and duplicates; lengths 33 and 34 stand
/// for /0 and /32, so both come up often.
fn prefixes(anchors: &[(u32, u8)], picks: &[(usize, u8, u32)]) -> Vec<Cidr> {
    let anchors: Vec<u32> = anchors
        .iter()
        .map(|&(a, edge)| match edge {
            0 => a,
            1 => a & 0xFFFF_0000,
            _ => a | 0xFFFF,
        })
        .collect();
    picks
        .iter()
        .map(|&(anchor, len, sibling)| {
            let len = match len {
                33 => 0,
                34 => 32,
                len => len,
            };
            let step = if len == 0 {
                0
            } else {
                sibling << (32 - u32::from(len))
            };
            Cidr::new(
                Ipv4Addr::from(anchors[anchor % anchors.len()].wrapping_add(step)),
                len,
            )
        })
        .collect()
}

/// Every prefix edge and every /16 block edge around them and around
/// `extra`, each at -1, 0 and +1, and both ends of the address space.
fn edge_probes(sets: &[&[Cidr]], extra: &[u32]) -> Vec<u32> {
    let mut edges = vec![0, u32::MAX];
    edges.extend(extra);
    for cidr in sets.iter().flat_map(|set| set.iter()) {
        let first = u32::from(cidr.address());
        edges.extend([first, first.wrapping_add((cidr.size() - 1) as u32)]);
    }
    let blocks: Vec<u32> = edges
        .iter()
        .flat_map(|&e| [e & 0xFFFF_0000, e | 0xFFFF])
        .collect();
    edges.extend(blocks);
    edges
        .iter()
        .flat_map(|&e| [e.wrapping_sub(1), e, e.wrapping_add(1)])
        .collect()
}

/// The capture pipeline's compiled class table against [`Cidr::contains`]
/// over each of the campus, excluded and Zoom lists, at every probe: its
/// three bits are read back from the verdict of a STUN packet an address
/// sends itself, and from whether a passing one has its source anonymized.
fn assert_classes_match_the_lists(
    campus: &[Cidr],
    excluded: &[Cidr],
    zoom: &[Cidr],
    probes: &[u32],
) {
    let anon = Anonymizer::new(99, Mode::PrefixPreserving);
    let mut pipeline = CapturePipeline::new(PipelineConfig {
        campus_nets: campus.to_vec(),
        excluded_nets: excluded.to_vec(),
        zoom_list: ZoomIpList::from_networks(
            zoom.iter()
                .map(|&cidr| ZoomNetwork {
                    cidr,
                    owner: Owner::Other,
                })
                .collect(),
        ),
        stun_timeout_nanos: u64::MAX,
        anonymizer: Some(anon),
        family: FamilySelect::Auto,
    });
    let stun = {
        let msg = zoom_wire::stun::Repr {
            message_type: zoom_wire::stun::MessageType::BindingRequest,
            transaction_id: [5; 12],
            xor_mapped_address: None,
        };
        let mut p = vec![0u8; msg.buffer_len()];
        msg.emit(&mut p);
        p
    };
    for &probe in probes {
        let ip = Ipv4Addr::from(probe);
        let covered = |cidrs: &[Cidr]| cidrs.iter().any(|c| c.contains(ip));
        let (is_campus, is_excluded, is_zoom) = (covered(campus), covered(excluded), covered(zoom));
        let want = if is_campus && is_excluded {
            Verdict::Excluded
        } else if is_zoom {
            Verdict::ZoomServer
        } else if is_campus {
            Verdict::RtcStun
        } else {
            Verdict::NotZoom
        };
        let packet = zoom_wire::compose::udp_ipv4_ethernet(ip, ip, 40_000, 40_001, &stun);
        let (verdict, out) = pipeline.process_record(&Record::full(0, packet), LinkType::Ethernet);
        assert_eq!(verdict, want, "at {ip}");
        if let Some(out) = out {
            let src = Ipv4Addr::from(<[u8; 4]>::try_from(&out.data[26..30]).unwrap());
            let want_src = if is_campus { anon.anonymize_v4(ip) } else { ip };
            assert_eq!(src, want_src, "source of {ip}");
        }
    }
}

proptest! {
    /// The class table on lists drawn anywhere: any address, any length,
    /// probed at random addresses and at every prefix edge, -1, 0 and +1.
    #[test]
    fn flat_table_matches_linear_reference(
        campus in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..6),
        excluded in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..4),
        zoom in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..12),
        random_probes in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        let cidrs = |list: &[(u32, u8)]| -> Vec<Cidr> {
            list.iter().map(|&(addr, len)| Cidr::new(Ipv4Addr::from(addr), len)).collect()
        };
        let (campus, excluded, zoom) = (cidrs(&campus), cidrs(&excluded), cidrs(&zoom));
        let mut probes = vec![0, u32::MAX];
        probes.extend(&random_probes);
        for cidr in campus.iter().chain(&excluded).chain(&zoom) {
            let (first, last) = cidr.range();
            for edge in [first, last] {
                probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
            }
        }
        assert_classes_match_the_lists(&campus, &excluded, &zoom, &probes);
    }

    /// The class table on lists that nest, abut and repeat around a few
    /// anchors, probed at every prefix and /16 block edge: where the
    /// table's rank index and range merging have their corner cases.
    #[test]
    fn class_lookup_matches_a_linear_scan(
        anchors in proptest::collection::vec((any::<u32>(), 0u8..3), 1..4),
        campus in proptest::collection::vec((0usize..4, 0u8..=34, 0u32..4), 0..8),
        excluded in proptest::collection::vec((0usize..4, 0u8..=34, 0u32..4), 0..6),
        zoom in proptest::collection::vec((0usize..4, 0u8..=34, 0u32..4), 0..10),
        random_probes in proptest::collection::vec(any::<u32>(), 0..16),
    ) {
        let campus = prefixes(&anchors, &campus);
        let excluded = prefixes(&anchors, &excluded);
        let zoom = prefixes(&anchors, &zoom);
        let probes = edge_probes(&[&campus, &excluded, &zoom], &random_probes);
        assert_classes_match_the_lists(&campus, &excluded, &zoom, &probes);
    }
}

proptest! {
    /// The SPSC ring behaves exactly like a bounded FIFO queue: an
    /// arbitrary interleaving of pushes and pops — over arbitrary
    /// capacities including 1 — matches a `VecDeque` model op for op,
    /// with overflow rejections accounted exactly
    /// (`pushed == popped + dropped + in_flight`).
    #[test]
    fn spsc_ring_matches_bounded_fifo_model(
        capacity in 1usize..=8,
        ops in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        let (mut tx, mut rx) = zoom_capture::ring::spsc::<u32>(capacity);
        let mut model = std::collections::VecDeque::new();
        let (mut pushed, mut dropped, mut popped) = (0u32, 0u64, 0u64);
        for op in ops {
            if op {
                let v = pushed;
                pushed += 1;
                match tx.try_push(v) {
                    Ok(()) => {
                        prop_assert!(model.len() < capacity, "accepted past capacity");
                        model.push_back(v);
                    }
                    Err(back) => {
                        prop_assert_eq!(back, v, "rejected value must come back");
                        prop_assert_eq!(model.len(), capacity, "rejected below capacity");
                        dropped += 1;
                    }
                }
            } else {
                let got = rx.try_pop();
                prop_assert_eq!(got, model.pop_front());
                if got.is_some() {
                    popped += 1;
                }
            }
        }
        prop_assert_eq!(u64::from(pushed), popped + dropped + model.len() as u64);
        while let Some(v) = rx.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
        prop_assert!(rx.try_pop().is_none());
    }

    /// Cross-thread delivery preserves order for arbitrary capacities: a
    /// producer thread spinning on a full ring delivers every item
    /// exactly once, in order — nothing lost, duplicated, or reordered
    /// at any capacity/backlog combination. The consumer reads until it
    /// holds `n` items; the ring is empty once the producer is gone.
    #[test]
    fn spsc_ring_cross_thread_fifo(capacity in 1usize..=8, n in 1usize..600) {
        let (mut tx, mut rx) = zoom_capture::ring::spsc::<usize>(capacity);
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let mut v = i;
                loop {
                    match tx.try_push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            drop(tx);
        });
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            match rx.try_pop() {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        prop_assert!(rx.try_pop().is_none());
    }
}

/// Lane `i`'s records: the `j`-th is stamped `[i, j]` and carries the
/// timestamp reached by summing the lane's steps.
fn lane_records(i: usize, steps: &[u64]) -> Vec<Record> {
    let mut ts = 0;
    steps
        .iter()
        .enumerate()
        .map(|(j, step)| {
            ts += step;
            Record::full(ts, vec![i as u8, (j >> 8) as u8, j as u8])
        })
        .collect()
}

/// A fan-in over `lanes` (see [`lane_records`]).
fn mux_over(lanes: &[Vec<u64>]) -> CaptureMux {
    let sources = lanes
        .iter()
        .enumerate()
        .map(|(i, steps)| {
            Box::new(ReplaySource::new(
                &format!("replay:{i}"),
                LinkType::Ethernet,
                lane_records(i, steps),
            )) as Box<dyn PacketSource>
        })
        .collect();
    CaptureMux::start(sources, MuxConfig, None)
}

proptest! {
    /// A batched fan-in drain — handed-over arenas and copied runs alike —
    /// is record for record the per-record `(ts, lane)` merge, for any
    /// number of lanes, any `max`, timestamp ties within and across lanes,
    /// and lanes long enough to span several capture batches.
    #[test]
    fn batched_drain_is_the_per_record_merge(
        lanes in proptest::collection::vec(proptest::collection::vec(0u64..3, 0..400), 1..4),
        max in prop_oneof![Just(1usize), Just(3), Just(127), Just(128), Just(200), Just(4096)],
    ) {
        // The per-record merge, spelled out: by `(ts, lane)`, a lane's
        // records in their own order.
        let mut expected: Vec<(u64, Vec<u8>)> = lanes
            .iter()
            .enumerate()
            .flat_map(|(i, steps)| lane_records(i, steps))
            .map(|r| (r.ts_nanos, r.data))
            .collect();
        expected.sort_by_key(|(ts, data)| (*ts, data[0]));

        let mut got = Vec::new();
        let mut mux = mux_over(&lanes);
        let mut batch = RecordBatch::new();
        while mux.next_batch(&mut batch, max).unwrap().is_some() {
            prop_assert!(!batch.is_empty() && batch.len() <= max);
            got.extend(batch.iter().map(|r| (r.ts_nanos, r.data.to_vec())));
        }
        prop_assert_eq!(mux.records_delivered(), expected.len() as u64);
        let stats: Vec<u64> = (0..lanes.len()).map(|i| mux.lane_stats(i).packets).collect();
        let lens: Vec<u64> = lanes.iter().map(|l| l.len() as u64).collect();
        prop_assert_eq!(stats, lens);
        mux.finish().unwrap();
        prop_assert_eq!(&got, &expected);
    }
}

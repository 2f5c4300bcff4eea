//! Property-based tests for the capture substrate.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::cidr::{Cidr, PrefixMap};
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_capture::source::{PacketSource, ReplaySource};
use zoom_capture::stun_tracker::StunTracker;
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

    /// The flat interval table answers exactly as a linear walk over the
    /// inserted prefixes does. The prefixes are drawn around a few anchor
    /// addresses so that nested, duplicate and adjacent ones (and /0, /32)
    /// are the rule; every range edge is probed at -1, 0 and +1.
    #[test]
    fn flat_table_matches_linear_reference(
        anchors in proptest::collection::vec(any::<u32>(), 1..4),
        picks in proptest::collection::vec((0usize..4, 0u8..=32, 0u32..4), 1..24),
        random_probes in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        let mut m = PrefixMap::new();
        let mut inserted: Vec<(Cidr, usize)> = Vec::new();
        for (value, &(anchor, len, sibling)) in picks.iter().enumerate() {
            // `sibling` steps to the next prefixes of the same length.
            let step = if len == 0 { 0 } else { sibling << (32 - u32::from(len)) };
            let addr = anchors[anchor % anchors.len()].wrapping_add(step);
            let cidr = Cidr::new(Ipv4Addr::from(addr), len);
            m.insert(cidr, value);
            inserted.push((cidr, value));
        }
        // Longest inserted prefix containing `ip`; of equal prefixes the
        // later insertion, which replaced the earlier.
        let reference = |ip: Ipv4Addr| {
            let mut best: Option<(Cidr, usize)> = None;
            for &(cidr, value) in &inserted {
                if cidr.contains(ip) && best.is_none_or(|(b, _)| cidr.prefix_len() >= b.prefix_len()) {
                    best = Some((cidr, value));
                }
            }
            best
        };

        let mut distinct: Vec<Cidr> = inserted.iter().map(|&(c, _)| c).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(m.len(), distinct.len());
        prop_assert_eq!(m.is_empty(), distinct.is_empty());
        let mut listed: Vec<Cidr> = m.iter().map(|(c, _)| c).collect();
        listed.sort();
        prop_assert_eq!(listed, distinct);

        let mut probes = vec![0, u32::MAX];
        probes.extend(&random_probes);
        for &(cidr, _) in &inserted {
            let first = u32::from(cidr.address());
            let last = first.wrapping_add((cidr.size() - 1) as u32);
            for edge in [first, last] {
                probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
            }
        }
        for probe in probes {
            let ip = Ipv4Addr::from(probe);
            let expect = reference(ip);
            prop_assert_eq!(m.longest_match(ip).map(|(c, v)| (c, *v)), expect, "at {}", ip);
            prop_assert_eq!(m.contains(ip), expect.is_some(), "at {}", ip);
        }
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
            prop_assert_eq!(tx.len(), model.len());
            prop_assert_eq!(rx.len(), model.len());
        }
        prop_assert_eq!(u64::from(pushed), popped + dropped + model.len() as u64);
        while let Some(v) = rx.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
        prop_assert!(rx.is_empty());
    }

    /// Cross-thread delivery preserves order for arbitrary capacities: a
    /// producer thread spinning on a full ring delivers every item
    /// exactly once, in order — nothing lost, duplicated, or reordered
    /// at any capacity/backlog combination.
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

/// A fan-in over `lanes`: lane `i`'s `j`-th record is stamped `[i, j]` and
/// carries the timestamp reached by summing the lane's steps. Capture
/// threads behind rings of `ring_capacity`, or in-line lanes without one.
fn mux_over(lanes: &[Vec<u64>], ring_capacity: Option<usize>) -> CaptureMux {
    let sources = lanes
        .iter()
        .enumerate()
        .map(|(i, steps)| {
            let mut ts = 0;
            let records = steps
                .iter()
                .enumerate()
                .map(|(j, step)| {
                    ts += step;
                    Record::full(ts, vec![i as u8, (j >> 8) as u8, j as u8])
                })
                .collect();
            Box::new(ReplaySource::new(
                &format!("replay:{i}"),
                LinkType::Ethernet,
                records,
            )) as Box<dyn PacketSource>
        })
        .collect();
    match ring_capacity {
        Some(ring_capacity) => {
            let config = MuxConfig {
                ring_capacity,
                overflow: Overflow::Block,
            };
            CaptureMux::start(sources, config, None)
        }
        None => CaptureMux::inline(sources, None),
    }
}

proptest! {
    /// A batched fan-in drain — handed-over arenas and copied runs alike,
    /// lanes behind capture threads and lanes read in-line alike — is
    /// record for record the per-record `(ts, lane)` merge, for any
    /// number of lanes, any `max`, timestamp ties within and across lanes,
    /// and lanes long enough to span several capture batches.
    #[test]
    fn batched_drain_is_the_per_record_merge(
        lanes in proptest::collection::vec(proptest::collection::vec(0u64..3, 0..400), 1..4),
        max in prop_oneof![Just(1usize), Just(3), Just(127), Just(128), Just(200), Just(4096)],
        ring_capacity in 1usize..4,
    ) {
        let mut expected = Vec::new();
        let mut mux = mux_over(&lanes, Some(ring_capacity));
        while let Some(r) = mux.next_record().unwrap() {
            expected.push((r.ts_nanos, r.data.to_vec()));
        }
        mux.finish().unwrap();

        // Capture threads, then the same lanes read in-line: one merge.
        for ring_capacity in [Some(ring_capacity), None] {
            let mut got = Vec::new();
            let mut mux = mux_over(&lanes, ring_capacity);
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
            prop_assert_eq!(&got, &expected, "ring {:?}", ring_capacity);
        }
    }
}

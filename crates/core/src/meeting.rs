//! Grouping media streams into meetings (§4.3, Figs. 8 & 9 of the paper).
//!
//! Zoom packets carry no meeting identifier, so meetings must be inferred
//! from flow properties and RTP headers, in two steps:
//!
//! **Step 1 — duplicate-stream detection.** The SFU forwards media without
//! rewriting RTP state, and P2P↔SFU transitions keep RTP state across the
//! 5-tuple change. A new (5-tuple, SSRC) stream whose first RTP timestamp
//! sits close to the last timestamp of an existing stream with the same
//! SSRC (but different 5-tuple) is therefore *the same media* and receives
//! the same unique stream id. Four features must all line up — time, SSRC,
//! sequence continuity, timestamp continuity — which is what makes the
//! match robust enough for RTT estimation (§4.3.1).
//!
//! **Step 2 — meeting assignment.** Mappings from unique stream id, client
//! IP, and client (IP, port) to meeting ids: a new stream joining any
//! existing mapping joins that meeting; matches to *several* meetings
//! merge them (union–find); no match opens a new meeting.
//!
//! Known limitations are inherited from the paper (Fig. 9): fully passive
//! participants outside the vantage are invisible, and campus-side NAT can
//! over-merge meetings.

use std::collections::HashSet;
use std::net::IpAddr;
use zoom_wire::flow::{Endpoint, FiveTuple};

use crate::fxhash::FxHashMap;

use crate::stream::StreamKey;

/// Matching thresholds for step 1.
#[derive(Debug, Clone, Copy)]
pub struct GroupingConfig {
    /// Max |Δ RTP timestamp| between a candidate's last timestamp and the
    /// new stream's first (≈ 55 s of 90 kHz video).
    pub max_ts_delta: u32,
    /// Max wall-clock silence of the candidate stream.
    pub max_idle_nanos: u64,
    /// Max |Δ sequence| between candidate's last and new stream's first.
    pub max_seq_delta: u16,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig {
            max_ts_delta: 5_000_000,
            max_idle_nanos: 120 * 1_000_000_000,
            max_seq_delta: 4_096,
        }
    }
}

impl GroupingConfig {
    /// Ablation: disable step 1 (duplicate-stream detection) entirely —
    /// every new stream gets a fresh unique id, so grouping falls back to
    /// the client-IP/endpoint mappings alone.
    pub fn without_step1() -> GroupingConfig {
        GroupingConfig {
            max_ts_delta: 0,
            max_idle_nanos: 0,
            max_seq_delta: 0,
        }
    }
}

/// What the grouper needs to know about a candidate stream (provided by
/// the stream tracker through a lookup closure).
#[derive(Debug, Clone, Copy)]
pub struct CandidateState {
    /// Dominant sub-stream's most recent RTP timestamp.
    pub last_rtp_ts: u32,
    /// Dominant sub-stream's most recent RTP sequence number.
    pub last_seq: u16,
    /// When the candidate last saw a packet, nanoseconds.
    pub last_seen: u64,
}

/// A reconstructed meeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeetingReport {
    /// Canonical meeting id.
    pub id: u32,
    /// Unique media ids within the meeting (≈ active streams).
    pub stream_uids: Vec<u32>,
    /// Client endpoints observed (≈ visible participants × media).
    pub clients: HashSet<IpAddr>,
    /// Server/peer addresses involved.
    pub servers: HashSet<IpAddr>,
    /// Member streams.
    pub streams: Vec<StreamKey>,
    /// Estimated number of *visible, active* participants: distinct
    /// client IPs (NAT caveats apply — Fig. 9).
    pub participant_estimate: usize,
}

/// A meeting's client or server set as strings, sorted: the order every
/// report prints them in (the set's own order changes run to run).
pub fn sorted_addrs(addrs: &HashSet<IpAddr>) -> Vec<String> {
    let mut out: Vec<String> = addrs.iter().map(IpAddr::to_string).collect();
    out.sort();
    out
}

/// Union–find over meeting ids.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Non-compressing find for read-only contexts.
    fn find_ro(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
            lo
        } else {
            ra
        }
    }
}

/// What the grouper keeps of one stream.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    uid: u32,
    /// Meeting id as assigned (reports resolve it through the
    /// union–find).
    meeting: u32,
    client: IpAddr,
    server: IpAddr,
}

/// The two-step grouping heuristic.
pub struct MeetingGrouper {
    config: GroupingConfig,
    next_uid: u32,
    /// SSRC → streams carrying it (step-1 candidate index).
    by_ssrc: FxHashMap<u32, Vec<StreamKey>>,
    /// Per stream: its ids and endpoints, under one copy of its key.
    assignments: FxHashMap<StreamKey, Assignment>,
    /// Step-2 mappings.
    by_uid: FxHashMap<u32, u32>,
    by_client_ip: FxHashMap<IpAddr, u32>,
    by_client_endpoint: FxHashMap<Endpoint, u32>,
    meetings: UnionFind,
}

impl MeetingGrouper {
    /// Grouper with default thresholds.
    pub fn new() -> MeetingGrouper {
        MeetingGrouper::with_config(GroupingConfig::default())
    }

    /// Grouper with custom thresholds.
    pub fn with_config(config: GroupingConfig) -> MeetingGrouper {
        MeetingGrouper {
            config,
            next_uid: 0,
            by_ssrc: FxHashMap::default(),
            assignments: FxHashMap::default(),
            by_uid: FxHashMap::default(),
            by_client_ip: FxHashMap::default(),
            by_client_endpoint: FxHashMap::default(),
            meetings: UnionFind::default(),
        }
    }

    /// Register a newly created stream.
    ///
    /// `client`/`server` are the two endpoints of the flow with the client
    /// side resolved by the caller (non-8801 side for server traffic,
    /// campus side for P2P). `lookup` exposes candidate streams' current
    /// state for the step-1 match.
    #[allow(clippy::too_many_arguments)]
    pub fn on_new_stream(
        &mut self,
        key: StreamKey,
        client: Endpoint,
        server: IpAddr,
        first_rtp_ts: u32,
        first_seq: u16,
        now: u64,
        lookup: impl Fn(&StreamKey) -> Option<CandidateState>,
    ) -> (u32, u32) {
        // ---- Step 1: find a duplicate of this media. ----
        let mut uid = None;
        if let Some(cands) = self.by_ssrc.get(&key.ssrc) {
            for cand_key in cands {
                if cand_key.flow == key.flow {
                    continue;
                }
                let Some(state) = lookup(cand_key) else {
                    continue;
                };
                if now.saturating_sub(state.last_seen) > self.config.max_idle_nanos {
                    continue;
                }
                let ts_delta = first_rtp_ts.wrapping_sub(state.last_rtp_ts) as i32;
                if ts_delta.unsigned_abs() > self.config.max_ts_delta {
                    continue;
                }
                let seq_delta = first_seq.wrapping_sub(state.last_seq) as i16;
                if seq_delta.unsigned_abs() > self.config.max_seq_delta {
                    continue;
                }
                uid = self.assignments.get(cand_key).map(|a| a.uid);
                if uid.is_some() {
                    break;
                }
            }
        }
        let uid = uid.unwrap_or_else(|| {
            let u = self.next_uid;
            self.next_uid += 1;
            u
        });

        // ---- Step 2: assign to a meeting. ----
        let mut matches: Vec<u32> = Vec::new();
        if let Some(&m) = self.by_uid.get(&uid) {
            matches.push(m);
        }
        if let Some(&m) = self.by_client_ip.get(&client.ip) {
            matches.push(m);
        }
        if let Some(&m) = self.by_client_endpoint.get(&client) {
            matches.push(m);
        }
        let meeting = match matches.first() {
            None => self.meetings.make(),
            Some(&first) => {
                let mut root = self.meetings.find(first);
                for &other in &matches[1..] {
                    root = self.meetings.union(root, other);
                }
                root
            }
        };
        self.by_uid.insert(uid, meeting);
        self.by_client_ip.insert(client.ip, meeting);
        self.by_client_endpoint.insert(client, meeting);

        self.by_ssrc.entry(key.ssrc).or_default().push(key);
        let assignment = Assignment {
            uid,
            meeting,
            client: client.ip,
            server,
        };
        self.assignments.insert(key, assignment);
        (uid, meeting)
    }

    /// The unique id and meeting of a stream, if registered.
    pub fn assignment(&self, key: &StreamKey) -> Option<(u32, u32)> {
        self.assignments.get(key).map(|a| (a.uid, a.meeting))
    }

    /// Meeting id `meeting` (as some stream was assigned it) after all
    /// union–find merges. No table probe: [`Stream`](crate::stream::Stream)
    /// rows carry their assigned id.
    pub fn canonical(&self, meeting: u32) -> u32 {
        self.meetings.find_ro(meeting)
    }

    /// Number of distinct meetings after all merges.
    pub fn meeting_count(&self) -> usize {
        let roots: HashSet<u32> = self
            .assignments
            .values()
            .map(|a| self.meetings.find_ro(a.meeting))
            .collect();
        roots.len()
    }

    /// Build the final meeting reports.
    pub fn reports(&self) -> Vec<MeetingReport> {
        let mut by_root: FxHashMap<u32, MeetingReport> = FxHashMap::default();
        for (&key, a) in &self.assignments {
            let root = self.meetings.find_ro(a.meeting);
            let report = by_root.entry(root).or_insert_with(|| MeetingReport {
                id: root,
                stream_uids: Vec::new(),
                clients: HashSet::new(),
                servers: HashSet::new(),
                streams: Vec::new(),
                participant_estimate: 0,
            });
            if !report.stream_uids.contains(&a.uid) {
                report.stream_uids.push(a.uid);
            }
            report.clients.insert(a.client);
            report.servers.insert(a.server);
            report.streams.push(key);
        }
        let mut reports: Vec<MeetingReport> = by_root
            .into_values()
            .map(|mut r| {
                r.participant_estimate = r.clients.len();
                r.streams.sort();
                // `assignments` iterates in HashMap order; sort the uid
                // list so reports are identical run-to-run (and between
                // the sequential analyzer and the engine).
                r.stream_uids.sort_unstable();
                r
            })
            .collect();
        reports.sort_by_key(|r| r.id);
        reports
    }
}

impl Default for MeetingGrouper {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolve the client endpoint of a flow: the side that is *not* the
/// well-known Zoom server port; `None` when neither side is (P2P — the
/// caller must decide using campus membership).
pub fn client_endpoint_of(flow: &FiveTuple) -> Option<(Endpoint, IpAddr)> {
    if flow.dst_port == zoom_wire::zoom::ZOOM_SFU_PORT {
        Some((flow.src(), flow.dst_ip))
    } else if flow.src_port == zoom_wire::zoom::ZOOM_SFU_PORT {
        Some((flow.dst(), flow.src_ip))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zoom_wire::ipv4::Protocol;

    const SEC: u64 = 1_000_000_000;

    fn key(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16, ssrc: u32) -> StreamKey {
        StreamKey {
            flow: FiveTuple {
                src_ip: IpAddr::V4(Ipv4Addr::from(src)),
                dst_ip: IpAddr::V4(Ipv4Addr::from(dst)),
                src_port: sport,
                dst_port: dport,
                protocol: Protocol::Udp,
            },
            ssrc,
        }
    }

    const SFU: [u8; 4] = [170, 114, 0, 1];

    fn ep(ip: [u8; 4], port: u16) -> Endpoint {
        Endpoint::new(IpAddr::V4(Ipv4Addr::from(ip)), port)
    }

    #[test]
    fn copies_share_unique_id_and_meeting() {
        let mut g = MeetingGrouper::new();
        // Uplink from client 1.
        let up = key([10, 8, 0, 1], 50_000, SFU, 8801, 0x21);
        let (uid_up, m_up) = g.on_new_stream(
            up,
            ep([10, 8, 0, 1], 50_000),
            up.flow.dst_ip,
            1_000,
            10,
            0,
            |_| None,
        );
        // Downlink copy toward client 2, 50 ms later, same SSRC, close
        // RTP state.
        let down = key(SFU, 8801, [10, 8, 0, 2], 51_000, 0x21);
        let state = CandidateState {
            last_rtp_ts: 4_000,
            last_seq: 12,
            last_seen: 40_000_000,
        };
        let (uid_down, m_down) = g.on_new_stream(
            down,
            ep([10, 8, 0, 2], 51_000),
            down.flow.src_ip,
            4_060,
            13,
            50_000_000,
            |k| if *k == up { Some(state) } else { None },
        );
        assert_eq!(uid_up, uid_down);
        assert_eq!(g.meetings.find(m_up), g.meetings.find(m_down));
        assert_eq!(g.meeting_count(), 1);
        let reports = g.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].participant_estimate, 2);
    }

    #[test]
    fn same_ssrc_far_timestamps_is_different_media() {
        let mut g = MeetingGrouper::new();
        let a = key([10, 8, 0, 1], 50_000, SFU, 8801, 0x21);
        g.on_new_stream(
            a,
            ep([10, 8, 0, 1], 50_000),
            a.flow.dst_ip,
            1_000,
            1,
            0,
            |_| None,
        );
        // Same SSRC in a *different meeting*: timestamps nowhere near.
        let b = key([10, 8, 9, 9], 52_000, [170, 114, 0, 7], 8801, 0x21);
        let state = CandidateState {
            last_rtp_ts: 1_000,
            last_seq: 1,
            last_seen: 0,
        };
        let (uid_b, _) = g.on_new_stream(
            b,
            ep([10, 8, 9, 9], 52_000),
            b.flow.dst_ip,
            900_000_000,
            1,
            SEC,
            |k| if *k == a { Some(state) } else { None },
        );
        assert_eq!(uid_b, 1); // fresh uid
        assert_eq!(g.meeting_count(), 2);
    }

    #[test]
    fn p2p_transition_joins_meeting_via_uid() {
        let mut g = MeetingGrouper::new();
        // SFU-mode stream.
        let sfu = key([10, 8, 0, 1], 50_000, SFU, 8801, 0x30);
        g.on_new_stream(
            sfu,
            ep([10, 8, 0, 1], 50_000),
            sfu.flow.dst_ip,
            5_000,
            100,
            0,
            |_| None,
        );
        // After the P2P switch: new ports, new peer address, same RTP
        // state → step 1 links them; the meeting follows the uid.
        let p2p = key([10, 8, 0, 1], 61_000, [98, 7, 6, 5], 62_000, 0x30);
        let state = CandidateState {
            last_rtp_ts: 95_000,
            last_seq: 160,
            last_seen: 20 * SEC,
        };
        let (_, _) = g.on_new_stream(
            p2p,
            ep([10, 8, 0, 1], 61_000),
            IpAddr::V4(Ipv4Addr::from([98, 7, 6, 5])),
            95_500,
            161,
            21 * SEC,
            |k| if *k == sfu { Some(state) } else { None },
        );
        assert_eq!(g.meeting_count(), 1);
    }

    #[test]
    fn client_ip_merges_streams_without_rtp_link() {
        let mut g = MeetingGrouper::new();
        // Audio and video from the same client: different SSRCs, no RTP
        // continuity — the client-IP mapping joins them.
        let audio = key([10, 8, 0, 1], 50_000, SFU, 8801, 0x20);
        let video = key([10, 8, 0, 1], 50_001, SFU, 8801, 0x21);
        g.on_new_stream(
            audio,
            ep([10, 8, 0, 1], 50_000),
            audio.flow.dst_ip,
            1,
            1,
            0,
            |_| None,
        );
        g.on_new_stream(
            video,
            ep([10, 8, 0, 1], 50_001),
            video.flow.dst_ip,
            2,
            2,
            0,
            |_| None,
        );
        assert_eq!(g.meeting_count(), 1);
    }

    #[test]
    fn multiple_matches_merge_meetings() {
        let mut g = MeetingGrouper::new();
        // Two separate meetings form...
        let a = key([10, 8, 0, 1], 50_000, SFU, 8801, 0x20);
        let b = key([10, 8, 0, 2], 51_000, SFU, 8801, 0x24);
        g.on_new_stream(a, ep([10, 8, 0, 1], 50_000), a.flow.dst_ip, 1, 1, 0, |_| {
            None
        });
        g.on_new_stream(b, ep([10, 8, 0, 2], 51_000), b.flow.dst_ip, 2, 2, 0, |_| {
            None
        });
        assert_eq!(g.meeting_count(), 2);
        // ...until a downlink copy of A's media toward client 2 connects
        // them (uid match + client-IP match to different meetings).
        let down = key(SFU, 8801, [10, 8, 0, 2], 51_500, 0x20);
        let state = CandidateState {
            last_rtp_ts: 1,
            last_seq: 1,
            last_seen: 0,
        };
        g.on_new_stream(
            down,
            ep([10, 8, 0, 2], 51_500),
            down.flow.src_ip,
            5,
            3,
            SEC,
            |k| if *k == a { Some(state) } else { None },
        );
        assert_eq!(g.meeting_count(), 1);
        let reports = g.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].streams.len(), 3);
    }

    #[test]
    fn nat_limitation_documented_behaviour() {
        // Two actually-distinct meetings behind one NAT IP are merged —
        // the Fig. 9 limitation, reproduced deliberately.
        let mut g = MeetingGrouper::new();
        let a = key([10, 8, 7, 7], 40_000, SFU, 8801, 0x20);
        let b = key([10, 8, 7, 7], 41_000, [170, 114, 9, 9], 8801, 0x30);
        g.on_new_stream(a, ep([10, 8, 7, 7], 40_000), a.flow.dst_ip, 1, 1, 0, |_| {
            None
        });
        g.on_new_stream(b, ep([10, 8, 7, 7], 41_000), b.flow.dst_ip, 2, 2, 0, |_| {
            None
        });
        assert_eq!(g.meeting_count(), 1);
    }

    #[test]
    fn client_endpoint_resolution() {
        let up = key([10, 8, 0, 1], 50_000, SFU, 8801, 1).flow;
        let (c, s) = client_endpoint_of(&up).unwrap();
        assert_eq!(c.port, 50_000);
        assert_eq!(s, up.dst_ip);
        let down = up.reversed();
        let (c2, _) = client_endpoint_of(&down).unwrap();
        assert_eq!(c2, c);
        let p2p = key([10, 8, 0, 1], 61_000, [9, 9, 9, 9], 62_000, 1).flow;
        assert!(client_endpoint_of(&p2p).is_none());
    }
}

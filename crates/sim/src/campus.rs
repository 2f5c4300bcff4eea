//! Campus-scale workload: many concurrent meetings plus background
//! traffic, merged into a single time-ordered packet stream.
//!
//! Reproduces the structure of the paper's 12-hour campus trace
//! (Appendix A, Figs. 14 & 17): a diurnal meeting-arrival process with
//! pronounced on-the-hour (and smaller half-hour) spikes, a lunchtime dip,
//! a mix of meeting sizes and media configurations, and — optionally —
//! non-Zoom background traffic so the capture pipeline has something to
//! filter.
//!
//! Absolute load is scaled by `scale` relative to the paper's campus
//! (1.8 B Zoom packets / 12 h ≈ 42.7 k pkt/s): at the default 1/32 the
//! trace keeps every distributional shape at ~3 % of the packet volume.

use crate::infra::{diurnal_intensity, Infrastructure};
use crate::meeting::{AudioParams, MeetingConfig, MeetingSim, ParticipantConfig, VideoParams};
use crate::path::CongestionEvent;
use crate::time::{Nanos, MS, SEC};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use zoom_wire::checksum::Summer;
use zoom_wire::compose;
use zoom_wire::pcap::Record;
use zoom_wire::tcp;

/// Campus workload configuration.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    /// Trace duration (the paper's is 12 h).
    pub duration: Nanos,
    /// Load scale relative to the paper's campus (1.0 = full 42.7 k pkt/s
    /// average Zoom load; default 1/32).
    pub scale: f64,
    /// Local time of day at trace start, hours.
    pub start_hour: f64,
    /// Campus client network (a /16 like the paper's).
    pub campus_net: Ipv4Addr,
    /// Emit non-Zoom background traffic at roughly this many packets per
    /// Zoom packet (the paper: 626 k pps total vs 42.7 k Zoom ≈ 13.6×).
    /// Zero disables background traffic.
    pub background_ratio: f64,
    pub seed: u64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            duration: 12 * 3_600 * SEC,
            scale: 1.0 / 32.0,
            start_hour: 9.0,
            campus_net: Ipv4Addr::new(10, 8, 0, 0),
            background_ratio: 0.0,
            seed: 7,
        }
    }
}

/// Ground-truth summary of one generated meeting, for validating the
/// grouping heuristic.
#[derive(Debug, Clone)]
pub struct MeetingTruth {
    pub id: u32,
    pub start: Nanos,
    pub end: Nanos,
    pub participants: usize,
    pub on_campus: usize,
    pub p2p: bool,
    pub sfu_ip: Ipv4Addr,
    /// Participants that send any media — the only ones a passive monitor
    /// can possibly count (§4.3.1).
    pub active_participants: usize,
}

/// The generated campus scenario: meeting configs plus ground truth.
pub struct CampusScenario {
    pub meetings: Vec<MeetingConfig>,
    pub truth: Vec<MeetingTruth>,
    pub config: CampusConfig,
}

/// Concurrent meetings at peak for scale 1.0, calibrated so that the
/// generated *monitor-visible* Zoom packet rate matches the paper's
/// average (42.7 k pkt/s at scale 1.0): each meeting contributes several
/// hundred pps of uplink + fanned-out downlink copies at the tap.
const PEAK_CONCURRENT_AT_FULL_SCALE: f64 = 60.0;
/// Mean meeting duration, minutes.
const MEAN_DURATION_MIN: f64 = 38.0;

/// Sample a small-λ Poisson variate (Knuth's product method).
fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1_000 {
            return k; // guard against pathological λ
        }
    }
}

impl CampusScenario {
    /// Generate the meeting population for `config`.
    pub fn generate(config: CampusConfig, infra: &Infrastructure) -> CampusScenario {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut meetings = Vec::new();
        let mut truth = Vec::new();
        let minutes = config.duration / (60 * SEC);
        // Arrival rate: peak concurrency over mean duration, modulated by
        // the diurnal curve and hour/half-hour spikes.
        let peak_per_min = PEAK_CONCURRENT_AT_FULL_SCALE * config.scale / MEAN_DURATION_MIN;
        let mut id = 0u32;
        for m in 0..minutes {
            let tod = ((config.start_hour * 3_600.0) as u64) * SEC + m * 60 * SEC;
            let spike = match m % 60 {
                0 => 6.0,
                30 => 2.5,
                _ => 0.55,
            };
            let lambda = peak_per_min * diurnal_intensity(tod) * spike;
            for _ in 0..poisson(&mut rng, lambda) {
                id += 1;
                let start = m * 60 * SEC + rng.gen_range(0..50_000) * MS;
                if let Some((cfg, t)) = Self::one_meeting(&mut rng, &config, infra, id, start) {
                    meetings.push(cfg);
                    truth.push(t);
                }
            }
        }
        CampusScenario {
            meetings,
            truth,
            config,
        }
    }

    fn one_meeting(
        rng: &mut StdRng,
        config: &CampusConfig,
        infra: &Infrastructure,
        id: u32,
        start: Nanos,
    ) -> Option<(MeetingConfig, MeetingTruth)> {
        // Meeting size distribution.
        let size = match rng.gen_range(0..100) {
            0..=34 => 2,
            35..=74 => rng.gen_range(3..=5),
            75..=94 => rng.gen_range(6..=10),
            _ => rng.gen_range(11..=20),
        };
        // Duration, with many meetings scheduled for ~30/60 minutes.
        let dur_min = match rng.gen_range(0..100) {
            0..=29 => 30.0 - rng.gen_range(1.0..5.0),
            30..=54 => 60.0 - rng.gen_range(1.0..8.0),
            _ => rng.gen_range(6.0..90.0),
        };
        let end = (start + (dur_min * 60.0) as u64 * SEC).min(config.duration);
        if end <= start + 30 * SEC {
            return None;
        }

        let campus_octets = config.campus_net.octets();
        let mut participants = Vec::new();
        let mut on_campus_count = 0;
        let mut active = 0;
        for p in 0..size {
            // At least one participant is on campus; otherwise the
            // meeting would be invisible at the border tap.
            let on_campus = p == 0 || rng.gen_bool(0.3);
            let ip = if on_campus {
                on_campus_count += 1;
                Ipv4Addr::new(
                    campus_octets[0],
                    campus_octets[1],
                    rng.gen_range(1..250),
                    rng.gen_range(2..250),
                )
            } else {
                const PUBLIC_FIRST_OCTETS: [u8; 8] = [24, 67, 73, 98, 142, 151, 186, 203];
                Ipv4Addr::new(
                    PUBLIC_FIRST_OCTETS[rng.gen_range(0..8)],
                    rng.gen_range(1..250),
                    rng.gen_range(1..250),
                    rng.gen_range(2..250),
                )
            };
            let join_at = if p == 0 {
                start
            } else {
                start + rng.gen_range(0..20) * SEC
            };
            let leave_at = if rng.gen_bool(0.1) {
                join_at + (end - join_at) / 2 // early leaver
            } else {
                end
            };
            let video = if rng.gen_bool(0.8) {
                Some(VideoParams {
                    bitrate: rng.gen_range(160_000.0..560_000.0),
                    fps: rng.gen_range(26.0..29.0),
                    motion: rng.gen_range(0.6..1.8),
                    // Thumbnail/"speaker-only" layouts pin many streams to
                    // reduced mode — the 14 fps cluster of Fig. 16b.
                    reduced: rng.gen_bool(0.65),
                })
            } else {
                None
            };
            let audio = if rng.gen_bool(0.95) {
                Some(AudioParams {
                    mobile: rng.gen_bool(0.04),
                    talk_fraction: rng.gen_range(0.3..(1.0 / size as f64 + 0.75)),
                })
            } else {
                None
            };
            if video.is_some() || audio.is_some() {
                active += 1;
            }
            // Occasional cross-traffic congestion.
            let congestion = if rng.gen_bool(0.12) {
                let at = start + rng.gen_range(0..((end - start) / SEC).max(1)) * SEC;
                vec![CongestionEvent {
                    start: at,
                    end: at + rng.gen_range(8..30) * SEC,
                    added_delay: rng.gen_range(15..70) * MS,
                    added_loss: rng.gen_range(0.0..0.03),
                }]
            } else {
                Vec::new()
            };
            participants.push(ParticipantConfig {
                ip,
                on_campus,
                join_at,
                leave_at,
                video,
                audio,
                screen_share: None,
                wan_ms: rng.gen_range(10..55),
                // Residential/wifi path diversity: jitter spans more than
                // an order of magnitude across participants.
                wan_jitter_us: match rng.gen_range(0..100) {
                    // A few really bad links: cellular/overloaded wifi —
                    // Fig. 15d's >40 ms tail.
                    0..=6 => rng.gen_range(60_000..140_000),
                    7..=41 => rng.gen_range(10_000..60_000), // wifi
                    _ => rng.gen_range(800..6_000),          // wired
                },
                wan_loss: if rng.gen_bool(0.1) {
                    rng.gen_range(0.005..0.03)
                } else {
                    rng.gen_range(0.0002..0.004)
                },
                congestion,
            });
        }
        // One sharer in ~45 % of meetings.
        if rng.gen_bool(0.45) {
            let sharer = rng.gen_range(0..participants.len());
            let p = &mut participants[sharer];
            let s0 = p.join_at + rng.gen_range(10..60) * SEC;
            let s1 = (s0 + rng.gen_range(120..1_800) * SEC).min(p.leave_at);
            if s1 > s0 + 10 * SEC {
                p.screen_share = Some((s0, s1));
            }
        }

        let p2p = size == 2 && rng.gen_bool(0.4);
        let sfu_ip = infra.pick_mmr(rng).ip;
        let zc_ip = infra.pick_zc(rng).ip;
        let cfg = MeetingConfig {
            id,
            sfu_ip,
            zc_ip,
            participants,
            p2p_switch_at: if p2p {
                Some(start + rng.gen_range(10..40) * SEC)
            } else {
                None
            },
            control_tcp: true,
            keepalives: true,
            seed: u64::from(id) ^ 0x5eed,
        };
        let t = MeetingTruth {
            id,
            start,
            end,
            participants: size,
            on_campus: on_campus_count,
            p2p,
            sfu_ip,
            active_participants: active,
        };
        Some((cfg, t))
    }

    /// Run the scenario as one merged, time-ordered record stream.
    pub fn into_stream(self) -> CampusStream {
        let background = if self.config.background_ratio > 0.0 {
            Some(BackgroundGen::new(&self.config))
        } else {
            None
        };
        CampusStream::new(
            self.meetings.into_iter().map(MeetingSim::new).collect(),
            background,
        )
    }
}

/// Background (non-Zoom) traffic generator: web, DNS, and bulk flows from
/// random campus clients — what the capture pipeline must reject.
pub struct BackgroundGen {
    rng: StdRng,
    now: Nanos,
    end: Nanos,
    /// Mean packets per second at peak.
    rate: f64,
    campus_net: Ipv4Addr,
}

impl BackgroundGen {
    fn new(config: &CampusConfig) -> BackgroundGen {
        let zoom_pps = 42_733.0 * config.scale;
        BackgroundGen {
            rng: StdRng::seed_from_u64(config.seed ^ 0xbac6_0000),
            now: 0,
            end: config.duration,
            rate: zoom_pps * config.background_ratio,
            campus_net: config.campus_net,
        }
    }

    /// A record buffer: room for `headers`, then `len` random payload
    /// bytes drawn straight into it, and their sum.
    fn draw_payload(&mut self, headers: usize, len: usize) -> (Vec<u8>, Summer) {
        let mut data = Vec::with_capacity(headers + len);
        data.resize(headers, 0);
        let mut sum = Summer::new();
        sum.extend_and_add(&mut data, len, || self.rng.next_u64());
        (data, sum)
    }

    /// A UDP datagram of `len` random bytes between `client`'s ephemeral
    /// port and `server`'s `port`, built in one buffer. The ephemeral port
    /// is drawn after the payload.
    fn udp(
        &mut self,
        client: Ipv4Addr,
        server: Ipv4Addr,
        outbound: bool,
        port: u16,
        len: usize,
    ) -> Vec<u8> {
        let (mut data, sum) = self.draw_payload(compose::UDP_HEADERS_LEN, len);
        let ephemeral = self.rng.gen_range(30_000..60_000);
        let headers = if outbound {
            compose::udp_ipv4_ethernet_headers(client, server, ephemeral, port, len, sum)
        } else {
            compose::udp_ipv4_ethernet_headers(server, client, port, ephemeral, len, sum)
        };
        data[..compose::UDP_HEADERS_LEN].copy_from_slice(&headers);
        data
    }

    /// An HTTPS segment of `len` random bytes, built in one buffer. The
    /// ephemeral port, then the sequence and acknowledgment numbers, are
    /// drawn after the payload.
    fn tcp(&mut self, client: Ipv4Addr, server: Ipv4Addr, outbound: bool, len: usize) -> Vec<u8> {
        let (mut data, sum) = self.draw_payload(compose::TCP_HEADERS_LEN, len);
        let ephemeral = self.rng.gen_range(30_000..60_000);
        let seq = self.rng.gen();
        let ack = self.rng.gen();
        let flags = tcp::Flags {
            ack: true,
            psh: len > 0,
            ..Default::default()
        };
        let headers = if outbound {
            compose::tcp_ipv4_ethernet_headers(
                client, server, ephemeral, 443, seq, ack, flags, len, sum,
            )
        } else {
            compose::tcp_ipv4_ethernet_headers(
                server, client, 443, ephemeral, seq, ack, flags, len, sum,
            )
        };
        data[..compose::TCP_HEADERS_LEN].copy_from_slice(&headers);
        data
    }
}

impl Iterator for BackgroundGen {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.rate <= 0.0 {
            return None;
        }
        let intensity = diurnal_intensity(9 * 3_600 * SEC + self.now).max(0.2);
        let mean_gap = SEC as f64 / (self.rate * intensity);
        let gap = (-self.rng.gen::<f64>().max(1e-12).ln() * mean_gap) as Nanos;
        self.now += gap.max(1);
        if self.now >= self.end {
            return None;
        }
        let o = self.campus_net.octets();
        let client = Ipv4Addr::new(
            o[0],
            o[1],
            self.rng.gen_range(1..250),
            self.rng.gen_range(2..250),
        );
        const PUBLIC_FIRST_OCTETS: [u8; 8] = [13, 23, 31, 34, 104, 142, 151, 172];
        let server = Ipv4Addr::new(
            PUBLIC_FIRST_OCTETS[self.rng.gen_range(0..8)],
            self.rng.gen_range(1..250),
            self.rng.gen_range(1..250),
            self.rng.gen_range(2..250),
        );
        let outbound = self.rng.gen_bool(0.45);
        let data = match self.rng.gen_range(0..10) {
            // DNS.
            0 => {
                let len = self.rng.gen_range(30..90);
                self.udp(client, server, outbound, 53, len)
            }
            // QUIC-ish UDP 443.
            1 | 2 => {
                let len = self.rng.gen_range(100..1_300);
                self.udp(client, server, outbound, 443, len)
            }
            // HTTPS TCP (the bulk).
            _ => {
                let len = self.rng.gen_range(0..1_400);
                self.tcp(client, server, outbound, len)
            }
        };
        Some(Record::full(self.now, data))
    }
}

/// K-way time-ordered merge of meeting streams plus optional background.
///
/// Each source's own records come out in time order (a meeting pops its
/// event queue), and of two records with one timestamp the one of the
/// earlier source comes first: the merge yields exactly what concatenating
/// the sources' records and stable-sorting them by timestamp would, while
/// holding one record per source.
pub struct CampusStream {
    sources: Vec<SourceState>,
    heap: BinaryHeap<std::cmp::Reverse<(Nanos, usize)>>,
}

enum SourceKind {
    Meeting(MeetingSim),
    Background(BackgroundGen),
}

struct SourceState {
    kind: SourceKind,
    buffered: Option<Record>,
}

impl SourceState {
    /// Replace the buffer with the next record, returning the old buffer.
    fn pull(&mut self) -> Option<Record> {
        let next = match &mut self.kind {
            SourceKind::Meeting(m) => m.next(),
            SourceKind::Background(b) => b.next(),
        };
        std::mem::replace(&mut self.buffered, next)
    }
}

impl CampusStream {
    /// The records of `meetings` — one border tap watching them all — in
    /// time order, generated as they are read.
    pub fn of_meetings(meetings: impl IntoIterator<Item = MeetingConfig>) -> CampusStream {
        CampusStream::new(meetings.into_iter().map(MeetingSim::new).collect(), None)
    }

    fn new(meetings: Vec<MeetingSim>, background: Option<BackgroundGen>) -> CampusStream {
        let mut sources: Vec<SourceState> = meetings
            .into_iter()
            .map(|m| SourceState {
                kind: SourceKind::Meeting(m),
                buffered: None,
            })
            .collect();
        if let Some(b) = background {
            sources.push(SourceState {
                kind: SourceKind::Background(b),
                buffered: None,
            });
        }
        let mut heap = BinaryHeap::new();
        for (i, s) in sources.iter_mut().enumerate() {
            s.pull(); // prime the buffer
            if let Some(r) = &s.buffered {
                heap.push(std::cmp::Reverse((r.ts_nanos, i)));
            }
        }
        CampusStream { sources, heap }
    }
}

impl Iterator for CampusStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let std::cmp::Reverse((_, i)) = self.heap.pop()?;
        let record = self.sources[i].pull();
        if let Some(r) = &self.sources[i].buffered {
            self.heap.push(std::cmp::Reverse((r.ts_nanos, i)));
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampusConfig {
        CampusConfig {
            duration: 600 * SEC, // 10 minutes
            scale: 1.0 / 3.0,
            start_hour: 10.0,
            background_ratio: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn scenario_generates_meetings_with_campus_participants() {
        let infra = Infrastructure::generate();
        let s = CampusScenario::generate(small_config(), &infra);
        assert!(!s.meetings.is_empty());
        for (cfg, t) in s.meetings.iter().zip(&s.truth) {
            assert!(cfg.participants.iter().any(|p| p.on_campus));
            assert_eq!(cfg.participants.len(), t.participants);
            assert!(t.end > t.start);
        }
    }

    #[test]
    fn stream_is_time_ordered() {
        let infra = Infrastructure::generate();
        let s = CampusScenario::generate(small_config(), &infra);
        let mut last = 0;
        let mut n = 0u64;
        for r in s.into_stream() {
            assert!(r.ts_nanos >= last, "out of order at {n}");
            last = r.ts_nanos;
            n += 1;
        }
        assert!(n > 1_000, "only {n} records");
    }

    #[test]
    fn hour_spike_visible_in_arrivals() {
        let infra = Infrastructure::generate();
        let cfg = CampusConfig {
            duration: 2 * 3_600 * SEC,
            scale: 0.25,
            ..small_config()
        };
        let s = CampusScenario::generate(cfg, &infra);
        let hour_start = s
            .truth
            .iter()
            .filter(|t| (t.start / (60 * SEC)) % 60 < 5)
            .count();
        let mid_hour = s
            .truth
            .iter()
            .filter(|t| {
                let m = (t.start / (60 * SEC)) % 60;
                (40..45).contains(&m)
            })
            .count();
        assert!(
            hour_start > mid_hour,
            "hour-start {hour_start} vs mid-hour {mid_hour}"
        );
    }

    #[test]
    fn background_traffic_is_non_zoom() {
        let infra = Infrastructure::generate();
        let mut cfg = small_config();
        cfg.duration = 30 * SEC;
        cfg.background_ratio = 3.0;
        let s = CampusScenario::generate(cfg, &infra);
        let mut zoomish = 0u64;
        let mut other = 0u64;
        for r in s.into_stream() {
            let d = zoom_wire::dissect::dissect(
                r.ts_nanos,
                &r.data,
                zoom_wire::pcap::LinkType::Ethernet,
                zoom_wire::dissect::P2pProbe::Off,
            );
            match d {
                Ok(d) if d.five_tuple.involves_port(8801) || d.is_stun() => zoomish += 1,
                _ => other += 1,
            }
        }
        assert!(other > zoomish / 2, "background {other} vs zoom {zoomish}");
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let total: u64 = (0..n).map(|_| u64::from(poisson(&mut rng, 2.5))).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn deterministic_for_seed() {
        let infra = Infrastructure::generate();
        let a: Vec<u64> = CampusScenario::generate(small_config(), &infra)
            .into_stream()
            .take(200)
            .map(|r| r.ts_nanos)
            .collect();
        let b: Vec<u64> = CampusScenario::generate(small_config(), &infra)
            .into_stream()
            .take(200)
            .map(|r| r.ts_nanos)
            .collect();
        assert_eq!(a, b);
    }
}

//! Event-driven simulation of a single Zoom meeting, as observed from a
//! campus border tap.
//!
//! The simulator reproduces the traffic structure the paper reverse-
//! engineered (§3, §4): per-media UDP flows to an SFU on port 8801 wrapped
//! in Zoom SFU + media encapsulations; P2P switchover for two-party calls
//! preceded by STUN exchanges with a zone controller (§4.1, Fig. 2);
//! RTCP sender reports at 1 Hz; FEC sub-streams sharing timestamps but not
//! sequence numbers; fixed 40-byte silent-audio packets; retransmissions
//! that reuse RTP sequence numbers after a ~100 ms + RTT timeout (§5.5);
//! and ~10 % non-media control packets (Table 2's undecoded remainder).
//!
//! The iterator yields exactly the packets a border monitor would record,
//! in capture-timestamp order. Ground-truth QoS (the "Zoom SDK feed") is
//! accumulated per participant for validation experiments.

use crate::codec::{
    packets_for, AudioSource, ScreenShareSource, VideoEncoder, VideoMode, AUDIO_PTIME,
    MAX_RTP_PAYLOAD,
};
use crate::path::{CongestionEvent, SfuPath};
use crate::qos::{QosLogger, QosSample};
use crate::rate::RateController;
use crate::time::{EventQueue, Nanos, MS, SEC, US};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;
use zoom_wire::checksum::Summer;
use zoom_wire::compose;
use zoom_wire::pcap::Record;
use zoom_wire::rtcp;
use zoom_wire::rtp;
use zoom_wire::stun;
use zoom_wire::tcp;
use zoom_wire::zoom::{
    self, MediaEncapRepr, MediaType, SfuEncapRepr, DIR_FROM_SFU, DIR_TO_SFU, SFU_TYPE_MEDIA,
    ZOOM_SFU_PORT,
};

/// Video source parameters for a participant.
#[derive(Debug, Clone, Copy)]
pub struct VideoParams {
    /// Full-mode target bit rate, bits/s.
    pub bitrate: f64,
    /// Full-mode frame rate (Zoom aims at ~28).
    pub fps: f64,
    /// Content motion factor (≥ 1 = high motion).
    pub motion: f64,
    /// Start pinned in reduced (thumbnail) mode.
    pub reduced: bool,
}

impl Default for VideoParams {
    fn default() -> Self {
        VideoParams {
            bitrate: 600_000.0,
            fps: 28.0,
            motion: 1.0,
            reduced: false,
        }
    }
}

/// Audio source parameters.
#[derive(Debug, Clone, Copy)]
pub struct AudioParams {
    /// Mobile app (PT 113 exclusively).
    pub mobile: bool,
    /// Fraction of time talking.
    pub talk_fraction: f64,
}

impl Default for AudioParams {
    fn default() -> Self {
        AudioParams {
            mobile: false,
            talk_fraction: 0.35,
        }
    }
}

/// One meeting participant.
#[derive(Debug, Clone)]
pub struct ParticipantConfig {
    pub ip: Ipv4Addr,
    /// On-campus participants' traffic crosses the monitor.
    pub on_campus: bool,
    /// Absolute join/leave times.
    pub join_at: Nanos,
    pub leave_at: Nanos,
    /// `None` = camera off.
    pub video: Option<VideoParams>,
    /// `None` = fully muted (a "passive participant" when video is also
    /// off — §4.3.1's grouping challenge).
    pub audio: Option<AudioParams>,
    /// Screen-sharing window (absolute times), if any.
    pub screen_share: Option<(Nanos, Nanos)>,
    /// One-way WAN delay to the SFU, milliseconds.
    pub wan_ms: u64,
    /// Access-link jitter standard deviation, microseconds (applied to
    /// the client's side of the tap — see `SfuPath::for_participant`).
    pub wan_jitter_us: u64,
    /// Steady-state WAN loss probability.
    pub wan_loss: f64,
    /// Congestion bursts on this participant's WAN legs.
    pub congestion: Vec<CongestionEvent>,
}

impl ParticipantConfig {
    /// A standard on-campus participant with camera and microphone.
    pub fn standard(ip: Ipv4Addr, join_at: Nanos, leave_at: Nanos) -> ParticipantConfig {
        ParticipantConfig {
            ip,
            on_campus: true,
            join_at,
            leave_at,
            video: Some(VideoParams::default()),
            audio: Some(AudioParams::default()),
            screen_share: None,
            wan_ms: 22,
            wan_jitter_us: 2_000,
            wan_loss: 0.0015,
            congestion: Vec::new(),
        }
    }
}

/// Whole-meeting configuration.
#[derive(Debug, Clone)]
pub struct MeetingConfig {
    pub id: u32,
    pub sfu_ip: Ipv4Addr,
    /// Zone controller (STUN server) address.
    pub zc_ip: Ipv4Addr,
    pub participants: Vec<ParticipantConfig>,
    /// For exactly-two-party meetings: switch to P2P at this absolute
    /// time (the paper: "within tens of seconds" of the second join).
    pub p2p_switch_at: Option<Nanos>,
    /// Emit the TLS control connection (TCP 443) for each client.
    pub control_tcp: bool,
    /// Emit non-media control/keepalive packets (~10 % of packets).
    pub keepalives: bool,
    pub seed: u64,
}

impl MeetingConfig {
    /// SSRCs are unique within a meeting but deliberately *small and
    /// reused across meetings* (§4.2.3: "neither globally unique nor ...
    /// randomly sampled").
    fn ssrc_for(&self, participant: usize, media: usize) -> u32 {
        16 + (self.id % 8) + (participant as u32) * 4 + media as u32
    }
}

/// Per-(media, payload-type) sub-stream sequence state: FEC sub-streams
/// share timestamps with the main stream but use their own sequence space
/// (§4.2.3).
type SubStreamKey = (u8, u8);

const MEDIA_AUDIO: usize = 0;
const MEDIA_VIDEO: usize = 1;
const MEDIA_SCREEN: usize = 2;

/// A media packet, described abstractly so retransmissions can rebuild the
/// identical RTP content (same sequence number) later.
#[derive(Debug, Clone, Copy)]
struct PacketSpec {
    sender: usize,
    media: MediaType,
    payload_type: u8,
    marker: bool,
    rtp_seq: u16,
    rtp_ts: u32,
    ssrc: u32,
    payload_len: usize,
    frame_seq: Option<u16>,
    pkts_in_frame: Option<u8>,
    /// Total frame size, for ground-truth delivery accounting.
    frame_bytes: usize,
    /// Counts toward frame completion (FEC and audio do not).
    part_of_frame: bool,
    has_extension: bool,
    /// Which per-media flow this packet rides (RTCP accompanies its
    /// media stream's flow).
    flow_midx: usize,
}

/// A media section — media encapsulation, RTP header if any, payload —
/// and its one's-complement sum. Built once per sent packet and shared
/// between the uplink record and all forwarded copies, each of which sums
/// only its own headers in front of it.
struct MediaSection {
    bytes: Vec<u8>,
    sum: Summer,
}

impl MediaSection {
    /// The media encapsulation and RTP header, if any, in a buffer with
    /// room for `body_len` more bytes.
    fn headers(media: MediaEncapRepr, rtp: Option<rtp::Repr>, body_len: usize) -> Vec<u8> {
        let header_len = media.header_len() + rtp.map_or(0, |r| r.header_len());
        let mut bytes = Vec::with_capacity(header_len + body_len);
        bytes.resize(header_len, 0);
        let off = media.emit(&mut bytes);
        if let Some(rtp) = rtp {
            rtp.emit(&mut rtp::Packet::new_unchecked(&mut bytes[off..]));
        }
        bytes
    }

    /// The headers followed by `len` bytes of `rng`'s stream, drawn
    /// straight into the section and summed as they are drawn.
    fn random(
        media: MediaEncapRepr,
        rtp: Option<rtp::Repr>,
        len: usize,
        rng: &mut StdRng,
    ) -> MediaSection {
        let mut bytes = Self::headers(media, rtp, len);
        let mut sum = Summer::new();
        sum.add(&bytes);
        sum.extend_and_add(&mut bytes, len, || rng.next_u64());
        MediaSection { bytes, sum }
    }

    /// The headers followed by an RTCP sender report.
    fn report(media: MediaEncapRepr, sr: &rtcp::SenderReportRepr) -> MediaSection {
        let mut bytes = Self::headers(media, None, sr.buffer_len());
        let at = bytes.len();
        bytes.resize(at + sr.buffer_len(), 0);
        sr.emit(&mut bytes[at..]);
        let mut sum = Summer::new();
        sum.add(&bytes);
        MediaSection { bytes, sum }
    }
}

/// Interned media section, shared between the uplink packet and all
/// forwarded copies.
type MediaBytes = Arc<MediaSection>;

/// The 8-byte SFU encapsulation header.
fn sfu_header(encap_type: u8, sequence: u16, direction: u8) -> [u8; zoom::SFU_ENCAP_LEN] {
    let mut header = [0u8; zoom::SFU_ENCAP_LEN];
    SfuEncapRepr {
        encap_type,
        sequence,
        direction,
    }
    .emit(&mut zoom::SfuEncap::new_unchecked(&mut header[..]));
    header
}

/// One UDP record in a single buffer: the Ethernet/IPv4/UDP headers, the
/// SFU header on server-routed flows, then `section`. The section's
/// stored sum stands in for a pass over its bytes (it starts at an even
/// offset of the UDP payload, so the merge is exact).
fn udp_record(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    sport: u16,
    dport: u16,
    sfu: Option<[u8; zoom::SFU_ENCAP_LEN]>,
    section: &MediaSection,
) -> Record {
    let sfu = sfu.as_ref().map_or(&[][..], |h| &h[..]);
    let mut sum = Summer::new();
    sum.add(sfu);
    sum.merge(section.sum);
    let payload_len = sfu.len() + section.bytes.len();
    let mut data = Vec::with_capacity(compose::UDP_HEADERS_LEN + payload_len);
    data.extend_from_slice(&compose::udp_ipv4_ethernet_headers(
        src,
        dst,
        sport,
        dport,
        payload_len,
        sum,
    ));
    data.extend_from_slice(sfu);
    data.extend_from_slice(&section.bytes);
    Record::full(0, data)
}

/// Simulator events.
enum Ev {
    Join(usize),
    Leave(usize),
    VideoFrame(usize),
    AudioTick(usize),
    ScreenFrame(usize, u32, usize),
    ScheduleNextScreen(usize),
    Rtcp(usize),
    Keepalive(usize),
    TcpCtrl(usize, bool),
    StunExchange(usize, u8),
    P2pSwitch,
    QosTick(usize),
    SfuArrival {
        spec: PacketSpec,
        media_bytes: MediaBytes,
        sent_at: Nanos,
    },
    Retransmit {
        spec: PacketSpec,
        attempt: u8,
    },
    ForwardRetransmit {
        spec: PacketSpec,
        media_bytes: MediaBytes,
        to: usize,
        sent_at: Nanos,
        attempt: u8,
    },
    P2pArrival {
        spec: PacketSpec,
        to: usize,
        sent_at: Nanos,
    },
    Emit(Record),
}

#[derive(Debug)]
struct FrameAsm {
    expected: u8,
    seqs: Vec<u16>,
    bytes: usize,
    first_at: Nanos,
}

struct PState {
    cfg: ParticipantConfig,
    active: bool,
    path: SfuPath,
    /// Per-media client ports (server mode).
    ports: [u16; 3],
    /// The single flow port used after a P2P switch (and for the STUN
    /// exchange that precedes it — the correlation §4.1 exploits).
    p2p_port: u16,
    tcp_port: u16,
    video_enc: Option<VideoEncoder>,
    rate: RateController,
    audio_src: Option<AudioSource>,
    screen_src: Option<ScreenShareSource>,
    /// Last RTP sequence number per sub-stream: a few entries, scanned.
    rtp_seq: Vec<(SubStreamKey, u16)>,
    media_seq: [u16; 3],
    other_seq: u16,
    frame_seq: u16,
    ssrc: [u32; 3],
    sfu_seq: u16,
    /// Cumulative (packets, octets) per media stream for RTCP SRs.
    sr_counts: [(u32, u32); 3],
    tcp_seq: u32,
    tcp_server_seq: u32,
    qos: QosLogger,
    /// Frames in reassembly keyed by (SSRC, RTP timestamp): a handful at a
    /// time (only frames that lost a packet for good outlive their last
    /// packet, by at most 5 s), so a scan beats hashing.
    frame_asm: Vec<((u32, u32), FrameAsm)>,
    jitter_truth: f64,
    last_transit: Option<i64>,
    screen_active: bool,
}

/// Transport mode of the meeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sfu,
    P2p,
}

/// Counters describing what the meeting generated.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeetingStats {
    pub packets_emitted: u64,
    pub bytes_emitted: u64,
    pub media_packets_sent: u64,
    pub retransmissions: u64,
    pub packets_lost_for_good: u64,
    pub stun_exchanges: u64,
}

/// The meeting simulator; iterate to obtain monitor-visible records.
pub struct MeetingSim {
    cfg: MeetingConfig,
    rng: StdRng,
    queue: EventQueue<Ev>,
    participants: Vec<PState>,
    mode: Mode,
    stats: MeetingStats,
    now: Nanos,
}

impl MeetingSim {
    /// Build the simulator and schedule the initial events.
    pub fn new(cfg: MeetingConfig) -> MeetingSim {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (u64::from(cfg.id) << 20));
        let mut queue = EventQueue::new();
        let mut participants = Vec::new();
        for (i, pc) in cfg.participants.iter().enumerate() {
            let mut path =
                SfuPath::for_participant(pc.wan_ms, pc.wan_loss, pc.wan_jitter_us, pc.on_campus);
            for ev in &pc.congestion {
                path.wan_up = path.wan_up.clone().with_congestion(*ev);
                path.wan_down = path.wan_down.clone().with_congestion(*ev);
            }
            let ports = [
                rng.gen_range(40_000..64_000),
                rng.gen_range(40_000..64_000),
                rng.gen_range(40_000..64_000),
            ];
            let video_enc = pc.video.map(|v| {
                let mut enc = VideoEncoder::new(v.bitrate, v.fps, v.motion, rng.gen::<u32>());
                if v.reduced {
                    enc.set_mode(VideoMode::Reduced);
                }
                enc
            });
            let mut rate = RateController::new();
            if pc.video.map(|v| v.reduced).unwrap_or(false) {
                rate.pin_reduced(true);
            }
            let audio_src = pc
                .audio
                .map(|a| AudioSource::new(a.mobile, a.talk_fraction, rng.gen::<u32>()));
            let screen_src = pc
                .screen_share
                .map(|_| ScreenShareSource::new(rng.gen::<u32>()));
            participants.push(PState {
                cfg: pc.clone(),
                active: false,
                path,
                ports,
                p2p_port: rng.gen_range(40_000..64_000),
                tcp_port: rng.gen_range(40_000..64_000),
                video_enc,
                rate,
                audio_src,
                screen_src,
                rtp_seq: Vec::new(),
                media_seq: [0; 3],
                other_seq: 0,
                frame_seq: 0,
                ssrc: [
                    cfg.ssrc_for(i, MEDIA_AUDIO),
                    cfg.ssrc_for(i, MEDIA_VIDEO),
                    cfg.ssrc_for(i, MEDIA_SCREEN),
                ],
                sfu_seq: 0,
                sr_counts: [(0, 0); 3],
                tcp_seq: rng.gen::<u32>() / 2,
                tcp_server_seq: rng.gen::<u32>() / 2,
                qos: QosLogger::new(),
                frame_asm: Vec::new(),
                jitter_truth: 0.0,
                last_transit: None,
                screen_active: false,
            });
            // A participant due to leave before it joins (a meeting cut
            // shorter than its arrival) never joins: its join would
            // follow its leave and start media that nothing stops.
            if pc.join_at <= pc.leave_at {
                queue.push(pc.join_at, Ev::Join(i));
                queue.push(pc.leave_at, Ev::Leave(i));
            }
        }
        if let Some(at) = cfg.p2p_switch_at {
            if cfg.participants.len() == 2 {
                // STUN exchanges precede the switch (Fig. 2).
                for i in 0..2 {
                    for round in 0..2u8 {
                        queue.push(
                            at.saturating_sub(2 * SEC) + u64::from(round) * 300 * MS,
                            Ev::StunExchange(i, round),
                        );
                    }
                }
                queue.push(at, Ev::P2pSwitch);
            }
        }
        MeetingSim {
            cfg,
            rng,
            queue,
            participants,
            mode: Mode::Sfu,
            stats: MeetingStats::default(),
            now: 0,
        }
    }

    /// Counters (final after exhaustion).
    pub fn stats(&self) -> MeetingStats {
        self.stats
    }

    /// Ground-truth QoS per participant; call after exhausting the
    /// iterator.
    pub fn ground_truth(self) -> Vec<Vec<QosSample>> {
        let end = self.now;
        self.participants
            .into_iter()
            .map(|p| p.qos.finish(end))
            .collect()
    }

    /// Drain the whole meeting through `sink`, returning stats and ground
    /// truth.
    pub fn run(mut self, sink: &mut dyn FnMut(Record)) -> (MeetingStats, Vec<Vec<QosSample>>) {
        for record in &mut self {
            sink(record);
        }
        let stats = self.stats;
        (stats, self.ground_truth())
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: Nanos, ev: Ev) -> Option<Record> {
        self.now = now;
        match ev {
            Ev::Emit(r) => {
                self.stats.packets_emitted += 1;
                self.stats.bytes_emitted += r.data.len() as u64;
                return Some(r);
            }
            Ev::Join(i) => self.on_join(now, i),
            Ev::Leave(i) => self.participants[i].active = false,
            Ev::VideoFrame(i) => self.on_video_frame(now, i),
            Ev::AudioTick(i) => self.on_audio_tick(now, i),
            Ev::ScheduleNextScreen(i) => self.on_schedule_screen(now, i),
            Ev::ScreenFrame(i, ts, size) => self.on_screen_frame(now, i, ts, size),
            Ev::Rtcp(i) => self.on_rtcp(now, i),
            Ev::Keepalive(i) => self.on_keepalive(now, i),
            Ev::TcpCtrl(i, client_first) => self.on_tcp_ctrl(now, i, client_first),
            Ev::StunExchange(i, round) => self.on_stun(now, i, round),
            Ev::P2pSwitch => self.mode = Mode::P2p,
            Ev::QosTick(i) => self.on_qos_tick(now, i),
            Ev::SfuArrival {
                spec,
                media_bytes,
                sent_at,
            } => self.on_sfu_arrival(now, spec, media_bytes, sent_at),
            Ev::Retransmit { spec, attempt } => {
                if self.alive(spec.sender) {
                    self.stats.retransmissions += 1;
                    self.send_media(now, spec, attempt);
                }
            }
            Ev::ForwardRetransmit {
                spec,
                media_bytes,
                to,
                sent_at,
                attempt,
            } => {
                if self.alive(to) {
                    self.stats.retransmissions += 1;
                    self.forward_copy(now, spec, media_bytes, to, sent_at, attempt);
                }
            }
            Ev::P2pArrival { spec, to, sent_at } => {
                self.deliver(now, spec, to, sent_at);
            }
        }
        None
    }

    fn on_join(&mut self, now: Nanos, i: usize) {
        let p = &mut self.participants[i];
        p.active = true;
        if p.video_enc.is_some() {
            self.queue.push(now + 30 * MS, Ev::VideoFrame(i));
        }
        if p.audio_src.is_some() {
            self.queue.push(now + 15 * MS, Ev::AudioTick(i));
        }
        if let Some((start, _)) = p.cfg.screen_share {
            self.queue.push(start.max(now), Ev::ScheduleNextScreen(i));
        }
        self.queue.push(now + SEC, Ev::Rtcp(i));
        self.queue.push(now + 500 * MS, Ev::QosTick(i));
        if self.cfg.keepalives {
            self.queue.push(now + 40 * MS, Ev::Keepalive(i));
        }
        if self.cfg.control_tcp {
            self.queue.push(now + 100 * MS, Ev::TcpCtrl(i, true));
        }
    }

    fn alive(&self, i: usize) -> bool {
        self.participants[i].active
    }

    fn next_rtp_seq(&mut self, i: usize, media: u8, pt: u8) -> u16 {
        let seqs = &mut self.participants[i].rtp_seq;
        let at = match seqs.iter().position(|(key, _)| *key == (media, pt)) {
            Some(at) => at,
            None => {
                seqs.push(((media, pt), 0));
                seqs.len() - 1
            }
        };
        let seq = &mut seqs[at].1;
        *seq = seq.wrapping_add(1);
        *seq
    }

    // -------------------------- media sources --------------------------

    fn on_video_frame(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        let (interval, frame) = {
            let p = &mut self.participants[i];
            let enc = p.video_enc.as_mut().expect("video event without encoder");
            p.rate.control(now, enc);
            let interval = enc.frame_interval(&mut self.rng);
            let frame = enc.next_frame(interval, &mut self.rng);
            (interval, frame)
        };
        self.queue.push(now + interval, Ev::VideoFrame(i));

        let npkts = packets_for(frame.size);
        let frame_seq = {
            let p = &mut self.participants[i];
            p.frame_seq = p.frame_seq.wrapping_add(1);
            p.frame_seq
        };
        let ssrc = self.participants[i].ssrc[MEDIA_VIDEO];
        let fec_p = self.participants[i]
            .video_enc
            .as_ref()
            .map(|e| e.fec_probability())
            .unwrap_or(0.0);
        let mut remaining = frame.size;
        for k in 0..npkts {
            let payload_len = remaining.min(MAX_RTP_PAYLOAD);
            remaining -= payload_len;
            let rtp_seq = self.next_rtp_seq(i, MEDIA_VIDEO as u8, 98);
            let spec = PacketSpec {
                sender: i,
                media: MediaType::Video,
                payload_type: 98,
                marker: k == npkts - 1,
                rtp_seq,
                rtp_ts: frame.rtp_timestamp,
                ssrc,
                payload_len,
                frame_seq: Some(frame_seq),
                pkts_in_frame: Some(npkts.min(255) as u8),
                frame_bytes: frame.size,
                part_of_frame: true,
                has_extension: true,
                flow_midx: MEDIA_VIDEO,
            };
            self.send_media(now + k as u64 * 250 * US, spec, 0);
            // FEC sub-stream: same timestamp, own sequence space.
            if self.rng.gen_bool(fec_p) {
                let fec_seq = self.next_rtp_seq(i, MEDIA_VIDEO as u8, 110);
                let fec = PacketSpec {
                    payload_type: 110,
                    marker: false,
                    rtp_seq: fec_seq,
                    payload_len: payload_len.min(900),
                    part_of_frame: false,
                    ..spec
                };
                self.send_media(now + k as u64 * 250 * US + 80 * US, fec, 0);
            }
        }
    }

    fn on_audio_tick(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        self.queue.push(now + AUDIO_PTIME, Ev::AudioTick(i));
        let Some(pkt) = ({
            let p = &mut self.participants[i];
            let src = p.audio_src.as_mut().expect("audio event without source");
            src.next_packet(&mut self.rng)
        }) else {
            return; // suppressed silence interval
        };
        let ssrc = self.participants[i].ssrc[MEDIA_AUDIO];
        let rtp_seq = self.next_rtp_seq(i, MEDIA_AUDIO as u8, pkt.payload_type);
        let spec = PacketSpec {
            sender: i,
            media: MediaType::Audio,
            payload_type: pkt.payload_type,
            marker: false,
            rtp_seq,
            rtp_ts: pkt.rtp_timestamp,
            ssrc,
            payload_len: pkt.payload_len,
            frame_seq: None,
            pkts_in_frame: None,
            frame_bytes: pkt.payload_len,
            part_of_frame: false,
            has_extension: false,
            flow_midx: MEDIA_AUDIO,
        };
        self.send_media(now, spec, 0);
        if pkt.with_fec {
            let fec_seq = self.next_rtp_seq(i, MEDIA_AUDIO as u8, 110);
            let fec = PacketSpec {
                payload_type: 110,
                rtp_seq: fec_seq,
                payload_len: pkt.payload_len.min(80),
                ..spec
            };
            self.send_media(now + 100 * US, fec, 0);
        }
    }

    fn on_schedule_screen(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        let Some((start, end)) = self.participants[i].cfg.screen_share else {
            return;
        };
        if now < start || now >= end {
            self.participants[i].screen_active = false;
            return;
        }
        self.participants[i].screen_active = true;
        let (gap, frame) = {
            let p = &mut self.participants[i];
            let src = p.screen_src.as_mut().expect("screen event without source");
            src.next_frame(&mut self.rng)
        };
        let at = now + gap;
        if at < end {
            self.queue
                .push(at, Ev::ScreenFrame(i, frame.rtp_timestamp, frame.size));
            self.queue.push(at, Ev::ScheduleNextScreen(i));
        } else {
            self.participants[i].screen_active = false;
        }
    }

    fn on_screen_frame(&mut self, now: Nanos, i: usize, rtp_ts: u32, size: usize) {
        if !self.alive(i) {
            return;
        }
        let npkts = packets_for(size);
        let ssrc = self.participants[i].ssrc[MEDIA_SCREEN];
        let mut remaining = size;
        for k in 0..npkts {
            let payload_len = remaining.min(MAX_RTP_PAYLOAD);
            remaining -= payload_len;
            let rtp_seq = self.next_rtp_seq(i, MEDIA_SCREEN as u8, 99);
            let spec = PacketSpec {
                sender: i,
                media: MediaType::ScreenShare,
                payload_type: 99,
                marker: k == npkts - 1,
                rtp_seq,
                rtp_ts,
                ssrc,
                payload_len,
                frame_seq: None,
                pkts_in_frame: None,
                frame_bytes: size,
                part_of_frame: true,
                has_extension: false,
                flow_midx: MEDIA_SCREEN,
            };
            self.send_media(now + k as u64 * 250 * US, spec, 0);
        }
    }

    fn on_rtcp(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        self.queue.push(now + SEC, Ev::Rtcp(i));
        let medias: Vec<usize> = {
            let p = &self.participants[i];
            let mut m = Vec::new();
            if p.audio_src.is_some() {
                m.push(MEDIA_AUDIO);
            }
            if p.video_enc.is_some() {
                m.push(MEDIA_VIDEO);
            }
            if p.screen_active {
                m.push(MEDIA_SCREEN);
            }
            m
        };
        // One SR per active media stream; Zoom sends SR alone or with an
        // empty SDES — Table 2's 33/34 split (0.27 % vs 0.89 %).
        for media in medias {
            let with_sdes = self.rng.gen_bool(0.75);
            let (pkts, octets) = self.participants[i].sr_counts[media];
            let ssrc = self.participants[i].ssrc[media];
            let sr = rtcp::SenderReportRepr {
                ssrc,
                info: rtcp::SenderInfo {
                    ntp_timestamp: ((now / SEC) << 32) | (now % SEC),
                    rtp_timestamp: (now / MS) as u32,
                    packet_count: pkts,
                    octet_count: octets,
                },
                with_sdes,
            };
            let media_type = if with_sdes {
                MediaType::RtcpSrSdes
            } else {
                MediaType::RtcpSr
            };
            let spec = PacketSpec {
                sender: i,
                media: media_type,
                payload_type: 0,
                marker: false,
                rtp_seq: 0,
                rtp_ts: 0,
                ssrc,
                payload_len: sr.buffer_len(),
                frame_seq: None,
                pkts_in_frame: None,
                frame_bytes: 0,
                part_of_frame: false,
                has_extension: false,
                flow_midx: media,
            };
            self.send_rtcp(now, spec, &sr, media);
        }
    }

    fn on_keepalive(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        let jitter_ms = self.rng.gen_range(0..30);
        self.queue
            .push(now + 65 * MS + jitter_ms * MS, Ev::Keepalive(i));
        let seq = {
            let p = &mut self.participants[i];
            p.other_seq = p.other_seq.wrapping_add(1);
            p.other_seq
        };
        match self.mode {
            Mode::Sfu => self.keepalive_sfu(now, i, seq),
            Mode::P2p => self.keepalive_p2p(now, i, seq),
        }
    }

    /// Non-media control packet body: Zoom media encapsulation with an
    /// unknown type (we use 30) carrying a sequence number, sometimes
    /// under a non-0x05 SFU encapsulation type.
    fn control_section(&mut self, now: Nanos, seq: u16) -> MediaSection {
        let body_len = self.rng.gen_range(120..1_000);
        MediaSection::random(
            MediaEncapRepr {
                media_type: MediaType::Other(30),
                sequence: seq,
                timestamp: (now / MS) as u32,
                frame_sequence: None,
                packets_in_frame: None,
            },
            None,
            body_len,
            &mut self.rng,
        )
    }

    fn keepalive_sfu(&mut self, now: Nanos, i: usize, seq: u16) {
        if !self.participants[i].cfg.on_campus {
            return; // invisible at the monitor; no analysis impact
        }
        let sfu_type = if self.rng.gen_bool(0.16) {
            0x02
        } else {
            SFU_TYPE_MEDIA
        };
        let body = self.control_section(now, seq);
        let (src, sport, dst, dport) = self.flow_for(i, MEDIA_AUDIO);
        let sfu_seq = self.next_sfu_seq(i);
        let d1 = {
            let p = &mut self.participants[i];
            p.path.campus_up.traverse(now, &mut self.rng)
        };
        if let Some(d1) = d1 {
            let sfu = sfu_header(sfu_type, sfu_seq, DIR_TO_SFU);
            let up = udp_record(src, dst, sport, dport, Some(sfu), &body);
            self.queue.push(now + d1, Ev::Emit(up));
        }
        let d2 = {
            let p = &mut self.participants[i];
            p.path.wan_down.traverse(now, &mut self.rng)
        };
        if let Some(d2) = d2 {
            let sfu = sfu_header(sfu_type, sfu_seq, DIR_FROM_SFU);
            let down = udp_record(dst, src, dport, sport, Some(sfu), &body);
            self.queue.push(now + d2, Ev::Emit(down));
        }
    }

    fn keepalive_p2p(&mut self, now: Nanos, i: usize, seq: u16) {
        let j = 1 - i;
        let crosses_tap = self.participants[i].cfg.on_campus != self.participants[j].cfg.on_campus;
        if !crosses_tap {
            return;
        }
        let body = self.control_section(now, seq);
        let (src, sport, dst, dport) = self.flow_for(i, 0);
        let d = {
            let p = &mut self.participants[i];
            if p.cfg.on_campus {
                p.path.campus_up.traverse(now, &mut self.rng)
            } else {
                p.path.wan_up.traverse(now, &mut self.rng)
            }
        };
        if let Some(d) = d {
            let rec = udp_record(src, dst, sport, dport, None, &body);
            self.queue.push(now + d, Ev::Emit(rec));
        }
    }

    fn on_tcp_ctrl(&mut self, now: Nanos, i: usize, client_first: bool) {
        if !self.alive(i) {
            return;
        }
        let jitter_ms = self.rng.gen_range(0..500);
        self.queue.push(
            now + 600 * MS + jitter_ms * MS,
            Ev::TcpCtrl(i, !client_first),
        );
        if !self.participants[i].cfg.on_campus {
            return;
        }
        let payload_len = self.rng.gen_range(80..400usize);
        let client_ip = self.participants[i].cfg.ip;
        let server_ip = self.cfg.sfu_ip;
        let tcp_port = self.participants[i].tcp_port;
        let (cseq, sseq) = {
            let p = &mut self.participants[i];
            let c = p.tcp_seq;
            let s = p.tcp_server_seq;
            if client_first {
                p.tcp_seq = p.tcp_seq.wrapping_add(payload_len as u32);
            } else {
                p.tcp_server_seq = p.tcp_server_seq.wrapping_add(payload_len as u32);
            }
            (c, s)
        };
        let mut payload = vec![0u8; payload_len];
        self.rng.fill(&mut payload[..]);
        let flags = tcp::Flags {
            ack: true,
            psh: true,
            ..Default::default()
        };
        let ack_flags = tcp::Flags {
            ack: true,
            ..Default::default()
        };
        if client_first {
            let data = compose::tcp_ipv4_ethernet(
                client_ip, server_ip, tcp_port, 443, cseq, sseq, flags, &payload,
            );
            let ack = compose::tcp_ipv4_ethernet(
                server_ip,
                client_ip,
                443,
                tcp_port,
                sseq,
                cseq.wrapping_add(payload_len as u32),
                ack_flags,
                &[],
            );
            let d1 = {
                let p = &mut self.participants[i];
                p.path.campus_up.traverse(now, &mut self.rng)
            };
            if let Some(d1) = d1 {
                self.queue.push(now + d1, Ev::Emit(Record::full(0, data)));
                let d2 = {
                    let p = &mut self.participants[i];
                    p.path.wan_up.traverse(now + d1, &mut self.rng)
                };
                if let Some(d2) = d2 {
                    let t_srv = now + d1 + d2 + self.participants[i].path.sfu_processing;
                    let d3 = {
                        let p = &mut self.participants[i];
                        p.path.wan_down.traverse(t_srv, &mut self.rng)
                    };
                    if let Some(d3) = d3 {
                        self.queue.push(t_srv + d3, Ev::Emit(Record::full(0, ack)));
                    }
                }
            }
        } else {
            let data = compose::tcp_ipv4_ethernet(
                server_ip, client_ip, 443, tcp_port, sseq, cseq, flags, &payload,
            );
            let ack = compose::tcp_ipv4_ethernet(
                client_ip,
                server_ip,
                tcp_port,
                443,
                cseq,
                sseq.wrapping_add(payload_len as u32),
                ack_flags,
                &[],
            );
            let d1 = {
                let p = &mut self.participants[i];
                p.path.wan_down.traverse(now, &mut self.rng)
            };
            if let Some(d1) = d1 {
                self.queue.push(now + d1, Ev::Emit(Record::full(0, data)));
                let d2 = {
                    let p = &mut self.participants[i];
                    p.path.campus_down.traverse(now + d1, &mut self.rng)
                };
                if let Some(d2) = d2 {
                    let t_client = now + d1 + d2 + 200 * US;
                    let d3 = {
                        let p = &mut self.participants[i];
                        p.path.campus_up.traverse(t_client, &mut self.rng)
                    };
                    if let Some(d3) = d3 {
                        self.queue
                            .push(t_client + d3, Ev::Emit(Record::full(0, ack)));
                    }
                }
            }
        }
    }

    fn on_stun(&mut self, now: Nanos, i: usize, round: u8) {
        self.stats.stun_exchanges += 1;
        if !self.participants[i].cfg.on_campus {
            return; // the peer's STUN exchange doesn't cross our tap
        }
        let (client_ip, p2p_port) = {
            let p = &self.participants[i];
            (p.cfg.ip, p.p2p_port)
        };
        let mut tid = [0u8; 12];
        tid[0] = i as u8;
        tid[1] = round;
        tid[11] = self.cfg.id as u8;
        let request = stun::Repr {
            message_type: stun::MessageType::BindingRequest,
            transaction_id: tid,
            xor_mapped_address: None,
        };
        let mut req = vec![0u8; request.buffer_len()];
        request.emit(&mut req);
        let response = stun::Repr {
            message_type: stun::MessageType::BindingSuccess,
            transaction_id: tid,
            xor_mapped_address: Some(std::net::SocketAddr::new(
                std::net::IpAddr::V4(client_ip),
                p2p_port,
            )),
        };
        let mut resp = vec![0u8; response.buffer_len()];
        response.emit(&mut resp);

        let up =
            compose::udp_ipv4_ethernet(client_ip, self.cfg.zc_ip, p2p_port, stun::STUN_PORT, &req);
        let down =
            compose::udp_ipv4_ethernet(self.cfg.zc_ip, client_ip, stun::STUN_PORT, p2p_port, &resp);
        let d1 = {
            let p = &mut self.participants[i];
            p.path.campus_up.traverse(now, &mut self.rng)
        };
        if let Some(d1) = d1 {
            self.queue.push(now + d1, Ev::Emit(Record::full(0, up)));
            let d2 = {
                let p = &mut self.participants[i];
                p.path.wan_up.traverse(now + d1, &mut self.rng)
            };
            if let Some(d2) = d2 {
                let t_zc = now + d1 + d2 + MS;
                let d3 = {
                    let p = &mut self.participants[i];
                    p.path.wan_down.traverse(t_zc, &mut self.rng)
                };
                if let Some(d3) = d3 {
                    self.queue.push(t_zc + d3, Ev::Emit(Record::full(0, down)));
                }
            }
        }
    }

    fn on_qos_tick(&mut self, now: Nanos, i: usize) {
        if !self.alive(i) {
            return;
        }
        self.queue.push(now + SEC, Ev::QosTick(i));
        let p = &mut self.participants[i];
        let rtt =
            p.path.current_up_delay(now) + p.path.current_down_delay(now) + p.path.sfu_processing;
        let jitter = p.jitter_truth as Nanos;
        p.qos.network_truth(now, rtt, jitter);
        p.frame_asm
            .retain(|(_, asm)| now.saturating_sub(asm.first_at) < 5 * SEC);
    }

    // ----------------------- packet transmission -----------------------

    /// The uplink 5-tuple for participant `i`'s `media` flow.
    fn flow_for(&self, i: usize, media: usize) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        let p = &self.participants[i];
        match self.mode {
            Mode::Sfu => (p.cfg.ip, p.ports[media], self.cfg.sfu_ip, ZOOM_SFU_PORT),
            Mode::P2p => {
                let peer = &self.participants[1 - i];
                (p.cfg.ip, p.p2p_port, peer.cfg.ip, peer.p2p_port)
            }
        }
    }

    fn media_index(media: MediaType) -> usize {
        match media {
            MediaType::Audio => MEDIA_AUDIO,
            MediaType::Video => MEDIA_VIDEO,
            MediaType::ScreenShare => MEDIA_SCREEN,
            _ => MEDIA_AUDIO,
        }
    }

    /// Build the media-encapsulation section (media encap + RTP + payload)
    /// for `spec`, assigning a fresh media-level sequence number.
    fn build_media_bytes(&mut self, now: Nanos, spec: &PacketSpec) -> MediaBytes {
        let midx = Self::media_index(spec.media);
        let mseq = {
            let p = &mut self.participants[spec.sender];
            p.media_seq[midx] = p.media_seq[midx].wrapping_add(1);
            p.media_seq[midx]
        };
        Arc::new(MediaSection::random(
            MediaEncapRepr {
                media_type: spec.media,
                sequence: mseq,
                timestamp: (now / MS) as u32,
                frame_sequence: spec.frame_seq,
                packets_in_frame: spec.pkts_in_frame,
            },
            Some(rtp::Repr {
                marker: spec.marker,
                payload_type: spec.payload_type,
                sequence_number: spec.rtp_seq,
                timestamp: spec.rtp_ts,
                ssrc: spec.ssrc,
                csrc_count: 0,
                has_extension: spec.has_extension,
            }),
            spec.payload_len,
            &mut self.rng,
        ))
    }

    /// Participant `i`'s next SFU encapsulation sequence number.
    fn next_sfu_seq(&mut self, i: usize) -> u16 {
        let p = &mut self.participants[i];
        p.sfu_seq = p.sfu_seq.wrapping_add(1);
        p.sfu_seq
    }

    /// Send a media packet from its sender, attempt-aware for
    /// retransmission.
    fn send_media(&mut self, now: Nanos, spec: PacketSpec, attempt: u8) {
        if !self.alive(spec.sender) {
            return;
        }
        self.stats.media_packets_sent += 1;
        if spec.media.is_rtp_media() && attempt == 0 {
            let midx = Self::media_index(spec.media);
            let p = &mut self.participants[spec.sender];
            let c = &mut p.sr_counts[midx];
            c.0 = c.0.wrapping_add(1);
            c.1 = c.1.wrapping_add(spec.payload_len as u32);
        }
        let media_bytes = self.build_media_bytes(now, &spec);
        match self.mode {
            Mode::Sfu => self.send_media_sfu(now, spec, media_bytes, attempt),
            Mode::P2p => self.send_media_p2p(now, spec, media_bytes, attempt),
        }
    }

    fn send_rtcp(
        &mut self,
        now: Nanos,
        spec: PacketSpec,
        sr: &rtcp::SenderReportRepr,
        media: usize,
    ) {
        let mseq = {
            let p = &mut self.participants[spec.sender];
            p.media_seq[media] = p.media_seq[media].wrapping_add(1);
            p.media_seq[media]
        };
        let media_bytes = Arc::new(MediaSection::report(
            MediaEncapRepr {
                media_type: spec.media,
                sequence: mseq,
                timestamp: (now / MS) as u32,
                frame_sequence: None,
                packets_in_frame: None,
            },
            sr,
        ));
        match self.mode {
            Mode::Sfu => self.send_media_sfu(now, spec, media_bytes, 2), // no retx
            Mode::P2p => self.send_media_p2p(now, spec, media_bytes, 2),
        }
    }

    fn send_media_sfu(
        &mut self,
        now: Nanos,
        spec: PacketSpec,
        media_bytes: MediaBytes,
        attempt: u8,
    ) {
        let i = spec.sender;
        let on_campus = self.participants[i].cfg.on_campus;
        let (src, sport, dst, dport) = self.flow_for(i, spec.flow_midx);

        // Leg 1: client → tap (campus clients) / part of the WAN path
        // (off-campus clients, invisible here).
        let (tap_time, leg1_ok) = if on_campus {
            let d1 = {
                let p = &mut self.participants[i];
                p.path.campus_up.traverse(now, &mut self.rng)
            };
            match d1 {
                Some(d1) => (now + d1, true),
                None => (now, false),
            }
        } else {
            (now, true)
        };
        if on_campus && leg1_ok {
            let sfu = sfu_header(SFU_TYPE_MEDIA, self.next_sfu_seq(i), DIR_TO_SFU);
            let rec = udp_record(src, dst, sport, dport, Some(sfu), &media_bytes);
            self.queue.push(tap_time, Ev::Emit(rec));
        }
        if !leg1_ok {
            self.schedule_retransmit(now, spec, attempt);
            return;
        }
        // Leg 2: tap → SFU.
        let d2 = {
            let p = &mut self.participants[i];
            p.path.wan_up.traverse(tap_time, &mut self.rng)
        };
        match d2 {
            Some(d2) => {
                let proc = self.participants[i].path.sfu_processing;
                self.queue.push(
                    tap_time + d2 + proc,
                    Ev::SfuArrival {
                        spec,
                        media_bytes,
                        sent_at: now,
                    },
                );
            }
            None => self.schedule_retransmit(now, spec, attempt),
        }
    }

    fn schedule_retransmit(&mut self, now: Nanos, spec: PacketSpec, attempt: u8) {
        if attempt >= 2 || !spec.media.is_rtp_media() {
            // Lost for good (Zoom retransmits at most twice; RTCP and
            // control packets are never retransmitted).
            if spec.media.is_rtp_media() {
                self.stats.packets_lost_for_good += 1;
                for j in 0..self.participants.len() {
                    if j != spec.sender && self.alive(j) {
                        self.participants[j].qos.packet_lost(now);
                    }
                }
            }
            return;
        }
        let rto = self.participants[spec.sender].path.nominal_client_sfu_rtt() + 100 * MS;
        self.queue.push(
            now + rto,
            Ev::Retransmit {
                spec,
                attempt: attempt + 1,
            },
        );
    }

    fn on_sfu_arrival(
        &mut self,
        now: Nanos,
        spec: PacketSpec,
        media_bytes: MediaBytes,
        sent_at: Nanos,
    ) {
        for j in 0..self.participants.len() {
            if j == spec.sender || !self.alive(j) {
                continue;
            }
            self.forward_copy(now, spec, Arc::clone(&media_bytes), j, sent_at, 0);
        }
    }

    fn forward_copy(
        &mut self,
        t_sfu: Nanos,
        spec: PacketSpec,
        media_bytes: MediaBytes,
        j: usize,
        sent_at: Nanos,
        attempt: u8,
    ) {
        let on_campus = self.participants[j].cfg.on_campus;
        // Leg 3: SFU → tap (campus receivers) / SFU → client (off campus).
        let d3 = {
            let p = &mut self.participants[j];
            p.path.wan_down.traverse(t_sfu, &mut self.rng)
        };
        let Some(d3) = d3 else {
            self.schedule_forward_retransmit(t_sfu, spec, media_bytes, j, sent_at, attempt);
            return;
        };
        let t_tap = t_sfu + d3;
        if on_campus {
            let sfu = sfu_header(SFU_TYPE_MEDIA, self.next_sfu_seq(j), DIR_FROM_SFU);
            let dst_ip = self.participants[j].cfg.ip;
            let dport = self.participants[j].ports[spec.flow_midx];
            let rec = udp_record(
                self.cfg.sfu_ip,
                dst_ip,
                ZOOM_SFU_PORT,
                dport,
                Some(sfu),
                &media_bytes,
            );
            self.queue.push(t_tap, Ev::Emit(rec));
        }
        // Leg 4: tap → client (campus only; off-campus delivery is the
        // WAN leg above).
        let d4 = if on_campus {
            let p = &mut self.participants[j];
            p.path.campus_down.traverse(t_tap, &mut self.rng)
        } else {
            Some(0)
        };
        match d4 {
            Some(d4) => self.deliver(t_tap + d4, spec, j, sent_at),
            None => self.schedule_forward_retransmit(t_tap, spec, media_bytes, j, sent_at, attempt),
        }
    }

    fn schedule_forward_retransmit(
        &mut self,
        now: Nanos,
        spec: PacketSpec,
        media_bytes: MediaBytes,
        j: usize,
        sent_at: Nanos,
        attempt: u8,
    ) {
        if attempt >= 2 || !spec.media.is_rtp_media() {
            if spec.media.is_rtp_media() {
                self.stats.packets_lost_for_good += 1;
                self.participants[j].qos.packet_lost(now);
            }
            return;
        }
        let rto = self.participants[j].path.nominal_tap_sfu_rtt() + 100 * MS;
        self.queue.push(
            now + rto,
            Ev::ForwardRetransmit {
                spec,
                media_bytes,
                to: j,
                sent_at,
                attempt: attempt + 1,
            },
        );
    }

    fn send_media_p2p(
        &mut self,
        now: Nanos,
        spec: PacketSpec,
        media_bytes: MediaBytes,
        attempt: u8,
    ) {
        let i = spec.sender;
        let j = 1 - i; // P2P is strictly two-party
        let (src, sport, dst, dport) = self.flow_for(i, 0);
        let sender_campus = self.participants[i].cfg.on_campus;
        let receiver_campus = self.participants[j].cfg.on_campus;
        // The packet crosses the border tap only when exactly one endpoint
        // is on campus.
        let crosses_tap = sender_campus != receiver_campus;

        let d_a = {
            let p = &mut self.participants[i];
            if sender_campus {
                p.path.campus_up.traverse(now, &mut self.rng)
            } else {
                p.path.wan_up.traverse(now, &mut self.rng)
            }
        };
        let Some(d_a) = d_a else {
            self.schedule_retransmit(now, spec, attempt);
            return;
        };
        let t_tap = now + d_a;
        if crosses_tap {
            let rec = udp_record(src, dst, sport, dport, None, &media_bytes);
            self.queue.push(t_tap, Ev::Emit(rec));
        }
        let d_b = {
            let p = &mut self.participants[j];
            if receiver_campus {
                p.path.campus_down.traverse(t_tap, &mut self.rng)
            } else {
                p.path.wan_down.traverse(t_tap, &mut self.rng)
            }
        };
        match d_b {
            Some(d) => self.queue.push(
                t_tap + d,
                Ev::P2pArrival {
                    spec,
                    to: j,
                    sent_at: now,
                },
            ),
            None => self.schedule_retransmit(t_tap, spec, attempt),
        }
    }

    /// Receiver-side bookkeeping: true jitter (over transit times, RFC
    /// 3550 style) and frame assembly for delivered-fps ground truth.
    /// Also feeds the *sender's* rate controller with the end-to-end
    /// transit — modeling Zoom's receiver-feedback loop, which is what
    /// lets the sender adapt when the congestion sits on the receiver's
    /// side of the SFU. Only ONE designated receiver feeds the loop:
    /// mixing transits of different receivers (whose paths differ by tens
    /// of ms) would read as huge jitter and spuriously degrade everyone.
    fn deliver(&mut self, now: Nanos, spec: PacketSpec, j: usize, sent_at: Nanos) {
        let feedback_receiver = (spec.sender + 1) % self.participants.len();
        if spec.media == MediaType::Video && j == feedback_receiver {
            let sender = &mut self.participants[spec.sender];
            sender.rate.observe(sent_at, now);
        }
        let p = &mut self.participants[j];
        if spec.media == MediaType::Video {
            let transit = now as i64 - sent_at as i64;
            if let Some(prev) = p.last_transit {
                let d = (transit - prev).unsigned_abs() as f64;
                p.jitter_truth += (d - p.jitter_truth) / 16.0;
            }
            p.last_transit = Some(transit);
        }
        if spec.part_of_frame && spec.media == MediaType::Video {
            let key = (spec.ssrc, spec.rtp_ts);
            let expected = spec.pkts_in_frame.unwrap_or(1);
            let at = match p.frame_asm.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    p.frame_asm.push((
                        key,
                        FrameAsm {
                            expected,
                            seqs: Vec::new(),
                            bytes: spec.frame_bytes,
                            first_at: now,
                        },
                    ));
                    p.frame_asm.len() - 1
                }
            };
            let asm = &mut p.frame_asm[at].1;
            if !asm.seqs.contains(&spec.rtp_seq) {
                asm.seqs.push(spec.rtp_seq);
                if asm.seqs.len() >= usize::from(asm.expected) {
                    let bytes = asm.bytes;
                    p.frame_asm.swap_remove(at);
                    p.qos.frame_delivered(now, bytes);
                }
            }
        }
    }
}

impl Iterator for MeetingSim {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        while let Some((t, ev)) = self.queue.pop() {
            if let Some(mut record) = self.handle(t, ev) {
                record.ts_nanos = t;
                return Some(record);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use zoom_wire::dissect::{self, P2pProbe};
    use zoom_wire::pcap::LinkType;

    fn two_party(p2p_at: Option<Nanos>, duration: Nanos) -> MeetingConfig {
        MeetingConfig {
            id: 1,
            sfu_ip: Ipv4Addr::new(170, 114, 1, 10),
            zc_ip: Ipv4Addr::new(170, 114, 2, 20),
            participants: vec![
                ParticipantConfig::standard(Ipv4Addr::new(10, 8, 0, 5), 0, duration),
                ParticipantConfig {
                    on_campus: false,
                    ..ParticipantConfig::standard(Ipv4Addr::new(98, 23, 1, 7), 0, duration)
                },
            ],
            p2p_switch_at: p2p_at,
            control_tcp: true,
            keepalives: true,
            seed: 42,
        }
    }

    #[test]
    fn records_are_time_ordered_and_parse() {
        let sim = MeetingSim::new(two_party(None, 10 * SEC));
        let mut last = 0;
        let mut media = 0;
        let mut count = 0;
        for r in sim {
            assert!(r.ts_nanos >= last);
            last = r.ts_nanos;
            count += 1;
            let d = dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off)
                .expect("dissectable");
            if d.zoom().and_then(|z| z.rtp.as_ref()).is_some() {
                media += 1;
            }
        }
        assert!(count > 500, "only {count} records");
        assert!(media > 300, "only {media} media records");
    }

    #[test]
    fn both_directions_visible_for_campus_client() {
        let sim = MeetingSim::new(two_party(None, 10 * SEC));
        let mut up = 0;
        let mut down = 0;
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if d.five_tuple.dst_port == ZOOM_SFU_PORT {
                up += 1;
            } else if d.five_tuple.src_port == ZOOM_SFU_PORT {
                down += 1;
            }
        }
        assert!(up > 100, "up {up}");
        assert!(down > 100, "down {down}");
    }

    #[test]
    fn off_campus_address_never_at_monitor_in_sfu_mode() {
        let sim = MeetingSim::new(two_party(None, 10 * SEC));
        let peer: std::net::IpAddr = "98.23.1.7".parse().unwrap();
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            assert_ne!(d.five_tuple.src_ip, peer);
            assert_ne!(d.five_tuple.dst_ip, peer);
        }
    }

    #[test]
    fn p2p_switch_changes_framing_and_ports() {
        let sim = MeetingSim::new(two_party(Some(6 * SEC), 12 * SEC));
        let mut saw_stun = false;
        let mut saw_p2p_media = false;
        let mut p2p_flow_port = None;
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Auto).unwrap();
            if d.is_stun() {
                saw_stun = true;
            }
            if let dissect::App::Zoom(zoom::Framing::P2p, ref z) = d.app {
                if z.rtp.is_some() {
                    saw_p2p_media = true;
                    let peer: std::net::IpAddr = "98.23.1.7".parse().unwrap();
                    assert!(d.five_tuple.src_ip == peer || d.five_tuple.dst_ip == peer);
                    let campus_port = if d.five_tuple.src_ip == peer {
                        d.five_tuple.dst_port
                    } else {
                        d.five_tuple.src_port
                    };
                    p2p_flow_port.get_or_insert(campus_port);
                    assert_eq!(p2p_flow_port, Some(campus_port));
                }
            }
        }
        assert!(saw_stun, "no STUN exchange observed");
        assert!(saw_p2p_media, "no P2P media observed");
    }

    #[test]
    fn stun_port_matches_later_p2p_port() {
        // The detection invariant of §4.1: the campus-side port of the
        // STUN exchange equals the campus-side port of the P2P flow.
        let sim = MeetingSim::new(two_party(Some(6 * SEC), 12 * SEC));
        let mut stun_port = None;
        let mut p2p_ports = std::collections::HashSet::new();
        let campus: std::net::IpAddr = "10.8.0.5".parse().unwrap();
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Auto).unwrap();
            if d.is_stun() && d.five_tuple.src_ip == campus {
                stun_port = Some(d.five_tuple.src_port);
            }
            if let dissect::App::Zoom(zoom::Framing::P2p, _) = d.app {
                if d.five_tuple.src_ip == campus {
                    p2p_ports.insert(d.five_tuple.src_port);
                }
            }
        }
        let stun_port = stun_port.expect("stun seen");
        assert!(
            p2p_ports.contains(&stun_port),
            "{stun_port} vs {p2p_ports:?}"
        );
    }

    #[test]
    fn ssrc_set_is_small_and_distinct_per_media() {
        let sim = MeetingSim::new(two_party(None, 8 * SEC));
        let mut ssrcs = std::collections::HashSet::new();
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if let Some(rtp) = d.zoom().and_then(|z| z.rtp) {
                ssrcs.insert(rtp.ssrc);
                assert!(rtp.ssrc < 64, "Zoom-style small SSRC, got {}", rtp.ssrc);
            }
        }
        assert!(ssrcs.len() >= 3, "ssrcs: {ssrcs:?}");
    }

    #[test]
    fn loss_produces_duplicate_rtp_seqs() {
        let mut cfg = two_party(None, 20 * SEC);
        cfg.participants[0].wan_loss = 0.08;
        let sim = MeetingSim::new(cfg);
        let mut seen: HashMap<(u32, u8, u16), u32> = HashMap::new();
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if d.five_tuple.dst_port != ZOOM_SFU_PORT {
                continue;
            }
            if let Some(rtp) = d.zoom().and_then(|z| z.rtp) {
                *seen
                    .entry((rtp.ssrc, rtp.payload_type, rtp.sequence_number))
                    .or_default() += 1;
            }
        }
        let dups = seen.values().filter(|&&c| c > 1).count();
        assert!(dups > 3, "expected retransmission duplicates, got {dups}");
    }

    #[test]
    fn silent_audio_packets_have_fixed_payload() {
        let mut cfg = two_party(None, 15 * SEC);
        cfg.participants[0].audio = Some(AudioParams {
            mobile: false,
            talk_fraction: 0.05,
        });
        let sim = MeetingSim::new(cfg);
        let mut silent = 0;
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if let Some(z) = d.zoom() {
                if z.payload_kind() == Some(zoom::RtpPayloadKind::AudioSilent) {
                    assert_eq!(z.media_payload_len, zoom::SILENT_AUDIO_PAYLOAD_LEN);
                    silent += 1;
                }
            }
        }
        assert!(silent > 50, "only {silent} silent packets");
    }

    #[test]
    fn rtcp_sender_reports_flow_once_per_second() {
        let sim = MeetingSim::new(two_party(None, 10 * SEC));
        let mut srs = 0;
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if let Some(z) = d.zoom() {
                if !z.rtcp.is_empty() {
                    srs += 1;
                    let compound = z.rtcp_compound(d.payload).expect("compound bytes");
                    let items = rtcp::parse_compound(compound).unwrap();
                    assert!(matches!(items[0], rtcp::Item::SenderReport { .. }));
                    assert!(z.rtcp.sender_report().is_some());
                }
            }
        }
        assert!(srs >= 10, "only {srs} sender reports");
    }

    #[test]
    fn ground_truth_qos_collected() {
        let mut sim = MeetingSim::new(two_party(None, 12 * SEC));
        for _ in &mut sim {}
        let gt = sim.ground_truth();
        assert_eq!(gt.len(), 2);
        let fps_samples: Vec<f64> = gt[0].iter().map(|s| s.true_fps).collect();
        assert!(
            fps_samples.iter().sum::<f64>() / fps_samples.len() as f64 > 5.0,
            "fps {fps_samples:?}"
        );
        let latency = gt[0].last().unwrap().true_latency_ms;
        assert!(latency > 20.0 && latency < 120.0, "latency {latency}");
    }

    #[test]
    fn congestion_reduces_frame_rate() {
        let mut cfg = two_party(None, 90 * SEC);
        cfg.participants[1].congestion = vec![CongestionEvent {
            start: 30 * SEC,
            end: 80 * SEC,
            added_delay: 60 * MS,
            added_loss: 0.01,
        }];
        let mut sim = MeetingSim::new(cfg);
        for _ in &mut sim {}
        let gt = sim.ground_truth();
        let early: f64 = gt[0]
            .iter()
            .filter(|s| s.at > 5 * SEC && s.at < 28 * SEC)
            .map(|s| s.true_fps)
            .sum::<f64>()
            / 22.0;
        let late: f64 = gt[0]
            .iter()
            .filter(|s| s.at > 55 * SEC && s.at < 78 * SEC)
            .map(|s| s.true_fps)
            .sum::<f64>()
            / 22.0;
        assert!(
            late < early * 0.75,
            "expected rate adaptation: early {early:.1} late {late:.1}"
        );
    }

    #[test]
    fn passive_participant_emits_no_media_but_receives() {
        let mut cfg = two_party(None, 10 * SEC);
        cfg.participants[0].video = None;
        cfg.participants[0].audio = None;
        let sim = MeetingSim::new(cfg);
        let mut uplink_media = 0;
        let mut downlink_media = 0;
        for r in sim {
            let d =
                dissect::dissect(r.ts_nanos, &r.data, LinkType::Ethernet, P2pProbe::Off).unwrap();
            if d.zoom().and_then(|z| z.rtp.as_ref()).is_some() {
                if d.five_tuple.dst_port == ZOOM_SFU_PORT {
                    uplink_media += 1;
                } else {
                    downlink_media += 1;
                }
            }
        }
        assert_eq!(uplink_media, 0);
        assert!(downlink_media > 100);
    }

    #[test]
    fn a_meeting_shorter_than_an_arrival_ends() {
        // `multi_party` seats its last participants 5 s and 8 s in: cut at
        // 4 s, neither may join after its leave and stream forever.
        let duration = 4 * SEC;
        let sim = MeetingSim::new(crate::scenario::multi_party(3, duration));
        let mut records = 0u64;
        for r in sim {
            assert!(
                r.ts_nanos < duration + 10 * SEC,
                "record at {} ns",
                r.ts_nanos
            );
            records += 1;
        }
        assert!(records > 100, "{records} records");
    }
}

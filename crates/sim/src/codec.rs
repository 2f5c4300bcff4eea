//! Media source models: video, audio, and screen-share encoders.
//!
//! These reproduce the *traffic-visible* behaviour of Zoom's encoders as
//! characterized by the paper and prior work:
//!
//! * video at a 90 kHz RTP clock, normally ~26–28 fps, dropping to ~14 fps
//!   in thumbnail mode or under congestion (§6.2, Fig. 16b's two clusters);
//!   frames span multiple MTU-sized packets, keyframes are several times
//!   larger; ~9 % of video packets are FEC (PT 110, same timestamps,
//!   separate sequence space — §4.2.3);
//! * audio in fixed packetization intervals with a talk/silence process:
//!   speaking packets (PT 112) are larger and silent packets (PT 99) carry
//!   a fixed 40-byte payload; mobile clients use PT 113 throughout;
//! * screen sharing generates frames only when the picture changes —
//!   ~15 % of one-second bins contain no frame at all, half have ≤ 5 fps,
//!   sizes are mostly small with a long tail (Fig. 15b/c).

use crate::time::{Nanos, MS, SEC};
use rand::Rng;

/// RTP clock rate for Zoom video (90 kHz, confirmed by the paper §5.2).
pub const VIDEO_SAMPLING_RATE: u32 = 90_000;

/// RTP clock rate we use for audio (16 kHz wideband; the paper could not
/// confirm Zoom's audio clock and neither do we rely on it).
pub const AUDIO_SAMPLING_RATE: u32 = 16_000;

/// Maximum RTP payload bytes per media packet (≈ Ethernet MTU minus all
/// the encapsulation overhead Zoom adds).
pub const MAX_RTP_PAYLOAD: usize = 1_150;

/// A video or screen-share frame produced by an encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// RTP timestamp of the frame (90 kHz clock).
    pub rtp_timestamp: u32,
    /// Encoded size in bytes.
    pub size: usize,
}

/// Number of packets a frame of `size` bytes occupies.
pub fn packets_for(size: usize) -> usize {
    size.div_ceil(MAX_RTP_PAYLOAD).max(1)
}

/// Video encoder operating mode — the two clusters of Fig. 16b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoMode {
    /// ~26–28 fps, full bit rate.
    Full,
    /// ~13–15 fps, roughly half the bit rate (thumbnail view, or the rate
    /// controller's congestion response).
    Reduced,
}

/// The video encoder model.
#[derive(Debug, Clone)]
pub struct VideoEncoder {
    mode: VideoMode,
    /// Target bit rate in full mode, bits/second.
    full_bitrate: f64,
    /// Nominal full-mode frame rate (Zoom aims at ~28).
    full_fps: f64,
    /// Keyframe cadence in frames.
    keyframe_interval: u64,
    /// Motion factor in [0.3, 2.0]: high-motion content produces larger,
    /// more variable frames.
    motion: f64,
    frames_emitted: u64,
    rtp_timestamp: u32,
}

impl VideoEncoder {
    /// A new encoder with its RTP clock starting at `ts_init`.
    pub fn new(full_bitrate: f64, full_fps: f64, motion: f64, ts_init: u32) -> VideoEncoder {
        VideoEncoder {
            mode: VideoMode::Full,
            full_bitrate,
            full_fps,
            keyframe_interval: 300,
            motion,
            frames_emitted: 0,
            rtp_timestamp: ts_init,
        }
    }

    /// Switch mode (rate adaptation / display-layout changes).
    pub fn set_mode(&mut self, mode: VideoMode) {
        self.mode = mode;
    }

    /// Current mode.
    pub fn mode(&self) -> VideoMode {
        self.mode
    }

    /// Current nominal frame rate.
    pub fn fps(&self) -> f64 {
        match self.mode {
            VideoMode::Full => self.full_fps,
            VideoMode::Reduced => self.full_fps / 2.0,
        }
    }

    /// Current target bit rate.
    pub fn bitrate(&self) -> f64 {
        match self.mode {
            VideoMode::Full => self.full_bitrate,
            VideoMode::Reduced => self.full_bitrate * 0.45,
        }
    }

    /// Time between frames at the current rate, with ±4 % encoder timing
    /// wobble (Zoom's packetization interval is visibly variable, §5.4).
    pub fn frame_interval<R: Rng>(&self, rng: &mut R) -> Nanos {
        let nominal = SEC as f64 / self.fps();
        (nominal * rng.gen_range(0.96..1.04)) as Nanos
    }

    /// Produce the next frame, advancing the RTP clock by the true elapsed
    /// media time `elapsed` (the interval chosen by the caller).
    pub fn next_frame<R: Rng>(&mut self, elapsed: Nanos, rng: &mut R) -> Frame {
        let ticks = (elapsed as f64 * VIDEO_SAMPLING_RATE as f64 / SEC as f64).round() as u32;
        self.rtp_timestamp = self.rtp_timestamp.wrapping_add(ticks);
        let keyframe = self.frames_emitted.is_multiple_of(self.keyframe_interval);
        self.frames_emitted += 1;
        let mean = self.bitrate() / 8.0 / self.fps();
        let spread = rng.gen_range(0.55..1.6);
        let motion_term = 1.0 + (self.motion - 1.0) * rng.gen_range(0.0..1.0);
        let mut size = (mean * spread * motion_term) as usize;
        if keyframe {
            size = (mean * rng.gen_range(4.0..7.0)) as usize;
        }
        Frame {
            rtp_timestamp: self.rtp_timestamp,
            size: size.clamp(220, 60_000),
        }
    }

    /// Probability that a just-sent video packet is followed by an FEC
    /// packet — calibrated to Table 3 (PT 110 ≈ 9 % of video packets).
    pub fn fec_probability(&self) -> f64 {
        0.095
    }
}

/// What an audio source produced for one packetization interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AudioPacket {
    /// RTP payload type: 112 speaking, 99 silent, 113 unknown/mobile.
    pub payload_type: u8,
    /// RTP payload size in bytes.
    pub payload_len: usize,
    /// RTP timestamp (16 kHz clock).
    pub rtp_timestamp: u32,
    /// Whether an FEC copy (PT 110) accompanies this packet.
    pub with_fec: bool,
}

/// Talk/silence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VoiceState {
    Talking,
    Silent,
}

/// The audio source model: a two-state talk/silence process over fixed
/// 40 ms packetization intervals. During silence only every fourth
/// interval produces a packet — Zoom suppresses most comfort noise,
/// which is why silent-mode packets are rare in Table 3 (2.6 % vs
/// 22.0 % speaking).
#[derive(Debug, Clone)]
pub struct AudioSource {
    /// Mobile clients emit PT 113 exclusively (§4.2.3).
    pub mobile: bool,
    state: VoiceState,
    /// Remaining intervals in the current state.
    remaining: u32,
    rtp_timestamp: u32,
    /// Fraction of time spent talking (drives state durations).
    talk_fraction: f64,
    /// Intervals since the last emitted silent packet.
    silent_gap: u32,
}

/// Audio packetization interval (40 ms keeps the packet-share of audio in
/// line with Table 2/3).
pub const AUDIO_PTIME: Nanos = 40 * MS;

/// RTP timestamp ticks per audio packet.
pub const AUDIO_TICKS: u32 = (AUDIO_SAMPLING_RATE as u64 * AUDIO_PTIME / SEC) as u32;

impl AudioSource {
    /// New source; `talk_fraction` sets how often the participant speaks.
    pub fn new(mobile: bool, talk_fraction: f64, ts_init: u32) -> AudioSource {
        AudioSource {
            mobile,
            state: VoiceState::Silent,
            remaining: 0,
            rtp_timestamp: ts_init,
            talk_fraction: talk_fraction.clamp(0.02, 0.98),
            silent_gap: 0,
        }
    }

    /// Produce the packet for the next 40 ms interval; `None` when the
    /// interval is suppressed (silence, most of the time).
    pub fn next_packet<R: Rng>(&mut self, rng: &mut R) -> Option<AudioPacket> {
        if self.remaining == 0 {
            // Mean talk spurt ~4 s, silence scaled to hit talk_fraction;
            // geometric durations in units of intervals.
            let talk_intervals = 4.0 * SEC as f64 / AUDIO_PTIME as f64;
            let silent_intervals = talk_intervals * (1.0 - self.talk_fraction) / self.talk_fraction;
            let (next_state, mean) = match self.state {
                VoiceState::Talking => (VoiceState::Silent, silent_intervals),
                VoiceState::Silent => (VoiceState::Talking, talk_intervals),
            };
            self.state = next_state;
            self.remaining = (mean * rng.gen_range(0.4..1.8)).max(1.0) as u32;
        }
        self.remaining -= 1;
        self.rtp_timestamp = self.rtp_timestamp.wrapping_add(AUDIO_TICKS);
        let (payload_type, payload_len, with_fec) = if self.mobile {
            (113, rng.gen_range(45..140), false)
        } else {
            match self.state {
                VoiceState::Talking => {
                    self.silent_gap = 0;
                    (112, rng.gen_range(70..160), rng.gen_bool(0.05))
                }
                VoiceState::Silent => {
                    self.silent_gap += 1;
                    if !self.silent_gap.is_multiple_of(4) {
                        return None; // suppressed comfort-noise interval
                    }
                    (99, crate::SILENT_AUDIO_PAYLOAD_LEN, false)
                }
            }
        };
        Some(AudioPacket {
            payload_type,
            payload_len,
            rtp_timestamp: self.rtp_timestamp,
            with_fec,
        })
    }
}

/// The screen-share source: frames appear only on content change, plus
/// occasional "motion" episodes (video playback inside the share) that
/// run at near-video frame rates — Fig. 15b's even spread of screen-share
/// frame rates above 5 fps.
#[derive(Debug, Clone)]
pub struct ScreenShareSource {
    rtp_timestamp: u32,
    /// Frames remaining in the current motion episode.
    motion_frames: u32,
}

impl ScreenShareSource {
    /// New source with the given RTP clock start.
    pub fn new(ts_init: u32) -> ScreenShareSource {
        ScreenShareSource {
            rtp_timestamp: ts_init,
            motion_frames: 0,
        }
    }

    /// Sample the gap until the next frame and the frame itself. The gap
    /// distribution produces empty 1-second bins (idle slides), a large
    /// mass at ≤ 5 fps, and motion episodes reaching video-like rates;
    /// sizes are mostly small with a long slide-change tail.
    pub fn next_frame<R: Rng>(&mut self, rng: &mut R) -> (Nanos, Frame) {
        let (gap, size) = if self.motion_frames > 0 {
            self.motion_frames -= 1;
            (rng.gen_range(33 * MS..80 * MS), rng.gen_range(350..2_200))
        } else {
            let r: f64 = rng.gen();
            if r < 0.50 {
                // Small incremental updates (cursor, typing).
                (rng.gen_range(120 * MS..650 * MS), rng.gen_range(90..500))
            } else if r < 0.75 {
                // Moderate region updates.
                (
                    rng.gen_range(300 * MS..(3 * SEC / 2)),
                    rng.gen_range(400..3_000),
                )
            } else if r < 0.90 {
                // Slide change after a long idle gap: large frame.
                (
                    rng.gen_range(2 * SEC..9 * SEC),
                    rng.gen_range(3_000..70_000),
                )
            } else if r < 0.97 {
                // Another idle stretch.
                (
                    rng.gen_range(800 * MS..5 * SEC / 2),
                    rng.gen_range(150..900),
                )
            } else {
                // Enter a motion episode (embedded video / scrolling).
                self.motion_frames = rng.gen_range(60..300);
                (rng.gen_range(100 * MS..SEC), rng.gen_range(1_000..6_000))
            }
        };
        let ticks = (gap as f64 * VIDEO_SAMPLING_RATE as f64 / SEC as f64) as u32;
        self.rtp_timestamp = self.rtp_timestamp.wrapping_add(ticks);
        (
            gap,
            Frame {
                rtp_timestamp: self.rtp_timestamp,
                size,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packets_for_sizes() {
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(MAX_RTP_PAYLOAD), 1);
        assert_eq!(packets_for(MAX_RTP_PAYLOAD + 1), 2);
        assert_eq!(packets_for(10 * MAX_RTP_PAYLOAD), 10);
    }

    #[test]
    fn video_mode_halves_fps() {
        let mut enc = VideoEncoder::new(600_000.0, 28.0, 1.0, 0);
        assert_eq!(enc.fps(), 28.0);
        enc.set_mode(VideoMode::Reduced);
        assert_eq!(enc.fps(), 14.0);
        assert!(enc.bitrate() < 600_000.0 / 2.0 + 1.0);
    }

    #[test]
    fn video_frames_average_near_target() {
        let mut enc = VideoEncoder::new(600_000.0, 28.0, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut bytes = 0usize;
        let n = 2_000;
        for _ in 0..n {
            let interval = enc.frame_interval(&mut rng);
            bytes += enc.next_frame(interval, &mut rng).size;
        }
        let bps = bytes as f64 * 8.0 * 28.0 / n as f64;
        // Keyframes push the average above target; stay within 2x.
        assert!(bps > 400_000.0 && bps < 1_200_000.0, "got {bps}");
    }

    #[test]
    fn video_rtp_clock_advances_at_90khz() {
        let mut enc = VideoEncoder::new(600_000.0, 30.0, 1.0, 1000);
        let mut rng = StdRng::seed_from_u64(8);
        let f1 = enc.next_frame(SEC / 30, &mut rng);
        let f2 = enc.next_frame(SEC / 30, &mut rng);
        let delta = f2.rtp_timestamp.wrapping_sub(f1.rtp_timestamp);
        assert_eq!(delta, 3_000); // 90_000 / 30
    }

    #[test]
    fn keyframes_are_periodic_and_big() {
        let mut enc = VideoEncoder::new(600_000.0, 28.0, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let frames: Vec<Frame> = (0..301)
            .map(|_| enc.next_frame(SEC / 28, &mut rng))
            .collect();
        // Every 300th frame is a keyframe, several times a delta frame.
        let delta_avg: usize = frames[1..50].iter().map(|f| f.size).sum::<usize>() / 49;
        assert!(frames[0].size > 3 * delta_avg);
        assert!(frames[300].size > 3 * delta_avg);
        assert!(frames[1..300].iter().all(|f| f.size < 3 * delta_avg));
    }

    #[test]
    fn audio_alternates_talking_and_silence() {
        let mut src = AudioSource::new(false, 0.4, 0);
        let mut rng = StdRng::seed_from_u64(10);
        let pkts: Vec<AudioPacket> = (0..10_000)
            .filter_map(|_| src.next_packet(&mut rng))
            .collect();
        let talking = pkts.iter().filter(|p| p.payload_type == 112).count();
        let silent = pkts.iter().filter(|p| p.payload_type == 99).count();
        assert!(talking > 1_000 && silent > 300);
        // Suppression makes speaking packets dominate the emitted set
        // even at a 40 % talk fraction (Table 3's imbalance).
        assert!(talking > 2 * silent, "talking {talking} vs silent {silent}");
        // Every silent packet has the fixed 40-byte payload.
        assert!(pkts
            .iter()
            .filter(|p| p.payload_type == 99)
            .all(|p| p.payload_len == crate::SILENT_AUDIO_PAYLOAD_LEN));
    }

    #[test]
    fn mobile_audio_is_pt113_only() {
        let mut src = AudioSource::new(true, 0.5, 0);
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..1000).all(|_| src.next_packet(&mut rng).unwrap().payload_type == 113));
    }

    #[test]
    fn audio_rtp_clock_advances_uniformly() {
        // Use a mobile source (never suppressed) to check the clock.
        let mut src = AudioSource::new(true, 0.5, 100);
        let mut rng = StdRng::seed_from_u64(12);
        let a = src.next_packet(&mut rng).unwrap();
        let b = src.next_packet(&mut rng).unwrap();
        assert_eq!(b.rtp_timestamp.wrapping_sub(a.rtp_timestamp), AUDIO_TICKS);
    }

    #[test]
    fn screen_share_has_idle_gaps_and_long_tail() {
        let mut src = ScreenShareSource::new(0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut total_time = 0u64;
        let mut frames = Vec::new();
        while total_time < 600 * SEC {
            let (gap, f) = src.next_frame(&mut rng);
            total_time += gap;
            frames.push((total_time, f));
        }
        let fps = frames.len() as f64 / 600.0;
        assert!(fps > 0.5 && fps < 18.0, "screen fps {fps}");
        let small = frames.iter().filter(|(_, f)| f.size < 500).count();
        let huge = frames.iter().filter(|(_, f)| f.size > 10_000).count();
        assert!(
            small as f64 / frames.len() as f64 > 0.05,
            "small fraction too low"
        );
        assert!(huge > 0);
        // Empty 1-second bins exist.
        let mut bins = vec![0u32; 600];
        for (t, _) in &frames {
            let idx = (t / SEC) as usize;
            if idx < 600 {
                bins[idx] += 1;
            }
        }
        let empty = bins.iter().filter(|&&c| c == 0).count();
        assert!(empty > 20, "only {empty} empty bins");
        // Motion episodes reach video-like rates.
        let fast = bins.iter().filter(|&&c| c > 10).count();
        assert!(fast > 5, "no motion episodes: {fast}");
    }
}

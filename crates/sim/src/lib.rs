//! # zoom-sim — deterministic Zoom traffic simulator
//!
//! Synthesizes the packet streams a campus border monitor would record
//! during Zoom meetings, byte-exact in the wire format the paper
//! reverse-engineered, so that the `zoom-analysis` crate can be exercised
//! and validated without access to Zoom clients or a production network
//! (the substitution documented in `DESIGN.md`).
//!
//! Modules:
//! * [`time`] — nanosecond clock and the discrete-event queue
//! * [`path`] — network legs with delay/jitter/loss and congestion bursts
//! * [`codec`] — video/audio/screen-share source models
//! * [`rate`] — jitter-driven sender rate adaptation
//! * [`qos`] — ground-truth QoS feed (the "Zoom SDK" stand-in)
//! * [`meeting`] — one meeting, end to end, as seen at the border tap
//! * [`campus`] — a whole campus: many meetings plus background traffic
//! * [`infra`] — Zoom server infrastructure (Appendix B), synthetic
//! * [`scenario`] — canned experiment scenarios used by the bench harness
//!
//! Everything is seeded; no wall clocks, no global RNG.
//!
//! # Determinism contract
//!
//! A scenario and its seed fix every byte of the trace: the same inputs
//! give the same records — timestamps, lengths, headers, checksums and
//! the random payload bytes — on every run, build and machine. Nothing
//! may depend on hash-map iteration order, uninitialised memory or
//! addresses. `tests/trace_bytes.rs` pins the record count and an FNV-1a
//! digest over every record for six short seeded scenarios, so a change
//! to how records are built that moves any byte fails there; a change
//! that means to move them updates those constants and says why.

#![forbid(unsafe_code)]

pub mod campus;
pub mod codec;
pub mod infra;
pub mod meeting;
pub mod path;
pub mod qos;
pub mod rate;
pub mod scenario;
pub mod time;
pub mod webrtc;

/// Fixed RTP payload size of silent-audio packets (paper §4.2.3);
/// re-exported from `zoom-wire` for the codec model.
pub use zoom_wire::zoom::SILENT_AUDIO_PAYLOAD_LEN;

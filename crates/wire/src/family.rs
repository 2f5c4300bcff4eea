//! Protocol families: which conferencing system a UDP payload belongs
//! to.
//!
//! The paper's estimators (bitrate, fps, jitter, loss, RTT) are
//! RTP-generic; only the encapsulation dissection is Zoom-specific. A
//! family is that specific part:
//!
//! * [`FamilyId`] names a family and provides the stable `family=` label
//!   every metric and report row uses;
//! * [`FamilySelect`] is the user-facing `--family auto|zoom|webrtc`
//!   switch, mapping to the dissector [`Probe`] configuration;
//! * `claim_zoom` (ZME/SFU, server and P2P framings) and `claim_webrtc`
//!   (DTLS-SRTP framing + standard RTP/RTCP, see [`crate::webrtc`]) are
//!   each family's claim on a payload, and `classify_stun` the STUN check
//!   both share.
//!
//! [`classify_udp_with`](crate::dissect::classify_udp_with) calls them in
//! a fixed order: STUN, then Zoom, then WebRTC; the first claim wins. The
//! byte-level signatures cannot overlap: DTLS content types (20–23) and
//! RTP version bits (`10`) are disjoint from every ZME leading byte, so
//! enabling one family never changes another family's output. See
//! `docs/PROTOCOLS.md` for the dispatch and a guide to adding a family.

use crate::dissect::{AppView, P2pProbe, Probe, WebrtcProbe};
use crate::flow::FiveTuple;
use crate::stun;
use crate::webrtc;
use crate::zoom::{self, Framing, ZOOM_SFU_PORT};
use std::fmt;
use std::str::FromStr;

/// Identifies a protocol family — the value behind every `family=` label
/// in metrics, reports, and logs.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FamilyId {
    /// Zoom's proprietary encapsulations (ZME/SFU, server and P2P
    /// framings) — the original subject of the paper.
    Zoom,
    /// Native WebRTC: STUN/DTLS-SRTP session framing with standard
    /// RTP/RTCP media.
    Webrtc,
}

/// Number of known families; sizes per-family counter arrays.
pub const FAMILY_COUNT: usize = 2;

/// All known families, in [`FamilyId::index`] order.
pub const ALL_FAMILIES: [FamilyId; FAMILY_COUNT] = [FamilyId::Zoom, FamilyId::Webrtc];

impl FamilyId {
    /// Stable lower-case label for metrics, reports, and logs.
    pub fn label(self) -> &'static str {
        match self {
            FamilyId::Zoom => "zoom",
            FamilyId::Webrtc => "webrtc",
        }
    }

    /// Dense index for per-family counter arrays (`0..FAMILY_COUNT`).
    pub fn index(self) -> usize {
        match self {
            FamilyId::Zoom => 0,
            FamilyId::Webrtc => 1,
        }
    }
}

impl fmt::Display for FamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A family (or family-selection) string that is not `auto`, `zoom`, or
/// `webrtc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFamilyError {
    rejected: String,
}

impl fmt::Display for ParseFamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown family {:?} (expected auto, zoom, or webrtc)",
            self.rejected
        )
    }
}

impl std::error::Error for ParseFamilyError {}

impl FromStr for FamilyId {
    type Err = ParseFamilyError;

    fn from_str(s: &str) -> Result<FamilyId, ParseFamilyError> {
        match s {
            "zoom" => Ok(FamilyId::Zoom),
            "webrtc" => Ok(FamilyId::Webrtc),
            other => Err(ParseFamilyError {
                rejected: other.to_string(),
            }),
        }
    }
}

/// User-facing family selection (`--family auto|zoom|webrtc`).
///
/// `parse(display(x)) == x` round-trips, mirroring
/// `SourceSpec`: labels printed in metrics and reports are re-parseable.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FamilySelect {
    /// Recognize every family, session-gated: Zoom parses eagerly
    /// (ports and P2P probing via the STUN tracker, exactly as before),
    /// WebRTC engages only on flows whose endpoints the STUN tracker
    /// has seen. On Zoom-only traffic this is byte-identical to
    /// `Only(FamilyId::Zoom)`.
    #[default]
    Auto,
    /// Restrict dissection to a single family.
    Only(FamilyId),
}

impl FamilySelect {
    /// Stable label: `auto` or the family label.
    pub fn label(self) -> &'static str {
        match self {
            FamilySelect::Auto => "auto",
            FamilySelect::Only(id) => id.label(),
        }
    }

    /// Whether packets of `family` may be classified under this selection.
    pub fn allows(self, family: FamilyId) -> bool {
        match self {
            FamilySelect::Auto => true,
            FamilySelect::Only(id) => id == family,
        }
    }

    /// The dissector [`Probe`] this selection maps to.
    ///
    /// `Auto` keeps the eager probe Zoom-only — identical to today's
    /// dissection, preserving byte-for-byte output on Zoom traffic — and
    /// relies on the analysis layer's session gating (STUN-tracked
    /// endpoints) to route WebRTC second chances. `Only(Webrtc)` probes
    /// WebRTC framing eagerly and disables Zoom parsing entirely.
    pub fn probe(self) -> Probe {
        match self {
            FamilySelect::Auto | FamilySelect::Only(FamilyId::Zoom) => Probe::default(),
            FamilySelect::Only(FamilyId::Webrtc) => Probe {
                zoom: false,
                p2p: P2pProbe::Off,
                webrtc: WebrtcProbe::Auto,
            },
        }
    }
}

impl fmt::Display for FamilySelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for FamilySelect {
    type Err = ParseFamilyError;

    fn from_str(s: &str) -> Result<FamilySelect, ParseFamilyError> {
        if s == "auto" {
            return Ok(FamilySelect::Auto);
        }
        s.parse().map(FamilySelect::Only)
    }
}

/// The Zoom family's claim on a UDP payload: ZME/SFU encapsulations,
/// server and P2P framings. Port 8801 is authoritatively Zoom server
/// traffic, so a payload there is always claimed — one that fails to
/// parse as [`AppView::Opaque`], which the analysis layer counts as
/// `malformed_zme` and which keeps WebRTC from seeing it. Elsewhere the
/// payload is claimed only under [`P2pProbe::Auto`], and only when it
/// parses as P2P- or server-framed Zoom carrying RTP or RTCP. `None`
/// passes it on, and `then` is not called. `payload` is what the capture
/// kept of a datagram that was `wire_len` bytes on the wire.
#[inline]
pub(crate) fn claim_zoom<R>(
    five_tuple: &FiveTuple,
    payload: &[u8],
    wire_len: usize,
    probe: Probe,
    then: impl FnOnce(AppView<'_>) -> R,
) -> Option<R> {
    if five_tuple.involves_port(ZOOM_SFU_PORT) {
        // Matched by reference: the packet is read where the parser
        // wrote it, not moved out of the `Result` first.
        return Some(match &zoom::parse(payload, wire_len, Framing::Server) {
            Ok(z) => then(AppView::Zoom(Framing::Server, z)),
            Err(_) => then(AppView::Opaque),
        });
    }
    if probe.p2p == P2pProbe::Auto {
        if let Ok((framing, z)) = &zoom::parse_auto(payload, wire_len) {
            if z.rtp.is_some() || !z.rtcp.is_empty() {
                return Some(then(AppView::Zoom(*framing, z)));
            }
        }
    }
    None
}

/// The native WebRTC family's claim on a UDP payload: a DTLS record or
/// an SRTP/SRTCP header ([`webrtc::classify`]). Anything else is passed
/// on (`None`, and `then` is not called); on a flow registered as
/// WebRTC the analysis layer counts such a payload as `malformed_srtp`.
pub(crate) fn claim_webrtc<R>(
    payload: &[u8],
    wire_len: usize,
    then: impl FnOnce(AppView<'_>) -> R,
) -> Option<R> {
    let pdu = webrtc::classify(payload, wire_len).ok()?;
    Some(then(AppView::Webrtc(&pdu)))
}

/// Shared STUN classification, run by the dispatcher before any family:
/// both families signal sessions via STUN, so it belongs to neither.
pub(crate) fn classify_stun(five_tuple: &FiveTuple, payload: &[u8]) -> Option<stun::Repr> {
    if five_tuple.involves_port(stun::STUN_PORT) || stun::looks_like_stun(payload) {
        if let Ok(p) = stun::Packet::new_checked(payload) {
            return stun::Repr::parse(&p).ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissect::App;
    use crate::ipv4::Protocol;
    use std::net::{IpAddr, Ipv4Addr};

    fn tuple(src_port: u16, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, 3)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(52, 202, 62, 1)),
            src_port,
            dst_port,
            protocol: Protocol::Udp,
        }
    }

    #[test]
    fn family_labels_and_indices_are_stable() {
        assert_eq!(FamilyId::Zoom.label(), "zoom");
        assert_eq!(FamilyId::Webrtc.label(), "webrtc");
        assert_eq!(FamilyId::Zoom.index(), 0);
        assert_eq!(FamilyId::Webrtc.index(), 1);
        for (i, id) in ALL_FAMILIES.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn family_parsing_roundtrips() {
        for s in ["auto", "zoom", "webrtc"] {
            let sel: FamilySelect = s.parse().unwrap();
            assert_eq!(sel.to_string(), s);
        }
        assert_eq!("zoom".parse::<FamilyId>().unwrap(), FamilyId::Zoom);
        assert_eq!("webrtc".parse::<FamilyId>().unwrap(), FamilyId::Webrtc);
        let err = "meet".parse::<FamilySelect>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown family \"meet\" (expected auto, zoom, or webrtc)"
        );
        assert!("auto".parse::<FamilyId>().is_err());
        assert!("Zoom".parse::<FamilyId>().is_err()); // case-sensitive
    }

    #[test]
    fn select_allows_and_probe_mapping() {
        assert!(FamilySelect::Auto.allows(FamilyId::Zoom));
        assert!(FamilySelect::Auto.allows(FamilyId::Webrtc));
        assert!(FamilySelect::Only(FamilyId::Zoom).allows(FamilyId::Zoom));
        assert!(!FamilySelect::Only(FamilyId::Zoom).allows(FamilyId::Webrtc));

        // Auto and Only(Zoom) map to the exact pre-refactor probe: this
        // is what pins Zoom-only byte-identity at the dissector level.
        assert_eq!(FamilySelect::Auto.probe(), Probe::default());
        assert_eq!(FamilySelect::Only(FamilyId::Zoom).probe(), Probe::default());
        let w = FamilySelect::Only(FamilyId::Webrtc).probe();
        assert!(!w.zoom);
        assert_eq!(w.webrtc, WebrtcProbe::Auto);
    }

    fn owned(app: AppView<'_>) -> App {
        app.to_app()
    }

    #[test]
    fn zoom_claims_8801_and_passes_the_rest() {
        let ft = tuple(ZOOM_SFU_PORT, 50_111);
        // Garbage on 8801 is claimed (Opaque), not passed on.
        assert_eq!(
            claim_zoom(&ft, b"garbage", 7, Probe::default(), owned),
            Some(App::Opaque)
        );
        // Garbage elsewhere is passed on.
        assert_eq!(
            claim_zoom(&tuple(1, 2), b"garbage", 7, Probe::default(), owned),
            None
        );
    }

    #[test]
    fn webrtc_claims_dtls_and_passes_the_rest() {
        let dtls = {
            let repr = webrtc::DtlsRepr {
                content_type: webrtc::DTLS_HANDSHAKE,
                version_minor: 0xfd,
                epoch: 0,
                sequence: 0,
                length: 0,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            buf
        };
        assert!(matches!(
            claim_webrtc(&dtls, dtls.len(), owned),
            Some(App::Webrtc(webrtc::Pdu::Dtls(_)))
        ));
        assert_eq!(claim_webrtc(b"not webrtc", 10, owned), None);
        // ZME leading bytes are never claimed as WebRTC.
        for first in [5u8, 13, 15, 16, 33, 34] {
            let zme = [first, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
            assert_eq!(claim_webrtc(&zme, zme.len(), owned), None);
        }
    }
}

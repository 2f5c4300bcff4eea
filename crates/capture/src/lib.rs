//! # zoom-capture — software model of the paper's P4 Zoom capture pipeline
//!
//! The paper (§6.1, Fig. 13) deploys a P4 program on an Intel Tofino switch
//! that filters a multi-Gbps campus feed down to just Zoom packets before
//! they reach `tcpdump`:
//!
//! 1. match packets against the campus IP networks,
//! 2. match against Zoom's published server networks (stateless),
//! 3. track STUN exchanges with Zoom servers in register hash tables and
//!    use them to recognize subsequent **P2P** media flows
//!    deterministically (§4.1),
//! 4. anonymize client addresses with a one-way function before the
//!    packets are written out.
//!
//! This crate reimplements that pipeline in software with identical
//! semantics ([`pipeline::CapturePipeline`]) and adds a hardware resource
//! accounting model ([`resources`]) that reproduces the structure of the
//! paper's Table 5.
//!
//! ## Capture front-end
//!
//! Beyond the filter pipeline, the crate provides the live multi-source
//! ingest front-end that feeds the analysis engine (`docs/CAPTURE.md`):
//!
//! * [`source`] — the [`PacketSource`](source::PacketSource) abstraction
//!   with pcap-file, in-memory replay, and simulated AF_PACKET-style
//!   live-ring adapters,
//! * [`ring`] — the bounded lock-free SPSC ring used for every
//!   capture→analysis hand-off,
//! * [`mux`] — the N-sources→one-engine fan-in
//!   ([`CaptureMux`](mux::CaptureMux)): one capture thread per source,
//!   a deterministic timestamp merge on the consuming side, and exact
//!   `ring_full_drops` accounting threaded into
//!   [`zoom_analysis::obs`],
//! * [`filter`] — the one loop from a fan-in through the filter to an
//!   output pcap ([`filter_to_pcap`](filter::filter_to_pcap)), behind both
//!   `zoom-tools capture` and `zoom-tools filter`,
//! * [`spec`] — the typed [`SourceSpec`](spec::SourceSpec) grammar the
//!   CLI parses `--source` values with,
//! * [`fragment`] — the merge-node [`FragmentSource`](fragment::FragmentSource)
//!   decoding a remote worker's wire-framed fragment stream into the
//!   same fan-in (`docs/DISTRIBUTED.md`).

#![warn(missing_docs)]

pub mod anonymize;
pub mod cidr;
pub mod filter;
pub mod fragment;
pub mod mux;
pub mod pipeline;
pub mod resources;
pub mod ring;
pub mod source;
pub mod spec;
pub mod stun_tracker;
pub mod zoom_nets;

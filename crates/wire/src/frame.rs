//! Length-prefixed fragment framing for the distributed shard tier.
//!
//! A capture worker that cannot run the full analysis locally ships its
//! records to a central merge node as a **fragment stream**: a byte
//! stream (file or TCP connection) that starts with a fixed header and
//! then carries self-delimiting frames. The merge node replays every
//! worker's records through the same deterministic `(ts, lane)` fan-in
//! the in-process multi-source path uses, so the merged analysis is
//! byte-identical to a single-process run over the concatenated trace
//! (pinned by `tests/distributed_differential.rs`).
//!
//! ## Stream layout
//!
//! ```text
//! magic   b"ZFRG"            stream identification
//! version u8 = 2             1 is read too; anything else is rejected
//! frame*                     until EOF or a Bye frame
//! ```
//!
//! Every frame is `[kind u8][len u32 BE][payload; len bytes]`:
//!
//! | kind | name       | payload |
//! |------|------------|---------|
//! | 1    | Hello      | `link u32 BE`, `label_len u16 BE`, label bytes (UTF-8) |
//! | 2    | Records    | `count u32 BE`, then per record `ts u64 BE`, `orig_len u32 BE`, `cap_len u32 BE`, `cap_len` bytes |
//! | 3    | Accounting | cumulative `packets`, `bytes`, `batches`, `ring_full_drops`, `truncated` (all `u64 BE`) |
//! | 4    | Bye        | same payload as Accounting — the worker's final totals |
//! | 5    | Trace      | `trace_id u64 BE`, then NDJSON span-event lines (UTF-8) |
//!
//! A Trace frame carries the worker-side span events for the trace ID
//! that annotates the **next** Records frame, letting a merge node
//! stitch the worker's causal tree onto its own spans. Workers only
//! emit Trace frames when tracing is enabled, so untraced streams are
//! byte-identical to protocol version 1 as shipped before trace
//! support — the addition is backwards compatible on the wire.
//!
//! Since version 2 a record ships its **analysis prefix**
//! ([`dissect::analysis_prefix`](crate::dissect::analysis_prefix)) only:
//! `cap_len` may be less than the bytes the worker captured, `orig_len`
//! is what it always was, and the dissector takes every length from the
//! packet's own headers, so the merge node's report does not change.
//! The layout is version 1's; the number was bumped so that a version-1
//! reader — whose dissector would drop a trimmed record as truncated —
//! refuses the stream instead.
//!
//! The Hello frame must come first (the writer emits it with the stream
//! header); Accounting frames may appear at any point and carry the
//! worker's **cumulative** capture-side counters, so the merge node can
//! fold per-worker accounting into its conservation invariant without
//! tracking deltas. A stream that ends without Bye was cut off — the
//! reader reports this distinctly so the merge node can refuse to call
//! an incomplete worker "done".
//!
//! ## Robustness
//!
//! The reader never panics on hostile input: every length field is
//! checked against its kind before anything is read or allocated for it
//! (Accounting and Bye are exactly 40 bytes, Hello at most 6 + 65 535,
//! Records and Trace at most [`MAX_FRAME_BYTES`], Trace at least its
//! 8-byte ID; an unknown kind is malformed whatever its length), and a
//! payload's buffer grows with the bytes that actually arrive, not with
//! the length the peer claimed.
//! Truncated streams surface [`Error::Truncated`], unknown kinds or
//! inconsistent interior lengths [`Error::Malformed`]. This is
//! property-tested with random corruption (`crates/wire/tests/proptests.rs`).
//!
//! A Records payload is read straight onto the tail of the caller's
//! [`RecordBatch`] arena and its records are indexed where they landed —
//! no staging buffer, no per-record copy; a frame that turns out malformed
//! or truncated is rolled back out of the batch.
//!
//! ```
//! use zoom_wire::frame::{FrameReader, FrameWriter, FrameEvent, Totals};
//! use zoom_wire::handoff::RecordBatch;
//! use zoom_wire::pcap::LinkType;
//!
//! let mut w = FrameWriter::new(Vec::new(), "worker-0", LinkType::Ethernet).unwrap();
//! let mut batch = RecordBatch::new();
//! batch.push(1_000, 60, &[0xAA; 60]);
//! w.write_batch(&batch).unwrap();
//! let bytes = w.finish(Totals { packets: 1, bytes: 60, batches: 1,
//!                               ring_full_drops: 0, truncated: 0 }).unwrap();
//!
//! let mut r = FrameReader::new(&bytes[..]).unwrap();
//! assert_eq!(r.label(), "worker-0");
//! let mut out = RecordBatch::new();
//! assert!(matches!(r.next(&mut out).unwrap(), Some(FrameEvent::Records { count: 1 })));
//! assert!(matches!(r.next(&mut out).unwrap(), Some(FrameEvent::Bye(_))));
//! assert_eq!(out.len(), 1);
//! ```

use crate::dissect::analysis_prefix;
use crate::handoff::{FramedTail, RecordBatch};
use crate::pcap::LinkType;
use crate::{be16, be32, be64, Error};
use std::io::{self, Read, Write};

/// Stream magic: identifies a fragment stream in the first four bytes.
pub const MAGIC: [u8; 4] = *b"ZFRG";

/// The protocol version the writer stamps: 2 since Records frames carry
/// analysis prefixes. The reader also takes version 1 (same layout,
/// records shipped whole).
pub const VERSION: u8 = 2;

/// Upper bound on one frame's payload. A Records frame built from the
/// capture hand-off batches stays well under this; anything larger is a
/// corrupt or hostile length field and is rejected before allocation.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// `[kind u8][len u32 BE]` ahead of every payload.
const FRAME_HEAD: usize = 5;
/// `ts u64`, `orig_len u32`, `cap_len u32` ahead of every record's bytes.
const RECORD_HEAD: usize = 16;
/// An Accounting or Bye payload: five `u64`s.
const TOTALS_BYTES: u32 = 40;
/// The fixed part of a Hello payload: `link u32`, `label_len u16`.
const HELLO_FIXED: u32 = 6;

const KIND_HELLO: u8 = 1;
const KIND_RECORDS: u8 = 2;
const KIND_ACCOUNTING: u8 = 3;
const KIND_BYE: u8 = 4;
const KIND_TRACE: u8 = 5;

/// Cumulative capture-side accounting a worker ships alongside its
/// records, mirroring the fan-in's per-lane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Records the worker's capture side pulled off its sources.
    pub packets: u64,
    /// Bytes captured across those records at the worker's tap — not the
    /// (fewer) bytes it shipped.
    pub bytes: u64,
    /// Batches the worker's fan-in handled.
    pub batches: u64,
    /// Records the worker dropped at full capture rings: 0 from a current
    /// worker, whose fan-in never drops; kept so that a spool from an older
    /// worker run with a loss policy still reconciles.
    pub ring_full_drops: u64,
    /// Records the worker's sources dropped (torn pcap tails).
    pub truncated: u64,
}

impl Totals {
    fn emit(&self, out: &mut Vec<u8>) {
        for v in [
            self.packets,
            self.bytes,
            self.batches,
            self.ring_full_drops,
            self.truncated,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
    }

    fn parse(payload: &[u8]) -> Result<Totals, Error> {
        if payload.len() != TOTALS_BYTES as usize {
            return Err(Error::Malformed);
        }
        Ok(Totals {
            packets: be64(payload, 0),
            bytes: be64(payload, 8),
            batches: be64(payload, 16),
            ring_full_drops: be64(payload, 24),
            truncated: be64(payload, 32),
        })
    }
}

/// One decoded frame, as surfaced by [`FrameReader::next`]. Records land
/// in the caller's batch; the event only reports how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEvent {
    /// A Records frame: `count` records were appended to the batch.
    Records {
        /// Number of records decoded out of this frame.
        count: u32,
    },
    /// A mid-stream cumulative accounting update.
    Accounting(Totals),
    /// Span events for `trace_id`, annotating the next Records frame.
    /// The NDJSON payload is borrowed via
    /// [`FrameReader::trace_ndjson`] until the next `next()` call.
    Trace {
        /// The trace ID the shipped span events belong to.
        trace_id: u64,
    },
    /// The worker's final totals; no frames follow.
    Bye(Totals),
}

// -------------------------------------------------------------- writer --

/// Serializes a fragment stream onto any `Write` (file, TCP socket).
///
/// Construction writes the stream header and Hello frame immediately, so
/// the merge node learns the worker's label and link type before any
/// records flow.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    link: LinkType,
    scratch: Vec<u8>,
    record_bytes_written: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Starts a fragment stream: magic, version, and the Hello frame
    /// carrying `label` and the worker's link type.
    pub fn new(mut out: W, label: &str, link: LinkType) -> io::Result<FrameWriter<W>> {
        let label = label.as_bytes();
        assert!(label.len() <= u16::MAX as usize, "worker label too long");
        out.write_all(&MAGIC)?;
        out.write_all(&[VERSION])?;
        let mut payload = Vec::with_capacity(6 + label.len());
        payload.extend_from_slice(&u32::from(link).to_be_bytes());
        payload.extend_from_slice(&(label.len() as u16).to_be_bytes());
        payload.extend_from_slice(label);
        let mut w = FrameWriter {
            out,
            link,
            scratch: Vec::with_capacity(4096),
            record_bytes_written: 0,
        };
        w.write_frame(KIND_HELLO, &payload)?;
        Ok(w)
    }

    fn write_frame(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() <= MAX_FRAME_BYTES as usize,
            "frame payload exceeds MAX_FRAME_BYTES"
        );
        self.out.write_all(&[kind])?;
        self.out.write_all(&(payload.len() as u32).to_be_bytes())?;
        self.out.write_all(payload)?;
        Ok(())
    }

    /// Ships one batch of records. Empty batches are skipped (a Records
    /// frame always carries at least one record).
    pub fn write_batch(&mut self, batch: &RecordBatch) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.encode_records(batch);
        self.write_encoded_records(batch)
    }

    /// Ships one batch of records behind the Trace frame that annotates
    /// it. The Records payload is encoded first, so that `spans` — told
    /// what the encode took, in nanoseconds — can put that figure into the
    /// span-event NDJSON it returns for `trace_id`; the Trace frame still
    /// goes out *ahead of* the Records frame, as the protocol requires.
    /// Empty batches are skipped, Trace frame and all.
    pub fn write_batch_traced(
        &mut self,
        batch: &RecordBatch,
        trace_id: u64,
        spans: impl FnOnce(u64) -> String,
    ) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let encode_start = std::time::Instant::now();
        self.encode_records(batch);
        let ndjson = spans(encode_start.elapsed().as_nanos() as u64);
        self.write_trace(trace_id, ndjson.as_bytes())?;
        self.write_encoded_records(batch)
    }

    /// Encode `batch` as a Records frame into the scratch buffer: the
    /// frame head first, its length still to be filled in. Each record
    /// ships its analysis prefix — the bytes a parser may read — under the
    /// length it had on the wire.
    fn encode_records(&mut self, batch: &RecordBatch) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[KIND_RECORDS, 0, 0, 0, 0]);
        self.scratch
            .extend_from_slice(&(batch.len() as u32).to_be_bytes());
        for r in batch.iter() {
            let shipped = &r.data[..analysis_prefix(r.data, self.link)];
            self.scratch.extend_from_slice(&r.ts_nanos.to_be_bytes());
            self.scratch
                .extend_from_slice(&(r.wire_len() as u32).to_be_bytes());
            self.scratch
                .extend_from_slice(&(shipped.len() as u32).to_be_bytes());
            self.scratch.extend_from_slice(shipped);
        }
    }

    /// Write the scratch buffer — `batch`, encoded — as a Records frame:
    /// head and payload in one `write_all`, so a frame larger than the
    /// writer's buffer costs one `write` (or `send`), not a 5-byte one
    /// ahead of it.
    fn write_encoded_records(&mut self, batch: &RecordBatch) -> io::Result<()> {
        let payload = self.scratch.len() - FRAME_HEAD;
        assert!(
            payload <= MAX_FRAME_BYTES as usize,
            "frame payload exceeds MAX_FRAME_BYTES"
        );
        self.scratch[1..FRAME_HEAD].copy_from_slice(&(payload as u32).to_be_bytes());
        self.out.write_all(&self.scratch)?;
        // What the payload holds besides its count and record headers.
        self.record_bytes_written += (payload - 4 - RECORD_HEAD * batch.len()) as u64;
        Ok(())
    }

    /// Ships a cumulative accounting update.
    pub fn write_accounting(&mut self, totals: Totals) -> io::Result<()> {
        let mut payload = Vec::with_capacity(40);
        totals.emit(&mut payload);
        self.write_frame(KIND_ACCOUNTING, &payload)
    }

    /// Ships the span events for `trace_id` as NDJSON, annotating the
    /// next Records frame. Only emitted on traced runs; empty payloads
    /// are skipped so an idle trace tick costs no frame.
    pub fn write_trace(&mut self, trace_id: u64, ndjson: &[u8]) -> io::Result<()> {
        if ndjson.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(8 + ndjson.len());
        payload.extend_from_slice(&trace_id.to_be_bytes());
        payload.extend_from_slice(ndjson);
        self.write_frame(KIND_TRACE, &payload)
    }

    /// Record bytes shipped so far (Σ `cap_len`, framing not counted): what
    /// is left of the captured bytes once every record is down to its
    /// analysis prefix.
    pub fn record_bytes_written(&self) -> u64 {
        self.record_bytes_written
    }

    /// Push every frame written so far through to the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Ends the stream with a Bye frame carrying the final totals,
    /// flushes, and returns the underlying writer.
    pub fn finish(mut self, totals: Totals) -> io::Result<W> {
        let mut payload = Vec::with_capacity(40);
        totals.emit(&mut payload);
        self.write_frame(KIND_BYE, &payload)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

// -------------------------------------------------------------- reader --

/// Decodes a fragment stream from any `Read` (file, TCP socket).
///
/// Construction consumes the stream header and Hello frame; every
/// [`next`](FrameReader::next) call then yields one [`FrameEvent`] (or
/// `Ok(None)` at clean EOF — note that EOF *before* a
/// [`FrameEvent::Bye`] means the stream was cut off).
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    input: R,
    label: String,
    link: LinkType,
    payload: Vec<u8>,
    saw_bye: bool,
    records_read: u64,
}

impl<R: Read> FrameReader<R> {
    /// Validates the stream header and reads the Hello frame.
    pub fn new(mut input: R) -> Result<FrameReader<R>, Error> {
        let mut head = [0u8; 5];
        read_exact(&mut input, &mut head)?;
        if head[..4] != MAGIC {
            return Err(Error::Malformed);
        }
        if !(1..=VERSION).contains(&head[4]) {
            return Err(Error::Unsupported);
        }
        let (kind, len) = read_head(&mut input)?.ok_or(Error::Truncated)?;
        if kind != KIND_HELLO || !(HELLO_FIXED..=HELLO_FIXED + u32::from(u16::MAX)).contains(&len) {
            return Err(Error::Malformed);
        }
        let mut payload = Vec::new();
        read_payload(&mut input, len, &mut payload)?;
        let link = LinkType::from(be32(&payload, 0));
        let label_len = be16(&payload, 4) as usize;
        if payload.len() != HELLO_FIXED as usize + label_len {
            return Err(Error::Malformed);
        }
        let label = std::str::from_utf8(&payload[HELLO_FIXED as usize..])
            .map_err(|_| Error::Malformed)?
            .to_string();
        Ok(FrameReader {
            input,
            label,
            link,
            payload,
            saw_bye: false,
            records_read: 0,
        })
    }

    /// The worker label from the Hello frame.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The worker's link type from the Hello frame.
    pub fn link_type(&self) -> LinkType {
        self.link
    }

    /// Records decoded so far across all Records frames.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// The NDJSON span events of the Trace frame [`next`](Self::next)
    /// just returned. Borrowed from the frame scratch buffer — valid
    /// only until the next `next()` call, and meaningless unless the
    /// last event was [`FrameEvent::Trace`].
    pub fn trace_ndjson(&self) -> &[u8] {
        if self.payload.len() >= 8 {
            &self.payload[8..]
        } else {
            &[]
        }
    }

    /// Decodes the next frame. Records are **appended** to `batch` — read
    /// straight onto its arena tail and indexed there — and an `Err`
    /// leaves `batch` exactly as it was; `Ok(None)` signals EOF, a clean
    /// end of stream only if a [`FrameEvent::Bye`] came before it.
    pub fn next(&mut self, batch: &mut RecordBatch) -> Result<Option<FrameEvent>, Error> {
        if self.saw_bye {
            return Ok(None);
        }
        let Some((kind, len)) = read_head(&mut self.input)? else {
            return Ok(None);
        };
        // The length is judged against the kind before a byte of payload
        // is read: a control frame cannot make the reader buffer more than
        // it can mean, and an unknown kind (or a second Hello) nothing.
        match kind {
            KIND_RECORDS if len <= MAX_FRAME_BYTES => {
                let input = &mut self.input;
                let count = batch.append_framed(|tail| {
                    read_payload(input, len, tail.arena())?;
                    index_records(tail)
                })?;
                self.records_read += count as u64;
                Ok(Some(FrameEvent::Records { count }))
            }
            KIND_TRACE if (8..=MAX_FRAME_BYTES).contains(&len) => {
                let trace_id = be64(self.stage(len)?, 0);
                Ok(Some(FrameEvent::Trace { trace_id }))
            }
            KIND_ACCOUNTING if len == TOTALS_BYTES => Ok(Some(FrameEvent::Accounting(
                Totals::parse(self.stage(len)?)?,
            ))),
            KIND_BYE if len == TOTALS_BYTES => {
                let totals = Totals::parse(self.stage(len)?)?;
                self.saw_bye = true;
                Ok(Some(FrameEvent::Bye(totals)))
            }
            _ => Err(Error::Malformed),
        }
    }

    /// Reads a control frame's payload — they are small — into the staging
    /// buffer.
    fn stage(&mut self, len: u32) -> Result<&[u8], Error> {
        self.payload.clear();
        read_payload(&mut self.input, len, &mut self.payload)?;
        Ok(&self.payload)
    }
}

/// Reads one `[kind][len]` frame head. `Ok(None)` at a clean frame
/// boundary EOF; `Err(Truncated)` when the stream ends inside the head.
fn read_head<R: Read>(input: &mut R) -> Result<Option<(u8, u32)>, Error> {
    let mut head = [0u8; FRAME_HEAD];
    loop {
        match input.read(&mut head[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Error::Truncated),
        }
    }
    read_exact(input, &mut head[1..])?;
    Ok(Some((head[0], be32(&head, 1))))
}

/// Appends exactly `len` payload bytes to `buf`, which grows with what
/// arrives: a stream that ends early is `Truncated` having cost no more
/// memory than it sent.
fn read_payload<R: Read>(input: &mut R, len: u32, buf: &mut Vec<u8>) -> Result<(), Error> {
    match input.take(u64::from(len)).read_to_end(buf) {
        Ok(got) if got == len as usize => Ok(()),
        _ => Err(Error::Truncated),
    }
}

/// Walks the Records payload that was just landed on `tail` — `count`,
/// then per record `ts`, `orig_len`, `cap_len` and the bytes — and
/// indexes every record in place; returns the count.
fn index_records(tail: &mut FramedTail<'_>) -> Result<u32, Error> {
    let len = tail.bytes().len();
    if len < 4 {
        return Err(Error::Malformed);
    }
    let count = be32(tail.bytes(), 0);
    let mut off = 4usize;
    for _ in 0..count {
        let payload = tail.bytes();
        if len - off < RECORD_HEAD {
            return Err(Error::Malformed);
        }
        let ts = be64(payload, off);
        let orig_len = be32(payload, off + 8);
        let cap_len = be32(payload, off + 12) as usize;
        off += RECORD_HEAD;
        if len - off < cap_len {
            return Err(Error::Malformed);
        }
        tail.index(ts, orig_len, off, cap_len);
        off += cap_len;
    }
    if off != len {
        // Trailing garbage inside the frame: length fields disagree.
        return Err(Error::Malformed);
    }
    Ok(count)
}

fn read_exact<R: Read>(input: &mut R, buf: &mut [u8]) -> Result<(), Error> {
    input.read_exact(buf).map_err(|_| Error::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a batch holds, for "an `Err` left it as it was".
    #[derive(Debug, PartialEq)]
    struct Contents {
        len: usize,
        arena_bytes: usize,
        records: Vec<(u64, u32, Vec<u8>)>,
    }

    fn contents(batch: &RecordBatch) -> Contents {
        Contents {
            len: batch.len(),
            arena_bytes: batch.arena_bytes(),
            records: batch
                .iter()
                .map(|r| (r.ts_nanos, r.orig_len, r.data.to_vec()))
                .collect(),
        }
    }

    /// A batch that already holds something, for an error to leave alone.
    fn occupied_batch() -> RecordBatch {
        let mut batch = RecordBatch::new();
        batch.push(1, 70, &[0x11; 70]);
        batch.push(2, 9_000, &[0x22; 33]);
        batch
    }

    /// Drains `bytes` into an occupied batch until the reader fails, and
    /// returns the failure — having checked that the failing call left
    /// the batch exactly as the last successful one had.
    fn first_error(bytes: &[u8]) -> Option<Error> {
        let mut r = match FrameReader::new(bytes) {
            Ok(r) => r,
            Err(e) => return Some(e),
        };
        let mut batch = occupied_batch();
        loop {
            let before = contents(&batch);
            match r.next(&mut batch) {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(e) => {
                    assert_eq!(contents(&batch), before, "{e:?} left records behind");
                    return Some(e);
                }
            }
        }
    }

    /// Start of the first frame after the Hello of a stream labelled `label`.
    fn after_hello(label: &str) -> usize {
        5 + FRAME_HEAD + HELLO_FIXED as usize + label.len()
    }

    fn sample_stream() -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), "worker-a", LinkType::Ethernet).unwrap();
        let mut batch = RecordBatch::new();
        batch.push(10, 60, &[0xAA; 60]);
        batch.push(20, 1500, &[0xBB; 64]);
        w.write_batch(&batch).unwrap();
        w.write_accounting(Totals {
            packets: 2,
            bytes: 124,
            batches: 1,
            ring_full_drops: 0,
            truncated: 0,
        })
        .unwrap();
        batch.clear();
        batch.push(30, 80, &[0xCC; 80]);
        w.write_batch(&batch).unwrap();
        w.finish(Totals {
            packets: 3,
            bytes: 204,
            batches: 2,
            ring_full_drops: 0,
            truncated: 0,
        })
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_records_and_accounting() {
        let bytes = sample_stream();
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(r.label(), "worker-a");
        assert_eq!(r.link_type(), LinkType::Ethernet);

        let mut batch = RecordBatch::new();
        assert_eq!(
            r.next(&mut batch).unwrap(),
            Some(FrameEvent::Records { count: 2 })
        );
        let acct = r.next(&mut batch).unwrap();
        assert!(matches!(acct, Some(FrameEvent::Accounting(t)) if t.packets == 2));
        assert_eq!(
            r.next(&mut batch).unwrap(),
            Some(FrameEvent::Records { count: 1 })
        );
        let bye = r.next(&mut batch).unwrap();
        assert!(matches!(bye, Some(FrameEvent::Bye(t)) if t.packets == 3 && t.batches == 2));
        assert!(r.saw_bye);
        assert_eq!(r.records_read(), 3);
        assert_eq!(r.next(&mut batch).unwrap(), None);

        assert_eq!(batch.len(), 3);
        let r1 = batch.get(1).unwrap();
        assert_eq!((r1.ts_nanos, r1.orig_len, r1.data.len()), (20, 1500, 64));
        let r2 = batch.get(2).unwrap();
        assert_eq!((r2.ts_nanos, r2.orig_len), (30, 80));
    }

    #[test]
    fn a_record_ships_its_analysis_prefix_under_its_wire_length() {
        use crate::{compose, rtp, zoom};
        use std::net::Ipv4Addr;

        // Server-framed video: Ethernet 14 + IPv4 20 + UDP 8 + SFU 8 +
        // media encapsulation 24 + RTP 12, then 900 bytes of media.
        let media = zoom::Builder {
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
                packets_in_frame: Some(2),
            },
            rtp: Some(rtp::Repr {
                marker: false,
                payload_type: 98,
                sequence_number: 700,
                timestamp: 90_000,
                ssrc: 0x99,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0x5A; 900],
        }
        .build();
        let video = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(52, 202, 62, 1),
            Ipv4Addr::new(10, 8, 0, 3),
            zoom::ZOOM_SFU_PORT,
            50_111,
            &media,
        );
        let opaque = [0xEE; 300]; // dissects as nothing: ships whole
        let mut batch = RecordBatch::new();
        batch.push(1, video.len() as u32, &video);
        batch.push(2, 9_000, &opaque);
        batch.push(3, 0, &opaque); // `orig_len` left unset by its writer

        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        w.write_batch(&batch).unwrap();
        assert_eq!(w.record_bytes_written(), 86 + 300 + 300);
        let mut bytes = w.finish(Totals::default()).unwrap();
        assert_eq!(bytes[4], 2, "the version a trimming writer stamps");

        // A version-1 header over the same layout is read the same way;
        // versions this reader has not heard of are refused.
        for version in [2, 1] {
            bytes[4] = version;
            let mut r = FrameReader::new(&bytes[..]).unwrap();
            let mut out = RecordBatch::new();
            assert_eq!(
                r.next(&mut out).unwrap(),
                Some(FrameEvent::Records { count: 3 })
            );
            let got: Vec<(u32, &[u8])> = out.iter().map(|r| (r.orig_len, r.data)).collect();
            assert_eq!(
                got,
                [
                    (video.len() as u32, &video[..86]),
                    (9_000, &opaque[..]),
                    (300, &opaque[..]),
                ]
            );
        }
        for version in [0, 3] {
            bytes[4] = version;
            assert_eq!(
                FrameReader::new(&bytes[..]).unwrap_err(),
                Error::Unsupported
            );
        }
    }

    #[test]
    fn trace_frames_roundtrip_and_annotate_the_next_records() {
        let mut w = FrameWriter::new(Vec::new(), "worker-a", LinkType::Ethernet).unwrap();
        let ndjson = b"{\"type\":\"trace_span\",\"span\":\"source_read\"}\n";
        w.write_trace(0x00C0_FFEE_00C0_FFEE, ndjson).unwrap();
        let mut batch = RecordBatch::new();
        batch.push(10, 60, &[0xAA; 60]);
        w.write_batch(&batch).unwrap();
        // Empty trace payloads cost no frame.
        w.write_trace(1, b"").unwrap();
        let bytes = w.finish(Totals::default()).unwrap();

        let mut r = FrameReader::new(&bytes[..]).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Trace {
                trace_id: 0x00C0_FFEE_00C0_FFEE
            })
        );
        assert_eq!(r.trace_ndjson(), ndjson);
        assert_eq!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Records { count: 1 })
        );
        assert!(matches!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Bye(_))
        ));
        assert!(r.saw_bye);
    }

    #[test]
    fn traced_batch_ships_its_trace_frame_first_with_the_encode_time() {
        let mut batch = RecordBatch::new();
        for i in 0..64 {
            batch.push(i, 1_000, &[0xAB; 1_000]);
        }
        let mut reported = 0;
        let mut w = FrameWriter::new(Vec::new(), "worker-a", LinkType::Ethernet).unwrap();
        w.write_batch_traced(&batch, 7, |encode_nanos| {
            reported = encode_nanos;
            format!("{{\"dur_nanos\":{encode_nanos}}}\n")
        })
        .unwrap();
        // An empty batch ships nothing, and its spans are never asked for.
        w.write_batch_traced(&RecordBatch::new(), 8, |_| unreachable!())
            .unwrap();
        let traced = w.finish(Totals::default()).unwrap();
        assert!(reported > 0, "encoding 64 KB took no time at all");

        let mut r = FrameReader::new(&traced[..]).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Trace { trace_id: 7 })
        );
        assert_eq!(
            r.trace_ndjson(),
            format!("{{\"dur_nanos\":{reported}}}\n").as_bytes()
        );
        assert_eq!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Records { count: 64 })
        );
        assert!(matches!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Bye(_))
        ));

        // The Records frame is the one `write_batch` writes.
        let mut plain = FrameWriter::new(Vec::new(), "worker-a", LinkType::Ethernet).unwrap();
        plain.write_batch(&batch).unwrap();
        let plain = plain.finish(Totals::default()).unwrap();
        let trace_frame = 5 + 8 + format!("{{\"dur_nanos\":{reported}}}\n").len();
        let hello_end = 5 + 5 + 6 + "worker-a".len();
        assert_eq!(traced[..hello_end], plain[..hello_end]);
        assert_eq!(traced[hello_end + trace_frame..], plain[hello_end..]);
    }

    #[test]
    fn short_trace_payload_is_malformed() {
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        w.write_frame(KIND_TRACE, &[0u8; 4]).unwrap(); // < 8-byte trace_id
        let bytes = w.finish(Totals::default()).unwrap();
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
    }

    #[test]
    fn empty_batches_are_skipped() {
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::RawIp).unwrap();
        w.write_batch(&RecordBatch::new()).unwrap();
        let bytes = w.finish(Totals::default()).unwrap();
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::RawIp);
        let mut batch = RecordBatch::new();
        assert!(matches!(
            r.next(&mut batch).unwrap(),
            Some(FrameEvent::Bye(_))
        ));
        assert!(batch.is_empty());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let bytes = sample_stream();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(FrameReader::new(&bad[..]).unwrap_err(), Error::Malformed);
        let mut bad = bytes;
        bad[4] = 99;
        assert_eq!(FrameReader::new(&bad[..]).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_clean_eof() {
        let bytes = sample_stream();
        // Every cut inside a frame is an error that leaves the batch
        // alone; a cut at a frame boundary is an EOF without a Bye.
        let boundaries = {
            let mut at = vec![after_hello("worker-a")];
            while *at.last().unwrap() < bytes.len() {
                let head = *at.last().unwrap();
                at.push(head + FRAME_HEAD + be32(&bytes, head + 1) as usize);
            }
            at
        };
        assert_eq!(boundaries.len(), 5, "Records, Accounting, Records, Bye");
        for cut in after_hello("worker-a")..bytes.len() {
            match first_error(&bytes[..cut]) {
                Some(e) => assert_eq!(e, Error::Truncated, "cut at {cut}"),
                None => assert!(boundaries.contains(&cut), "cut at {cut} passed for clean"),
            }
        }
        let mut r = FrameReader::new(&bytes[..boundaries[1]]).unwrap();
        let mut batch = RecordBatch::new();
        while r.next(&mut batch).unwrap().is_some() {}
        assert!(!r.saw_bye, "a cut stream must not look clean");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(KIND_HELLO);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd length
        assert_eq!(FrameReader::new(&bytes[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn interior_length_disagreement_is_malformed() {
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        let mut batch = RecordBatch::new();
        batch.push(1, 10, &[0u8; 10]);
        w.write_batch(&batch).unwrap();
        let mut bytes = w.finish(Totals::default()).unwrap();
        // Bump the per-record cap_len inside the Records frame so it
        // disagrees with the frame length.
        let cap_len_off = after_hello("w") + FRAME_HEAD + 4 + 8 + 4;
        bytes[cap_len_off + 3] = 9; // cap_len 10 -> 9: trailing byte left over
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
        bytes[cap_len_off + 3] = 11; // runs past the frame's end
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
        bytes[cap_len_off + 3] = 10;
        assert_eq!(first_error(&bytes), None);
        // A count the frame has no headers for, and a frame too short to
        // hold a count at all.
        bytes[after_hello("w") + FRAME_HEAD + 3] = 2;
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        w.write_frame(KIND_RECORDS, &[0u8; 3]).unwrap();
        let bytes = w.finish(Totals::default()).unwrap();
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
    }

    #[test]
    fn mid_stream_hello_is_malformed() {
        let mut bytes = sample_stream();
        // Corrupt the first Records frame's kind byte into a second
        // Hello: anything but Records/Accounting/Bye mid-stream is bad.
        bytes[after_hello("worker-a")] = KIND_HELLO;
        assert_eq!(first_error(&bytes), Some(Error::Malformed));
    }

    /// Counts what a reader hands out, and in how many `read` calls.
    struct CountingRead<'a> {
        bytes: &'a [u8],
        served: usize,
    }

    impl Read for CountingRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn records_are_indexed_where_the_read_landed_them() {
        let sizes = [60usize, 0, 1_400, 64, 1];
        let mut batch = RecordBatch::new();
        for (i, &n) in sizes.iter().enumerate() {
            batch.push(i as u64, n as u32, &vec![i as u8; n]);
        }
        let mut w = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet).unwrap();
        w.write_batch(&batch).unwrap();
        let bytes = w.finish(Totals::default()).unwrap();

        let input = CountingRead {
            bytes: &bytes,
            served: 0,
        };
        let mut r = FrameReader::new(input).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Records { count: 5 })
        );
        // The arena holds the payload as it was on the wire: every record
        // sits one 16-byte header past the end of the one before it.
        for i in 0..sizes.len() - 1 {
            let (this, next) = (out.get(i).unwrap(), out.get(i + 1).unwrap());
            assert_eq!(
                next.data.as_ptr() as usize,
                this.data.as_ptr() as usize + this.data.len() + 16,
                "record {}",
                i + 1
            );
        }
        assert_eq!(contents(&out).records, contents(&batch).records);
        assert_eq!(out.arena_bytes(), sizes.iter().sum::<usize>());
        assert!(matches!(
            r.next(&mut out).unwrap(),
            Some(FrameEvent::Bye(_))
        ));
        // ... and every byte of the stream was read exactly once: nothing
        // was staged and read again, nothing asked for twice.
        assert_eq!(r.input.served, bytes.len());
    }

    #[test]
    fn appending_a_frame_leaves_earlier_records_where_they_were() {
        let bytes = sample_stream();
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        // Room enough that the arena does not move when the frames land.
        let mut batch = RecordBatch::new();
        batch.push(0, 4096, &[0; 4096]);
        batch.clear();
        batch.push(5, 80, &[0x55; 80]);
        let where_it_was = batch.get(0).unwrap().data.as_ptr();
        while r.next(&mut batch).unwrap().is_some() {}
        assert_eq!(batch.len(), 4);
        let first = batch.get(0).unwrap();
        assert_eq!(
            (first.ts_nanos, first.orig_len, first.data),
            (5, 80, &[0x55; 80][..])
        );
        assert_eq!(first.data.as_ptr(), where_it_was);
        let ts: Vec<u64> = batch.iter().map(|r| r.ts_nanos).collect();
        assert_eq!(ts, vec![5, 10, 20, 30]);
        assert_eq!(batch.arena_bytes(), 80 + 60 + 64 + 80);
    }

    /// Counts `write` calls and what they carried.
    #[derive(Default)]
    struct CountingWrite {
        calls: Vec<usize>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_records_frame_is_one_write() {
        let mut batch = RecordBatch::new();
        for i in 0..128 {
            batch.push(i, 700, &[0xAB; 700]);
        }
        let framed = FRAME_HEAD + 4 + 128 * (16 + 700);
        let mut w = FrameWriter::new(CountingWrite::default(), "w", LinkType::Ethernet).unwrap();
        let after_hello = w.out.calls.len();
        w.write_batch(&batch).unwrap();
        w.write_batch(&batch).unwrap();
        assert_eq!(w.out.calls[after_hello..], [framed, framed]);
        // Traced, the Trace frame still goes first; the Records frame
        // behind it is still one write.
        w.write_batch_traced(&batch, 7, |_| "{}\n".to_string())
            .unwrap();
        assert_eq!(w.out.calls.last(), Some(&framed));
        assert_eq!(w.out.calls.iter().filter(|&&n| n == framed).count(), 3);
    }

    #[test]
    fn a_storm_of_interrupts_is_retried_in_a_loop() {
        /// `Interrupted` a million times ahead of every frame head — deep
        /// enough to overflow the stack of a reader that retries by
        /// calling itself.
        struct Stormy<'a> {
            bytes: &'a [u8],
            interrupts_left: u32,
        }
        impl Read for Stormy<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if buf.len() == 1 && self.interrupts_left > 0 {
                    self.interrupts_left -= 1;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                if buf.len() == 1 {
                    self.interrupts_left = 1_000_000;
                }
                self.bytes.read(buf)
            }
        }
        let bytes = sample_stream();
        let mut r = FrameReader::new(Stormy {
            bytes: &bytes,
            interrupts_left: 1_000_000,
        })
        .unwrap();
        let mut batch = RecordBatch::new();
        while r.next(&mut batch).unwrap().is_some() {}
        assert!(r.saw_bye);
        assert_eq!(batch.len(), 3);
    }

    /// A stream that is all claim: header, then one frame head announcing
    /// `len` bytes of `kind`, then `sent` bytes of payload and nothing more.
    fn claim(kind: u8, len: u32, sent: usize) -> Vec<u8> {
        let mut bytes = FrameWriter::new(Vec::new(), "w", LinkType::Ethernet)
            .unwrap()
            .out;
        bytes.push(kind);
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.extend(std::iter::repeat_n(0u8, sent));
        bytes
    }

    #[test]
    fn a_length_is_judged_against_its_kind_before_anything_is_read() {
        // Past the frame head there is nothing: a reader that went for the
        // payload first would report `Truncated`.
        for (kind, len) in [
            (KIND_ACCOUNTING, TOTALS_BYTES - 1),
            (KIND_ACCOUNTING, MAX_FRAME_BYTES),
            (KIND_BYE, TOTALS_BYTES + 1),
            (KIND_BYE, 0),
            (KIND_HELLO, HELLO_FIXED),
            (0, 0),
            (6, 12),
            (0xFF, MAX_FRAME_BYTES),
            (KIND_RECORDS, MAX_FRAME_BYTES + 1),
            (KIND_TRACE, MAX_FRAME_BYTES + 1),
            (KIND_TRACE, 7),
        ] {
            assert_eq!(
                first_error(&claim(kind, len, 0)),
                Some(Error::Malformed),
                "kind {kind} len {len}"
            );
        }
        // Lengths their kinds allow are read, and found cut short.
        for (kind, len) in [
            (KIND_ACCOUNTING, TOTALS_BYTES),
            (KIND_BYE, TOTALS_BYTES),
            (KIND_RECORDS, MAX_FRAME_BYTES),
            (KIND_TRACE, MAX_FRAME_BYTES),
        ] {
            assert_eq!(
                first_error(&claim(kind, len, 7)),
                Some(Error::Truncated),
                "kind {kind} len {len}"
            );
        }
        // The Hello itself: a label longer than its `u16` can say.
        let mut hello = Vec::from(MAGIC);
        hello.push(VERSION);
        hello.push(KIND_HELLO);
        let longest = HELLO_FIXED + u32::from(u16::MAX);
        hello.extend_from_slice(&(longest + 1).to_be_bytes());
        assert_eq!(FrameReader::new(&hello[..]).unwrap_err(), Error::Malformed);
        hello.truncate(6);
        hello.extend_from_slice(&longest.to_be_bytes());
        assert_eq!(FrameReader::new(&hello[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn a_claimed_length_reserves_nothing_until_bytes_arrive() {
        // Ten bytes of payload behind a 16 MiB claim, Records and Trace.
        let mut batch = RecordBatch::new();
        let bytes = claim(KIND_RECORDS, MAX_FRAME_BYTES, 10);
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(r.next(&mut batch).unwrap_err(), Error::Truncated);
        assert!(batch.is_empty());
        assert!(batch.arena_capacity() < 4096, "{}", batch.arena_capacity());

        let bytes = claim(KIND_TRACE, MAX_FRAME_BYTES, 10);
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(r.next(&mut batch).unwrap_err(), Error::Truncated);
        assert!(r.payload.capacity() < 4096, "{}", r.payload.capacity());
    }
}

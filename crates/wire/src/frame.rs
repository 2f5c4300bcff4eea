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
//! version u8 = 1             rejected if unknown
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
//! bounds-checked before allocation (frames above [`MAX_FRAME_BYTES`]
//! are malformed by definition), truncated streams surface
//! [`Error::Truncated`], and unknown kinds or inconsistent interior
//! lengths surface [`Error::Malformed`]. This is property-tested with
//! random corruption in the distributed differential suite.
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

use crate::handoff::RecordBatch;
use crate::pcap::LinkType;
use crate::{be16, be32, be64, Error};
use std::io::{self, Read, Write};

/// Stream magic: identifies a fragment stream in the first four bytes.
pub const MAGIC: [u8; 4] = *b"ZFRG";

/// Current protocol version, bumped on incompatible layout changes.
pub const VERSION: u8 = 1;

/// Upper bound on one frame's payload. A Records frame built from the
/// capture hand-off batches stays well under this; anything larger is a
/// corrupt or hostile length field and is rejected before allocation.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

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
    /// Captured bytes across those records.
    pub bytes: u64,
    /// Batches the worker's fan-in handled.
    pub batches: u64,
    /// Records the worker dropped at full capture rings (lossy policy).
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
        if payload.len() != 40 {
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
    scratch: Vec<u8>,
    records_written: u64,
    frames_written: u64,
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
            scratch: Vec::with_capacity(4096),
            records_written: 0,
            frames_written: 0,
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
        self.frames_written += 1;
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

    /// Encode `batch` as a Records payload into the scratch buffer.
    fn encode_records(&mut self, batch: &RecordBatch) {
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(batch.len() as u32).to_be_bytes());
        for r in batch.iter() {
            self.scratch.extend_from_slice(&r.ts_nanos.to_be_bytes());
            self.scratch.extend_from_slice(&r.orig_len.to_be_bytes());
            self.scratch
                .extend_from_slice(&(r.data.len() as u32).to_be_bytes());
            self.scratch.extend_from_slice(r.data);
        }
    }

    /// Write the scratch buffer — `batch`, encoded — as a Records frame.
    fn write_encoded_records(&mut self, batch: &RecordBatch) -> io::Result<()> {
        let scratch = std::mem::take(&mut self.scratch);
        let res = self.write_frame(KIND_RECORDS, &scratch);
        self.scratch = scratch;
        self.records_written += batch.len() as u64;
        res
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

    /// Records shipped so far across all Records frames.
    pub fn records_written(&self) -> u64 {
        self.records_written
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
/// `Ok(None)` at clean EOF — note that EOF *before* a Bye frame means
/// the stream was cut off; [`saw_bye`](FrameReader::saw_bye)
/// distinguishes the two).
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
        if head[4] != VERSION {
            return Err(Error::Unsupported);
        }
        let mut payload = Vec::new();
        let kind = read_frame(&mut input, &mut payload)?.ok_or(Error::Truncated)?;
        if kind != KIND_HELLO || payload.len() < 6 {
            return Err(Error::Malformed);
        }
        let link = LinkType::from(be32(&payload, 0));
        let label_len = be16(&payload, 4) as usize;
        if payload.len() != 6 + label_len {
            return Err(Error::Malformed);
        }
        let label = std::str::from_utf8(&payload[6..])
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

    /// Whether the stream ended with a proper Bye frame.
    pub fn saw_bye(&self) -> bool {
        self.saw_bye
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

    /// Decodes the next frame. Records are **appended** to `batch`;
    /// `Ok(None)` signals EOF (check [`saw_bye`](Self::saw_bye) for
    /// whether it was a clean end of stream).
    pub fn next(&mut self, batch: &mut RecordBatch) -> Result<Option<FrameEvent>, Error> {
        if self.saw_bye {
            return Ok(None);
        }
        let mut payload = std::mem::take(&mut self.payload);
        let kind = read_frame(&mut self.input, &mut payload);
        self.payload = payload;
        let Some(kind) = kind? else {
            return Ok(None);
        };
        match kind {
            KIND_RECORDS => {
                let count = decode_records(&self.payload, batch)?;
                self.records_read += count as u64;
                Ok(Some(FrameEvent::Records { count }))
            }
            KIND_ACCOUNTING => Ok(Some(FrameEvent::Accounting(Totals::parse(&self.payload)?))),
            KIND_TRACE => {
                if self.payload.len() < 8 {
                    return Err(Error::Malformed);
                }
                Ok(Some(FrameEvent::Trace {
                    trace_id: be64(&self.payload, 0),
                }))
            }
            KIND_BYE => {
                self.saw_bye = true;
                Ok(Some(FrameEvent::Bye(Totals::parse(&self.payload)?)))
            }
            // A second Hello (or anything unknown) mid-stream is corrupt.
            _ => Err(Error::Malformed),
        }
    }
}

/// Reads one `[kind][len][payload]` frame into `payload`. `Ok(None)` at
/// a clean frame boundary EOF; `Err(Truncated)` when the stream ends
/// mid-frame; `Err(Malformed)` on an oversized length field.
fn read_frame<R: Read>(input: &mut R, payload: &mut Vec<u8>) -> Result<Option<u8>, Error> {
    let mut head = [0u8; 5];
    match input.read(&mut head[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(input, payload);
        }
        Err(_) => return Err(Error::Truncated),
    }
    read_exact(input, &mut head[1..])?;
    let kind = head[0];
    let len = be32(&head, 1);
    if len > MAX_FRAME_BYTES {
        return Err(Error::Malformed);
    }
    payload.clear();
    payload.resize(len as usize, 0);
    read_exact(input, payload)?;
    Ok(Some(kind))
}

/// Decodes a Records payload, appending to `batch`; returns the count.
fn decode_records(payload: &[u8], batch: &mut RecordBatch) -> Result<u32, Error> {
    if payload.len() < 4 {
        return Err(Error::Malformed);
    }
    let count = be32(payload, 0);
    let mut off = 4usize;
    for _ in 0..count {
        if payload.len() - off < 16 {
            return Err(Error::Malformed);
        }
        let ts = be64(payload, off);
        let orig_len = be32(payload, off + 8);
        let cap_len = be32(payload, off + 12) as usize;
        off += 16;
        if payload.len() - off < cap_len {
            return Err(Error::Malformed);
        }
        batch.push(ts, orig_len, &payload[off..off + cap_len]);
        off += cap_len;
    }
    if off != payload.len() {
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
        assert_eq!(w.records_written(), 3);
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
        assert!(r.saw_bye());
        assert_eq!(r.records_read(), 3);
        assert_eq!(r.next(&mut batch).unwrap(), None);

        assert_eq!(batch.len(), 3);
        let r1 = batch.get(1).unwrap();
        assert_eq!((r1.ts_nanos, r1.orig_len, r1.data.len()), (20, 1500, 64));
        let r2 = batch.get(2).unwrap();
        assert_eq!((r2.ts_nanos, r2.orig_len), (30, 80));
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
        assert!(matches!(r.next(&mut out).unwrap(), Some(FrameEvent::Bye(_))));
        assert!(r.saw_bye());
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
        assert_eq!(w.records_written(), 64);
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
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(r.next(&mut out).unwrap_err(), Error::Malformed);
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
        // Cut inside the first Records frame.
        let cut = &bytes[..bytes.len() - 50];
        let mut r = FrameReader::new(cut).unwrap();
        let mut batch = RecordBatch::new();
        let mut saw_err = false;
        loop {
            match r.next(&mut batch) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    saw_err = true;
                    assert_eq!(e, Error::Truncated);
                    break;
                }
            }
        }
        assert!(saw_err || !r.saw_bye(), "a cut stream must not look clean");
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
        let records_frame_start = 5 + 5 + (6 + "w".len()); // header + hello frame
        let cap_len_off = records_frame_start + 5 + 4 + 8 + 4;
        bytes[cap_len_off + 3] = 9; // cap_len 10 -> 9: trailing byte left over
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(r.next(&mut out).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn mid_stream_hello_is_malformed() {
        let mut bytes = sample_stream();
        // Corrupt the first Records frame's kind byte into a second
        // Hello: anything but Records/Accounting/Bye mid-stream is bad.
        let records_frame_kind = 5 + 5 + (6 + "worker-a".len());
        bytes[records_frame_kind] = KIND_HELLO;
        let mut r = FrameReader::new(&bytes[..]).unwrap();
        let mut out = RecordBatch::new();
        assert_eq!(r.next(&mut out).unwrap_err(), Error::Malformed);
    }
}

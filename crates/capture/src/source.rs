//! Packet sources: where records enter the capture front-end.
//!
//! A [`PacketSource`] produces timestamp-ordered record batches; the
//! fan-in layer ([`crate::mux`]) runs one capture thread per source and
//! hands the batches to the analysis engine through bounded SPSC rings
//! ([`crate::ring`]). Three adapters cover the deployment shapes from the
//! paper's monitor (§6.1):
//!
//! * [`PcapFileSource`] — an on-disk trace, optionally in *follow* mode
//!   (poll a file another process is still writing, the `analyze
//!   --follow` behavior, now per source instead of hard-coded to one
//!   file).
//! * [`LiveRingSource`] — an AF_PACKET-style ring backend: a producer
//!   thread (in production the kernel; offline, a traffic generator)
//!   pushes batches into a bounded ring via a [`LiveHandle`]. This is the
//!   simulated stand-in for a live socket capture with the same API and
//!   drop semantics.
//! * [`ReplaySource`] — pre-loaded in-memory records, for tests and
//!   benches.
//!
//! Batches are filled into caller-provided [`RecordBatch`]es so the
//! steady state allocates nothing (see [`RecordBatch::clear`]).
//!
//! ```
//! use zoom_capture::source::{PacketSource, ReplaySource};
//! use zoom_wire::handoff::RecordBatch;
//! use zoom_wire::pcap::{LinkType, Record};
//!
//! let records = vec![Record::full(1_000, vec![0u8; 60])];
//! let mut src = ReplaySource::new("replay:demo", LinkType::Ethernet, records);
//!
//! let mut batch = RecordBatch::new();
//! let mut total = 0;
//! loop {
//!     batch.clear();
//!     let live = src.next_batch(&mut batch)?;
//!     total += batch.len(); // drain the batch *before* checking `live`:
//!     if !live {
//!         break; // a source may deliver its final records and Ok(false) together
//!     }
//! }
//! assert_eq!(total, 1);
//! # Ok::<(), zoom_capture::source::SourceError>(())
//! ```

use crate::ring::{self, Consumer, Producer};
use std::fmt;
use std::io::{self, Read};
use std::time::Duration;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Record, READ_BUFFER_BYTES};

/// Records per batch a well-behaved source aims for. Batches may be
/// smaller (a follow-mode poll that found less data) but should not be
/// much larger, so ring occupancy stays predictable. A pcap file's batch
/// is one read chunk ([`PcapFileSource`]), bounded in bytes rather than
/// records: on real traces it holds fewer than this, and a chunk of
/// smaller packets that holds more is copied out in runs by the fan-in
/// ([`crate::mux::CaptureMux::next_batch`]).
pub const BATCH_RECORDS: usize = 128;

/// Soft cap on captured bytes per batch, bounding arena growth for
/// jumbo-heavy traffic.
pub const BATCH_BYTES: usize = 256 * 1024;

/// An error raised by a packet source.
#[derive(Debug)]
pub enum SourceError {
    /// The underlying I/O failed (file vanished, read error, …).
    Io(io::Error),
    /// The input was structurally invalid (bad pcap magic, bad spec, …).
    Format(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "{e}"),
            SourceError::Format(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<io::Error> for SourceError {
    fn from(e: io::Error) -> SourceError {
        SourceError::Io(e)
    }
}

/// A producer of timestamp-ordered packet record batches.
///
/// The contract, designed so one capture loop drives every source kind:
///
/// * [`next_batch`](PacketSource::next_batch) appends records to the
///   caller's (cleared) batch and returns `Ok(true)` while the source is
///   live, `Ok(false)` once it is exhausted. **The final records and
///   `Ok(false)` may arrive together** — always drain the batch before
///   acting on the flag.
/// * An *empty* batch with `Ok(true)` means "no data right now, poll
///   again" — this is how follow-mode and live sources express
///   quiescence without blocking the contract. Sources may sleep briefly
///   internally to pace the poll; they run on a dedicated capture thread.
/// * Records within one source must be in non-decreasing `ts_nanos`
///   order; the fan-in merge relies on it ([`crate::mux`]).
///
/// See the [module documentation](self) for a compiling end-to-end
/// example.
pub trait PacketSource: Send {
    /// Display label for per-source metrics (e.g. `pcap:trace.pcap`).
    fn label(&self) -> &str;

    /// Link type of every record this source yields.
    fn link_type(&self) -> LinkType;

    /// Fills `batch` with the next run of records. See the trait
    /// documentation for the exact contract.
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError>;

    /// Records dropped by the source itself before hand-off (e.g. a torn
    /// pcap tail). Polled once after the source is exhausted.
    fn truncated_records(&self) -> u64 {
        0
    }
}

// ------------------------------------------------------------- pcap file --

/// Follow-mode pacing for [`PcapFileSource`]: how often to re-poll a
/// quiet file and how long a quiet spell ends the source.
#[derive(Debug, Clone, Copy)]
pub struct FollowConfig {
    /// Sleep between polls of a file that had no new complete record.
    pub poll: Duration,
    /// End the source after this much continuous quiet.
    pub idle_exit: Duration,
}

impl Default for FollowConfig {
    fn default() -> FollowConfig {
        FollowConfig {
            poll: Duration::from_millis(200),
            idle_exit: Duration::from_secs(5),
        }
    }
}

/// A pcap file on disk as a [`PacketSource`] — the adapter that turns the
/// original single-file ingest path into one source among many.
///
/// Each batch is one chunk of the file, landed on the batch's arena by a
/// single `read` and indexed where it lies ([`Reader::read_chunk`]): the
/// records reach the consumer with no user-space copy on the way.
///
/// In follow mode the source keeps polling the file for appended records
/// (a live capture being written by another process) and only reports
/// exhaustion after [`FollowConfig::idle_exit`] of quiet, reproducing the
/// pre-existing `analyze --follow` loop per source. A record the writer
/// has only half appended is held back until the rest arrives; it counts
/// as truncated only if the source ends first.
pub struct PcapFileSource {
    label: String,
    reader: Reader<ReadAhead>,
    follow: Option<FollowConfig>,
    quiet: Duration,
}

impl PcapFileSource {
    /// Opens `path` and validates its pcap global header. A file that
    /// cannot be opened is [`SourceError::Io`]; one whose header is not a
    /// pcap header is [`SourceError::Format`]. Both messages name `path`.
    pub fn open(path: &str) -> Result<PcapFileSource, SourceError> {
        let io_error =
            |e: io::Error| SourceError::Io(io::Error::new(e.kind(), format!("{path}: {e}")));
        let file = std::fs::File::open(path).map_err(io_error)?;
        let file = ReadAhead::new(file).map_err(io_error)?;
        let reader = Reader::new(file).map_err(|e| SourceError::Format(format!("{path}: {e}")))?;
        Ok(PcapFileSource {
            label: format!("pcap:{path}"),
            reader,
            follow: None,
            quiet: Duration::ZERO,
        })
    }

    /// Enables follow mode with the given pacing.
    pub fn follow(mut self, config: FollowConfig) -> PcapFileSource {
        self.follow = Some(config);
        self
    }
}

/// A file whose first chunk was read to check its header: the header and
/// the records behind it arrive with one `read`, as every later chunk does.
struct ReadAhead {
    file: std::fs::File,
    /// What the first read returned and has not been handed on yet.
    head: Vec<u8>,
    at: usize,
}

impl ReadAhead {
    fn new(mut file: std::fs::File) -> io::Result<ReadAhead> {
        let mut head = vec![0; READ_BUFFER_BYTES];
        let got = loop {
            match file.read(&mut head) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                got => break got?,
            }
        };
        head.truncate(got);
        Ok(ReadAhead { file, head, at: 0 })
    }
}

impl Read for ReadAhead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at == self.head.len() {
            return self.file.read(buf);
        }
        let n = buf.len().min(self.head.len() - self.at);
        buf[..n].copy_from_slice(&self.head[self.at..self.at + n]);
        self.at += n;
        if self.at == self.head.len() {
            (self.head, self.at) = (Vec::new(), 0);
        }
        Ok(n)
    }
}

impl PacketSource for PcapFileSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn link_type(&self) -> LinkType {
        self.reader.link_type()
    }

    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
        let more = self.reader.read_chunk(batch)?;
        if !batch.is_empty() {
            self.quiet = Duration::ZERO;
            return Ok(more || self.follow.is_some());
        }
        // End of file. In follow mode the producer may append more (or
        // finish a torn record) before `idle_exit` runs out.
        let Some(follow) = self.follow else {
            return Ok(false);
        };
        if self.quiet >= follow.idle_exit {
            return Ok(false);
        }
        std::thread::sleep(follow.poll);
        self.quiet += follow.poll;
        Ok(true)
    }

    fn truncated_records(&self) -> u64 {
        self.reader.truncated_records()
    }
}

// ---------------------------------------------------------------- replay --

/// Pre-loaded in-memory records as a [`PacketSource`], for tests,
/// benches, and the differential suites.
pub struct ReplaySource {
    label: String,
    link: LinkType,
    records: Vec<Record>,
    cursor: usize,
}

impl ReplaySource {
    /// A source that serves `records` (which must be in non-decreasing
    /// `ts_nanos` order) in [`BATCH_RECORDS`]-sized batches.
    pub fn new(label: &str, link: LinkType, records: Vec<Record>) -> ReplaySource {
        debug_assert!(records.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        ReplaySource {
            label: label.to_string(),
            link,
            records,
            cursor: 0,
        }
    }
}

impl PacketSource for ReplaySource {
    fn label(&self) -> &str {
        &self.label
    }

    fn link_type(&self) -> LinkType {
        self.link
    }

    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
        while self.cursor < self.records.len()
            && batch.len() < BATCH_RECORDS
            && batch.arena_bytes() < BATCH_BYTES
        {
            let r = &self.records[self.cursor];
            batch.push(r.ts_nanos, r.orig_len, &r.data);
            self.cursor += 1;
        }
        Ok(self.cursor < self.records.len())
    }
}

// ------------------------------------------------------------- live ring --

/// Creates an AF_PACKET-style simulated live capture: a bounded ring of
/// record batches with a [`LiveHandle`] for the producing side (in
/// production the kernel's ring; offline, a generator thread) and a
/// [`LiveRingSource`] for the capture side. `capacity` is the ring depth
/// in batches.
///
/// Batches are recycled from consumer back to producer through a second
/// ring, so a producer that calls [`LiveHandle::take_batch`] allocates
/// only until the ring is primed — zero allocation at steady state, the
/// same discipline as the kernel mapping its ring pages once.
pub fn live_ring(
    label: &str,
    link: LinkType,
    capacity: usize,
) -> (LiveHandle, LiveRingSource) {
    let (data_tx, data_rx) = ring::spsc::<RecordBatch>(capacity);
    let (recycle_tx, recycle_rx) = ring::spsc::<RecordBatch>(capacity + 2);
    (
        LiveHandle {
            data_tx,
            recycle_rx,
            dropped_batches: 0,
        },
        LiveRingSource {
            label: label.to_string(),
            link,
            data_rx,
            recycle_tx,
            poll: Duration::from_millis(1),
        },
    )
}

/// The producing end of a [`live_ring`]: what the packet-delivering side
/// (kernel stand-in) holds.
pub struct LiveHandle {
    data_tx: Producer<RecordBatch>,
    recycle_rx: Consumer<RecordBatch>,
    dropped_batches: u64,
}

impl LiveHandle {
    /// A batch to fill: recycled from the consumer when available, fresh
    /// otherwise. Recycled batches arrive cleared with their capacity
    /// intact.
    pub fn take_batch(&mut self) -> RecordBatch {
        self.recycle_rx.try_pop().unwrap_or_default()
    }

    /// Offers a batch without blocking — live-capture semantics: a full
    /// ring means the consumer fell behind and the batch is dropped on
    /// the floor (returned for recycling, counted in
    /// [`dropped_batches`](LiveHandle::dropped_batches)), exactly like a
    /// NIC ring overrun.
    pub fn try_push_batch(&mut self, batch: RecordBatch) -> Result<(), RecordBatch> {
        self.data_tx.try_push(batch).map_err(|mut b| {
            self.dropped_batches += 1;
            b.clear();
            b
        })
    }

    /// Offers a batch, waiting for ring space — lossless-feeder semantics
    /// for deterministic replay through the live API. Returns the batch
    /// back when the consuming source is gone.
    pub fn push_batch_blocking(&mut self, batch: RecordBatch) -> Result<(), RecordBatch> {
        let mut pending = batch;
        loop {
            match self.data_tx.try_push(pending) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    if self.data_tx.is_closed() {
                        return Err(back);
                    }
                    pending = back;
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Whether the consuming [`LiveRingSource`] has been dropped.
    pub fn is_closed(&self) -> bool {
        self.data_tx.is_closed()
    }

    /// Batches dropped at a full ring by
    /// [`try_push_batch`](LiveHandle::try_push_batch).
    pub fn dropped_batches(&self) -> u64 {
        self.dropped_batches
    }
}

/// The consuming end of a [`live_ring`], as a [`PacketSource`]. Exhausted
/// once the [`LiveHandle`] is dropped and the ring is drained.
pub struct LiveRingSource {
    label: String,
    link: LinkType,
    data_rx: Consumer<RecordBatch>,
    recycle_tx: Producer<RecordBatch>,
    poll: Duration,
}

impl PacketSource for LiveRingSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn link_type(&self) -> LinkType {
        self.link
    }

    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
        match self.data_rx.try_pop() {
            Some(mut filled) => {
                // Take the filled batch and send the caller's empty one
                // back to the producer for reuse.
                std::mem::swap(batch, &mut filled);
                filled.clear();
                let _ = self.recycle_tx.try_push(filled);
                Ok(true)
            }
            None if self.data_rx.is_closed() => Ok(false),
            None => {
                std::thread::sleep(self.poll);
                Ok(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, len: usize) -> Record {
        Record::full(ts, vec![0xAB; len])
    }

    fn drain(src: &mut dyn PacketSource) -> Vec<u64> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            batch.clear();
            let live = src.next_batch(&mut batch).unwrap();
            out.extend(batch.iter().map(|r| r.ts_nanos));
            if !live {
                return out;
            }
        }
    }

    #[test]
    fn replay_batches_and_exhausts() {
        let records: Vec<Record> = (0..300).map(|i| rec(i, 64)).collect();
        let mut src = ReplaySource::new("replay:t", LinkType::Ethernet, records);
        let ts = drain(&mut src);
        assert_eq!(ts.len(), 300);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn replay_respects_byte_cap() {
        let records: Vec<Record> = (0..8).map(|i| rec(i, BATCH_BYTES / 2)).collect();
        let mut src = ReplaySource::new("replay:big", LinkType::Ethernet, records);
        let mut batch = RecordBatch::new();
        src.next_batch(&mut batch).unwrap();
        // The byte cap is a soft limit checked before each push.
        assert!(batch.len() <= 2, "batch held {} jumbo records", batch.len());
    }

    #[test]
    fn pcap_source_reads_file_and_counts_truncation() {
        let dir = std::env::temp_dir().join(format!("zc-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        let mut w = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
        for i in 0..10 {
            w.write_record(&rec(i * 1_000, 60)).unwrap();
        }
        let mut img = w.finish().unwrap();
        // Torn tail: half a record header.
        img.extend_from_slice(&[0u8; 7]);
        std::fs::write(&path, &img).unwrap();

        let mut src = PcapFileSource::open(path.to_str().unwrap()).unwrap();
        assert_eq!(src.link_type(), LinkType::Ethernet);
        assert!(src.label().starts_with("pcap:"));
        let ts = drain(&mut src);
        assert_eq!(ts.len(), 10);
        assert_eq!(src.truncated_records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_mode_sees_appended_records_then_idles_out() {
        let dir = std::env::temp_dir().join(format!("zc-follow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.pcap");
        let mut w = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
        w.write_record(&rec(1_000, 60)).unwrap();
        let img = w.finish().unwrap();
        std::fs::write(&path, &img).unwrap();

        let mut src = PcapFileSource::open(path.to_str().unwrap())
            .unwrap()
            .follow(FollowConfig {
                poll: Duration::from_millis(5),
                idle_exit: Duration::from_millis(200),
            });

        // Writer thread appends one more record after a delay.
        let path2 = path.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let mut w = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
            w.write_record(&rec(2_000, 60)).unwrap();
            let img2 = w.finish().unwrap();
            // Append just the record (skip the 24-byte global header).
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path2).unwrap();
            f.write_all(&img2[24..]).unwrap();
        });

        let ts = drain(&mut src);
        writer.join().unwrap();
        assert_eq!(ts, vec![1_000, 2_000]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follow_mode_holds_a_torn_append_until_the_rest_arrives() {
        let dir = std::env::temp_dir().join(format!("zc-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.pcap");
        let mut w = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
        for i in 0..1_000 {
            w.write_record(&rec(i * 1_000, 60 + (i as usize % 7) * 100))
                .unwrap();
        }
        let img = w.finish().unwrap();
        let mut w = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
        w.write_record(&rec(1_000_000, 700)).unwrap();
        let last = w.finish().unwrap()[24..].to_vec();
        std::fs::write(&path, &img).unwrap();

        let mut src = PcapFileSource::open(path.to_str().unwrap())
            .unwrap()
            .follow(FollowConfig {
                poll: Duration::from_millis(5),
                idle_exit: Duration::from_millis(200),
            });

        // The writer appends the first 30 bytes of a record, pauses past
        // several polls, then appends the rest.
        let path2 = path.clone();
        let writer = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path2)
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            f.write_all(&last[..30]).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            f.write_all(&last[30..]).unwrap();
        });

        let ts = drain(&mut src);
        writer.join().unwrap();
        assert_eq!(ts.len(), 1_001);
        assert_eq!(ts.last(), Some(&1_000_000));
        assert_eq!(src.truncated_records(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_ring_transfers_and_closes() {
        let (mut handle, mut src) = live_ring("live:test", LinkType::Ethernet, 4);
        let feeder = std::thread::spawn(move || {
            for i in 0..50u64 {
                let mut b = handle.take_batch();
                b.push(i * 100, 60, &[0u8; 60]);
                handle.push_batch_blocking(b).unwrap();
            }
            assert_eq!(handle.dropped_batches(), 0);
        });
        let ts = drain(&mut src);
        feeder.join().unwrap();
        assert_eq!(ts.len(), 50);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn live_ring_drops_when_full() {
        let (mut handle, src) = live_ring("live:lossy", LinkType::Ethernet, 1);
        let mut b = handle.take_batch();
        b.push(1, 60, &[0u8; 60]);
        handle.try_push_batch(b).unwrap();
        let mut b = handle.take_batch();
        b.push(2, 60, &[0u8; 60]);
        let back = handle.try_push_batch(b).unwrap_err();
        assert!(back.is_empty(), "dropped batch comes back cleared");
        assert_eq!(handle.dropped_batches(), 1);
        drop(src);
        assert!(handle.is_closed());
    }
}

//! Classic libpcap trace file reader and writer.
//!
//! Supports both the microsecond (magic `0xA1B2C3D4`) and nanosecond
//! (`0xA1B23C4D`) variants in either byte order, link types Ethernet (1)
//! and raw IP (101). This is all the paper's offline toolchain needs to
//! exchange traces with tcpdump/Wireshark.
//!
//! Two ingest paths are offered:
//!
//! * the **chunk** path — [`Reader::read_chunk`] lands a whole chunk of
//!   the file on a capture hand-off [`RecordBatch`]'s arena with one
//!   `read` and indexes every complete record where it landed: no copy
//!   between the kernel's and the batch's, which is what a capture source
//!   hands on, and what every analysis route reads with;
//! * the **per-record** path — [`Reader::read_into`] reuses one growable
//!   [`RecordBuf`] across records (zero steady-state allocations) for the
//!   tools that walk a trace record by record; [`RecordBuf::to_record`]
//!   copies one out where an owned [`Record`] is needed.
//!
//! Both share one record-header parser and count records, bytes and torn
//! tails alike, so the paths cannot drift.

use crate::handoff::{RecordBatch, RecordRef};
use crate::Error;
use std::io::{self, Read, Write};

/// Magic for microsecond-resolution files.
pub const MAGIC_USEC: u32 = 0xA1B2_C3D4;
/// Magic for nanosecond-resolution files.
pub const MAGIC_NSEC: u32 = 0xA1B2_3C4D;

/// Bytes per `read` of a pcap file — the chunk [`Reader::read_chunk`]
/// lands — and per `write` of a capture's output. With std's 8 KiB
/// `BufReader` default a read loop issued one `read` call per handful of
/// records; reading a page-cached 207 MB trace took 38–48 ms at 8 KiB and
/// 27–29 ms from 64 KiB up.
pub const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Link types we understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// DLT_EN10MB — Ethernet.
    Ethernet,
    /// DLT_RAW — raw IP starting at the version nibble.
    RawIp,
    /// Anything else.
    Other(u32),
}

impl From<u32> for LinkType {
    fn from(v: u32) -> Self {
        match v {
            1 => LinkType::Ethernet,
            101 => LinkType::RawIp,
            other => LinkType::Other(other),
        }
    }
}

impl From<LinkType> for u32 {
    fn from(v: LinkType) -> u32 {
        match v {
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
            LinkType::Other(other) => other,
        }
    }
}

/// One captured packet: a nanosecond timestamp and the captured bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Nanoseconds since the Unix epoch (or since trace start for
    /// synthetic traces).
    pub ts_nanos: u64,
    /// Original (on-the-wire) length; `data.len()` may be smaller if the
    /// capture clipped the packet.
    pub orig_len: u32,
    /// Captured bytes.
    pub data: Vec<u8>,
}

impl Record {
    /// A record whose snap length covers the whole packet.
    pub fn full(ts_nanos: u64, data: Vec<u8>) -> Record {
        Record {
            ts_nanos,
            orig_len: data.len() as u32,
            data,
        }
    }
}

/// A reusable record buffer for [`Reader::read_into`]: the data `Vec`
/// grows to the largest record seen and is then reused, so a steady-state
/// read loop performs no allocations at all.
#[derive(Debug, Default, Clone)]
pub struct RecordBuf {
    ts_nanos: u64,
    orig_len: u32,
    data: Vec<u8>,
}

impl RecordBuf {
    /// An empty buffer; the first read sizes it.
    pub fn new() -> RecordBuf {
        RecordBuf::default()
    }

    /// A buffer pre-sized for records up to `cap` bytes.
    pub fn with_capacity(cap: usize) -> RecordBuf {
        RecordBuf {
            data: Vec::with_capacity(cap),
            ..RecordBuf::default()
        }
    }

    /// Capture timestamp of the buffered record, nanoseconds.
    pub fn ts_nanos(&self) -> u64 {
        self.ts_nanos
    }

    /// Original (on-the-wire) length of the buffered record.
    pub fn orig_len(&self) -> u32 {
        self.orig_len
    }

    /// Captured bytes of the buffered record.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Length of the buffered record on the wire: `orig_len`, or the
    /// captured length where the file left `orig_len` below it.
    pub fn wire_len(&self) -> usize {
        (self.orig_len as usize).max(self.data.len())
    }

    /// Clone the buffered record into an owning [`Record`].
    pub fn to_record(&self) -> Record {
        Record {
            ts_nanos: self.ts_nanos,
            orig_len: self.orig_len,
            data: self.data.clone(),
        }
    }
}

/// Longest record a file of the given snap length may hold: twice the
/// snap length (or the classic 65 535 where the header says less), as far
/// as a `u32` goes. A hostile header can push this to "no limit"; the
/// readers therefore never allocate for a length they have only been told
/// (see [`Reader::read_into`]).
fn max_record_len(snaplen: u32) -> u32 {
    snaplen.max(65_535).saturating_mul(2)
}

/// [`Reader::read_into`] grows its buffer this far ahead of the bytes that
/// have arrived: more than any real record, so a real record is one read.
const READ_STEP: usize = 256 * 1024;

/// How a file's record headers read: byte order, timestamp resolution
/// and the longest record its snap length allows.
#[derive(Debug, Clone, Copy)]
struct Format {
    swapped: bool,
    nanos: bool,
    max_len: u32,
}

/// Parsed pcap global header: the record format, link type and snap
/// length.
fn parse_global_header(hdr: &[u8; 24]) -> io::Result<(Format, LinkType, u32)> {
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let (swapped, nanos) = match magic {
        MAGIC_USEC => (false, false),
        MAGIC_NSEC => (false, true),
        m if m.swap_bytes() == MAGIC_USEC => (true, false),
        m if m.swap_bytes() == MAGIC_NSEC => (true, true),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a pcap file (bad magic)",
            ))
        }
    };
    let rd32 = |o: usize| {
        let v = u32::from_le_bytes([hdr[o], hdr[o + 1], hdr[o + 2], hdr[o + 3]]);
        if swapped {
            v.swap_bytes()
        } else {
            v
        }
    };
    let snaplen = rd32(16);
    let format = Format {
        swapped,
        nanos,
        max_len: max_record_len(snaplen),
    };
    Ok((format, LinkType::from(rd32(20)), snaplen))
}

impl Format {
    /// Parse and check one 16-byte record header.
    fn record_header(self, hdr: &[u8]) -> io::Result<RecordHeader> {
        let rd32 = |o: usize| {
            let v = u32::from_le_bytes([hdr[o], hdr[o + 1], hdr[o + 2], hdr[o + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let ts_sec = u64::from(rd32(0));
        let ts_frac = u64::from(rd32(4));
        let incl_len = rd32(8);
        if incl_len > self.max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pcap record longer than twice the snap length",
            ));
        }
        let frac_nanos = if self.nanos { ts_frac } else { ts_frac * 1_000 };
        Ok(RecordHeader {
            ts_nanos: ts_sec * 1_000_000_000 + frac_nanos,
            incl_len,
            orig_len: rd32(12),
        })
    }
}

/// Read until `buf` is full or EOF; returns the bytes actually read.
/// Unlike `read_exact`, a short read is reported by count, not error, so
/// callers can tell a clean EOF (0) from a truncated tail (0 < n < len).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Length of a pcap record header.
const RECORD_HEADER_BYTES: usize = 16;

/// Room [`Reader::read_chunk`] makes, on first use, for the torn record it
/// carries from one chunk to the next: any Ethernet-sized record fits, so
/// a warm capture loop does not grow it.
const CARRY_BYTES: usize = 2 * 1024;

/// One record's parsed header.
struct RecordHeader {
    ts_nanos: u64,
    /// Captured bytes that follow the header.
    incl_len: u32,
    orig_len: u32,
}

/// Streaming pcap reader.
pub struct Reader<R: Read> {
    inner: R,
    format: Format,
    link_type: LinkType,
    snaplen: u32,
    /// The torn record at the end of what [`read_chunk`](Reader::read_chunk)
    /// has landed so far, waiting for the rest of its bytes.
    carry: Vec<u8>,
    truncated: u64,
    records_read: u64,
    bytes_read: u64,
}

impl<R: Read> Reader<R> {
    /// Read and validate the global header.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let (format, link_type, snaplen) = parse_global_header(&hdr)?;
        Ok(Reader {
            inner,
            format,
            link_type,
            snaplen,
            carry: Vec::new(),
            truncated: 0,
            records_read: 0,
            bytes_read: 0,
        })
    }

    /// The file's link type.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The file's snap length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Records dropped because the file ended mid-record (a capture cut
    /// off mid-write). Such a tail yields `Ok(None)` / `Ok(false)` rather
    /// than an error; this counter is the warning channel. A torn record
    /// [`read_chunk`](Reader::read_chunk) still holds counts too: it is
    /// what a reader stopped now would drop, and it stops counting if the
    /// rest of its bytes arrive.
    pub fn truncated_records(&self) -> u64 {
        self.truncated + u64::from(!self.carry.is_empty())
    }

    /// Complete records delivered so far, whichever read path delivered
    /// them.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Captured payload bytes delivered so far (record data only, not
    /// pcap framing).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Read and check the next 16-byte record header. `Ok(None)` at end
    /// of file; a header cut short counts as a truncated record.
    fn read_header(&mut self) -> io::Result<Option<RecordHeader>> {
        debug_assert!(self.carry.is_empty(), "read_into after read_chunk");
        let mut hdr = [0u8; RECORD_HEADER_BYTES];
        let got = read_fully(&mut self.inner, &mut hdr)?;
        if got == 0 {
            return Ok(None);
        }
        if got < hdr.len() {
            self.truncated += 1;
            return Ok(None);
        }
        self.format.record_header(&hdr).map(Some)
    }

    /// Account the record behind `header`: delivered when its payload was
    /// `complete`, a truncated tail otherwise. Passes `complete` on.
    fn note_record(&mut self, header: &RecordHeader, complete: bool) -> bool {
        if complete {
            self.records_read += 1;
            self.bytes_read += u64::from(header.incl_len);
        } else {
            self.truncated += 1;
        }
        complete
    }

    /// Read the next record into `buf`, reusing its storage: the
    /// zero-copy fast path. Returns `Ok(false)` at end of file (including
    /// a truncated final record, which also bumps
    /// [`truncated_records`](Reader::truncated_records)); `buf` holds the
    /// new record only when `Ok(true)` is returned. The buffer grows with
    /// the bytes that arrive, a step at a time, not with the length the
    /// record header claims.
    pub fn read_into(&mut self, buf: &mut RecordBuf) -> io::Result<bool> {
        let Some(header) = self.read_header()? else {
            return Ok(false);
        };
        let want = header.incl_len as usize;
        buf.data.clear();
        let mut complete = true;
        while complete && buf.data.len() < want {
            let have = buf.data.len();
            buf.data.resize(want.min(have + READ_STEP), 0);
            let got = read_fully(&mut self.inner, &mut buf.data[have..])?;
            complete = have + got == buf.data.len();
        }
        if !self.note_record(&header, complete) {
            buf.data.clear();
            return Ok(false);
        }
        buf.ts_nanos = header.ts_nanos;
        buf.orig_len = header.orig_len;
        Ok(true)
    }

    /// Lands the next chunk of the file on `batch`'s arena tail with one
    /// `read` of [`READ_BUFFER_BYTES`] and indexes every complete record
    /// where it landed: the capture path, with no copy between the
    /// kernel's bytes and the batch's. Records are appended; each is
    /// checked, decoded and counted exactly as
    /// [`read_into`](Reader::read_into) does.
    ///
    /// The torn record at the end of the chunk stays with the reader and
    /// leads the next chunk, so a file another process is still writing
    /// loses nothing at a torn append; until the rest arrives it counts in
    /// [`truncated_records`](Reader::truncated_records). Only when not
    /// one record is complete (a record longer than the chunk) does a
    /// call read again, and the arena grows with the bytes that arrive,
    /// not with the length a header claims.
    ///
    /// Returns `Ok(false)` once a read found the end of the file (records
    /// may still have been appended: a follow-mode caller polls again
    /// later), `Ok(true)` otherwise. A record header whose length exceeds
    /// the snap-length bound is an error once the records before it are
    /// delivered; an `Err` leaves `batch` as it was.
    pub fn read_chunk(&mut self, batch: &mut RecordBatch) -> io::Result<bool> {
        let Reader {
            inner,
            format,
            carry,
            ..
        } = self;
        if carry.capacity() == 0 {
            carry.reserve(CARRY_BYTES);
        }
        let (mut records, mut bytes) = (0u64, 0u64);
        let more = batch.append_framed(|tail| {
            // Room for the carry and one chunk, sized exactly: a warm
            // arena keeps it, and the two a lane alternates stay small.
            let arena = tail.arena();
            arena.reserve_exact(carry.len().max(CARRY_BYTES) + READ_BUFFER_BYTES);
            arena.extend_from_slice(carry);
            // `filled` bytes of the tail have landed; past them it is
            // zeroed room for the next read.
            let (mut filled, mut done, mut more) = (carry.len(), 0, true);
            loop {
                while let Some(hdr) = tail.bytes()[..filled].get(done..done + RECORD_HEADER_BYTES) {
                    let header = match format.record_header(hdr) {
                        Ok(header) => header,
                        // The records before the bad header go out now;
                        // the next call starts at it and fails.
                        Err(_) if records > 0 => break,
                        Err(e) => {
                            carry.clear();
                            return Err(e);
                        }
                    };
                    let at = done + RECORD_HEADER_BYTES;
                    let end = at + header.incl_len as usize;
                    if end > filled {
                        break;
                    }
                    tail.index(header.ts_nanos, header.orig_len, at, end - at);
                    records += 1;
                    bytes += u64::from(header.incl_len);
                    done = end;
                }
                if records > 0 || !more {
                    break;
                }
                if filled == tail.bytes().len() {
                    let arena = tail.arena();
                    arena.resize(arena.len() + READ_BUFFER_BYTES, 0);
                }
                let got = loop {
                    match inner.read(&mut tail.bytes_mut()[filled..]) {
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        got => break got?,
                    }
                };
                more = got > 0;
                filled += got;
            }
            carry.clear();
            carry.extend_from_slice(&tail.bytes()[done..filled]);
            tail.truncate(done);
            Ok(more)
        })?;
        self.records_read += records;
        self.bytes_read += bytes;
        Ok(more)
    }
}

/// Streaming pcap writer (nanosecond resolution, native byte order).
pub struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    /// Write the global header and return the writer.
    pub fn new(mut inner: W, link_type: LinkType) -> io::Result<Self> {
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_NSEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // minor
        hdr[16..20].copy_from_slice(&262_144u32.to_le_bytes()); // snaplen
        hdr[20..24].copy_from_slice(&u32::from(link_type).to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(Writer { inner })
    }

    /// Append one record.
    ///
    /// The written original length is `max(orig_len, data.len())`: snapped
    /// records (`orig_len > data.len()`) round-trip exactly, and a record
    /// whose `orig_len` was left at 0 (or otherwise below the captured
    /// length — malformed in pcap) is normalized so the file stays
    /// well-formed for other tools.
    pub fn write_record(&mut self, record: &Record) -> io::Result<()> {
        self.write_ref(RecordRef {
            ts_nanos: record.ts_nanos,
            orig_len: record.orig_len,
            data: &record.data,
        })
    }

    /// Append one record borrowed from a [`RecordBatch`], from where it
    /// lies: [`write_record`](Writer::write_record) without an owning copy.
    pub fn write_ref(&mut self, record: RecordRef<'_>) -> io::Result<()> {
        let mut hdr = [0u8; RECORD_HEADER_BYTES];
        let secs = (record.ts_nanos / 1_000_000_000) as u32;
        let nanos = (record.ts_nanos % 1_000_000_000) as u32;
        let orig_len = record.orig_len.max(record.data.len() as u32);
        hdr[0..4].copy_from_slice(&secs.to_le_bytes());
        hdr[4..8].copy_from_slice(&nanos.to_le_bytes());
        hdr[8..12].copy_from_slice(&(record.data.len() as u32).to_le_bytes());
        hdr[12..16].copy_from_slice(&orig_len.to_le_bytes());
        self.inner.write_all(&hdr)?;
        self.inner.write_all(record.data)
    }

    /// Flush and recover the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Convert an [`Error`] from a parser into `io::Error` when bridging the
/// two worlds in trace-processing loops.
pub fn to_io(e: Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_trace(records: &[Record]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf, LinkType::Ethernet).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    /// Every record `r` has left, each copied out of one reused buffer.
    fn read_all<R: Read>(mut r: Reader<R>) -> Vec<Record> {
        let mut buf = RecordBuf::new();
        let mut out = Vec::new();
        while r.read_into(&mut buf).unwrap() {
            out.push(buf.to_record());
        }
        out
    }

    fn roundtrip(records: &[Record]) -> Vec<Record> {
        let buf = write_trace(records);
        let r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::Ethernet);
        read_all(r)
    }

    #[test]
    fn empty_file_roundtrip() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn records_roundtrip_with_nanos() {
        let records = vec![
            Record::full(1_234_567_891, vec![1, 2, 3]),
            Record::full(9_999_999_999_999, vec![0; 1500]),
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn snapped_record_keeps_orig_len() {
        let rec = Record {
            ts_nanos: 5,
            orig_len: 1500,
            data: vec![7; 96],
        };
        let got = roundtrip(std::slice::from_ref(&rec));
        assert_eq!(got[0].orig_len, 1500);
        assert_eq!(got[0].data.len(), 96);
    }

    #[test]
    fn undersized_orig_len_normalized_on_write() {
        // orig_len below the captured length is malformed pcap; the
        // writer raises it to data.len() so the file round-trips into a
        // well-formed record.
        let rec = Record {
            ts_nanos: 1,
            orig_len: 0,
            data: vec![9; 40],
        };
        let got = roundtrip(std::slice::from_ref(&rec));
        assert_eq!(got[0].orig_len, 40);
        assert_eq!(got[0].data, rec.data);
    }

    #[test]
    fn microsecond_file_parses() {
        // Hand-built µs-resolution header + one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_USEC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&65_535u32.to_le_bytes());
        buf.extend_from_slice(&101u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // sec
        buf.extend_from_slice(&500u32.to_le_bytes()); // µs
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::RawIp);
        let recs = read_all(r);
        assert_eq!(recs[0].ts_nanos, 1_000_000_000 + 500_000);
        assert_eq!(recs[0].data, vec![0xAA, 0xBB]);
    }

    #[test]
    fn big_endian_file_parses() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&65_535u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(0x42);
        let recs = read_all(Reader::new(&buf[..]).unwrap());
        assert_eq!(recs[0].data, vec![0x42]);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(Reader::new(&buf[..]).is_err());
    }

    #[test]
    fn truncated_final_record_is_clean_eof_with_warning() {
        // Cut into the record *data*: the reader reports a clean end of
        // file and counts the dropped tail instead of erroring.
        let mut buf = write_trace(&[
            Record::full(0, vec![1, 2, 3, 4]),
            Record::full(1, vec![5, 6, 7, 8]),
        ]);
        buf.truncate(buf.len() - 2);
        let mut r = Reader::new(&buf[..]).unwrap();
        let mut rec = RecordBuf::new();
        assert!(r.read_into(&mut rec).unwrap());
        assert_eq!(rec.data(), [1, 2, 3, 4]);
        assert!(!r.read_into(&mut rec).unwrap());
        assert_eq!(r.truncated_records(), 1);
    }

    #[test]
    fn truncated_record_header_is_clean_eof_with_warning() {
        // Cut into the 16-byte per-record header itself.
        let mut buf = write_trace(&[Record::full(0, vec![1, 2, 3, 4])]);
        buf.truncate(buf.len() - 4 - 10); // keep 6 of the 16 header bytes
        let mut r = Reader::new(&buf[..]).unwrap();
        assert!(!r.read_into(&mut RecordBuf::new()).unwrap());
        assert_eq!(r.truncated_records(), 1);
    }

    #[test]
    fn a_claimed_record_length_allocates_nothing_until_bytes_arrive() {
        // 140 bytes of file: a global header whose snap length lifts the
        // record bound to "no limit" (`0xFFFF_FFFF`: doubling it used to
        // overflow), one record header claiming 3 GiB, 100 bytes of data.
        let mut buf = write_trace(&[]);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        buf.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        buf.extend_from_slice(&[0xAB; 100]);
        assert_eq!(buf.len(), 140);

        let mut r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.snaplen(), u32::MAX);
        let mut rec = RecordBuf::new();
        assert!(!r.read_into(&mut rec).unwrap());
        assert_eq!((r.truncated_records(), r.records_read()), (1, 0));
        assert!(rec.data.capacity() <= READ_STEP, "{}", rec.data.capacity());

        let mut r = Reader::new(&buf[..]).unwrap();
        let mut batch = RecordBatch::new();
        assert!(!r.read_chunk(&mut batch).unwrap());
        assert_eq!((r.truncated_records(), batch.len()), (1, 0));
        assert_eq!(r.carry.capacity(), CARRY_BYTES);
        assert!(batch.arena_capacity() <= CARRY_BYTES + READ_BUFFER_BYTES);

        // A real record longer than one growth step still reads whole.
        let long = Record::full(3, (0..READ_STEP + 1_000).map(|i| i as u8).collect());
        let mut buf = write_trace(std::slice::from_ref(&long));
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Reader::new(&buf[..]).unwrap();
        assert!(r.read_into(&mut rec).unwrap());
        assert_eq!(rec.to_record(), long);
    }

    #[test]
    fn read_into_reuses_one_buffer_and_matches_owning_path() {
        let records = vec![
            Record::full(10, vec![0xAB; 1400]),
            Record::full(20, vec![0xCD; 60]),
            Record {
                ts_nanos: 30,
                orig_len: 9000,
                data: vec![0xEF; 1200],
            },
        ];
        let img = write_trace(&records);

        let mut fast = Vec::new();
        let mut reader = Reader::new(&img[..]).unwrap();
        let mut buf = RecordBuf::new();
        while reader.read_into(&mut buf).unwrap() {
            assert!(buf.data().len() <= buf.data.capacity());
            fast.push(buf.to_record());
        }
        assert_eq!(fast, records);
        // The buffer grew once to the largest record and stayed there.
        assert_eq!(buf.data.capacity(), 1400);
        assert_eq!(reader.truncated_records(), 0);
    }

    #[test]
    fn readers_count_records_and_bytes() {
        let records = vec![
            Record::full(1, vec![0x11; 100]),
            Record::full(2, vec![0x22; 60]),
        ];
        let img = write_trace(&records);

        let mut r = Reader::new(&img[..]).unwrap();
        let mut buf = RecordBuf::new();
        while r.read_into(&mut buf).unwrap() {}
        assert_eq!(r.records_read(), 2);
        assert_eq!(r.bytes_read(), 160);

        // A truncated tail is not counted as read.
        let mut cut = img.clone();
        cut.truncate(cut.len() - 2);
        let mut r = Reader::new(&cut[..]).unwrap();
        while r.read_into(&mut buf).unwrap() {}
        assert_eq!((r.records_read(), r.truncated_records()), (1, 1));
        assert_eq!(r.bytes_read(), 100);
    }

    /// A reader that hands out at most `step` bytes per `read`, so a
    /// chunk lands in several pieces and records straddle them.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A pcap image in any of the four header formats: `swapped` writes
    /// big-endian fields on this little-endian layout, `nanos` the
    /// nanosecond magic. Timestamps must be whole microseconds for the
    /// µs format to carry them.
    fn image(swapped: bool, nanos: bool, snaplen: u32, records: &[Record]) -> Vec<u8> {
        let field = |v: u32| {
            if swapped {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let mut img = Vec::new();
        img.extend_from_slice(&field(if nanos { MAGIC_NSEC } else { MAGIC_USEC }));
        img.extend_from_slice(&[0; 12]);
        img.extend_from_slice(&field(snaplen));
        img.extend_from_slice(&field(1));
        for r in records {
            let frac = r.ts_nanos % 1_000_000_000;
            img.extend_from_slice(&field((r.ts_nanos / 1_000_000_000) as u32));
            img.extend_from_slice(&field(if nanos { frac } else { frac / 1_000 } as u32));
            img.extend_from_slice(&field(r.data.len() as u32));
            img.extend_from_slice(&field(r.orig_len));
            img.extend_from_slice(&r.data);
        }
        img
    }

    /// What a reader delivered: per record its timestamp, original
    /// length, captured length and a digest of its bytes; then
    /// `records_read`, `bytes_read`, `truncated_records`, and the error
    /// that ended it.
    type Outcome = (Vec<(u64, u32, usize, u64)>, (u64, u64, u64), Option<String>);

    fn summary(r: &Record) -> (u64, u32, usize, u64) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        r.data.hash(&mut h);
        (r.ts_nanos, r.orig_len, r.data.len(), h.finish())
    }

    fn read_into_outcome(img: &[u8], step: usize) -> Outcome {
        let mut r = Reader::new(Trickle { data: img, step }).unwrap();
        let (mut records, mut buf) = (Vec::new(), RecordBuf::new());
        let err = loop {
            match r.read_into(&mut buf) {
                Ok(true) => records.push(summary(&buf.to_record())),
                Ok(false) => break None,
                Err(e) => break Some(e.to_string()),
            }
        };
        let counts = (r.records_read(), r.bytes_read(), r.truncated_records());
        (records, counts, err)
    }

    fn read_chunk_outcome(img: &[u8], step: usize) -> Outcome {
        let mut r = Reader::new(Trickle { data: img, step }).unwrap();
        let mut batch = RecordBatch::new();
        batch.push(1, 3, &[1, 2, 3]); // appended to, not replaced
        let err = loop {
            let before = (batch.len(), batch.arena_bytes());
            match r.read_chunk(&mut batch) {
                Ok(true) => assert!(batch.len() > before.0, "a live read landed no record"),
                // End of file is sticky until more bytes arrive.
                Ok(false) => {
                    let end = (batch.len(), r.truncated_records());
                    assert!(!r.read_chunk(&mut batch).unwrap());
                    assert_eq!((batch.len(), r.truncated_records()), end);
                    break None;
                }
                Err(e) => {
                    assert_eq!(
                        (batch.len(), batch.arena_bytes()),
                        before,
                        "an Err kept records"
                    );
                    break Some(e.to_string());
                }
            }
        };
        let records: Vec<_> = batch
            .iter()
            .skip(1)
            .map(|r| {
                summary(&Record {
                    ts_nanos: r.ts_nanos,
                    orig_len: r.orig_len,
                    data: r.data.to_vec(),
                })
            })
            .collect();
        let captured: usize = records.iter().map(|r| r.2).sum();
        assert_eq!(batch.arena_bytes(), 3 + captured);
        let counts = (r.records_read(), r.bytes_read(), r.truncated_records());
        (records, counts, err)
    }

    #[test]
    fn chunk_reader_agrees_with_read_into() {
        // The snap length lifts the record bound to 2 × 65 535.
        let bound = max_record_len(1_000) as usize;
        let sizes = [60, 1514, 61, 0, 9_000, bound, 200, 64 * 1024, 1_400];
        let records: Vec<Record> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| Record {
                ts_nanos: 1_600_000_000_000_000_000 + i as u64 * 1_250_000,
                orig_len: len as u32 + (i as u32 % 3) * 7,
                data: (0..len).map(|b| (b * 31 + i) as u8).collect(),
            })
            .collect();
        for (swapped, nanos) in [(false, false), (false, true), (true, false), (true, true)] {
            let img = image(swapped, nanos, 1_000, &records);
            let want = read_into_outcome(&img, usize::MAX);
            let all: Vec<_> = records.iter().map(summary).collect();
            assert_eq!(want.0, all, "swapped {swapped}, nanos {nanos}");
            for step in (1..=24).chain([1_000, 70_000, usize::MAX]) {
                assert_eq!(
                    read_into_outcome(&img, step),
                    want,
                    "read_into, step {step}"
                );
                assert_eq!(
                    read_chunk_outcome(&img, step),
                    want,
                    "read_chunk, step {step}"
                );
            }

            // One byte past the bound is an error, after the records before it.
            let mut over = records[..3].to_vec();
            over.push(Record::full(9, vec![0; bound + 1]));
            over.push(Record::full(10, vec![1; 60]));
            let img = image(swapped, nanos, 1_000, &over);
            for step in [1, 7, 100, usize::MAX] {
                let want = read_into_outcome(&img, step);
                assert_eq!(want.0, all[..3], "step {step}");
                assert!(want.2.as_deref().unwrap().contains("twice the snap length"));
                assert_eq!(
                    read_chunk_outcome(&img, step),
                    want,
                    "over-long, step {step}"
                );
            }
        }
    }

    #[test]
    fn chunk_reader_agrees_with_read_into_at_every_torn_offset() {
        let records: Vec<Record> = [60usize, 1, 300, 0, 75]
            .iter()
            .enumerate()
            .map(|(i, &len)| Record::full(i as u64 * 1_000, vec![i as u8; len]))
            .collect();
        for (swapped, nanos) in [(false, true), (true, false)] {
            let img = image(swapped, nanos, 65_535, &records);
            for cut in 24..=img.len() {
                let img = &img[..cut];
                for step in [1, 5, 16, 17, usize::MAX] {
                    let want = read_into_outcome(img, step);
                    assert_eq!(
                        read_chunk_outcome(img, step),
                        want,
                        "cut {cut}, step {step}"
                    );
                }
            }
        }
    }

    /// A file another process is still appending to: the bytes written so
    /// far, shared with the writer.
    struct Growing {
        data: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        pos: usize,
    }

    impl Read for Growing {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let data = self.data.borrow();
            let n = buf.len().min(data.len() - self.pos);
            buf[..n].copy_from_slice(&data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_torn_append_completes_when_the_rest_arrives() {
        let records = [
            Record::full(1, vec![0x11; 100]),
            Record::full(2, vec![0x22; 700]),
        ];
        let img = write_trace(&records);
        let second = img.len() - (16 + 700);
        for split in [
            second + 1,
            second + 10,
            second + 16,
            second + 30,
            img.len() - 1,
        ] {
            let data = std::rc::Rc::new(std::cell::RefCell::new(img[..split].to_vec()));
            let mut r = Reader::new(Growing {
                data: data.clone(),
                pos: 0,
            })
            .unwrap();
            let mut batch = RecordBatch::new();
            assert!(r.read_chunk(&mut batch).unwrap());
            assert!(!r.read_chunk(&mut batch).unwrap());
            assert_eq!(
                (batch.len(), r.truncated_records()),
                (1, 1),
                "split {split}"
            );

            data.borrow_mut().extend_from_slice(&img[split..]);
            assert!(r.read_chunk(&mut batch).unwrap());
            assert!(!r.read_chunk(&mut batch).unwrap());
            let got: Vec<Record> = batch
                .iter()
                .map(|r| Record::full(r.ts_nanos, r.data.to_vec()))
                .collect();
            assert_eq!(got, records, "split {split}");
            assert_eq!(
                (r.records_read(), r.truncated_records()),
                (2, 0),
                "split {split}"
            );
        }
    }

    #[test]
    fn chunks_land_in_one_read_each_and_carry_only_the_torn_record() {
        let records: Vec<Record> = (0..400u64)
            .map(|i| Record::full(i, vec![i as u8; 200 + (i as usize * 37) % 1_300]))
            .collect();
        let img = write_trace(&records);

        /// Counts the `read` calls it passes on.
        struct Counting<'a>(&'a [u8], usize);
        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        let mut r = Reader::new(Counting(&img, 0)).unwrap();
        let mut batch = RecordBatch::new();
        let (mut got, mut calls, mut carried) = (0, 0, 0);
        while r.read_chunk(&mut batch).unwrap() {
            calls += 1;
            got += batch.len();
            carried += r.carry.len();
            assert!(r.carry.len() < 16 + 1_500, "carried {}", r.carry.len());
            batch.clear();
        }
        assert_eq!(got, records.len());
        let chunks = (img.len() - 24).div_ceil(READ_BUFFER_BYTES);
        assert_eq!(calls, chunks);
        // One read per chunk, one for the header, one that finds the end.
        assert_eq!(r.inner.1, chunks + 2);
        assert!(
            carried * 20 < img.len(),
            "carried {carried} of {}",
            img.len()
        );
    }
}

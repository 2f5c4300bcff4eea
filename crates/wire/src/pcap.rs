//! Classic libpcap trace file reader and writer.
//!
//! Supports both the microsecond (magic `0xA1B2C3D4`) and nanosecond
//! (`0xA1B23C4D`) variants in either byte order, link types Ethernet (1)
//! and raw IP (101). This is all the paper's offline toolchain needs to
//! exchange traces with tcpdump/Wireshark.
//!
//! Two ingest paths are offered:
//!
//! * the **owning** path — [`Reader::next_record`] / [`Reader::records`]
//!   allocate a fresh [`Record`] per packet (simple, `'static`, clonable);
//! * the **zero-copy fast path** — [`Reader::read_into`] reuses one
//!   growable [`RecordBuf`] across records (zero steady-state
//!   allocations), [`Reader::read_into_batch`] appends records straight
//!   to a capture hand-off [`RecordBatch`], and [`SliceReader`] yields
//!   records *borrowed* straight out of an in-memory trace image (e.g. an
//!   `mmap`ed file) without copying payload bytes at all.
//!
//! The owning path is implemented on top of `read_into`, and `read_into`
//! and `read_into_batch` share one header parser and one accounting
//! step, so the paths cannot drift.

use crate::handoff::RecordBatch;
use crate::Error;
use std::io::{self, BufRead, Read, Write};

/// Magic for microsecond-resolution files.
pub const MAGIC_USEC: u32 = 0xA1B2_C3D4;
/// Magic for nanosecond-resolution files.
pub const MAGIC_NSEC: u32 = 0xA1B2_3C4D;

/// `BufReader` capacity for pcap files. With std's 8 KiB default a read
/// loop issues one `read` call per handful of records; reading a
/// page-cached 207 MB trace took 38–48 ms at 8 KiB and 27–29 ms from
/// 64 KiB up.
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

    /// Convert into an owning [`Record`], giving up the buffer.
    pub fn into_record(self) -> Record {
        Record {
            ts_nanos: self.ts_nanos,
            orig_len: self.orig_len,
            data: self.data,
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

/// Parsed pcap global header: (byte-swapped, nanosecond timestamps,
/// link type, snap length).
fn parse_global_header(hdr: &[u8; 24]) -> io::Result<(bool, bool, LinkType, u32)> {
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
    Ok((swapped, nanos, LinkType::from(rd32(20)), rd32(16)))
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
    swapped: bool,
    nanos: bool,
    link_type: LinkType,
    snaplen: u32,
    truncated: u64,
    records_read: u64,
    bytes_read: u64,
}

impl<R: Read> Reader<R> {
    /// Read and validate the global header.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let (swapped, nanos, link_type, snaplen) = parse_global_header(&hdr)?;
        Ok(Reader {
            inner,
            swapped,
            nanos,
            link_type,
            snaplen,
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
    /// than an error; this counter is the warning channel.
    pub fn truncated_records(&self) -> u64 {
        self.truncated
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
        let mut hdr = [0u8; 16];
        let got = read_fully(&mut self.inner, &mut hdr)?;
        if got == 0 {
            return Ok(None);
        }
        if got < hdr.len() {
            self.truncated += 1;
            return Ok(None);
        }
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
        if incl_len > max_record_len(self.snaplen) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pcap record longer than twice the snap length",
            ));
        }
        let frac_nanos = if self.nanos { ts_frac } else { ts_frac * 1_000 };
        Ok(Some(RecordHeader {
            ts_nanos: ts_sec * 1_000_000_000 + frac_nanos,
            incl_len,
            orig_len: rd32(12),
        }))
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

    /// Read the next record; `Ok(None)` at a clean end of file *or* at a
    /// truncated final record (see
    /// [`truncated_records`](Reader::truncated_records)).
    ///
    /// This is the owning path: it allocates a fresh `Vec` per record.
    /// Hot loops should prefer [`read_into`](Reader::read_into).
    pub fn next_record(&mut self) -> io::Result<Option<Record>> {
        let mut buf = RecordBuf::new();
        if self.read_into(&mut buf)? {
            Ok(Some(buf.into_record()))
        } else {
            Ok(None)
        }
    }

    /// Iterate over all remaining records, stopping at the first error.
    pub fn records(self) -> RecordIter<R> {
        RecordIter { reader: self }
    }
}

impl<R: BufRead> Reader<R> {
    /// Append the next record to `batch`: [`read_into`](Reader::read_into)
    /// for a capture hand-off, without the staging buffer. The header is
    /// parsed and checked the same way; the payload moves from the
    /// reader's own buffer straight onto the arena tail, with no zero-fill
    /// and no second copy. Returns `Ok(false)` at end of file — a torn
    /// final record is rolled back out of the arena and counted in
    /// [`truncated_records`](Reader::truncated_records), exactly as
    /// `read_into` counts it.
    pub fn read_into_batch(&mut self, batch: &mut RecordBatch) -> io::Result<bool> {
        let Some(header) = self.read_header()? else {
            return Ok(false);
        };
        let inner = &mut self.inner;
        let complete = batch.push_with(header.ts_nanos, header.orig_len, |arena| {
            let mut left = header.incl_len as usize;
            while left > 0 {
                let chunk = match inner.fill_buf() {
                    Ok(chunk) => chunk,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if chunk.is_empty() {
                    return Ok(false);
                }
                let take = chunk.len().min(left);
                arena.extend_from_slice(&chunk[..take]);
                inner.consume(take);
                left -= take;
            }
            Ok(true)
        })?;
        Ok(self.note_record(&header, complete))
    }
}

/// Iterator adapter over a [`Reader`].
pub struct RecordIter<R: Read> {
    reader: Reader<R>,
}

impl<R: Read> Iterator for RecordIter<R> {
    type Item = io::Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_record().transpose()
    }
}

/// One record borrowed from a [`SliceReader`]'s trace image: no payload
/// copy, `data` points into the underlying buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRecord<'a> {
    /// Nanoseconds since the Unix epoch.
    pub ts_nanos: u64,
    /// Original (on-the-wire) length.
    pub orig_len: u32,
    /// Captured bytes, borrowed from the trace image.
    pub data: &'a [u8],
}

impl SliceRecord<'_> {
    /// Copy into an owning [`Record`].
    pub fn to_record(&self) -> Record {
        Record {
            ts_nanos: self.ts_nanos,
            orig_len: self.orig_len,
            data: self.data.to_vec(),
        }
    }
}

/// Zero-copy pcap reader over an in-memory trace image (a `Vec<u8>`, an
/// `mmap`ed file, an embedded test trace): records are yielded as
/// [`SliceRecord`]s borrowing directly from the image.
///
/// Semantics mirror [`Reader`] exactly — same magic/byte-order handling,
/// same sanity limit, and the same truncated-tail policy (`Ok(None)` plus
/// the [`truncated_records`](SliceReader::truncated_records) counter).
pub struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
    swapped: bool,
    nanos: bool,
    link_type: LinkType,
    snaplen: u32,
    truncated: u64,
    records_read: u64,
    bytes_read: u64,
}

impl<'a> SliceReader<'a> {
    /// Validate the global header of an in-memory trace.
    pub fn new(data: &'a [u8]) -> io::Result<SliceReader<'a>> {
        let hdr: &[u8; 24] = data
            .get(..24)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "pcap image shorter than header")
            })?;
        let (swapped, nanos, link_type, snaplen) = parse_global_header(hdr)?;
        Ok(SliceReader {
            data,
            pos: 24,
            swapped,
            nanos,
            link_type,
            snaplen,
            truncated: 0,
            records_read: 0,
            bytes_read: 0,
        })
    }

    /// The trace's link type.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The trace's snap length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Records dropped because the image ended mid-record.
    pub fn truncated_records(&self) -> u64 {
        self.truncated
    }

    /// Complete records delivered so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Captured payload bytes delivered so far (record data only, not
    /// pcap framing).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The next borrowed record; `Ok(None)` at the end of the image or at
    /// a truncated tail (which bumps
    /// [`truncated_records`](SliceReader::truncated_records)).
    pub fn next_record(&mut self) -> io::Result<Option<SliceRecord<'a>>> {
        let rest = &self.data[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < 16 {
            self.truncated += 1;
            self.pos = self.data.len();
            return Ok(None);
        }
        let rd32 = |o: usize| {
            let v = u32::from_le_bytes([rest[o], rest[o + 1], rest[o + 2], rest[o + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let ts_sec = u64::from(rd32(0));
        let ts_frac = u64::from(rd32(4));
        let incl_len = rd32(8) as usize;
        let orig_len = rd32(12);
        if incl_len as u32 > max_record_len(self.snaplen) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pcap record longer than twice the snap length",
            ));
        }
        let Some(data) = rest.get(16..16 + incl_len) else {
            self.truncated += 1;
            self.pos = self.data.len();
            return Ok(None);
        };
        self.pos += 16 + incl_len;
        self.records_read += 1;
        self.bytes_read += incl_len as u64;
        let frac_nanos = if self.nanos { ts_frac } else { ts_frac * 1_000 };
        Ok(Some(SliceRecord {
            ts_nanos: ts_sec * 1_000_000_000 + frac_nanos,
            orig_len,
            data,
        }))
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
        let mut hdr = [0u8; 16];
        let secs = (record.ts_nanos / 1_000_000_000) as u32;
        let nanos = (record.ts_nanos % 1_000_000_000) as u32;
        let orig_len = record.orig_len.max(record.data.len() as u32);
        hdr[0..4].copy_from_slice(&secs.to_le_bytes());
        hdr[4..8].copy_from_slice(&nanos.to_le_bytes());
        hdr[8..12].copy_from_slice(&(record.data.len() as u32).to_le_bytes());
        hdr[12..16].copy_from_slice(&orig_len.to_le_bytes());
        self.inner.write_all(&hdr)?;
        self.inner.write_all(&record.data)
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

    fn roundtrip(records: &[Record]) -> Vec<Record> {
        let buf = write_trace(records);
        let r = Reader::new(&buf[..]).unwrap();
        assert_eq!(r.link_type(), LinkType::Ethernet);
        r.records().map(|x| x.unwrap()).collect()
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
        let recs: Vec<_> = r.records().map(|x| x.unwrap()).collect();
        assert_eq!(recs[0].ts_nanos, 1_000_000_000 + 500_000);
        assert_eq!(recs[0].data, vec![0xAA, 0xBB]);

        // The slice reader agrees on the same image.
        let mut s = SliceReader::new(&buf).unwrap();
        assert_eq!(s.link_type(), LinkType::RawIp);
        let rec = s.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_nanos, 1_000_000_000 + 500_000);
        assert_eq!(rec.data, &[0xAA, 0xBB]);
        assert!(s.next_record().unwrap().is_none());
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
        let recs: Vec<_> = Reader::new(&buf[..])
            .unwrap()
            .records()
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(recs[0].data, vec![0x42]);
        let mut s = SliceReader::new(&buf).unwrap();
        assert_eq!(s.next_record().unwrap().unwrap().data, &[0x42]);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(Reader::new(&buf[..]).is_err());
        assert!(SliceReader::new(&buf).is_err());
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
        assert_eq!(r.next_record().unwrap().unwrap().data, vec![1, 2, 3, 4]);
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(r.truncated_records(), 1);

        let mut s = SliceReader::new(&buf).unwrap();
        assert_eq!(s.next_record().unwrap().unwrap().data, &[1, 2, 3, 4]);
        assert!(s.next_record().unwrap().is_none());
        assert_eq!(s.truncated_records(), 1);
    }

    #[test]
    fn truncated_record_header_is_clean_eof_with_warning() {
        // Cut into the 16-byte per-record header itself.
        let mut buf = write_trace(&[Record::full(0, vec![1, 2, 3, 4])]);
        buf.truncate(buf.len() - 4 - 10); // keep 6 of the 16 header bytes
        let mut r = Reader::new(&buf[..]).unwrap();
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(r.truncated_records(), 1);

        let mut s = SliceReader::new(&buf).unwrap();
        assert!(s.next_record().unwrap().is_none());
        assert_eq!(s.truncated_records(), 1);
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
        assert!(!r.read_into_batch(&mut batch).unwrap());
        assert_eq!((r.truncated_records(), batch.len()), (1, 0));

        let mut s = SliceReader::new(&buf).unwrap();
        assert!(s.next_record().unwrap().is_none());
        assert_eq!(s.truncated_records(), 1);

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

        let owned: Vec<Record> = Reader::new(&img[..])
            .unwrap()
            .records()
            .map(|x| x.unwrap())
            .collect();

        let mut fast = Vec::new();
        let mut reader = Reader::new(&img[..]).unwrap();
        let mut buf = RecordBuf::new();
        while reader.read_into(&mut buf).unwrap() {
            assert!(buf.data().len() <= buf.data.capacity());
            fast.push(buf.to_record());
        }
        assert_eq!(fast, owned);
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

        let mut s = SliceReader::new(&img).unwrap();
        while s.next_record().unwrap().is_some() {}
        assert_eq!(s.records_read(), 2);
        assert_eq!(s.bytes_read(), 160);

        // A truncated tail is not counted as read.
        let mut cut = img.clone();
        cut.truncate(cut.len() - 2);
        let mut r = Reader::new(&cut[..]).unwrap();
        while r.read_into(&mut buf).unwrap() {}
        assert_eq!((r.records_read(), r.truncated_records()), (1, 1));
        assert_eq!(r.bytes_read(), 100);
    }

    /// A reader that hands out at most `step` bytes per `fill_buf`, so a
    /// record's payload reaches the arena in several pieces.
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

    impl BufRead for Trickle<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&self.data[..self.step.min(self.data.len())])
        }

        fn consume(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    #[test]
    fn read_into_batch_matches_read_into_and_rolls_back_torn_tails() {
        let records = vec![
            Record::full(10, vec![0xAB; 1400]),
            Record::full(20, Vec::new()),
            Record {
                ts_nanos: 30,
                orig_len: 9000,
                data: (0..=255).collect(),
            },
        ];
        let img = write_trace(&records);
        // Whole image, then cuts inside the last payload, inside the last
        // header, and at a clean record boundary.
        let last = 16 + 256;
        for cut in [0, 2, last - 6, last] {
            let img = &img[..img.len() - cut];
            let mut staged = Vec::new();
            let mut reader = Reader::new(img).unwrap();
            let mut buf = RecordBuf::new();
            while reader.read_into(&mut buf).unwrap() {
                staged.push(buf.to_record());
            }
            for step in [1usize, 7, 64 * 1024] {
                let mut direct = Reader::new(Trickle { data: img, step }).unwrap();
                let mut batch = RecordBatch::new();
                batch.push(1, 3, &[1, 2, 3]); // appended to, not replaced
                while direct.read_into_batch(&mut batch).unwrap() {}
                let got: Vec<Record> = batch
                    .iter()
                    .skip(1)
                    .map(|r| Record {
                        ts_nanos: r.ts_nanos,
                        orig_len: r.orig_len,
                        data: r.data.to_vec(),
                    })
                    .collect();
                assert_eq!(got, staged, "cut {cut}, step {step}");
                assert_eq!(
                    batch.arena_bytes(),
                    3 + staged.iter().map(|r| r.data.len()).sum::<usize>(),
                    "cut {cut}, step {step}: a torn payload stayed in the arena"
                );
                assert_eq!(
                    (
                        direct.records_read(),
                        direct.bytes_read(),
                        direct.truncated_records()
                    ),
                    (
                        reader.records_read(),
                        reader.bytes_read(),
                        reader.truncated_records()
                    ),
                    "cut {cut}, step {step}"
                );
                // End of file is sticky until more bytes arrive.
                assert!(!direct.read_into_batch(&mut batch).unwrap());
            }
        }
    }

    #[test]
    fn slice_reader_yields_borrowed_records_identical_to_owning() {
        let records = vec![
            Record::full(7, vec![1; 128]),
            Record::full(8, (0..=255).collect()),
        ];
        let img = write_trace(&records);
        let mut s = SliceReader::new(&img).unwrap();
        assert_eq!(s.link_type(), LinkType::Ethernet);
        let mut got = Vec::new();
        while let Some(rec) = s.next_record().unwrap() {
            // Borrowed straight from the image: same backing allocation.
            let img_range = img.as_ptr_range();
            assert!(img_range.contains(&rec.data.as_ptr()));
            got.push(rec.to_record());
        }
        assert_eq!(got, records);
    }
}

//! Arena-packed record batches for capture hand-off.
//!
//! A capture loop that forwards packets to an analysis engine one
//! [`Record`](crate::pcap::Record) at a time pays one heap allocation per
//! packet. [`RecordBatch`] amortizes it: records are packed back-to-back
//! into a single byte arena with per-record timestamp/length side tables,
//! so a whole batch is handed on as one object and — once the receiver
//! gives empty batches back to the reader — the steady state allocates
//! nothing.
//!
//! The layout is append-only: [`RecordBatch::push`] copies the packet bytes
//! to the end of the arena, [`RecordBatch::iter`] yields borrowed
//! [`RecordRef`]s in insertion order, and [`RecordBatch::clear`] resets the
//! batch for reuse while keeping its capacity. Every slot carries its
//! record's offset *and* length, so the arena may hold bytes that belong
//! to no record: a `ZFRG` Records frame (`frame::FrameReader::next`) or a
//! chunk of a pcap file (`pcap::Reader::read_chunk`) is read onto the
//! arena tail whole and its records indexed where they landed, framing
//! left in between.
//!
//! ```
//! use zoom_wire::handoff::RecordBatch;
//!
//! let mut batch = RecordBatch::new();
//! batch.push(1_000, 60, &[0xAA; 60]);
//! batch.push(2_000, 1500, &[0xBB; 64]); // truncated capture: 64 of 1500
//!
//! assert_eq!(batch.len(), 2);
//! let records: Vec<_> = batch.iter().collect();
//! assert_eq!(records[0].ts_nanos, 1_000);
//! assert_eq!(records[1].orig_len, 1500);
//! assert_eq!(records[1].data.len(), 64);
//!
//! batch.clear(); // arena retained, ready for the next fill
//! assert!(batch.is_empty());
//! ```

/// A single record borrowed from a [`RecordBatch`].
///
/// Mirrors the fields of [`crate::pcap::Record`] but borrows its payload
/// from the batch arena instead of owning a `Vec<u8>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Capture timestamp in nanoseconds since the Unix epoch.
    pub ts_nanos: u64,
    /// Original on-the-wire length (may exceed `data.len()` when the
    /// capture was truncated by a snap length).
    pub orig_len: u32,
    /// Captured bytes, borrowed from the batch arena.
    pub data: &'a [u8],
}

impl RecordRef<'_> {
    /// Length of the record on the wire: `orig_len`, or the captured
    /// length where a writer left `orig_len` below it (malformed in pcap,
    /// and normalized the same way by `pcap::Writer`).
    pub fn wire_len(&self) -> usize {
        (self.orig_len as usize).max(self.data.len())
    }
}

/// Per-record metadata kept alongside the shared byte arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ts_nanos: u64,
    orig_len: u32,
    /// Captured length: the record is `arena[offset..offset + len]`.
    len: u32,
    offset: usize,
}

/// An owned, recyclable batch of packet records packed into one arena.
///
/// See the [module documentation](self) for the hand-off protocol and a
/// usage example.
#[derive(Debug, Default)]
pub struct RecordBatch {
    slots: Vec<Slot>,
    arena: Vec<u8>,
    /// Σ `len` over `slots`: the arena's length less any framing in it.
    captured: usize,
    /// Causal trace ID stamped by a sampled capture site (`0` =
    /// untraced, the overwhelmingly common case). Rides the batch
    /// through every hand-off so downstream stages can attribute their
    /// span events to the batch's trace; cleared with the records.
    pub trace_id: u64,
}

impl RecordBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record, copying `data` into the arena.
    pub fn push(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) {
        let offset = self.arena.len();
        self.arena.extend_from_slice(data);
        self.index(ts_nanos, orig_len, offset, data.len());
    }

    /// Adds the slot of a record whose bytes already lie in the arena.
    fn index(&mut self, ts_nanos: u64, orig_len: u32, offset: usize, len: usize) {
        assert!(offset + len <= self.arena.len(), "record outside the arena");
        self.slots.push(Slot {
            ts_nanos,
            orig_len,
            len: u32::try_from(len).expect("a record is shorter than 4 GiB"),
            offset,
        });
        self.captured += len;
    }

    /// Appends the records of a framed region: `land` writes the region —
    /// records, framing and all — onto the arena tail through the
    /// [`FramedTail`] it is given and indexes each record where it landed.
    /// If `land` fails, the batch is rolled back to exactly what it held
    /// before the call; its result is passed on either way.
    pub(crate) fn append_framed<T, E>(
        &mut self,
        land: impl FnOnce(&mut FramedTail<'_>) -> Result<T, E>,
    ) -> Result<T, E> {
        let (slots, start, captured) = (self.slots.len(), self.arena.len(), self.captured);
        let landed = land(&mut FramedTail { batch: self, start });
        if landed.is_err() {
            self.slots.truncate(slots);
            self.arena.truncate(start);
            self.captured = captured;
        }
        landed
    }

    /// Number of records currently in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total captured bytes currently in the arena (framing that a
    /// frame-indexed batch holds between its records is not counted).
    pub fn arena_bytes(&self) -> usize {
        self.captured
    }

    /// Returns the record at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<RecordRef<'_>> {
        let slot = self.slots.get(index)?;
        Some(RecordRef {
            ts_nanos: slot.ts_nanos,
            orig_len: slot.orig_len,
            data: &self.arena[slot.offset..slot.offset + slot.len as usize],
        })
    }

    /// The captured bytes of the record at `index`, to rewrite where they
    /// lie (lengths stay as they are); `None` past the end.
    pub fn data_mut(&mut self, index: usize) -> Option<&mut [u8]> {
        let slot = self.slots.get(index)?;
        Some(&mut self.arena[slot.offset..slot.offset + slot.len as usize])
    }

    /// Every record's [`wire_len`](RecordRef::wire_len), in insertion
    /// order, from the slot table alone: for accounting passes that have
    /// no use for the bytes.
    pub fn wire_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().map(|s| s.orig_len.max(s.len) as usize)
    }

    /// Iterates the records in insertion order as borrowed [`RecordRef`]s.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            batch: self,
            index: 0,
        }
    }

    /// Empties the batch while retaining both the slot table's and the
    /// arena's capacity, making the batch reusable without reallocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.arena.clear();
        self.captured = 0;
        self.trace_id = 0;
    }
}

/// The arena tail of a [`RecordBatch`] while [`RecordBatch::append_framed`]
/// lands a framed region on it.
pub(crate) struct FramedTail<'a> {
    batch: &'a mut RecordBatch,
    /// Arena length when the region began.
    start: usize,
}

impl FramedTail<'_> {
    /// The arena, for the region's bytes to be appended to.
    pub(crate) fn arena(&mut self) -> &mut Vec<u8> {
        &mut self.batch.arena
    }

    /// The bytes landed so far.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.batch.arena[self.start..]
    }

    /// The bytes landed so far, to be written into.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.batch.arena[self.start..]
    }

    /// Indexes the record at `bytes()[offset..offset + len]`.
    pub(crate) fn index(&mut self, ts_nanos: u64, orig_len: u32, offset: usize, len: usize) {
        self.batch
            .index(ts_nanos, orig_len, self.start + offset, len);
    }

    /// Drops the landed bytes past `len`, which must not cut into an
    /// indexed record: a region's trailing bytes that belong to no record.
    pub(crate) fn truncate(&mut self, len: usize) {
        let end = self.start + len;
        let last = self.batch.slots.last();
        assert!(
            last.is_none_or(|s| s.offset + s.len as usize <= end),
            "truncate into an indexed record"
        );
        self.batch.arena.truncate(end);
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = RecordRef<'a>;
    type IntoIter = BatchIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`RecordBatch`], yielding [`RecordRef`]s.
#[derive(Debug)]
pub struct BatchIter<'a> {
    batch: &'a RecordBatch,
    index: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let rec = self.batch.get(self.index)?;
        self.index += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.batch.len() - self.index;
        (rest, Some(rest))
    }
}

impl<'a> ExactSizeIterator for BatchIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    impl RecordBatch {
        /// What the arena has allocated, for the frame reader's tests: what
        /// a hostile length field must not be able to inflate.
        pub(crate) fn arena_capacity(&self) -> usize {
            self.arena.capacity()
        }
    }

    #[test]
    fn push_get_iter_roundtrip() {
        let mut b = RecordBatch::new();
        b.push(10, 100, &[1, 2, 3]);
        b.push(20, 4, &[9; 4]);
        b.push(30, 0, &[]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arena_bytes(), 7);

        let r0 = b.get(0).unwrap();
        assert_eq!(
            (r0.ts_nanos, r0.orig_len, r0.data),
            (10, 100, &[1, 2, 3][..])
        );
        let r2 = b.get(2).unwrap();
        assert_eq!(r2.data.len(), 0);
        assert!(b.get(3).is_none());

        let ts: Vec<u64> = b.iter().map(|r| r.ts_nanos).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(b.iter().len(), 3);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = RecordBatch::new();
        for i in 0..8 {
            b.push(i, 64, &[0u8; 64]);
        }
        let slot_cap = b.slots.capacity();
        let arena_cap = b.arena.capacity();
        b.trace_id = 0xDEAD_BEEF;
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.trace_id, 0, "clear() must reset the trace tag");
        assert_eq!(b.arena_bytes(), 0);
        assert_eq!(b.slots.capacity(), slot_cap);
        assert_eq!(b.arena.capacity(), arena_cap);
        // Refill within capacity: no growth.
        for i in 0..8 {
            b.push(i, 64, &[0u8; 64]);
        }
        assert_eq!(b.slots.capacity(), slot_cap);
        assert_eq!(b.arena.capacity(), arena_cap);
    }

    /// Lands `records` the way a `ZFRG` Records frame arrives: a 4-byte
    /// count, then a 16-byte header ahead of each record's bytes.
    fn land_framed(b: &mut RecordBatch, records: &[(u64, u32, &[u8])]) -> Result<(), ()> {
        b.append_framed(|tail| {
            tail.arena().extend_from_slice(&[0xF0; 4]);
            for &(ts, orig_len, data) in records {
                tail.arena().extend_from_slice(&[0xF1; 16]);
                let offset = tail.bytes().len();
                tail.arena().extend_from_slice(data);
                tail.index(ts, orig_len, offset, data.len());
            }
            Ok(())
        })
    }

    fn contents(b: &RecordBatch) -> Vec<(u64, u32, Vec<u8>)> {
        b.iter()
            .map(|r| (r.ts_nanos, r.orig_len, r.data.to_vec()))
            .collect()
    }

    #[test]
    fn pushed_and_frame_indexed_records_share_one_batch() {
        let mut b = RecordBatch::new();
        b.push(10, 100, &[1, 2, 3]);
        land_framed(&mut b, &[(20, 4, &[9; 4]), (30, 0, &[]), (40, 7, &[7; 7])]).unwrap();
        land_framed(&mut b, &[(50, 2, &[5, 5])]).unwrap();
        b.push(60, 1, &[6]);

        let want = vec![
            (10, 100, vec![1, 2, 3]),
            (20, 4, vec![9; 4]),
            (30, 0, vec![]),
            (40, 7, vec![7; 7]),
            (50, 2, vec![5, 5]),
            (60, 1, vec![6]),
        ];
        assert_eq!(contents(&b), want);
        assert_eq!(b.len(), 6);
        assert_eq!(b.iter().len(), 6);
        for (i, rec) in want.iter().enumerate() {
            let r = b.get(i).unwrap();
            assert_eq!((r.ts_nanos, r.orig_len, r.data), (rec.0, rec.1, &rec.2[..]));
        }
        assert!(b.get(6).is_none());
        // Captured bytes only: the 2 × 4 + 4 × 16 bytes of framing the
        // arena also holds are not counted.
        assert_eq!(b.arena_bytes(), 3 + 4 + 7 + 2 + 1);
        assert_eq!(b.arena.len(), b.arena_bytes() + 2 * 4 + 4 * 16);

        // Trailing bytes that belong to no record can be dropped again.
        let before = b.arena.len();
        b.append_framed(|tail| {
            tail.arena().extend_from_slice(&[0xF2; 16]);
            tail.arena().extend_from_slice(&[8; 5]);
            tail.index(70, 5, 16, 5);
            tail.arena().extend_from_slice(&[0xF3; 9]);
            tail.truncate(21);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(b.arena.len(), before + 21);
        assert_eq!(b.get(6).unwrap().data, &[8; 5]);

        // Records are rewritten where they lie.
        b.data_mut(6).unwrap().copy_from_slice(&[9; 5]);
        assert_eq!(b.get(6).unwrap().data, &[9; 5]);
        assert!(b.data_mut(7).is_none());

        b.clear();
        assert!(b.is_empty());
        assert_eq!((b.arena_bytes(), b.arena.len()), (0, 0));
        land_framed(&mut b, &[(1, 1, &[1])]).unwrap();
        assert_eq!(contents(&b), vec![(1, 1, vec![1])]);
        assert_eq!(b.arena_bytes(), 1);
    }

    #[test]
    fn a_failed_framed_append_rolls_back_slots_bytes_and_count() {
        let mut b = RecordBatch::new();
        b.push(10, 3, &[1, 2, 3]);
        land_framed(&mut b, &[(20, 2, &[4, 5])]).unwrap();
        let before = (contents(&b), b.arena_bytes(), b.arena.len());
        let failed: Result<(), &str> = b.append_framed(|tail| {
            tail.arena().extend_from_slice(&[0xEE; 40]);
            tail.index(30, 8, 4, 8);
            tail.index(40, 8, 28, 8);
            Err("the frame's lengths disagree")
        });
        assert_eq!(failed, Err("the frame's lengths disagree"));
        assert_eq!((contents(&b), b.arena_bytes(), b.arena.len()), before);
    }
}

//! Bounded lock-free SPSC ring.
//!
//! No route reads through it: the capture fan-in ([`crate::mux`]) reads
//! every source in-line. It stays for the repository benchmark, whose
//! `capture.ring.hop_ns` probe times a hand-off through it. Both ends are
//! wait-free: a push or pop is one load-acquire of the opposite index, one
//! slot move, and one store-release of the own index — no locks, no CAS
//! loops, no allocation. When the ring is full the producer's
//! [`try_push`](Producer::try_push) fails fast and hands the value back.
//!
//! The implementation is the textbook Lamport queue with monotonically
//! increasing head/tail positions (wrapping arithmetic, slot = position
//! mod capacity) and the two indices on separate cache lines to avoid
//! false sharing.
//!
//! ```
//! use zoom_capture::ring::spsc;
//!
//! let (mut tx, mut rx) = spsc::<u64>(2);
//! assert!(tx.try_push(1).is_ok());
//! assert!(tx.try_push(2).is_ok());
//! assert_eq!(tx.try_push(3), Err(3)); // full: bounded at capacity 2
//!
//! assert_eq!(rx.try_pop(), Some(1));
//! assert!(tx.try_push(3).is_ok()); // space freed by the pop
//! assert_eq!(rx.try_pop(), Some(2));
//! assert_eq!(rx.try_pop(), Some(3));
//! assert_eq!(rx.try_pop(), None); // empty, producer still live
//! assert!(!rx.is_closed());
//!
//! drop(tx);
//! assert!(rx.is_closed()); // empty *and* producer gone
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads the wrapped value to its own cache line so the producer-owned and
/// consumer-owned indices never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// `capacity` storage slots; slot `i` holds the item at ring position
    /// `p` iff `p % capacity == i` and `head <= p < tail`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next position to pop (consumer-owned, monotonic, wrapping).
    head: CachePadded<AtomicUsize>,
    /// Next position to push (producer-owned, monotonic, wrapping).
    tail: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// SAFETY: the ring transfers `T`s between exactly two threads; every slot
// is accessed by at most one side at a time (ownership is handed over by
// the release/acquire pair on `tail`/`head`).
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone: exclusive access. Drop any items still
        // in flight.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let mut pos = head;
        while pos != tail {
            unsafe { (*self.slots[pos % cap].get()).assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Creates a bounded SPSC ring with room for `capacity` in-flight items
/// and returns its two single-owner endpoints.
///
/// # Panics
/// Panics if `capacity` is 0 (a zero-capacity ring could never transfer
/// anything).
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc ring capacity must be at least 1");
    let shared = Arc::new(Shared {
        slots: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

/// The push end of an [`spsc`] ring. Owned by exactly one thread.
pub struct Producer<T: Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue `value` without blocking.
    ///
    /// Returns `Err(value)` when the ring is full (or the consumer is
    /// gone), handing the item back so the caller decides the overflow
    /// policy: drop it and bump a drop counter (live capture), or hold it
    /// and retry (lossless replay).
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let shared = &*self.shared;
        let cap = shared.slots.len();
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let head = shared.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == cap || !shared.consumer_alive.load(Ordering::Acquire) {
            return Err(value);
        }
        // SAFETY: `head <= tail < head + cap`, so slot `tail % cap` is
        // vacant and — by the SPSC contract — untouched by the consumer
        // until the release-store below publishes it.
        unsafe { (*shared.slots[tail % cap].get()).write(value) };
        shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Whether the consumer endpoint has been dropped. Pushing to a
    /// closed ring always fails; a producer thread uses this to shut down.
    pub fn is_closed(&self) -> bool {
        !self.shared.consumer_alive.load(Ordering::Acquire)
    }

    /// Items currently in flight (racy by nature; exact only when the
    /// other endpoint is quiescent).
    pub fn len(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Acquire);
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Whether the ring currently holds no items (racy; see
    /// [`len`](Producer::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count the ring was created with.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

impl<T: Send> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
    }
}

/// The pop end of an [`spsc`] ring. Owned by exactly one thread.
pub struct Consumer<T: Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue the oldest item without blocking. Returns
    /// `None` when the ring is momentarily empty — check
    /// [`is_closed`](Consumer::is_closed) to distinguish "no data yet"
    /// from "producer finished".
    pub fn try_pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let cap = shared.slots.len();
        let head = shared.head.0.load(Ordering::Relaxed);
        let tail = shared.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so slot `head % cap` was published by
        // the producer's release-store and is now exclusively ours.
        let value = unsafe { (*shared.slots[head % cap].get()).assume_init_read() };
        shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Whether the ring is drained for good: the producer endpoint was
    /// dropped *and* every published item has been popped.
    pub fn is_closed(&self) -> bool {
        // Order matters: read the liveness flag before the emptiness
        // check, so a producer that pushes and then exits can't slip the
        // push past a stale "alive" read.
        let alive = self.shared.producer_alive.load(Ordering::Acquire);
        !alive && self.is_empty()
    }

    /// Items currently in flight (racy by nature; exact only when the
    /// other endpoint is quiescent).
    pub fn len(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Whether the ring currently holds no items (racy; see
    /// [`len`](Consumer::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed slot count the ring was created with.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99));
        for v in 0..4 {
            assert_eq!(rx.try_pop(), Some(v));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_one_alternates() {
        let (mut tx, mut rx) = spsc::<String>(1);
        for i in 0..10 {
            tx.try_push(format!("item{i}")).unwrap();
            assert!(tx.try_push(String::new()).is_err());
            assert_eq!(rx.try_pop().as_deref(), Some(format!("item{i}").as_str()));
        }
    }

    #[test]
    fn close_detection_both_sides() {
        let (tx, rx) = spsc::<u8>(2);
        assert!(!rx.is_closed());
        drop(tx);
        assert!(rx.is_closed());

        let (mut tx, rx) = spsc::<u8>(2);
        assert!(!tx.is_closed());
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(tx.try_push(1), Err(1));
    }

    #[test]
    fn pending_items_drain_before_close() {
        let (mut tx, mut rx) = spsc::<u8>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        // Producer gone but items remain: not closed yet.
        assert!(!rx.is_closed());
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
        assert!(rx.is_closed());
    }

    #[test]
    fn drop_releases_in_flight_items() {
        // Leak-checked indirectly: Arc<Vec> items dropped with the ring.
        let payload = Arc::new(vec![0u8; 64]);
        let (mut tx, rx) = spsc::<Arc<Vec<u8>>>(4);
        tx.try_push(Arc::clone(&payload)).unwrap();
        tx.try_push(Arc::clone(&payload)).unwrap();
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            for v in 0..n {
                let mut item = v;
                loop {
                    match tx.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        loop {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                    if expected == n {
                        break;
                    }
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }
}

//! Bounded single-producer, single-consumer queue: one [`Mutex`] over a
//! [`VecDeque`] and the consumer's liveness flag.
//!
//! No route reads through it: the capture fan-in ([`crate::mux`]) reads
//! every source in-line. It stays only for the repository benchmark,
//! whose `capture.ring.hop_ns` probe times a hand-off through it. When
//! the queue is full, or its consumer is gone, the producer's
//! [`try_push`](Producer::try_push) fails fast and hands the value back.
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
//! assert_eq!(rx.try_pop(), None); // empty
//!
//! drop(rx);
//! assert_eq!(tx.try_push(4), Err(4)); // consumer gone
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    consumer_alive: bool,
}

/// Locks the ring. Every critical section is a single step that leaves
/// the state whole, so a panic elsewhere cannot poison it.
fn lock<T>(ring: &Mutex<Ring<T>>) -> MutexGuard<'_, Ring<T>> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Creates a bounded SPSC ring with room for `capacity` in-flight items
/// and returns its two single-owner endpoints.
///
/// # Panics
/// Panics if `capacity` is 0 (a zero-capacity ring could never transfer
/// anything).
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc ring capacity must be at least 1");
    let ring = Arc::new(Mutex::new(Ring {
        items: VecDeque::with_capacity(capacity),
        capacity,
        consumer_alive: true,
    }));
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// The push end of an [`spsc`] ring. Owned by exactly one thread.
pub struct Producer<T> {
    ring: Arc<Mutex<Ring<T>>>,
}

impl<T> Producer<T> {
    /// Attempts to enqueue `value` without waiting for room.
    ///
    /// Returns `Err(value)` when the ring is full (or the consumer is
    /// gone), handing the item back so the caller decides the overflow
    /// policy: drop it, or hold it and retry.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let mut ring = lock(&self.ring);
        if ring.items.len() == ring.capacity || !ring.consumer_alive {
            return Err(value);
        }
        ring.items.push_back(value);
        Ok(())
    }
}

/// The pop end of an [`spsc`] ring. Owned by exactly one thread.
pub struct Consumer<T> {
    ring: Arc<Mutex<Ring<T>>>,
}

impl<T> Consumer<T> {
    /// Attempts to dequeue the oldest item without waiting. Returns
    /// `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        lock(&self.ring).items.pop_front()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        lock(&self.ring).consumer_alive = false;
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
    fn push_fails_once_the_consumer_is_gone() {
        let (mut tx, rx) = spsc::<u8>(2);
        drop(rx);
        assert_eq!(tx.try_push(1), Err(1));
    }

    #[test]
    fn pending_items_drain_before_close() {
        let (mut tx, mut rx) = spsc::<u8>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        // Producer gone: what it pushed still pops, in order.
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), None);
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

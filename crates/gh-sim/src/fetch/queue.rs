//! A bounded MPMC queue — the backpressured handoff channel between the
//! fetch workers and the downstream consumer.
//!
//! [`BoundedQueue::push`] blocks while the queue is at capacity, so a slow
//! consumer (e.g. an expensive curation stage) throttles the whole worker
//! pool instead of letting cloned repositories pile up in memory — the
//! event-buffering discipline of a readout front end, applied to scraping.
//! Closing the queue (from either side) wakes every blocked party:
//! producers see [`PushError::Closed`] and stop, consumers drain whatever
//! was already queued and then see `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was closed; the item was dropped and the producer should
    /// stop.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer blocking queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    /// Signalled when an item is consumed or the queue closes (push waiters).
    space: Condvar,
    /// Signalled when an item arrives or the queue closes (pop waiters).
    arrival: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a rendezvous queue would deadlock
    /// the single-worker engine.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded queue needs a positive capacity");
        Self {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            space: Condvar::new(),
            arrival: Condvar::new(),
        }
    }

    /// The maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] when the queue was closed (before or while
    /// waiting for space); the item is dropped.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.space.wait(state).expect("queue lock poisoned");
        }
        if state.closed {
            return Err(PushError::Closed);
        }
        state.items.push_back(item);
        self.arrival.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.space.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.arrival.wait(state).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: blocked producers fail fast, consumers drain the
    /// remaining items and then stop. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        self.space.notify_all();
        self.arrival.notify_all();
        drop(state);
    }

    /// Whether the queue has been closed. Producers can use this to stop
    /// preparing work early instead of discovering the close on `push`.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trips_in_order() {
        let queue = BoundedQueue::new(4);
        for i in 0..4 {
            queue.push(i).unwrap();
        }
        queue.close();
        assert_eq!(
            std::iter::from_fn(|| queue.pop()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn full_queue_applies_backpressure_until_consumed() {
        let queue = BoundedQueue::new(1);
        queue.push(0u32).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| queue.push(1));
            // The producer is blocked; consuming unblocks it.
            assert_eq!(queue.pop(), Some(0));
            assert_eq!(producer.join().expect("producer panicked"), Ok(()));
        });
        assert_eq!(queue.pop(), Some(1));
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(1);
        queue.push(7).unwrap();
        std::thread::scope(|scope| {
            // The producer blocks on the full queue (or observes the close
            // first — both orderings must reject it without consuming).
            let producer = scope.spawn(|| queue.push(8));
            queue.close();
            assert_eq!(
                producer.join().expect("producer panicked"),
                Err(PushError::Closed)
            );
        });
        // Items enqueued before the close still drain.
        assert_eq!(queue.pop(), Some(7));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.push(9), Err(PushError::Closed));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let queue: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| queue.pop());
            queue.close();
            assert_eq!(consumer.join().expect("consumer panicked"), None);
        });
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_is_rejected() {
        BoundedQueue::<u32>::new(0);
    }
}

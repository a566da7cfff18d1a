//! A small bounded MPMC queue on `Mutex` + `Condvar` (the workspace has no
//! async runtime — vendored-deps policy — so the server is plain threads).
//!
//! Two uses in this crate: the writer's update queue (bounded, so a flood
//! of updates exerts backpressure on producers instead of growing without
//! bound) and the connection hand-off queue between the acceptor and the
//! reader worker pool.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of a timed pop.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still empty.
    Timeout,
    /// The queue is closed and drained — no more items will ever arrive.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues, blocking while the queue is full. Returns the item back
    /// when the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue poisoned");
        }
    }

    /// Dequeues, blocking up to `timeout`.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::Timeout;
            }
            let (next, timed_out) =
                self.not_empty.wait_timeout(state, deadline - now).expect("queue poisoned");
            state = next;
            if timed_out.timed_out() && state.items.is_empty() {
                return if state.closed { Pop::Closed } else { Pop::Timeout };
            }
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked consumers wake with [`Pop::Closed`] once drained.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Timeout);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Pop::Item("a"));
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Pop::<&str>::Closed);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::<&str>::Closed);
    }

    /// The writer's group commit relies on a zero timeout never waiting:
    /// it takes what is queued and reports `Timeout` or `Closed` at once.
    #[test]
    fn zero_timeout_pop_takes_only_what_is_queued() {
        let q = BoundedQueue::new(4);
        q.push(1u32).unwrap();
        q.push(2u32).unwrap();
        assert_eq!(q.pop_timeout(Duration::ZERO), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::ZERO), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::ZERO), Pop::Timeout);
        q.push(3u32).unwrap();
        q.close();
        assert_eq!(q.pop_timeout(Duration::ZERO), Pop::Item(3));
        assert_eq!(q.pop_timeout(Duration::ZERO), Pop::Closed);
    }

    #[test]
    fn bounded_push_blocks_until_a_pop_frees_a_slot() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2u32));
        // The producer must be blocked; free a slot and it completes.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Pop::Item(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Pop::Item(2));
    }

    #[test]
    fn pop_wait_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(10));
        q.push(7u32).unwrap();
        assert_eq!(t.join().unwrap(), Pop::Item(7));
    }
}

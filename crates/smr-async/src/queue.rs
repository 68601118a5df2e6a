//! A bounded hand-off queue between hot-path tasks and background
//! reclaimers.
//!
//! Producers are synchronous and never wait: [`DrainQueue::try_push`] either
//! enqueues or reports [`Full`](PushError::Full)/[`Closed`](PushError::Closed)
//! so a connection task can fall back to doing the work inline instead of
//! stalling its worker thread. Consumers are asynchronous:
//! [`DrainQueue::recv`] awaits the next item and resolves to `None` only
//! once the queue is closed **and** drained — the property the shutdown
//! handshake (and the `interleave::reclaimer` model check) relies on: no
//! item pushed before `close` is ever dropped.
//!
//! A producer that would rather not park its work at all when the hand-off
//! is going to be refused asks [`DrainQueue::is_refusing`] first: "full or
//! closed" is mirrored in one atomic flag, written under the queue's lock
//! and read without it. At 256 connections on 2 workers that is the normal
//! answer (the reclaimers run a few times per thousand requests), so the
//! common check-in never touches this queue's mutex.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

/// Why a [`DrainQueue::try_push`] was refused; the item comes back so the
/// caller can handle it inline.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the consumer is behind.
    Full(T),
    /// The queue has been closed; no new work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// FIFO parked receivers, keyed so a cancelled `Recv` can deregister.
    waiters: VecDeque<(u64, Waker)>,
    next_key: u64,
}

/// A bounded multi-producer queue with async consumers. See the module
/// docs for the push/drain/shutdown protocol.
pub struct DrainQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    /// Mirror of "full or closed", written under `state`'s lock.
    refusing: AtomicBool,
    /// Acquisitions of `state`'s lock, for the tests that show a refused
    /// hand-off takes none.
    #[cfg(test)]
    pub(crate) locks: std::sync::atomic::AtomicU64,
}

impl<T> std::fmt::Debug for DrainQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("DrainQueue")
            .field("capacity", &self.capacity)
            .field("len", &state.items.len())
            .field("closed", &state.closed)
            .field("waiters", &state.waiters.len())
            .finish()
    }
}

impl<T> DrainQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity queue can never hand off");
        DrainQueue {
            capacity,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                waiters: VecDeque::new(),
                next_key: 0,
            }),
            refusing: AtomicBool::new(false),
            #[cfg(test)]
            locks: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        #[cfg(test)]
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Refreshes the `refusing` mirror; called with the lock held after
    /// every change to the backlog or the closed flag.
    fn mirror(&self, state: &QueueState<T>) {
        let refusing = state.closed || state.items.len() >= self.capacity;
        // ORDERING: the flag is advice — `try_push` decides under the
        // lock — so nothing is ordered against it.
        self.refusing.store(refusing, Ordering::Relaxed);
    }

    /// Whether a [`try_push`](DrainQueue::try_push) would just now have
    /// been refused (`Full` or `Closed`), answered without the queue's
    /// lock. Advisory: the state may change before the caller acts, and
    /// `try_push` remains the authority.
    pub fn is_refusing(&self) -> bool {
        // ORDERING: see `mirror`.
        self.refusing.load(Ordering::Relaxed)
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// True once [`close`](DrainQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues without blocking, waking the longest-parked receiver.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let waker = {
            let mut state = self.lock();
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.items.push_back(item);
            self.mirror(&state);
            state.waiters.pop_front().map(|(_, waker)| waker)
        };
        if let Some(waker) = waker {
            waker.wake();
        }
        Ok(())
    }

    /// Closes the queue: future pushes fail, and once the backlog drains,
    /// every pending and future [`recv`](DrainQueue::recv) resolves `None`.
    /// Idempotent.
    pub fn close(&self) {
        let waiters = {
            let mut state = self.lock();
            state.closed = true;
            self.mirror(&state);
            std::mem::take(&mut state.waiters)
        };
        for (_, waker) in waiters {
            waker.wake();
        }
    }

    /// Awaits the next item; `None` after [`close`](DrainQueue::close) once
    /// the backlog is drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            queue: self,
            key: None,
        }
    }
}

/// Future returned by [`DrainQueue::recv`].
#[derive(Debug)]
pub struct Recv<'a, T> {
    queue: &'a DrainQueue<T>,
    /// Registration key while parked in the waiter queue.
    key: Option<u64>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut state = self.queue.lock();
        if let Some(item) = state.items.pop_front() {
            self.queue.mirror(&state);
            if let Some(key) = self.key.take() {
                state.waiters.retain(|(k, _)| *k != key);
            }
            // Hand the signal on if more work remains for other receivers.
            let extra = if !state.items.is_empty() {
                state.waiters.pop_front().map(|(_, waker)| waker)
            } else {
                None
            };
            drop(state);
            if let Some(waker) = extra {
                waker.wake();
            }
            return Poll::Ready(Some(item));
        }
        if state.closed {
            if let Some(key) = self.key.take() {
                state.waiters.retain(|(k, _)| *k != key);
            }
            return Poll::Ready(None);
        }
        match self.key {
            Some(key) => {
                // Spurious poll while still parked: refresh the waker.
                let mut found = false;
                for entry in state.waiters.iter_mut() {
                    if entry.0 == key {
                        entry.1 = cx.waker().clone();
                        found = true;
                    }
                }
                if !found {
                    // We were woken for an item another receiver beat us
                    // to; re-park at the back.
                    state.waiters.push_back((key, cx.waker().clone()));
                }
            }
            None => {
                let key = state.next_key;
                state.next_key += 1;
                state.waiters.push_back((key, cx.waker().clone()));
                self.key = Some(key);
            }
        }
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    fn drop(&mut self) {
        let Some(key) = self.key else { return };
        let mut state = self.queue.lock();
        let before = state.waiters.len();
        state.waiters.retain(|(k, _)| *k != key);
        if state.waiters.len() == before && !state.items.is_empty() {
            // We were already dequeued by a push addressed to us but never
            // polled again: wake the next parked receiver so the item is
            // not stranded.
            let next = state.waiters.pop_front().map(|(_, waker)| waker);
            drop(state);
            if let Some(waker) = next {
                waker.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{block_on, scope, yield_now};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn push_then_recv_round_trips() {
        let q = DrainQueue::new(4);
        q.try_push(7u64).unwrap();
        assert_eq!(block_on(q.recv()), Some(7));
    }

    #[test]
    fn full_and_closed_hand_the_item_back() {
        let q = DrainQueue::new(1);
        q.try_push(1u64).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(PushError::Full(9u64).into_inner(), 9);
    }

    #[test]
    fn close_drains_backlog_before_none() {
        let q = DrainQueue::new(4);
        q.try_push(1u64).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(block_on(q.recv()), Some(1));
        assert_eq!(block_on(q.recv()), Some(2));
        assert_eq!(block_on(q.recv()), None);
        assert_eq!(block_on(q.recv()), None, "None is sticky");
    }

    #[test]
    fn parked_receiver_wakes_on_push() {
        let q = DrainQueue::new(2);
        let got = AtomicU64::new(0);
        scope(2, |sp| {
            let q = &q;
            let got = &got;
            sp.spawn(async move {
                while let Some(item) = q.recv().await {
                    got.fetch_add(item, Ordering::Relaxed);
                }
            });
            sp.spawn(async move {
                for i in 1..=10u64 {
                    // Bounded queue + single consumer: retry until space.
                    let mut item = i;
                    loop {
                        match q.try_push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                item = back;
                                yield_now().await;
                            }
                            Err(PushError::Closed(_)) => unreachable!(),
                        }
                    }
                }
                q.close();
            });
        });
        assert_eq!(got.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn cancelled_recv_deregisters_and_unstrands_items() {
        let q = DrainQueue::new(2);
        let noop = crate::testutil::noop_waker();
        let mut cx = Context::from_waker(&noop);
        let mut first = Box::pin(q.recv());
        assert!(first.as_mut().poll(&mut cx).is_pending());
        let mut second = Box::pin(q.recv());
        assert!(second.as_mut().poll(&mut cx).is_pending());
        // Push dequeues `first`'s waker; dropping `first` unpolled must
        // hand the item to `second` instead of stranding it.
        q.try_push(5u64).unwrap();
        drop(first);
        assert_eq!(block_on(second), Some(5));
    }
}

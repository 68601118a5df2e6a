//! Task-scoped SMR guards: the async analogue of a thread-local handle.
//!
//! A [`TaskGuard`] checks a [`PooledHandle`] out of a [`HandlePool`]
//! **asynchronously** — an oversubscribed task awaits availability instead
//! of blocking its worker thread — and returns it when dropped. Two
//! check-in flavours exist:
//!
//! * [`TaskGuard::acquire`] returns the handle the classic way: the drop
//!   flushes the handle's deferred retire list inline before parking it.
//! * [`TaskGuard::acquire_deferred`] hands the flush to a background
//!   reclaimer when the reclaimer can take it: the drop parks the handle
//!   **dirty** (retire list unflushed) and pushes a [`ReclaimTicket`] into
//!   its shard's [`DrainQueue`]. It asks the queue first
//!   ([`DrainQueue::is_refusing`], one relaxed load): if the hand-off
//!   would be refused — full, the normal case under load, or closed — the
//!   drop is the plain check-in of `acquire`, *flush, then park clean*,
//!   and the handle is published once instead of parked dirty, taken back,
//!   flushed and parked again. If the queue fills or closes between the
//!   question and the push, the guard flushes one dirty handle inline,
//!   preserving the one-ticket-per-dirty-handle invariant the reclaimer
//!   protocol (and the `interleave::reclaimer` model check) is built on.
//!
//! Either way the flush comes before the handle is visible to the next
//! checkout, or a ticket for it exists.
//!
//! ```text
//!   TaskGuard::acquire_deferred(pool, queue).await
//!        │  pool.check_out(): nobody waiting → CAS on this worker's slot
//!        │                    else           → FIFO waker queue
//!        ▼
//!   ┌─ task holds its slot ───── enter/op/leave bursts ──┐
//!   └────────────────────────────────────────────────────┘
//!        │ drop
//!        ├── queue.is_refusing()          ──► flush, slot := CLEAN   (1 store)
//!        └── else  check_in_dirty()       ──► slot := DIRTY          (1 store)
//!                  try_push(ticket)       ──► reclaimer: flush_one_dirty()
//!                   └─ Full/Closed since  ──► flush_one_dirty() inline
//! ```

use std::ops::{Deref, DerefMut};

use smr_core::{HandlePool, PooledHandle, Smr};

use crate::queue::DrainQueue;
use crate::reclaimer::ReclaimTicket;

/// A pooled SMR handle scoped to one async task (or one poll burst).
pub struct TaskGuard<'p, 'd, T: Send + 'static, S: Smr<T>> {
    pool: &'p HandlePool<'d, T, S>,
    /// `None` only transiently inside `drop`.
    handle: Option<PooledHandle<'p, 'd, T, S>>,
    /// Deferred-flush hand-off; `None` means flush inline on drop.
    reclaim: Option<&'p DrainQueue<ReclaimTicket>>,
}

impl<T: Send + 'static, S: Smr<T>> std::fmt::Debug for TaskGuard<'_, '_, T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGuard")
            .field("scheme", &S::name())
            .field("deferred", &self.reclaim.is_some())
            .finish()
    }
}

impl<'p, 'd, T: Send + 'static, S: Smr<T>> TaskGuard<'p, 'd, T, S> {
    /// Awaits a handle; the drop check-in flushes inline.
    pub async fn acquire(pool: &'p HandlePool<'d, T, S>) -> TaskGuard<'p, 'd, T, S> {
        let handle = pool.check_out().await;
        TaskGuard {
            pool,
            handle: Some(handle),
            reclaim: None,
        }
    }

    /// Awaits a handle; the drop parks it dirty and tickets `queue`'s
    /// reclaimer to flush it off the hot path.
    pub async fn acquire_deferred(
        pool: &'p HandlePool<'d, T, S>,
        queue: &'p DrainQueue<ReclaimTicket>,
    ) -> TaskGuard<'p, 'd, T, S> {
        let handle = pool.check_out().await;
        TaskGuard {
            pool,
            handle: Some(handle),
            reclaim: Some(queue),
        }
    }

    /// The pool this guard's handle returns to.
    pub fn pool(&self) -> &'p HandlePool<'d, T, S> {
        self.pool
    }
}

impl<'d, T: Send + 'static, S: Smr<T>> Deref for TaskGuard<'_, 'd, T, S> {
    type Target = S::Handle<'d>;

    fn deref(&self) -> &Self::Target {
        self.handle.as_ref().expect("guard holds a handle until drop")
    }
}

impl<T: Send + 'static, S: Smr<T>> DerefMut for TaskGuard<'_, '_, T, S> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.handle.as_mut().expect("guard holds a handle until drop")
    }
}

impl<T: Send + 'static, S: Smr<T>> Drop for TaskGuard<'_, '_, T, S> {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        // A queue that is full or closed — the reclaimer behind, or gone —
        // would hand the work straight back: that is no queue.
        match self.reclaim.filter(|queue| !queue.is_refusing()) {
            None => drop(handle), // PooledHandle drop: flush + park clean
            Some(queue) => {
                handle.check_in_dirty();
                if queue.try_push(ReclaimTicket).is_err() {
                    // Filled or closed since `is_refusing`: do the
                    // reclaimer's unit of work inline so no dirty handle
                    // is left without a ticket.
                    self.pool.flush_one_dirty();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{block_on, scope, yield_now};
    use smr_baselines::Ebr;
    use smr_core::{SmrConfig, SmrHandle};

    fn config() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 4,
            max_threads: 4,
            ..SmrConfig::default()
        }
    }

    #[test]
    fn guard_brackets_ops_and_flushes_inline() {
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        block_on(async {
            let mut guard = TaskGuard::acquire(&pool).await;
            guard.enter();
            let node = guard.alloc(5);
            // SAFETY: the node was just allocated and never published.
            unsafe { guard.retire(node) };
            guard.leave();
        });
        assert_eq!(pool.dirty(), 0, "inline check-in flushes");
        assert_eq!(pool.checked_out(), 0);
    }

    #[test]
    fn deferred_guard_parks_dirty_and_tickets() {
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        let queue = DrainQueue::new(4);
        block_on(async {
            let mut guard = TaskGuard::acquire_deferred(&pool, &queue).await;
            guard.enter();
            let node = guard.alloc(5);
            // SAFETY: the node was just allocated and never published.
            unsafe { guard.retire(node) };
            guard.leave();
        });
        assert_eq!(pool.dirty(), 1, "flush deferred to the reclaimer");
        assert_eq!(queue.len(), 1, "one ticket per dirty handle");
        assert!(pool.flush_one_dirty());
    }

    #[test]
    fn full_queue_falls_back_to_inline_flush() {
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        let queue = DrainQueue::new(1);
        queue.try_push(ReclaimTicket).unwrap(); // pre-fill to capacity
        block_on(async {
            let _guard = TaskGuard::acquire_deferred(&pool, &queue).await;
        });
        assert_eq!(pool.dirty(), 0, "fallback flushed inline");
        assert_eq!(queue.len(), 1, "no ticket added for the flushed handle");
    }

    #[test]
    fn guards_oversubscribe_across_tasks() {
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        let ops = std::sync::atomic::AtomicU64::new(0);
        scope(2, |sp| {
            for _ in 0..32 {
                let pool = &pool;
                let ops = &ops;
                sp.spawn(async move {
                    let mut guard = TaskGuard::acquire(pool).await;
                    guard.enter();
                    guard.leave();
                    ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    drop(guard);
                    yield_now().await;
                });
            }
        });
        assert_eq!(ops.load(std::sync::atomic::Ordering::Relaxed), 32);
        assert!(pool.issued() <= 2);
    }

    #[test]
    fn refused_hand_off_is_one_lock_free_check_in() {
        // A full queue is the normal case under load (see `reclaimer`):
        // the deferred guard must then cost what the plain one does — no
        // queue mutex, no pool mutex, no notification, nothing parked
        // dirty on the way.
        let domain: Ebr<u64> = Ebr::with_config(config());
        let pool = HandlePool::new(&domain, 2);
        let queue = DrainQueue::new(1);
        queue.try_push(ReclaimTicket).unwrap();
        let locks = || queue.locks.load(std::sync::atomic::Ordering::Relaxed);
        let before = locks();
        block_on(async {
            for i in 0..10_000u64 {
                let mut guard = TaskGuard::acquire_deferred(&pool, &queue).await;
                guard.enter();
                let node = guard.alloc(i);
                // SAFETY: the node was just allocated and never published.
                unsafe { guard.retire(node) };
                guard.leave();
                drop(guard);
                assert_eq!(pool.dirty(), 0);
            }
        });
        assert_eq!(locks(), before, "the refusal is read from the mirror");
        assert_eq!(pool.slow_path(), smr_core::SlowPath::default());
        assert_eq!(pool.issued(), 1);

        // Room again: the hand-off is taken, and refused again once full.
        assert_eq!(block_on(queue.recv()), Some(ReclaimTicket));
        block_on(async { drop(TaskGuard::acquire_deferred(&pool, &queue).await) });
        assert_eq!((pool.dirty(), queue.len()), (1, 1));
        assert!(queue.is_refusing());
        queue.close();
        assert_eq!(block_on(queue.recv()), Some(ReclaimTicket));
        assert!(queue.is_refusing(), "closed refuses for good");
        assert!(pool.flush_one_dirty());
    }
}

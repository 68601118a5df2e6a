//! A waker-backed oneshot channel, the one inter-task signalling tool the
//! service layer needs: it carries a value exactly once (the reclaimer
//! shutdown handshake returns drain statistics through it).
//!
//! The receiver registers its waker under the channel's mutex — the same
//! lock the sender takes before waking — so there is no lost-wakeup window,
//! the same discipline [`smr_core::HandlePool::check_out`] uses.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

enum OneshotState<T> {
    /// No value yet; the receiver may have parked a waker.
    Empty(Option<Waker>),
    /// Value delivered, not yet taken.
    Value(T),
    /// Sender dropped without sending, or value already taken.
    Closed,
}

struct OneshotInner<T> {
    state: Mutex<OneshotState<T>>,
}

impl<T> OneshotInner<T> {
    fn lock(&self) -> MutexGuard<'_, OneshotState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Sending half of [`oneshot`]. Dropping it unsent closes the channel and
/// resolves the receiver with `None`.
pub struct Sender<T> {
    inner: Arc<OneshotInner<T>>,
    sent: bool,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("oneshot::Sender")
            .field("sent", &self.sent)
            .finish()
    }
}

impl<T> Sender<T> {
    /// Delivers the value and wakes the receiver. Consumes the sender; a
    /// oneshot carries at most one value.
    pub fn send(mut self, value: T) {
        let waker = {
            let mut state = self.inner.lock();
            match std::mem::replace(&mut *state, OneshotState::Value(value)) {
                OneshotState::Empty(waker) => waker,
                // Receiver already gone: the value is simply dropped.
                other => {
                    *state = other;
                    None
                }
            }
        };
        self.sent = true;
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let waker = {
            let mut state = self.inner.lock();
            match std::mem::replace(&mut *state, OneshotState::Closed) {
                OneshotState::Empty(waker) => waker,
                OneshotState::Value(value) => {
                    // A sent-but-untaken value survives sender drop.
                    *state = OneshotState::Value(value);
                    None
                }
                OneshotState::Closed => None,
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// Receiving half of [`oneshot`]: a future resolving to `Some(value)` on
/// send or `None` if the sender dropped unsent.
pub struct Receiver<T> {
    inner: Arc<OneshotInner<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("oneshot::Receiver").finish_non_exhaustive()
    }
}

impl<T> Future for Receiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut state = self.inner.lock();
        match std::mem::replace(&mut *state, OneshotState::Closed) {
            OneshotState::Value(value) => Poll::Ready(Some(value)),
            OneshotState::Closed => Poll::Ready(None),
            OneshotState::Empty(_) => {
                *state = OneshotState::Empty(Some(cx.waker().clone()));
                Poll::Pending
            }
        }
    }
}

/// Creates a single-value channel between two tasks.
///
/// # Example
///
/// ```
/// let (tx, rx) = smr_async::sync::oneshot();
/// tx.send(7u64);
/// assert_eq!(smr_async::block_on(rx), Some(7));
/// ```
pub fn oneshot<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(OneshotInner {
        state: Mutex::new(OneshotState::Empty(None)),
    });
    (
        Sender {
            inner: inner.clone(),
            sent: false,
        },
        Receiver { inner },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{block_on, scope, yield_now};

    #[test]
    fn oneshot_delivers_across_tasks() {
        let (tx, rx) = oneshot();
        let value = scope(2, |sp| {
            sp.spawn(async move {
                yield_now().await;
                tx.send(99u64);
            });
            block_on(rx)
        });
        assert_eq!(value, Some(99));
    }

    #[test]
    fn oneshot_sender_drop_closes() {
        let (tx, rx) = oneshot::<u64>();
        drop(tx);
        assert_eq!(block_on(rx), None);
    }
}

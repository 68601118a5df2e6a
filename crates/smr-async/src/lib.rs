//! Async-native service layer over `smr-core`.
//!
//! The paper's oversubscription claim — handle-cheap reclamation that
//! scales past thread-per-handle — is only exercised end-to-end when
//! *many more tasks than handles* actually run. This crate supplies the
//! async machinery to do that without external dependencies:
//!
//! * [`executor`]: a scoped multi-worker executor ([`scope`], [`block_on`],
//!   [`yield_now`]) whose tasks may borrow the reclamation domain from the
//!   caller's stack, mirroring [`std::thread::scope`].
//! * [`sync`]: waker-backed [`oneshot`](sync::oneshot) and
//!   [`Notify`](sync::Notify) primitives.
//! * [`queue`]: the bounded [`DrainQueue`] hand-off
//!   between hot-path producers and async consumers.
//! * [`guard`]: [`TaskGuard`], a task-scoped pooled
//!   handle acquired via the async, FIFO-fair
//!   [`HandlePool::check_out`](smr_core::HandlePool::check_out) path.
//! * [`reclaimer`]: per-shard background reclaimer tasks that flush dirty
//!   handles off the hot path, with a panic-safe shutdown handshake.
//!
//! The connection loop these pieces serve is the benchmark's `kv-service`
//! workload, built from the public items above.
//!
//! Nothing here sleeps or parks a thread from task context — reclaimers
//! and connections yield cooperatively. The crate forbids clippy's
//! `disallowed_methods` (`thread::sleep`/`thread::park`, see the workspace's
//! `clippy.toml`), so not even a `#[cfg(test)]` module can opt out.

#![forbid(clippy::disallowed_methods)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod guard;
pub mod queue;
pub mod reclaimer;
pub mod sync;

pub use executor::{block_on, scope, yield_now, Spawner, YieldNow};
pub use guard::TaskGuard;
pub use queue::{DrainQueue, PushError};
pub use reclaimer::{ReclaimRouter, ReclaimStats, ReclaimTicket, ShutdownGate};

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    struct Noop;
    impl Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }

    /// A waker that ignores wakes, for polling futures by hand in tests.
    pub(crate) fn noop_waker() -> Waker {
        Waker::from(Arc::new(Noop))
    }
}

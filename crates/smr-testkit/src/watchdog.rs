//! Turns a hang into a failure.
//!
//! A reclamation bug often shows up as a hang rather than a crash: a reader
//! parked on a [`StallPoint`](crate::StallPoint) that is never released, a
//! thread spinning on a list that a premature free turned into a cycle. Run
//! under [`run`], such a case panics with its name once its deadline
//! passes, and the test binary goes on to its next test and exits.
//!
//! The case runs on a thread of its own, and the caller waits for it with
//! [`Receiver::recv_timeout`](std::sync::mpsc::Receiver::recv_timeout): the
//! workspace lints forbid `sleep` and `park`. A case that times out is left
//! running on its thread; the process ends it when the test binary exits.
//!
//! # Example
//!
//! ```
//! use smr_testkit::watchdog;
//! use std::time::Duration;
//!
//! let sum = watchdog::run("sum", Duration::from_secs(10), || (1..=4).sum::<u32>());
//! assert_eq!(sum, 10);
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Runs `case` on its own thread and returns its result. A panic in `case`
/// is re-raised here.
///
/// # Panics
///
/// Panics, naming `name` and `deadline`, if `case` has not returned by the
/// deadline, and with `case`'s own payload if `case` panics.
pub fn run<R, F>(name: &str, deadline: Duration, case: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (done, result) = mpsc::channel();
    thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            // The receiver is gone once the deadline passed; nothing to tell.
            let _ = done.send(panic::catch_unwind(AssertUnwindSafe(case)));
        })
        .expect("spawn the case thread");
    match result.recv_timeout(deadline) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name}: did not finish within its {deadline:?} deadline (hung?)")
        }
        Err(RecvTimeoutError::Disconnected) => unreachable!("the case thread always reports"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "blocked: did not finish within its 200ms deadline")]
    fn blocked_case_fails_by_its_deadline() {
        let (keep, never) = mpsc::channel::<()>();
        run("blocked", Duration::from_millis(200), move || {
            let _sender = keep;
            never.recv().ok();
        });
    }

    #[test]
    #[should_panic(expected = "the case's own message")]
    fn case_panic_is_re_raised() {
        run("panics", Duration::from_secs(10), || {
            panic!("the case's own message")
        });
    }
}

//! Magic-word payloads that poison themselves on drop.
//!
//! A use-after-free read does not usually crash: it returns whatever bytes
//! happen to live at the address, which often look plausible. A [`Canary`]
//! payload makes the failure observable: while alive, [`Canary::check`]
//! validates a checksum over its fields; its `Drop` implementation overwrites
//! the magic word with a poison pattern, so a read through a dangling
//! reference fails the checksum (as long as the allocation has not been
//! rewritten by an unrelated allocation — pair with
//! [`TokenMint`](crate::token::TokenMint) to cover that case too).

use std::sync::atomic::{AtomicU64, Ordering};

/// Magic value stored in a live canary.
const ALIVE: u64 = 0x1DEA_C0DE_F00D_BEEF;

/// Poison value written by `Drop`.
const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// The error returned when a canary checksum fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryViolation {
    /// The magic word observed (poison, or garbage from reused memory).
    pub observed_magic: u64,
    /// The payload value observed.
    pub observed_value: u64,
    /// The checksum observed.
    pub observed_checksum: u64,
}

impl std::fmt::Display for CanaryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.observed_magic == POISON {
            write!(
                f,
                "use-after-free: canary is poisoned (value {:#x})",
                self.observed_value
            )
        } else {
            write!(
                f,
                "memory corruption: canary magic {:#x}, value {:#x}, checksum {:#x}",
                self.observed_magic, self.observed_value, self.observed_checksum
            )
        }
    }
}

impl std::error::Error for CanaryViolation {}

/// A self-validating payload for reclaimed nodes.
///
/// # Example
///
/// ```
/// use smr_testkit::Canary;
///
/// let canary = Canary::new(7);
/// assert_eq!(canary.check().unwrap(), 7);
/// ```
#[derive(Debug)]
pub struct Canary {
    magic: AtomicU64,
    value: u64,
    checksum: AtomicU64,
}

impl Canary {
    /// A live canary holding `value`.
    pub fn new(value: u64) -> Self {
        Self {
            magic: AtomicU64::new(ALIVE),
            value,
            checksum: AtomicU64::new(Self::expected_checksum(value)),
        }
    }

    fn expected_checksum(value: u64) -> u64 {
        ALIVE ^ value.rotate_left(17) ^ 0x5BD1_E995
    }

    /// Validates the canary and returns the stored value.
    ///
    /// # Errors
    ///
    /// Returns a [`CanaryViolation`] when the magic word or checksum does not
    /// match — the payload has been dropped (poisoned) or its memory reused.
    pub fn check(&self) -> Result<u64, CanaryViolation> {
        let magic = self.magic.load(Ordering::Acquire);
        let checksum = self.checksum.load(Ordering::Acquire);
        let value = self.value;
        if magic == ALIVE && checksum == Self::expected_checksum(value) {
            Ok(value)
        } else {
            Err(CanaryViolation {
                observed_magic: magic,
                observed_value: value,
                observed_checksum: checksum,
            })
        }
    }

    /// The stored value, without validation (for display in failure paths).
    pub fn value_unchecked(&self) -> u64 {
        self.value
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.magic.store(POISON, Ordering::Release);
        self.checksum.store(POISON, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_canary_checks_out() {
        let c = Canary::new(123);
        assert_eq!(c.check().unwrap(), 123);
        assert_eq!(c.value_unchecked(), 123);
    }

    #[test]
    fn dropped_canary_is_poisoned() {
        let c = Canary::new(9);
        // Drop in place, then inspect the bytes the allocation held. This is
        // exactly what a use-after-free does; we emulate it without UB by
        // keeping the storage alive in a ManuallyDrop.
        let slot = std::mem::ManuallyDrop::new(c);
        let alias: &Canary = &slot;
        // SAFETY: `slot` is a `ManuallyDrop`, so this is the only drop of the
        // canary; its storage stays allocated for `alias` to read afterwards.
        unsafe {
            std::ptr::drop_in_place(&*slot as *const Canary as *mut Canary);
        }
        let err = alias.check().unwrap_err();
        assert_eq!(err.observed_magic, POISON);
        assert!(err.to_string().contains("use-after-free"));
    }

    #[test]
    fn corrupted_checksum_is_detected() {
        let c = Canary::new(1);
        c.checksum.store(42, Ordering::Relaxed);
        let err = c.check().unwrap_err();
        assert!(err.to_string().contains("corruption"));
        // Forget: the canary was deliberately corrupted; dropping is fine
        // but check() must have failed first.
        drop(c);
    }

    #[test]
    fn distinct_values_have_distinct_checksums() {
        let a = Canary::new(1);
        let b = Canary::new(2);
        assert_ne!(
            a.checksum.load(Ordering::Relaxed),
            b.checksum.load(Ordering::Relaxed)
        );
    }
}

//! Error type for flash device and FTL operations.

use core::fmt;

use crate::geometry::PageAddr;

/// Errors raised by the flash device and the baseline FTL.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// A page address is outside the device geometry.
    AddressOutOfRange(PageAddr),
    /// Attempted to program a page that is not in the `Free` state.
    /// NAND pages are program-once; an out-of-place update is required.
    PageNotFree(PageAddr),
    /// Attempted to read a page that has never been programmed (or has been
    /// erased).
    PageNotValid(PageAddr),
    /// Payload length differs from the device page size.
    BadPayloadSize {
        /// Bytes supplied by the caller.
        got: usize,
        /// The device page size.
        expected: usize,
    },
    /// No free page satisfies an allocation request (device full even after
    /// garbage collection).
    DeviceFull,
    /// A logical address is outside the FTL's exported LBA range.
    LbaOutOfRange {
        /// The offending logical page number.
        lba: u64,
        /// Number of exported logical pages.
        capacity: u64,
    },
    /// Read of a logical page that was never written.
    LbaNotWritten(u64),
    /// A page program failed permanently; the containing block has been
    /// retired and the data must be placed elsewhere.
    ProgramFailed(PageAddr),
    /// A page read kept failing ECC after exhausting the read-retry budget.
    ReadUnrecoverable(PageAddr),
    /// The device or FTL detected an internal bookkeeping inconsistency
    /// (e.g. a page marked valid with no backing data, or a valid page
    /// missing from the reverse map). Surfaced as a typed error instead of
    /// panicking so a simulation can fail a single request, not the whole
    /// run.
    Inconsistent {
        /// The physical page where the inconsistency was observed.
        addr: PageAddr,
        /// What invariant was violated.
        what: &'static str,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::AddressOutOfRange(a) => write!(f, "page address {a} outside geometry"),
            FlashError::PageNotFree(a) => {
                write!(f, "page {a} is not free; NAND pages are program-once")
            }
            FlashError::PageNotValid(a) => write!(f, "page {a} holds no valid data"),
            FlashError::BadPayloadSize { got, expected } => {
                write!(f, "payload is {got} bytes but the page size is {expected}")
            }
            FlashError::DeviceFull => write!(f, "no free page available after garbage collection"),
            FlashError::LbaOutOfRange { lba, capacity } => {
                write!(f, "lba {lba} outside exported capacity of {capacity} pages")
            }
            FlashError::LbaNotWritten(lba) => write!(f, "lba {lba} was never written"),
            FlashError::ProgramFailed(a) => {
                write!(f, "program of page {a} failed permanently; block retired")
            }
            FlashError::ReadUnrecoverable(a) => {
                write!(f, "read of page {a} failed ecc beyond the retry budget")
            }
            FlashError::Inconsistent { addr, what } => {
                write!(f, "internal inconsistency at page {addr}: {what}")
            }
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let a = PageAddr {
            channel: 1,
            bank: 2,
            block: 3,
            page: 4,
        };
        let msgs = [
            FlashError::AddressOutOfRange(a).to_string(),
            FlashError::PageNotFree(a).to_string(),
            FlashError::PageNotValid(a).to_string(),
            FlashError::BadPayloadSize {
                got: 1,
                expected: 2,
            }
            .to_string(),
            FlashError::DeviceFull.to_string(),
            FlashError::LbaOutOfRange {
                lba: 9,
                capacity: 4,
            }
            .to_string(),
            FlashError::LbaNotWritten(7).to_string(),
            FlashError::ProgramFailed(a).to_string(),
            FlashError::ReadUnrecoverable(a).to_string(),
            FlashError::Inconsistent {
                addr: a,
                what: "page marked valid holds no data",
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(FlashError::DeviceFull);
    }
}

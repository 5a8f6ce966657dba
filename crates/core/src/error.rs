//! Error type for STL operations.

use core::fmt;

use crate::backend::UnitLocation;
use crate::space::SpaceId;
use crate::views::ViewId;

/// Errors raised by the space translation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NdsError {
    /// No space is registered under the given identifier.
    UnknownSpace(SpaceId),
    /// No open view with the given dynamic identifier (it was never opened
    /// or `close_space` already reclaimed it, §5.3.1).
    UnknownView(ViewId),
    /// A view's total volume differs from the space's total volume; the
    /// paper permits any dimensionality "as long as the volumes of these two
    /// dimensionalities match" (§3).
    ViewVolumeMismatch {
        /// Elements in the space.
        space: u64,
        /// Elements in the requested view.
        view: u64,
    },
    /// The coordinate/sub-dimensionality pair has a different number of
    /// dimensions than the view.
    ArityMismatch {
        /// Dimensions in the view shape.
        view: usize,
        /// Dimensions in the request.
        request: usize,
    },
    /// The requested partition extends beyond the view's bounds.
    OutOfBounds {
        /// The offending dimension (0 = fastest-varying).
        dim: usize,
        /// First element past the end of the requested partition.
        end: u64,
        /// Size of the view in that dimension.
        size: u64,
    },
    /// A write payload does not match the partition's byte volume.
    BadPayloadSize {
        /// Bytes supplied.
        got: usize,
        /// Bytes the partition holds.
        expected: usize,
    },
    /// A shape had zero dimensions or a zero-sized dimension.
    EmptyShape,
    /// A shape's element volume, or its size in bytes, does not fit in 64 bits.
    ShapeTooLarge,
    /// The backing device has no free unit where the allocation policy needs
    /// one, even after garbage collection.
    DeviceFull {
        /// The channel that was being allocated from.
        channel: u32,
        /// The bank that was being allocated from.
        bank: u32,
    },
    /// The backend failed to read a unit the tree claims exists.
    MissingUnit(UnitLocation),
    /// The request's plan needs a block or unit index beyond the 32 bits
    /// its assembly spans have for one.
    PlanTooLarge,
    /// The backend could not store a unit the STL allocated; `reason` is the
    /// backend's own error.
    Backend {
        /// The unit being written.
        unit: UnitLocation,
        /// The backend's error, rendered.
        reason: String,
    },
    /// The STL's own bookkeeping disagreed with itself (a plan named a unit
    /// its block does not have, a tree node sat at the wrong level). A typed
    /// error so that one request fails, not the run.
    Inconsistent(&'static str),
}

impl fmt::Display for NdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NdsError::UnknownSpace(id) => write!(f, "no space with identifier {id}"),
            NdsError::UnknownView(id) => write!(f, "no open view with identifier {id}"),
            NdsError::ViewVolumeMismatch { space, view } => write!(
                f,
                "view volume of {view} elements does not match space volume of {space}"
            ),
            NdsError::ArityMismatch { view, request } => write!(
                f,
                "request has {request} dimensions but the view has {view}"
            ),
            NdsError::OutOfBounds { dim, end, size } => write!(
                f,
                "partition reaches element {end} in dimension {dim}, past the view size of {size}"
            ),
            NdsError::BadPayloadSize { got, expected } => {
                write!(
                    f,
                    "payload is {got} bytes but the partition holds {expected}"
                )
            }
            NdsError::EmptyShape => write!(f, "shapes must have at least one non-zero dimension"),
            NdsError::ShapeTooLarge => write!(f, "shape volume or byte size overflows 64 bits"),
            NdsError::DeviceFull { channel, bank } => write!(
                f,
                "no free unit in channel {channel}, bank {bank} after garbage collection"
            ),
            NdsError::MissingUnit(loc) => {
                write!(
                    f,
                    "backend lost unit {loc} that the locator tree references"
                )
            }
            NdsError::PlanTooLarge => {
                write!(f, "request plan exceeds its 32-bit block and unit indices")
            }
            NdsError::Backend { unit, reason } => {
                write!(f, "backend could not store unit {unit}: {reason}")
            }
            NdsError::Inconsistent(what) => write!(f, "stl invariant violated: {what}"),
        }
    }
}

impl std::error::Error for NdsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_nonempty_and_lowercase() {
        let cases = [
            NdsError::UnknownSpace(SpaceId(3)).to_string(),
            NdsError::ViewVolumeMismatch { space: 4, view: 8 }.to_string(),
            NdsError::ArityMismatch {
                view: 2,
                request: 3,
            }
            .to_string(),
            NdsError::OutOfBounds {
                dim: 0,
                end: 10,
                size: 8,
            }
            .to_string(),
            NdsError::BadPayloadSize {
                got: 1,
                expected: 2,
            }
            .to_string(),
            NdsError::EmptyShape.to_string(),
            NdsError::DeviceFull {
                channel: 1,
                bank: 2,
            }
            .to_string(),
            NdsError::PlanTooLarge.to_string(),
            NdsError::ShapeTooLarge.to_string(),
            NdsError::Backend {
                unit: UnitLocation {
                    channel: 0,
                    bank: 1,
                    unit: 2,
                },
                reason: "device full".into(),
            }
            .to_string(),
            NdsError::Inconsistent("span outside its unit").to_string(),
        ];
        for msg in cases {
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NdsError>();
    }
}

//! The NVMe command set with the NDS extension (§5.3.1).
//!
//! An extended NVMe command flags a reserved bit in its first 64-bit word;
//! its second word points to a host memory page carrying the
//! multi-dimensional arguments (coordinates and sub-dimensionality for
//! read/write; the dimension list for `open_space`). The paper caps both at
//! 32 dimensions with 2²⁴ elements per dimension — one 4 KB page is enough
//! to carry them. Conventional commands address a one-dimensional LBA space
//! and pass through unchanged, which is how NDS stays compatible with
//! existing NVMe software.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Maximum number of dimensions an extended command can describe (§5.3.1).
pub const MAX_DIMENSIONS: usize = 32;

/// Maximum elements per dimension an extended command can describe (2²⁴).
pub const MAX_ELEMENTS_PER_DIM: u64 = 1 << 24;

/// Identifier of an open NDS address space, as returned by `open_space`.
///
/// The paper's `open_space` returns a 64-bit identifier plus a dynamic space
/// ID that distinguishes per-application *views*; we fold both into one
/// opaque 64-bit handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpaceId(pub u64);

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "space#{}", self.0)
    }
}

/// A command crossing the host↔device interface.
///
/// Conventional commands (`Read`/`Write`) address the linear LBA space;
/// extended commands (`Nds*`, `OpenSpace`, …) carry multi-dimensional
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NvmeCommand {
    /// Conventional read of `pages` logical pages starting at `lba`.
    Read {
        /// Starting logical page number.
        lba: u64,
        /// Number of pages.
        pages: u64,
    },
    /// Conventional write of `pages` logical pages starting at `lba`.
    Write {
        /// Starting logical page number.
        lba: u64,
        /// Number of pages.
        pages: u64,
    },
    /// Create a space (or re-dimension an existing one, per the command's
    /// flag in the paper). The device replies with a [`SpaceId`].
    OpenSpace {
        /// Size of each dimension, highest order first.
        dims: Vec<u64>,
        /// Element size in bytes.
        element_size: u32,
    },
    /// Reclaim the dynamic space ID; the data remains.
    CloseSpace {
        /// The space view to close.
        space: SpaceId,
    },
    /// Permanently delete a space: invalidate its building blocks and drop
    /// its translation structures.
    DeleteSpace {
        /// The space to delete.
        space: SpaceId,
    },
    /// Extended multi-dimensional read: fetch the partition of `space` at
    /// `coord` with extent `sub_dims`, assembled in the application's view.
    NdsRead {
        /// Target space.
        space: SpaceId,
        /// Partition origin, in partition-count units per dimension.
        coord: Vec<u64>,
        /// Partition extent per dimension, in elements.
        sub_dims: Vec<u64>,
    },
    /// Extended multi-dimensional write of the partition at `coord`.
    NdsWrite {
        /// Target space.
        space: SpaceId,
        /// Partition origin, in partition-count units per dimension.
        coord: Vec<u64>,
        /// Partition extent per dimension, in elements.
        sub_dims: Vec<u64>,
    },
}

/// Validation failures for commands.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CommandError {
    /// More than [`MAX_DIMENSIONS`] dimensions.
    TooManyDimensions(usize),
    /// A dimension exceeds [`MAX_ELEMENTS_PER_DIM`] elements.
    DimensionTooLarge(u64),
    /// A dimension (or page count, or element size) of zero.
    ZeroExtent,
    /// `coord` and `sub_dims` have different lengths.
    MismatchedArity {
        /// Length of the coordinate vector.
        coord: usize,
        /// Length of the sub-dimensionality vector.
        sub_dims: usize,
    },
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::TooManyDimensions(n) => {
                write!(f, "{n} dimensions exceed the limit of {MAX_DIMENSIONS}")
            }
            CommandError::DimensionTooLarge(d) => {
                write!(f, "dimension of {d} elements exceeds 2^24")
            }
            CommandError::ZeroExtent => write!(f, "extents must be non-zero"),
            CommandError::MismatchedArity { coord, sub_dims } => write!(
                f,
                "coordinate has {coord} dimensions but sub-dimensionality has {sub_dims}"
            ),
        }
    }
}

impl std::error::Error for CommandError {}

impl NvmeCommand {
    /// Bytes of command metadata crossing the link: 64 B of command words for
    /// every command, plus one 4 KB argument page for extended commands that
    /// carry coordinates or dimension lists.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            NvmeCommand::Read { .. } | NvmeCommand::Write { .. } => 64,
            NvmeCommand::CloseSpace { .. } | NvmeCommand::DeleteSpace { .. } => 64,
            NvmeCommand::OpenSpace { .. }
            | NvmeCommand::NdsRead { .. }
            | NvmeCommand::NdsWrite { .. } => 64 + 4096,
        }
    }

    /// Validates the command against the paper's interface limits.
    ///
    /// # Errors
    ///
    /// Returns the first violated limit (see [`CommandError`]).
    pub fn validate(&self) -> Result<(), CommandError> {
        fn check_dims(dims: &[u64]) -> Result<(), CommandError> {
            if dims.len() > MAX_DIMENSIONS {
                return Err(CommandError::TooManyDimensions(dims.len()));
            }
            for &d in dims {
                if d == 0 {
                    return Err(CommandError::ZeroExtent);
                }
                if d > MAX_ELEMENTS_PER_DIM {
                    return Err(CommandError::DimensionTooLarge(d));
                }
            }
            Ok(())
        }
        match self {
            NvmeCommand::Read { pages, .. } | NvmeCommand::Write { pages, .. } => {
                if *pages == 0 {
                    Err(CommandError::ZeroExtent)
                } else {
                    Ok(())
                }
            }
            NvmeCommand::OpenSpace { dims, element_size } => {
                if *element_size == 0 {
                    return Err(CommandError::ZeroExtent);
                }
                if dims.is_empty() {
                    return Err(CommandError::ZeroExtent);
                }
                check_dims(dims)
            }
            NvmeCommand::CloseSpace { .. } | NvmeCommand::DeleteSpace { .. } => Ok(()),
            NvmeCommand::NdsRead {
                coord, sub_dims, ..
            }
            | NvmeCommand::NdsWrite {
                coord, sub_dims, ..
            } => {
                if coord.len() != sub_dims.len() {
                    return Err(CommandError::MismatchedArity {
                        coord: coord.len(),
                        sub_dims: sub_dims.len(),
                    });
                }
                if coord.len() > MAX_DIMENSIONS {
                    return Err(CommandError::TooManyDimensions(coord.len()));
                }
                check_dims(sub_dims)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_commands_carry_an_argument_page() {
        let conv = NvmeCommand::Read { lba: 0, pages: 1 };
        let ext = NvmeCommand::NdsRead {
            space: SpaceId(0),
            coord: vec![0],
            sub_dims: vec![1],
        };
        assert_eq!(conv.wire_bytes(), 64);
        assert_eq!(ext.wire_bytes(), 64 + 4096);
    }

    #[test]
    fn validation_accepts_paper_limits() {
        let cmd = NvmeCommand::OpenSpace {
            dims: vec![MAX_ELEMENTS_PER_DIM; MAX_DIMENSIONS],
            element_size: 8,
        };
        assert_eq!(cmd.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_33_dimensions() {
        let cmd = NvmeCommand::OpenSpace {
            dims: vec![2; MAX_DIMENSIONS + 1],
            element_size: 4,
        };
        assert_eq!(
            cmd.validate(),
            Err(CommandError::TooManyDimensions(MAX_DIMENSIONS + 1))
        );
    }

    #[test]
    fn validation_rejects_oversized_dimension() {
        let cmd = NvmeCommand::OpenSpace {
            dims: vec![MAX_ELEMENTS_PER_DIM + 1],
            element_size: 4,
        };
        assert_eq!(
            cmd.validate(),
            Err(CommandError::DimensionTooLarge(MAX_ELEMENTS_PER_DIM + 1))
        );
    }

    #[test]
    fn validation_rejects_zero_extents() {
        assert_eq!(
            NvmeCommand::Read { lba: 0, pages: 0 }.validate(),
            Err(CommandError::ZeroExtent)
        );
        assert_eq!(
            NvmeCommand::OpenSpace {
                dims: vec![0],
                element_size: 4
            }
            .validate(),
            Err(CommandError::ZeroExtent)
        );
        assert_eq!(
            NvmeCommand::OpenSpace {
                dims: vec![4],
                element_size: 0
            }
            .validate(),
            Err(CommandError::ZeroExtent)
        );
    }

    #[test]
    fn validation_rejects_arity_mismatch() {
        let cmd = NvmeCommand::NdsRead {
            space: SpaceId(0),
            coord: vec![0, 0],
            sub_dims: vec![1],
        };
        assert_eq!(
            cmd.validate(),
            Err(CommandError::MismatchedArity {
                coord: 2,
                sub_dims: 1
            })
        );
    }

    #[test]
    fn error_messages_are_nonempty() {
        let errs: Vec<CommandError> = vec![
            CommandError::TooManyDimensions(40),
            CommandError::DimensionTooLarge(1 << 30),
            CommandError::ZeroExtent,
            CommandError::MismatchedArity {
                coord: 2,
                sub_dims: 3,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

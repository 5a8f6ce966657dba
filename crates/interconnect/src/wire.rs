//! The on-wire encoding of the extended NVMe command set (§5.3.1).
//!
//! Per the paper: an extended command flags **a reserved bit in the first
//! 64-bit command word** of the standard 64-byte NVMe submission entry; its
//! **second 64-bit word points to a memory page** carrying the
//! multi-dimensional arguments (here the page travels inline). With 4 KB
//! pages, "each extended command can support coordinates up to 32
//! dimensions and 2²⁴ elements in each dimension" — limits the codec
//! enforces on both encode and decode.
//!
//! Layout of the 64-byte submission entry (little-endian):
//!
//! ```text
//! bytes 0..8    word0: opcode (byte 0) | EXT bit (bit 63)
//! bytes 8..16   word1: argument-page presence flag (1 when a page follows)
//! bytes 16..24  conventional: LBA        extended: space id
//! bytes 24..32  conventional: page count extended: dimension count
//! bytes 32..64  reserved (zero)
//! ```
//!
//! The 4 KB argument page holds, per dimension, a `(coordinate, extent)`
//! pair of u64s for read/write commands, or a single extent for
//! `open_space` (whose element size rides in the entry's reserved area).

use crate::command::{NvmeCommand, SpaceId, MAX_DIMENSIONS, MAX_ELEMENTS_PER_DIM};

/// Size of one submission-queue entry.
pub const ENTRY_BYTES: usize = 64;
/// Size of the argument page extended commands carry.
pub const ARG_PAGE_BYTES: usize = 4096;

const EXT_BIT: u64 = 1 << 63;

const OP_READ: u8 = 0x02;
const OP_WRITE: u8 = 0x01;
const OP_OPEN_SPACE: u8 = 0x81;
const OP_CLOSE_SPACE: u8 = 0x82;
const OP_DELETE_SPACE: u8 = 0x83;
const OP_NDS_READ: u8 = 0x8A;
const OP_NDS_WRITE: u8 = 0x8B;

/// A command as it crosses the interface: the 64-byte entry plus, for
/// extended commands, the 4 KB argument page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCommand {
    /// The submission-queue entry.
    pub entry: [u8; ENTRY_BYTES],
    /// The argument page, present iff the EXT bit is set and the command
    /// carries multi-dimensional arguments.
    pub arg_page: Option<Box<[u8; ARG_PAGE_BYTES]>>,
}

impl Default for WireCommand {
    /// An all-zero entry with no argument page — what
    /// [`encode_into`] starts a reusable command buffer from.
    fn default() -> Self {
        WireCommand {
            entry: [0u8; ENTRY_BYTES],
            arg_page: None,
        }
    }
}

impl WireCommand {
    /// Total bytes this command occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        ENTRY_BYTES as u64 + self.arg_page.as_ref().map_or(0, |_| ARG_PAGE_BYTES as u64)
    }
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The opcode byte is not part of the (extended) command set.
    UnknownOpcode(u8),
    /// The EXT bit and the opcode class disagree.
    ExtensionBitMismatch,
    /// An extended command announced an argument page but none was present
    /// (or vice versa).
    MissingArgPage,
    /// The dimension count exceeds [`MAX_DIMENSIONS`] or is zero where
    /// dimensions are required.
    BadDimensionCount(u64),
    /// A dimension extent exceeds 2²⁴ or is zero.
    BadExtent(u64),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::ExtensionBitMismatch => {
                write!(f, "extension bit does not match the opcode class")
            }
            WireError::MissingArgPage => write!(f, "argument page missing or unexpected"),
            WireError::BadDimensionCount(n) => {
                write!(f, "dimension count {n} outside 1..={MAX_DIMENSIONS}")
            }
            WireError::BadExtent(e) => {
                write!(f, "extent {e} outside 1..={MAX_ELEMENTS_PER_DIM}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Writes `value` little-endian at `offset`. Panic-free by construction:
/// the zip stops at whichever side runs out, and every caller passes an
/// in-bounds constant offset so nothing is ever truncated.
fn put_u64(buf: &mut [u8], offset: usize, value: u64) {
    for (dst, src) in buf.iter_mut().skip(offset).zip(value.to_le_bytes()) {
        *dst = src;
    }
}

/// Reads a little-endian u64 at `offset`; bytes past the buffer read as
/// zero (again statically impossible for the codec's constant offsets).
fn get_u64(buf: &[u8], offset: usize) -> u64 {
    let mut bytes = [0u8; 8];
    for (dst, src) in bytes.iter_mut().zip(buf.iter().skip(offset)) {
        *dst = *src;
    }
    u64::from_le_bytes(bytes)
}

/// A zeroed argument page, recycling `old` when there is one: only the part
/// a command can have written — arguments never reach past
/// [`MAX_DIMENSIONS`] pairs of words — needs zeroing again.
fn blank_page(old: Option<Box<[u8; ARG_PAGE_BYTES]>>) -> Box<[u8; ARG_PAGE_BYTES]> {
    match old {
        Some(mut page) => {
            page.iter_mut()
                .take(MAX_DIMENSIONS * 16)
                .for_each(|b| *b = 0);
            page
        }
        None => Box::new([0u8; ARG_PAGE_BYTES]),
    }
}

/// Encodes a validated command into its wire representation.
///
/// # Errors
///
/// Propagates [`NvmeCommand::validate`] failures as [`WireError`]s
/// (dimension/extent limits).
///
/// # Example
///
/// ```
/// use nds_interconnect::{wire, NvmeCommand, SpaceId};
///
/// let cmd = NvmeCommand::NdsRead {
///     space: SpaceId(3),
///     coord: vec![1, 2],
///     sub_dims: vec![64, 64],
/// };
/// let wired = wire::encode(&cmd).unwrap();
/// assert_eq!(wired.wire_bytes(), 64 + 4096);
/// assert_eq!(wire::decode(&wired).unwrap(), cmd);
/// ```
pub fn encode(cmd: &NvmeCommand) -> Result<WireCommand, WireError> {
    let mut wired = WireCommand::default();
    encode_into(cmd, &mut wired)?;
    Ok(wired)
}

/// [`encode`] into a caller-kept [`WireCommand`], reusing its argument page:
/// a driver that keeps one `WireCommand` per queue encodes without
/// allocating. The result is byte-identical to a fresh [`encode`]. On an
/// error `wired` is unspecified.
///
/// # Errors
///
/// Same as [`encode`].
pub fn encode_into(cmd: &NvmeCommand, wired: &mut WireCommand) -> Result<(), WireError> {
    if let Err(e) = cmd.validate() {
        return Err(match e {
            crate::command::CommandError::TooManyDimensions(n) => {
                WireError::BadDimensionCount(n as u64)
            }
            crate::command::CommandError::DimensionTooLarge(d) => WireError::BadExtent(d),
            crate::command::CommandError::ZeroExtent => WireError::BadExtent(0),
            crate::command::CommandError::MismatchedArity { coord, .. } => {
                WireError::BadDimensionCount(coord as u64)
            }
        });
    }
    wired.entry = [0u8; ENTRY_BYTES];
    let entry = &mut wired.entry;

    match cmd {
        NvmeCommand::Read { lba, pages } | NvmeCommand::Write { lba, pages } => {
            let op = if matches!(cmd, NvmeCommand::Read { .. }) {
                OP_READ
            } else {
                OP_WRITE
            };
            put_u64(entry, 0, u64::from(op));
            put_u64(entry, 16, *lba);
            put_u64(entry, 24, *pages);
            wired.arg_page = None;
        }
        NvmeCommand::OpenSpace { dims, element_size } => {
            put_u64(entry, 0, u64::from(OP_OPEN_SPACE) | EXT_BIT);
            put_u64(entry, 8, 1);
            put_u64(entry, 24, dims.len() as u64);
            put_u64(entry, 32, u64::from(*element_size));
            let mut page = blank_page(wired.arg_page.take());
            for (i, &d) in dims.iter().enumerate() {
                put_u64(page.as_mut_slice(), i * 8, d);
            }
            wired.arg_page = Some(page);
        }
        NvmeCommand::CloseSpace { space } | NvmeCommand::DeleteSpace { space } => {
            let op = if matches!(cmd, NvmeCommand::CloseSpace { .. }) {
                OP_CLOSE_SPACE
            } else {
                OP_DELETE_SPACE
            };
            put_u64(entry, 0, u64::from(op) | EXT_BIT);
            put_u64(entry, 16, space.0);
            wired.arg_page = None;
        }
        NvmeCommand::NdsRead {
            space,
            coord,
            sub_dims,
        }
        | NvmeCommand::NdsWrite {
            space,
            coord,
            sub_dims,
        } => {
            let op = if matches!(cmd, NvmeCommand::NdsRead { .. }) {
                OP_NDS_READ
            } else {
                OP_NDS_WRITE
            };
            put_u64(entry, 0, u64::from(op) | EXT_BIT);
            put_u64(entry, 8, 1);
            put_u64(entry, 16, space.0);
            put_u64(entry, 24, coord.len() as u64);
            let mut page = blank_page(wired.arg_page.take());
            // validate() guarantees equal arity; zip makes it panic-free.
            for (i, (&c, &d)) in coord.iter().zip(sub_dims.iter()).enumerate() {
                put_u64(page.as_mut_slice(), i * 16, c);
                put_u64(page.as_mut_slice(), i * 16 + 8, d);
            }
            wired.arg_page = Some(page);
        }
    }
    Ok(())
}

/// Decodes a wire command back into its structured form.
///
/// # Errors
///
/// Any [`WireError`] for malformed entries (unknown opcode, wrong EXT bit,
/// missing argument page, out-of-range dimensions/extents).
pub fn decode(wired: &WireCommand) -> Result<NvmeCommand, WireError> {
    let mut cmd = NvmeCommand::Read { lba: 0, pages: 0 };
    decode_into(wired, &mut cmd)?;
    Ok(cmd)
}

/// [`decode`] into a caller-kept command: when `cmd` already is an
/// `NdsRead`/`NdsWrite` (the previous command a controller decoded), its
/// coordinate vectors are reused, so decoding a stream of extended
/// read/write commands does not allocate. On an error `cmd` is unspecified.
///
/// # Errors
///
/// Same as [`decode`].
pub fn decode_into(wired: &WireCommand, cmd: &mut NvmeCommand) -> Result<(), WireError> {
    let word0 = get_u64(&wired.entry, 0);
    let opcode = (word0 & 0xFF) as u8;
    let ext = word0 & EXT_BIT != 0;
    let wants_page = get_u64(&wired.entry, 8) == 1;
    if wants_page != wired.arg_page.is_some() {
        return Err(WireError::MissingArgPage);
    }

    let check_dims = |n: u64| -> Result<usize, WireError> {
        if n == 0 || n > MAX_DIMENSIONS as u64 {
            Err(WireError::BadDimensionCount(n))
        } else {
            Ok(n as usize)
        }
    };
    let check_extent = |e: u64| -> Result<u64, WireError> {
        if e == 0 || e > MAX_ELEMENTS_PER_DIM {
            Err(WireError::BadExtent(e))
        } else {
            Ok(e)
        }
    };

    match opcode {
        OP_READ | OP_WRITE => {
            if ext {
                return Err(WireError::ExtensionBitMismatch);
            }
            let lba = get_u64(&wired.entry, 16);
            let pages = get_u64(&wired.entry, 24);
            if pages == 0 {
                return Err(WireError::BadExtent(0));
            }
            *cmd = if opcode == OP_READ {
                NvmeCommand::Read { lba, pages }
            } else {
                NvmeCommand::Write { lba, pages }
            };
        }
        OP_OPEN_SPACE => {
            if !ext {
                return Err(WireError::ExtensionBitMismatch);
            }
            let page = wired.arg_page.as_ref().ok_or(WireError::MissingArgPage)?;
            let ndims = check_dims(get_u64(&wired.entry, 24))?;
            let element_size = get_u64(&wired.entry, 32) as u32;
            if element_size == 0 {
                return Err(WireError::BadExtent(0));
            }
            let mut dims = Vec::with_capacity(ndims);
            for i in 0..ndims {
                dims.push(check_extent(get_u64(page.as_slice(), i * 8))?);
            }
            *cmd = NvmeCommand::OpenSpace { dims, element_size };
        }
        OP_CLOSE_SPACE | OP_DELETE_SPACE => {
            if !ext {
                return Err(WireError::ExtensionBitMismatch);
            }
            let space = SpaceId(get_u64(&wired.entry, 16));
            *cmd = if opcode == OP_CLOSE_SPACE {
                NvmeCommand::CloseSpace { space }
            } else {
                NvmeCommand::DeleteSpace { space }
            };
        }
        OP_NDS_READ | OP_NDS_WRITE => {
            if !ext {
                return Err(WireError::ExtensionBitMismatch);
            }
            let page = wired.arg_page.as_ref().ok_or(WireError::MissingArgPage)?;
            let space = SpaceId(get_u64(&wired.entry, 16));
            let ndims = check_dims(get_u64(&wired.entry, 24))?;
            let (mut coord, mut sub_dims) = match cmd {
                NvmeCommand::NdsRead {
                    coord, sub_dims, ..
                }
                | NvmeCommand::NdsWrite {
                    coord, sub_dims, ..
                } => (std::mem::take(coord), std::mem::take(sub_dims)),
                _ => (Vec::new(), Vec::new()),
            };
            coord.clear();
            sub_dims.clear();
            for i in 0..ndims {
                coord.push(get_u64(page.as_slice(), i * 16));
                sub_dims.push(check_extent(get_u64(page.as_slice(), i * 16 + 8))?);
            }
            *cmd = if opcode == OP_NDS_READ {
                NvmeCommand::NdsRead {
                    space,
                    coord,
                    sub_dims,
                }
            } else {
                NvmeCommand::NdsWrite {
                    space,
                    coord,
                    sub_dims,
                }
            };
        }
        other => return Err(WireError::UnknownOpcode(other)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cmd: NvmeCommand) {
        let wired = encode(&cmd).expect("encode");
        assert_eq!(decode(&wired).expect("decode"), cmd);
    }

    #[test]
    fn all_commands_round_trip() {
        round_trip(NvmeCommand::Read { lba: 42, pages: 7 });
        round_trip(NvmeCommand::Write { lba: 0, pages: 1 });
        round_trip(NvmeCommand::OpenSpace {
            dims: vec![8192, 8192, 4],
            element_size: 4,
        });
        round_trip(NvmeCommand::CloseSpace { space: SpaceId(9) });
        round_trip(NvmeCommand::DeleteSpace { space: SpaceId(1) });
        round_trip(NvmeCommand::NdsRead {
            space: SpaceId(3),
            coord: vec![1, 0, 2],
            sub_dims: vec![128, 128, 1],
        });
        round_trip(NvmeCommand::NdsWrite {
            space: SpaceId(3),
            coord: vec![0; MAX_DIMENSIONS],
            sub_dims: vec![MAX_ELEMENTS_PER_DIM; MAX_DIMENSIONS],
        });
    }

    #[test]
    fn reused_wire_and_command_match_fresh_ones() {
        // A long command, then shorter ones of every kind through the same
        // buffers: stale argument words and vectors must not leak.
        let stream = [
            NvmeCommand::NdsWrite {
                space: SpaceId(3),
                coord: vec![7; MAX_DIMENSIONS],
                sub_dims: vec![MAX_ELEMENTS_PER_DIM; MAX_DIMENSIONS],
            },
            NvmeCommand::NdsRead {
                space: SpaceId(4),
                coord: vec![1, 2],
                sub_dims: vec![8, 8],
            },
            NvmeCommand::OpenSpace {
                dims: vec![16],
                element_size: 4,
            },
            NvmeCommand::Read { lba: 5, pages: 2 },
            NvmeCommand::NdsRead {
                space: SpaceId(4),
                coord: vec![0],
                sub_dims: vec![4],
            },
            NvmeCommand::DeleteSpace { space: SpaceId(4) },
        ];
        let mut wired = encode(&stream[0]).unwrap();
        let mut decoded = NvmeCommand::Read { lba: 0, pages: 1 };
        for cmd in &stream {
            encode_into(cmd, &mut wired).expect("encode_into");
            assert_eq!(wired, encode(cmd).unwrap(), "reused wire bytes for {cmd:?}");
            decode_into(&wired, &mut decoded).expect("decode_into");
            assert_eq!(&decoded, cmd);
        }
    }

    #[test]
    fn conventional_commands_carry_no_page() {
        let wired = encode(&NvmeCommand::Read { lba: 1, pages: 2 }).unwrap();
        assert!(wired.arg_page.is_none());
        assert_eq!(wired.wire_bytes(), 64);
    }

    #[test]
    fn extension_bit_distinguishes_classes() {
        let conv = encode(&NvmeCommand::Read { lba: 0, pages: 1 }).unwrap();
        assert_eq!(get_u64(&conv.entry, 0) & EXT_BIT, 0);
        let ext = encode(&NvmeCommand::DeleteSpace { space: SpaceId(0) }).unwrap();
        assert_ne!(get_u64(&ext.entry, 0) & EXT_BIT, 0);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut entry = [0u8; ENTRY_BYTES];
        entry[0] = 0x77;
        let err = decode(&WireCommand {
            entry,
            arg_page: None,
        })
        .unwrap_err();
        assert_eq!(err, WireError::UnknownOpcode(0x77));
    }

    #[test]
    fn flipped_extension_bit_rejected() {
        let mut wired = encode(&NvmeCommand::Read { lba: 0, pages: 1 }).unwrap();
        // Set the EXT bit on a conventional opcode.
        let word0 = get_u64(&wired.entry, 0) | EXT_BIT;
        put_u64(&mut wired.entry, 0, word0);
        assert_eq!(decode(&wired).unwrap_err(), WireError::ExtensionBitMismatch);
    }

    #[test]
    fn missing_arg_page_rejected() {
        let mut wired = encode(&NvmeCommand::NdsRead {
            space: SpaceId(1),
            coord: vec![0],
            sub_dims: vec![4],
        })
        .unwrap();
        wired.arg_page = None;
        assert_eq!(decode(&wired).unwrap_err(), WireError::MissingArgPage);
    }

    #[test]
    fn corrupt_extent_rejected() {
        let mut wired = encode(&NvmeCommand::NdsRead {
            space: SpaceId(1),
            coord: vec![0],
            sub_dims: vec![4],
        })
        .unwrap();
        // Corrupt the extent beyond 2^24.
        let page = wired.arg_page.as_mut().expect("page");
        put_u64(page.as_mut_slice(), 8, MAX_ELEMENTS_PER_DIM + 5);
        assert!(matches!(decode(&wired), Err(WireError::BadExtent(_))));
    }

    #[test]
    fn oversized_dimension_count_rejected_on_decode() {
        let mut wired = encode(&NvmeCommand::NdsRead {
            space: SpaceId(1),
            coord: vec![0],
            sub_dims: vec![4],
        })
        .unwrap();
        put_u64(&mut wired.entry, 24, 33);
        assert_eq!(
            decode(&wired).unwrap_err(),
            WireError::BadDimensionCount(33)
        );
    }

    #[test]
    fn encode_enforces_limits() {
        let err = encode(&NvmeCommand::OpenSpace {
            dims: vec![2; MAX_DIMENSIONS + 1],
            element_size: 4,
        })
        .unwrap_err();
        assert!(matches!(err, WireError::BadDimensionCount(_)));
    }
}

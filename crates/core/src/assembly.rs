//! Placement assembly of a read into the caller's buffer.
//!
//! Every read path produces its output as a sequence of *pieces* in
//! ascending buffer order: stored bytes, or a run of zeros where nothing is
//! stored (a never-written block, an unallocated or zero-elided unit, an
//! unmapped page). [`Assembler`] sizes the buffer once and puts each piece
//! at its own offset, so every output byte is written once — twice only
//! where the buffer grows and is zero-extended first. Zero runs are written
//! too: the buffer may hold a previous read's bytes.
//!
//! A large read is copied in `k` contiguous parts at once: the stored
//! pieces are gathered first, then each part of the buffer — a disjoint
//! `&mut` range — is filled from the pieces that overlap it, part 0 on the
//! calling thread and the others on scoped workers. `k` is the shared split
//! rule's ([`parts`]) for the read's size and the host's core count, and the
//! bytes do not depend on `k`: it moves wall time, never an output byte.

use crate::error::NdsError;
use crate::parts::{in_parts, parts};

/// The smallest part worth a thread of its own. On a 2-core host a scoped
/// spawn + join costs 38–46 µs and a copy of cold 4 KiB pages runs at
/// 7–8 GB/s, so a read split in two breaks even at about 512 KiB a part;
/// this is twice that (DESIGN.md "Read assembly").
const MIN_PART: usize = 1 << 20;

/// Assembles one read into a caller-provided buffer (see the module docs).
///
/// Pieces must arrive in ascending buffer order and tile the read exactly;
/// [`finish`](Self::finish) copies what is still pending and checks that.
#[derive(Debug)]
#[must_use = "stored pieces are copied by `finish`"]
pub struct Assembler<'b, 's> {
    out: &'b mut [u8],
    /// Buffer offset of the next piece.
    at: usize,
    /// Parts `finish` copies in; with one, every piece is placed on arrival.
    parts: usize,
    /// Stored pieces and their offsets, gathered for a multi-part copy.
    pending: Vec<(usize, &'s [u8])>,
}

impl<'b, 's> Assembler<'b, 's> {
    /// Starts a read of `total` bytes into `buf`, which is sized once: cut
    /// to `total` if it is longer, zero-extended past its old length if it
    /// is shorter. Its capacity is kept, and grown once if `total` needs
    /// more.
    pub fn new(buf: &'b mut Vec<u8>, total: usize) -> Self {
        Self::with_parts(buf, total, parts(total, MIN_PART))
    }

    /// [`new`](Self::new) with the part count given rather than chosen.
    pub(crate) fn with_parts(buf: &'b mut Vec<u8>, total: usize, parts: usize) -> Self {
        buf.resize(total, 0);
        Assembler {
            out: buf,
            at: 0,
            parts: parts.max(1),
            pending: Vec::new(),
        }
    }

    /// The next piece is `bytes`, which outlive the assembly.
    pub fn stored(&mut self, bytes: &'s [u8]) {
        if self.parts == 1 {
            place(self.out, 0, self.at, bytes);
        } else {
            self.pending.push((self.at, bytes));
        }
        self.at = self.at.saturating_add(bytes.len());
    }

    /// The next piece is `len` zero bytes.
    pub fn zeros(&mut self, len: usize) {
        let end = self.at.saturating_add(len);
        if let Some(hole) = self.out.get_mut(self.at..end) {
            hole.fill(0);
        }
        self.at = end;
    }

    /// Copies the gathered pieces, one part per thread; the buffer is
    /// complete.
    ///
    /// # Errors
    ///
    /// [`NdsError::Inconsistent`] if the pieces did not tile the read:
    /// the buffer's contents are then unspecified.
    pub fn finish(self) -> Result<(), NdsError> {
        let Assembler {
            out,
            at,
            parts,
            pending,
        } = self;
        if at != out.len() {
            return Err(NdsError::Inconsistent(
                "read pieces do not tile the request",
            ));
        }
        if pending.is_empty() {
            return Ok(());
        }
        let len = out.len().div_ceil(parts).max(1);
        let pieces = pending.as_slice();
        // Part `i` is the `i`-th range of the buffer and the stored pieces
        // that overlap it.
        let ranges = out.chunks_mut(len).enumerate().map(|(i, out)| {
            let lo = i.saturating_mul(len);
            let hi = lo.saturating_add(out.len());
            let first = pieces.partition_point(|&(at, b)| at.saturating_add(b.len()) <= lo);
            let last = pieces.partition_point(|&(at, _)| at < hi);
            (out, lo, pieces.get(first..last).unwrap_or_default())
        });
        in_parts(parts, ranges, |(out, lo, pieces)| {
            for &(at, bytes) in pieces {
                place(out, lo, at, bytes);
            }
        });
        Ok(())
    }
}

/// Copies what falls inside `out` — the buffer's bytes from offset `lo` —
/// of `bytes`, a piece at buffer offset `at`.
fn place(out: &mut [u8], lo: usize, at: usize, bytes: &[u8]) {
    let start = at.max(lo);
    let end = at
        .saturating_add(bytes.len())
        .min(lo.saturating_add(out.len()));
    if start >= end {
        return;
    }
    if let (Some(dst), Some(src)) = (
        out.get_mut(start - lo..end - lo),
        bytes.get(start - at..end - at),
    ) {
        dst.copy_from_slice(src);
    }
}

/// A piece of a read, for driving [`Assembler`] from a list (see
/// [`assemble_in_parts`]).
#[cfg(any(test, feature = "testing"))]
#[derive(Debug, Clone)]
pub enum Piece {
    /// Passed to [`Assembler::stored`].
    Stored(Vec<u8>),
    /// Passed to [`Assembler::zeros`].
    Zeros(usize),
}

/// Assembles `pieces` into `buf` as a read of `total` bytes copied in
/// `parts` parts, whatever the read's size and the host's cores: the split
/// [`Assembler::new`] chooses only for reads of megabytes, at any size.
///
/// # Errors
///
/// As [`Assembler::finish`].
#[cfg(any(test, feature = "testing"))]
pub fn assemble_in_parts(
    buf: &mut Vec<u8>,
    total: usize,
    parts: usize,
    pieces: &[Piece],
) -> Result<(), NdsError> {
    let mut assembler = Assembler::with_parts(buf, total, parts);
    for piece in pieces {
        match piece {
            Piece::Stored(bytes) => assembler.stored(bytes),
            Piece::Zeros(len) => assembler.zeros(*len),
        }
    }
    assembler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_reads_are_one_part_and_large_ones_one_per_core() {
        let cores = parts(usize::MAX, 1);
        assert!(cores >= 1);
        assert_eq!(parts(0, MIN_PART), 1);
        assert_eq!(parts(2048, MIN_PART), 1);
        assert_eq!(parts(2 * MIN_PART - 1, MIN_PART), 1);
        assert_eq!(parts(2 * MIN_PART, MIN_PART), 2.min(cores));
        assert_eq!(parts(usize::MAX, MIN_PART), cores);
    }

    #[test]
    fn pieces_that_do_not_tile_the_read_are_an_error() {
        let mut buf = Vec::new();
        let short = assemble_in_parts(&mut buf, 8, 2, &[Piece::Stored(vec![1; 7])]);
        let long = assemble_in_parts(
            &mut buf,
            8,
            1,
            &[Piece::Zeros(4), Piece::Stored(vec![1; 5])],
        );
        assert!(matches!(short, Err(NdsError::Inconsistent(_))));
        assert!(matches!(long, Err(NdsError::Inconsistent(_))));
    }

    #[test]
    fn an_empty_read_clears_the_buffer_and_keeps_its_capacity() {
        let mut buf = vec![0xFF; 64];
        let capacity = buf.capacity();
        Assembler::new(&mut buf, 0).finish().unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), capacity);
    }
}

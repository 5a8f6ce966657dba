//! Append-only assembly of a read into the caller's buffer.
//!
//! Every read path produces its output as a sequence of *pieces* in
//! ascending buffer order: stored bytes, or a run of zeros where nothing is
//! stored (a never-written block, an unallocated or zero-elided unit, an
//! unmapped page). [`Assembler`] appends them to the buffer, so every output
//! byte is written exactly once — no zero-fill pass before the copies, no
//! scatter.
//!
//! It also holds each stored piece back for a few more before copying it.
//! Finding a piece's bytes is a chain of dependent cache misses (page table
//! → page image → first line), and a chain issued between two copies stalls
//! the copy behind it; issued back to back ahead of their copies, the chains
//! of neighbouring pieces overlap.

/// Pieces looked up before the first of them is copied.
const LOOKAHEAD: usize = 16;

/// Assembles one read into a caller-provided buffer (see the module docs).
///
/// Pieces must arrive in ascending buffer order;
/// [`finish`](Self::finish) appends the last of them.
#[derive(Debug)]
#[must_use = "pieces still held back are appended by `finish`"]
pub struct Assembler<'b, 's> {
    buf: &'b mut Vec<u8>,
    held: [&'s [u8]; LOOKAHEAD],
    holding: usize,
    /// Zero bytes that follow the held pieces: consecutive holes are one run.
    zeros: usize,
}

impl<'b, 's> Assembler<'b, 's> {
    /// Starts a read of `total` bytes into `buf`: what `buf` held is
    /// discarded, its capacity kept (and grown once if `total` needs more).
    pub fn new(buf: &'b mut Vec<u8>, total: usize) -> Self {
        buf.clear();
        buf.reserve(total);
        Assembler {
            buf,
            held: [&[]; LOOKAHEAD],
            holding: 0,
            zeros: 0,
        }
    }

    /// The next piece is `bytes`, which outlive the assembly: held back.
    pub fn stored(&mut self, bytes: &'s [u8]) {
        if self.zeros > 0 || self.holding == LOOKAHEAD {
            self.append_held();
        }
        if let Some(slot) = self.held.get_mut(self.holding) {
            *slot = bytes;
            self.holding += 1;
        }
    }

    /// The next piece is `bytes`, copied now (a transforming backend's
    /// short-lived image; nothing is left to look up).
    pub fn copied(&mut self, bytes: &[u8]) {
        self.append_held();
        self.buf.extend_from_slice(bytes);
    }

    /// The next piece is `len` zero bytes.
    pub fn zeros(&mut self, len: usize) {
        self.zeros += len;
    }

    /// Appends whatever is still held back; the buffer is complete.
    pub fn finish(mut self) {
        self.append_held();
    }

    fn append_held(&mut self) {
        for bytes in self.held.iter().take(self.holding) {
            self.buf.extend_from_slice(bytes);
        }
        self.holding = 0;
        if self.zeros > 0 {
            self.buf.resize(self.buf.len() + self.zeros, 0);
            self.zeros = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_land_in_order_across_flushes() {
        let stored: Vec<Vec<u8>> = (0..3 * LOOKAHEAD as u8 + 5)
            .map(|i| vec![i + 1; 3])
            .collect();
        let mut buf = vec![0xFF; 7];
        let mut expected = Vec::new();
        let mut assembler = Assembler::new(&mut buf, 0);
        for (i, bytes) in stored.iter().enumerate() {
            if i % 4 == 3 {
                assembler.zeros(2);
                expected.extend_from_slice(&[0, 0]);
            }
            assembler.stored(bytes);
            expected.extend_from_slice(bytes);
        }
        assembler.copied(&[9; 4]);
        expected.extend_from_slice(&[9; 4]);
        assembler.finish();
        assert_eq!(buf, expected);
    }

    #[test]
    fn an_empty_read_clears_the_buffer_and_keeps_its_capacity() {
        let mut buf = vec![0xFF; 64];
        let capacity = buf.capacity();
        Assembler::new(&mut buf, 0).finish();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), capacity);
    }
}

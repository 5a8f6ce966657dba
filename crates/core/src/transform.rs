//! Data-at-rest transformations: encryption (§5.3.3) and compression
//! (§5.3.4).
//!
//! The paper argues NDS composes cleanly with both because the STL never
//! alters dataset content "in very fine grains":
//!
//! * **Encryption** — block ciphers permute fixed 256-bit *sections*
//!   in place, so as long as every building-block dimension holds at least
//!   one section (§5.3.3 notes this is essentially always true: a section
//!   is just 8 × 4-byte elements), encrypting at the access-unit level is
//!   invisible to the translation workflow. [`SectionCipher`] is a
//!   size-preserving keyed permutation standing in for AES-XTS-class
//!   hardware, and [`SecureBackend`] applies it transparently under the STL.
//! * **Compression** — performed "in units of building blocks" (here: in
//!   units of the blocks' access units, the granularity our backends
//!   persist). [`unit_codec`] is a deterministic run-length codec and
//!   [`CompressedBackend`] applies it under the STL, reporting how many
//!   bytes the medium would save.

use std::borrow::Cow;

use crate::backend::{DeviceSpec, NvmBackend, UnitLocation};
use crate::block::BlockShape;
use crate::error::NdsError;

/// The cipher's section size in bytes (256 bits, §5.3.3).
pub const SECTION_BYTES: usize = 32;

/// True if `block` is compatible with section ciphers: every dimension of
/// the building block must hold at least one 256-bit section (§5.3.3 —
/// "the cases where the encryption section size is larger than the
/// dimension size of a building block is near zero").
pub fn cipher_compatible(block: &BlockShape) -> bool {
    let fastest = block.dims().first().copied().unwrap_or(1);
    fastest * u64::from(block.element_bytes()) >= SECTION_BYTES as u64
}

/// A size-preserving, keyed, per-section pseudorandom permutation — the
/// model of the datacenter controller's AES engines (§5.3.3). Each 256-bit
/// section is whitened with a keystream derived from the key and the
/// section's index, then byte-rotated; both steps invert exactly, and the
/// data size never changes.
///
/// This is **not** cryptographically secure — it is a stand-in with the
/// structural properties (fixed sections, size preservation, in-place
/// permutation) the paper's compatibility argument relies on.
///
/// # Example
///
/// ```
/// use nds_core::transform::SectionCipher;
///
/// let cipher = SectionCipher::new(0xC0FFEE);
/// let mut data = vec![7u8; 64];
/// cipher.encrypt(0, &mut data);
/// assert_ne!(data, vec![7u8; 64]);
/// cipher.decrypt(0, &mut data);
/// assert_eq!(data, vec![7u8; 64]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionCipher {
    key: u64,
}

impl SectionCipher {
    /// Creates a cipher from a 64-bit key.
    pub fn new(key: u64) -> Self {
        SectionCipher { key }
    }

    fn keystream_byte(&self, tweak: u64, section: usize, offset: usize) -> u8 {
        let mut x = self
            .key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tweak.rotate_left(17))
            .wrapping_add((section as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(offset as u64);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        x as u8
    }

    fn rotation(&self, tweak: u64, section: usize) -> usize {
        (self
            .key
            .wrapping_add(tweak)
            .wrapping_add(section as u64 * 7)
            % SECTION_BYTES as u64) as usize
    }

    /// Encrypts `data` in place. `tweak` distinguishes positions (the unit
    /// handle, in [`SecureBackend`]) so identical plaintexts in different
    /// units produce different ciphertexts.
    pub fn encrypt(&self, tweak: u64, data: &mut [u8]) {
        for (s, section) in data.chunks_mut(SECTION_BYTES).enumerate() {
            // Whiten…
            for (i, byte) in section.iter_mut().enumerate() {
                *byte ^= self.keystream_byte(tweak, s, i);
            }
            // …then rotate the section bytes.
            section.rotate_left(self.rotation(tweak, s) % section.len().max(1));
        }
    }

    /// Decrypts `data` in place (the exact inverse of
    /// [`encrypt`](Self::encrypt)).
    pub fn decrypt(&self, tweak: u64, data: &mut [u8]) {
        for (s, section) in data.chunks_mut(SECTION_BYTES).enumerate() {
            section.rotate_right(self.rotation(tweak, s) % section.len().max(1));
            for (i, byte) in section.iter_mut().enumerate() {
                *byte ^= self.keystream_byte(tweak, s, i);
            }
        }
    }
}

/// An [`NvmBackend`] that encrypts every access unit at rest (§5.3.3).
///
/// # Example
///
/// ```
/// use nds_core::transform::{SecureBackend, SectionCipher};
/// use nds_core::{DeviceSpec, MemBackend, NvmBackend};
///
/// let inner = MemBackend::new(DeviceSpec::new(4, 2, 64), 32);
/// let mut b = SecureBackend::new(inner, SectionCipher::new(42));
/// let loc = b.alloc_unit(0, 0).unwrap();
/// b.write_unit(loc, &[5u8; 64]).unwrap();
/// // Transparent to readers…
/// assert_eq!(b.read_unit(loc).unwrap().as_ref(), vec![5u8; 64].as_slice());
/// // …but the medium holds ciphertext.
/// assert_ne!(b.inner().read_unit(loc).unwrap().as_ref(), vec![5u8; 64].as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct SecureBackend<B> {
    inner: B,
    cipher: SectionCipher,
}

impl<B: NvmBackend> SecureBackend<B> {
    /// Wraps `inner` with at-rest encryption.
    pub fn new(inner: B, cipher: SectionCipher) -> Self {
        SecureBackend { inner, cipher }
    }

    /// The wrapped backend (what the medium actually stores).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn tweak(loc: UnitLocation) -> u64 {
        (u64::from(loc.channel) << 48) ^ (u64::from(loc.bank) << 40) ^ loc.unit
    }
}

impl<B: NvmBackend> NvmBackend for SecureBackend<B> {
    fn spec(&self) -> DeviceSpec {
        self.inner.spec()
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        self.inner.alloc_unit(channel, bank)
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        self.inner.release_unit(loc);
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        self.inner.free_units(channel, bank)
    }

    type UnitRef = (UnitLocation, B::UnitRef);

    fn resolve_unit(&self, loc: UnitLocation) -> Option<Self::UnitRef> {
        Some((loc, self.inner.resolve_unit(loc)?))
    }

    fn unit_image(&self, (loc, unit): Self::UnitRef) -> Option<Cow<'_, [u8]>> {
        let mut data = self.inner.unit_image(unit)?.into_owned();
        self.cipher.decrypt(Self::tweak(loc), &mut data);
        Some(Cow::Owned(data))
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError> {
        let mut ciphertext = data.to_vec();
        self.cipher.encrypt(Self::tweak(loc), &mut ciphertext);
        self.inner.write_unit(loc, &ciphertext)
    }
}

/// The unit-granularity run-length codec used by [`CompressedBackend`].
pub mod unit_codec {
    /// Compresses `data` as `(run_length − 1, byte)` pairs.
    ///
    /// Worst case the output is 2× the input (no runs); zero-heavy pages —
    /// the common case for sparse scientific data — shrink dramatically.
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 4);
        for run in data.chunk_by(|a, b| a == b) {
            for piece in run.chunks(256) {
                if let Some(&byte) = piece.first() {
                    out.push((piece.len() - 1) as u8);
                    out.push(byte);
                }
            }
        }
        out
    }

    /// Inverts [`compress`]; `None` for a stream that is not whole
    /// `(run_length − 1, byte)` pairs (a truncated or damaged image).
    pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
        let (pairs, []) = data.as_chunks::<2>() else {
            return None;
        };
        let mut out = Vec::with_capacity(data.len() * 2);
        for &[run, byte] in pairs {
            out.extend(std::iter::repeat_n(byte, run as usize + 1));
        }
        Some(out)
    }
}

/// An [`NvmBackend`] that compresses every access unit (§5.3.4: the
/// software-only framework "can use this information to treat each building
/// block as a basic unit of data compression/decompression").
///
/// The simulated medium still stores one physical unit per handle (our
/// backends persist fixed-size units), so the savings are *reported* rather
/// than physically reclaimed: [`saved_bytes`](Self::saved_bytes) totals the
/// bytes a compressing controller would not have programmed.
#[derive(Debug, Clone)]
pub struct CompressedBackend<B> {
    inner: B,
    /// Raw images of incompressible units (a real controller stores those
    /// pages uncompressed; our fixed-size medium keeps them here so the
    /// functional content stays exact).
    incompressible: std::collections::BTreeMap<UnitLocation, Vec<u8>>,
    saved: u64,
    raw: u64,
}

impl<B: NvmBackend> CompressedBackend<B> {
    /// Wraps `inner` with unit-granularity compression.
    pub fn new(inner: B) -> Self {
        CompressedBackend {
            inner,
            incompressible: std::collections::BTreeMap::new(),
            saved: 0,
            raw: 0,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Bytes compression avoided programming so far.
    pub fn saved_bytes(&self) -> u64 {
        self.saved
    }

    /// Raw bytes written so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw
    }
}

impl<B: NvmBackend> NvmBackend for CompressedBackend<B> {
    fn spec(&self) -> DeviceSpec {
        self.inner.spec()
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        self.inner.alloc_unit(channel, bank)
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        self.incompressible.remove(&loc);
        self.inner.release_unit(loc);
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        self.inner.free_units(channel, bank)
    }

    type UnitRef = (UnitLocation, B::UnitRef);

    fn resolve_unit(&self, loc: UnitLocation) -> Option<Self::UnitRef> {
        Some((loc, self.inner.resolve_unit(loc)?))
    }

    fn unit_image(&self, (loc, unit): Self::UnitRef) -> Option<Cow<'_, [u8]>> {
        let stored = self.inner.unit_image(unit)?;
        if let Some(raw) = self.incompressible.get(&loc) {
            return Some(Cow::Borrowed(raw));
        }
        // Stored format: 4-byte compressed length, payload, zero padding —
        // read back from the medium, so every field is checked: an image
        // shorter than its header, a length past the unit, or a stream that
        // does not decompress to one unit reads as a lost unit.
        let (header, payload) = stored.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*header) as usize;
        let data = unit_codec::decompress(payload.get(..len)?)?;
        (data.len() == self.spec().unit_bytes as usize).then_some(Cow::Owned(data))
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError> {
        let unit = self.spec().unit_bytes as usize;
        if data.len() != unit {
            return Err(NdsError::BadPayloadSize {
                got: data.len(),
                expected: unit,
            });
        }
        let compressed = unit_codec::compress(data);
        let compressible = compressed.len() + 4 <= unit;
        let mut stored = Vec::with_capacity(unit);
        if compressible {
            stored.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
            stored.extend_from_slice(&compressed);
        } else {
            // Incompressible: a real controller stores the page raw. The
            // medium gets a marker image (a length no unit can hold); the
            // raw bytes live beside it.
            stored.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        stored.resize(unit, 0);
        self.inner.write_unit(loc, &stored)?;
        self.raw += unit as u64;
        if compressible {
            self.saved += (unit - compressed.len() - 4) as u64;
            self.incompressible.remove(&loc);
        } else {
            self.incompressible.insert(loc, data.to_vec());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn cipher_round_trips_all_sizes() {
        let cipher = SectionCipher::new(0xDEADBEEF);
        for len in [1usize, 31, 32, 33, 64, 511, 4096] {
            let original: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut data = original.clone();
            cipher.encrypt(9, &mut data);
            cipher.decrypt(9, &mut data);
            assert_eq!(data, original, "round trip at len {len}");
        }
    }

    #[test]
    fn cipher_tweak_changes_ciphertext() {
        let cipher = SectionCipher::new(1);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        cipher.encrypt(1, &mut a);
        cipher.encrypt(2, &mut b);
        assert_ne!(a, b, "same plaintext, different tweaks");
    }

    #[test]
    fn rle_round_trips() {
        for data in [
            vec![0u8; 4096],
            (0..4096).map(|i| (i % 256) as u8).collect::<Vec<_>>(),
            vec![7u8; 1],
            (0..1000).map(|i| (i / 100) as u8).collect::<Vec<_>>(),
        ] {
            assert_eq!(
                unit_codec::decompress(&unit_codec::compress(&data)),
                Some(data)
            );
        }
    }

    /// A `CompressedBackend` over a medium that already holds `image` —
    /// bytes it did not write — under the returned handle.
    fn over_planted(
        unit_bytes: u32,
        image: &[u8],
    ) -> (CompressedBackend<MemBackend>, UnitLocation) {
        let mut medium = MemBackend::new(DeviceSpec::new(1, 1, unit_bytes), 4);
        let loc = medium.alloc_unit(0, 0).unwrap();
        medium.write_unit(loc, image).unwrap();
        (CompressedBackend::new(medium), loc)
    }

    #[test]
    fn damaged_stored_images_read_as_lost_units_not_panics() {
        let image = |header: u32, stream: &[u8]| {
            let mut image = header.to_le_bytes().to_vec();
            image.extend_from_slice(stream);
            image.resize(16, 0);
            image
        };
        let planted = [
            ("an image shorter than its header", 2, vec![9, 9]),
            ("a length past the unit", 16, image(1000, &[])),
            ("an odd rle stream", 16, image(3, &[15, 7, 0])),
            ("a stream of the wrong size", 16, image(2, &[3, 7])),
            ("a raw marker with no raw image", 16, image(u32::MAX, &[])),
        ];
        for (what, unit_bytes, image) in planted {
            let (backend, loc) = over_planted(unit_bytes, &image);
            assert!(
                backend.resolve_unit(loc).is_some(),
                "{what}: the medium has it"
            );
            assert!(backend.read_unit(loc).is_none(), "{what}");
        }
        // The same layout, intact, still reads.
        let (backend, loc) = over_planted(16, &image(2, &[15, 7]));
        assert_eq!(backend.read_unit(loc).unwrap().as_ref(), [7u8; 16]);
    }

    #[test]
    fn a_unit_too_small_for_the_header_still_round_trips() {
        let mut b = CompressedBackend::new(MemBackend::new(DeviceSpec::new(1, 1, 2), 4));
        let loc = b.alloc_unit(0, 0).unwrap();
        b.write_unit(loc, &[5, 6]).unwrap();
        assert_eq!(b.read_unit(loc).unwrap().as_ref(), [5, 6]);
        assert_eq!(
            b.write_unit(loc, &[5]),
            Err(NdsError::BadPayloadSize {
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn rle_compresses_runs() {
        let zeros = vec![0u8; 4096];
        assert!(unit_codec::compress(&zeros).len() <= 32);
        let noisy: Vec<u8> = (0..4096).map(|i| (i * 131 % 251) as u8).collect();
        assert!(unit_codec::compress(&noisy).len() >= 4096);
    }
}

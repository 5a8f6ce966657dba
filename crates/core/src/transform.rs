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

/// The cipher's section size in bytes (256 bits, §5.3.3).
pub const SECTION_BYTES: usize = 32;

/// True if `block` is compatible with section ciphers: every dimension of
/// the building block must hold at least one 256-bit section (§5.3.3 —
/// "the cases where the encryption section size is larger than the
/// dimension size of a building block is near zero").
pub fn cipher_compatible(block: &BlockShape) -> bool {
    block.dims()[0] * u64::from(block.element_bytes()) >= SECTION_BYTES as u64
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
/// b.write_unit(loc, &[5u8; 64]);
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

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) {
        let mut ciphertext = data.to_vec();
        self.cipher.encrypt(Self::tweak(loc), &mut ciphertext);
        self.inner.write_unit(loc, &ciphertext);
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
        let mut i = 0;
        while i < data.len() {
            let byte = data[i];
            let mut run = 1usize;
            while run < 256 && i + run < data.len() && data[i + run] == byte {
                run += 1;
            }
            out.push((run - 1) as u8);
            out.push(byte);
            i += run;
        }
        out
    }

    /// Inverts [`compress`].
    ///
    /// # Panics
    ///
    /// Panics on truncated input (odd length).
    pub fn decompress(data: &[u8]) -> Vec<u8> {
        assert!(
            data.len().is_multiple_of(2),
            "rle stream must be (len, byte) pairs"
        );
        let mut out = Vec::with_capacity(data.len() * 2);
        for pair in data.chunks_exact(2) {
            out.extend(std::iter::repeat_n(pair[1], pair[0] as usize + 1));
        }
        out
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
        let unit = self.spec().unit_bytes as usize;
        // Stored format: 4-byte compressed length, payload, zero padding.
        // A length of `u32::MAX` marks an incompressible unit stored raw.
        #[allow(clippy::expect_used)] // slice is exactly 4 bytes, try_into cannot fail
        let len = u32::from_le_bytes(stored[..4].try_into().expect("length header"));
        if len == u32::MAX {
            // The u32::MAX marker is only ever written together with an
            // incompressible-map entry, so the lookup always succeeds.
            #[allow(clippy::expect_used)]
            let raw = self
                .incompressible
                .get(&loc)
                .expect("marker implies a raw image");
            return Some(Cow::Owned(raw.clone()));
        }
        let data = unit_codec::decompress(&stored[4..4 + len as usize]);
        debug_assert_eq!(data.len(), unit);
        Some(Cow::Owned(data))
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) {
        let unit = self.spec().unit_bytes as usize;
        assert_eq!(data.len(), unit, "unit writes must be exactly one unit");
        let compressed = unit_codec::compress(data);
        self.raw += unit as u64;
        if compressed.len() + 4 <= unit {
            self.saved += (unit - compressed.len() - 4) as u64;
            self.incompressible.remove(&loc);
            let mut stored = Vec::with_capacity(unit);
            stored.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
            stored.extend_from_slice(&compressed);
            stored.resize(unit, 0);
            self.inner.write_unit(loc, &stored);
        } else {
            // Incompressible: a real controller stores the page raw. The
            // medium gets a marker image; the raw bytes live beside it.
            let mut stored = vec![0u8; unit];
            stored[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            self.incompressible.insert(loc, data.to_vec());
            self.inner.write_unit(loc, &stored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(unit_codec::decompress(&unit_codec::compress(&data)), data);
        }
    }

    #[test]
    fn rle_compresses_runs() {
        let zeros = vec![0u8; 4096];
        assert!(unit_codec::compress(&zeros).len() <= 32);
        let noisy: Vec<u8> = (0..4096).map(|i| (i * 131 % 251) as u8).collect();
        assert!(unit_codec::compress(&noisy).len() >= 4096);
    }
}

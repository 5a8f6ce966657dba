//! The device abstraction the STL allocates from.
//!
//! The STL needs remarkably little from the NVM device under it: the
//! parallelism geometry (channels × banks), the basic access-unit size, and
//! the ability to allocate, read, write, and release stable unit handles in
//! a chosen `(channel, bank)`. [`NvmBackend`] captures exactly that, so the
//! same STL runs over the in-memory test backend here ([`MemBackend`]) and
//! over the flash simulator (adapter in `nds-system`) — mirroring how the
//! paper runs one STL either on the host (software NDS) or in the device
//! controller (hardware NDS).
//!
//! Unit handles are *stable*: if the device garbage-collects and physically
//! relocates data, the handle keeps working. This plays the role of the
//! paper's reverse lookup table (§4.2), which exists precisely so physical
//! relocation does not invalidate the STL's building-block unit lists.

use core::fmt;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::NdsError;

/// The device parallelism and granularity the STL sizes building blocks
/// against (§4.1): channel count enters equation (1), bank count enters
/// equation (3), and the unit size is the basic access granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Parallel channels (`Max_{Number of Parallel Requests}` in Eq. (1)).
    pub channels: u32,
    /// Banks per channel (`Num_{Banks}` in Eq. (3)).
    pub banks_per_channel: u32,
    /// Basic access-unit size in bytes (`Granularity_{Basic Access}`).
    pub unit_bytes: u32,
}

impl DeviceSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn new(channels: u32, banks_per_channel: u32, unit_bytes: u32) -> Self {
        assert!(
            channels > 0 && banks_per_channel > 0 && unit_bytes > 0,
            "device spec fields must be non-zero"
        );
        DeviceSpec {
            channels,
            banks_per_channel,
            unit_bytes,
        }
    }

    /// Equation (1): the minimum building-block size in bytes —
    /// one basic access unit from every parallel channel.
    pub fn min_block_bytes(&self) -> u64 {
        self.channels as u64 * self.unit_bytes as u64
    }

    /// Equation (3): the minimum 3-D building-block size in bytes —
    /// the 2-D minimum times the bank count.
    pub fn min_block_bytes_3d(&self) -> u64 {
        self.min_block_bytes() * self.banks_per_channel as u64
    }
}

/// A stable handle to one allocated basic access unit.
///
/// `channel` and `bank` are physical (they drive the timing model's resource
/// choice); `unit` is an opaque identifier stable across device-internal
/// relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UnitLocation {
    /// Physical channel the unit occupies.
    pub channel: u32,
    /// Physical bank (within the channel) the unit occupies.
    pub bank: u32,
    /// Stable per-`(channel, bank)` unit identifier.
    pub unit: u64,
}

impl fmt::Display for UnitLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}/bk{}/u{}", self.channel, self.bank, self.unit)
    }
}

/// The storage device as the STL sees it.
///
/// Implementations must provide stable unit handles (see module docs) and
/// per-lane free accounting; they may garbage-collect internally during
/// [`alloc_unit`](Self::alloc_unit).
pub trait NvmBackend {
    /// The device's parallelism/granularity spec.
    fn spec(&self) -> DeviceSpec;

    /// Allocates a fresh unit in `(channel, bank)`, or `None` if the lane is
    /// exhausted even after internal reclamation.
    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation>;

    /// Releases a unit (its data becomes garbage).
    fn release_unit(&mut self, loc: UnitLocation);

    /// Free units remaining in `(channel, bank)`.
    fn free_units(&self, channel: u32, bank: u32) -> usize;

    /// What one lookup of a stored unit yields: a `Copy` reference that
    /// [`unit_image`](Self::unit_image) turns into bytes without searching
    /// again. It stays good until the backend is next mutated.
    type UnitRef: Copy + fmt::Debug;

    /// Looks a unit up. Returns `None` if the handle was never written or
    /// has been released. The STL's read assembly resolves each distinct
    /// unit of a request exactly once through this call, however many byte
    /// spans of the unit the request then copies.
    fn resolve_unit(&self, loc: UnitLocation) -> Option<Self::UnitRef>;

    /// The contents of a resolved unit, borrowed from the backend's own
    /// storage; `None` if the reference has gone stale. The STL's read
    /// assembly calls it once for each run of spans of one unit, so it must
    /// be cheap.
    fn unit_image(&self, unit: Self::UnitRef) -> Option<&[u8]>;

    /// Reads a unit's contents: [`resolve_unit`](Self::resolve_unit) then
    /// [`unit_image`](Self::unit_image).
    fn read_unit(&self, loc: UnitLocation) -> Option<&[u8]> {
        self.unit_image(self.resolve_unit(loc)?)
    }

    /// Writes a unit's contents (exactly `unit_bytes` bytes). Takes a
    /// borrowed slice so callers can reuse one staging buffer across units;
    /// implementations copy it into their own storage.
    ///
    /// # Errors
    ///
    /// [`NdsError::BadPayloadSize`] if `data` is not exactly one unit;
    /// [`NdsError::DeviceFull`] or [`NdsError::Backend`] if the medium
    /// cannot take the unit.
    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError>;
}

/// A heap-backed [`NvmBackend`] for tests and for host-resident STL
/// experiments.
///
/// # Example
///
/// ```
/// use nds_core::{DeviceSpec, MemBackend, NvmBackend};
///
/// let mut b = MemBackend::new(DeviceSpec::new(4, 2, 64), 128);
/// let loc = b.alloc_unit(1, 0).unwrap();
/// b.write_unit(loc, &[9; 64]).unwrap();
/// assert_eq!(b.read_unit(loc).unwrap()[0], 9);
/// b.release_unit(loc);
/// assert!(b.read_unit(loc).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct MemBackend {
    spec: DeviceSpec,
    units_per_lane: usize,
    lanes: Vec<Lane>,
    /// The slot of `images` holding each written unit.
    slots: BTreeMap<UnitLocation, usize>,
    /// Unit images by slot. A released unit's slot (and buffer) is reused by
    /// the next first write.
    images: Vec<Vec<u8>>,
    vacant: Vec<usize>,
}

/// Allocation state of one `(channel, bank)` lane.
#[derive(Debug, Clone)]
struct Lane {
    free: usize,
    next_id: u64,
}

impl MemBackend {
    /// Creates a backend with `units_per_lane` units in each
    /// `(channel, bank)` lane.
    ///
    /// # Panics
    ///
    /// Panics if `units_per_lane` is zero.
    pub fn new(spec: DeviceSpec, units_per_lane: usize) -> Self {
        assert!(units_per_lane > 0, "lanes need at least one unit");
        let lanes = (spec.channels * spec.banks_per_channel) as usize;
        MemBackend {
            spec,
            units_per_lane,
            lanes: vec![
                Lane {
                    free: units_per_lane,
                    next_id: 0
                };
                lanes
            ],
            slots: BTreeMap::new(),
            images: Vec::new(),
            vacant: Vec::new(),
        }
    }

    /// Slot of the lane `(channel, bank)` in `lanes`, if the spec has it.
    fn lane(&self, channel: u32, bank: u32) -> Option<usize> {
        (channel < self.spec.channels && bank < self.spec.banks_per_channel)
            .then(|| (channel * self.spec.banks_per_channel + bank) as usize)
    }

    /// Total units per lane (capacity).
    pub fn units_per_lane(&self) -> usize {
        self.units_per_lane
    }

    /// Bytes currently stored across all units.
    pub fn stored_bytes(&self) -> usize {
        self.slots.len() * self.spec.unit_bytes as usize
    }
}

impl NvmBackend for MemBackend {
    fn spec(&self) -> DeviceSpec {
        self.spec
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        let lane = self.lane(channel, bank)?;
        let lane = self.lanes.get_mut(lane)?;
        if lane.free == 0 {
            return None;
        }
        lane.free -= 1;
        let unit = lane.next_id;
        lane.next_id += 1;
        Some(UnitLocation {
            channel,
            bank,
            unit,
        })
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        let slot = self.slots.remove(&loc);
        self.vacant.extend(slot);
        let lane = self.lane(loc.channel, loc.bank);
        if let Some(lane) = lane.and_then(|lane| self.lanes.get_mut(lane)) {
            if slot.is_some() || loc.unit < lane.next_id {
                lane.free = (lane.free + 1).min(self.units_per_lane);
            }
        }
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        let lane = self.lane(channel, bank);
        lane.and_then(|lane| self.lanes.get(lane))
            .map_or(0, |lane| lane.free)
    }

    type UnitRef = usize;

    fn resolve_unit(&self, loc: UnitLocation) -> Option<usize> {
        self.slots.get(&loc).copied()
    }

    fn unit_image(&self, slot: usize) -> Option<&[u8]> {
        self.images.get(slot).map(Vec::as_slice)
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError> {
        let expected = self.spec.unit_bytes as usize;
        if data.len() != expected {
            return Err(NdsError::BadPayloadSize {
                got: data.len(),
                expected,
            });
        }
        // A rewrite lands in the unit's slot, a first write in a vacated
        // one when there is one: either way the buffer is reused.
        let known = self.slots.get(&loc).copied();
        let slot = known.or_else(|| self.vacant.pop()).unwrap_or_else(|| {
            self.images.push(Vec::new());
            self.images.len() - 1
        });
        if let Some(image) = self.images.get_mut(slot) {
            image.clear();
            image.extend_from_slice(data);
        }
        self.slots.insert(loc, slot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> MemBackend {
        MemBackend::new(DeviceSpec::new(4, 2, 16), 8)
    }

    #[test]
    fn spec_equations() {
        let s = DeviceSpec::new(8, 4, 4096);
        assert_eq!(s.min_block_bytes(), 8 * 4096);
        assert_eq!(s.min_block_bytes_3d(), 8 * 4096 * 4);
    }

    #[test]
    fn alloc_until_exhausted() {
        let mut b = backend();
        for _ in 0..8 {
            assert!(b.alloc_unit(0, 0).is_some());
        }
        assert!(b.alloc_unit(0, 0).is_none());
        assert_eq!(b.free_units(0, 0), 0);
        assert_eq!(b.free_units(1, 0), 8, "other lanes unaffected");
    }

    #[test]
    fn handles_are_unique() {
        let mut b = backend();
        let a = b.alloc_unit(2, 1).unwrap();
        let c = b.alloc_unit(2, 1).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn release_refunds_lane() {
        let mut b = backend();
        let loc = b.alloc_unit(3, 0).unwrap();
        b.write_unit(loc, &[1; 16]).unwrap();
        assert_eq!(b.free_units(3, 0), 7);
        b.release_unit(loc);
        assert_eq!(b.free_units(3, 0), 8);
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn read_before_write_is_none() {
        let mut b = backend();
        let loc = b.alloc_unit(0, 0).unwrap();
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn wrong_size_write_is_a_typed_error() {
        let mut b = backend();
        let loc = b.alloc_unit(0, 0).unwrap();
        assert_eq!(
            b.write_unit(loc, &[0; 15]),
            Err(NdsError::BadPayloadSize {
                got: 15,
                expected: 16
            })
        );
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn rewrite_reuses_storage() {
        let mut b = backend();
        let loc = b.alloc_unit(2, 0).unwrap();
        b.write_unit(loc, &[1; 16]).unwrap();
        let before = b.stored_bytes();
        b.write_unit(loc, &[2; 16]).unwrap();
        assert_eq!(b.stored_bytes(), before);
        assert_eq!(b.read_unit(loc).unwrap()[0], 2);
    }

    #[test]
    fn a_lane_outside_the_spec_holds_nothing() {
        let mut b = backend();
        assert_eq!(b.free_units(9, 0), 0);
        assert!(b.alloc_unit(0, 2).is_none());
        b.release_unit(UnitLocation {
            channel: 9,
            bank: 0,
            unit: 0,
        });
        assert_eq!(b.free_units(0, 0), 8);
    }
}

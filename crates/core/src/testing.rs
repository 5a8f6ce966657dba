//! Reusable fault-injecting test doubles (compile with the `testing`
//! feature).
//!
//! The STL and the system architectures all need the same adversary in
//! their failure tests: a backend that runs out of allocations mid-write or
//! starts failing reads. Rather than each test file re-implementing it,
//! this module ships one documented [`FlakyBackend`] every crate can share:
//!
//! ```toml
//! [dev-dependencies]
//! nds-core = { workspace = true, features = ["testing"] }
//! ```

use std::cell::Cell;

use crate::backend::{DeviceSpec, MemBackend, NvmBackend, UnitLocation};
use crate::error::NdsError;

/// Read assembly at a chosen part count, so the multi-part copy can be
/// driven with small reads on any host.
pub use crate::assembly::{assemble_in_parts, Piece};

/// A [`MemBackend`] wrapper that misbehaves on demand: allocations start
/// failing once a budget is exhausted (a device whose reclamation cannot
/// keep up), the next *n* reads can be made to come back empty (a
/// transient media failure surfacing through the functional interface), and
/// the next *n* unit writes can be refused (a medium that cannot take them).
///
/// ```
/// use nds_core::testing::FlakyBackend;
/// use nds_core::{DeviceSpec, NvmBackend};
///
/// let spec = DeviceSpec::new(4, 2, 512);
/// let mut b = FlakyBackend::with_alloc_budget(spec, 16, 1);
/// let loc = b.alloc_unit(0, 0).expect("first allocation within budget");
/// assert!(b.alloc_unit(0, 0).is_none(), "budget spent");
///
/// b.write_unit(loc, &[7u8; 512]).unwrap();
/// b.fail_next_reads(1);
/// assert!(b.read_unit(loc).is_none(), "injected read failure");
/// assert!(b.read_unit(loc).is_some(), "only the next read fails");
/// ```
#[derive(Debug, Clone)]
pub struct FlakyBackend {
    inner: MemBackend,
    allocations_left: u32,
    // `resolve_unit` takes `&self`; interior mutability lets the failure
    // budget count down through the immutable read path.
    failing_reads: Cell<u32>,
    failing_writes: u32,
}

impl FlakyBackend {
    /// A backend with unlimited allocations and no read failures — inject
    /// later with [`fail_next_reads`](Self::fail_next_reads).
    pub fn new(spec: DeviceSpec, units_per_lane: usize) -> Self {
        Self::with_alloc_budget(spec, units_per_lane, u32::MAX)
    }

    /// A backend whose allocations fail after `budget` successes.
    pub fn with_alloc_budget(spec: DeviceSpec, units_per_lane: usize, budget: u32) -> Self {
        FlakyBackend {
            inner: MemBackend::new(spec, units_per_lane),
            allocations_left: budget,
            failing_reads: Cell::new(0),
            failing_writes: 0,
        }
    }

    /// Makes the next `n` calls to [`resolve_unit`](NvmBackend::resolve_unit)
    /// — and so the next `n` [`read_unit`](NvmBackend::read_unit)s — return
    /// `None` regardless of the stored data.
    pub fn fail_next_reads(&mut self, n: u32) {
        self.failing_reads.set(n);
    }

    /// Makes the next `n` calls to [`write_unit`](NvmBackend::write_unit)
    /// fail with [`NdsError::Backend`], storing nothing.
    pub fn fail_next_writes(&mut self, n: u32) {
        self.failing_writes = n;
    }

    /// Allocations remaining before the budget is exhausted.
    pub fn allocations_left(&self) -> u32 {
        self.allocations_left
    }
}

impl NvmBackend for FlakyBackend {
    fn spec(&self) -> DeviceSpec {
        self.inner.spec()
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        if self.allocations_left == 0 {
            return None;
        }
        self.allocations_left -= 1;
        self.inner.alloc_unit(channel, bank)
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        self.inner.release_unit(loc);
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        if self.allocations_left == 0 {
            0
        } else {
            self.inner.free_units(channel, bank)
        }
    }

    type UnitRef = <MemBackend as NvmBackend>::UnitRef;

    fn resolve_unit(&self, loc: UnitLocation) -> Option<Self::UnitRef> {
        let failing = self.failing_reads.get();
        if failing > 0 {
            self.failing_reads.set(failing - 1);
            return None;
        }
        self.inner.resolve_unit(loc)
    }

    fn unit_image(&self, unit: Self::UnitRef) -> Option<&[u8]> {
        self.inner.unit_image(unit)
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError> {
        if self.failing_writes > 0 {
            self.failing_writes -= 1;
            return Err(NdsError::Backend {
                unit: loc,
                reason: "injected write failure".to_string(),
            });
        }
        self.inner.write_unit(loc, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_budget_counts_down_and_free_units_agrees() {
        let spec = DeviceSpec::new(2, 1, 64);
        let mut b = FlakyBackend::with_alloc_budget(spec, 8, 2);
        assert!(b.free_units(0, 0) > 0);
        assert!(b.alloc_unit(0, 0).is_some());
        assert!(b.alloc_unit(1, 0).is_some());
        assert_eq!(b.allocations_left(), 0);
        assert!(b.alloc_unit(0, 0).is_none());
        assert_eq!(b.free_units(0, 0), 0, "exhausted budget hides free units");
    }

    #[test]
    fn read_failures_are_transient() {
        let spec = DeviceSpec::new(1, 1, 64);
        let mut b = FlakyBackend::new(spec, 4);
        let loc = b.alloc_unit(0, 0).unwrap();
        b.write_unit(loc, &[3u8; 64]).unwrap();
        b.fail_next_reads(2);
        assert!(b.read_unit(loc).is_none());
        assert!(b.read_unit(loc).is_none());
        assert_eq!(b.read_unit(loc).unwrap(), &[3u8; 64][..]);
    }
}

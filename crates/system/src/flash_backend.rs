//! The adapter that lets the STL run over the flash simulator.
//!
//! The STL allocates *stable unit handles* in `(channel, bank)` lanes; this
//! adapter maps each handle to a physical flash page and keeps the mapping
//! fresh across NAND's out-of-place constraints: rewriting a handle programs
//! a new page, and lane-local garbage collection relocates live pages and
//! erases dead blocks when free space runs low. The handle indirection is
//! the reproduction's version of the paper's reverse lookup table (§4.2),
//! which exists so that physical relocation never invalidates the STL's
//! building-block unit lists. The tables and every migration (collection,
//! block evacuation, read-disturb service) are [`nds_flash::PageMapper`]'s —
//! the mapper the baseline FTL is built on too.
//!
//! The adapter also exposes the *timing* face of unit accesses
//! ([`try_schedule_unit_reads`](FlashBackend::try_schedule_unit_reads) and
//! [`try_schedule_unit_programs`](FlashBackend::try_schedule_unit_programs)),
//! which the NDS system architectures use to charge channels and banks and,
//! under a fault plan installed on the [device](FlashBackend::device_mut),
//! to inject and recover from media faults.

use nds_core::{DeviceSpec, NdsError, NvmBackend, UnitLocation};
use nds_flash::{
    FlashConfig, FlashDevice, FlashError, MapperLabels, PageAddr, PageMapper, SparseIndex,
};
use nds_sim::{SimTime, Stats};

/// An [`NvmBackend`] over the flash simulator with handle indirection and
/// lane-local garbage collection.
///
/// It is the shared [`PageMapper`] keyed by [`UnitLocation`], plus what only
/// the STL side has: handle ids, the [`NvmBackend`] impl (the functional
/// face, where garbage collection runs with no clock) and the timing face.
///
/// # Example
///
/// ```
/// use nds_core::NvmBackend;
/// use nds_flash::FlashConfig;
/// use nds_system::FlashBackend;
///
/// let mut backend = FlashBackend::new(FlashConfig::small_test());
/// let loc = backend.alloc_unit(0, 0).unwrap();
/// backend.write_unit(loc, &vec![7; backend.spec().unit_bytes as usize]).unwrap();
/// assert_eq!(backend.read_unit(loc).unwrap()[0], 7);
/// ```
#[derive(Debug)]
pub struct FlashBackend {
    mapper: PageMapper<UnitLocation, SparseIndex<UnitLocation>>,
    /// Next handle id per lane.
    next_id: Vec<u64>,
    /// Reused page list of one scheduled batch.
    batch: Vec<PageAddr>,
}

impl FlashBackend {
    /// Creates a backend over a fresh flash device.
    pub fn new(config: FlashConfig) -> Self {
        let device = FlashDevice::new(config);
        FlashBackend {
            next_id: vec![0; device.geometry().total_banks()],
            mapper: PageMapper::new(device, SparseIndex::default(), MapperLabels::BACKEND),
            batch: Vec::new(),
        }
    }

    /// The wrapped flash device.
    pub fn device(&self) -> &FlashDevice {
        self.mapper.device()
    }

    /// Mutable device access (timing resets between measurements).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        self.mapper.device_mut()
    }

    /// Adapter counters (`backend.gc_runs`, `backend.gc_relocated`, and
    /// under a fault plan `retries.flash`, `faults.recovered`,
    /// `faults.migrated`, `faults.disturb_migrations`).
    pub fn stats(&self) -> &Stats {
        self.mapper.stats()
    }

    /// The physical page currently backing `loc`, if any.
    pub fn physical_of(&self, loc: UnitLocation) -> Option<PageAddr> {
        self.mapper.page_of(loc)
    }

    /// The mapped pages of `units`, in order, in the reused batch buffer
    /// (hand it back through `self.batch` when done).
    fn mapped_pages(&mut self, units: &[UnitLocation]) -> Vec<PageAddr> {
        let mut pages = std::mem::take(&mut self.batch);
        pages.clear();
        pages.extend(units.iter().filter_map(|u| self.physical_of(*u)));
        pages
    }

    // ------------------------------------------------------------------
    // Timing face
    // ------------------------------------------------------------------

    /// Schedules reads of `units`, returning the batch completion time.
    /// Units without backing pages (never written) cost nothing. Every page
    /// read draws from the installed fault plan, pays its ECC retries, and
    /// any block past the read-disturb limit is preventively migrated
    /// before the call returns; with no plan (or a zero rate) installed the
    /// schedule is the device's plain batch read.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadUnrecoverable`] if a page exhausts the retry
    /// budget; [`FlashError::DeviceFull`] if a migration cannot re-place a
    /// live page.
    pub fn try_schedule_unit_reads(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        let pages = self.mapped_pages(units);
        let done = if pages.is_empty() {
            Ok(ready)
        } else {
            self.device_mut().fault_read_batch(&pages, ready)
        };
        self.batch = pages;
        self.mapper.service_disturbed(done?)
    }

    /// Schedules programs of `units`, returning the batch completion time.
    /// Every page program draws from the installed fault plan. A permanent
    /// program failure retires the block on the spot; the just-written unit
    /// and every other live page of the block are re-placed (the re-program
    /// doubles as the retry), all on the modeled timeline. With no plan
    /// installed the schedule is the device's plain program schedule.
    ///
    /// # Errors
    ///
    /// [`FlashError::DeviceFull`] if recovery cannot re-place a page even
    /// after garbage collection.
    pub fn try_schedule_unit_programs(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        // The batch's pages are fixed up front: recovery below remaps
        // handles, and must not redirect programs already issued.
        let pages = self.mapped_pages(units);
        let done = self.schedule_page_programs(&pages, ready);
        self.batch = pages;
        done
    }

    fn schedule_page_programs(
        &mut self,
        pages: &[PageAddr],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        let mut done = ready;
        for &page in pages {
            let mut end = self.device_mut().schedule_programs(&[page], ready)?;
            if self.device_mut().next_program_fault(page)? {
                // The failed program already spent its bus + program time;
                // recovery evacuates the whole retired block, including the
                // unit that was just written.
                self.mapper.stats_mut().add("retries.flash", 1);
                end = self.mapper.evacuate(page.block_addr(), end)?;
                self.mapper.stats_mut().add("faults.recovered", 1);
            }
            done = done.max(end);
        }
        Ok(done)
    }
}

impl NvmBackend for FlashBackend {
    fn spec(&self) -> DeviceSpec {
        let g = self.device().geometry();
        DeviceSpec::new(
            g.channels as u32,
            g.banks_per_channel as u32,
            g.page_size as u32,
        )
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        let (c, b) = (channel as usize, bank as usize);
        // A collection that fails means the lane cannot be trusted to hold
        // the unit; report it as exhausted.
        self.mapper.collect_lane(c, b, None).ok()?;
        if self.device().free_pages_in(c, b).ok()? == 0 {
            return None;
        }
        // A handle is just an id; the physical page is chosen at write time
        // (NAND programs are the real commitment).
        let lane = c * self.device().geometry().banks_per_channel + b;
        let next = self.next_id.get_mut(lane)?;
        let unit = *next;
        *next += 1;
        Some(UnitLocation {
            channel,
            bank,
            unit,
        })
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        let _ = self.mapper.supersede(loc);
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        self.device()
            .free_pages_in(channel as usize, bank as usize)
            .unwrap_or(0)
    }

    /// The page a handle maps to: the forward-table lookup, done once.
    type UnitRef = PageAddr;

    fn resolve_unit(&self, loc: UnitLocation) -> Option<PageAddr> {
        self.physical_of(loc)
    }

    fn unit_image(&self, page: PageAddr) -> Option<&[u8]> {
        self.device().peek(page)
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) -> Result<(), NdsError> {
        let (c, b) = (loc.channel as usize, loc.bank as usize);
        let refused = |e: FlashError| NdsError::Backend {
            unit: loc,
            reason: e.to_string(),
        };
        if data.len() != self.device().geometry().page_size {
            return Err(NdsError::BadPayloadSize {
                got: data.len(),
                expected: self.device().geometry().page_size,
            });
        }
        // Out-of-place: supersede any existing page for this handle.
        if self.mapper.supersede(loc).map_err(refused)? {
            // The write still has its reserved page if GC bails out early.
            let _ = self.mapper.collect_lane(c, b, None);
        }
        // `alloc_unit` reserved lane space, so a lane with no free page
        // here was filled behind the STL's back.
        let page = self.device_mut().find_free_page(c, b).map_err(refused)?;
        let page = page.ok_or(NdsError::DeviceFull {
            channel: loc.channel,
            bank: loc.bank,
        })?;
        self.mapper
            .program(loc, page, data.to_vec())
            .map_err(refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> FlashBackend {
        FlashBackend::new(FlashConfig::small_test())
    }

    fn unit_bytes(b: &FlashBackend) -> usize {
        b.spec().unit_bytes as usize
    }

    #[test]
    fn handles_round_trip_data() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(1, 1).unwrap();
        b.write_unit(loc, &vec![0xCD; n]).unwrap();
        assert_eq!(b.read_unit(loc).unwrap(), vec![0xCD; n].as_slice());
    }

    #[test]
    fn a_write_the_medium_cannot_take_is_a_typed_error() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(0, 0).unwrap();
        assert_eq!(
            b.write_unit(loc, &[1]),
            Err(NdsError::BadPayloadSize {
                got: 1,
                expected: n
            })
        );
        // Fill the lane behind the adapter's back: the page `alloc_unit`
        // counted on is gone.
        while let Some(page) = b.device_mut().find_free_page(0, 0).unwrap() {
            b.device_mut().program(page, vec![0; n]).unwrap();
        }
        assert_eq!(
            b.write_unit(loc, &vec![1; n]),
            Err(NdsError::DeviceFull {
                channel: 0,
                bank: 0
            })
        );
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn rewrite_moves_physically_but_handle_stays() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(0, 0).unwrap();
        b.write_unit(loc, &vec![1; n]).unwrap();
        let first = b.physical_of(loc).unwrap();
        b.write_unit(loc, &vec![2; n]).unwrap();
        let second = b.physical_of(loc).unwrap();
        assert_ne!(first, second, "NAND rewrite must relocate");
        assert_eq!(b.read_unit(loc).unwrap()[0], 2);
    }

    #[test]
    fn release_invalidates() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(2, 0).unwrap();
        b.write_unit(loc, &vec![9; n]).unwrap();
        b.release_unit(loc);
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn gc_reclaims_space_under_rewrite_pressure() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let per_bank = b.device().geometry().pages_per_bank();
        let loc = b.alloc_unit(0, 0).unwrap();
        for round in 0..(per_bank * 3) as u64 {
            b.write_unit(loc, &vec![(round % 251) as u8; n]).unwrap();
        }
        assert!(b.stats().get("backend.gc_runs") > 0);
        assert_eq!(
            b.read_unit(loc).unwrap()[0],
            ((per_bank * 3 - 1) % 251) as u8,
            "data survives GC"
        );
    }

    #[test]
    fn gc_relocation_keeps_other_handles_intact() {
        let mut b = backend();
        let n = unit_bytes(&b);
        // Interleave long-lived pages with a hammered handle so that GC
        // victims contain live data that must be relocated.
        let hot = b.alloc_unit(0, 0).unwrap();
        let mut stable = Vec::new();
        for i in 0..24u64 {
            let s = b.alloc_unit(0, 0).unwrap();
            b.write_unit(s, &vec![(100 + i) as u8; n]).unwrap();
            stable.push(s);
            b.write_unit(hot, &vec![0; n]).unwrap();
            b.write_unit(hot, &vec![0; n]).unwrap();
        }
        let per_bank = b.device().geometry().pages_per_bank();
        for i in 0..(per_bank * 2) as u64 {
            b.write_unit(hot, &vec![(i % 200) as u8; n]).unwrap();
        }
        assert!(b.stats().get("backend.gc_relocated") > 0);
        for (i, s) in stable.iter().enumerate() {
            assert_eq!(
                b.read_unit(*s).unwrap()[0],
                (100 + i) as u8,
                "stable handle {i} lost its data across GC"
            );
        }
    }

    #[test]
    fn gc_that_cannot_place_survivors_strands_no_handle() {
        let mut b = backend();
        let n = unit_bytes(&b);
        // Fill lane (0, 0) completely, one distinct byte per unit.
        let mut units = Vec::new();
        while let Some(loc) = b.alloc_unit(0, 0) {
            b.write_unit(loc, &vec![units.len() as u8; n]).unwrap();
            units.push(loc);
        }
        assert_eq!(units.len(), b.device().geometry().pages_per_bank());
        // One dead page makes its block the only GC victim, but the full
        // lane has nowhere to put the block's survivors: GC must give up
        // with every survivor still mapped and readable.
        b.release_unit(units[0]);
        assert!(b.alloc_unit(0, 0).is_none(), "lane is still full");
        assert_eq!(b.stats().get("backend.gc_relocated"), 0);
        for (i, loc) in units.iter().enumerate().skip(1) {
            assert_eq!(
                b.read_unit(*loc),
                Some(vec![i as u8; n].as_slice()),
                "handle {i} was stranded by the failed collection"
            );
        }
    }

    #[test]
    fn timing_scheduling_uses_physical_lanes() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let channels = b.device().geometry().channels as u32;
        let units: Vec<UnitLocation> = (0..channels)
            .map(|c| {
                let loc = b.alloc_unit(c, 0).unwrap();
                b.write_unit(loc, &vec![0; n]).unwrap();
                loc
            })
            .collect();
        let parallel = b.try_schedule_unit_reads(&units, SimTime::ZERO).unwrap();
        b.device_mut().reset_timing();
        // All in one channel: serialized.
        let serial_units: Vec<UnitLocation> = (0..channels as u64)
            .map(|_| {
                let loc = b.alloc_unit(0, 0).unwrap();
                b.write_unit(loc, &vec![0; n]).unwrap();
                loc
            })
            .collect();
        let serial = b
            .try_schedule_unit_reads(&serial_units, SimTime::ZERO)
            .unwrap();
        assert!(serial > parallel);
    }

    #[test]
    fn unwritten_units_cost_nothing() {
        let mut b = backend();
        let loc = b.alloc_unit(0, 0).unwrap();
        assert_eq!(
            b.try_schedule_unit_reads(&[loc], SimTime::ZERO).unwrap(),
            SimTime::ZERO
        );
    }

    #[test]
    fn spec_mirrors_geometry() {
        let b = backend();
        let g = b.device().geometry();
        let s = b.spec();
        assert_eq!(s.channels as usize, g.channels);
        assert_eq!(s.banks_per_channel as usize, g.banks_per_channel);
        assert_eq!(s.unit_bytes as usize, g.page_size);
    }
}

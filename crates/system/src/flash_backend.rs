//! The adapter that lets the STL run over the flash simulator.
//!
//! The STL allocates *stable unit handles* in `(channel, bank)` lanes; this
//! adapter maps each handle to a physical flash page and keeps the mapping
//! fresh across NAND's out-of-place constraints: rewriting a handle programs
//! a new page, and lane-local garbage collection relocates live pages and
//! erases dead blocks when free space runs low. The handle indirection is
//! the reproduction's version of the paper's reverse lookup table (§4.2),
//! which exists so that physical relocation never invalidates the STL's
//! building-block unit lists.
//!
//! The adapter also exposes the *timing* face of unit accesses
//! ([`try_schedule_unit_reads`](FlashBackend::try_schedule_unit_reads) and
//! [`try_schedule_unit_programs`](FlashBackend::try_schedule_unit_programs)),
//! which the NDS system architectures use to charge channels and banks and,
//! under a fault plan installed on the [device](FlashBackend::device_mut),
//! to inject and recover from media faults.

use std::borrow::Cow;
// nds-lint: allow(D2, keyed access only, never iterated)
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use nds_core::{DeviceSpec, NvmBackend, UnitLocation};
use nds_flash::{BlockAddr, FlashConfig, FlashDevice, FlashError, PageAddr, PageState};
use nds_sim::{splitmix64, SimTime, Stats};

/// Garbage collection triggers when a lane's free pages drop below one in
/// this many (the paper's "typically 10%", §4.2).
const GC_THRESHOLD_DIVISOR: usize = 10;

/// The fixed (seedless) hasher of the handle tables: chained `splitmix64`
/// over the key's words, so a table's layout is the same in every process.
#[derive(Debug, Default, Clone, Copy)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table probed by key only — never iterated, so no schedule or output
/// can depend on its layout — with the fixed [`HandleHasher`].
// nds-lint: allow(D2, keyed access only, never iterated)
type KeyedTable<K, V> = HashMap<K, V, BuildHasherDefault<HandleHasher>>;

/// An [`NvmBackend`] over the flash simulator with handle indirection and
/// lane-local garbage collection.
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
/// backend.write_unit(loc, &vec![7; backend.spec().unit_bytes as usize]);
/// assert_eq!(backend.read_unit(loc).unwrap()[0], 7);
/// ```
#[derive(Debug)]
pub struct FlashBackend {
    device: FlashDevice,
    /// Handle → index ([`FlashGeometry::page_index`](nds_flash::FlashGeometry::page_index))
    /// of its current physical page.
    forward: KeyedTable<UnitLocation, u32>,
    /// Physical page index → the handle stored there (for GC relocation).
    /// Sparse: its size follows the live handles, not the device.
    reverse: KeyedTable<u32, UnitLocation>,
    next_id: Vec<u64>,
    /// Free pages below which a lane garbage-collects.
    gc_threshold: usize,
    /// Reused page list of one scheduled batch.
    batch: Vec<PageAddr>,
    stats: Stats,
}

impl FlashBackend {
    /// Creates a backend over a fresh flash device.
    pub fn new(config: FlashConfig) -> Self {
        let device = FlashDevice::new(config);
        let g = *device.geometry();
        assert!(
            g.total_pages() <= u32::MAX as usize,
            "geometry exceeds the handle tables' page-index width"
        );
        FlashBackend {
            device,
            forward: KeyedTable::default(),
            reverse: KeyedTable::default(),
            next_id: vec![0; g.total_banks()],
            gc_threshold: gc_threshold(g.pages_per_bank()),
            batch: Vec::new(),
            stats: Stats::new(),
        }
    }

    /// The wrapped flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable device access (timing resets between measurements).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// Adapter counters (`backend.gc_runs`, `backend.gc_relocated`, and
    /// under a fault plan `retries.flash`, `faults.recovered`,
    /// `faults.migrated`, `faults.disturb_migrations`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    fn lane(&self, channel: u32, bank: u32) -> usize {
        channel as usize * self.device.geometry().banks_per_channel + bank as usize
    }

    /// The physical page currently backing `loc`, if any.
    pub fn physical_of(&self, loc: UnitLocation) -> Option<PageAddr> {
        let index = *self.forward.get(&loc)?;
        Some(self.device.geometry().page_at(index as usize))
    }

    /// Maps `loc` to `page` in both tables.
    fn map(&mut self, loc: UnitLocation, page: PageAddr) {
        let index = self.device.geometry().page_index(page) as u32;
        self.forward.insert(loc, index);
        self.reverse.insert(index, loc);
    }

    /// Drops `loc`'s mapping from both tables, returning the page it had.
    fn unmap(&mut self, loc: UnitLocation) -> Option<PageAddr> {
        let index = self.forward.remove(&loc)?;
        self.reverse.remove(&index);
        Some(self.device.geometry().page_at(index as usize))
    }

    /// The handle stored in `page`, if any.
    fn handle_at(&self, page: PageAddr) -> Option<UnitLocation> {
        let index = self.device.geometry().page_index(page) as u32;
        self.reverse.get(&index).copied()
    }

    /// The mapped pages of `units`, in order, in the reused batch buffer
    /// (hand it back through `self.batch` when done).
    fn mapped_pages(&mut self, units: &[UnitLocation]) -> Vec<PageAddr> {
        let mut pages = std::mem::take(&mut self.batch);
        pages.clear();
        pages.extend(units.iter().filter_map(|u| self.physical_of(*u)));
        pages
    }

    /// Moves the valid page `page` (its image and its handle) to the free
    /// page `dest`.
    fn move_page(&mut self, page: PageAddr, dest: PageAddr) -> Result<(), FlashError> {
        let handle = self.handle_at(page).ok_or(FlashError::PageNotValid(page))?;
        self.device.relocate_page(page, dest)?;
        self.unmap(handle);
        self.map(handle, dest);
        Ok(())
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
            self.device.fault_read_batch(&pages, ready)
        };
        self.batch = pages;
        self.service_disturbed(done?)
    }

    /// Schedules programs of `units`, returning the batch completion time.
    /// Every page program draws from the installed fault plan. A permanent
    /// program failure retires the block on the spot; the just-written unit
    /// and every other live page of the block are re-placed in the same
    /// lane (the re-program doubles as the retry), all on the modeled
    /// timeline. With no plan installed the schedule is the device's plain
    /// program schedule.
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
            let mut end = self.device.schedule_programs(&[page], ready);
            if self.device.next_program_fault(page) {
                // The failed program already spent its bus + program time;
                // recovery relocates the whole retired block, including the
                // unit that was just written.
                self.stats.add("retries.flash", 1);
                end = self.relocate_block(page.block_addr(), end)?;
                self.stats.add("faults.recovered", 1);
            }
            done = done.max(end);
        }
        Ok(done)
    }

    /// Relocates and erases blocks past the read-disturb limit.
    fn service_disturbed(&mut self, mut now: SimTime) -> Result<SimTime, FlashError> {
        for block in self.device.take_disturbed_blocks() {
            now = self.relocate_block(block, now)?;
            self.device.erase_block(block);
            now = self.device.schedule_erase(block, now);
            self.stats.add("faults.disturb_migrations", 1);
        }
        Ok(now)
    }

    /// Moves every valid page of `block` to a fresh page in the same lane,
    /// updating the handle tables and charging the moves to the timeline.
    /// A valid page without data or a reverse-table entry means the
    /// device/backend bookkeeping diverged and surfaces as a typed error.
    fn relocate_block(
        &mut self,
        block: BlockAddr,
        mut now: SimTime,
    ) -> Result<SimTime, FlashError> {
        let g = *self.device.geometry();
        for p in 0..g.pages_per_block {
            let page = block.page(p);
            if self.device.page_state(page) != PageState::Valid {
                continue;
            }
            now = self.device.schedule_reads(&[page], now);
            // Secure the destination before touching the source, so an
            // allocation failure leaves the old copy mapped and readable
            // instead of stranding the handle.
            let dest = match self
                .device
                .find_free_page_excluding(page.channel, page.bank, block)
            {
                Some(d) => d,
                None => {
                    self.maybe_gc(page.channel as u32, page.bank as u32)?;
                    // GC may have relocated (or erased) the page under us;
                    // if so its mapping is already fresh — nothing to move.
                    if self.device.page_state(page) != PageState::Valid {
                        continue;
                    }
                    self.device
                        .find_recovery_page(page.channel, page.bank, block)
                        .ok_or(FlashError::DeviceFull)?
                }
            };
            self.move_page(page, dest)?;
            now = self.device.schedule_programs(&[dest], now);
            self.stats.add("faults.migrated", 1);
        }
        Ok(now)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    // GC relocations rely on bookkeeping invariants (valid pages have data
    // and reverse entries; over-provisioning guarantees a free destination).
    // A violated invariant surfaces as a typed error instead of a panic.
    fn maybe_gc(&mut self, channel: u32, bank: u32) -> Result<(), FlashError> {
        let g = *self.device.geometry();
        let mut guard = 0;
        while self.device.free_pages_in(channel as usize, bank as usize) < self.gc_threshold {
            guard += 1;
            if guard > g.blocks_per_bank {
                break;
            }
            let Some((victim, valid, invalid)) =
                self.device.gc_victim(channel as usize, bank as usize)
            else {
                break;
            };
            self.device.observability_mut().event(
                nds_sim::SimTime::ZERO,
                nds_sim::ComponentId::singleton("gc"),
                || nds_sim::EventKind::GcVictimPicked {
                    channel,
                    bank,
                    block: victim.block as u32,
                    valid: valid as u32,
                    invalid: invalid as u32,
                },
            );
            if valid > 0 {
                for p in 0..g.pages_per_block {
                    let page = victim.page(p);
                    if self.device.page_state(page) != PageState::Valid {
                        continue;
                    }
                    // Relocate within the same lane, avoiding the victim.
                    // Secure the destination before touching the source,
                    // so DeviceFull leaves the old copy mapped and readable
                    // instead of stranding the handle.
                    let dest = self
                        .device
                        .find_free_page_excluding(page.channel, page.bank, victim)
                        .ok_or(FlashError::DeviceFull)?;
                    self.move_page(page, dest)?;
                    self.stats.add("backend.gc_relocated", 1);
                }
            }
            self.device.erase_block(victim);
            self.stats.add("backend.gc_runs", 1);
        }
        Ok(())
    }
}

impl NvmBackend for FlashBackend {
    fn spec(&self) -> DeviceSpec {
        let g = self.device.geometry();
        DeviceSpec::new(
            g.channels as u32,
            g.banks_per_channel as u32,
            g.page_size as u32,
        )
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        // A GC bookkeeping error means the lane cannot be trusted to hold
        // the unit; report it as exhausted.
        self.maybe_gc(channel, bank).ok()?;
        // A handle is just an id; the physical page is chosen at write time
        // (NAND programs are the real commitment).
        let lane = self.lane(channel, bank);
        if self.device.free_pages_in(channel as usize, bank as usize) == 0 {
            return None;
        }
        let unit = self.next_id[lane];
        self.next_id[lane] += 1;
        Some(UnitLocation {
            channel,
            bank,
            unit,
        })
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        if let Some(page) = self.unmap(loc) {
            let _ = self.device.invalidate(page);
        }
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        self.device.free_pages_in(channel as usize, bank as usize)
    }

    fn read_unit(&self, loc: UnitLocation) -> Option<Cow<'_, [u8]>> {
        self.device.peek(self.physical_of(loc)?).map(Cow::Borrowed)
    }

    // The Backend trait makes writes infallible; alloc_unit reserved lane
    // space, so the free-page lookup and program cannot fail here.
    #[allow(clippy::expect_used)]
    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) {
        // Out-of-place: supersede any existing page for this handle.
        if let Some(old) = self.unmap(loc) {
            self.device
                .invalidate(old)
                .expect("mapped page must be valid");
            // The write still has its reserved page if GC bails out early.
            let _ = self.maybe_gc(loc.channel, loc.bank);
        }
        let page = self
            .device
            .find_free_page(loc.channel as usize, loc.bank as usize)
            .expect("alloc_unit guaranteed lane space");
        self.device
            .program(page, data.to_vec())
            .expect("page is free");
        self.map(loc, page);
    }
}

/// Free pages below which a lane of `pages_per_bank` pages collects: a
/// tenth of the lane, rounded up.
fn gc_threshold(pages_per_bank: usize) -> usize {
    pages_per_bank.div_ceil(GC_THRESHOLD_DIVISOR)
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
    fn integer_gc_threshold_equals_the_float_expression_it_replaced() {
        let float = |pages_per_bank: usize| ((pages_per_bank as f64) * 0.10).ceil() as usize;
        for pages_per_bank in 1..200_000 {
            assert_eq!(
                gc_threshold(pages_per_bank),
                float(pages_per_bank),
                "pages_per_bank = {pages_per_bank}"
            );
        }
        // Every geometry the repo constructs, plus the `blocks_per_bank = 4`
        // variant of `paper_scale()` the `write_churn` workload runs.
        let mut churn = crate::SystemConfig::paper_scale().flash;
        churn.geometry.blocks_per_bank = 4;
        for config in [
            FlashConfig::datacenter_32ch(),
            FlashConfig::consumer_8ch(),
            FlashConfig::small_test(),
            crate::SystemConfig::paper_scale().flash,
            crate::SystemConfig::small_test().flash,
            churn,
        ] {
            let pages_per_bank = config.geometry.pages_per_bank();
            assert_eq!(
                FlashBackend::new(config).gc_threshold,
                float(pages_per_bank)
            );
        }
    }

    #[test]
    fn relocation_keeps_handle_ids_and_both_tables_in_step() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(2, 1).unwrap();
        b.write_unit(loc, &vec![3; n]);
        let first = b.physical_of(loc).unwrap();
        assert_eq!(b.handle_at(first), Some(loc));
        let dest = b
            .device_mut()
            .find_free_page_excluding(2, 1, first.block_addr())
            .unwrap();
        b.move_page(first, dest).unwrap();
        assert_eq!(b.physical_of(loc), Some(dest));
        assert_eq!(b.handle_at(dest), Some(loc));
        assert_eq!(b.handle_at(first), None);
        assert_eq!(b.read_unit(loc).unwrap()[0], 3);
        b.release_unit(loc);
        assert_eq!(b.handle_at(dest), None);
        assert_eq!(b.physical_of(loc), None);
    }

    #[test]
    fn handles_round_trip_data() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(1, 1).unwrap();
        b.write_unit(loc, &vec![0xCD; n]);
        assert_eq!(b.read_unit(loc).unwrap().as_ref(), vec![0xCD; n].as_slice());
    }

    #[test]
    fn rewrite_moves_physically_but_handle_stays() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(0, 0).unwrap();
        b.write_unit(loc, &vec![1; n]);
        let first = b.physical_of(loc).unwrap();
        b.write_unit(loc, &vec![2; n]);
        let second = b.physical_of(loc).unwrap();
        assert_ne!(first, second, "NAND rewrite must relocate");
        assert_eq!(b.read_unit(loc).unwrap()[0], 2);
    }

    #[test]
    fn release_invalidates() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(2, 0).unwrap();
        b.write_unit(loc, &vec![9; n]);
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
            b.write_unit(loc, &vec![(round % 251) as u8; n]);
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
            b.write_unit(s, &vec![(100 + i) as u8; n]);
            stable.push(s);
            b.write_unit(hot, &vec![0; n]);
            b.write_unit(hot, &vec![0; n]);
        }
        let per_bank = b.device().geometry().pages_per_bank();
        for i in 0..(per_bank * 2) as u64 {
            b.write_unit(hot, &vec![(i % 200) as u8; n]);
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
            b.write_unit(loc, &vec![units.len() as u8; n]);
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
            let data = b.read_unit(*loc);
            assert_eq!(
                data.as_deref(),
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
                b.write_unit(loc, &vec![0; n]);
                loc
            })
            .collect();
        let parallel = b.try_schedule_unit_reads(&units, SimTime::ZERO).unwrap();
        b.device_mut().reset_timing();
        // All in one channel: serialized.
        let serial_units: Vec<UnitLocation> = (0..channels as u64)
            .map(|_| {
                let loc = b.alloc_unit(0, 0).unwrap();
                b.write_unit(loc, &vec![0; n]);
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

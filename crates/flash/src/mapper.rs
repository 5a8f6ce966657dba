//! The one page mapper under both translation layers.
//!
//! The baseline FTL (§2.1) and the STL's reverse lookup table (§4.2) solve
//! the same problem: keep one key bound to one live NAND page across
//! out-of-place writes, garbage collection and bad-block / read-disturb
//! migration. [`PageMapper`] owns the device, the key↔page tables, the lane
//! GC threshold and the counters, and holds the only copy of *supersede*,
//! *lane collection*, *block evacuation* and *disturb service*, all built on
//! [`FlashDevice::relocate_page`]. [`Ftl`](crate::Ftl) is this mapper keyed
//! by LBA over a [`DenseIndex`]; `nds-system`'s `FlashBackend` is the same
//! mapper keyed by unit handle over a [`SparseIndex`].
//!
//! The layers differ in one real decision — whether a migration is charged
//! to the modeled timeline — and that is the `clock` argument of the
//! migration routines: `Some(now)` schedules every page read, program and
//! erase from `now` and journals at it; `None` runs in the functional face,
//! moves the same pages and journals at the epoch anchor. What they report
//! under is a construction-time constant ([`MapperLabels`]).

use std::hash::{BuildHasherDefault, Hash, Hasher};

use nds_sim::{splitmix64, ComponentId, EventKind, SimTime, Stats};

use crate::device::{FlashDevice, PageState};
use crate::error::FlashError;
use crate::geometry::{BlockAddr, PageAddr};

/// A lane collects when its free pages drop below one in this many (the
/// paper's "typically 10%", §4.2).
const GC_THRESHOLD_DIVISOR: usize = 10;

/// The dense index's "no page" slot; the constructor keeps every real page
/// index below it.
const UNMAPPED: u32 = u32::MAX;

/// The fixed (seedless) hasher of the sparse tables: chained `splitmix64`
/// over the key's words, so a table's layout is the same in every process.
#[derive(Debug, Default, Clone, Copy)]
struct TableHasher(u64);

impl Hasher for TableHasher {
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
/// can depend on its layout — with the fixed [`TableHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "D2: keyed access only, never iterated, and the hasher is seedless"
)]
type KeyedTable<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<TableHasher>>;

/// The counter names and journal component one instantiation reports
/// under (`benchmark/` reads all of them).
#[derive(Debug, Clone, Copy)]
pub struct MapperLabels {
    gc_runs: &'static str,
    gc_relocated: &'static str,
    journal: ComponentId,
}

impl MapperLabels {
    /// The baseline FTL: `ftl.gc_*` counters, `"ftl"` journal component.
    pub const FTL: MapperLabels = MapperLabels {
        gc_runs: "ftl.gc_runs",
        gc_relocated: "ftl.gc_relocated",
        journal: ComponentId::singleton("ftl"),
    };
    /// The STL's flash backend: `backend.gc_*` counters, `"gc"` journal
    /// component.
    pub const BACKEND: MapperLabels = MapperLabels {
        gc_runs: "backend.gc_runs",
        gc_relocated: "backend.gc_relocated",
        journal: ComponentId::singleton("gc"),
    };
}

/// The key → page-index half of a mapper's tables.
pub trait ForwardIndex<K> {
    /// The page index bound to `key`, if any.
    fn get(&self, key: K) -> Option<u32>;

    /// Rebinds `key` to `page` (`None` unbinds it), returning the binding
    /// it had.
    fn replace(&mut self, key: K, page: Option<u32>) -> Option<u32>;
}

/// A dense forward index over the integer keys `0..slots` — one load per
/// lookup, sized by the key space (the baseline's exported LBAs). Keys
/// outside the range are never bound; the owner range-checks first.
#[derive(Debug, Clone)]
pub struct DenseIndex(Vec<u32>);

impl DenseIndex {
    /// An index of `slots` unbound keys.
    pub fn new(slots: usize) -> Self {
        DenseIndex(vec![UNMAPPED; slots])
    }
}

impl ForwardIndex<u64> for DenseIndex {
    fn get(&self, key: u64) -> Option<u32> {
        let page = *self.0.get(usize::try_from(key).ok()?)?;
        (page != UNMAPPED).then_some(page)
    }

    fn replace(&mut self, key: u64, page: Option<u32>) -> Option<u32> {
        let slot = self.0.get_mut(usize::try_from(key).ok()?)?;
        let old = std::mem::replace(slot, page.unwrap_or(UNMAPPED));
        (old != UNMAPPED).then_some(old)
    }
}

/// A sparse forward index: its size follows the live keys, not the key
/// space (the STL's unit handles).
#[derive(Debug, Clone)]
pub struct SparseIndex<K>(KeyedTable<K, u32>);

impl<K> Default for SparseIndex<K> {
    fn default() -> Self {
        SparseIndex(KeyedTable::default())
    }
}

impl<K: Eq + Hash> ForwardIndex<K> for SparseIndex<K> {
    fn get(&self, key: K) -> Option<u32> {
        self.0.get(&key).copied()
    }

    fn replace(&mut self, key: K, page: Option<u32>) -> Option<u32> {
        match page {
            Some(page) => self.0.insert(key, page),
            None => self.0.remove(&key),
        }
    }
}

/// Keys of type `K` bound one-to-one to live pages of a [`FlashDevice`].
///
/// # Example
///
/// ```
/// use nds_flash::{DenseIndex, FlashConfig, FlashDevice, MapperLabels, PageMapper};
///
/// # fn main() -> Result<(), nds_flash::FlashError> {
/// let device = FlashDevice::new(FlashConfig::small_test());
/// let mut mapper = PageMapper::new(device, DenseIndex::new(16), MapperLabels::FTL);
/// let size = mapper.device().geometry().page_size;
/// for fill in [1u8, 2] {
///     // An out-of-place write: supersede, place, program.
///     mapper.supersede(7)?;
///     let page = mapper.device_mut().find_free_page(0, 0)?.expect("fresh device");
///     mapper.program(7, page, vec![fill; size])?;
/// }
/// let page = mapper.page_of(7).expect("bound");
/// assert_eq!(mapper.device().peek(page).expect("live")[0], 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PageMapper<K, F> {
    device: FlashDevice,
    forward: F,
    /// Page index → the key stored there. Sparse: its size follows the live
    /// keys, not the device.
    reverse: KeyedTable<u32, K>,
    /// Free pages below which a lane collects.
    gc_threshold: usize,
    labels: MapperLabels,
    stats: Stats,
}

impl<K: Copy, F: ForwardIndex<K>> PageMapper<K, F> {
    /// Wraps `device` with empty tables.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more pages than the tables' 32-bit page
    /// indices can name.
    pub fn new(device: FlashDevice, forward: F, labels: MapperLabels) -> Self {
        let g = device.geometry();
        assert!(
            g.total_pages() < UNMAPPED as usize,
            "geometry exceeds the mapper's page-index width"
        );
        PageMapper {
            gc_threshold: gc_threshold(g.pages_per_bank()),
            device,
            forward,
            reverse: KeyedTable::default(),
            labels,
            stats: Stats::new(),
        }
    }

    /// The wrapped flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable device access (placement queries, timing, fault plans).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// Mapper counters: the labelled `*.gc_runs` / `*.gc_relocated`,
    /// `faults.migrated`, `faults.disturb_migrations`, and whatever the
    /// owning layer adds through [`stats_mut`](Self::stats_mut).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The counters, for the owning layer's own entries.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The physical page currently bound to `key`, if any.
    pub fn page_of(&self, key: K) -> Option<PageAddr> {
        let index = self.forward.get(key)?;
        Some(self.device.geometry().page_at(index as usize))
    }

    /// The key stored in `page`, if any.
    pub fn key_at(&self, page: PageAddr) -> Option<K> {
        let index = self.device.page_slot(page).ok()? as u32;
        self.reverse.get(&index).copied()
    }

    /// Binds `key` to `page` in both tables.
    fn bind(&mut self, key: K, page: PageAddr) -> Result<(), FlashError> {
        let index = self.device.page_slot(page)? as u32;
        self.forward.replace(key, Some(index));
        self.reverse.insert(index, key);
        Ok(())
    }

    /// The first half of an out-of-place write, and all of a trim or
    /// release: drops `key`'s binding and leaves its page as garbage for
    /// the next collection. Returns whether `key` was bound.
    ///
    /// # Errors
    ///
    /// [`FlashError::PageNotValid`] if the bound page held no live data.
    pub fn supersede(&mut self, key: K) -> Result<bool, FlashError> {
        let Some(index) = self.forward.replace(key, None) else {
            return Ok(false);
        };
        self.reverse.remove(&index);
        let page = self.device.geometry().page_at(index as usize);
        self.device.invalidate(page)?;
        Ok(true)
    }

    /// The second half of an out-of-place write: programs `payload` into
    /// the free page `page` and binds the (unbound) `key` to it.
    ///
    /// # Errors
    ///
    /// Those of [`FlashDevice::program`]; the tables are untouched then.
    pub fn program(&mut self, key: K, page: PageAddr, payload: Vec<u8>) -> Result<(), FlashError> {
        self.device.program(page, payload)?;
        self.bind(key, page)
    }

    /// Where the payload of a program that failed in `failed` goes instead:
    /// its lane first, then any lane, never the retired block.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `failed` is outside the geometry.
    pub fn recovery_page(&mut self, failed: PageAddr) -> Result<Option<PageAddr>, FlashError> {
        self.device
            .find_recovery_page(failed.channel, failed.bank, failed.block_addr())
    }

    /// Moves the valid page `src` — image and key — to the free page
    /// `dest`. The image lands before the source is invalidated, so a
    /// failure leaves `src` bound and readable.
    fn move_page(&mut self, src: PageAddr, dest: PageAddr) -> Result<(), FlashError> {
        let key = self.key_at(src).ok_or(FlashError::Inconsistent {
            addr: src,
            what: "valid page missing from the reverse map",
        })?;
        self.device.relocate_page(src, dest)?;
        let index = self.device.page_slot(src)? as u32;
        self.reverse.remove(&index);
        self.bind(key, dest)
    }

    /// Charges one move to the timeline from `now`: the source read, then
    /// the destination program.
    fn charge_move(
        &mut self,
        src: PageAddr,
        dest: PageAddr,
        now: SimTime,
    ) -> Result<SimTime, FlashError> {
        let read = self.device.schedule_reads(&[src], now)?;
        self.device.schedule_programs(&[dest], read)
    }

    /// Garbage-collects `(channel, bank)` while its free pages are below
    /// the threshold: picks the device's victim, relocates its survivors
    /// within the lane but outside the victim, erases it. Returns the
    /// instant the collection completes (`clock`'s own when nothing ran,
    /// the epoch anchor without a clock).
    ///
    /// # Errors
    ///
    /// * [`FlashError::DeviceFull`] if a survivor has nowhere to go in the
    ///   lane — every key is then still bound and readable.
    /// * [`FlashError::AddressOutOfRange`] if the lane is outside the
    ///   geometry.
    pub fn collect_lane(
        &mut self,
        channel: usize,
        bank: usize,
        mut clock: Option<SimTime>,
    ) -> Result<SimTime, FlashError> {
        let g = *self.device.geometry();
        // One victim per block at most: a lane that frees nothing stops.
        for _ in 0..g.blocks_per_bank {
            if self.device.free_pages_in(channel, bank)? >= self.gc_threshold {
                break;
            }
            let Some((victim, valid, invalid)) = self.device.gc_victim(channel, bank)? else {
                break;
            };
            self.device.observability_mut().event(
                clock.unwrap_or(SimTime::ZERO),
                self.labels.journal,
                || EventKind::GcVictimPicked {
                    channel: channel as u32,
                    bank: bank as u32,
                    block: victim.block as u32,
                    valid: valid as u32,
                    invalid: invalid as u32,
                },
            );
            // An all-dead victim (the rule under overwrite churn) has no
            // survivors to look for.
            let pages = if valid > 0 { g.pages_per_block } else { 0 };
            for p in 0..pages {
                let src = victim.page(p);
                if self.device.page_state(src)? != PageState::Valid {
                    continue;
                }
                // Never inside the victim: the erase below would take the
                // fresh copy with it.
                let dest = self
                    .device
                    .find_free_page_excluding(channel, bank, victim)?
                    .ok_or(FlashError::DeviceFull)?;
                self.move_page(src, dest)?;
                clock = clock
                    .map(|now| self.charge_move(src, dest, now))
                    .transpose()?;
                self.stats.add(self.labels.gc_relocated, 1);
            }
            self.device.erase_block(victim)?;
            clock = clock
                .map(|now| self.device.schedule_erase(victim, now))
                .transpose()?;
            self.stats.add(self.labels.gc_runs, 1);
        }
        Ok(clock.unwrap_or(SimTime::ZERO))
    }

    /// Moves every valid page of `block` — retired after a program failure
    /// or past the read-disturb limit — out of it, on the timeline from
    /// `now`. Survivors stay on their lane while it has (or can collect) a
    /// free page and go to any lane only after that: a fault must not
    /// strand data while the device has space somewhere.
    ///
    /// # Errors
    ///
    /// * [`FlashError::DeviceFull`] if a survivor has nowhere to go — every
    ///   key is then still bound and readable.
    /// * [`FlashError::AddressOutOfRange`] if `block` is outside the
    ///   geometry.
    pub fn evacuate(&mut self, block: BlockAddr, mut now: SimTime) -> Result<SimTime, FlashError> {
        let (channel, bank) = (block.channel, block.bank);
        for p in 0..self.device.geometry().pages_per_block {
            let src = block.page(p);
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let dest = match self.device.find_free_page_excluding(channel, bank, block)? {
                Some(dest) => dest,
                None => {
                    now = self.collect_lane(channel, bank, Some(now))?;
                    // The collection may have moved (or erased) the page
                    // under us; its binding is fresh then.
                    if self.device.page_state(src)? != PageState::Valid {
                        continue;
                    }
                    self.device
                        .find_recovery_page(channel, bank, block)?
                        .ok_or(FlashError::DeviceFull)?
                }
            };
            self.move_page(src, dest)?;
            now = self.charge_move(src, dest, now)?;
            self.stats.add("faults.migrated", 1);
        }
        Ok(now)
    }

    /// Evacuates and erases every block whose read-disturb counter crossed
    /// the configured limit — the preventive-migration half of the fault
    /// model. A no-op when no plan is installed or nothing is pending.
    /// Returns the instant the migrations complete.
    ///
    /// # Errors
    ///
    /// Those of [`evacuate`](Self::evacuate).
    pub fn service_disturbed(&mut self, mut now: SimTime) -> Result<SimTime, FlashError> {
        for block in self.device.take_disturbed_blocks() {
            now = self.evacuate(block, now)?;
            self.device.erase_block(block)?;
            now = self.device.schedule_erase(block, now)?;
            self.stats.add("faults.disturb_migrations", 1);
        }
        Ok(now)
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
    use crate::FlashConfig;

    type Sparse = PageMapper<(u8, u64), SparseIndex<(u8, u64)>>;

    fn sparse() -> Sparse {
        PageMapper::new(
            FlashDevice::new(FlashConfig::small_test()),
            SparseIndex::default(),
            MapperLabels::BACKEND,
        )
    }

    /// An out-of-place write of `key` into lane `(0, 0)`, collecting under
    /// `clock`; returns the collection's completion instant.
    fn write(m: &mut Sparse, key: (u8, u64), fill: u8, clock: Option<SimTime>) -> SimTime {
        m.supersede(key).unwrap();
        let collected = m.collect_lane(0, 0, clock).unwrap();
        let page = m.device_mut().find_free_page(0, 0).unwrap().unwrap();
        let size = m.device().geometry().page_size;
        m.program(key, page, vec![fill; size]).unwrap();
        collected
    }

    #[test]
    fn integer_gc_threshold_equals_the_float_expression_it_replaced() {
        let float = |pages_per_bank: usize| ((pages_per_bank as f64) * 0.10).ceil() as usize;
        // Covers every geometry the repo constructs (the largest lane, in
        // `datacenter_32ch()` and `SystemConfig::paper_scale()`, is 4 096
        // pages).
        for pages_per_bank in 1..200_000 {
            assert_eq!(
                gc_threshold(pages_per_bank),
                float(pages_per_bank),
                "pages_per_bank = {pages_per_bank}"
            );
        }
        for config in [
            FlashConfig::datacenter_32ch(),
            FlashConfig::consumer_8ch(),
            FlashConfig::small_test(),
        ] {
            let pages_per_bank = config.geometry.pages_per_bank();
            let mapper = PageMapper::new(
                FlashDevice::new(config),
                DenseIndex::new(0),
                MapperLabels::FTL,
            );
            assert_eq!(mapper.gc_threshold, float(pages_per_bank));
        }
    }

    #[test]
    fn relocation_keeps_keys_and_both_tables_in_step() {
        let mut m = sparse();
        let key = (2, 0);
        write(&mut m, key, 3, None);
        let first = m.page_of(key).unwrap();
        assert_eq!(m.key_at(first), Some(key));
        let dest = m
            .device_mut()
            .find_free_page_excluding(0, 0, first.block_addr())
            .unwrap()
            .unwrap();
        m.move_page(first, dest).unwrap();
        assert_eq!(m.page_of(key), Some(dest));
        assert_eq!(m.key_at(dest), Some(key));
        assert_eq!(m.key_at(first), None);
        assert_eq!(m.device().peek(dest).unwrap()[0], 3);
        assert!(m.supersede(key).unwrap());
        assert_eq!(m.key_at(dest), None);
        assert_eq!(m.page_of(key), None);
        assert!(!m.supersede(key).unwrap(), "already unbound");
    }

    #[test]
    fn a_valid_page_without_a_reverse_entry_is_a_typed_inconsistency() {
        let mut m = sparse();
        let size = m.device().geometry().page_size;
        let stray = m.device_mut().find_free_page(0, 0).unwrap().unwrap();
        // Programmed behind the mapper's back: valid, but nobody's.
        m.device_mut().program(stray, vec![1; size]).unwrap();
        let err = m.evacuate(stray.block_addr(), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::Inconsistent { addr, .. } if addr == stray));
    }

    #[test]
    fn a_clock_charges_the_collection_and_stamps_its_journal() {
        let run = |clock: Option<SimTime>| {
            let mut m = sparse();
            m.device_mut()
                .observability_mut()
                .journal_mut()
                .set_enabled(true);
            // Stable keys interleaved with a hammered one, so victims hold
            // survivors that must move.
            let hot = (1, 0);
            let mut done = SimTime::ZERO;
            for unit in 0..24 {
                write(&mut m, (0, unit), 100 + unit as u8, clock);
                write(&mut m, hot, 0, clock);
                write(&mut m, hot, 0, clock);
            }
            for round in 0..m.device().geometry().pages_per_bank() * 2 {
                done = done.max(write(&mut m, hot, round as u8, clock));
            }
            assert!(m.stats().get("backend.gc_relocated") > 0);
            for unit in 0..24 {
                let page = m.page_of((0, unit)).unwrap();
                assert_eq!(m.device().peek(page).unwrap()[0], 100 + unit as u8);
            }
            let victim = m
                .device()
                .observability()
                .journal()
                .events()
                .filter(|e| matches!(e.kind, EventKind::GcVictimPicked { .. }))
                .last()
                .expect("enabled journal must capture GC");
            assert_eq!(victim.component.group, "gc");
            (victim.at, done, m.device().drained_at())
        };
        assert_eq!(
            run(None),
            (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO),
            "no clock: nothing is charged, the journal sits at the epoch anchor"
        );
        let start = SimTime::ZERO + nds_sim::SimDuration::from_millis(1);
        let (at, done, drained) = run(Some(start));
        assert_eq!(at, start, "the journal timestamp follows the clock");
        assert!(
            done > start && drained >= done,
            "moves and erases are charged"
        );
    }
}

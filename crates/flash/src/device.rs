//! The functional + timing flash device.

use std::cmp::Reverse;
use std::ops::Range;
use std::slice::SliceIndex;

use nds_faults::{FaultConfig, FaultPlan, MediaReadFault};
use nds_sim::{
    ComponentId, EventKind, ObsConfig, Observability, ResourceSet, SeriesSnapshot, SimDuration,
    SimTime, Stats, TraceContext,
};
use serde::{Deserialize, Serialize};

/// Journal identity of the flash device singleton.
const FLASH_COMPONENT: ComponentId = ComponentId::singleton("flash");

use crate::error::FlashError;
use crate::geometry::{BlockAddr, FlashGeometry, PageAddr};
use crate::timing::FlashTiming;
use crate::FlashConfig;

/// Run-long `(resource name, busy time)` totals for one lane class
/// (channels or banks), as returned by
/// [`FlashDevice::lane_busy_totals`].
pub type LaneBusy = Vec<(String, SimDuration)>;

/// Lifecycle state of a flash page.
///
/// NAND pages are program-once: a `Valid` page cannot be overwritten in
/// place; it must be invalidated and its block eventually erased. The
/// baseline FTL and the NDS STL both build out-of-place update schemes on
/// top of this rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Holds live data.
    Valid,
    /// Holds superseded data awaiting erase.
    Invalid,
}

/// A flash device that stores real bytes and accounts simulated time.
///
/// The device exposes three layers:
///
/// * **Functional**: [`program`](Self::program) / [`read`](Self::read) /
///   [`invalidate`](Self::invalidate) / [`erase_block`](Self::erase_block)
///   move real bytes under NAND rules.
/// * **Timing**: [`schedule_reads`](Self::schedule_reads) /
///   [`schedule_programs`](Self::schedule_programs) /
///   [`schedule_erase`](Self::schedule_erase) account for bank and channel
///   occupancy and return completion instants.
/// * **Allocation support**: free-page queries per `(channel, bank)` that the
///   FTL and the STL use to place data.
///
/// Keeping the layers separate lets translation layers decide *where* data
/// goes (functional) and systems decide *when* it arrives (timing) without
/// entangling the two.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    config: FlashConfig,
    data: Vec<Option<Box<[u8]>>>,
    state: Vec<PageState>,
    erase_counts: Vec<u64>,
    alloc_cursor: Vec<usize>,
    free_count: Vec<usize>,
    channels: ResourceSet,
    banks: ResourceSet,
    stats: Stats,
    faults: Option<MediaFaults>,
    obs: Observability,
}

/// Media-fault bookkeeping installed by
/// [`install_faults`](FlashDevice::install_faults): the deterministic plan
/// plus per-block bad/read-disturb state.
#[derive(Debug, Clone)]
struct MediaFaults {
    plan: FaultPlan,
    /// Blocks retired after a permanent program failure.
    bad: Vec<bool>,
    /// Array reads absorbed by each block since its last erase.
    disturb: Vec<u64>,
    /// Blocks past the disturb limit, awaiting preventive migration by the
    /// translation layer.
    disturbed: Vec<BlockAddr>,
}

/// The entry (or entries) of a per-page, per-block or per-lane table at
/// `slot`. Every table is sized from the geometry at construction and every
/// slot comes from one of [`FlashDevice`]'s checked address accessors, so a
/// miss is a bookkeeping fault, reported against `addr`.
fn entry<T, I: SliceIndex<[T]>>(
    table: &[T],
    slot: I,
    addr: PageAddr,
) -> Result<&I::Output, FlashError> {
    table.get(slot).ok_or_else(|| uncovered(addr))
}

/// [`entry`], mutably.
fn entry_mut<T, I: SliceIndex<[T]>>(
    table: &mut [T],
    slot: I,
    addr: PageAddr,
) -> Result<&mut I::Output, FlashError> {
    table.get_mut(slot).ok_or_else(|| uncovered(addr))
}

/// The error of a table with no entry for an address inside the geometry.
fn uncovered(addr: PageAddr) -> FlashError {
    FlashError::Inconsistent {
        addr,
        what: "device table does not cover the geometry",
    }
}

impl FlashDevice {
    /// Creates an all-erased device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`FlashGeometry::validate`].
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: an invalid geometry is a programming error, and benchmark/ builds devices infallibly"
    )]
    pub fn new(config: FlashConfig) -> Self {
        config.geometry.validate().expect("invalid flash geometry");
        let g = config.geometry;
        let total_pages = g.total_pages();
        let total_banks = g.total_banks();
        FlashDevice {
            channels: ResourceSet::new("flash.ch", g.channels),
            banks: ResourceSet::new("flash.bank", total_banks),
            data: vec![None; total_pages],
            state: vec![PageState::Free; total_pages],
            erase_counts: vec![0; g.total_blocks()],
            alloc_cursor: vec![0; total_banks],
            free_count: vec![g.pages_per_bank(); total_banks],
            stats: Stats::new(),
            faults: None,
            obs: Observability::disabled(),
            config,
        }
    }

    /// Applies an observability configuration: journal + histograms on the
    /// device, and (when it is collecting) busy-time sampling on every
    /// channel and bank resource. Hooks stay one-branch no-ops while
    /// everything is disabled.
    pub fn configure_observability(&mut self, config: &ObsConfig) {
        self.obs.configure(config);
        if config.collecting() {
            self.channels.enable_timelines();
            self.banks.enable_timelines();
        }
    }

    /// The device's journal and histograms.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Mutable access to the device's journal and histograms.
    pub fn observability_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }

    /// Busy-time timelines of every channel and bank resource that has
    /// recording enabled, named after the resource.
    pub fn timelines(&self) -> impl Iterator<Item = (&str, &SeriesSnapshot)> {
        self.channels.timelines().chain(self.banks.timelines())
    }

    /// Tags subsequent journal events with a front-end command's trace
    /// context (causal trace id + run-long clock origin); paired with
    /// [`end_trace`](Self::end_trace) around each traced command.
    pub fn begin_trace(&mut self, ctx: TraceContext) {
        self.obs.set_trace(ctx);
    }

    /// Stops trace tagging on the device journal.
    pub fn end_trace(&mut self) {
        self.obs.clear_trace();
    }

    /// Run-long `(name, busy)` totals per channel and per bank, from the
    /// epoch-folded busy timelines (empty when timelines are disabled).
    /// This is the ground truth behind the profiler's channel/bank
    /// parallelism metrics.
    pub fn lane_busy_totals(&self) -> (LaneBusy, LaneBusy) {
        (self.channels.busy_totals(), self.banks.busy_totals())
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.config.geometry
    }

    /// The device timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.config.timing
    }

    /// Accumulated operation counters (`flash.pages_read`,
    /// `flash.pages_programmed`, `flash.blocks_erased`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Checked addressing: the only way from an address to a table slot
    // ------------------------------------------------------------------

    /// Table slot of the page at `addr`.
    pub(crate) fn page_slot(&self, addr: PageAddr) -> Result<usize, FlashError> {
        if !self.config.geometry.contains(addr) {
            return Err(FlashError::AddressOutOfRange(addr));
        }
        Ok(self.config.geometry.page_index(addr))
    }

    /// Table slot of `block` and the page slots it spans (pages are numbered
    /// channel-major, then bank, block, page, so they are consecutive).
    fn block_slots(&self, block: BlockAddr) -> Result<(usize, Range<usize>), FlashError> {
        let first = self.page_slot(block.page(0))?;
        let pages = first..first + self.config.geometry.pages_per_block;
        Ok((self.config.geometry.block_index(block), pages))
    }

    /// Table slot of the lane `(channel, bank)` and its first page, which
    /// errors about the lane are reported against.
    fn lane_slot(&self, channel: usize, bank: usize) -> Result<(usize, PageAddr), FlashError> {
        let origin = PageAddr {
            channel,
            bank,
            block: 0,
            page: 0,
        };
        self.page_slot(origin)?;
        Ok((self.bank_id(origin), origin))
    }

    /// Rejects a batch that names a page outside the geometry, before any of
    /// it is scheduled.
    fn check_batch(&self, pages: &[PageAddr]) -> Result<(), FlashError> {
        match pages.iter().find(|&&p| !self.config.geometry.contains(p)) {
            Some(&p) => Err(FlashError::AddressOutOfRange(p)),
            None => Ok(()),
        }
    }

    /// Bank resource of a page inside the geometry.
    fn bank_id(&self, addr: PageAddr) -> usize {
        addr.channel * self.config.geometry.banks_per_channel + addr.bank
    }

    // ------------------------------------------------------------------
    // Functional layer
    // ------------------------------------------------------------------

    /// Programs `payload` into the free page at `addr`.
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] if `addr` is outside the geometry.
    /// * [`FlashError::PageNotFree`] if the page already holds data — NAND
    ///   pages are program-once.
    /// * [`FlashError::BadPayloadSize`] if `payload` is not exactly one page.
    pub fn program(&mut self, addr: PageAddr, payload: Vec<u8>) -> Result<(), FlashError> {
        let idx = self.page_slot(addr)?;
        let lane = self.bank_id(addr);
        if payload.len() != self.config.geometry.page_size {
            return Err(FlashError::BadPayloadSize {
                got: payload.len(),
                expected: self.config.geometry.page_size,
            });
        }
        let state = entry_mut(&mut self.state, idx, addr)?;
        let image = entry_mut(&mut self.data, idx, addr)?;
        let free = entry_mut(&mut self.free_count, lane, addr)?;
        if *state != PageState::Free {
            return Err(FlashError::PageNotFree(addr));
        }
        *state = PageState::Valid;
        *image = Some(payload.into_boxed_slice());
        *free -= 1;
        self.stats.add("flash.pages_programmed", 1);
        Ok(())
    }

    /// Relocates the valid page at `src` into the free page at `dest` and
    /// marks `src` superseded: what reading `src`, programming `dest` with
    /// the copy and then invalidating `src` does (and counts — one
    /// `flash.pages_read`, one `flash.pages_programmed`), except that the
    /// stored image moves instead of being copied.
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] if either address is outside the
    ///   geometry.
    /// * [`FlashError::PageNotValid`] if `src` holds no live data.
    /// * [`FlashError::PageNotFree`] if `dest` already holds data.
    pub fn relocate_page(&mut self, src: PageAddr, dest: PageAddr) -> Result<(), FlashError> {
        let from = self.page_slot(src)?;
        let to = self.page_slot(dest)?;
        let lane = self.bank_id(dest);
        if *entry(&self.state, from, src)? != PageState::Valid {
            return Err(FlashError::PageNotValid(src));
        }
        if *entry(&self.state, to, dest)? != PageState::Free {
            return Err(FlashError::PageNotFree(dest));
        }
        if entry(&self.data, from, src)?.is_none() {
            return Err(FlashError::Inconsistent {
                addr: src,
                what: "page marked valid holds no data",
            });
        }
        let free = entry_mut(&mut self.free_count, lane, dest)?;
        *free -= 1;
        // A free page holds no image, so the swap is a move.
        self.data.swap(from, to);
        *entry_mut(&mut self.state, from, src)? = PageState::Invalid;
        *entry_mut(&mut self.state, to, dest)? = PageState::Valid;
        self.stats.add("flash.pages_read", 1);
        self.stats.add("flash.pages_programmed", 1);
        Ok(())
    }

    /// Reads the valid page at `addr`.
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] if `addr` is outside the geometry.
    /// * [`FlashError::PageNotValid`] if the page holds no live data.
    pub fn read(&mut self, addr: PageAddr) -> Result<&[u8], FlashError> {
        let idx = self.page_slot(addr)?;
        if *entry(&self.state, idx, addr)? != PageState::Valid {
            return Err(FlashError::PageNotValid(addr));
        }
        let image = entry(&self.data, idx, addr)?
            .as_deref()
            .ok_or(FlashError::Inconsistent {
                addr,
                what: "page marked valid holds no data",
            })?;
        self.stats.add("flash.pages_read", 1);
        Ok(image)
    }

    /// Reads the valid page at `addr` without touching timing or counters —
    /// the functional peek used by translation layers that account device
    /// time separately from data movement.
    pub fn peek(&self, addr: PageAddr) -> Option<&[u8]> {
        let idx = self.page_slot(addr).ok()?;
        if self.state.get(idx) != Some(&PageState::Valid) {
            return None;
        }
        self.data.get(idx)?.as_deref()
    }

    /// Marks the valid page at `addr` as superseded (awaiting erase).
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] if `addr` is outside the geometry.
    /// * [`FlashError::PageNotValid`] if the page holds no live data.
    pub fn invalidate(&mut self, addr: PageAddr) -> Result<(), FlashError> {
        let idx = self.page_slot(addr)?;
        let state = entry_mut(&mut self.state, idx, addr)?;
        if *state != PageState::Valid {
            return Err(FlashError::PageNotValid(addr));
        }
        *state = PageState::Invalid;
        Ok(())
    }

    /// Erases a block: every page becomes `Free`, data is dropped, and the
    /// block's wear counter increments. A retired block is left as it is.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `block` is outside the geometry.
    pub fn erase_block(&mut self, block: BlockAddr) -> Result<(), FlashError> {
        let first = block.page(0);
        let (block_idx, pages) = self.block_slots(block)?;
        let lane = self.bank_id(first);
        if self.is_bad_block(block) {
            // Retired blocks are never erased back into service.
            return Ok(());
        }
        let states = entry_mut(&mut self.state, pages.clone(), first)?;
        let images = entry_mut(&mut self.data, pages, first)?;
        let wear = entry_mut(&mut self.erase_counts, block_idx, first)?;
        let free = entry_mut(&mut self.free_count, lane, first)?;
        *wear += 1;
        // Erasing live data is legal at the device level; the mapper above
        // is responsible for copying live pages out first.
        *free += states.iter().filter(|&&s| s != PageState::Free).count();
        states.fill(PageState::Free);
        images.fill(None);
        if let Some(disturb) = self
            .faults
            .as_mut()
            .and_then(|f| f.disturb.get_mut(block_idx))
        {
            // An erase refreshes the block, clearing accumulated disturb.
            *disturb = 0;
        }
        self.stats.add("flash.blocks_erased", 1);
        Ok(())
    }

    /// State of the page at `addr`.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `addr` is outside the geometry.
    pub fn page_state(&self, addr: PageAddr) -> Result<PageState, FlashError> {
        entry(&self.state, self.page_slot(addr)?, addr).copied()
    }

    /// Erase count of the given block (wear).
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `block` is outside the geometry.
    pub fn erase_count(&self, block: BlockAddr) -> Result<u64, FlashError> {
        let (block_idx, _) = self.block_slots(block)?;
        entry(&self.erase_counts, block_idx, block.page(0)).copied()
    }

    // ------------------------------------------------------------------
    // Allocation support
    // ------------------------------------------------------------------

    /// Free pages remaining in `(channel, bank)`.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if the channel or bank index is out
    /// of range (so do the other lane queries below).
    pub fn free_pages_in(&self, channel: usize, bank: usize) -> Result<usize, FlashError> {
        let (lane, origin) = self.lane_slot(channel, bank)?;
        entry(&self.free_count, lane, origin).copied()
    }

    /// Finds a free page in `(channel, bank)` using a rotating cursor, giving
    /// log-structured append behaviour inside each bank.
    ///
    /// Returns `None` when the bank has no free page (the caller should
    /// garbage-collect).
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] for a lane outside the geometry.
    pub fn find_free_page(
        &mut self,
        channel: usize,
        bank: usize,
    ) -> Result<Option<PageAddr>, FlashError> {
        self.scan_free_page(channel, bank, None)
    }

    /// Like [`find_free_page`](Self::find_free_page) but never returns a
    /// page inside `excluded` — for relocation out of a block that is about
    /// to be erased (GC victims, retired blocks, disturb migration).
    /// Allocating the destination inside the doomed block would erase the
    /// relocated data along with the garbage.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] for a lane outside the geometry.
    pub fn find_free_page_excluding(
        &mut self,
        channel: usize,
        bank: usize,
        excluded: BlockAddr,
    ) -> Result<Option<PageAddr>, FlashError> {
        self.scan_free_page(channel, bank, Some(excluded))
    }

    /// The one cursor scan behind both free-page queries: the first free
    /// page of a healthy block at or after the lane's cursor, skipping
    /// `excluded`; the cursor moves past the page only when one is found.
    fn scan_free_page(
        &mut self,
        channel: usize,
        bank: usize,
        excluded: Option<BlockAddr>,
    ) -> Result<Option<PageAddr>, FlashError> {
        let (lane, origin) = self.lane_slot(channel, bank)?;
        if *entry(&self.free_count, lane, origin)? == 0 {
            return Ok(None);
        }
        let g = self.config.geometry;
        let pages = g.pages_per_bank();
        let first = self.page_slot(origin)?;
        let states = entry(&self.state, first..first + pages, origin)?;
        let start = *entry(&self.alloc_cursor, lane, origin)?;
        for off in 0..pages {
            let local = (start + off) % pages;
            let addr = PageAddr {
                channel,
                bank,
                block: local / g.pages_per_block,
                page: local % g.pages_per_block,
            };
            if Some(addr.block_addr()) == excluded {
                continue;
            }
            if states.get(local) == Some(&PageState::Free) && !self.is_bad_block(addr.block_addr())
            {
                *entry_mut(&mut self.alloc_cursor, lane, origin)? = (local + 1) % pages;
                return Ok(Some(addr));
            }
        }
        Ok(None)
    }

    /// Free-page search for recovery paths only: the home lane
    /// `(channel, bank)` first (preserving stripe placement), then any
    /// lane — a fault must not strand data while the device still has
    /// space somewhere. Foreground writes never take this path, so
    /// fault-free placement is unchanged. `avoid` is the block being
    /// evacuated; destinations inside it would be lost to its upcoming
    /// erase.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] for a lane outside the geometry.
    pub fn find_recovery_page(
        &mut self,
        channel: usize,
        bank: usize,
        avoid: BlockAddr,
    ) -> Result<Option<PageAddr>, FlashError> {
        if let Some(p) = self.find_free_page_excluding(channel, bank, avoid)? {
            return Ok(Some(p));
        }
        let g = self.config.geometry;
        for c in 0..g.channels {
            for b in 0..g.banks_per_channel {
                if let Some(p) = self.find_free_page_excluding(c, b, avoid)? {
                    return Ok(Some(p));
                }
            }
        }
        Ok(None)
    }

    /// Garbage-collection victim choice for `(channel, bank)`: the block
    /// with the most invalid pages, ties preferring the least-worn block (a
    /// light wear-leveling touch); retired blocks are never picked. Returns
    /// `(block, valid, invalid)`, or `None` when nothing is reclaimable.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] for a lane outside the geometry.
    pub fn gc_victim(
        &self,
        channel: usize,
        bank: usize,
    ) -> Result<Option<(BlockAddr, usize, usize)>, FlashError> {
        let (_, origin) = self.lane_slot(channel, bank)?;
        let (first, _) = self.block_slots(origin.block_addr())?;
        let blocks = first..first + self.config.geometry.blocks_per_bank;
        let wear = entry(&self.erase_counts, blocks, origin)?;
        Ok(self
            .lane_occupancy(origin)?
            .zip(wear)
            .enumerate()
            .map(|(block, ((valid, invalid), &wear))| {
                let addr = BlockAddr {
                    channel,
                    bank,
                    block,
                };
                (addr, valid, invalid, wear)
            })
            .filter(|&(addr, _, invalid, _)| invalid > 0 && !self.is_bad_block(addr))
            .max_by_key(|&(_, _, invalid, wear)| (invalid, Reverse(wear)))
            .map(|(addr, valid, invalid, _)| (addr, valid, invalid)))
    }

    /// Counts valid/invalid pages per block in `(channel, bank)` — the input
    /// to victim selection during garbage collection. Returns
    /// `(block, valid, invalid)` triples.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] for a lane outside the geometry.
    pub fn block_occupancy(
        &self,
        channel: usize,
        bank: usize,
    ) -> Result<Vec<(usize, usize, usize)>, FlashError> {
        let (_, origin) = self.lane_slot(channel, bank)?;
        Ok(self
            .lane_occupancy(origin)?
            .enumerate()
            .map(|(block, (valid, invalid))| (block, valid, invalid))
            .collect())
    }

    /// `(valid, invalid)` page counts of every block of the lane whose first
    /// page is `origin`, in block order.
    fn lane_occupancy(
        &self,
        origin: PageAddr,
    ) -> Result<impl Iterator<Item = (usize, usize)> + '_, FlashError> {
        let g = &self.config.geometry;
        let first = self.page_slot(origin)?;
        let states = entry(&self.state, first..first + g.pages_per_bank(), origin)?;
        Ok(states.chunks_exact(g.pages_per_block).map(|block| {
            block
                .iter()
                .fold((0, 0), |(valid, invalid), state| match state {
                    PageState::Valid => (valid + 1, invalid),
                    PageState::Invalid => (valid, invalid + 1),
                    PageState::Free => (valid, invalid),
                })
        }))
    }

    // ------------------------------------------------------------------
    // Timing layer
    // ------------------------------------------------------------------

    /// Schedules a batch of page reads that become ready at `ready` and
    /// returns the completion instant of the whole batch.
    ///
    /// Each page holds its bank for the array-read latency, then its channel
    /// for the bus transfer; banks on the same channel overlap their array
    /// reads while transfers serialize on the channel bus — the pipelining
    /// the paper exploits for building-block accesses.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if a page is outside the geometry;
    /// nothing is scheduled then.
    pub fn schedule_reads(
        &mut self,
        pages: &[PageAddr],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.check_batch(pages)?;
        let transfer = self
            .config
            .timing
            .transfer_time(self.config.geometry.page_size);
        let read_lat = self.config.timing.read_latency;
        Ok(pages
            .iter()
            .map(|&p| {
                let bank_end = self.banks.acquire(self.bank_id(p), ready, read_lat);
                let end = self.channels.acquire(p.channel, bank_end, transfer);
                self.obs
                    .event(end, FLASH_COMPONENT, || EventKind::PageRead {
                        channel: p.channel as u32,
                        bank: p.bank as u32,
                    });
                self.obs
                    .latency("flash.read_page", end.saturating_since(ready));
                end
            })
            .fold(ready, SimTime::max))
    }

    /// Schedules a batch of page programs and returns the batch completion
    /// instant. Data crosses the channel bus first, then the bank holds for
    /// the program latency.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if a page is outside the geometry;
    /// nothing is scheduled then.
    pub fn schedule_programs(
        &mut self,
        pages: &[PageAddr],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.check_batch(pages)?;
        let transfer = self
            .config
            .timing
            .transfer_time(self.config.geometry.page_size);
        let prog_lat = self.config.timing.program_latency;
        Ok(pages
            .iter()
            .map(|&p| {
                let chan_end = self.channels.acquire(p.channel, ready, transfer);
                let end = self.banks.acquire(self.bank_id(p), chan_end, prog_lat);
                self.obs
                    .event(end, FLASH_COMPONENT, || EventKind::PageProgrammed {
                        channel: p.channel as u32,
                        bank: p.bank as u32,
                    });
                self.obs
                    .latency("flash.program_page", end.saturating_since(ready));
                end
            })
            .fold(ready, SimTime::max))
    }

    /// Schedules a block erase and returns its completion instant.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `block` is outside the geometry.
    pub fn schedule_erase(
        &mut self,
        block: BlockAddr,
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.block_slots(block)?;
        let end = self.banks.acquire(
            self.bank_id(block.page(0)),
            ready,
            self.config.timing.erase_latency,
        );
        self.obs
            .event(end, FLASH_COMPONENT, || EventKind::BlockErased {
                channel: block.channel as u32,
                bank: block.bank as u32,
                block: block.block as u32,
            });
        Ok(end)
    }

    /// The instant at which every channel and bank has drained its committed
    /// work.
    pub fn drained_at(&self) -> SimTime {
        self.channels.all_free_at().max(self.banks.all_free_at())
    }

    /// The steady-state throughput cost of the work scheduled since the last
    /// [`reset_timing`](Self::reset_timing): total busy time averaged over
    /// all channels and over all banks, whichever is the tighter bottleneck.
    /// A deeply queued request stream spreads across the device's lanes, so
    /// this — not the single-request critical path — is what paces a full
    /// pipeline.
    pub fn throughput_occupancy(&self) -> nds_sim::SimDuration {
        let per_channel = self.channels.total_busy() / self.channels.len() as u64;
        let per_bank = self.banks.total_busy() / self.banks.len() as u64;
        per_channel.max(per_bank)
    }

    /// Resets the timing resources to idle at t = 0 without touching stored
    /// data — used between benchmark measurements on a pre-populated device.
    pub fn reset_timing(&mut self) {
        self.channels.reset();
        self.banks.reset();
    }

    /// Ends the current per-operation timing epoch after `span` of modeled
    /// time (the operation's end-to-end latency): every channel and bank
    /// timeline advances by the same span, so lanes stay aligned with the
    /// run-long trace clock even when they drained before the operation
    /// finished. Front-ends call this at operation end; see
    /// [`Resource::fold_epoch`](nds_sim::Resource::fold_epoch).
    pub fn fold_timing_epoch(&mut self, span: nds_sim::SimDuration) {
        self.channels.fold_epoch(span);
        self.banks.fold_epoch(span);
        self.obs.fold_metrics_epoch(span);
    }

    // ------------------------------------------------------------------
    // Fault layer
    // ------------------------------------------------------------------

    /// Installs a deterministic media-fault plan. Reads scheduled through
    /// [`fault_read_batch`](Self::fault_read_batch) and programs checked via
    /// [`next_program_fault`](Self::next_program_fault) then draw from it;
    /// the plain `schedule_*` calls stay fault-free for golden runs.
    pub fn install_faults(&mut self, config: FaultConfig) {
        let blocks = self.config.geometry.total_blocks();
        self.faults = Some(MediaFaults {
            plan: FaultPlan::new(config),
            bad: vec![false; blocks],
            disturb: vec![0; blocks],
            disturbed: Vec::new(),
        });
    }

    /// True if `block` has been retired after a permanent program failure.
    /// Retired blocks are skipped by allocation and never erased; their
    /// valid pages stay readable until the translation layer relocates them.
    pub fn is_bad_block(&self, block: BlockAddr) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            self.block_slots(block)
                .is_ok_and(|(idx, _)| f.bad.get(idx) == Some(&true))
        })
    }

    /// Number of retired blocks.
    pub fn bad_block_count(&self) -> usize {
        self.faults
            .as_ref()
            .map_or(0, |f| f.bad.iter().filter(|&&b| b).count())
    }

    /// Schedules a batch of page reads under the installed fault plan.
    ///
    /// Each page behaves exactly like [`schedule_reads`](Self::schedule_reads)
    /// — bank array read, then channel transfer — and additionally draws one
    /// fault decision. A transient ECC failure re-runs the array read and
    /// transfer once per required retry (each counted in `retries.flash`),
    /// bounded by the configured read-retry budget. Every array read also
    /// feeds the block's read-disturb counter; blocks past the limit queue
    /// for preventive migration via
    /// [`take_disturbed_blocks`](Self::take_disturbed_blocks).
    ///
    /// With no plan installed (or a zero rate), this is schedule-identical
    /// to `schedule_reads`.
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] if a page is outside the geometry;
    ///   nothing is scheduled or drawn then.
    /// * [`FlashError::ReadUnrecoverable`] if a page still fails after the
    ///   retry budget is spent (the spent retries remain on the timeline).
    pub fn fault_read_batch(
        &mut self,
        pages: &[PageAddr],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.check_batch(pages)?;
        let g = self.config.geometry;
        let transfer = self.config.timing.transfer_time(g.page_size);
        let read_lat = self.config.timing.read_latency;
        let budget = self
            .faults
            .as_ref()
            .map_or(0, |f| f.plan.config().read_retry_budget);
        let mut done = ready;
        for &p in pages {
            let bank_id = self.bank_id(p);
            let bank_end = self.banks.acquire(bank_id, ready, read_lat);
            let mut end = self.channels.acquire(p.channel, bank_end, transfer);
            let decision = match self.faults.as_mut() {
                Some(f) => f.plan.next_read_fault(),
                None => MediaReadFault::None,
            };
            let mut senses = 1u64;
            if let MediaReadFault::Transient { retries } = decision {
                self.stats.add("faults.injected", 1);
                self.obs
                    .event(end, FLASH_COMPONENT, || EventKind::FaultInjected {
                        kind: "flash.read_transient",
                    });
                for attempt in 0..retries.min(budget) {
                    self.stats.add("retries.flash", 1);
                    let again = self.banks.acquire(bank_id, end, read_lat);
                    end = self.channels.acquire(p.channel, again, transfer);
                    senses += 1;
                    self.obs
                        .event(end, FLASH_COMPONENT, || EventKind::RetryScheduled {
                            attempt: attempt + 1,
                        });
                }
                if retries > budget {
                    self.note_disturb(p, senses)?;
                    return Err(FlashError::ReadUnrecoverable(p));
                }
                self.stats.add("faults.recovered", 1);
            }
            self.obs
                .event(end, FLASH_COMPONENT, || EventKind::PageRead {
                    channel: p.channel as u32,
                    bank: p.bank as u32,
                });
            self.obs
                .latency("flash.read_page", end.saturating_since(ready));
            self.note_disturb(p, senses)?;
            done = done.max(end);
        }
        Ok(done)
    }

    /// Feeds `senses` array reads of page `p` into its block's read-disturb
    /// counter, queueing the block for migration when it crosses the limit.
    fn note_disturb(&mut self, p: PageAddr, senses: u64) -> Result<(), FlashError> {
        let block = p.block_addr();
        let (idx, _) = self.block_slots(block)?;
        let Some(f) = self.faults.as_mut() else {
            return Ok(());
        };
        let limit = f.plan.config().read_disturb_limit;
        if limit == 0 {
            return Ok(());
        }
        let disturb = entry_mut(&mut f.disturb, idx, p)?;
        *disturb += senses;
        if *disturb >= limit && !*entry(&f.bad, idx, p)? && !f.disturbed.contains(&block) {
            f.disturbed.push(block);
        }
        Ok(())
    }

    /// Draws the program-fault decision for a program targeting `addr`.
    ///
    /// On a fault the containing block is retired on the spot: it is marked
    /// bad, its remaining free pages leave the allocation pool, and
    /// `faults.injected` / `blocks.retired` are counted. The caller owns
    /// recovery — re-place the payload on a fresh page and relocate the
    /// block's surviving valid pages.
    ///
    /// # Errors
    ///
    /// [`FlashError::AddressOutOfRange`] if `addr` is outside the geometry;
    /// no decision is drawn then.
    pub fn next_program_fault(&mut self, addr: PageAddr) -> Result<bool, FlashError> {
        self.page_slot(addr)?;
        let fault = match self.faults.as_mut() {
            Some(f) => f.plan.next_program_fault(),
            None => false,
        };
        if !fault {
            return Ok(false);
        }
        self.stats.add("faults.injected", 1);
        self.stats.add("blocks.retired", 1);
        // Program faults are drawn before timing is scheduled, so the event
        // carries the epoch anchor rather than a completion instant.
        self.obs.event(SimTime::ZERO, FLASH_COMPONENT, || {
            EventKind::FaultInjected {
                kind: "flash.program_fail",
            }
        });
        self.retire_block(addr.block_addr())?;
        Ok(true)
    }

    /// Marks `block` bad and removes its free pages from the allocator.
    fn retire_block(&mut self, block: BlockAddr) -> Result<(), FlashError> {
        let first = block.page(0);
        let (idx, pages) = self.block_slots(block)?;
        let lane = self.bank_id(first);
        let free_lost = entry(&self.state, pages, first)?
            .iter()
            .filter(|&&s| s == PageState::Free)
            .count();
        let free = entry_mut(&mut self.free_count, lane, first)?;
        match self.faults.as_mut().and_then(|f| f.bad.get_mut(idx)) {
            Some(bad) if !*bad => {
                *bad = true;
                *free -= free_lost;
            }
            _ => {}
        }
        Ok(())
    }

    /// Drains the queue of blocks whose read-disturb counters crossed the
    /// limit. The translation layer relocates their valid pages and erases
    /// them (the erase resets the counter).
    pub fn take_disturbed_blocks(&mut self) -> Vec<BlockAddr> {
        self.faults
            .as_mut()
            .map(|f| std::mem::take(&mut f.disturbed))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_sim::SimDuration;

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::small_test())
    }

    fn page(channel: usize, bank: usize, block: usize, page: usize) -> PageAddr {
        PageAddr {
            channel,
            bank,
            block,
            page,
        }
    }

    #[test]
    fn program_read_round_trip() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        let a = page(1, 0, 2, 3);
        d.program(a, vec![0xAB; ps]).unwrap();
        assert_eq!(d.read(a).unwrap(), vec![0xAB; ps].as_slice());
        assert_eq!(d.page_state(a).unwrap(), PageState::Valid);
        assert_eq!(d.stats().get("flash.pages_programmed"), 1);
        assert_eq!(d.stats().get("flash.pages_read"), 1);
    }

    #[test]
    fn program_twice_rejected() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        let a = page(0, 0, 0, 0);
        d.program(a, vec![1; ps]).unwrap();
        assert_eq!(d.program(a, vec![2; ps]), Err(FlashError::PageNotFree(a)));
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let mut d = dev();
        let a = page(0, 0, 0, 0);
        let err = d.program(a, vec![1; 3]).unwrap_err();
        assert!(matches!(err, FlashError::BadPayloadSize { got: 3, .. }));
    }

    #[test]
    fn read_unwritten_rejected() {
        let mut d = dev();
        assert_eq!(
            d.read(page(0, 0, 0, 0)),
            Err(FlashError::PageNotValid(page(0, 0, 0, 0)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let bad = page(99, 0, 0, 0);
        assert_eq!(d.read(bad), Err(FlashError::AddressOutOfRange(bad)));
    }

    #[test]
    fn invalidate_then_erase_frees() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        let a = page(2, 1, 4, 0);
        d.program(a, vec![9; ps]).unwrap();
        d.invalidate(a).unwrap();
        assert_eq!(d.page_state(a).unwrap(), PageState::Invalid);
        d.erase_block(a.block_addr()).unwrap();
        assert_eq!(d.page_state(a).unwrap(), PageState::Free);
        assert_eq!(d.erase_count(a.block_addr()).unwrap(), 1);
        assert!(d.read(a).is_err());
    }

    #[test]
    fn relocate_moves_the_image_and_supersedes_the_source() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        let (src, dest) = (page(1, 1, 0, 0), page(1, 1, 3, 2));
        d.program(src, vec![0x5A; ps]).unwrap();
        let free = d.free_pages_in(1, 1).unwrap();
        d.relocate_page(src, dest).unwrap();
        assert_eq!(d.peek(dest).unwrap(), vec![0x5A; ps].as_slice());
        assert_eq!(d.page_state(src).unwrap(), PageState::Invalid);
        assert!(d.peek(src).is_none());
        assert_eq!(d.free_pages_in(1, 1).unwrap(), free - 1);
        assert_eq!(d.stats().get("flash.pages_programmed"), 2);
        assert_eq!(
            d.stats().get("flash.pages_read"),
            1,
            "a move reads its source"
        );
        // Neither a dead source nor an occupied destination is accepted.
        assert_eq!(
            d.relocate_page(src, page(1, 1, 3, 3)),
            Err(FlashError::PageNotValid(src))
        );
        d.program(src.block_addr().page(1), vec![1; ps]).unwrap();
        assert_eq!(
            d.relocate_page(src.block_addr().page(1), dest),
            Err(FlashError::PageNotFree(dest))
        );
    }

    #[test]
    fn free_count_tracks_program_and_erase() {
        let mut d = dev();
        let per_bank = d.geometry().pages_per_bank();
        let ps = d.geometry().page_size;
        assert_eq!(d.free_pages_in(0, 0).unwrap(), per_bank);
        d.program(page(0, 0, 0, 0), vec![1; ps]).unwrap();
        d.program(page(0, 0, 0, 1), vec![1; ps]).unwrap();
        assert_eq!(d.free_pages_in(0, 0).unwrap(), per_bank - 2);
        d.invalidate(page(0, 0, 0, 0)).unwrap();
        // Invalidation alone does not free.
        assert_eq!(d.free_pages_in(0, 0).unwrap(), per_bank - 2);
        d.erase_block(page(0, 0, 0, 0).block_addr()).unwrap();
        assert_eq!(d.free_pages_in(0, 0).unwrap(), per_bank);
    }

    #[test]
    fn find_free_page_appends_and_exhausts() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        let per_bank = d.geometry().pages_per_bank();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..per_bank {
            let a = d
                .find_free_page(3, 1)
                .unwrap()
                .expect("bank has free pages");
            assert!(seen.insert(a), "allocator returned {a} twice");
            d.program(a, vec![0; ps]).unwrap();
        }
        assert!(d.find_free_page(3, 1).unwrap().is_none());
    }

    #[test]
    fn block_occupancy_counts() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        d.program(page(0, 0, 0, 0), vec![1; ps]).unwrap();
        d.program(page(0, 0, 0, 1), vec![1; ps]).unwrap();
        d.invalidate(page(0, 0, 0, 1)).unwrap();
        let occ = d.block_occupancy(0, 0).unwrap();
        assert_eq!(occ[0], (0, 1, 1));
        assert_eq!(occ[1], (1, 0, 0));
    }

    #[test]
    fn parallel_channel_reads_overlap() {
        let mut d = dev();
        let channels = d.geometry().channels;
        let batch: Vec<_> = (0..channels).map(|c| page(c, 0, 0, 0)).collect();
        let done = d.schedule_reads(&batch, SimTime::ZERO).unwrap();
        let single = {
            let mut d2 = dev();
            d2.schedule_reads(&[page(0, 0, 0, 0)], SimTime::ZERO)
                .unwrap()
        };
        // All channels in parallel: batch takes the same time as one page.
        assert_eq!(done, single);
    }

    #[test]
    fn same_channel_reads_serialize_transfers() {
        let mut d = dev();
        // Two pages in the same channel but different banks: array reads
        // overlap, transfers serialize.
        let batch = [page(0, 0, 0, 0), page(0, 1, 0, 0)];
        let done = d.schedule_reads(&batch, SimTime::ZERO).unwrap();
        let t = *d.timing();
        let expect = SimTime::ZERO + t.read_latency + t.transfer_time(d.geometry().page_size) * 2;
        assert_eq!(done, expect);
    }

    #[test]
    fn same_bank_reads_serialize_sense() {
        let mut d = dev();
        let batch = [page(0, 0, 0, 0), page(0, 0, 0, 1)];
        let done = d.schedule_reads(&batch, SimTime::ZERO).unwrap();
        let t = *d.timing();
        // Second sense starts only after the first completes.
        let expect = SimTime::ZERO + t.read_latency * 2 + t.transfer_time(d.geometry().page_size);
        assert_eq!(done, expect);
    }

    #[test]
    fn programs_cross_channel_then_bank() {
        let mut d = dev();
        let done = d
            .schedule_programs(&[page(0, 0, 0, 0)], SimTime::ZERO)
            .unwrap();
        let t = *d.timing();
        let expect = SimTime::ZERO + t.transfer_time(d.geometry().page_size) + t.program_latency;
        assert_eq!(done, expect);
    }

    #[test]
    fn erase_holds_bank() {
        let mut d = dev();
        let done = d
            .schedule_erase(
                BlockAddr {
                    channel: 0,
                    bank: 0,
                    block: 0,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(done, SimTime::ZERO + d.timing().erase_latency);
        // A read on the same bank queues behind the erase.
        let after = d
            .schedule_reads(&[page(0, 0, 1, 0)], SimTime::ZERO)
            .unwrap();
        assert!(after > done);
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut d = dev();
        let ps = d.geometry().page_size;
        d.program(page(0, 0, 0, 0), vec![5; ps]).unwrap();
        d.schedule_reads(&[page(0, 0, 0, 0)], SimTime::ZERO)
            .unwrap();
        d.reset_timing();
        assert_eq!(d.drained_at(), SimTime::ZERO);
        assert_eq!(d.read(page(0, 0, 0, 0)).unwrap()[0], 5);
    }

    #[test]
    fn observability_hooks_are_schedule_neutral() {
        let pages: Vec<_> = (0..16).map(|i| page(i % 4, i % 2, 0, i % 8)).collect();
        let mut plain = dev();
        let mut observed = dev();
        observed.configure_observability(&ObsConfig::full());
        let a = plain.schedule_reads(&pages, SimTime::ZERO).unwrap();
        let b = observed.schedule_reads(&pages, SimTime::ZERO).unwrap();
        assert_eq!(a, b, "read schedule must not move under observability");
        let a = plain.schedule_programs(&pages, SimTime::ZERO).unwrap();
        let b = observed.schedule_programs(&pages, SimTime::ZERO).unwrap();
        assert_eq!(a, b, "program schedule must not move under observability");
        assert_eq!(plain.drained_at(), observed.drained_at());
    }

    #[test]
    fn journal_and_histograms_capture_flash_operations() {
        let mut d = dev();
        d.configure_observability(&ObsConfig::full());
        d.schedule_reads(&[page(0, 0, 0, 0), page(1, 0, 0, 0)], SimTime::ZERO)
            .unwrap();
        d.schedule_programs(&[page(0, 0, 0, 1)], SimTime::ZERO)
            .unwrap();
        d.schedule_erase(
            BlockAddr {
                channel: 0,
                bank: 0,
                block: 1,
            },
            SimTime::ZERO,
        )
        .unwrap();
        let summary = d.observability().journal().summary();
        assert_eq!(summary.by_kind.get("PageRead"), Some(&2));
        assert_eq!(summary.by_kind.get("PageProgrammed"), Some(&1));
        assert_eq!(summary.by_kind.get("BlockErased"), Some(&1));
        let reads = d
            .observability()
            .histograms()
            .get("flash.read_page")
            .expect("flash.read_page histogram");
        assert_eq!(reads.count(), 2);
        assert!(d.timelines().next().is_some());
    }

    #[test]
    fn faulted_reads_journal_injection_and_retries() {
        let mut plain = dev();
        let mut observed = dev();
        let cfg = FaultConfig {
            seed: 17,
            media_read_rate: 1.0,
            ..FaultConfig::disabled()
        };
        plain.install_faults(cfg);
        observed.install_faults(cfg);
        observed.configure_observability(&ObsConfig::full());
        let batch = [page(0, 0, 0, 0), page(1, 1, 1, 0)];
        let a = plain.fault_read_batch(&batch, SimTime::ZERO);
        let b = observed.fault_read_batch(&batch, SimTime::ZERO);
        assert_eq!(
            a, b,
            "fault path schedule must not move under observability"
        );
        let summary = observed.observability().journal().summary();
        assert_eq!(summary.by_kind.get("FaultInjected"), Some(&2));
        assert_eq!(
            summary.by_kind.get("RetryScheduled").copied().unwrap_or(0),
            observed.stats().get("retries.flash")
        );
    }

    #[test]
    fn drained_at_reflects_latest_work() {
        let mut d = dev();
        let done = d
            .schedule_reads(&[page(1, 1, 0, 0)], SimTime::ZERO)
            .unwrap();
        assert_eq!(d.drained_at(), done);
        assert!(d.drained_at() > SimTime::ZERO + SimDuration::ZERO);
    }
}

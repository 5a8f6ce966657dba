//! The baseline flash translation layer (FTL).
//!
//! This is the conventional indirection layer the paper's baseline SSD uses
//! (§2.1): it exports a linear logical-block-address (LBA) space, stripes
//! consecutive logical pages across channels "because most file systems and
//! applications assume that underlying storage devices are more efficient
//! when the devices perform accesses sequentially", performs out-of-place
//! updates, and garbage-collects invalidated pages. Its logical→physical
//! shuffling is exactly the opacity challenge \[C1\] that NDS's STL replaces.

use nds_faults::FaultConfig;
use nds_sim::{SimTime, Stats};
use serde::{Deserialize, Serialize};

use crate::device::FlashDevice;
use crate::error::FlashError;
use crate::geometry::PageAddr;
use crate::mapper::{DenseIndex, MapperLabels, PageMapper};

/// Construction options of the baseline FTL: none. Over-provisioning is
/// fixed at the paper's 10 % (§6.1).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlConfig;

/// One raw page in this many is reserved as over-provisioning (the paper's
/// prototype reserves 10 %, §6.1).
const OVER_PROVISIONING_DIVISOR: u64 = 10;

/// The LBA capacity exported over `total` raw pages:
/// `⌊total × (1 − 1/10)⌋`, in integers.
fn exported_pages(total: u64) -> u64 {
    total - total.div_ceil(OVER_PROVISIONING_DIVISOR)
}

/// The baseline FTL: linear LBAs striped across channels, with GC.
///
/// It is the shared [`PageMapper`] keyed by LBA, plus what only the
/// baseline has: LBA striping, range checks and the timed LBA
/// read/write/trim API. Garbage collection, block evacuation and
/// read-disturb service are the mapper's, charged to the modeled timeline.
///
/// # Example
///
/// ```
/// use nds_flash::{FlashConfig, FlashDevice, Ftl, FtlConfig};
/// use nds_sim::SimTime;
///
/// # fn main() -> Result<(), nds_flash::FlashError> {
/// let dev = FlashDevice::new(FlashConfig::small_test());
/// let mut ftl = Ftl::new(dev, FtlConfig);
/// let page = vec![42u8; ftl.page_size()];
/// ftl.write(0, page.clone(), SimTime::ZERO)?;
/// let (data, _done) = ftl.read(0, SimTime::ZERO)?;
/// assert_eq!(data, page);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    mapper: PageMapper<u64, DenseIndex>,
    capacity: u64,
}

impl Ftl {
    /// Wraps `device` with a baseline FTL.
    pub fn new(device: FlashDevice, _config: FtlConfig) -> Self {
        let capacity = exported_pages(device.geometry().total_pages() as u64);
        Ftl {
            mapper: PageMapper::new(
                device,
                DenseIndex::new(capacity as usize),
                MapperLabels::FTL,
            ),
            capacity,
        }
    }

    /// Number of logical pages this FTL exports.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// The underlying page size in bytes.
    pub fn page_size(&self) -> usize {
        self.device().geometry().page_size
    }

    /// Shared view of the wrapped device.
    pub fn device(&self) -> &FlashDevice {
        self.mapper.device()
    }

    /// Mutable view of the wrapped device (e.g. to reset timing between
    /// benchmark measurements).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        self.mapper.device_mut()
    }

    /// FTL-level counters (`ftl.gc_runs`, `ftl.gc_relocated`, and under a
    /// fault plan `retries.flash`, `faults.recovered`, `faults.migrated`,
    /// `faults.disturb_migrations`).
    pub fn stats(&self) -> &Stats {
        self.mapper.stats()
    }

    /// Installs a deterministic media-fault plan on the wrapped device.
    /// Subsequent [`write`](Self::write) / [`read`](Self::read) /
    /// [`read_run`](Self::read_run) calls inject and recover from faults.
    pub fn install_faults(&mut self, config: FaultConfig) {
        self.device_mut().install_faults(config);
    }

    /// The physical location currently backing `lba`, if written.
    pub fn physical_of(&self, lba: u64) -> Option<PageAddr> {
        self.mapper.page_of(lba)
    }

    /// Reads the bytes of `lba` without touching timing or counters (the
    /// functional peek used when a system accounts device time separately).
    pub fn peek(&self, lba: u64) -> Option<&[u8]> {
        self.physical_of(lba)
            .and_then(|addr| self.device().peek(addr))
    }

    /// The `(channel, bank)` lane that LBA striping assigns to `lba`.
    ///
    /// Consecutive LBAs land on consecutive channels; after one full stripe
    /// of channels, the bank advances. This is the conventional layout that
    /// makes *sequential* LBA reads parallel — and submatrix reads not
    /// (Fig. 1).
    pub fn stripe_lane(&self, lba: u64) -> (usize, usize) {
        let g = self.device().geometry();
        let channel = (lba as usize) % g.channels;
        let bank = (lba as usize / g.channels) % g.banks_per_channel;
        (channel, bank)
    }

    fn check_lba(&self, lba: u64) -> Result<(), FlashError> {
        if lba >= self.capacity {
            return Err(FlashError::LbaOutOfRange {
                lba,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// The page backing `lba`, for a read.
    fn written(&self, lba: u64) -> Result<PageAddr, FlashError> {
        self.check_lba(lba)?;
        self.physical_of(lba).ok_or(FlashError::LbaNotWritten(lba))
    }

    /// Writes one logical page, relocating out-of-place if `lba` was already
    /// written. Returns the completion instant of the program (and of any
    /// garbage collection it triggered).
    ///
    /// # Errors
    ///
    /// * [`FlashError::LbaOutOfRange`] if `lba` exceeds exported capacity.
    /// * [`FlashError::BadPayloadSize`] if `payload` is not one page.
    /// * [`FlashError::DeviceFull`] if no free page exists after GC.
    pub fn write(
        &mut self,
        lba: u64,
        payload: Vec<u8>,
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.check_lba(lba)?;
        if payload.len() != self.page_size() {
            return Err(FlashError::BadPayloadSize {
                got: payload.len(),
                expected: self.page_size(),
            });
        }
        let (channel, bank) = self.stripe_lane(lba);
        // Supersede the old copy first so GC can reclaim it.
        self.mapper.supersede(lba)?;
        let mut now = self.mapper.collect_lane(channel, bank, Some(ready))?;
        let mut target = self
            .device_mut()
            .find_free_page(channel, bank)?
            .ok_or(FlashError::DeviceFull)?;
        if self.device_mut().next_program_fault(target)? {
            // The program status came back failed: the attempt already spent
            // bus + program time, the device retired the block, and its
            // surviving live pages move out before the retry elsewhere.
            now = self.device_mut().schedule_programs(&[target], now)?;
            self.mapper.stats_mut().add("retries.flash", 1);
            now = self.mapper.evacuate(target.block_addr(), now)?;
            now = self.mapper.collect_lane(channel, bank, Some(now))?;
            target = self
                .mapper
                .recovery_page(target)?
                .ok_or(FlashError::DeviceFull)?;
            self.mapper.stats_mut().add("faults.recovered", 1);
        }
        self.mapper.program(lba, target, payload)?;
        self.device_mut().schedule_programs(&[target], now)
    }

    /// Reads one logical page, returning its data and the completion instant.
    ///
    /// # Errors
    ///
    /// * [`FlashError::LbaOutOfRange`] if `lba` exceeds exported capacity.
    /// * [`FlashError::LbaNotWritten`] if `lba` was never written.
    pub fn read(&mut self, lba: u64, ready: SimTime) -> Result<(Vec<u8>, SimTime), FlashError> {
        self.read_run(lba, 1, ready)
    }

    /// Reads a run of logical pages as one device batch, returning the
    /// concatenated data and the batch completion instant. This is how the
    /// baseline serves a multi-page I/O request: the pages are scheduled
    /// together so channel parallelism (or the lack of it) shows up in the
    /// completion time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`read`](Self::read), for any page in the run.
    pub fn read_run(
        &mut self,
        lba: u64,
        count: u64,
        ready: SimTime,
    ) -> Result<(Vec<u8>, SimTime), FlashError> {
        let addrs = (lba..lba + count)
            .map(|l| self.written(l))
            .collect::<Result<Vec<_>, _>>()?;
        let done = self.device_mut().fault_read_batch(&addrs, ready)?;
        // Capture the bytes before preventive migration can move the pages.
        let mut data = Vec::with_capacity(count as usize * self.page_size());
        for addr in addrs {
            data.extend_from_slice(self.device_mut().read(addr)?);
        }
        let done = self.service_disturbed(done)?;
        Ok((data, done))
    }

    /// Discards a logical page (TRIM/deallocate): its backing flash page
    /// becomes garbage for the next collection and subsequent reads fail
    /// with [`FlashError::LbaNotWritten`].
    ///
    /// # Errors
    ///
    /// [`FlashError::LbaOutOfRange`] if `lba` exceeds exported capacity.
    pub fn trim(&mut self, lba: u64) -> Result<(), FlashError> {
        self.check_lba(lba)?;
        if self.mapper.supersede(lba)? {
            self.mapper.stats_mut().add("ftl.trimmed", 1);
        }
        Ok(())
    }

    /// Relocates and erases every block whose read-disturb counter crossed
    /// the configured limit — the preventive-migration half of the fault
    /// model. Called automatically by the fault-aware read paths; a no-op
    /// when no plan is installed or nothing is pending. Returns the instant
    /// the migrations complete.
    ///
    /// # Errors
    ///
    /// [`FlashError::DeviceFull`] if a victim's live pages cannot be
    /// re-placed anywhere.
    pub fn service_disturbed(&mut self, now: SimTime) -> Result<SimTime, FlashError> {
        self.mapper.service_disturbed(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashConfig;

    fn ftl() -> Ftl {
        Ftl::new(FlashDevice::new(FlashConfig::small_test()), FtlConfig)
    }

    fn pagev(ftl: &Ftl, fill: u8) -> Vec<u8> {
        vec![fill; ftl.page_size()]
    }

    #[test]
    fn capacity_excludes_over_provisioning() {
        let f = ftl();
        let raw = f.device().geometry().total_pages() as u64;
        assert_eq!(f.capacity_pages(), exported_pages(raw));
    }

    #[test]
    fn integer_capacity_equals_the_float_expression_it_replaced() {
        let float = |total: u64| (total as f64 * (1.0 - 0.10)).floor() as u64;
        for total in 1..=200_000 {
            assert_eq!(exported_pages(total), float(total), "total = {total}");
        }
        for preset in [
            FlashConfig::datacenter_32ch(),
            FlashConfig::consumer_8ch(),
            FlashConfig::small_test(),
        ] {
            let total = preset.geometry.total_pages() as u64;
            assert_eq!(exported_pages(total), float(total), "total = {total}");
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = ftl();
        let p = pagev(&f, 0x5A);
        f.write(7, p.clone(), SimTime::ZERO).unwrap();
        let (data, done) = f.read(7, SimTime::ZERO).unwrap();
        assert_eq!(data, p);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn sequential_lbas_stripe_across_channels() {
        let f = ftl();
        let channels = f.device().geometry().channels;
        let lanes: Vec<_> = (0..channels as u64).map(|l| f.stripe_lane(l).0).collect();
        let distinct: std::collections::HashSet<_> = lanes.iter().collect();
        assert_eq!(distinct.len(), channels, "one channel per consecutive LBA");
    }

    #[test]
    fn strided_lbas_hit_one_channel() {
        let f = ftl();
        let channels = f.device().geometry().channels as u64;
        // A column access touches every `channels`-th LBA: all in one channel.
        let lanes: Vec<_> = (0..4).map(|i| f.stripe_lane(i * channels).0).collect();
        assert!(lanes.iter().all(|&c| c == lanes[0]));
    }

    #[test]
    fn overwrite_goes_out_of_place() {
        let mut f = ftl();
        f.write(3, pagev(&f, 1), SimTime::ZERO).unwrap();
        let first = f.physical_of(3).unwrap();
        f.write(3, pagev(&f, 2), SimTime::ZERO).unwrap();
        let second = f.physical_of(3).unwrap();
        assert_ne!(first, second, "NAND overwrite must relocate");
        let (data, _) = f.read(3, SimTime::ZERO).unwrap();
        assert_eq!(data[0], 2);
    }

    #[test]
    fn read_unwritten_lba_rejected() {
        let mut f = ftl();
        assert_eq!(
            f.read(11, SimTime::ZERO),
            Err(FlashError::LbaNotWritten(11))
        );
    }

    #[test]
    fn lba_out_of_range_rejected() {
        let mut f = ftl();
        let cap = f.capacity_pages();
        let err = f.write(cap, pagev(&f, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::LbaOutOfRange { .. }));
    }

    #[test]
    fn read_run_concatenates_in_lba_order() {
        let mut f = ftl();
        for l in 0..4 {
            f.write(l, pagev(&f, l as u8), SimTime::ZERO).unwrap();
        }
        let (data, _) = f.read_run(0, 4, SimTime::ZERO).unwrap();
        let ps = f.page_size();
        for l in 0..4 {
            assert!(data[l * ps..(l + 1) * ps].iter().all(|&b| b == l as u8));
        }
    }

    #[test]
    fn read_run_uses_channel_parallelism() {
        let mut f = ftl();
        let channels = f.device().geometry().channels as u64;
        for l in 0..channels * channels {
            f.write(l, pagev(&f, 0), SimTime::ZERO).unwrap();
        }
        f.device_mut().reset_timing();
        // A full stripe reads in parallel...
        let (_, t_stripe) = f.read_run(0, channels, SimTime::ZERO).unwrap();
        f.device_mut().reset_timing();
        // ...while the same count in one channel serializes.
        let mut one_channel_time = SimTime::ZERO;
        for i in 0..channels {
            let (_, t) = f.read(i * channels, SimTime::ZERO).unwrap();
            one_channel_time = one_channel_time.max(t);
        }
        assert!(
            one_channel_time > t_stripe,
            "single-channel {one_channel_time} should exceed striped {t_stripe}"
        );
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_correct() {
        let mut f = ftl();
        let per_bank = f.device().geometry().pages_per_bank() as u64;
        // Hammer one stripe lane with overwrites: lane (0,0) is LBA 0 with
        // stride channels*banks.
        let g = *f.device().geometry();
        let stride = (g.channels * g.banks_per_channel) as u64;
        let lanes: Vec<u64> = (0..4).map(|i| i * stride).collect();
        for round in 0..per_bank {
            for &lba in &lanes {
                f.write(lba, pagev(&f, (round % 251) as u8), SimTime::ZERO)
                    .unwrap();
            }
        }
        assert!(f.stats().get("ftl.gc_runs") > 0, "GC should have run");
        for &lba in &lanes {
            let (data, _) = f.read(lba, SimTime::ZERO).unwrap();
            assert_eq!(data[0], ((per_bank - 1) % 251) as u8);
        }
    }

    #[test]
    fn gc_journals_victims_when_enabled() {
        let mut f = ftl();
        f.device_mut()
            .observability_mut()
            .journal_mut()
            .set_enabled(true);
        // The journal retains only trace-tagged events.
        f.device_mut().begin_trace(nds_sim::TraceContext {
            id: 1,
            origin: nds_sim::SimDuration::ZERO,
        });
        let per_bank = f.device().geometry().pages_per_bank() as u64;
        for round in 0..per_bank * 2 {
            f.write(0, pagev(&f, (round % 251) as u8), SimTime::ZERO)
                .unwrap();
        }
        let journal = f.device().observability().journal();
        let victim = journal
            .events()
            .find(|e| matches!(e.kind, nds_sim::EventKind::GcVictimPicked { .. }))
            .expect("enabled journal must capture GC");
        assert_eq!(victim.component.group, "ftl");
    }

    #[test]
    fn evacuation_collects_the_home_lane_before_going_cross_lane() {
        let mut f = ftl();
        f.install_faults(FaultConfig {
            read_disturb_limit: 4,
            ..FaultConfig::disabled()
        });
        let g = *f.device().geometry();
        let stride = (g.channels * g.banks_per_channel) as u64;
        // Fill stripe lane (0, 0) with every LBA it exports: its last block
        // ends up holding the lane's only free pages, next to two live ones.
        let lane: Vec<u64> = (0..f.capacity_pages()).step_by(stride as usize).collect();
        for &lba in &lane {
            f.write(lba, pagev(&f, lba as u8), SimTime::ZERO).unwrap();
        }
        let tail = *lane.last().unwrap();
        let disturbed = f.physical_of(tail).unwrap().block_addr();
        assert_eq!(
            f.device().free_pages_in(0, 0).unwrap(),
            g.pages_per_block - 2,
            "the free pages all sit in the block about to be disturbed"
        );
        // TRIM (which never collects) leaves the first block reclaimable.
        let (first_block, _) = lane.split_at(g.pages_per_block);
        for &lba in first_block {
            f.trim(lba).unwrap();
        }
        // Hammer one page of the last block past the read-disturb limit.
        for _ in 0..4 {
            f.read(tail, SimTime::ZERO).unwrap();
        }
        assert_eq!(f.stats().get("faults.disturb_migrations"), 1);
        assert_eq!(f.stats().get("faults.migrated"), 2);
        assert_eq!(
            f.stats().get("ftl.gc_runs"),
            1,
            "the home lane is collected"
        );
        for &lba in &lane[lane.len() - 2..] {
            let page = f.physical_of(lba).unwrap();
            assert_ne!(page.block_addr(), disturbed);
            assert_eq!(
                (page.channel, page.bank),
                f.stripe_lane(lba),
                "survivor {lba} left its stripe lane"
            );
            assert_eq!(f.read(lba, SimTime::ZERO).unwrap().0, pagev(&f, lba as u8));
        }
    }

    #[test]
    fn gc_preserves_unrelated_data() {
        let mut f = ftl();
        let g = *f.device().geometry();
        let stride = (g.channels * g.banks_per_channel) as u64;
        // A stable page in the same lane as the hammered one.
        f.write(stride, pagev(&f, 0xEE), SimTime::ZERO).unwrap();
        let per_bank = f.device().geometry().pages_per_bank() as u64;
        for round in 0..per_bank * 2 {
            f.write(0, pagev(&f, (round % 251) as u8), SimTime::ZERO)
                .unwrap();
        }
        let (data, _) = f.read(stride, SimTime::ZERO).unwrap();
        assert_eq!(data[0], 0xEE, "GC must relocate, not lose, live data");
    }
}

//! The command lifecycle and the store seam of the flash-backed systems.
//!
//! The paper's architectures (Fig. 7a–c) and its oracle (§7.2) differ only
//! in *where translation runs and what crosses the link*: all four are one
//! [`FlashSystem`](crate::FlashSystem) at four placements. Everything
//! around a placement's data path — fault and observability wiring, the
//! causal trace scope on system + link + device, the exact stage
//! partition, the per-op counters / `host.*` series / request span /
//! latency histograms, the timing-epoch folds — is identical by
//! construction and lives here, once: the steps, and the one driver that
//! takes them around every operation in DESIGN.md "Command lifecycle"
//! order, one order for every placement. A data path is one step inside
//! one trace scope: it resolves the request, moves the data, charges the
//! clocks and returns its outcome and [`Stages`]. [`Store`] is the seam to
//! what translation runs over: the baseline's FTL behind a linear LBA space
//! ([`Lbas`]; the oracle's `Tiles` wraps it), or the NDS placements' STL.

use nds_core::{ElementType, Shape, SpaceId, Stl};
use nds_flash::{FlashDevice, Ftl, FtlConfig, PageAddr};
use nds_interconnect::Link;
use nds_sim::{
    record_command_partition, CommandTracer, ComponentId, Observability, SimDuration, SimTime,
    Stats, TraceContext, TraceStage,
};

use crate::baseline::Extent;
use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::flash_system::{Dataset, FlashSystem, Placement};
use crate::frontend::{DatasetId, ReadMetrics, WriteOutcome};

/// Journal identity of a front-end's request-level span events.
const SYSTEM_COMPONENT: ComponentId = ComponentId::singleton("system");

/// An operation's exact stage partition in chronological order: up to five
/// `(stage, span)` parts, padded with zero spans, which are not recorded.
/// Building one allocates nothing.
pub(crate) type Stages = [(TraceStage, SimDuration); 5];

/// The [`Stages`] of `parts`, in order.
pub(crate) fn partition<const N: usize>(parts: [(TraceStage, SimDuration); N]) -> Stages {
    const { assert!(N <= 5, "a partition has at most five stages") };
    let mut stages = [(TraceStage::Other, SimDuration::ZERO); 5];
    for (slot, part) in stages.iter_mut().zip(parts) {
        *slot = part;
    }
    stages
}

/// What a flash-backed system translates onto: the flash device, the
/// dataset records it keeps, and their creation, deletion and counters.
/// Reachable only inside this crate; its stores are [`Lbas`], the oracle's
/// `Tiles` over it, and the STL.
pub trait Store: std::fmt::Debug {
    /// What the dataset table keeps per dataset.
    type Dataset: Clone + std::fmt::Debug;

    /// The store over a fresh device built from `config`.
    fn new(config: &SystemConfig) -> Self;

    /// The flash device under the store.
    fn device(&self) -> &FlashDevice;

    /// Mutable access to the flash device under the store.
    fn device_mut(&mut self) -> &mut FlashDevice;

    /// How many pages a new dataset may span.
    fn room(&self) -> u64;

    /// Creates the record of a dataset that spans `pages` pages.
    fn create(
        &mut self,
        shape: Shape,
        element: ElementType,
        pages: u64,
    ) -> Result<Self::Dataset, SystemError>;

    /// Deletes a dataset, releasing what it stored.
    fn delete(&mut self, dataset: Self::Dataset) -> Result<(), SystemError>;

    /// Merges the store's own counters into `stats`.
    fn merge_stats(&self, stats: &mut Stats);
}

/// The store of the placements over a linear LBA space: the FTL, a bump
/// allocator over the LBA space it exports, and the command machinery's
/// request-scoped lists (`baseline.rs`), kept between requests so
/// marshalling one does not allocate in steady state.
#[derive(Debug)]
pub struct Lbas {
    pub(crate) ftl: Ftl,
    next_lba: u64,
    /// The request's byte extents in the dataset's run.
    pub(crate) extents: Vec<Extent>,
    /// `(first_page, page_count, wire_bytes)` per I/O command.
    pub(crate) commands: Vec<(u64, u64, u64)>,
    /// Physical pages of the command being scheduled.
    pub(crate) addrs: Vec<PageAddr>,
}

/// A baseline dataset: its run of LBAs, holding the row-major
/// serialization of `volume` elements.
#[derive(Debug, Clone, Copy)]
pub struct LbaRun {
    pub(crate) base_lba: u64,
    pages: u64,
    pub(crate) volume: u64,
    pub(crate) element: ElementType,
}

impl Store for Lbas {
    type Dataset = LbaRun;

    fn new(config: &SystemConfig) -> Self {
        let device = FlashDevice::new(config.flash.clone());
        Lbas {
            ftl: Ftl::new(device, FtlConfig),
            next_lba: 0,
            extents: Vec::new(),
            commands: Vec::new(),
            addrs: Vec::new(),
        }
    }

    fn device(&self) -> &FlashDevice {
        self.ftl.device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.ftl.device_mut()
    }

    /// The LBAs not yet handed out.
    fn room(&self) -> u64 {
        self.ftl.capacity_pages() - self.next_lba
    }

    fn create(
        &mut self,
        shape: Shape,
        element: ElementType,
        pages: u64,
    ) -> Result<LbaRun, SystemError> {
        let run = LbaRun {
            base_lba: self.next_lba,
            pages,
            volume: shape.volume(),
            element,
        };
        self.next_lba += pages;
        Ok(run)
    }

    /// TRIMs every page of the run; the LBA range itself is not reused (a
    /// bump allocator, like a freshly formatted namespace region).
    fn delete(&mut self, run: LbaRun) -> Result<(), SystemError> {
        for lba in run.base_lba..run.base_lba + run.pages {
            self.ftl.trim(lba)?;
        }
        Ok(())
    }

    fn merge_stats(&self, stats: &mut Stats) {
        stats.merge(self.ftl.stats());
    }
}

impl Store for Stl<FlashBackend> {
    type Dataset = SpaceId;

    fn new(config: &SystemConfig) -> Self {
        Stl::new(FlashBackend::new(config.flash.clone()), config.stl)
    }

    fn device(&self) -> &FlashDevice {
        self.backend().device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.backend_mut().device_mut()
    }

    /// The whole device: a space takes units only as it is written, but
    /// its locator tables follow its extents, so one the device could
    /// never hold is refused before they are sized.
    fn room(&self) -> u64 {
        self.device().geometry().total_pages() as u64
    }

    fn create(
        &mut self,
        shape: Shape,
        element: ElementType,
        _pages: u64,
    ) -> Result<SpaceId, SystemError> {
        Ok(self.create_space(shape, element)?)
    }

    fn delete(&mut self, space: SpaceId) -> Result<(), SystemError> {
        Ok(self.delete_space(space)?)
    }

    fn merge_stats(&self, stats: &mut Stats) {
        stats.merge(self.backend().stats());
        stats.add("stl.plan_cache.hits", self.plan_cache().hits());
        stats.add("stl.plan_cache.misses", self.plan_cache().misses());
    }
}

/// A completed operation's outcome, as the lifecycle records it.
pub(crate) trait Recorded {
    /// The operation's name on its trace partition and request span.
    const OP: &'static str;

    /// Records the operation — system counters, `host.*` series, the
    /// request span and the latency histograms — and returns its
    /// end-to-end modeled span.
    fn record(&self, life: &mut Lifecycle) -> SimDuration;
}

impl Recorded for WriteOutcome {
    const OP: &'static str = "write";

    fn record(&self, life: &mut Lifecycle) -> SimDuration {
        life.stats.add("system.write_commands", self.commands);
        life.stats.add("system.write_bytes", self.bytes);
        life.record_request(Self::OP, self.bytes, self.latency);
        life.obs.latency("write.latency", self.latency);
        self.latency
    }
}

impl Recorded for ReadMetrics {
    const OP: &'static str = "read";

    fn record(&self, life: &mut Lifecycle) -> SimDuration {
        life.stats.add("system.read_commands", self.commands);
        life.stats.add("system.read_bytes", self.bytes);
        life.record_request(Self::OP, self.bytes, self.latency());
        life.obs.latency("read.io_latency", self.io_latency);
        life.obs.latency("read.latency", self.latency());
        self.latency()
    }
}

/// The link, system-level observability, command tracer and front-end
/// counters of one flash-backed system.
#[derive(Debug)]
pub(crate) struct Lifecycle {
    pub(crate) link: Link,
    pub(crate) obs: Observability,
    pub(crate) stats: Stats,
    pub(crate) tracer: Option<CommandTracer>,
}

impl Lifecycle {
    /// Builds the link and system observability from `config`, installing
    /// its fault plan and observability settings into `device` and the
    /// link.
    pub(crate) fn new(config: &SystemConfig, device: &mut FlashDevice) -> Self {
        let mut link = Link::new(config.link);
        if let Some(faults) = config.faults {
            device.install_faults(faults);
            link.install_faults(faults);
        }
        device.configure_observability(&config.obs);
        link.configure_observability(&config.obs);
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        Lifecycle {
            link,
            obs,
            stats: Stats::new(),
            tracer: config.obs.tracing().then(CommandTracer::new),
        }
    }

    fn record_request(&mut self, op: &'static str, bytes: u64, latency: SimDuration) {
        self.obs.metric_add(SimTime::ZERO, "host.ops", 1);
        self.obs.metric_add(SimTime::ZERO, "host.bytes", bytes);
        self.obs
            .journal_mut()
            .span(SimTime::ZERO, SYSTEM_COMPONENT, op, latency);
    }
}

/// The lifecycle's steps, and the one place that takes them.
impl<P: Placement> FlashSystem<P> {
    /// One operation on dataset `id`: its data path `op` (see `Placed`)
    /// with every lifecycle step around it, in DESIGN.md "Command
    /// lifecycle" order — one traced command, refused or not. A typed
    /// failure (a malformed request, a budget exhausted, a command
    /// rejected) ends its command by the modeled time it had consumed on
    /// the device and the link: the scope closes over that span (an
    /// all-`Other` partition, so the next command starts later) and the
    /// timing epoch ends by it.
    pub(crate) fn run<T: Recorded>(
        &mut self,
        id: DatasetId,
        op: impl FnOnce(&mut Self, Dataset<P>) -> Result<(T, Stages), SystemError>,
    ) -> Result<T, SystemError> {
        let dataset = self.dataset(id)?;
        self.start_epoch();
        let scope = self.open_scope();
        let outcome = op(self, dataset);
        let (span, stages) = match &outcome {
            Ok((outcome, stages)) => (outcome.record(&mut self.life), *stages),
            Err(_) => {
                let device = self.store.device().drained_at();
                let drained = device.max(self.life.link.drained_at());
                (drained.saturating_since(SimTime::ZERO), partition([]))
            }
        };
        if scope.is_some() {
            self.close_scope(T::OP, span, &stages);
        }
        self.end_epoch(span);
        outcome.map(|(outcome, _)| outcome)
    }

    /// Starts an operation's timing epoch: device and link clocks to zero.
    fn start_epoch(&mut self) {
        self.store.device_mut().reset_timing();
        self.life.link.reset_timing();
    }

    /// Starts a traced command: allocates its trace context and tags the
    /// system, link, and device journals with it. Returns `None` (and does
    /// nothing) unless tracing is configured.
    fn open_scope(&mut self) -> Option<TraceContext> {
        let life = &mut self.life;
        let ctx = life.tracer.as_mut().map(|t| t.begin())?;
        life.obs.set_trace(ctx);
        self.store.device_mut().begin_trace(ctx);
        life.link.begin_trace(ctx);
        Some(ctx)
    }

    /// Finishes a traced command: records its exact stage partition,
    /// clears the trace tags, and advances the trace clock by `latency`.
    fn close_scope(
        &mut self,
        op: &'static str,
        latency: SimDuration,
        stages: &[(TraceStage, SimDuration)],
    ) {
        let life = &mut self.life;
        let journal = life.obs.journal_mut();
        record_command_partition(journal, SYSTEM_COMPONENT, op, latency, stages);
        life.obs.clear_trace();
        self.store.device_mut().end_trace();
        life.link.end_trace();
        if let Some(t) = life.tracer.as_mut() {
            t.finish(latency);
        }
    }

    /// Ends the timing epoch by the operation's full span so per-lane
    /// timelines stay on the run-long clock (the link or a channel may
    /// have drained long before the operation's tail finished).
    fn end_epoch(&mut self, span: SimDuration) {
        self.store.device_mut().fold_timing_epoch(span);
        self.life.link.fold_timing_epoch(span);
        self.life.obs.fold_metrics_epoch(span);
    }
}

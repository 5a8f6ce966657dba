//! The flash-backed system: one front-end, four placements of translation
//! (Fig. 7a–c and §7.2's oracle).
//!
//! The baseline, software NDS, hardware NDS and the oracle run over the
//! same flash device behind the same link and differ in *where*
//! translation runs and what crosses the link. [`Conventional`] keeps the
//! device's FTL behind a linear LBA space (Fig. 7a); [`Host`] runs the STL
//! on the host CPU over a LightNVM-style physical interface (Fig. 7b);
//! [`Controller`] runs it inside the SSD controller behind one extended
//! NVMe command per request (Fig. 7c); [`Pretiled`] keeps the FTL but
//! stores each dataset tile-major, as §7.2's oracle chose offline.
//! [`FlashSystem`] owns what the four share — the store, the
//! command lifecycle, the host CPU model, the dataset table and the one
//! [`StorageFrontEnd`] implementation, which drives every lifecycle step in
//! one order on every placement, so each request on a known dataset is one
//! traced command — and a placement keeps the rest: its name, whether it
//! speaks extended NVMe commands, and its read and write data paths, each
//! one step that moves the data and charges its cost.
//!
//! [`Conventional`]: crate::Conventional
//! [`Host`]: crate::Host
//! [`Controller`]: crate::Controller
//! [`Pretiled`]: crate::Pretiled

use std::collections::BTreeMap;

use nds_core::{ElementType, NdsError, Shape, SpaceId, Stl};
use nds_host::CpuModel;
use nds_sim::{CommandTracer, Event, RunReport, Stats, TraceExport};

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};
use crate::lifecycle::{Lifecycle, Stages, Store};

/// Where a [`FlashSystem`]'s translation runs. Sealed: the placements are
/// [`Conventional`](crate::Conventional), [`Host`](crate::Host),
/// [`Controller`](crate::Controller) and [`Pretiled`](crate::Pretiled).
pub trait Placement: sealed::Placed {}

impl<T: sealed::Placed> Placement for T {}

/// The dataset record the table of a system at placement `P` keeps.
pub(crate) type Dataset<P> = <<P as sealed::Placed>::Store as Store>::Dataset;

pub(crate) mod sealed {
    use super::*;

    /// What a placement adds to the [`FlashSystem`] around it: its name,
    /// whether it speaks extended NVMe commands, and its two data paths.
    /// A data path is one step: it resolves the request against its
    /// dataset, moves the data, charges the device, the link and the CPU,
    /// and returns the outcome with its exact stage partition. It takes no
    /// lifecycle step; the front-end takes them all around it, in one
    /// order on every placement.
    pub trait Placed: Sized + std::fmt::Debug {
        /// The front-end's [`name`](StorageFrontEnd::name).
        const NAME: &'static str;
        /// Whether requests and deletes cross the link as extended NVMe
        /// commands (§5.3.1). The front-end reads it only to count each
        /// delete as `system.delete_commands`.
        const EXTENDED_COMMANDS: bool;

        /// What translation runs over.
        type Store: Store;

        /// The placement's state, built from `config`.
        fn new(config: &SystemConfig) -> Self;

        /// The data path of [`StorageFrontEnd::write`].
        fn write(
            sys: &mut FlashSystem<Self>,
            dataset: Dataset<Self>,
            req: Request<'_, &[u8]>,
        ) -> Result<(WriteOutcome, Stages), SystemError>;

        /// The data path of [`StorageFrontEnd::read_into`].
        fn read(
            sys: &mut FlashSystem<Self>,
            dataset: Dataset<Self>,
            req: Request<'_, &mut Vec<u8>>,
        ) -> Result<(ReadMetrics, Stages), SystemError>;
    }

    /// One request as the data paths see it: the partition
    /// `(view, coord, sub_dims)` and its payload — the bytes to write, or
    /// the buffer a read fills.
    pub struct Request<'a, B> {
        pub(crate) view: &'a Shape,
        pub(crate) coord: &'a [u64],
        pub(crate) sub_dims: &'a [u64],
        pub(crate) payload: B,
    }
}

use sealed::Request;

/// A flash-backed system with its translation at placement `P`:
/// [`BaselineSystem`](crate::BaselineSystem),
/// [`SoftwareNds`](crate::SoftwareNds), [`HardwareNds`](crate::HardwareNds)
/// or [`OracleSystem`](crate::OracleSystem).
#[derive(Debug)]
pub struct FlashSystem<P: Placement> {
    pub(crate) store: P::Store,
    pub(crate) life: Lifecycle,
    pub(crate) cpu: CpuModel,
    pub(crate) place: P,
    datasets: BTreeMap<DatasetId, Dataset<P>>,
    next_id: u64,
}

impl<P: Placement> FlashSystem<P> {
    /// Builds a system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let mut store = P::Store::new(&config);
        let life = Lifecycle::new(&config, store.device_mut());
        FlashSystem {
            place: P::new(&config),
            store,
            life,
            cpu: config.cpu,
            datasets: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// The record of dataset `id`.
    pub(crate) fn dataset(&self, id: DatasetId) -> Result<Dataset<P>, SystemError> {
        let dataset = self.datasets.get(&id).cloned();
        dataset.ok_or(SystemError::UnknownDataset(id))
    }
}

impl<P: Placement + sealed::Placed<Store = Stl<FlashBackend>>> FlashSystem<P> {
    /// The STL (exposed for overhead experiments).
    pub fn stl(&self) -> &Stl<FlashBackend> {
        &self.store
    }

    /// Levels of `space`'s locator tree: one B-tree traversal per request
    /// (§7.3) is what the STL's fixed per-request latency pays for.
    pub(crate) fn tree_levels(&self, space: SpaceId) -> usize {
        self.store
            .space(space)
            .map(|s| s.tree().levels())
            .unwrap_or(2)
    }
}

impl<P: Placement> StorageFrontEnd for FlashSystem<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    /// Creates a dataset once its byte size is known to fit in 64 bits and
    /// in the pages the store can give it — before the store sizes any
    /// table for it.
    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let bytes = shape
            .checked_bytes(element)
            .ok_or(NdsError::ShapeTooLarge)?;
        let page = self.store.device().geometry().page_size as u64;
        let pages = bytes.div_ceil(page);
        let available = self.store.room();
        if pages > available {
            return Err(SystemError::CapacityExceeded {
                requested: pages,
                available,
            });
        }
        let dataset = self.store.create(shape, element, pages)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.datasets.insert(id, dataset);
        Ok(id)
    }

    fn write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        let req = Request {
            view,
            coord,
            sub_dims,
            payload: data,
        };
        self.run(id, |sys, dataset| P::write(sys, dataset, req))
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let req = Request {
            view,
            coord,
            sub_dims,
            payload: buf,
        };
        self.run(id, |sys, dataset| P::read(sys, dataset, req))
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let dataset = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.store.delete(dataset)?;
        if P::EXTENDED_COMMANDS {
            self.life.stats.add("system.delete_commands", 1);
        }
        Ok(())
    }

    /// The system's own counters, the link's, the device's and the
    /// store's.
    fn stats(&self) -> Stats {
        let mut s = self.life.stats.clone();
        s.merge(self.life.link.stats());
        s.merge(self.store.device().stats());
        self.store.merge_stats(&mut s);
        s
    }

    fn run_report(&self) -> RunReport {
        let (life, device) = (&self.life, self.store.device());
        let mut report = self.stats().to_report();
        report.set_meta("arch", P::NAME);
        report.absorb(&life.obs);
        report.absorb(life.link.observability());
        report.absorb(device.observability());
        if let Some(t) = life.link.wire_timeline() {
            report.add_busy("link", t);
        }
        for (name, t) in device.timelines() {
            report.add_busy(name, t);
        }
        report
    }

    /// The run's causal trace; `None` unless tracing is configured.
    fn trace_export(&self) -> Option<TraceExport> {
        let (life, device) = (&self.life, self.store.device());
        let tracer = life.tracer.as_ref()?;
        let mut events: Vec<Event> = life.obs.journal().events().copied().collect();
        events.extend(life.link.observability().journal().events().copied());
        events.extend(device.observability().journal().events().copied());
        // Stable sort: ties keep source order (system, link, flash).
        events.sort_by_key(|e| e.at);
        let (channels, banks) = device.lane_busy_totals();
        Some(TraceExport {
            events,
            channels,
            banks,
            makespan: tracer.makespan(),
            tenants: Vec::new(),
        })
    }

    /// Number of trace ids allocated so far; 0 when tracing is off.
    fn trace_cursor(&self) -> u64 {
        let tracer = self.life.tracer.as_ref();
        tracer.map_or(0, CommandTracer::commands)
    }

    fn collecting(&self) -> bool {
        self.life.obs.is_enabled()
    }
}

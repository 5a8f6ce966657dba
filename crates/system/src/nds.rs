//! The NDS system: one STL at one of two placements (Fig. 7b, 7c).
//!
//! Software and hardware NDS run the same space translation layer —
//! building blocks, locator tree, translator, allocator — over the same
//! flash device; they differ only in *where* it runs. [`Host`] places it on
//! the host CPU over a LightNVM-style physical interface (Fig. 7b);
//! [`Controller`] places it inside the SSD controller behind one extended
//! NVMe command per request (Fig. 7c). [`NdsSystem`] owns what the two
//! share — the STL, the command [`Lifecycle`], the host CPU model, the
//! dataset table, the reused STL reports and the one [`StorageFrontEnd`]
//! implementation — and a placement keeps the rest: its name, its
//! per-request STL latency, its read and write data paths with their cost
//! models, and whether deleting a dataset is a device command.
//!
//! [`Host`]: crate::Host
//! [`Controller`]: crate::Controller

use std::collections::BTreeMap;

use nds_core::{AccessReport, ElementType, Shape, SpaceId, Stl, WriteReport};
use nds_host::CpuModel;
use nds_sim::{RunReport, SimDuration, Stats, TraceExport};

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};
use crate::lifecycle::Lifecycle;

/// Where an [`NdsSystem`]'s STL runs. Sealed: the placements are
/// [`Host`](crate::Host) and [`Controller`](crate::Controller).
pub trait Placement: sealed::Placed {}

impl<T: sealed::Placed> Placement for T {}

pub(crate) mod sealed {
    use super::*;

    /// What a placement adds to the [`NdsSystem`] around it.
    pub trait Placed: Sized + std::fmt::Debug {
        /// The front-end's [`name`](StorageFrontEnd::name).
        const NAME: &'static str;
        /// Whether deleting a dataset is a device command, counted as
        /// `system.delete_commands`.
        const DELETE_IS_COMMAND: bool;

        /// The placement's state, built from `config`.
        fn new(config: &SystemConfig) -> Self;

        /// Fixed per-request STL latency on a space of `tree_levels` levels.
        fn request_latency(&self, tree_levels: usize) -> SimDuration;

        /// The data path of [`StorageFrontEnd::write`] into `space`.
        fn write(
            sys: &mut NdsSystem<Self>,
            space: SpaceId,
            view: &Shape,
            coord: &[u64],
            sub_dims: &[u64],
            data: &[u8],
        ) -> Result<WriteOutcome, SystemError>;

        /// The data path of [`StorageFrontEnd::read_into`] from `space`.
        fn read(
            sys: &mut NdsSystem<Self>,
            space: SpaceId,
            view: &Shape,
            coord: &[u64],
            sub_dims: &[u64],
            buf: &mut Vec<u8>,
        ) -> Result<ReadMetrics, SystemError>;
    }
}

/// NDS with its STL at placement `P`: [`SoftwareNds`](crate::SoftwareNds)
/// on the host, [`HardwareNds`](crate::HardwareNds) in the controller.
#[derive(Debug)]
pub struct NdsSystem<P> {
    pub(crate) stl: Stl<FlashBackend>,
    pub(crate) life: Lifecycle,
    pub(crate) cpu: CpuModel,
    pub(crate) place: P,
    datasets: BTreeMap<DatasetId, SpaceId>,
    next_id: u64,
    /// The STL's reports of the request in flight, kept between requests so
    /// the steady-state data path does not allocate them.
    pub(crate) read_report: AccessReport,
    pub(crate) write_report: WriteReport,
}

impl<P: Placement> NdsSystem<P> {
    /// Builds an NDS system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let mut stl = Stl::new(FlashBackend::new(config.flash.clone()), config.stl);
        let life = Lifecycle::new(&config, &mut stl);
        NdsSystem {
            place: P::new(&config),
            stl,
            life,
            cpu: config.cpu,
            datasets: BTreeMap::new(),
            next_id: 1,
            read_report: AccessReport::default(),
            write_report: WriteReport::default(),
        }
    }

    /// The STL (exposed for overhead experiments).
    pub fn stl(&self) -> &Stl<FlashBackend> {
        &self.stl
    }

    /// The placement's fixed per-request STL latency for `space` (one
    /// B-tree traversal per request, §7.3).
    pub(crate) fn stl_latency(&self, space: SpaceId) -> SimDuration {
        let levels = self
            .stl
            .space(space)
            .map(|s| s.tree().levels())
            .unwrap_or(2);
        self.place.request_latency(levels)
    }
}

impl<P: Placement> StorageFrontEnd for NdsSystem<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let space = self.stl.create_space(shape, element)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.datasets.insert(id, space);
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
        let outcome = match self.datasets.get(&id) {
            Some(&space) => P::write(self, space, view, coord, sub_dims, data),
            None => Err(SystemError::UnknownDataset(id)),
        };
        self.life.settle(&mut self.stl, "write", outcome)
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let outcome = match self.datasets.get(&id) {
            Some(&space) => P::read(self, space, view, coord, sub_dims, buf),
            None => Err(SystemError::UnknownDataset(id)),
        };
        self.life.settle(&mut self.stl, "read", outcome)
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let space = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.stl.delete_space(space)?;
        if P::DELETE_IS_COMMAND {
            self.life.stats.add("system.delete_commands", 1);
        }
        Ok(())
    }

    fn stats(&self) -> Stats {
        let mut s = self.life.stats(&self.stl);
        s.merge(self.stl.backend().stats());
        s.add("stl.plan_cache.hits", self.stl.plan_cache().hits());
        s.add("stl.plan_cache.misses", self.stl.plan_cache().misses());
        s
    }

    fn run_report(&self) -> RunReport {
        self.life.run_report(&self.stl, self.name(), &self.stats())
    }

    fn trace_export(&self) -> Option<TraceExport> {
        self.life.trace_export(&self.stl)
    }

    fn trace_cursor(&self) -> u64 {
        self.life.trace_cursor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareNds, SoftwareNds};

    /// Creates, fills and deletes one dataset; returns the system's stats.
    fn after_delete(sys: &mut impl StorageFrontEnd) -> Stats {
        let shape = Shape::new([32, 32]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        sys.write(id, &shape, &[0, 0], &[32, 32], &[1u8; 32 * 32 * 4])
            .unwrap();
        sys.delete_dataset(id).unwrap();
        sys.stats()
    }

    #[test]
    fn placements_differ_in_name_and_delete_accounting() {
        let mut sw = SoftwareNds::new(SystemConfig::small_test());
        let mut hw = HardwareNds::new(SystemConfig::small_test());
        assert_eq!(sw.name(), "software-nds");
        assert_eq!(hw.name(), "hardware-nds");

        // Only the controller's deallocation crosses the link as a command.
        let sw_stats = after_delete(&mut sw);
        let hw_stats = after_delete(&mut hw);
        assert_eq!(hw_stats.get("system.delete_commands"), 1);
        assert!(sw_stats
            .iter()
            .all(|(name, _)| name != "system.delete_commands"));
        assert!(matches!(
            sw.delete_dataset(DatasetId(1)),
            Err(SystemError::UnknownDataset(_))
        ));
    }
}

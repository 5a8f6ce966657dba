//! Reads into a reused, dirty buffer (the property of `nds-core`'s
//! `tests/support/dirty_reads.rs`) on this crate's read paths: the STL over
//! the flash backend, the baseline's extent-by-extent assembly, and a
//! sharded cluster whose requests straddle shards; and reads large enough
//! to be copied in several parts on the three architectures.

use proptest::prelude::*;

use nds_core::{ElementType, Shape, Stl, StlConfig};
use nds_system::{
    BaselineSystem, ClusterConfig, DatasetId, FlashBackend, HardwareNds, NdsCluster, ReadMetrics,
    SoftwareNds, StorageFrontEnd, SystemConfig,
};

#[path = "../../../core/tests/support/dirty_reads.rs"]
mod dirty_reads;

use dirty_reads::{Case, Subject};

/// One dataset of a front-end.
struct Dataset<S>(S, DatasetId);

impl<S: StorageFrontEnd> Dataset<S> {
    fn of(mut sys: S, case: &Case) -> Self {
        let shape = Shape::new(case.dims.clone());
        let id = sys.create_dataset(shape, case.element).unwrap();
        Dataset(sys, id)
    }
}

/// What two reads of one partition have in common on every front-end (the
/// cluster steers the second to whichever replica is then less busy, so its
/// modeled times differ).
fn volume(m: ReadMetrics) -> (u64, u64) {
    (m.commands, m.bytes)
}

impl<S: StorageFrontEnd> Subject for Dataset<S> {
    type Report = (u64, u64);

    fn write(&mut self, view: &Shape, coord: &[u64], sub: &[u64], data: &[u8]) {
        self.0.write(self.1, view, coord, sub, data).unwrap();
    }

    fn read(&mut self, view: &Shape, coord: &[u64], sub: &[u64]) -> (Vec<u8>, (u64, u64)) {
        let out = self.0.read(self.1, view, coord, sub).unwrap();
        let report = volume(out.metrics());
        (out.data, report)
    }

    fn read_into(
        &mut self,
        view: &Shape,
        coord: &[u64],
        sub: &[u64],
        buf: &mut Vec<u8>,
    ) -> (u64, u64) {
        volume(self.0.read_into(self.1, view, coord, sub, buf).unwrap())
    }
}

/// A 2.5 MiB space (f32, 64 × 40 × 256) written in bands of 64 planes: one
/// pattern, one of zeros (elided), one pattern, and the last never written.
/// Read four times through the `[2560, 256]` fold — whole three times, then
/// 2.19 MiB of it — so every read is at least two minimum parts (1 MiB
/// each) and is copied on several threads on a multi-core host (in one part
/// under a one-CPU mask, as `scripts/check.sh` runs it again). The dirty
/// buffer goes from empty, to longer, to shorter, to longer than the read.
fn multi_part_case() -> Case {
    let band = |plane: u64, fill: u8| ((vec![0, 0, plane], vec![64, 40, 64]), fill);
    let whole = vec![(2559, 0), (255, 0), (0, 0)];
    let most = vec![(2559, 0), (223, 0), (0, 0)];
    Case {
        dims: vec![64, 40, 256],
        element: ElementType::F32,
        writes: vec![band(0, 2), band(1, 0), band(2, 3)],
        fold: 1,
        reads: vec![whole.clone(), whole.clone(), whole, most],
    }
}

#[test]
fn multi_part_reads_into_a_dirty_buffer_on_every_architecture() {
    let case = multi_part_case();
    let config = SystemConfig::small_test;
    let baseline = BaselineSystem::new(config());
    dirty_reads::check(&mut Dataset::of(baseline, &case), &case).unwrap();
    let software = SoftwareNds::new(config());
    dirty_reads::check(&mut Dataset::of(software, &case), &case).unwrap();
    let hardware = HardwareNds::new(config());
    dirty_reads::check(&mut Dataset::of(hardware, &case), &case).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stl_over_flash_reads_into_a_dirty_buffer(case in dirty_reads::case_strategy(24)) {
        let backend = FlashBackend::new(SystemConfig::small_test().flash);
        let mut stl = Stl::new(backend, StlConfig::default());
        let id = stl.create_space(Shape::new(case.dims.clone()), case.element).unwrap();
        dirty_reads::check(&mut dirty_reads::StlSpace(&mut stl, id), &case)?;
    }

    /// Never-written pages are unmapped LBAs: the baseline's holes.
    #[test]
    fn baseline_reads_into_a_dirty_buffer(case in dirty_reads::case_strategy(24)) {
        let sys = BaselineSystem::new(SystemConfig::small_test());
        dirty_reads::check(&mut Dataset::of(sys, &case), &case)?;
    }

    /// Shards of 1, 2, 3 and 5 rows: any request taller than a band
    /// straddles shards, bands that do not divide the request cut its
    /// pieces off their alignment, and a folded consumer view cuts its runs
    /// into boxes first.
    #[test]
    fn sharded_cluster_reads_into_a_dirty_buffer(case in dirty_reads::case_strategy(16)) {
        for rows in [1, 2, 3, 5] {
            let config = ClusterConfig::new(3, 2).with_shard_rows(rows).with_seed(11);
            let cluster =
                NdsCluster::new(config, |_| HardwareNds::new(SystemConfig::small_test()));
            dirty_reads::check(&mut Dataset::of(cluster, &case), &case)?;
        }
    }
}

//! The "oracle" software configuration of §7.2.
//!
//! To bound what *any* software-library approach could achieve, the paper
//! builds an oracle: for each workload it exhaustively searches for the
//! storage layout that incurs **zero host overhead** and minimum end-to-end
//! latency — in practice, storing the dataset pre-tiled in exactly the
//! compute kernel's request granularity, and duplicating datasets shared by
//! workloads that want different shapes.
//!
//! [`OracleSystem`] reproduces that: datasets are stored tile-major on a
//! baseline SSD, so a kernel-tile read is one contiguous LBA run — one
//! saturating command with full channel striping and no marshalling.
//! Requests that are not tile-aligned read the covering tiles (paying their
//! I/O) and are reshaped free of charge, per §7.2's "assume these software
//! libraries have zero overhead".

use std::collections::BTreeMap;

use nds_core::{translator, BlockShape, ElementType, NdsError, Region, Shape};
use nds_sim::{RunReport, SimDuration, Stats, TraceExport};

use crate::baseline::BaselineSystem;
use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};

#[derive(Debug, Clone)]
struct OracleDataset {
    shape: Shape,
    tile: BlockShape,
    grid: Shape,
    backing_view: Shape,
    backing: DatasetId,
}

/// A baseline SSD whose datasets are pre-tiled in the kernel's request
/// shape — the zero-overhead software bound of §7.2.
#[derive(Debug)]
pub struct OracleSystem {
    inner: BaselineSystem,
    tile_dims: Vec<u64>,
    datasets: BTreeMap<DatasetId, OracleDataset>,
    next_id: u64,
    page_size: u32,
}

impl OracleSystem {
    /// Builds an oracle system whose datasets are tiled by `tile_dims`
    /// (the workload's kernel sub-dimensionality, fastest dimension first;
    /// missing trailing dimensions get extent 1).
    ///
    /// # Panics
    ///
    /// Panics if `tile_dims` is empty or contains zeros.
    pub fn with_tile(config: SystemConfig, tile_dims: impl Into<Vec<u64>>) -> Self {
        let tile_dims = tile_dims.into();
        assert!(
            !tile_dims.is_empty() && tile_dims.iter().all(|&d| d > 0),
            "oracle tile extents must be non-empty and non-zero"
        );
        let page_size = config.flash.geometry.page_size as u32;
        OracleSystem {
            inner: BaselineSystem::new(config),
            tile_dims,
            datasets: BTreeMap::new(),
            next_id: 1,
            page_size,
        }
    }

    fn dataset(&self, id: DatasetId) -> Result<&OracleDataset, SystemError> {
        self.datasets
            .get(&id)
            .ok_or(SystemError::UnknownDataset(id))
    }

    /// Translates a request into its covering tiles and copy plan.
    fn plan(
        ds: &OracleDataset,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<nds_core::translator::Translation, SystemError> {
        let region = Region::from_request(view, coord, sub_dims).map_err(SystemError::from)?;
        translator::translate_region(&ds.shape, &ds.tile, view, &region).map_err(SystemError::from)
    }
}

impl StorageFrontEnd for OracleSystem {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        // Clamp the configured tile to the dataset's rank and extents.
        let mut tdims = vec![1u64; shape.ndims()];
        for (i, d) in tdims.iter_mut().enumerate() {
            *d = self
                .tile_dims
                .get(i)
                .copied()
                .unwrap_or(1)
                .min(shape.dim(i));
        }
        let tile = BlockShape::custom(tdims, element.size() as u32, self.page_size);
        let grid = tile.grid_for(&shape);
        let tile_elems = tile.volume();
        let n_tiles = grid.volume();
        let backing_view = Shape::try_new([tile_elems, n_tiles])?;
        let backing = self.inner.create_dataset(backing_view.clone(), element)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.datasets.insert(
            id,
            OracleDataset {
                shape,
                tile,
                grid,
                backing_view,
                backing,
            },
        );
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
        let ds = self.dataset(id)?.clone();
        let plan = Self::plan(&ds, view, coord, sub_dims)?;
        if data.len() as u64 != plan.total_bytes {
            return Err(NdsError::BadPayloadSize {
                got: data.len(),
                expected: plan.total_bytes as usize,
            }
            .into());
        }
        let tile_bytes = ds.tile.bytes();
        let tile_elems = ds.tile.volume();

        let mut latency = SimDuration::ZERO;
        let mut commands = 0;
        for cover in &plan.blocks {
            let tile = ds.grid.linear_index(&cover.coord)?;
            let covered: u64 = cover.segments.iter().map(|s| s.len).sum();
            // Partially covered tiles read-modify-write against the store.
            let mut image = if covered == tile_bytes {
                vec![0u8; tile_bytes as usize]
            } else {
                self.inner
                    .read(ds.backing, &ds.backing_view, &[0, tile], &[tile_elems, 1])?
                    .data
            };
            for seg in &cover.segments {
                let dst = image
                    .get_mut(seg.block_offset as usize..(seg.block_offset + seg.len) as usize)
                    .ok_or(SystemError::Protocol(
                        "write plan segment exceeds tile image",
                    ))?;
                let src = data
                    .get(seg.buffer_offset as usize..(seg.buffer_offset + seg.len) as usize)
                    .ok_or(SystemError::Protocol("write plan segment exceeds payload"))?;
                dst.copy_from_slice(src);
            }
            let out = self.inner.write(
                ds.backing,
                &ds.backing_view,
                &[0, tile],
                &[tile_elems, 1],
                &image,
            )?;
            latency = latency.max(out.latency);
            commands += out.commands;
        }
        Ok(WriteOutcome {
            latency,
            commands,
            bytes: plan.total_bytes,
        })
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let ds = self.dataset(id)?.clone();
        let plan = Self::plan(&ds, view, coord, sub_dims)?;
        let tile_elems = ds.tile.volume();

        buf.clear();
        buf.resize(plan.total_bytes as usize, 0);
        let mut tile_buf = Vec::new();
        let mut io_latency = SimDuration::ZERO;
        let mut io_occupancy = SimDuration::ZERO;
        let mut commands = 0;
        for cover in &plan.blocks {
            let tile = ds.grid.linear_index(&cover.coord)?;
            let out = self.inner.read_into(
                ds.backing,
                &ds.backing_view,
                &[0, tile],
                &[tile_elems, 1],
                &mut tile_buf,
            )?;
            debug_assert_eq!(out.restructure, SimDuration::ZERO, "tiles are contiguous");
            io_latency = io_latency.max(out.io_latency);
            io_occupancy = io_occupancy.max(out.io_occupancy);
            commands += out.commands;
            for seg in &cover.segments {
                let dst = buf
                    .get_mut(seg.buffer_offset as usize..(seg.buffer_offset + seg.len) as usize)
                    .ok_or(SystemError::Protocol(
                        "read plan segment exceeds output buffer",
                    ))?;
                let src = tile_buf
                    .get(seg.block_offset as usize..(seg.block_offset + seg.len) as usize)
                    .ok_or(SystemError::Protocol(
                        "read plan segment exceeds tile image",
                    ))?;
                dst.copy_from_slice(src);
            }
        }
        Ok(ReadMetrics {
            io_latency,
            io_occupancy,
            restructure: SimDuration::ZERO, // zero overhead by definition
            commands,
            bytes: plan.total_bytes,
        })
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let ds = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.inner.delete_dataset(ds.backing)
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn run_report(&self) -> RunReport {
        // The oracle's timing components all live inside the backing
        // baseline system; only the architecture label differs.
        let mut report = self.inner.run_report();
        report.set_meta("arch", self.name());
        report
    }

    fn trace_export(&self) -> Option<TraceExport> {
        // Oracle requests decompose into per-tile baseline commands; the
        // trace is the backing system's trace, one command per tile.
        self.inner.trace_export()
    }

    fn trace_cursor(&self) -> u64 {
        // One oracle operation allocates one trace id per covering tile on
        // the backing system's tracer.
        self.inner.trace_cursor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn system(tile: &[u64]) -> OracleSystem {
        OracleSystem::with_tile(SystemConfig::small_test(), tile.to_vec())
    }

    #[test]
    fn tile_read_is_one_command_no_marshal() {
        let mut sys = system(&[32, 32]);
        let shape = Shape::new([128, 128]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..128 * 128 * 4).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let r = sys.read(id, &shape, &[2, 1], &[32, 32]).unwrap();
        assert_eq!(r.commands, 1, "a tile is one contiguous run");
        assert_eq!(r.restructure, SimDuration::ZERO);
        for (i, chunk) in r.data.chunks_exact(4).enumerate() {
            let x = 64 + i % 32;
            let y = 32 + i / 32;
            let src = (x + 128 * y) * 4;
            let expect: Vec<u8> = (0..4).map(|k| ((src + k) % 251) as u8).collect();
            assert_eq!(chunk, expect.as_slice(), "tile element {i}");
        }
    }

    #[test]
    fn full_read_round_trips() {
        let mut sys = system(&[16, 16]);
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i * 7 % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        assert_eq!(r.data, data);
    }

    #[test]
    fn unaligned_read_covers_tiles_and_round_trips() {
        let mut sys = system(&[32, 32]);
        let shape = Shape::new([128, 128]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..128 * 128 * 4).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        // A one-row strip (halo read): covers 4 tiles horizontally.
        let r = sys.read(id, &shape, &[0, 77], &[128, 1]).unwrap();
        assert_eq!(r.bytes, 128 * 4);
        for (i, chunk) in r.data.chunks_exact(4).enumerate() {
            let src = (i + 128 * 77) * 4;
            assert_eq!(chunk[0], (src % 251) as u8, "strip element {i}");
        }
    }

    #[test]
    fn unaligned_write_preserves_surroundings() {
        let mut sys = system(&[32, 32]);
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let base = vec![1u8; 64 * 64 * 4];
        sys.write(id, &shape, &[0, 0], &[64, 64], &base).unwrap();
        let patch = vec![9u8; 8 * 8 * 4];
        sys.write(id, &shape, &[3, 3], &[8, 8], &patch).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        for y in 0..64usize {
            for x in 0..64usize {
                let expect = if (24..32).contains(&x) && (24..32).contains(&y) {
                    9
                } else {
                    1
                };
                assert_eq!(r.data[(x + 64 * y) * 4], expect, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn oracle_beats_baseline_on_its_tile() {
        let config = SystemConfig::small_test();
        let shape = Shape::new([256, 256]);
        let data = vec![1u8; 256 * 256 * 4];

        let mut oracle = OracleSystem::with_tile(config.clone(), vec![64, 64]);
        let id = oracle
            .create_dataset(shape.clone(), ElementType::F32)
            .unwrap();
        oracle
            .write(id, &shape, &[0, 0], &[256, 256], &data)
            .unwrap();
        let o = oracle.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        let mut base = BaselineSystem::new(config);
        let id = base
            .create_dataset(shape.clone(), ElementType::F32)
            .unwrap();
        base.write(id, &shape, &[0, 0], &[256, 256], &data).unwrap();
        let b = base.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        assert!(
            o.latency() < b.latency(),
            "oracle {} should beat baseline {} on its own tile",
            o.latency(),
            b.latency()
        );
    }
}

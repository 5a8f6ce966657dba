//! The "oracle" software configuration of §7.2: [`FlashSystem`] at the
//! [`Pretiled`] placement.
//!
//! To bound what *any* software-library approach could achieve, the paper
//! builds an oracle: for each workload it exhaustively searches for the
//! storage layout that incurs **zero host overhead** and minimum end-to-end
//! latency — in practice, storing the dataset pre-tiled in exactly the
//! compute kernel's request granularity, and duplicating datasets shared by
//! workloads that want different shapes.
//!
//! [`OracleSystem`] reproduces that: its store lays each dataset out
//! tile-major over the baseline's linear LBA space, tile `i` at byte
//! `i × tile bytes`, so a kernel-tile read is one contiguous LBA run — one
//! saturating command with full channel striping and no marshalling. A
//! request is covered by whole tiles, which go through the baseline's
//! command machinery (adjacent tiles are one page run, so one command, as
//! in a pre-tiled file), and is reshaped free of charge, per §7.2's "assume
//! these software libraries have zero overhead". A multi-tile request is
//! one command epoch, whose tiles share the device and the link like any
//! other placement's pages. A write that covers a tile only in part keeps
//! the tile's other bytes, taken from the store uncharged — as the
//! baseline takes the edge pages of its own writes.

use nds_core::translator::{self, Translation};
use nds_core::{Assembler, BlockShape, ElementType, NdsError, Region, Shape};
use nds_flash::FlashDevice;
use nds_sim::{SimDuration, Stats};

use crate::baseline::Extent;
use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_system::sealed::{Placed, Request};
use crate::flash_system::FlashSystem;
use crate::frontend::{ReadMetrics, WriteOutcome};
use crate::lifecycle::{LbaRun, Lbas, Stages, Store};

/// A baseline SSD whose datasets are pre-tiled in the kernel's request
/// shape — the zero-overhead software bound of §7.2.
pub type OracleSystem = FlashSystem<Pretiled>;

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
        let mut sys = OracleSystem::new(config);
        sys.store.tile = tile_dims;
        sys
    }
}

/// The oracle's placement of translation: the layout was chosen offline,
/// so requests run on the baseline's command machinery and reshape for
/// free.
#[derive(Debug)]
pub struct Pretiled;

/// The oracle's store: the baseline's LBA space, each dataset laid out
/// tile-major.
#[derive(Debug)]
pub struct Tiles {
    lbas: Lbas,
    /// The tile extents, fastest dimension first.
    tile: Vec<u64>,
}

/// A pre-tiled dataset: its run of LBAs, holding its tiles in grid order,
/// each padded to the whole tile.
#[derive(Debug, Clone)]
pub struct TiledRun {
    run: LbaRun,
    shape: Shape,
    tile: BlockShape,
    grid: Shape,
}

impl TiledRun {
    /// The request's copy plan over the tiles it covers, and each cover's
    /// tile index. Leaves the covered tiles whole in `extents`, in cover
    /// order: the tile of cover `k` is bytes `k × tile bytes..` of a
    /// request image. Commands need them in ascending LBA order.
    fn plan<B>(
        &self,
        req: &Request<'_, B>,
        extents: &mut Vec<Extent>,
    ) -> Result<(Translation, Vec<u64>), SystemError> {
        let region = Region::from_request(req.view, req.coord, req.sub_dims)?;
        let plan = translator::translate_region(&self.shape, &self.tile, req.view, &region)?;
        let tiles = plan.blocks.iter().map(|b| self.grid.linear_index(&b.coord));
        let tiles = tiles.collect::<Result<Vec<u64>, NdsError>>()?;
        let bytes = self.tile.bytes();
        extents.clear();
        extents.extend(tiles.iter().zip(0..).map(|(&tile, k)| Extent {
            buffer_off: k * bytes,
            dataset_off: tile * bytes,
            len: bytes,
        }));
        Ok((plan, tiles))
    }
}

impl Store for Tiles {
    type Dataset = TiledRun;

    fn new(config: &SystemConfig) -> Self {
        Tiles {
            lbas: Lbas::new(config),
            tile: Vec::new(),
        }
    }

    fn device(&self) -> &FlashDevice {
        self.lbas.device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.lbas.device_mut()
    }

    fn room(&self) -> u64 {
        self.lbas.room()
    }

    /// Clamps the tile to the dataset's rank and extents and gives the run
    /// room for every tile in full.
    fn create(
        &mut self,
        shape: Shape,
        element: ElementType,
        _pages: u64,
    ) -> Result<TiledRun, SystemError> {
        let dims: Vec<u64> = (0..shape.ndims())
            .map(|i| self.tile.get(i).map_or(1, |&d| d.min(shape.dim(i))))
            .collect();
        let page = self.device().geometry().page_size as u32;
        let tile = BlockShape::custom(dims, element.size() as u32, page);
        let grid = tile.grid_for(&shape);
        let bytes = grid.volume().checked_mul(tile.bytes());
        let pages = bytes.ok_or(NdsError::ShapeTooLarge)?.div_ceil(page.into());
        let available = self.room();
        if pages > available {
            return Err(SystemError::CapacityExceeded {
                requested: pages,
                available,
            });
        }
        let run = self.lbas.create(shape.clone(), element, pages)?;
        Ok(TiledRun {
            run,
            shape,
            tile,
            grid,
        })
    }

    fn delete(&mut self, dataset: TiledRun) -> Result<(), SystemError> {
        self.lbas.delete(dataset.run)
    }

    fn merge_stats(&self, stats: &mut Stats) {
        self.lbas.merge_stats(stats);
    }
}

impl Placed for Pretiled {
    const NAME: &'static str = "oracle";
    const EXTENDED_COMMANDS: bool = false;
    type Store = Tiles;

    fn new(_config: &SystemConfig) -> Self {
        Pretiled
    }

    fn write(
        sys: &mut OracleSystem,
        ds: TiledRun,
        req: Request<'_, &[u8]>,
    ) -> Result<(WriteOutcome, Stages), SystemError> {
        let lbas = &mut sys.store.lbas;
        let (plan, tiles) = ds.plan(&req, &mut lbas.extents)?;
        if req.payload.len() as u64 != plan.total_bytes {
            return Err(NdsError::BadPayloadSize {
                got: req.payload.len(),
                expected: plan.total_bytes as usize,
            }
            .into());
        }
        // The covered tiles' new images, in cover order. A tile the request
        // covers only in part starts from its stored bytes, taken uncharged.
        let (tile_bytes, base) = (ds.tile.bytes(), ds.run.base_lba);
        let mut image = Vec::new();
        let mut old = Assembler::new(&mut image, (tiles.len() as u64 * tile_bytes) as usize);
        for (e, cover) in lbas.extents.iter().zip(&plan.blocks) {
            if cover.bytes() < tile_bytes {
                lbas.read_extent(base, *e, &mut old)?;
            } else {
                old.zeros(tile_bytes as usize);
            }
        }
        old.finish()?;
        for (cover, k) in plan.blocks.iter().zip(0u64..) {
            for seg in &cover.segments {
                let at = k * tile_bytes + seg.block_offset;
                let dst = image.get_mut(at as usize..(at + seg.len) as usize);
                let from = seg.buffer_offset;
                let src = req.payload.get(from as usize..(from + seg.len) as usize);
                let (Some(dst), Some(src)) = (dst, src) else {
                    return Err(SystemError::Protocol("write plan segment out of range"));
                };
                dst.copy_from_slice(src);
            }
        }
        lbas.extents.sort_unstable_by_key(|e| e.dataset_off);
        let (link, bytes) = (&mut sys.life.link, plan.total_bytes);
        lbas.program(link, &sys.cpu, base, &image, SimDuration::ZERO, bytes)
    }

    fn read(
        sys: &mut OracleSystem,
        ds: TiledRun,
        req: Request<'_, &mut Vec<u8>>,
    ) -> Result<(ReadMetrics, Stages), SystemError> {
        let lbas = &mut sys.store.lbas;
        let (plan, tiles) = ds.plan(&req, &mut lbas.extents)?;
        lbas.extents.sort_unstable_by_key(|e| e.dataset_off);
        // Zero overhead by definition: no restructuring is charged.
        let (link, base, bytes) = (&mut sys.life.link, ds.run.base_lba, plan.total_bytes);
        let read = lbas.fetch(link, &sys.cpu, base, SimDuration::ZERO, bytes)?;
        // Each span of the plan, in buffer order, is a run of bytes inside
        // one stored tile.
        let (tile_bytes, unit_bytes) = (ds.tile.bytes(), u64::from(plan.unit_bytes));
        let mut assembler = Assembler::new(req.payload, bytes as usize);
        plan.try_for_each_span(|span| {
            let tile = tiles.get(span.block as usize).ok_or(SystemError::Protocol(
                "read plan span names no covered tile",
            ))?;
            let piece = Extent {
                buffer_off: 0,
                dataset_off: tile * tile_bytes
                    + u64::from(span.unit) * unit_bytes
                    + u64::from(span.unit_offset),
                len: span.len.into(),
            };
            lbas.read_extent(base, piece, &mut assembler)
        })?;
        assembler.finish()?;
        Ok(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineSystem;
    use crate::frontend::StorageFrontEnd;

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
        assert_eq!(r.latency(), SimDuration::nanos::<54_824>());
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
        let w = sys.write(id, &shape, &[3, 3], &[8, 8], &patch).unwrap();
        // The patch rewrites its whole tile in one command, as a full-tile
        // write does.
        let whole_tile = SimDuration::nanos::<605_610>();
        assert_eq!((w.latency, w.commands), (whole_tile, 1));
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
    fn a_multi_tile_request_pays_for_every_tile() {
        let config = SystemConfig::small_test();
        // 128 × 128 is 16 whole tiles, the very pages the baseline stores
        // the dataset in; 100 × 100 pads its edge tiles, so costs more.
        for n in [128, 100] {
            let shape = Shape::new([n, n]);
            let data: Vec<u8> = (0..n * n * 4).map(|i| (i % 251) as u8).collect();
            let whole = |mut sys: Box<dyn StorageFrontEnd>| {
                let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
                let w = sys.write(id, &shape, &[0, 0], &[n, n], &data).unwrap();
                let r = sys.read(id, &shape, &[0, 0], &[n, n]).unwrap();
                assert_eq!(r.data, data, "{} {n}×{n}", sys.name());
                (w.latency, r.latency())
            };
            let oracle = whole(Box::new(OracleSystem::with_tile(config.clone(), [32, 32])));
            let baseline = whole(Box::new(BaselineSystem::new(config.clone())));
            assert!(
                oracle.0 >= baseline.0 && oracle.1 >= baseline.1,
                "{n}×{n}: oracle (write, read) {oracle:?} beat the baseline's {baseline:?}"
            );
            if n == 128 {
                assert_eq!(oracle, baseline, "the same pages in one command");
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

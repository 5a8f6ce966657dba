//! `write_churn` — the write path under overwrite pressure. The device is
//! `paper_scale()` with `blocks_per_bank` shrunk until it is 4× the dataset
//! (a 4096² f32 matrix, 64 MiB). Set-up creates the dataset and writes it
//! whole (Fig. 9(d)); a rep overwrites a seed-hashed 40 % of its 256² tiles
//! on all three architectures, then reads one of them back.
//!
//! Why it is here: the same flash and STL layers as `bulk_read`, used the
//! other way — program, invalidate, allocate, GC relocate, erase, and the
//! baseline's read-modify-write — so a read-path gain paid for by writes
//! shows. A geometry that runs out of free pages surfaces as failed
//! operations; nothing is retried.

use nds_core::{ElementType, Shape};
use nds_sim::ObsConfig;
use nds_system::{DatasetId, SystemConfig};

use super::{
    check_block, fill_pattern, mean_abs_rel_err_pct, mix, Archs, Collector, Verify, Workload,
};
use crate::metrics::Metrics;
use crate::spans::Rec;

const N: u64 = 4096;
const TILE: u64 = 256;
const TILES_PER_SIDE: u64 = N / TILE;
const ESIZE: usize = 4;
/// Share of the tiles a rep overwrites, percent.
const CHURN_PCT: u64 = 40;
/// 32 ch × 8 banks × 4 blocks × 64 pages × 4 KiB = 256 MiB = 4× the dataset.
/// (3 blocks per bank — 33 % fill — leaves the baseline FTL with `no free
/// page available after garbage collection`.)
const BLOCKS_PER_BANK: usize = 4;

/// Fig. 9(d): whole-matrix write bandwidth is 30 % below the baseline's on
/// software NDS and 17 % below on hardware NDS.
const PAPER_SW_OVER_BASELINE: f64 = 0.70;
const PAPER_HW_OVER_BASELINE: f64 = 0.83;

/// See the module docs.
#[derive(Debug)]
pub struct WriteChurn {
    seed: u64,
    config: SystemConfig,
    archs: Archs,
    ids: [DatasetId; 3],
    shape: Shape,
    /// Tile indices (`ty * TILES_PER_SIDE + tx`) every rep overwrites.
    churned: Vec<u64>,
    /// Pattern version each tile was last written with.
    versions: Vec<u64>,
    reps_done: u64,
    tile: Vec<u8>,
    buf: Vec<u8>,
    /// Modeled MiB/s of the population write per architecture.
    populate_mib_s: [f64; 3],
}

/// The tiles every rep overwrites: the `CHURN_PCT` % with the lowest seeded
/// hash, so every seed churns the same number of tiles.
fn churn_set(seed: u64) -> Vec<u64> {
    let tiles = TILES_PER_SIDE * TILES_PER_SIDE;
    let mut ranked: Vec<u64> = (0..tiles).collect();
    ranked.sort_by_key(|t| mix(seed ^ 0xc4_0a11 ^ t));
    ranked.truncate((tiles * CHURN_PCT / 100) as usize);
    ranked.sort_unstable();
    ranked
}

fn tile_of(index: u64) -> usize {
    let (y, x) = (index / N, index % N);
    ((y / TILE) * TILES_PER_SIDE + x / TILE) as usize
}

impl WriteChurn {
    fn fill_tile(&mut self, tile: u64, version: u64) {
        let (ty, tx) = (tile / TILES_PER_SIDE, tile % TILES_PER_SIDE);
        let row_bytes = TILE as usize * ESIZE;
        for (r, row) in self.tile.chunks_exact_mut(row_bytes).enumerate() {
            let first = (ty * TILE + r as u64) * N + tx * TILE;
            fill_pattern(row, ESIZE, self.seed, version, first);
        }
    }
}

impl Workload for WriteChurn {
    const NAME: &'static str = "write_churn";
    const WARMUP_REPS: usize = 1;
    const TRACED_REPS: usize = 3;

    fn setup(seed: u64, obs: ObsConfig, rec: &Rec) -> Result<Self, String> {
        let mut config = SystemConfig::paper_scale().with_observability(obs);
        config.flash.geometry.blocks_per_bank = BLOCKS_PER_BANK;
        let mut archs = Archs::new(&config, rec);
        let shape = Shape::new([N, N]);
        let mut whole = vec![0u8; (N * N) as usize * ESIZE];
        fill_pattern(&mut whole, ESIZE, seed, 0, 0);
        let mut ids = [DatasetId(0); 3];
        let mut populate_mib_s = [0.0; 3];
        for (a, sys) in archs.each().into_iter().enumerate() {
            let id = sys
                .create_dataset(shape.clone(), ElementType::F32)
                .map_err(|e| format!("{}: create: {e}", sys.name()))?;
            let out = sys
                .write(id, &shape, &[0, 0], &[N, N], &whole)
                .map_err(|e| format!("{}: populate: {e}", sys.name()))?;
            ids[a] = id;
            populate_mib_s[a] = out.effective_bandwidth().as_mib_per_sec();
        }
        let tiles = TILES_PER_SIDE * TILES_PER_SIDE;
        let churned = churn_set(seed);
        Ok(WriteChurn {
            seed,
            config,
            archs,
            ids,
            shape,
            churned,
            versions: vec![0; tiles as usize],
            reps_done: 0,
            tile: vec![0u8; (TILE * TILE) as usize * ESIZE],
            buf: Vec::new(),
            populate_mib_s,
        })
    }

    fn rep(&mut self, rec: &Rec, verify: Verify) {
        self.reps_done += 1;
        let version = self.reps_done;
        // Tile by tile, so each tile's pattern is generated once for all
        // three architectures.
        for i in 0..self.churned.len() {
            let tile = self.churned[i];
            self.fill_tile(tile, version);
            let coord = [tile % TILES_PER_SIDE, tile / TILES_PER_SIDE];
            for (sys, id) in self.archs.each().into_iter().zip(self.ids) {
                let _arch = rec.span(sys.name());
                // An `Err` is already counted by the wrapper.
                let _ = sys.write(id, &self.shape, &coord, &[TILE, TILE], &self.tile);
            }
        }
        // Read one overwritten tile back, a different one each rep.
        let tile = self.churned[version as usize % self.churned.len()];
        let coord = [tile % TILES_PER_SIDE, tile / TILES_PER_SIDE];
        let geometry = (N, coord[0] * TILE, coord[1] * TILE, TILE);
        for (sys, id) in self.archs.each().into_iter().zip(self.ids) {
            let _arch = rec.span(sys.name());
            if sys
                .read_into(id, &self.shape, &coord, &[TILE, TILE], &mut self.buf)
                .is_ok()
            {
                rec.check(
                    self.buf.len() == self.tile.len()
                        && check_block(&self.buf, ESIZE, self.seed, geometry, verify, |_| version),
                );
            }
        }
        for &tile in &self.churned {
            self.versions[tile as usize] = version;
        }
    }

    fn final_check(&mut self, rec: &Rec) {
        const ROWS: u64 = 1024;
        for (sys, id) in self.archs.each().into_iter().zip(self.ids) {
            for p in 0..N / ROWS {
                if sys
                    .read_into(id, &self.shape, &[0, p], &[N, ROWS], &mut self.buf)
                    .is_ok()
                {
                    let versions = &self.versions;
                    rec.check(check_block(
                        &self.buf,
                        ESIZE,
                        self.seed,
                        (N, 0, p * ROWS, N),
                        Verify::Full,
                        |index| versions[tile_of(index)],
                    ));
                }
            }
        }
    }

    fn paper_err_pct(&self) -> Option<f64> {
        let [base, sw, hw] = self.populate_mib_s;
        Some(mean_abs_rel_err_pct(&[
            (sw / base, PAPER_SW_OVER_BASELINE),
            (hw / base, PAPER_HW_OVER_BASELINE),
        ]))
    }

    fn config(&self) -> SystemConfig {
        self.config.clone()
    }

    fn collect(&mut self, c: &mut Collector, _m: &mut Metrics) {
        self.archs.collect(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_index_maps_to_its_tile() {
        assert_eq!(tile_of(0), 0);
        assert_eq!(tile_of(TILE - 1), 0);
        assert_eq!(tile_of(TILE), 1);
        assert_eq!(tile_of(TILE * N), TILES_PER_SIDE as usize);
        assert_eq!(
            tile_of(N * N - 1),
            (TILES_PER_SIDE * TILES_PER_SIDE - 1) as usize
        );
    }

    #[test]
    fn churn_set_follows_the_seed() {
        assert_ne!(churn_set(1), churn_set(2));
        assert_eq!(churn_set(1), churn_set(1));
        for seed in 0..8 {
            assert_eq!(churn_set(seed).len(), 102, "same work for every seed");
        }
    }
}

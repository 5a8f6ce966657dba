//! `bulk_read` — Fig. 9(a–c): one 4096² f64 dataset (128 MiB) on each of
//! the three architectures at `SystemConfig::paper_scale()`. A rep reads
//! four row panels, four column panels and four submatrices (n/16 … n/2)
//! from every architecture into one reused buffer.
//!
//! Why it is here: 36 huge commands, so the flash page store, the STL's
//! assembly copies and the memory footprint do nearly all the work; WFQ,
//! the queue pair, the pipeline and the kernels do none.

use nds_core::{ElementType, Shape};
use nds_sim::ObsConfig;
use nds_system::{DatasetId, ReadMetrics, SystemConfig};

use super::{check_block, fill_pattern, mean_abs_rel_err_pct, Archs, Collector, Verify, Workload};
use crate::metrics::Metrics;
use crate::spans::Rec;

/// Matrix side. 8192² was rejected: its set-up swung 3.0–6.5 s on
/// first-touch page faults in this sandbox.
const N: u64 = 4096;
/// Rows per population write.
const PANEL_ROWS: u64 = 512;
const ESIZE: usize = 8;
/// Request sides as divisors of `N`: n/16, n/8, n/4, n/2.
const DIVISORS: [u64; 4] = [16, 8, 4, 2];

/// Fig. 9(a): software NDS reaches 3.8 of the baseline's 4.3 GB/s on row
/// fetches, hardware NDS matches the baseline.
const PAPER_SW_OVER_BASELINE: f64 = 3.8 / 4.3;
const PAPER_HW_OVER_BASELINE: f64 = 1.0;

/// See the module docs.
#[derive(Debug)]
pub struct BulkRead {
    seed: u64,
    config: SystemConfig,
    archs: Archs,
    ids: [DatasetId; 3],
    shape: Shape,
    buf: Vec<u8>,
    /// Modeled MiB/s of the n/2-row panel per architecture, from the last
    /// rep (the model is deterministic, so every rep gives the same).
    half_panel_mib_s: [f64; 3],
}

impl Workload for BulkRead {
    const NAME: &'static str = "bulk_read";
    const WARMUP_REPS: usize = 2;
    const TRACED_REPS: usize = 5;

    fn setup(seed: u64, obs: ObsConfig, rec: &Rec) -> Result<Self, String> {
        let config = SystemConfig::paper_scale().with_observability(obs);
        let mut archs = Archs::new(&config, rec);
        let shape = Shape::new([N, N]);
        let mut ids = [DatasetId(0); 3];
        for (sys, id) in archs.each().into_iter().zip(&mut ids) {
            *id = sys
                .create_dataset(shape.clone(), ElementType::F64)
                .map_err(|e| format!("{}: create: {e}", sys.name()))?;
        }
        let mut panel = vec![0u8; (N * PANEL_ROWS) as usize * ESIZE];
        for p in 0..N / PANEL_ROWS {
            fill_pattern(&mut panel, ESIZE, seed, 0, p * PANEL_ROWS * N);
            for (sys, id) in archs.each().into_iter().zip(ids) {
                sys.write(id, &shape, &[0, p], &[N, PANEL_ROWS], &panel)
                    .map_err(|e| format!("{}: populate panel {p}: {e}", sys.name()))?;
            }
        }
        Ok(BulkRead {
            seed,
            config,
            archs,
            ids,
            shape,
            buf: Vec::new(),
            half_panel_mib_s: [0.0; 3],
        })
    }

    fn rep(&mut self, rec: &Rec, verify: Verify) {
        let BulkRead {
            seed,
            archs,
            ids,
            shape,
            buf,
            half_panel_mib_s,
            ..
        } = self;
        for (a, (sys, id)) in archs.each().into_iter().zip(*ids).enumerate() {
            let _arch = rec.span(sys.name());
            let mut read = |coord: [u64; 2], sub: [u64; 2]| -> Option<ReadMetrics> {
                let metrics = sys.read_into(id, shape, &coord, &sub, buf).ok()?;
                let geometry = (N, coord[0] * sub[0], coord[1] * sub[1], sub[0]);
                rec.check(
                    buf.len() as u64 == sub[0] * sub[1] * ESIZE as u64
                        && check_block(buf, ESIZE, *seed, geometry, verify, |_| 0),
                );
                Some(metrics)
            };
            for d in DIVISORS {
                let side = N / d;
                let rows = read([0, 0], [N, side]);
                read([0, 0], [side, N]);
                read([1, 1], [side, side]);
                if let (2, Some(m)) = (d, rows) {
                    half_panel_mib_s[a] = m.effective_bandwidth().as_mib_per_sec();
                }
            }
        }
    }

    fn paper_err_pct(&self) -> Option<f64> {
        let [base, sw, hw] = self.half_panel_mib_s;
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

    /// The acceptance check "a corrupted byte fails the run": a clean rep
    /// passes, and after one stored element is overwritten behind the
    /// benchmark's back every read that covers it is counted as failed.
    #[test]
    fn a_corrupted_stored_byte_is_counted_as_failed() {
        let rec = Rec::new(false);
        let mut w = BulkRead::setup(3, ObsConfig::disabled(), &rec).unwrap();
        w.rep(&rec, Verify::Full);
        assert_eq!(rec.ops().1, 0, "clean data must verify");

        let [_, _, hardware] = w.archs.each();
        hardware
            .write(w.ids[2], &w.shape, &[300, 300], &[1, 1], &[0xEE; ESIZE])
            .unwrap();
        w.rep(&rec, Verify::Full);
        // Element (300, 300) lies in the n/8, n/4 and n/2 row and column
        // panels and in the n/4 submatrix at [1, 1]: 7 of hardware's reads.
        assert_eq!(rec.ops().1, 7);
    }
}

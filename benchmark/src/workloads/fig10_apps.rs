//! `fig10_apps` — Fig. 10: all ten Table-1 applications at
//! `WorkloadParams::bench(seed)` on the baseline, software-NDS and
//! hardware-NDS systems, configured as the `fig10` figure binary configures
//! them (`block_multiplier = 1`, fixed per-command costs scaled by 2). A
//! rep is one pass over the 30 application × architecture runs, each on a
//! fresh system.
//!
//! Why it is here: hundreds of thousands of small and medium commands plus
//! functional kernels and the four-stage pipeline, so the workload kernels,
//! the host pipeline, the accelerator model and the STL translator / plan
//! cache dominate; datasets are 16 MiB, so the page store is minor.

use std::time::Instant;

use nds_sim::ObsConfig;
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};
use nds_workloads::{all_workloads, data, Workload as App, WorkloadParams, WorkloadRun};

use super::{mean_abs_rel_err_pct, Collector, Verify, Workload};
use crate::metrics::{Metrics, APPS};
use crate::spanned::Spanned;
use crate::spans::Rec;

/// The paper's headline geometric-mean speedups over the baseline.
const PAPER_SW_SPEEDUP: f64 = 5.07;
const PAPER_HW_SPEEDUP: f64 = 5.73;

/// Same calibration as the `fig10` binary: partially rescale the fixed
/// per-command costs toward this dataset scale's smaller requests.
const COST_SCALE: u64 = 2;

/// See the module docs.
pub struct Fig10Apps {
    params: WorkloadParams,
    config: SystemConfig,
    apps: Vec<Box<dyn App>>,
    references: Vec<u64>,
    /// Host seconds the reference checksums (pure kernels) took in set-up.
    kernel_wall_s: f64,
    /// Host seconds per application, summed over reps and architectures.
    app_wall_s: [f64; 10],
    /// `(baseline, software, hardware)` runs of the last rep, per app.
    last: Vec<[WorkloadRun; 3]>,
    acc: Collector,
}

impl std::fmt::Debug for Fig10Apps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fig10Apps")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

impl Fig10Apps {
    /// Runs `app` on `sys`, checks its checksum and folds the system into
    /// the per-layer accumulator.
    fn run_one<S: StorageFrontEnd>(
        &mut self,
        a: usize,
        mut sys: Spanned<S>,
        rec: &Rec,
    ) -> (Option<WorkloadRun>, Spanned<S>) {
        let _arch = rec.span(sys.name());
        let run = self.apps[a].run(&mut sys).ok();
        if let Some(run) = &run {
            rec.check(run.checksum == self.references[a]);
        }
        if rec.tracing() {
            rec.untimed(|| self.acc.absorb(&sys));
        }
        (run, sys)
    }

    fn speedups(&self) -> (f64, f64) {
        let ratio = |arch: usize| {
            geomean(
                self.last
                    .iter()
                    .map(move |r| r[0].total.as_secs_f64() / r[arch].total.as_secs_f64()),
            )
        };
        (ratio(1), ratio(2))
    }
}

impl Workload for Fig10Apps {
    const NAME: &'static str = "fig10_apps";
    const WARMUP_REPS: usize = 0;
    const TRACED_REPS: usize = 1;
    const USES_PIPELINE: bool = true;

    fn setup(seed: u64, obs: ObsConfig, _rec: &Rec) -> Result<Self, String> {
        let params = WorkloadParams::bench(seed);
        let mut config = SystemConfig::paper_scale().with_observability(obs);
        config.stl.block_multiplier = 1;
        let config = config.with_scaled_command_costs(COST_SCALE);
        let apps = all_workloads(params);
        if apps.len() != APPS.len() {
            return Err(format!(
                "expected {} applications, got {}",
                APPS.len(),
                apps.len()
            ));
        }
        let started = Instant::now();
        let references = apps.iter().map(|app| app.reference_checksum()).collect();
        Ok(Fig10Apps {
            params,
            config,
            apps,
            references,
            kernel_wall_s: started.elapsed().as_secs_f64(),
            app_wall_s: [0.0; 10],
            last: Vec::new(),
            acc: Collector::default(),
        })
    }

    fn rep(&mut self, rec: &Rec, _verify: Verify) {
        let mut last = Vec::with_capacity(self.apps.len());
        for (a, name) in APPS.iter().enumerate() {
            let _app = rec.span(name);
            let watch = rec.stopwatch();
            let config = self.config.clone();
            let (base, _) = self.run_one(
                a,
                Spanned::new(BaselineSystem::new(config.clone()), rec),
                rec,
            );
            let (sw, sw_sys) =
                self.run_one(a, Spanned::new(SoftwareNds::new(config.clone()), rec), rec);
            let (hw, hw_sys) = self.run_one(a, Spanned::new(HardwareNds::new(config), rec), rec);
            if rec.tracing() {
                self.acc.translation_bytes += sw_sys.inner().stl().translation_bytes()
                    + hw_sys.inner().stl().translation_bytes();
            }
            self.app_wall_s[a] += watch.seconds(rec);
            if let (Some(base), Some(sw), Some(hw)) = (base, sw, hw) {
                last.push([base, sw, hw]);
            }
        }
        self.last = last;
    }

    fn paper_err_pct(&self) -> Option<f64> {
        if self.last.len() != self.apps.len() {
            return None; // a run failed; it is already counted
        }
        let (sw, hw) = self.speedups();
        Some(mean_abs_rel_err_pct(&[
            (sw, PAPER_SW_SPEEDUP),
            (hw, PAPER_HW_SPEEDUP),
        ]))
    }

    fn config(&self) -> SystemConfig {
        self.config.clone()
    }

    fn collect(&mut self, c: &mut Collector, m: &mut Metrics) {
        *c = std::mem::take(&mut self.acc);
        for (app, wall) in APPS.iter().zip(self.app_wall_s) {
            m.real(&format!("workloads.{app}.wall_s"), wall);
        }
        m.real("workloads.kernel_wall_s", self.kernel_wall_s);
        let runs = || self.last.iter().flatten();
        m.count("workloads.commands", runs().map(|r| r.commands).sum());
        m.count("workloads.bytes", runs().map(|r| r.bytes).sum());
        m.count(
            "accel.modeled_kernel_busy_ns",
            runs().map(|r| r.kernel_busy.as_nanos()).sum(),
        );
        m.count(
            "accel.modeled_kernel_idle_ns",
            runs().map(|r| r.kernel_idle.as_nanos()).sum(),
        );
        if self.last.len() == self.apps.len() {
            let (sw, hw) = self.speedups();
            m.real("workloads.sw_speedup_x", sw);
            m.real("workloads.hw_speedup_x", hw);
        }
    }

    /// The dataset generators alone, at this workload's scale: the two GEMM
    /// matrices, the tensor, the clustering points and the graph with its
    /// weights and link matrix.
    fn extra_probes(&self, rec: &Rec, m: &mut Metrics) {
        let _probe = rec.span("probe.workloads.datagen");
        let (n, seed) = (self.params.n, self.params.seed);
        let started = Instant::now();
        std::hint::black_box(data::matrix_f32(n, n, seed));
        std::hint::black_box(data::matrix_f32(n, n, seed ^ 0xA5A5));
        // A cube with the matrices' element count: side = n^(2/3).
        let side = ((n * n) as f64).cbrt().round() as u64;
        std::hint::black_box(data::tensor_f32(side, seed));
        std::hint::black_box(data::clustering_f32(n, n, seed));
        let adjacency = data::adjacency_u8(n, n * 8, seed);
        std::hint::black_box(data::weights_i32(&adjacency, n, seed));
        std::hint::black_box(data::pagerank_links_f32(&adjacency, n));
        m.real("workloads.datagen_wall_s", started.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_application_data() {
        // `setup` computes ten reference runs, too slow for a unit test; the
        // seed's path is `WorkloadParams::bench(seed)` → every generator.
        let (a, b) = (WorkloadParams::bench(1), WorkloadParams::bench(2));
        assert_eq!((a.seed, b.seed), (1, 2));
        assert_ne!(
            data::matrix_f32(8, 8, a.seed),
            data::matrix_f32(8, 8, b.seed)
        );
        assert_ne!(
            data::adjacency_u8(16, 64, a.seed),
            data::adjacency_u8(16, 64, b.seed)
        );
        assert_eq!(all_workloads(a).len(), APPS.len());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert!((geomean([5.0].into_iter()) - 5.0).abs() < 1e-12);
    }
}

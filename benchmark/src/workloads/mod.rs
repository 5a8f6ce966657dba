//! The five workloads and what they share: the [`Workload`] contract the
//! harness drives, the seeded data patterns, and the [`Collector`] that
//! turns the product's public accessors into per-layer counts.

pub mod bulk_read;
pub mod cluster_failover;
pub mod fig10_apps;
pub mod tenant_mix;
pub mod write_churn;

use std::collections::BTreeMap;
use std::time::Instant;

use nds_sim::{ObsConfig, Stats};
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

use crate::metrics::Metrics;
use crate::spanned::Spanned;
use crate::spans::Rec;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 5] = [
    "bulk_read",
    "write_churn",
    "fig10_apps",
    "tenant_mix",
    "cluster_failover",
];

/// How much of each output a rep checks. Warm-up reps check every byte;
/// measured reps check a strided sample, so the harness's own memory
/// traffic stays a small share of the rep it is timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Every byte.
    Full,
    /// Every [`SAMPLE_STRIDE`]-th element.
    Sampled,
}

/// Element stride of [`Verify::Sampled`]; prime, so samples drift across
/// rows and tiles instead of landing on one column.
pub const SAMPLE_STRIDE: usize = 509;

/// One benchmark workload: a set-up, then one fixed op list run again and
/// again. All workloads are closed loop with one client — the next
/// front-end call is issued when the previous returns.
pub trait Workload: Sized {
    /// Name, as `--workload` takes it.
    const NAME: &'static str;
    /// Reps run and discarded before the measured phase.
    const WARMUP_REPS: usize;
    /// Reps of the traced run's two fixed-size passes.
    const TRACED_REPS: usize;
    /// Whether requests pass a WFQ scheduler (the WFQ probe replays only
    /// what the workload really queued).
    const USES_WFQ: bool = false;
    /// Whether reads feed `nds_host::pipeline` (same rule).
    const USES_PIPELINE: bool = false;

    /// Builds systems, generates data from `seed`, populates, and computes
    /// whatever references the output checks compare against.
    ///
    /// # Errors
    ///
    /// A description of the front-end error that stopped the set-up.
    fn setup(seed: u64, obs: ObsConfig, rec: &Rec) -> Result<Self, String>;

    /// Runs the op list once. Front-end errors and failed output checks
    /// are counted in `rec`, never retried.
    fn rep(&mut self, rec: &Rec, verify: Verify);

    /// A last whole-dataset check after the measured phase (untimed).
    fn final_check(&mut self, _rec: &Rec) {}

    /// Mean absolute relative error of the modeled results against the
    /// paper's published numbers, in percent — `None` where the paper
    /// publishes nothing comparable.
    fn paper_err_pct(&self) -> Option<f64>;

    /// The configuration the systems were built from (the probes build
    /// bare layers of the same geometry).
    fn config(&self) -> SystemConfig;

    /// Folds every system the workload still holds into `c`, and sets the
    /// metrics only this workload can know.
    fn collect(&mut self, c: &mut Collector, m: &mut Metrics);

    /// Probes of layers only this workload uses (kernels, generators).
    fn extra_probes(&self, _rec: &Rec, _m: &mut Metrics) {}
}

/// splitmix64 finalizer: the one source of pseudo-randomness in the
/// benchmark's inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 8 pattern bytes of element `index` of a dataset at `version`
/// (narrower elements take the low bytes). Never all-zero in practice, so
/// the STL's zero-unit elision does not skip benchmark data.
pub fn element_pattern(seed: u64, version: u64, index: u64) -> u64 {
    mix(seed ^ version.wrapping_mul(0xa076_1d64_78bd_642f) ^ index) | 1
}

/// Fills `buf` with the pattern of `buf.len() / esize` consecutive elements
/// starting at `first`.
pub fn fill_pattern(buf: &mut [u8], esize: usize, seed: u64, version: u64, first: u64) {
    for (i, chunk) in buf.chunks_exact_mut(esize).enumerate() {
        let word = element_pattern(seed, version, first + i as u64).to_le_bytes();
        chunk.copy_from_slice(&word[..esize]);
    }
}

/// Checks that `data` holds a dense `width`-element-wide block of a
/// row-major 2-D dataset (`row_len` elements per row) whose first element is
/// `(x0, y0)`, against the pattern `version_of(element index)` says each
/// element was last written with.
pub fn check_block(
    data: &[u8],
    esize: usize,
    seed: u64,
    geometry: (u64, u64, u64, u64),
    verify: Verify,
    version_of: impl Fn(u64) -> u64,
) -> bool {
    let (row_len, x0, y0, width) = geometry;
    let step = match verify {
        Verify::Full => 1,
        Verify::Sampled => SAMPLE_STRIDE,
    };
    if !data.len().is_multiple_of(esize) {
        return false;
    }
    let elems = data.len() / esize;
    let mut k = 0;
    while k < elems {
        let (row, col) = (k as u64 / width, k as u64 % width);
        let index = (y0 + row) * row_len + x0 + col;
        let want = element_pattern(seed, version_of(index), index).to_le_bytes();
        if data[k * esize..(k + 1) * esize] != want[..esize] {
            return false;
        }
        k += step;
    }
    true
}

/// The three architectures of the paper, each behind a [`Spanned`] wrapper.
#[derive(Debug)]
pub struct Archs {
    /// Conventional SSD.
    pub baseline: Spanned<BaselineSystem>,
    /// STL on the host.
    pub software: Spanned<SoftwareNds>,
    /// STL in the controller.
    pub hardware: Spanned<HardwareNds>,
}

impl Archs {
    /// Builds the three systems from one configuration.
    pub fn new(config: &SystemConfig, rec: &Rec) -> Self {
        Archs {
            baseline: Spanned::new(BaselineSystem::new(config.clone()), rec),
            software: Spanned::new(SoftwareNds::new(config.clone()), rec),
            hardware: Spanned::new(HardwareNds::new(config.clone()), rec),
        }
    }

    /// The systems as trait objects, baseline first.
    pub fn each(&mut self) -> [&mut dyn StorageFrontEnd; 3] {
        [&mut self.baseline, &mut self.software, &mut self.hardware]
    }

    /// Folds the three systems into `c`.
    pub fn collect(&self, c: &mut Collector) {
        c.absorb(&self.baseline);
        c.absorb(&self.software);
        c.absorb(&self.hardware);
        c.translation_bytes += self.software.inner().stl().translation_bytes()
            + self.hardware.inner().stl().translation_bytes();
    }
}

/// The metric-name segment of an architecture: a cluster is a set of
/// hardware-NDS devices, so it reports under `hardware`.
pub fn arch_key(arch: &str) -> &'static str {
    match arch {
        "baseline" => "baseline",
        "software-nds" => "software",
        _ => "hardware",
    }
}

/// Per-layer counts and modeled partitions gathered from the product's
/// public accessors (`stats()`, `run_report()`, `trace_export()` +
/// `nds_prof::analyze`). Everything here repeats exactly for one seed.
#[derive(Debug, Default)]
pub struct Collector {
    /// Summed counters per architecture name.
    pub stats: BTreeMap<&'static str, Stats>,
    /// Flash-backed systems folded in (each built one `FlashDevice`).
    pub devices: u64,
    /// Pages the flash timing model served for reads, per architecture
    /// (`PageRead` journal events: the data path `peek`s, so the devices'
    /// own `flash.pages_read` counter only sees GC and migration reads).
    pub page_reads: BTreeMap<&'static str, u64>,
    /// Journal events recorded across every component.
    pub journal_events: u64,
    /// Journal events the bounded rings dropped.
    pub journal_dropped: u64,
    /// Modeled nanoseconds per trace stage (queue/link/flash/…), from the
    /// commands the trace rings retained.
    pub stage_ns: BTreeMap<String, u64>,
    /// Host seconds spent rendering, parsing and analysing traces.
    pub analyze_wall_s: f64,
    /// Bytes of rendered Chrome trace.
    pub trace_bytes: u64,
    /// STL translation metadata held, bytes.
    pub translation_bytes: u64,
}

impl Collector {
    /// Folds one front-end in: counters, journal health, and — when it was
    /// built traced — its exact modeled stage partition.
    pub fn absorb<S: StorageFrontEnd + ?Sized>(&mut self, sys: &S) {
        self.devices += 1;
        self.stats
            .entry(sys.name())
            .or_default()
            .merge(&sys.stats());
        let journal = sys.run_report().journal;
        *self.page_reads.entry(sys.name()).or_default() +=
            journal.by_kind.get("PageRead").copied().unwrap_or(0);
        self.journal_events += journal.recorded;
        self.journal_dropped += journal.dropped;
        if let Some(export) = sys.trace_export() {
            let started = Instant::now();
            let rendered = nds_prof::render(&[(sys.name().to_owned(), export)]);
            self.trace_bytes += rendered.len() as u64;
            if let Ok(profiles) = nds_prof::parse(&rendered) {
                for profile in &profiles {
                    for (stage, ns, _) in nds_prof::analyze(profile).attribution {
                        *self.stage_ns.entry(stage).or_default() += ns;
                    }
                }
            }
            self.analyze_wall_s += started.elapsed().as_secs_f64();
        }
    }

    /// A counter summed over every architecture.
    pub fn total(&self, name: &str) -> u64 {
        self.stats.values().map(|s| s.get(name)).sum()
    }

    /// A counter summed over the NDS architectures (everything but the
    /// baseline), whose flash work goes through `FlashBackend`.
    pub fn nds(&self, name: &str) -> u64 {
        self.total(name) - self.baseline(name)
    }

    /// A counter of the baseline architecture, whose flash work goes
    /// through the FTL.
    pub fn baseline(&self, name: &str) -> u64 {
        self.stats.get("baseline").map_or(0, |s| s.get(name))
    }

    /// Pages served for reads by the baseline's devices.
    pub fn baseline_page_reads(&self) -> u64 {
        self.page_reads.get("baseline").copied().unwrap_or(0)
    }

    /// Pages served for reads by the NDS architectures' devices.
    pub fn nds_page_reads(&self) -> u64 {
        self.page_reads.values().sum::<u64>() - self.baseline_page_reads()
    }

    /// Writes the counts every workload shares into `m`.
    pub fn fill(&self, page_size: u64, m: &mut Metrics) {
        for name in [
            "system.read_commands",
            "system.write_commands",
            "system.read_bytes",
            "system.write_bytes",
            "flash.pages_programmed",
            "flash.blocks_erased",
        ] {
            m.count(name, self.total(name));
        }
        m.count("flash.pages_read", self.page_reads.values().sum());
        let hits = self.total("stl.plan_cache.hits");
        let misses = self.total("stl.plan_cache.misses");
        m.count("core.plan_cache_hits", hits);
        m.count("core.plan_cache_misses", misses);
        m.real(
            "core.plan_cache_hit_ratio",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        );
        m.count("core.translation_bytes", self.translation_bytes);
        m.count(
            "flash.gc_runs",
            self.total("ftl.gc_runs") + self.total("backend.gc_runs"),
        );
        m.count(
            "flash.gc_relocated",
            self.total("ftl.gc_relocated") + self.total("backend.gc_relocated"),
        );
        let written = self.total("system.write_bytes");
        m.real(
            "flash.write_amp",
            if written > 0 {
                (self.total("flash.pages_programmed") * page_size) as f64 / written as f64
            } else {
                0.0
            },
        );
        m.count("interconnect.link_commands", self.total("link.commands"));
        m.count("interconnect.link_bytes", self.total("link.bytes"));
        m.count("interconnect.wire_bytes", self.total("nvme.wire_bytes"));
        let stage = |s: &str| self.stage_ns.get(s).copied().unwrap_or(0);
        m.count("interconnect.modeled_link_ns", stage("link"));
        m.count("interconnect.modeled_queue_ns", stage("queue"));
        m.count("flash.modeled_ns", stage("flash"));
        m.count("host.modeled_restructure_ns", stage("restructure"));
        m.count("sim.journal_events", self.journal_events);
        m.count("sim.journal_dropped", self.journal_dropped);
        m.real("prof.analyze_wall_s", self.analyze_wall_s);
        m.count("prof.trace_bytes", self.trace_bytes);
    }
}

/// Mean of `|got / want − 1|` over `(got, want)` pairs, in percent.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs
        .iter()
        .map(|(got, want)| (got / want - 1.0).abs())
        .sum();
    100.0 * sum / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_depends_on_seed_version_and_index() {
        let base = element_pattern(1, 0, 0);
        assert_ne!(base, element_pattern(2, 0, 0));
        assert_ne!(base, element_pattern(1, 1, 0));
        assert_ne!(base, element_pattern(1, 0, 1));
        assert_eq!(base, element_pattern(1, 0, 0));
    }

    #[test]
    fn check_block_finds_a_planted_byte() {
        // A 4-wide, 3-high block at (2, 1) of an 8-wide f32 dataset.
        let (esize, seed) = (4, 9);
        let mut data = Vec::new();
        for row in 0..3u64 {
            let mut line = vec![0u8; 4 * esize];
            fill_pattern(&mut line, esize, seed, 5, (1 + row) * 8 + 2);
            data.extend(line);
        }
        let geometry = (8, 2, 1, 4);
        assert!(check_block(
            &data,
            esize,
            seed,
            geometry,
            Verify::Full,
            |_| 5
        ));
        assert!(!check_block(
            &data,
            esize,
            seed,
            geometry,
            Verify::Full,
            |_| 6
        ));
        data[17] ^= 0x40;
        assert!(!check_block(
            &data,
            esize,
            seed,
            geometry,
            Verify::Full,
            |_| 5
        ));
        // A truncated buffer is a mismatch, not a panic.
        assert!(!check_block(
            &data[..7],
            esize,
            seed,
            geometry,
            Verify::Full,
            |_| 5
        ));
    }

    #[test]
    fn error_against_paper_is_mean_of_relative_errors() {
        let e = mean_abs_rel_err_pct(&[(5.44, 5.07), (5.81, 5.73)]);
        assert!((e - 4.35).abs() < 0.05, "{e}");
    }
}

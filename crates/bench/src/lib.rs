//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig2` | Fig. 2(a)(b): row-store vs sub-block blocked MM cost |
//! | `fig3` | Fig. 3: processing rates / bandwidths vs matrix size |
//! | `fig9` | Fig. 9(a–d): row/column/submatrix/write micro-benchmarks |
//! | `fig10` | Fig. 10(a)(b): end-to-end speedups and kernel idle time |
//! | `overhead` | §7.3: STL latency and space overhead |
//! | `tenants` | multi-tenant WFQ traffic engine: shares, depth, fairness |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::{Path, PathBuf};

use nds_core::{ElementType, Shape};
use nds_sim::{ObsConfig, RunReport, TraceExport};
use nds_system::{DatasetId, StorageFrontEnd, SystemError};

/// Splits `--<flag> <value>` (or `--<flag>=<value>`) out of a raw argument
/// list, returning the value if present plus the remaining arguments with
/// the flag removed — so each binary's positional parsing is unaffected.
fn take_flag(flag: &str, args: Vec<String>) -> (Option<String>, Vec<String>) {
    let prefix = format!("{flag}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == flag {
            value = it.next();
        } else if let Some(v) = a.strip_prefix(&prefix) {
            value = Some(v.to_owned());
        } else {
            rest.push(a);
        }
    }
    (value, rest)
}

/// Splits `--<flag> <n>` (or `--<flag>=<n>`) out of a raw argument list,
/// returning the number (`default` when absent or unparseable) plus the
/// remaining arguments.
pub fn take_u64_flag(flag: &str, default: u64, args: Vec<String>) -> (u64, Vec<String>) {
    let (value, rest) = take_flag(flag, args);
    (value.and_then(|v| v.parse().ok()).unwrap_or(default), rest)
}

/// The artifact destinations a bench run was asked for, and what the run
/// has collected for them so far — the one harness behind every binary's
/// `--report`, `--trace` and `--dashboard` flags (each also accepted as
/// `--flag=<path>`). The report is the one JSON artifact: the dashboard's
/// `data.js` wraps the same JSON.
#[derive(Debug)]
pub struct Artifacts {
    /// `--report`: the merged [`RunReport`] as deterministic JSON.
    report_path: Option<PathBuf>,
    /// `--trace`: a Chrome trace-event (Perfetto-loadable) export of the
    /// run's causal per-command traces.
    trace_path: Option<PathBuf>,
    /// `--dashboard`: the static HTML telemetry dashboard (a sibling
    /// `<stem>.data.js` wrapping the report's JSON is written next to it).
    dashboard_path: Option<PathBuf>,
    /// The run's merged report: what `--report` and `--dashboard` render.
    pub report: RunReport,
    /// The run's causal traces by label: what `--trace` renders. The label
    /// becomes the Chrome process name, so use `"<panel>.<architecture>"`
    /// style names.
    pub traces: Vec<(String, TraceExport)>,
}

impl Artifacts {
    /// Splits the three artifact flags out of a raw argument list (as from
    /// `std::env::args().skip(1)`), returning the remaining arguments so
    /// each binary's own parsing is unaffected.
    pub fn from_args(args: Vec<String>) -> (Artifacts, Vec<String>) {
        let (report, args) = take_flag("--report", args);
        let (trace, args) = take_flag("--trace", args);
        let (dashboard, args) = take_flag("--dashboard", args);
        let artifacts = Artifacts {
            report_path: report.map(PathBuf::from),
            trace_path: trace.map(PathBuf::from),
            dashboard_path: dashboard.map(PathBuf::from),
            report: RunReport::new(),
            traces: Vec::new(),
        };
        (artifacts, args)
    }

    /// True when an artifact derived from the run's [`RunReport`] was
    /// requested (`--report` or `--dashboard`).
    pub fn wants_report(&self) -> bool {
        self.report_path.is_some() || self.dashboard_path.is_some()
    }

    /// The observability configuration the run should build its systems
    /// with: causal tracing on top of full instrumentation when a trace was
    /// requested, full instrumentation for any report-derived artifact,
    /// disabled (one dead branch per hook) otherwise.
    pub fn obs(&self) -> ObsConfig {
        if self.trace_path.is_some() {
            ObsConfig::traced()
        } else if self.wants_report() {
            ObsConfig::full()
        } else {
            ObsConfig::disabled()
        }
    }

    /// Folds a finished system into the run: its report merges into
    /// [`report`](Self::report) under `<label>.`-prefixed names, and its
    /// causal trace (if tracing was on) joins [`traces`](Self::traces)
    /// under `label`.
    pub fn absorb<S: StorageFrontEnd + ?Sized>(&mut self, label: &str, sys: &S) {
        self.report
            .merge_prefixed(&format!("{label}."), &sys.run_report());
        if let Some(export) = sys.trace_export() {
            self.traces.push((label.to_string(), export));
        }
    }

    /// Writes every requested artifact of a finished run — all
    /// byte-identical across repeated runs — calling
    /// `announce("report" | "trace", path)` after those two so each binary
    /// keeps its own wording and stream.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing any file.
    pub fn write(&self, mut announce: impl FnMut(&str, &Path)) -> std::io::Result<()> {
        if self.wants_report() {
            // Rendered once for both artifacts. The trailing newline makes
            // repeated runs diff clean; `write_data_js` trims it.
            let mut json = self.report.to_json();
            json.push('\n');
            if let Some(path) = &self.report_path {
                std::fs::write(path, &json)?;
                announce("report", path);
            }
            if let Some(path) = &self.dashboard_path {
                // The page references the verbatim-embedded report JSON in
                // a sibling `<stem>.data.js` by relative name.
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("dashboard");
                let data_name = format!("{stem}.data.js");
                std::fs::write(path, nds_prof::html_page(&data_name))?;
                let mut data = std::fs::File::create(path.with_file_name(&data_name))?;
                nds_prof::write_data_js(&mut data, &json)?;
            }
        }
        if let Some(path) = &self.trace_path {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            nds_prof::write_trace(&mut out, &self.traces)?;
            out.flush()?;
            announce("trace", path);
        }
        Ok(())
    }
}

/// The figure binaries' [`Artifacts::write`] announcer: one stderr line per
/// written report or trace.
pub fn announce_on_stderr(what: &str, path: &Path) {
    let what = if what == "report" {
        "run report"
    } else {
        "chrome trace"
    };
    eprintln!("{what} written to {}", path.display());
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|c| (*c).to_owned()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Creates an `n × n` f64 dataset filled with a deterministic byte pattern
/// and writes it through the front-end (the Fig. 9 microbenchmark setup).
///
/// # Errors
///
/// Propagates front-end errors.
///
/// # Panics
///
/// Panics if the dataset byte volume does not fit in memory.
pub fn setup_matrix_f64<S: StorageFrontEnd + ?Sized>(
    sys: &mut S,
    n: u64,
) -> Result<DatasetId, SystemError> {
    let shape = Shape::new([n, n]);
    let id = sys.create_dataset(shape.clone(), ElementType::F64)?;
    let bytes: Vec<u8> = (0..n * n * 8).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[n, n], &bytes)?;
    Ok(id)
}

/// Geometric mean of a slice of positive ratios.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    fn artifacts(args: &[&str]) -> (Artifacts, Vec<String>) {
        Artifacts::from_args(args.iter().map(|a| (*a).to_owned()).collect())
    }

    #[test]
    fn report_flag_is_stripped_wherever_it_sits() {
        let (art, rest) = artifacts(&["a", "--report", "out.json", "b"]);
        assert_eq!(art.report_path.as_deref(), Some(Path::new("out.json")));
        assert_eq!(rest, ["a", "b"]);
        assert_eq!(art.obs(), ObsConfig::full());

        let (art, rest) = artifacts(&["--report=r.json"]);
        assert_eq!(art.report_path.as_deref(), Some(Path::new("r.json")));
        assert!(rest.is_empty());

        let (art, rest) = artifacts(&["c"]);
        assert!(art.report_path.is_none() && !art.wants_report());
        assert_eq!(rest, ["c"]);
        assert_eq!(art.obs(), ObsConfig::disabled());
    }

    #[test]
    fn trace_flag_enables_tracing() {
        let (art, rest) = artifacts(&["a", "--trace", "t.json", "b"]);
        assert_eq!(art.trace_path.as_deref(), Some(Path::new("t.json")));
        assert_eq!(rest, ["a", "b"]);
        let obs = art.obs();
        assert!(obs.tracing() && obs.collecting());
        assert!(!art.wants_report(), "a trace alone needs no report");
    }

    #[test]
    fn dashboard_flag_wants_the_full_report() {
        let (art, rest) = artifacts(&["--dashboard=d.html", "x"]);
        assert_eq!(art.dashboard_path.as_deref(), Some(Path::new("d.html")));
        assert_eq!(rest, ["x"]);
        assert!(art.wants_report());
        assert_eq!(art.obs(), ObsConfig::full());
    }

    #[test]
    fn report_flag_alone_records_series_and_a_cluster_kill_mark() {
        use nds_faults::ClusterFaultPlan;
        use nds_system::{ClusterConfig, HardwareNds, NdsCluster, SoftwareNds, SystemConfig};
        use nds_workloads::cluster::cluster_dataset;
        let (mut art, _) = artifacts(&["--report", "r.json"]);
        let obs = art.obs();

        let mut sys = SoftwareNds::new(SystemConfig::small_test().with_observability(obs));
        let id = setup_matrix_f64(&mut sys, 64).unwrap();
        sys.read(id, &Shape::new([64, 64]), &[1, 1], &[16, 16])
            .unwrap();
        art.absorb("sw", &sys);
        let series = &art.report.series;
        assert_eq!(series.get("sw.host.ops").map(|s| s.total), Some(2));
        assert!(series.contains_key("sw.busy.link"), "busy timeline missing");

        let cfg = ClusterConfig::new(2, 2)
            .with_observability(obs)
            .with_plan(ClusterFaultPlan::kill_at(2, 1));
        let mut cluster = NdsCluster::new(cfg, |_| {
            HardwareNds::new(SystemConfig::small_test().with_observability(obs))
        });
        let (shape, element) = cluster_dataset();
        let id = cluster.create_dataset(shape.clone(), element).unwrap();
        let mut buf = Vec::new();
        for _ in 0..3 {
            cluster
                .read_into(id, &shape, &[0, 0], &[8, 8], &mut buf)
                .unwrap();
        }
        let report = cluster.full_report();
        assert!(
            report.marks.iter().any(|m| m.label.contains("down")),
            "no device-down mark in {:?}",
            report.marks
        );
    }

    #[test]
    fn u64_flags_parse_both_spellings_and_fall_back() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            take_u64_flag("--ops", 9, args(&["x", "--ops", "4"])),
            (4, args(&["x"]))
        );
        assert_eq!(take_u64_flag("--ops", 9, args(&["--ops=5"])).0, 5);
        assert_eq!(take_u64_flag("--ops", 9, args(&["--ops", "many"])).0, 9);
        assert_eq!(take_u64_flag("--ops", 9, args(&["y"])), (9, args(&["y"])));
    }

    #[test]
    fn setup_matrix_round_trips() {
        use nds_system::{BaselineSystem, SystemConfig};
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let id = setup_matrix_f64(&mut sys, 32).unwrap();
        let shape = Shape::new([32, 32]);
        let out = sys.read(id, &shape, &[0, 0], &[32, 32]).unwrap();
        assert_eq!(out.data[0], 0);
        assert_eq!(out.data[1], 1);
    }

    #[test]
    fn dashboard_artifacts_are_byte_identical_across_runs() {
        use nds_system::{SoftwareNds, SystemConfig};
        // End to end: instrumented run → report JSON → dashboard page and
        // data payload, twice; every byte must match.
        let run_once = || {
            let obs = ObsConfig::full();
            let mut sys = SoftwareNds::new(SystemConfig::small_test().with_observability(obs));
            let id = setup_matrix_f64(&mut sys, 64).unwrap();
            let shape = Shape::new([64, 64]);
            sys.read(id, &shape, &[1, 1], &[16, 16]).unwrap();
            let report = sys.run_report();
            let json = report.to_json();
            let mut data = Vec::new();
            nds_prof::write_data_js(&mut data, &json).unwrap();
            (nds_prof::html_page("run.data.js"), data, json)
        };
        let (page_a, data_a, json_a) = run_once();
        let (page_b, data_b, json_b) = run_once();
        assert_eq!(json_a, json_b, "report JSON drifted between runs");
        assert_eq!(page_a, page_b, "dashboard HTML drifted between runs");
        assert_eq!(data_a, data_b, "dashboard data payload drifted");
        assert!(data_a.starts_with(b"const RUN = {"));
        assert!(json_a.contains("\"host.ops\""));
    }
}

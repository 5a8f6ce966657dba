//! Drives one workload in this process, single-threaded: the untraced run
//! that produces the end-to-end metrics, and the traced run that produces
//! the per-layer metrics. No end-to-end number ever comes from a traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nds_sim::ObsConfig;

use crate::metrics::{MetricDef, Metrics, Value, END_TO_END, PER_LAYER};
use crate::probes;
use crate::process;
use crate::spans::{OpKind, Rec};
use crate::stats::{percentile, Summary};
use crate::workloads::{arch_key, Collector, Verify, Workload};

/// Fewest set-ups a run times (it reports their median), unless
/// [`SETUP_BUDGET`] runs out first.
const SETUP_SAMPLES: usize = 3;
/// A quick set-up is sampled past [`SETUP_SAMPLES`] until its samples add up
/// to this much, so a 30 ms set-up's median rests on more than three.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(500);
/// Most set-up samples a run takes.
const SETUP_MAX_SAMPLES: usize = 25;
/// Total set-up time after which no further set-up sample is taken.
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// What one workload process was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase of an untraced run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Directory for `<workload>.spans.json`; nothing is written without it.
    pub out: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Exact values outside the run's catalogue, `(name, value, unit)`: an
    /// untraced run's op count per rep and error against the paper.
    pub extras: Vec<(&'static str, Value, &'static str)>,
    /// Human-readable notes (sample counts, percentiles).
    pub notes: Vec<String>,
    /// Front-end calls attempted over the whole process.
    pub attempted: u64,
    /// Calls that returned `Err`, plus failed output checks.
    pub failed: u64,
    /// The catalogue the run reports against.
    pub defs: &'static [MetricDef],
}

fn finish(
    rec: &[&Rec],
    metrics: Metrics,
    extras: Vec<(&'static str, Value, &'static str)>,
    notes: Vec<String>,
    trace: bool,
) -> RunResult {
    let (attempted, failed) = rec
        .iter()
        .map(|r| r.ops())
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    RunResult {
        metrics,
        extras,
        notes,
        attempted,
        failed,
        defs: if trace { PER_LAYER } else { END_TO_END },
    }
}

/// Runs workload `W` as `args` asks.
///
/// # Errors
///
/// The set-up failed, or `/proc` could not be read.
pub fn run<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

/// Set-up (median of a few), warm-up, then reps until `seconds` have
/// passed; tracing off throughout.
fn run_untraced<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let rec = Rec::new(false);
    let mut setup_samples = Vec::new();
    let mut setup_total = Duration::ZERO;
    let mut workload = None;
    while setup_samples.is_empty()
        || (setup_total < SETUP_BUDGET
            && setup_samples.len() < SETUP_MAX_SAMPLES
            && (setup_samples.len() < SETUP_SAMPLES || setup_total < SETUP_MIN_TOTAL))
    {
        drop(workload.take()); // one instance at a time, so peak RSS is one instance's
        let started = Instant::now();
        workload = Some(W::setup(args.seed, ObsConfig::disabled(), &rec)?);
        let took = started.elapsed();
        setup_total += took;
        setup_samples.push(took.as_secs_f64());
    }
    let Some(mut workload) = workload else {
        return Err("no set-up ran".to_owned());
    };

    for _ in 0..W::WARMUP_REPS {
        workload.rep(&rec, Verify::Full);
    }
    let ok_before = rec.ops_ok();
    let mut reps = Vec::new();
    let measured = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    loop {
        let started = Instant::now();
        workload.rep(&rec, Verify::Sampled);
        reps.push(started.elapsed().as_secs_f64());
        if measured.elapsed() >= budget {
            break;
        }
    }
    let ok_after = rec.ops_ok();
    workload.final_check(&rec);

    let mut m = Metrics::default();
    let setup = Summary::of(&setup_samples).ok_or("no set-up sample")?;
    let wall = Summary::of(&reps).ok_or("no rep sample")?;
    m.real("setup_s", setup.median);
    m.real("wall_s", wall.median);
    // From the median rep, like `wall_s`, so one slow rep does not move it.
    let per_rep = (ok_after - ok_before) / reps.len() as u64;
    m.real("ops_per_wall_s", per_rep as f64 / wall.median);
    m.real("peak_rss_mib", process::peak_rss_mib()?);
    let notes = vec![
        format!("setup_s: median of {} set-ups", setup.n),
        match wall.p90 {
            Some(p90) => format!("wall_s: median of {} reps, p90 {p90}", wall.n),
            None => format!("wall_s: median of {} reps", wall.n),
        },
    ];
    let mut extras = vec![("ops_per_rep", Value::Count(per_rep), "count")];
    if let Some(err) = workload.paper_err_pct() {
        extras.push(("paper_err_pct", Value::Real(err), "%"));
    }
    Ok(finish(&[&rec], m, extras, notes, false))
}

/// One fixed-size pass: a set-up and `W::TRACED_REPS` reps. Returns the
/// workload, the set-up time, the rep times and the front-end calls per rep.
fn fixed_pass<W: Workload>(
    seed: u64,
    obs: ObsConfig,
    rec: &Rec,
) -> Result<(W, f64, Vec<f64>, u64), String> {
    let _workload = rec.span(W::NAME);
    let watch = rec.stopwatch();
    let mut workload = {
        let _phase = rec.span("setup");
        W::setup(seed, obs, rec)?
    };
    let setup_s = watch.seconds(rec);
    let _phase = rec.span("measure");
    let ok_before = rec.ops_ok();
    let reps: Vec<f64> = (0..W::TRACED_REPS)
        .map(|_| {
            let _rep = rec.span("rep");
            let watch = rec.stopwatch();
            workload.rep(rec, Verify::Sampled);
            watch.seconds(rec)
        })
        .collect();
    let per_rep = (rec.ops_ok() - ok_before) / reps.len().max(1) as u64;
    Ok((workload, setup_s, reps, per_rep))
}

/// Two passes of identical, fixed size — first untraced, then traced with
/// `ObsConfig::traced()` and span recording — and then the layer probes.
/// Their rep-time ratio is the tracing overhead; counts and modeled values
/// come from the traced pass and repeat exactly because its size is fixed.
fn run_traced<W: Workload>(args: &RunArgs) -> Result<RunResult, String> {
    let mut m = Metrics::default();

    let plain_rec = Rec::new(false);
    let before = process::usage()?;
    let (plain, _, plain_reps, _) = fixed_pass::<W>(args.seed, ObsConfig::disabled(), &plain_rec)?;
    let used = process::usage()?.since(&before);
    drop(plain);
    m.real("process.user_cpu_s", used.user_cpu_s);
    m.real("process.sys_cpu_s", used.sys_cpu_s);
    m.real("process.sys_cpu_share", used.sys_share());
    m.count("process.minor_faults", used.minor_faults);

    let rec = Rec::new(true);
    rec.set_capture(true);
    let (mut traced, traced_setup_s, traced_reps, per_rep) =
        fixed_pass::<W>(args.seed, ObsConfig::traced(), &rec)?;
    rec.set_capture(false);

    let plain_wall: f64 = plain_reps.iter().sum();
    let traced_wall: f64 = traced_reps.iter().sum();
    m.real(
        "bench.untraced_wall_s",
        plain_wall / plain_reps.len() as f64,
    );
    m.real(
        "bench.traced_wall_s",
        traced_wall / traced_reps.len() as f64,
    );
    m.real(
        "sim.obs_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    if let Some(err) = traced.paper_err_pct() {
        m.real("model.paper_err_pct", err);
    }
    m.count("model.ops_per_rep", per_rep);

    let config = traced.config();
    let mut collector = Collector::default();
    traced.collect(&mut collector, &mut m);
    collector.fill(config.flash.geometry.page_size as u64, &mut m);
    front_end_walls(&rec, &mut m);
    {
        let _phase = rec.span("probes");
        traced.extra_probes(&rec, &mut m);
        drop(traced); // the probes build their own layers; free the systems first
        probes::run(
            &rec,
            &config,
            &collector,
            probes::Uses {
                wfq: W::USES_WFQ,
                pipeline: W::USES_PIPELINE,
            },
            &mut m,
        );
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.spans.json", W::NAME));
        std::fs::write(&path, rec.read(|r| r.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut notes = vec![
        format!(
            "fixed passes of 1 set-up + {} reps; traced set-up {traced_setup_s} s",
            W::TRACED_REPS
        ),
        format!("spans recorded {}", rec.read(|r| r.spans.len())),
    ];
    // What each scope spent outside its child spans: for `rep`, `arch` and
    // the application scopes that is the harness and the workload driver.
    rec.read(|r| {
        for (name, seconds, spans) in r.scope_self_times() {
            notes.push(format!("self_s {name} {seconds} in {spans} spans"));
        }
    });
    Ok(finish(&[&plain_rec, &rec], m, Vec::new(), notes, true))
}

/// Front-end wall time by architecture and call kind, and per-call
/// percentiles, from the traced pass's op spans.
fn front_end_walls(rec: &Rec, m: &mut Metrics) {
    rec.read(|r| {
        for ((arch, kind), ns) in &r.op_wall_ns {
            let seconds = *ns as f64 / 1e9;
            match kind {
                OpKind::Read => {
                    m.add_real(&format!("system.{}.read_wall_s", arch_key(arch)), seconds);
                }
                OpKind::Write => {
                    m.add_real(&format!("system.{}.write_wall_s", arch_key(arch)), seconds);
                }
                OpKind::Create => m.add_real("system.create_wall_s", seconds),
                OpKind::Delete => {}
            }
        }
        for (arch, ns) in &r.modeled_ns {
            let name = format!("system.{}.modeled_ns", arch_key(arch));
            let old = m.get(&name).map_or(0, |v| v.as_f64() as u64);
            m.count(&name, old + ns);
        }
        let op_us: Vec<f64> = r
            .spans
            .iter()
            .filter(|s| s.op_id != 0)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        m.real(
            "system.op_wall_us_p50",
            percentile(&op_us, 0.5).unwrap_or(0.0),
        );
        m.real(
            "system.op_wall_us_p99",
            percentile(&op_us, 0.99).unwrap_or(0.0),
        );
    });
}

/// Prints a result: one `metric <name> <value> <unit>` line per metric of
/// the run's catalogue (0 for a metric the workload has no use for), the
/// notes, and — last — the one-line JSON object the driver reads.
pub fn print(workload: &str, result: &RunResult) {
    println!("workload {workload}");
    let value_of = |def: &MetricDef| result.metrics.get(def.name).unwrap_or(Value::Count(0));
    for def in result.defs {
        println!("metric {} {} {}", def.name, value_of(def).text(), def.unit);
    }
    for (name, value, unit) in &result.extras {
        println!("metric {name} {} {unit}", value.text());
    }
    println!("metric ops_attempted {} count", result.attempted);
    println!("metric ops_failed {} count", result.failed);
    for note in &result.notes {
        println!("note {note}");
    }
    let body: Vec<String> = result
        .defs
        .iter()
        .map(|def| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                value_of(def).text(),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        body.join(", ")
    );
}

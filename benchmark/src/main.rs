//! `nds-benchmark` — see `README.md`.
//!
//! * `nds-benchmark --workload W --seed S --seconds N --trace 0|1 [--out DIR]`
//!   runs one workload in this process and prints its metrics; the last
//!   line of standard output is the JSON object `BENCHMARK.json`'s contract
//!   asks for.
//! * `nds-benchmark [--seed S] [--seconds N] [--traced] [--out DIR] [--label L]`
//!   runs the suite: every workload in its own child process, one after the
//!   other, untraced — and with `--traced` a second, traced, pass — then
//!   writes `<out>/results.json`.
//! * `nds-benchmark compare A.json B.json [--benchmark-json PATH]` applies
//!   the bounds of `BENCHMARK.json` to two such files.
//!
//! Exit status is non-zero when a set-up fails, an operation fails, an
//! output check fails, or a comparison finds a regression or a drift.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use nds_benchmark::compare::{bounds, compare};
use nds_benchmark::harness::{self, RunArgs, RunResult};
use nds_benchmark::json::{escape, Json};
use nds_benchmark::workloads::{
    bulk_read::BulkRead, cluster_failover::ClusterFailover, fig10_apps::Fig10Apps,
    tenant_mix::TenantMix, write_churn::WriteChurn, NAMES,
};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_OUT: &str = "benchmark/out";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    label: Option<String>,
    benchmark_json: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{text}`"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => cli.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => cli.trace = number("--trace", value("--trace")?)? != 0,
            "--traced" => cli.trace = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--label" => cli.label = Some(value("--label")?),
            "--benchmark-json" => {
                cli.benchmark_json = Some(PathBuf::from(value("--benchmark-json")?))
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn run_one(name: &str, args: &RunArgs) -> Result<RunResult, String> {
    match name {
        "bulk_read" => harness::run::<BulkRead>(args),
        "write_churn" => harness::run::<WriteChurn>(args),
        "fig10_apps" => harness::run::<Fig10Apps>(args),
        "tenant_mix" => harness::run::<TenantMix>(args),
        "cluster_failover" => harness::run::<ClusterFailover>(args),
        other => Err(format!("unknown workload `{other}`; one of {NAMES:?}")),
    }
}

/// One workload, in this process.
fn single(name: &str, cli: &Cli) -> Result<bool, String> {
    let args = RunArgs {
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: cli.trace,
        out: cli.out.clone(),
    };
    let result = run_one(name, &args)?;
    harness::print(name, &result);
    Ok(result.failed == 0)
}

/// Runs one workload in a child process, echoes its output, and returns its
/// `metric` lines as the members of a JSON object.
fn child(name: &str, trace: bool, seed: u64, seconds: u64, out: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let members: Vec<String> = text
        .lines()
        .filter_map(|line| {
            let mut words = line.split(' ');
            match (words.next(), words.next(), words.next(), words.next()) {
                (Some("metric"), Some(name), Some(value), Some(unit)) => Some(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(name),
                    escape(unit)
                )),
                _ => None,
            }
        })
        .collect();
    if !output.status.success() {
        return Err(format!("{name}: exited with {}", output.status));
    }
    Ok(format!("{{\"metrics\": {{{}}}}}", members.join(", ")))
}

/// Every workload, each in its own process, sequentially.
fn suite(cli: &Cli) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut modes = Vec::new();
        for (mode, trace) in [("untraced", false), ("traced", true)] {
            if trace && !cli.trace {
                continue;
            }
            match child(name, trace, seed, seconds, &out) {
                Ok(json) => modes.push(format!("\"{mode}\": {json}")),
                Err(e) => {
                    eprintln!("error: {e}");
                    all_ok = false;
                }
            }
        }
        workloads.push(format!("    \"{name}\": {{{}}}", modes.join(", ")));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let results = format!(
        "{{\n  \"label\": \"{}\",\n  \"nproc\": {nproc},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        escape(cli.label.as_deref().unwrap_or("")),
        workloads.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_ok)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(cli: &Cli) -> Result<bool, String> {
    let [_, a, b] = cli.positional.as_slice() else {
        return Err("usage: compare A.json B.json [--benchmark-json PATH]".to_owned());
    };
    let benchmark = cli
        .benchmark_json
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let bounds = bounds(&read_json(&benchmark)?)?;
    let findings = compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &bounds,
    );
    let mut failures = 0;
    for f in &findings {
        if f.verdict.fails() {
            failures += 1;
        }
        println!(
            "{:?} {} {} {} {} -> {} ({})",
            f.verdict, f.workload, f.mode, f.metric, f.values.0, f.values.1, f.detail
        );
    }
    println!("{} metrics compared, {failures} failing", findings.len());
    Ok(failures == 0 && !findings.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if cli.positional.first().is_some_and(|p| p == "compare") {
            compare_files(&cli)
        } else if let Some(extra) = cli.positional.first() {
            Err(format!("unexpected argument `{extra}`"))
        } else if let Some(name) = &cli.workload {
            single(name, &cli)
        } else {
            suite(&cli)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

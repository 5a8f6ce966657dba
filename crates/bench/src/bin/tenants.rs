//! Multi-tenant traffic-engine bench: N tenants (default 16) with mixed
//! open/closed arrival processes share one hardware-NDS device behind the
//! deterministic WFQ admission stage, each running a seeded Fig. 9-style
//! command mix over its own private dataset.
//!
//! Prints one row per tenant — configured weight share vs achieved
//! throughput share, commands, depth high-water mark — plus the aggregate
//! makespan, throughput, and Jain fairness over per-tenant bytes.
//!
//! Usage: `cargo run --release -p nds-bench --bin tenants
//!         [-- [--tenants N] [--ops N] [--seed S] [--report <path>] [--trace <path>]]`
//!
//! With `--report` the engine report (always-on accounting) is merged
//! with the front-end's instrumented report and written as deterministic
//! JSON; with `--trace` the causal trace gains per-tenant Perfetto lanes.
//! Both artifacts are byte-identical across repeated runs of the same
//! seed — `scripts/artifact_digest.sh` hashes them against committed
//! digests.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{header, row, take_u64_flag, Artifacts};
use nds_system::{Arrival, HardwareNds, SystemConfig, TrafficEngine};
use nds_workloads::tenants::mixed_open_closed;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut artifacts, args) = Artifacts::from_args(args);
    let (tenants, args) = take_u64_flag("--tenants", 16, args);
    let (ops, args) = take_u64_flag("--ops", 32, args);
    let (seed, _args) = take_u64_flag("--seed", 42, args);

    let set = mixed_open_closed(seed, tenants as u32, ops);
    let sys = HardwareNds::new(SystemConfig::small_test().with_observability(artifacts.obs()));
    let mut engine = TrafficEngine::new(sys, &set).expect("tenant setup");
    engine.run().expect("engine run");

    println!("# tenants — {tenants} tenants (mixed open/closed), {ops} ops each, seed {seed}\n");
    let report = engine.report();
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    header(&[
        "tenant",
        "arrival",
        "weight share",
        "achieved share",
        "ops",
        "bytes",
        "cmds",
        "depth max",
    ]);
    let mut per_tenant_bytes = Vec::new();
    for (t, spec) in set.tenants.iter().enumerate() {
        let scope = format!("tenant[{t}]");
        let arrival = match spec.arrival {
            Arrival::Closed { outstanding } => format!("closed({outstanding})"),
            Arrival::Open { mean_gap } => format!("open({} ns)", mean_gap.as_nanos()),
        };
        per_tenant_bytes.push(counter(&format!("{scope}.bytes")));
        row(&[
            t.to_string(),
            arrival,
            format!("{}m", counter(&format!("{scope}.weight_share_milli"))),
            format!("{}m", counter(&format!("{scope}.share_milli"))),
            counter(&format!("{scope}.ops")).to_string(),
            counter(&format!("{scope}.bytes")).to_string(),
            counter(&format!("{scope}.commands")).to_string(),
            counter(&format!("{scope}.max_outstanding")).to_string(),
        ]);
    }
    let makespan_ns = engine.makespan().as_nanos();
    let total_bytes = counter("engine.bytes");
    let mib_s = if makespan_ns == 0 {
        0.0
    } else {
        (total_bytes as f64 / (1 << 20) as f64) / (makespan_ns as f64 / 1e9)
    };
    println!(
        "\nmakespan {makespan_ns} ns, {total_bytes} bytes moved, {mib_s:.1} MiB/s aggregate, \
         tenant jain {:.3}",
        nds_prof::jain_milli(&per_tenant_bytes) as f64 / 1000.0
    );

    if artifacts.wants_report() {
        artifacts.report = engine.full_report();
    }
    if let Some(export) = engine.trace_export() {
        artifacts
            .traces
            .push(("tenants.hardware-nds".to_string(), export));
    }
    artifacts
        .write(|what, path| {
            println!("{what} written to {}", path.display());
        })
        .expect("write artifacts");
}

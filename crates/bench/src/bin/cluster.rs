//! Sharded-cluster bench: the same seeded command mix replayed against a
//! healthy N-device cluster and against one with a device-kill fault plan,
//! side by side.
//!
//! Prints one row per run — ops, app bytes, modeled I/O time, commands,
//! degraded reads, re-replication traffic — plus `healthy:`/`degraded:`
//! summary lines with modeled MiB/s.
//!
//! Usage: `cargo run --release -p nds-bench --bin cluster
//!         [-- [--devices N] [--replicas K] [--ops N] [--seed S]
//!             [--shard-rows R] [--kill DEV] [--report <path>] [--trace <path>]]`
//!
//! With `--report` both runs' full reports (cluster + every device) are
//! merged under `healthy.`/`degraded.` prefixes and written as
//! deterministic JSON; with `--trace` the degraded run's per-device causal
//! traces are exported. Both artifacts are byte-identical across repeated
//! runs of the same seed — `scripts/artifact_digest.sh` hashes them against
//! committed digests.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{header, row, take_u64_flag, Artifacts};
use nds_faults::ClusterFaultPlan;
use nds_system::{
    ClusterConfig, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig, SystemError,
};
use nds_workloads::cluster::{cluster_dataset, cluster_mix, payload_byte, ClusterOp};

struct RunSummary {
    ops: u64,
    bytes: u64,
    io_ns: u64,
    commands: u64,
}

/// Replays the mix against `cluster`, accumulating modeled time and bytes.
fn replay(
    cluster: &mut NdsCluster<HardwareNds>,
    mix: &[ClusterOp],
) -> Result<RunSummary, SystemError> {
    let (shape, element) = cluster_dataset();
    let id = cluster.create_dataset(shape.clone(), element)?;
    let esize = element.size() as u64;
    let mut sum = RunSummary {
        ops: 0,
        bytes: 0,
        io_ns: 0,
        commands: 0,
    };
    let mut buf = Vec::new();
    for op in mix {
        if op.write {
            let elems: u64 = op.sub_dims.iter().product();
            let data: Vec<u8> = (0..elems * esize)
                .map(|i| payload_byte(op.salt, i))
                .collect();
            let out = cluster.write(id, &shape, &op.coord, &op.sub_dims, &data)?;
            sum.bytes += out.bytes;
            sum.io_ns += out.latency.as_nanos();
            sum.commands += out.commands;
        } else {
            let m = cluster.read_into(id, &shape, &op.coord, &op.sub_dims, &mut buf)?;
            sum.bytes += m.bytes;
            sum.io_ns += m.io_latency.as_nanos();
            sum.commands += m.commands;
        }
        sum.ops += 1;
    }
    Ok(sum)
}

fn mib_s(bytes: u64, io_ns: u64) -> f64 {
    if io_ns == 0 {
        0.0
    } else {
        (bytes as f64 / (1 << 20) as f64) / (io_ns as f64 / 1e9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut artifacts, args) = Artifacts::from_args(args);
    let (devices, args) = take_u64_flag("--devices", 4, args);
    let (replicas, args) = take_u64_flag("--replicas", 2, args);
    let (ops, args) = take_u64_flag("--ops", 96, args);
    let (seed, args) = take_u64_flag("--seed", 7, args);
    let (shard_rows, args) = take_u64_flag("--shard-rows", 24, args);
    let (kill, _args) = take_u64_flag("--kill", 0, args);
    let obs = artifacts.obs();

    let mix = cluster_mix(seed, ops as usize, 60);
    let base = ClusterConfig::new(devices as usize, replicas as usize)
        .with_shard_rows(shard_rows)
        .with_seed(seed)
        .with_observability(obs);
    let build = |cfg: ClusterConfig| {
        NdsCluster::new(cfg, |_| {
            HardwareNds::new(SystemConfig::small_test().with_observability(obs))
        })
    };

    let mut healthy = build(base.clone());
    let h = replay(&mut healthy, &mix).expect("healthy run");

    // Kill one device halfway through the mix (+1 for create_dataset).
    let plan = ClusterFaultPlan::kill_at(ops / 2, kill as u32);
    let mut degraded = build(base.with_plan(plan));
    let d = replay(&mut degraded, &mix).expect("degraded run");

    println!(
        "# cluster — {devices} devices, k={replicas}, {ops} ops, seed {seed}, \
         shard rows {shard_rows}, kill device {kill} at op {}\n",
        ops / 2
    );
    header(&[
        "run",
        "ops",
        "bytes",
        "io ns",
        "cmds",
        "degraded reads",
        "rereplications",
        "rereplicated bytes",
    ]);
    let hs = healthy.stats();
    let ds = degraded.stats();
    for (name, sum, st) in [("healthy", &h, &hs), ("degraded", &d, &ds)] {
        row(&[
            name.to_string(),
            sum.ops.to_string(),
            sum.bytes.to_string(),
            sum.io_ns.to_string(),
            sum.commands.to_string(),
            st.get("cluster.degraded_reads").to_string(),
            st.get("cluster.rereplications").to_string(),
            st.get("cluster.rereplicated_bytes").to_string(),
        ]);
    }
    println!(
        "\nhealthy: ops={} bytes={} io_ns={} mib_s={:.1}",
        h.ops,
        h.bytes,
        h.io_ns,
        mib_s(h.bytes, h.io_ns)
    );
    println!(
        "degraded: ops={} bytes={} io_ns={} mib_s={:.1} rereplicated_bytes={}",
        d.ops,
        d.bytes,
        d.io_ns,
        mib_s(d.bytes, d.io_ns),
        ds.get("cluster.rereplicated_bytes")
    );

    if artifacts.wants_report() {
        let report = &mut artifacts.report;
        report.set_meta("bench", "cluster");
        report.merge_prefixed("healthy.", &healthy.full_report());
        report.merge_prefixed("degraded.", &degraded.full_report());
    }
    // Only the degraded run's traces are exported.
    artifacts.traces = degraded.device_trace_exports();
    assert_eq!(
        obs.tracing(),
        !artifacts.traces.is_empty(),
        "devices trace iff asked"
    );
    artifacts
        .write(|what, path| {
            println!("{what} written to {}", path.display());
        })
        .expect("write artifacts");
}

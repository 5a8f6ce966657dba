//! `cluster_failover` — an `NdsCluster` of four hardware-NDS devices with
//! two replicas per shard replays `cluster_mix(seed, OPS, 60)` twice per
//! rep: once healthy, once with device 0 killed half way through.
//!
//! Why it is here: shard fan-out, replica writes, degraded reads and
//! re-replication run nowhere else. An operation waits for its slowest
//! shard part, while the host cost follows the number of parts.

use nds_faults::ClusterFaultPlan;
use nds_sim::ObsConfig;
use nds_system::{ClusterConfig, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig};
use nds_workloads::cluster::{cluster_dataset, cluster_mix, payload_byte, ClusterOp};

use super::{Collector, Verify, Workload};
use crate::metrics::Metrics;
use crate::spanned::Spanned;
use crate::spans::Rec;

/// Operations per replay; sized so a rep (two replays) takes about two
/// seconds in this sandbox.
pub const OPS: usize = 10_000;
const READ_PCT: u32 = 60;
const DEVICES: usize = 4;
const REPLICAS: usize = 2;
/// Shards of 24 rows split the 64-row dataset 24/24/16, so tiles straddle
/// shard boundaries and reassembly is exercised (the `cluster` binary's
/// default).
const SHARD_ROWS: u64 = 24;
const KILLED_DEVICE: u32 = 0;
/// Replica placement is part of the cluster, not of the generated input:
/// with the run's seed here, which shards die with device 0 — and so the
/// re-replication work of a rep — changed from seed to seed.
const PLACEMENT_SEED: u64 = 7;

type Cluster = Spanned<NdsCluster<HardwareNds>>;

/// See the module docs.
#[derive(Debug)]
pub struct ClusterFailover {
    obs: ObsConfig,
    mix: Vec<ClusterOp>,
    /// Per op: the write payload, or the bytes the read must return (from a
    /// plain in-memory array replaying the same mix).
    bytes: Vec<Vec<u8>>,
    buf: Vec<u8>,
    healthy_wall_s: f64,
    degraded_wall_s: f64,
    modeled_io_ns: u64,
    /// Device kills the last degraded replay saw.
    device_kills: u64,
    acc: Collector,
    /// Cluster-level counters of every cluster built, summed.
    cluster_stats: nds_sim::Stats,
}

/// Applies `op` to a dense row-major copy of the dataset and returns the
/// op's bytes: the payload of a write, the expected result of a read.
fn shadow_apply(shadow: &mut [u8], row_bytes: usize, esize: usize, op: &ClusterOp) -> Vec<u8> {
    let (w, h) = (op.sub_dims[0] as usize, op.sub_dims[1] as usize);
    let (x0, y0) = (op.coord[0] as usize * w, op.coord[1] as usize * h);
    let mut bytes = Vec::with_capacity(w * h * esize);
    if op.write {
        bytes.extend((0..(w * h * esize) as u64).map(|i| payload_byte(op.salt, i)));
    }
    for row in 0..h {
        let at = (y0 + row) * row_bytes + x0 * esize;
        let line = &mut shadow[at..at + w * esize];
        if op.write {
            line.copy_from_slice(&bytes[row * w * esize..(row + 1) * w * esize]);
        } else {
            bytes.extend_from_slice(line);
        }
    }
    bytes
}

impl ClusterFailover {
    fn build(&self, plan: Option<ClusterFaultPlan>, rec: &Rec) -> Cluster {
        let mut config = ClusterConfig::new(DEVICES, REPLICAS)
            .with_shard_rows(SHARD_ROWS)
            .with_seed(PLACEMENT_SEED)
            .with_observability(self.obs);
        if let Some(plan) = plan {
            config = config.with_plan(plan);
        }
        let device = SystemConfig::small_test().with_observability(self.obs);
        Spanned::new(
            NdsCluster::new(config, |_| HardwareNds::new(device.clone())),
            rec,
        )
    }

    /// Replays the mix on `cluster`, comparing every read with the
    /// reference. Returns the modeled I/O nanoseconds.
    fn replay(&mut self, cluster: &mut Cluster, rec: &Rec) -> u64 {
        let (shape, element) = cluster_dataset();
        let Ok(id) = cluster.create_dataset(shape.clone(), element) else {
            return 0;
        };
        let mut io_ns = 0;
        for (op, bytes) in self.mix.iter().zip(&self.bytes) {
            if op.write {
                if let Ok(out) = cluster.write(id, &shape, &op.coord, &op.sub_dims, bytes) {
                    io_ns += out.latency.as_nanos();
                }
            } else if let Ok(m) =
                cluster.read_into(id, &shape, &op.coord, &op.sub_dims, &mut self.buf)
            {
                io_ns += m.io_latency.as_nanos();
                rec.check(self.buf == *bytes);
            }
        }
        if rec.tracing() {
            let inner = cluster.inner();
            self.cluster_stats.merge(&inner.stats());
            for d in 0..inner.device_count() {
                if let Some(device) = inner.device(d) {
                    rec.untimed(|| self.acc.absorb(device));
                    self.acc.translation_bytes += device.stl().translation_bytes();
                }
            }
        }
        io_ns
    }
}

impl Workload for ClusterFailover {
    const NAME: &'static str = "cluster_failover";
    const WARMUP_REPS: usize = 1;
    const TRACED_REPS: usize = 2;

    fn setup(seed: u64, obs: ObsConfig, _rec: &Rec) -> Result<Self, String> {
        let mix = cluster_mix(seed, OPS, READ_PCT);
        let (shape, element) = cluster_dataset();
        let esize = element.size();
        let row_bytes = shape.dim(0) as usize * esize;
        let mut shadow = vec![0u8; shape.volume() as usize * esize];
        let bytes = mix
            .iter()
            .map(|op| shadow_apply(&mut shadow, row_bytes, esize, op))
            .collect();
        Ok(ClusterFailover {
            obs,
            mix,
            bytes,
            buf: Vec::new(),
            healthy_wall_s: 0.0,
            degraded_wall_s: 0.0,
            modeled_io_ns: 0,
            device_kills: 0,
            acc: Collector::default(),
            cluster_stats: nds_sim::Stats::new(),
        })
    }

    fn rep(&mut self, rec: &Rec, _verify: Verify) {
        let _arch = rec.span("cluster");
        let watch = rec.stopwatch();
        let mut healthy = self.build(None, rec);
        let healthy_io = {
            let _replay = rec.span("healthy");
            self.replay(&mut healthy, rec)
        };
        drop(healthy);
        self.healthy_wall_s += watch.seconds(rec);

        let watch = rec.stopwatch();
        let plan = ClusterFaultPlan::kill_at(OPS as u64 / 2, KILLED_DEVICE);
        let mut degraded = self.build(Some(plan), rec);
        let degraded_io = {
            let _replay = rec.span("degraded");
            self.replay(&mut degraded, rec)
        };
        // Both replays returned the reference bytes read by read, so the
        // degraded application bytes equal the healthy ones; what is left
        // to check is that the fault really fired, exactly once.
        self.device_kills = degraded.stats().get("cluster.device_kills");
        rec.check(self.device_kills == 1);
        self.degraded_wall_s += watch.seconds(rec);
        self.modeled_io_ns = healthy_io + degraded_io;
    }

    fn paper_err_pct(&self) -> Option<f64> {
        None
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::small_test().with_observability(self.obs)
    }

    fn collect(&mut self, c: &mut Collector, m: &mut Metrics) {
        *c = std::mem::take(&mut self.acc);
        let s = &self.cluster_stats;
        m.real("system.cluster.healthy_wall_s", self.healthy_wall_s);
        m.real("system.cluster.degraded_wall_s", self.degraded_wall_s);
        m.count("system.cluster.read_subops", s.get("cluster.read_subops"));
        m.count("system.cluster.write_subops", s.get("cluster.write_subops"));
        m.count(
            "system.cluster.degraded_reads",
            s.get("cluster.degraded_reads"),
        );
        m.count(
            "system.cluster.rereplicated_bytes",
            s.get("cluster.rereplicated_bytes"),
        );
        m.count("system.cluster.modeled_io_ns", self.modeled_io_ns);
        m.count("faults.device_kills", self.device_kills);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_mix_and_the_reference() {
        let rec = Rec::new(false);
        let make = |seed| ClusterFailover::setup(seed, ObsConfig::disabled(), &rec).unwrap();
        let (a, b) = (make(1), make(2));
        assert_ne!(a.mix, b.mix);
        assert_ne!(a.bytes, b.bytes);
        assert_eq!(a.mix, make(1).mix);
        assert_eq!(a.mix.len(), OPS);
    }

    #[test]
    fn shadow_reads_return_what_was_written() {
        let (esize, row_bytes) = (4, 64 * 4);
        let mut shadow = vec![0u8; 64 * row_bytes];
        let op = |write, coord: [u64; 2], sub: [u64; 2], salt| ClusterOp {
            write,
            coord: coord.to_vec(),
            sub_dims: sub.to_vec(),
            salt,
        };
        let untouched = shadow_apply(
            &mut shadow,
            row_bytes,
            esize,
            &op(false, [1, 1], [16, 16], 0),
        );
        assert_eq!(untouched, vec![0u8; 16 * 16 * 4]);
        let written = shadow_apply(
            &mut shadow,
            row_bytes,
            esize,
            &op(true, [1, 1], [16, 16], 7),
        );
        assert_eq!(written[3], payload_byte(7, 3));
        let back = shadow_apply(
            &mut shadow,
            row_bytes,
            esize,
            &op(false, [1, 1], [16, 16], 0),
        );
        assert_eq!(back, written);
        // A row panel crossing the tile sees the tile's rows in place.
        let panel = shadow_apply(
            &mut shadow,
            row_bytes,
            esize,
            &op(false, [0, 2], [64, 8], 0),
        );
        assert_eq!(&panel[16 * 4..32 * 4], &written[..16 * 4]);
        assert_eq!(&panel[..16 * 4], &[0u8; 64][..]);
    }
}

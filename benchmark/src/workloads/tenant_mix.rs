//! `tenant_mix` — 16 tenants, even ids closed (4 outstanding) and odd ids
//! open (2 µs mean modeled inter-arrival), each issuing
//! [`OPS_PER_TENANT`] mixed operations against one `small_test()`
//! hardware-NDS device through the `TrafficEngine`. Arrivals are in modeled
//! time and deterministic; the host side is still one closed loop. A rep
//! builds a fresh engine and runs it to completion.
//!
//! The tenant set is `nds_workloads::tenants::mixed_open_closed`'s in every
//! respect but one: each tenant's op cycle holds the *same* twelve
//! operations for every seed — a row panel, a tile and a column panel, each
//! read three times and written once (75 % reads) — and the seed picks
//! their order and coordinates. `fig9_mix` draws kinds and shapes from the
//! seed, which moved a rep's host time by 13 % from seed to seed; the
//! benchmark needs the seed to change the inputs, not the amount of work.
//!
//! Why it is here: payloads are at most 2 KiB, so the per-command control
//! path — WFQ admission, the queue pair, the engine's event loop, the
//! command lifecycle and the disabled observability hooks — is the whole
//! cost, and the data store is nearly nothing.

use nds_sim::{ObsConfig, SimDuration};
use nds_system::{
    Arrival, HardwareNds, OpKind, SystemConfig, TenantOp, TenantSet, TenantSpec, TrafficEngine,
};
use nds_workloads::tenants::tenant_dataset;

use super::{mix, Collector, Verify, Workload};
use crate::metrics::Metrics;
use crate::spanned::Spanned;
use crate::spans::Rec;

const TENANTS: u32 = 16;
/// Sized so a rep takes about two seconds in this sandbox.
pub const OPS_PER_TENANT: u64 = 8_000;
/// Jain's index over per-tenant bytes, in thousandths, below which the
/// equal-weight tenants were not served fairly.
const MIN_JAIN_MILLI: u64 = 900;

/// One tenant's op cycle: each Fig. 9 shape over the 64×64 tenant dataset
/// read three times and written once, at seeded coordinates, in seeded
/// order.
fn op_cycle(seed: u64, tenant: u32) -> Vec<TenantOp> {
    // (sub-dimensions, partitions along x, partitions along y)
    const SHAPES: [([u64; 2], u64, u64); 3] = [([64, 8], 1, 8), ([16, 16], 4, 4), ([8, 64], 8, 1)];
    let mut ops = Vec::with_capacity(12);
    for (s, (sub_dims, nx, ny)) in SHAPES.iter().enumerate() {
        for k in 0..4u64 {
            let h = mix(seed ^ 0x7e_4a47 ^ (u64::from(tenant) << 32) ^ (s as u64 * 4 + k));
            ops.push((
                mix(h),
                TenantOp {
                    kind: if k == 0 { OpKind::Write } else { OpKind::Read },
                    dataset: 0,
                    coord: vec![h % nx, (h >> 16) % ny],
                    sub_dims: sub_dims.to_vec(),
                },
            ));
        }
    }
    ops.sort_by_key(|(rank, _)| *rank);
    ops.into_iter().map(|(_, op)| op).collect()
}

/// [`TENANTS`] equal-weight tenants, even ids closed with 4 outstanding and
/// odd ids open with a saturating 2 µs mean gap, as `mixed_open_closed`
/// builds them.
fn tenant_set(seed: u64) -> TenantSet {
    (0..TENANTS).fold(TenantSet::new(seed), |set, t| {
        set.with_tenant(TenantSpec {
            weight: 1,
            depth: 4,
            arrival: if t % 2 == 0 {
                Arrival::Closed { outstanding: 4 }
            } else {
                Arrival::Open {
                    mean_gap: SimDuration::from_micros(2),
                }
            },
            datasets: vec![tenant_dataset()],
            ops: op_cycle(seed, t),
            total_ops: OPS_PER_TENANT,
        })
    })
}

/// What one engine run produced, as far as the output checks care.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunDigest {
    makespan_ns: u64,
    /// `(ops, bytes)` per tenant.
    per_tenant: Vec<(u64, u64)>,
    max_outstanding: u64,
    jain_milli: u64,
}

/// See the module docs.
#[derive(Debug)]
pub struct TenantMix {
    config: SystemConfig,
    set: TenantSet,
    /// The set-up run's digest; every rep must reproduce it exactly.
    reference: RunDigest,
    run_wall_s: f64,
    acc: Collector,
}

impl TenantMix {
    /// Builds an engine, runs it, and checks what the engine itself can
    /// check: every read's bytes, every tenant's op total, fairness.
    fn run_engine(&mut self, rec: &Rec) -> Result<RunDigest, String> {
        let sys = Spanned::new(HardwareNds::new(self.config.clone()), rec);
        let mut engine = TrafficEngine::new(sys, &self.set).map_err(|e| format!("engine: {e}"))?;
        engine.run().map_err(|e| format!("run: {e}"))?;
        rec.check(engine.completions().iter().all(|c| c.data_ok));
        let report = engine.report();
        let counter = |name: String| report.counters.get(&name).copied().unwrap_or(0);
        let per_tenant: Vec<(u64, u64)> = (0..TENANTS)
            .map(|t| {
                (
                    counter(format!("tenant[{t}].ops")),
                    counter(format!("tenant[{t}].bytes")),
                )
            })
            .collect();
        rec.check(per_tenant.iter().all(|(ops, _)| *ops == OPS_PER_TENANT));
        let bytes: Vec<u64> = per_tenant.iter().map(|(_, b)| *b).collect();
        let jain_milli = nds_prof::jain_milli(&bytes);
        rec.check(jain_milli >= MIN_JAIN_MILLI);
        let digest = RunDigest {
            makespan_ns: engine.makespan().as_nanos(),
            per_tenant,
            max_outstanding: (0..TENANTS)
                .map(|t| u64::from(engine.max_outstanding(t)))
                .max()
                .unwrap_or(0),
            jain_milli,
        };
        if rec.tracing() {
            rec.untimed(|| self.acc.absorb(engine.system()));
            self.acc.translation_bytes += engine.system().inner().stl().translation_bytes();
        }
        Ok(digest)
    }
}

impl Workload for TenantMix {
    const NAME: &'static str = "tenant_mix";
    // The set-up's reference run has already warmed every code path.
    const WARMUP_REPS: usize = 0;
    const TRACED_REPS: usize = 2;
    const USES_WFQ: bool = true;

    fn setup(seed: u64, obs: ObsConfig, rec: &Rec) -> Result<Self, String> {
        let mut this = TenantMix {
            config: SystemConfig::small_test().with_observability(obs),
            set: tenant_set(seed),
            reference: RunDigest {
                makespan_ns: 0,
                per_tenant: Vec::new(),
                max_outstanding: 0,
                jain_milli: 0,
            },
            run_wall_s: 0.0,
            acc: Collector::default(),
        };
        this.reference = this.run_engine(rec)?;
        Ok(this)
    }

    fn rep(&mut self, rec: &Rec, _verify: Verify) {
        let _arch = rec.span("hardware-nds");
        let watch = rec.stopwatch();
        // On `Err` the failing front-end call is already counted.
        if let Ok(digest) = self.run_engine(rec) {
            rec.check(digest == self.reference);
        }
        self.run_wall_s += watch.seconds(rec);
    }

    fn paper_err_pct(&self) -> Option<f64> {
        None
    }

    fn config(&self) -> SystemConfig {
        self.config.clone()
    }

    fn collect(&mut self, c: &mut Collector, m: &mut Metrics) {
        *c = std::mem::take(&mut self.acc);
        m.real("system.tenants.run_wall_s", self.run_wall_s);
        m.count("system.tenants.makespan_ns", self.reference.makespan_ns);
        m.count("system.tenants.jain_milli", self.reference.jain_milli);
        m.count(
            "system.tenants.max_outstanding",
            self.reference.max_outstanding,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_kind_counts(ops: &[TenantOp]) -> Vec<(Vec<u64>, usize, usize)> {
        let mut shapes: Vec<Vec<u64>> = ops.iter().map(|op| op.sub_dims.clone()).collect();
        shapes.sort();
        shapes.dedup();
        shapes
            .into_iter()
            .map(|s| {
                let of = |kind| {
                    ops.iter()
                        .filter(|op| op.sub_dims == s && op.kind == kind)
                        .count()
                };
                let (reads, writes) = (of(OpKind::Read), of(OpKind::Write));
                (s, reads, writes)
            })
            .collect()
    }

    #[test]
    fn seed_changes_order_and_coordinates_but_not_the_work() {
        let (a, b) = (tenant_set(1), tenant_set(2));
        assert_ne!(a, b, "the seed must reach the tenant set");
        assert_eq!(a, tenant_set(1));
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(shape_kind_counts(&ta.ops), shape_kind_counts(&tb.ops));
            assert_eq!(shape_kind_counts(&ta.ops).len(), 3);
            assert!(shape_kind_counts(&ta.ops)
                .iter()
                .all(|(_, r, w)| (*r, *w) == (3, 1)));
        }
        let (shape, _) = tenant_dataset();
        for op in a.tenants.iter().flat_map(|t| &t.ops) {
            for ((c, s), dim) in op.coord.iter().zip(&op.sub_dims).zip(shape.dims()) {
                assert!((c + 1) * s <= *dim, "op out of bounds: {op:?}");
            }
        }
        let closed = a
            .tenants
            .iter()
            .filter(|t| matches!(t.arrival, Arrival::Closed { .. }))
            .count();
        assert_eq!(closed, 8);
    }
}

//! The deterministic multi-tenant traffic engine.
//!
//! The paper evaluates each front-end one command stream at a time; the
//! roadmap's array scenarios need many clients sharing one device. This
//! module turns any [`StorageFrontEnd`] into a discrete-event traffic
//! engine: a [`TenantSet`] describes N tenants — each with its own
//! *namespace* (a disjoint set of dataspaces), an open (seeded
//! inter-arrival) or closed (fixed outstanding) arrival process, and a
//! cyclic command mix — and [`TrafficEngine::run`] interleaves their
//! operations through a deterministic virtual-time WFQ scheduler
//! ([`WfqScheduler`]) in front of the device, with per-tenant admission
//! depth limits.
//!
//! # Determinism
//!
//! Every source of ordering is a pure function of the tenant set and its
//! seed: arrivals come from a splitmix-style hash of `(seed, tenant,
//! index)`, admission scans tenants in id order, the WFQ breaks finish-tag
//! ties on `(tenant id, arrival order)`, and the engine's clock only
//! advances by front-end modeled latencies and arrival instants. Two runs
//! of the same set produce byte-identical completion journals, reports,
//! and traces — with observability on or off, because the engine's
//! [`report`](TrafficEngine::report) is built exclusively from always-on
//! engine-side accounting.
//!
//! # Namespace model
//!
//! The engine creates every tenant's dataspaces and records their owner.
//! All data-path entry points ([`read_as`](TrafficEngine::read_as),
//! [`write_as`](TrafficEngine::write_as), and the engine's own dispatch)
//! pass through the same ownership guard, which rejects cross-tenant
//! access with [`SystemError::TenantIsolation`]. Tenant data is a
//! positional byte pattern keyed by `(seed, tenant, dataset, offset)`, so
//! any cross-tenant corruption is detectable byte-exactly.

use std::collections::{BTreeMap, VecDeque};

use nds_core::{ElementType, NdsError, Region, Shape};
use nds_interconnect::WfqScheduler;
use nds_sim::{
    splitmix64, LatencyHistogram, MetricSet, RunReport, SimDuration, SimTime, TraceExport,
};

use crate::error::SystemError;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};
use isolation::shape_of;
pub use isolation::Guarded;

/// The direction of a tenant operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A multi-dimensional read of a region of one of the tenant's
    /// dataspaces, verified against the tenant's byte pattern.
    Read,
    /// A multi-dimensional write of the tenant's byte pattern into a
    /// region of one of its dataspaces.
    Write,
}

impl OpKind {
    fn letter(self) -> char {
        match self {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        }
    }
}

/// One operation of a tenant's command mix, addressed in the canonical
/// view of the tenant's dataset `dataset` (an index into
/// [`TenantSpec::datasets`], never a raw [`DatasetId`] — the mix cannot
/// name another tenant's data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantOp {
    /// Read or write.
    pub kind: OpKind,
    /// Index into the tenant's dataset list.
    pub dataset: usize,
    /// Block coordinate in the canonical view.
    pub coord: Vec<u64>,
    /// Block shape in the canonical view.
    pub sub_dims: Vec<u64>,
}

/// A tenant's arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Open: operations arrive on their own clock with seeded
    /// inter-arrival gaps uniform in `[0, 2 × mean_gap)`, regardless of
    /// completions.
    Open {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
    /// Closed: a fixed population of `outstanding` requests; each
    /// completion immediately issues the tenant's next operation.
    Closed {
        /// Requests in flight from t = 0 (clamped to at least 1).
        outstanding: u32,
    },
}

/// The static description of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// WFQ weight (0 is clamped to 1): the tenant's configured share of
    /// device service.
    pub weight: u64,
    /// Admission depth limit: operations admitted to the scheduler but
    /// not yet completed never exceed this (0 is clamped to 1).
    pub depth: u32,
    /// Open or closed arrival process.
    pub arrival: Arrival,
    /// The tenant's namespace: dataspaces created for it at engine
    /// construction, each initialized with the tenant's byte pattern.
    pub datasets: Vec<(Shape, ElementType)>,
    /// The command mix, cycled until `total_ops` operations have run.
    pub ops: Vec<TenantOp>,
    /// Operations the tenant issues over the run.
    pub total_ops: u64,
}

/// A seeded set of tenants — the complete input of a traffic-engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSet {
    /// Seed for arrivals and data patterns.
    pub seed: u64,
    /// Tenant descriptions; the index is the tenant id.
    pub tenants: Vec<TenantSpec>,
}

impl TenantSet {
    /// An empty set with the given seed.
    pub fn new(seed: u64) -> Self {
        TenantSet {
            seed,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant, returning the set for chaining.
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }
}

/// One finished operation in the engine's completion journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Tenant id.
    pub tenant: u32,
    /// Operation index within the tenant's run (0-based issue order).
    pub op_index: u64,
    /// Read or write.
    pub kind: OpKind,
    /// When the operation arrived (entered the tenant's pending queue).
    pub arrived: SimTime,
    /// When admission passed it to the WFQ scheduler.
    pub admitted: SimTime,
    /// When the device started serving it.
    pub started: SimTime,
    /// When service finished.
    pub finished: SimTime,
    /// I/O commands the front-end issued for it.
    pub commands: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// For reads: whether every byte matched the tenant's pattern.
    /// Always true for writes.
    pub data_ok: bool,
    /// Trace ids allocated during the operation, as a `(before, after]`
    /// cursor range (empty when tracing is off).
    pub trace_range: (u64, u64),
}

/// The byte of tenant `tenant`'s pattern at linear byte `offset` of its
/// dataset `dataset` — the public handle on the engine's positional data
/// pattern, so isolation tests can verify final dataset contents
/// byte-exactly from outside the engine.
///
/// The pattern is positional, so reads verify without tracking history and
/// cross-tenant writes are detectable byte-exactly. Each aligned 8-byte lane
/// is one [`splitmix64`] word, little-endian; the engine itself produces
/// and checks it a lane at a time.
pub fn tenant_pattern_byte(seed: u64, tenant: u32, dataset: usize, offset: u64) -> u8 {
    let lane = pattern_key(seed, tenant, dataset) ^ (offset >> 3);
    let shift = (offset & 7) * 8;
    (splitmix64(lane) >> shift) as u8
}

/// What every lane index of `(seed, tenant, dataset)`'s pattern is mixed
/// with before hashing.
fn pattern_key(seed: u64, tenant: u32, dataset: usize) -> u64 {
    seed ^ (u64::from(tenant) << 40) ^ ((dataset as u64) << 32)
}

/// Walks the pattern bytes of dataset bytes `[offset, offset + len)` one
/// aligned 8-byte lane — one hash — at a time: calls `f(done, bytes)` with
/// each lane's part of the range, where `done` counts the bytes already
/// delivered. Only the first and last lane can be partial.
fn pattern_lanes(key: u64, offset: u64, len: usize, mut f: impl FnMut(usize, &[u8])) {
    let mut done = 0;
    while done < len {
        let at = offset + done as u64;
        let word = splitmix64(key ^ (at >> 3)).to_le_bytes();
        let skip = (at & 7) as usize;
        let take = (8 - skip).min(len - done);
        if take == 8 {
            f(done, &word);
        } else {
            f(done, word.get(skip..skip + take).unwrap_or(&[]));
        }
        done += take;
    }
}

/// Fills `out` with the pattern bytes of dataset bytes
/// `[offset, offset + out.len())`.
fn fill_pattern(key: u64, offset: u64, out: &mut [u8]) {
    pattern_lanes(key, offset, out.len(), |done, lane| {
        if let Some(dst) = out.get_mut(done..done + lane.len()) {
            dst.copy_from_slice(lane);
        }
    });
}

/// Seeded inter-arrival gap `index` for an open tenant: uniform in
/// `[0, 2 × mean)` with 1/65536 resolution.
fn arrival_gap(seed: u64, tenant: u32, index: u64, mean: SimDuration) -> SimDuration {
    let f = splitmix64(seed ^ 0xa11c_e000 ^ (u64::from(tenant) << 32) ^ index) & 0x1_ffff;
    mean * f / 65536
}

/// Payload routed through the WFQ: `(op index, arrival, admitted)`.
type OpRef = (u64, SimTime, SimTime);

#[derive(Debug)]
struct TenantRuntime {
    spec: TenantSpec,
    /// `(id, shape, element)` of the tenant's dataspaces, in creation
    /// order (the namespace).
    datasets: Vec<(DatasetId, Shape, ElementType)>,
    /// The mix cycled out to `total_ops` concrete operations.
    resolved: Vec<TenantOp>,
    /// Arrived-but-not-admitted operations: `(op index, arrival)`.
    pending: VecDeque<(u64, SimTime)>,
    /// Operations released into `pending` so far.
    released: u64,
    outstanding: u32,
    max_outstanding: u32,
    completed: u64,
    bytes: u64,
    commands: u64,
    busy: SimDuration,
    /// Response time (finish − arrival) histogram, engine-owned and
    /// always on — independent of the front-end's observability config.
    response: LatencyHistogram,
}

/// The traffic engine: drives a [`TenantSet`] through any front-end.
///
/// # Example
///
/// ```
/// use nds_core::{ElementType, Shape};
/// use nds_sim::SimDuration;
/// use nds_system::{
///     Arrival, BaselineSystem, OpKind, SystemConfig, TenantOp, TenantSet, TenantSpec,
///     TrafficEngine,
/// };
///
/// # fn main() -> Result<(), nds_system::SystemError> {
/// let spec = TenantSpec {
///     weight: 1,
///     depth: 4,
///     arrival: Arrival::Closed { outstanding: 2 },
///     datasets: vec![(Shape::new([32, 32]), ElementType::F32)],
///     ops: vec![TenantOp {
///         kind: OpKind::Read,
///         dataset: 0,
///         coord: vec![0, 0],
///         sub_dims: vec![32, 32],
///     }],
///     total_ops: 4,
/// };
/// let set = TenantSet::new(7).with_tenant(spec.clone()).with_tenant(spec);
/// let sys = BaselineSystem::new(SystemConfig::small_test());
/// let mut engine = TrafficEngine::new(sys, &set)?;
/// engine.run()?;
/// assert_eq!(engine.completions().len(), 8);
/// assert!(engine.completions().iter().all(|c| c.data_ok));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrafficEngine<S> {
    sys: S,
    seed: u64,
    tenants: Vec<TenantRuntime>,
    owners: BTreeMap<DatasetId, u32>,
    wfq: WfqScheduler<OpRef>,
    now: SimTime,
    completions: Vec<Completion>,
    /// Trace-cursor ranges of the setup writes, per tenant.
    setup_traces: Vec<(u64, u64, u32)>,
    /// The payload of the operation being served (read back or written),
    /// reused across operations.
    scratch: Vec<u8>,
    /// Engine-owned windowed telemetry on the engine's absolute clock
    /// (per-tenant achieved bytes and backlog). It records when the
    /// front-end [collects](StorageFrontEnd::collecting) and surfaces only
    /// through [`full_report`](TrafficEngine::full_report), keeping
    /// [`report`](TrafficEngine::report) obs-invariant.
    metrics: MetricSet,
}

impl<S: StorageFrontEnd> TrafficEngine<S> {
    /// Builds the engine: creates every tenant's dataspaces on `sys`,
    /// initializes them with the tenant's byte pattern, and releases each
    /// tenant's initial arrivals. The engine's own sampler runs when `sys`
    /// [collects](StorageFrontEnd::collecting). It runs on the engine's
    /// absolute clock — no epoch folding — and is observe-only: it never
    /// influences admission or scheduling.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors from dataset creation or the
    /// initializing writes.
    pub fn new(mut sys: S, set: &TenantSet) -> Result<Self, SystemError> {
        let mut tenants = Vec::with_capacity(set.tenants.len());
        let mut owners = BTreeMap::new();
        let mut wfq = WfqScheduler::new();
        let mut setup_traces = Vec::new();
        for (t, spec) in set.tenants.iter().enumerate() {
            let tenant = t as u32;
            wfq.register(tenant, spec.weight.max(1));
            let before = sys.trace_cursor();
            let mut datasets = Vec::with_capacity(spec.datasets.len());
            for (d, (shape, element)) in spec.datasets.iter().enumerate() {
                let id = sys.create_dataset(shape.clone(), *element)?;
                owners.insert(id, tenant);
                let bytes = shape
                    .checked_bytes(*element)
                    .ok_or(NdsError::ShapeTooLarge)?;
                let mut payload = vec![0u8; bytes as usize];
                fill_pattern(pattern_key(set.seed, tenant, d), 0, &mut payload);
                let coord = vec![0u64; shape.ndims()];
                sys.write(id, shape, &coord, shape.dims(), &payload)?;
                datasets.push((id, shape.clone(), *element));
            }
            let after = sys.trace_cursor();
            if after > before {
                setup_traces.push((before, after, tenant));
            }
            let resolved: Vec<TenantOp> = if spec.ops.is_empty() {
                Vec::new()
            } else {
                spec.ops
                    .iter()
                    .cycle()
                    .take(spec.total_ops as usize)
                    .cloned()
                    .collect()
            };
            let total = resolved.len() as u64;
            let mut pending = VecDeque::new();
            let released = match spec.arrival {
                Arrival::Open { mean_gap } => {
                    let mut at = SimTime::ZERO;
                    for i in 0..total {
                        at += arrival_gap(set.seed, tenant, i, mean_gap);
                        pending.push_back((i, at));
                    }
                    total
                }
                Arrival::Closed { outstanding } => {
                    let initial = u64::from(outstanding.max(1)).min(total);
                    for i in 0..initial {
                        pending.push_back((i, SimTime::ZERO));
                    }
                    initial
                }
            };
            tenants.push(TenantRuntime {
                spec: spec.clone(),
                datasets,
                resolved,
                pending,
                released,
                outstanding: 0,
                max_outstanding: 0,
                completed: 0,
                bytes: 0,
                commands: 0,
                busy: SimDuration::ZERO,
                response: LatencyHistogram::default(),
            });
        }
        let metrics = if sys.collecting() {
            MetricSet::enabled()
        } else {
            MetricSet::disabled()
        };
        Ok(TrafficEngine {
            sys,
            seed: set.seed,
            tenants,
            owners,
            wfq,
            now: SimTime::ZERO,
            completions: Vec::new(),
            setup_traces,
            scratch: Vec::new(),
            metrics,
        })
    }

    /// The owning tenant of a dataspace, if the engine created it.
    pub fn owner_of(&self, id: DatasetId) -> Option<u32> {
        self.owners.get(&id).copied()
    }

    /// The `index`-th dataspace id of `tenant`'s namespace.
    pub fn dataset_id(&self, tenant: u32, index: usize) -> Option<DatasetId> {
        self.tenants
            .get(tenant as usize)
            .and_then(|rt| rt.datasets.get(index))
            .map(|(id, _, _)| *id)
    }

    /// Reads a region of `id` in its canonical view on behalf of
    /// `tenant`, through the isolation guard.
    ///
    /// # Errors
    ///
    /// [`SystemError::TenantIsolation`] for foreign dataspaces; otherwise
    /// front-end errors.
    pub fn read_as(
        &mut self,
        tenant: u32,
        id: DatasetId,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let access = self.guard(tenant, id)?;
        let shape = shape_of(&self.tenants, access)?;
        self.sys.read_into(id, shape, coord, sub_dims, buf)
    }

    /// Writes `data` into a region of `id` in its canonical view on
    /// behalf of `tenant`, through the isolation guard.
    ///
    /// # Errors
    ///
    /// [`SystemError::TenantIsolation`] for foreign dataspaces; otherwise
    /// front-end errors.
    pub fn write_as(
        &mut self,
        tenant: u32,
        id: DatasetId,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        let access = self.guard(tenant, id)?;
        let shape = shape_of(&self.tenants, access)?;
        self.sys.write(id, shape, coord, sub_dims, data)
    }

    /// Runs the whole tenant set to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first front-end error; the engine's modeled faults
    /// (when the front-end carries a fault plan) are recovered inside the
    /// front-end and do not surface here.
    pub fn run(&mut self) -> Result<(), SystemError> {
        loop {
            self.admit()?;
            if let Some((tenant, opref)) = self.wfq.pop() {
                self.serve(tenant, opref)?;
            } else if let Some(next) = self.next_arrival() {
                // Device idle and nothing admitted: jump to the next
                // arrival instant.
                self.now = self.now.max(next);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Admits every arrived operation whose tenant has depth headroom, in
    /// tenant-id order (the deterministic tie-break for same-instant
    /// arrivals). Surfaces the scheduler's finish-tag overflow as a typed
    /// error instead of wrapping the virtual clock.
    fn admit(&mut self) -> Result<(), SystemError> {
        let now = self.now;
        for (t, rt) in self.tenants.iter_mut().enumerate() {
            while rt.outstanding < rt.spec.depth.max(1) {
                let Some(&(index, arrival)) = rt.pending.front() else {
                    break;
                };
                if arrival > now {
                    break;
                }
                rt.pending.pop_front();
                rt.outstanding += 1;
                rt.max_outstanding = rt.max_outstanding.max(rt.outstanding);
                let cost = rt
                    .resolved
                    .get(index as usize)
                    .map_or(1, |op| op_volume(op) * element_bytes(rt, op));
                self.wfq.enqueue(t as u32, cost, (index, arrival, now))?;
            }
        }
        Ok(())
    }

    /// The earliest arrival instant among all tenants' pending queues.
    fn next_arrival(&self) -> Option<SimTime> {
        self.tenants
            .iter()
            .filter_map(|rt| rt.pending.front().map(|&(_, at)| at))
            .min()
    }

    /// Serves one admitted operation on the device and records its
    /// completion.
    fn serve(&mut self, tenant: u32, (index, arrived, admitted): OpRef) -> Result<(), SystemError> {
        let Some(rt) = self.tenants.get(tenant as usize) else {
            return Ok(());
        };
        let Some(op) = rt.resolved.get(index as usize) else {
            return Ok(());
        };
        let Some(&(id, _, element)) = rt.datasets.get(op.dataset) else {
            return Err(SystemError::TenantIsolation {
                tenant,
                dataset: DatasetId(0),
            });
        };
        let kind = op.kind;
        let shape = shape_of(&self.tenants, self.guard(tenant, id)?)?;
        let started = self.now;
        let before = self.sys.trace_cursor();
        let elem = element.size() as u64;
        let key = pattern_key(self.seed, tenant, op.dataset);
        // `scratch` is borrowed in place, never moved out, so an error
        // leaves the engine its buffer.
        let (latency, commands, bytes, data_ok) = match kind {
            OpKind::Read => {
                let metrics =
                    self.sys
                        .read_into(id, shape, &op.coord, &op.sub_dims, &mut self.scratch)?;
                let ok = verify_pattern(key, shape, &op.coord, &op.sub_dims, elem, &self.scratch)?;
                (metrics.latency(), metrics.commands, metrics.bytes, ok)
            }
            OpKind::Write => {
                build_pattern(key, shape, &op.coord, &op.sub_dims, elem, &mut self.scratch)?;
                let outcome = self
                    .sys
                    .write(id, shape, &op.coord, &op.sub_dims, &self.scratch)?;
                (outcome.latency, outcome.commands, outcome.bytes, true)
            }
        };
        let after = self.sys.trace_cursor();
        let finished = started + latency;
        self.now = finished;
        if let Some(rt) = self.tenants.get_mut(tenant as usize) {
            rt.outstanding = rt.outstanding.saturating_sub(1);
            rt.completed += 1;
            rt.bytes += bytes;
            rt.commands += commands;
            rt.busy += latency;
            rt.response.record(finished.saturating_since(arrived));
            // Closed arrival: the completion releases the tenant's next
            // operation at this instant.
            if matches!(rt.spec.arrival, Arrival::Closed { .. })
                && rt.released < rt.resolved.len() as u64
            {
                rt.pending.push_back((rt.released, finished));
                rt.released += 1;
            }
            if self.metrics.is_enabled() {
                // Per-window achieved bytes drive the dashboard's WFQ
                // share plot; the backlog gauge is the tenant's admitted
                // but uncompleted depth at this completion.
                self.metrics.add(finished, "engine.ops", 1);
                self.metrics.add(finished, "engine.bytes", bytes);
                self.metrics
                    .add(finished, &format!("tenant[{tenant}].bytes"), bytes);
                self.metrics.sample(
                    finished,
                    &format!("tenant[{tenant}].backlog"),
                    u64::from(rt.outstanding),
                );
            }
        }
        self.completions.push(Completion {
            tenant,
            op_index: index,
            kind,
            arrived,
            admitted,
            started,
            finished,
            commands,
            bytes,
            data_ok,
            trace_range: (before, after),
        });
        Ok(())
    }

    /// The completion journal, in service order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// The engine clock after the last completion.
    pub fn makespan(&self) -> SimDuration {
        self.now.saturating_since(SimTime::ZERO)
    }

    /// The largest number of simultaneously admitted operations `tenant`
    /// ever had (for asserting depth limits).
    pub fn max_outstanding(&self, tenant: u32) -> u32 {
        self.tenants
            .get(tenant as usize)
            .map_or(0, |rt| rt.max_outstanding)
    }

    /// The underlying front-end.
    pub fn system(&self) -> &S {
        &self.sys
    }

    /// The engine's deterministic completion journal as text: one line
    /// per completion, in service order. Byte-identical across runs of
    /// the same tenant set and seed, with observability on or off.
    pub fn journal_lines(&self) -> String {
        let mut out = String::with_capacity(self.completions.len() * 96);
        for c in &self.completions {
            out.push_str(&format!(
                "tenant={} op={} kind={} arrive={} admit={} start={} finish={} cmds={} bytes={} ok={}\n",
                c.tenant,
                c.op_index,
                c.kind.letter(),
                c.arrived.as_nanos(),
                c.admitted.as_nanos(),
                c.started.as_nanos(),
                c.finished.as_nanos(),
                c.commands,
                c.bytes,
                c.data_ok,
            ));
        }
        out
    }

    /// The engine's run artifact, built **exclusively** from always-on
    /// engine-side accounting (completion log, per-tenant histograms and
    /// counters) so it is byte-identical across observability settings.
    /// Per-tenant sections are scoped as `tenant[N].*`.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport::new();
        report.set_meta("arch", self.sys.name());
        report.set_meta("engine", "tenants");
        report.set_meta("seed", self.seed.to_string());
        report.set_meta("tenants", self.tenants.len().to_string());
        let makespan = self.makespan();
        report.add_duration("engine.makespan", makespan);
        let total_bytes: u64 = self.tenants.iter().map(|rt| rt.bytes).sum();
        report
            .counters
            .insert("engine.bytes".to_owned(), total_bytes);
        report
            .counters
            .insert("engine.ops".to_owned(), self.completions.len() as u64);
        for (t, rt) in self.tenants.iter().enumerate() {
            let scope = format!("tenant[{t}]");
            report.counters.insert(format!("{scope}.ops"), rt.completed);
            report.counters.insert(format!("{scope}.bytes"), rt.bytes);
            report
                .counters
                .insert(format!("{scope}.commands"), rt.commands);
            report.counters.insert(
                format!("{scope}.max_outstanding"),
                u64::from(rt.max_outstanding),
            );
            report
                .counters
                .insert(format!("{scope}.weight"), rt.spec.weight.max(1));
            // Achieved throughput share in milli-units of the run total,
            // next to the configured weight share — the achieved-vs-
            // configured comparison of the QoS contract.
            let achieved = rt
                .bytes
                .saturating_mul(1000)
                .checked_div(total_bytes)
                .unwrap_or(0);
            report
                .counters
                .insert(format!("{scope}.share_milli"), achieved);
            let weight_total: u64 = self.tenants.iter().map(|x| x.spec.weight.max(1)).sum();
            let configured = rt.spec.weight.max(1).saturating_mul(1000) / weight_total.max(1);
            report
                .counters
                .insert(format!("{scope}.weight_share_milli"), configured);
            report.add_duration(format!("{scope}.busy"), rt.busy);
            report
                .histograms
                .insert(format!("{scope}.response"), rt.response.clone());
        }
        report
    }

    /// The engine report merged with the front-end's own
    /// [`run_report`](StorageFrontEnd::run_report) (under the `system.`
    /// prefix). Unlike [`report`](TrafficEngine::report), this varies
    /// with the observability configuration.
    pub fn full_report(&self) -> RunReport {
        let mut report = self.report();
        report.absorb_metrics(&self.metrics);
        report.merge_prefixed("system.", &self.sys.run_report());
        report
    }

    /// The front-end's causal trace with per-tenant attribution filled
    /// in: every trace id allocated during a tenant's setup or
    /// operations maps to that tenant in
    /// [`TraceExport::tenants`]. `None` when tracing is off.
    pub fn trace_export(&self) -> Option<TraceExport> {
        let mut export = self.sys.trace_export()?;
        let mut tenants: Vec<(u64, u32)> = Vec::new();
        for &(before, after, tenant) in &self.setup_traces {
            for id in before + 1..=after {
                tenants.push((id, tenant));
            }
        }
        for c in &self.completions {
            let (before, after) = c.trace_range;
            for id in before + 1..=after {
                tenants.push((id, c.tenant));
            }
        }
        tenants.sort_unstable();
        tenants.dedup();
        export.tenants = tenants;
        Some(export)
    }
}

/// Elements touched by an operation (product of its block shape).
fn op_volume(op: &TenantOp) -> u64 {
    op.sub_dims.iter().product::<u64>().max(1)
}

fn element_bytes(rt: &TenantRuntime, op: &TenantOp) -> u64 {
    rt.datasets
        .get(op.dataset)
        .map_or(1, |(_, _, e)| e.size() as u64)
}

/// The namespace isolation guard and the one dataset resolution behind it
/// (rule D6, DESIGN.md "Determinism contract"). [`Guarded`]'s fields are
/// private to this module, so [`TrafficEngine::guard`] is the only way to
/// mint one, and [`shape_of`] takes one: a data path that skips the guard
/// does not compile.
mod isolation {
    use nds_core::Shape;

    use super::{TenantRuntime, TrafficEngine};
    use crate::error::SystemError;
    use crate::frontend::{DatasetId, StorageFrontEnd};

    /// Proof that [`TrafficEngine::guard`] passed: `tenant` owns `dataset`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Guarded {
        tenant: u32,
        dataset: DatasetId,
    }

    impl<S: StorageFrontEnd> TrafficEngine<S> {
        /// The namespace isolation guard every data-path entry point passes
        /// through: `tenant` may only touch dataspaces it owns.
        ///
        /// # Errors
        ///
        /// [`SystemError::TenantIsolation`] when `id` belongs to another
        /// tenant (or to no tenant the engine knows).
        pub fn guard(&self, tenant: u32, id: DatasetId) -> Result<Guarded, SystemError> {
            match self.owner_of(id) {
                Some(owner) if owner == tenant => Ok(Guarded {
                    tenant,
                    dataset: id,
                }),
                _ => Err(SystemError::TenantIsolation {
                    tenant,
                    dataset: id,
                }),
            }
        }
    }

    /// The shape of the guarded dataspace, from its owner's namespace.
    pub(super) fn shape_of(
        tenants: &[TenantRuntime],
        access: Guarded,
    ) -> Result<&Shape, SystemError> {
        tenants
            .get(access.tenant as usize)
            .and_then(|rt| rt.datasets.iter().find(|(d, _, _)| *d == access.dataset))
            .map(|(_, shape, _)| shape)
            .ok_or(SystemError::UnknownDataset(access.dataset))
    }
}

/// Builds the pattern payload for a region write in `payload`: byte `k` is
/// the pattern byte (of the pattern keyed `key`) at the region's
/// dataset-linear offset for `k`.
fn build_pattern(
    key: u64,
    shape: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
    elem: u64,
    payload: &mut Vec<u8>,
) -> Result<(), SystemError> {
    let volume = Region::request_volume(shape, coord, sub_dims)?;
    payload.clear();
    payload.resize((volume * elem) as usize, 0);
    Region::for_each_request_run(shape, coord, sub_dims, |buf_off, linear, len| {
        let start = (buf_off * elem) as usize;
        if let Some(run) = payload.get_mut(start..start + (len * elem) as usize) {
            fill_pattern(key, linear * elem, run);
        }
    })?;
    Ok(())
}

/// Verifies a read buffer against the pattern keyed `key`: every byte of
/// every run, compared a lane at a time; a buffer of the wrong length fails.
fn verify_pattern(
    key: u64,
    shape: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
    elem: u64,
    buf: &[u8],
) -> Result<bool, SystemError> {
    let mut ok = true;
    let volume = Region::for_each_request_run(shape, coord, sub_dims, |buf_off, linear, len| {
        let start = (buf_off * elem) as usize;
        pattern_lanes(key, linear * elem, (len * elem) as usize, |done, bytes| {
            ok &= buf.get(start + done..start + done + bytes.len()) == Some(bytes);
        });
    })?;
    Ok(ok && buf.len() as u64 == volume * elem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineSystem;
    use crate::config::SystemConfig;

    fn spec(kind: OpKind, total: u64) -> TenantSpec {
        TenantSpec {
            weight: 1,
            depth: 2,
            arrival: Arrival::Closed { outstanding: 1 },
            datasets: vec![(Shape::new([16, 16]), ElementType::F32)],
            ops: vec![TenantOp {
                kind,
                dataset: 0,
                coord: vec![0, 0],
                sub_dims: vec![16, 16],
            }],
            total_ops: total,
        }
    }

    fn engine(set: &TenantSet) -> TrafficEngine<BaselineSystem> {
        TrafficEngine::new(BaselineSystem::new(SystemConfig::small_test()), set).unwrap()
    }

    #[test]
    fn closed_pair_completes_all_ops_in_order() {
        let set = TenantSet::new(42)
            .with_tenant(spec(OpKind::Read, 3))
            .with_tenant(spec(OpKind::Write, 3));
        let mut e = engine(&set);
        e.run().unwrap();
        assert_eq!(e.completions().len(), 6);
        assert!(e.completions().iter().all(|c| c.data_ok));
        // Per-tenant op indices are monotone (closed, depth 2).
        for t in 0..2 {
            let idx: Vec<u64> = e
                .completions()
                .iter()
                .filter(|c| c.tenant == t)
                .map(|c| c.op_index)
                .collect();
            assert_eq!(idx, vec![0, 1, 2]);
        }
    }

    #[test]
    fn open_arrivals_are_seeded_and_deterministic() {
        let mut spec = spec(OpKind::Read, 5);
        spec.arrival = Arrival::Open {
            mean_gap: SimDuration::from_micros(50),
        };
        let set = TenantSet::new(7).with_tenant(spec);
        let mut a = engine(&set);
        a.run().unwrap();
        let mut b = engine(&set);
        b.run().unwrap();
        assert_eq!(a.completions(), b.completions());
        assert_eq!(a.journal_lines(), b.journal_lines());
        // Arrivals are strictly increasing sums of hashed gaps.
        let arrivals: Vec<SimTime> = a.completions().iter().map(|c| c.arrived).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().any(|&at| at > SimTime::ZERO));
    }

    #[test]
    fn guard_rejects_foreign_dataset() {
        let set = TenantSet::new(1)
            .with_tenant(spec(OpKind::Read, 1))
            .with_tenant(spec(OpKind::Read, 1));
        let e = engine(&set);
        let own = e.dataset_id(0, 0).unwrap();
        let foreign = e.dataset_id(1, 0).unwrap();
        assert!(e.guard(0, own).is_ok());
        let err = e.guard(0, foreign).unwrap_err();
        assert!(matches!(
            err,
            SystemError::TenantIsolation { tenant: 0, .. }
        ));
    }

    #[test]
    fn report_is_engine_side_and_scoped() {
        let set = TenantSet::new(3)
            .with_tenant(spec(OpKind::Read, 2))
            .with_tenant(spec(OpKind::Write, 2));
        let mut e = engine(&set);
        e.run().unwrap();
        let report = e.report();
        assert_eq!(report.counters.get("tenant[0].ops"), Some(&2));
        assert_eq!(report.counters.get("tenant[1].ops"), Some(&2));
        assert!(report.histograms.contains_key("tenant[0].response"));
        let shares: u64 = (0..2)
            .map(|t| {
                report
                    .counters
                    .get(&format!("tenant[{t}].share_milli"))
                    .copied()
                    .unwrap()
            })
            .sum();
        assert!(
            (999..=1001).contains(&shares),
            "shares sum to ~1000: {shares}"
        );
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut s = spec(OpKind::Read, 8);
        s.depth = 2;
        s.arrival = Arrival::Closed { outstanding: 4 };
        let set = TenantSet::new(9).with_tenant(s);
        let mut e = engine(&set);
        e.run().unwrap();
        assert_eq!(e.completions().len(), 8);
        assert!(e.max_outstanding(0) <= 2);
    }

    #[test]
    fn pattern_is_per_tenant_and_positional() {
        assert_ne!(
            tenant_pattern_byte(1, 0, 0, 0),
            tenant_pattern_byte(1, 1, 0, 0),
            "tenants have distinct patterns"
        );
        assert_eq!(
            tenant_pattern_byte(5, 3, 2, 77),
            tenant_pattern_byte(5, 3, 2, 77)
        );
    }

    #[test]
    fn lane_walk_equals_the_byte_pattern_at_every_alignment() {
        let (seed, tenant, dataset) = (0x5eed, 3, 1);
        let key = pattern_key(seed, tenant, dataset);
        for misalign in 0..8u64 {
            for len in 0..=40usize {
                let offset = 8 * 1000 + misalign;
                let mut filled = vec![0xEEu8; len];
                let mut delivered = 0;
                pattern_lanes(key, offset, len, |done, bytes| {
                    assert_eq!(done, delivered, "lanes arrive in order, gap-free");
                    filled[done..done + bytes.len()].copy_from_slice(bytes);
                    delivered += bytes.len();
                });
                assert_eq!(delivered, len);
                for (k, &b) in filled.iter().enumerate() {
                    assert_eq!(
                        b,
                        tenant_pattern_byte(seed, tenant, dataset, offset + k as u64),
                        "misalign {misalign} len {len} byte {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn verify_compares_every_byte_and_the_length() {
        // A 5 × 3 box at (5, 3) of a 13 × 7 byte matrix: three 5-byte runs
        // at dataset offsets 44, 57 and 70 — the first and last straddle a
        // lane boundary, the middle one sits inside a lane.
        let key = pattern_key(9, 2, 0);
        let shape = Shape::new([13, 7]);
        let (coord, sub) = ([1u64, 1], [5u64, 3]);
        let mut payload = Vec::new();
        build_pattern(key, &shape, &coord, &sub, 1, &mut payload).unwrap();
        assert_eq!(payload.len(), 15);
        for (k, &b) in payload.iter().enumerate() {
            let offset = (3 + k as u64 / 5) * 13 + 5 + k as u64 % 5;
            assert_eq!(b, tenant_pattern_byte(9, 2, 0, offset), "payload byte {k}");
        }
        assert!(verify_pattern(key, &shape, &coord, &sub, 1, &payload).unwrap());
        for k in 0..payload.len() {
            let mut bad = payload.clone();
            bad[k] ^= 0x10;
            assert!(
                !verify_pattern(key, &shape, &coord, &sub, 1, &bad).unwrap(),
                "flipped byte {k} went unnoticed"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(!verify_pattern(key, &shape, &coord, &sub, 1, &long).unwrap());
        assert!(!verify_pattern(key, &shape, &coord, &sub, 1, &payload[..14]).unwrap());
        assert!(!verify_pattern(key, &shape, &coord, &sub, 1, &[]).unwrap());
        // Multi-byte elements: a 4-byte-element run is one 16-byte range.
        let wide = Shape::new([4, 4]);
        build_pattern(key, &wide, &[0, 1], &[4, 1], 4, &mut payload).unwrap();
        assert_eq!(payload.len(), 16);
        assert_eq!(payload[15], tenant_pattern_byte(9, 2, 0, 16 + 15));
        payload[15] ^= 1;
        assert!(!verify_pattern(key, &wide, &[0, 1], &[4, 1], 4, &payload).unwrap());
    }

    /// A front-end whose reads fail with a typed error while `failing`.
    struct FailingReads {
        inner: BaselineSystem,
        failing: bool,
    }

    impl StorageFrontEnd for FailingReads {
        fn name(&self) -> &'static str {
            "failing-reads"
        }

        fn create_dataset(
            &mut self,
            shape: Shape,
            element: ElementType,
        ) -> Result<DatasetId, SystemError> {
            self.inner.create_dataset(shape, element)
        }

        fn write(
            &mut self,
            id: DatasetId,
            view: &Shape,
            coord: &[u64],
            sub_dims: &[u64],
            data: &[u8],
        ) -> Result<WriteOutcome, SystemError> {
            self.inner.write(id, view, coord, sub_dims, data)
        }

        fn read_into(
            &mut self,
            id: DatasetId,
            view: &Shape,
            coord: &[u64],
            sub_dims: &[u64],
            buf: &mut Vec<u8>,
        ) -> Result<ReadMetrics, SystemError> {
            if self.failing {
                return Err(SystemError::UnknownDataset(id));
            }
            self.inner.read_into(id, view, coord, sub_dims, buf)
        }

        fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
            self.inner.delete_dataset(id)
        }

        fn stats(&self) -> nds_sim::Stats {
            self.inner.stats()
        }
    }

    #[test]
    fn failed_read_keeps_the_reused_buffer() {
        let set = TenantSet::new(11).with_tenant(spec(OpKind::Read, 4));
        let sys = FailingReads {
            inner: BaselineSystem::new(SystemConfig::small_test()),
            failing: false,
        };
        let mut e = TrafficEngine::new(sys, &set).unwrap();
        e.admit().unwrap();
        let (tenant, opref) = e.wfq.pop().unwrap();
        e.serve(tenant, opref).unwrap();
        let capacity = e.scratch.capacity();
        assert!(capacity >= 16 * 16 * 4, "the first read sized the buffer");

        e.sys.failing = true;
        e.admit().unwrap();
        let (tenant, opref) = e.wfq.pop().unwrap();
        let err = e.serve(tenant, opref).unwrap_err();
        assert!(matches!(err, SystemError::UnknownDataset(_)), "got {err}");
        assert_eq!(
            e.scratch.capacity(),
            capacity,
            "a failed read must not cost the engine its buffer"
        );
    }
}

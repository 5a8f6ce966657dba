//! The sharded multi-device cluster front-end (ISSUE 9).
//!
//! [`NdsCluster`] composes N simulated NDS devices behind one
//! [`StorageFrontEnd`], the way GNStor-style all-flash arrays compose NVMe
//! devices behind one rack front-end. The design transplants the STL's own
//! layout trick up one level: just as the STL stripes a building block's
//! pages across flash channels, the cluster shards a dataset's canonical
//! space across devices and replicates each shard k ways.
//!
//! # Placement
//!
//! Shape dimensions are fastest-first, so the cluster shards along the
//! **last** (slowest-varying) dimension: shard `h` owns `shard_rows`
//! consecutive last-dimension rows, which is a *contiguous range of the
//! canonical linearization*. Each shard is an ordinary device-local dataset
//! of shape `[d₁ … dₙ₋₁, rows]`, and the device's own STL handles
//! intra-shard layout.
//!
//! Replica holders are chosen by seeded **rendezvous hashing**: every
//! device scores a `splitmix64` hash of `(seed, dataset, shard, device)` and
//! the top-k scores win (ties broken by device index). The choice is a pure function of the
//! seed and the identifiers — no placement tables to keep consistent, and
//! any participant can recompute it, which is what makes re-replication
//! after a device kill deterministic.
//!
//! # Sub-op plan
//!
//! Every request becomes a list of device sub-ops, each an N-D partition
//! `(coord, sub_dims)` of one shard's **own local shape** — a tile reaches
//! the device as a tile, not as strips. Planning is two steps. *Boxes:* a
//! request in the dataset's own view is one box; a request through any
//! other view contributes its canonical runs, each cut into the few boxes
//! that are aligned in every dimension but one (a partial row, then
//! whole-row slabs, then whole planes, … and back down). *Pieces:* each box
//! is cut at the shard row boundaries, and each piece is split along its
//! one free dimension only where its extent does not divide its origin —
//! greedily, into the longest pieces whose extent does. Every piece is
//! contiguous in the caller's buffer and the list is in ascending buffer
//! order, so one read loop appends pieces and one write loop slices the
//! payload. A request inside one shard row band, aligned to it, is one
//! sub-op per replica.
//!
//! # Steering, failover, and the ack invariant
//!
//! Reads steer to the *least-busy* fresh replica using a per-device
//! run-long [`Resource`] as the load signal (its `next_free` is the
//! device's cumulative committed service time; ties prefer rendezvous
//! order). Writes go to **every** fresh reachable replica and are
//! acknowledged only if at least one replica accepted them — otherwise the
//! operation fails with a typed error and is *not* acknowledged. A
//! link-down replica misses writes and is marked stale; restoring the link
//! resyncs it from a fresh peer before it serves reads again. Killing a
//! device permanently triggers deterministic re-replication of every shard
//! it held onto the highest-scoring surviving non-holder.
//!
//! Together these give the invariant the differential harness checks: **no
//! acknowledged write is ever lost** — after any plan of kills, link drops
//! and restores, a full read returns bytes identical to a fault-free golden
//! run over the same acknowledged writes.
//!
//! Device fault plans come from [`nds_faults::ClusterFaultPlan`]: an
//! explicit, ordered schedule of [`DeviceFault`] events applied before the
//! front-end operation whose 0-based index reaches `at_op`. The empty plan
//! is the golden run. A single-shard dataset plans every request as one
//! sub-op carrying the caller's `(view, coord, sub_dims)` verbatim, so a
//! `k = 1, N = 1` cluster's device sees a call sequence identical to
//! running without the cluster at all.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nds_core::{ElementType, NdsError, Region, Shape};
use nds_faults::{ClusterFaultPlan, DeviceFault, DeviceFaultKind};
use nds_sim::{
    splitmix64, ComponentId, EventKind, ObsConfig, Observability, Resource, RunReport, SimDuration,
    SimTime, Stats, TraceExport,
};

use crate::error::SystemError;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};

/// The cluster's own journal component.
const CLUSTER_COMPONENT: ComponentId = ComponentId::singleton("cluster");

/// Domain-separation salts for the rendezvous score (one per identifier so
/// swapping a dataset id with a shard index cannot collide).
const SALT_DATASET: u64 = 0x434c_5553_4441_5441;
const SALT_SHARD: u64 = 0x434c_5553_5348_4152;
const SALT_DEVICE: u64 = 0x434c_5553_4445_5649;

/// The rendezvous score of `device` for `(dataset, shard)` under `seed`.
/// A pure function, so any holder set can be recomputed at any time.
fn rendezvous_score(seed: u64, dataset: u64, shard: u64, device: u64) -> u64 {
    let dataset = splitmix64(dataset ^ SALT_DATASET);
    let shard = splitmix64(shard ^ SALT_SHARD);
    let device = splitmix64(device ^ SALT_DEVICE);
    splitmix64(seed ^ dataset ^ shard ^ device)
}

/// The length of the longest piece `[p, p + l)`, `1 ≤ l ≤ rem`, that one
/// partition request can name along a dimension: `l` must divide `p` (the
/// request is coordinate `p / l`, extent `l`). From 0 that is all of `rem`;
/// from `p ≤ rem` it is `p` itself; otherwise it is the largest divisor of
/// `p` not above `rem`, i.e. `p / k` for the smallest co-divisor
/// `k ≥ ⌈p / rem⌉` — tried up to `√p`, past which the divisor is below `√p`
/// and is tried directly. `rem` must be non-zero.
fn aligned_len(p: u64, rem: u64) -> u64 {
    if p <= rem {
        return if p == 0 { rem } else { p };
    }
    let mut k = p.div_ceil(rem.max(1));
    while k.saturating_mul(k) <= p {
        if p.is_multiple_of(k) {
            return p / k;
        }
        k += 1;
    }
    (1..=rem.min(p / k))
        .rev()
        .find(|&d| p.is_multiple_of(d))
        .unwrap_or(1)
}

/// Tunable knobs of a cluster run. `Default` is a single-device,
/// single-replica cluster — the pass-through configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of devices composed behind the front-end (`NdsCluster::new`
    /// builds at least one).
    pub devices: usize,
    /// Replicas per shard (`NdsCluster::new` clamps it to between one and
    /// the device count).
    pub replicas: usize,
    /// Last-dimension rows per shard; 0 keeps every dataset in one shard.
    pub shard_rows: u64,
    /// Seed of the rendezvous placement function.
    pub seed: u64,
    /// The device-scope fault schedule (empty = golden run).
    pub plan: ClusterFaultPlan,
    /// Observability for the cluster's own journal, histograms, and
    /// per-device steering timelines (devices carry their own `ObsConfig`
    /// inside their `SystemConfig`).
    pub obs: ObsConfig,
}

impl ClusterConfig {
    /// A cluster of `devices` devices with `replicas`-way replication, no
    /// sharding, seed 0, no faults, observability off.
    pub fn new(devices: usize, replicas: usize) -> Self {
        ClusterConfig {
            devices,
            replicas,
            shard_rows: 0,
            seed: 0,
            plan: ClusterFaultPlan::default(),
            obs: ObsConfig::disabled(),
        }
    }

    /// Shards datasets every `rows` last-dimension rows (0 disables).
    pub fn with_shard_rows(mut self, rows: u64) -> Self {
        self.shard_rows = rows;
        self
    }

    /// Sets the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a device-scope fault schedule.
    pub fn with_plan(mut self, plan: ClusterFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Enables cluster-side observability.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(1, 1)
    }
}

/// One replica of one shard: which device holds it, under which
/// device-local dataset id, and whether it missed writes (stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Replica {
    device: u32,
    local: DatasetId,
    stale: bool,
}

/// One shard: a contiguous run of last-dimension rows, its device-local
/// shape, and its replica set in rendezvous order.
#[derive(Debug)]
struct Shard {
    start_row: u64,
    /// The shard's device-local dataset shape `[d₁ … dₙ₋₁, rows]` — every
    /// sub-op of the shard is a partition of it.
    local: Shape,
    replicas: Vec<Replica>,
}

/// Cluster-side metadata of one dataset.
#[derive(Debug)]
struct ClusterDataset {
    shape: Shape,
    element: ElementType,
    /// Rows per shard for every shard but possibly the last.
    rows_per_shard: u64,
    shards: Vec<Shard>,
}

/// One composed device: the simulated system plus cluster-side liveness
/// and the run-long steering resource.
struct DeviceSlot<S> {
    sys: S,
    alive: bool,
    link_up: bool,
    busy: Resource,
}

impl<S> DeviceSlot<S> {
    /// The one reachability predicate: placement, steering, the write ack
    /// rule, repair sources and deletes all ask this.
    fn reachable(&self) -> bool {
        self.alive && self.link_up
    }
}

/// One planned device-level sub-operation of a clustered request: a
/// partition of shard `shard`'s local shape holding `len` elements, which
/// land at element offset `buf_elem` of the caller's dense buffer. Every
/// front-end request — sharded or not — becomes one `SubOp` list executed
/// by one read loop or one write loop.
#[derive(Debug, Clone, Copy)]
struct SubOp {
    shard: usize,
    /// Where the partition's `coord` and then its `sub_dims` (one word per
    /// dimension each) start in [`Plan::table`].
    at: usize,
    len: u64,
    buf_elem: u64,
    /// Set on the single sub-op of a single-shard dataset: the shard *is*
    /// the dataset, so the caller's own `(view, coord, sub_dims)` forwards
    /// verbatim and the device sees the call sequence it would see without
    /// the cluster.
    verbatim: bool,
}

/// A front-end request as the caller phrased it: `(view, coord, sub_dims)`.
type Request<'a> = (&'a Shape, &'a [u64], &'a [u64]);

impl SubOp {
    /// The device request serving this sub-op of `caller`'s request from a
    /// replica of `shard`; `table` is the plan's [`Plan::table`].
    fn request<'b>(
        &self,
        shard: &'b Shard,
        table: &'b [u64],
        caller: Request<'b>,
    ) -> Result<Request<'b>, SystemError> {
        if self.verbatim {
            return Ok(caller);
        }
        let n = shard.local.ndims();
        table
            .get(self.at..self.at + 2 * n)
            .and_then(|words| words.split_at_checked(n))
            .map(|(coord, sub_dims)| (&shard.local, coord, sub_dims))
            .ok_or(SystemError::ClusterInconsistency("sub-op table"))
    }

    /// Appends this sub-op's `payload` to the read buffer. The plan is in
    /// ascending buffer order, so it lands exactly where the previous
    /// sub-op's ended — anything else is a planning bug, reported rather
    /// than assembled.
    fn append_payload(
        &self,
        payload: &[u8],
        esize: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), SystemError> {
        let bytes = payload
            .get(..(self.len * esize) as usize)
            .filter(|_| self.buf_elem * esize == buf.len() as u64)
            .ok_or(SystemError::ClusterInconsistency("read buffer range"))?;
        buf.extend_from_slice(bytes);
        Ok(())
    }
}

/// A planned request: its sub-ops in ascending buffer order, the
/// coordinate table they point into, and the box being cut while planning.
#[derive(Debug, Default)]
struct Plan {
    subops: Vec<SubOp>,
    /// The `coord` then the `sub_dims` of every non-verbatim sub-op, one
    /// word per dimension each.
    table: Vec<u64>,
    /// Origin and extent, in dataset coordinates, of the box being cut.
    origin: Vec<u64>,
    extent: Vec<u64>,
}

impl Plan {
    /// Cuts the canonical run `[linear, linear + len)`, which fills the
    /// caller's buffer from element `buf`, into the boxes aligned in every
    /// dimension but one — on the way up the partial row, then the rows up
    /// to the next plane, …; on the way down the whole slabs of the slowest
    /// dimension, then of the next, … — and splits each.
    fn split_run(
        &mut self,
        ds: &ClusterDataset,
        buf: u64,
        linear: u64,
        len: u64,
    ) -> Result<(), SystemError> {
        let dims = ds.shape.dims();
        let end = linear + len;
        let mut at = linear;
        // Elements in one step along dimension `k`.
        let mut stride = 1;
        for (k, &d) in dims.iter().enumerate() {
            let next = stride * d;
            let units = (end.min(at.next_multiple_of(next)) - at) / stride;
            self.run_box(ds, k, at, units, buf + (at - linear))?;
            at += units * stride;
            stride = next;
        }
        for (k, &d) in dims.iter().enumerate().rev() {
            stride /= d;
            let units = (end - at) / stride;
            self.run_box(ds, k, at, units, buf + (at - linear))?;
            at += units * stride;
        }
        Ok(())
    }

    /// The box of `units` steps along dimension `free` from linear element
    /// `at` (a multiple of one step): whole along every faster dimension,
    /// one element thick along every slower one. Split by
    /// [`split_box`](Self::split_box); nothing for zero steps.
    fn run_box(
        &mut self,
        ds: &ClusterDataset,
        free: usize,
        at: u64,
        units: u64,
        buf: u64,
    ) -> Result<(), SystemError> {
        if units == 0 {
            return Ok(());
        }
        self.origin.clear();
        self.extent.clear();
        let mut rest = at;
        for (i, &d) in ds.shape.dims().iter().enumerate() {
            self.origin.push(rest % d);
            rest /= d;
            self.extent.push(match i.cmp(&free) {
                std::cmp::Ordering::Less => d,
                std::cmp::Ordering::Equal => units,
                std::cmp::Ordering::Greater => 1,
            });
        }
        self.split_box(ds, free, buf)
    }

    /// Cuts the box `origin`/`extent` — contiguous in the caller's buffer
    /// from element `buf`, aligned to its extent in every dimension but
    /// `free`, and free along the last dimension unless it is one row
    /// thick — at the shard row boundaries, and each piece along `free`
    /// into the longest pieces whose extent divides their origin
    /// ([`aligned_len`]). Pushes one sub-op per piece, in ascending buffer
    /// order.
    fn split_box(&mut self, ds: &ClusterDataset, free: usize, buf: u64) -> Result<(), SystemError> {
        let Plan {
            subops,
            table,
            origin,
            extent,
        } = self;
        let last = origin.len().saturating_sub(1);
        let range = |i: usize| origin.get(i).copied().zip(extent.get(i).copied());
        let ((lo, width), (r0, rows)) = range(free)
            .zip(range(last))
            .ok_or(SystemError::ClusterInconsistency("plan box"))?;
        let r1 = r0 + rows;
        // Elements in one step along `free`.
        let step: u64 = extent.iter().take(free).product();
        let first = usize::try_from(r0 / ds.rows_per_shard).unwrap_or(usize::MAX);
        let shards = ds.shards.iter().enumerate().skip(first);
        for (h, shard) in shards.take_while(|(_, s)| s.start_row < r1) {
            let start = shard.start_row;
            // The piece's range along `free` in the shard's coordinates, and
            // what to add to it for the box's.
            let (mut p, stop, shift) = if free == last {
                let end = start + shard.local.dim(last);
                (r0.max(start) - start, r1.min(end) - start, start)
            } else {
                (lo, lo + width, 0)
            };
            while p < stop {
                let len = aligned_len(p, stop - p);
                let local = |i: usize, o: u64, e: u64| {
                    if i == free {
                        (p, len)
                    } else if i == last {
                        (o - start, e)
                    } else {
                        (o, e)
                    }
                };
                let piece = || origin.iter().zip(extent.iter()).enumerate();
                let at = table.len();
                table.extend(piece().map(|(i, (&o, &e))| {
                    let (o, e) = local(i, o, e);
                    o / e
                }));
                table.extend(piece().map(|(i, (&o, &e))| local(i, o, e).1));
                subops.push(SubOp {
                    shard: h,
                    at,
                    len: step * len,
                    buf_elem: buf + (p + shift - lo) * step,
                    verbatim: false,
                });
                p += len;
            }
        }
        Ok(())
    }
}

/// Request-scoped lists of one clustered operation, kept between
/// operations so planning and executing one does not allocate in steady
/// state.
#[derive(Debug, Default)]
struct OpScratch {
    /// Coalesced `(buffer offset, linear start, length)` runs of the region.
    runs: Vec<(u64, u64, u64)>,
    plan: Plan,
    /// Per device: the serial `(latency, occupancy)` sums of its sub-ops.
    dev_io: Vec<(SimDuration, SimDuration)>,
    /// The replica payload of the sub-op being read.
    payload: Vec<u8>,
}

impl ClusterDataset {
    /// The shard geometry of a dataset of `shape`: row bands of
    /// `shard_rows` last-dimension rows (0 = one band), replica sets empty.
    fn new(shape: Shape, element: ElementType, shard_rows: u64) -> Result<Self, NdsError> {
        let (&last, inner) = shape.dims().split_last().ok_or(NdsError::EmptyShape)?;
        let rows_per_shard = if shard_rows == 0 {
            last
        } else {
            shard_rows.min(last)
        };
        let mut shards = Vec::new();
        let mut start_row = 0u64;
        while start_row < last {
            let rows = rows_per_shard.min(last - start_row);
            let mut local = inner.to_vec();
            local.push(rows);
            shards.push(Shard {
                start_row,
                local: Shape::try_new(local)?,
                replicas: Vec::new(),
            });
            start_row += rows;
        }
        Ok(ClusterDataset {
            shape,
            element,
            rows_per_shard,
            shards,
        })
    }

    /// Plans the request `(view, coord, sub_dims)` as device sub-operations
    /// (see the module docs): leaves them in `scratch.plan`, in ascending
    /// buffer order, and returns the request's element volume.
    ///
    /// A single-shard dataset plans to exactly one [`SubOp::verbatim`]
    /// sub-op. A request in the dataset's own view is one box, free along
    /// the last dimension. Any other view's linear runs are first coalesced
    /// — adjacent runs contiguous in both the buffer and the linearization
    /// merge — and each is cut into boxes ([`Plan::split_run`]).
    fn plan(
        &self,
        (view, coord, sub_dims): Request<'_>,
        scratch: &mut OpScratch,
    ) -> Result<u64, SystemError> {
        if view.volume() != self.shape.volume() {
            return Err(SystemError::Nds(NdsError::ViewVolumeMismatch {
                space: self.shape.volume(),
                view: view.volume(),
            }));
        }
        let OpScratch { runs, plan, .. } = scratch;
        plan.subops.clear();
        plan.table.clear();
        if self.shards.len() == 1 {
            let volume = Region::request_volume(view, coord, sub_dims).map_err(SystemError::Nds)?;
            plan.subops.push(SubOp {
                shard: 0,
                at: 0,
                len: volume,
                buf_elem: 0,
                verbatim: true,
            });
            return Ok(volume);
        }
        if view.dims() == self.shape.dims() {
            let volume = Region::request_volume(view, coord, sub_dims).map_err(SystemError::Nds)?;
            plan.origin.clear();
            plan.origin
                .extend(coord.iter().zip(sub_dims).map(|(c, f)| c * f));
            plan.extent.clear();
            plan.extent.extend_from_slice(sub_dims);
            plan.split_box(self, self.shape.ndims().saturating_sub(1), 0)?;
            return Ok(volume);
        }
        runs.clear();
        let volume = Region::for_each_request_run(view, coord, sub_dims, |buf, linear, len| {
            if let Some(last) = runs.last_mut() {
                if last.0 + last.2 == buf && last.1 + last.2 == linear {
                    last.2 += len;
                    return;
                }
            }
            runs.push((buf, linear, len));
        })
        .map_err(SystemError::Nds)?;
        for &(buf, linear, len) in runs.iter() {
            plan.split_run(self, buf, linear, len)?;
        }
        Ok(volume)
    }

    /// The write ack rule: the lowest shard `subops` touch that has no
    /// fresh reachable replica, if any. Such a write is rejected
    /// unacknowledged before any device is touched.
    fn unacked_shard<S>(&self, devices: &[DeviceSlot<S>], subops: &[SubOp]) -> Option<usize> {
        let acks = |h: &usize| {
            let shard = self.shards.get(*h);
            shard.is_some_and(|s| fresh_replicas(devices, s).next().is_some())
        };
        subops.iter().map(|s| s.shard).filter(|h| !acks(h)).min()
    }
}

/// The cluster front-end: N devices, k-way replicated shards, deterministic
/// failover. See the module docs for the design.
pub struct NdsCluster<S> {
    config: ClusterConfig,
    devices: Vec<DeviceSlot<S>>,
    datasets: BTreeMap<DatasetId, ClusterDataset>,
    next_id: u64,
    /// 0-based front-end read/write counter (the fault clock).
    ops: u64,
    /// The flattened fault schedule and how far it has been applied.
    events: Vec<DeviceFault>,
    fault_cursor: usize,
    stats: Stats,
    obs: Observability,
    /// Deterministic text journal, one line per completion or fault event.
    log: String,
    /// Modeled time spent copying shards for re-replication / resync.
    repair_time: SimDuration,
    scratch: OpScratch,
}

/// Device `device`'s slot, or the typed bookkeeping error. Free functions
/// take the `devices` field alone, so the data path can hold a slot next to
/// its borrows of `datasets` and `scratch`.
fn slot_mut<S>(
    devices: &mut [DeviceSlot<S>],
    device: u32,
) -> Result<&mut DeviceSlot<S>, SystemError> {
    devices
        .get_mut(device as usize)
        .ok_or(SystemError::ClusterInconsistency("replica device index"))
}

/// The fresh (not stale) replicas of `shard` on reachable devices, in
/// rendezvous order, each with its device slot — the one eligibility rule
/// behind read steering, the write ack check and repair sources.
fn fresh_replicas<'a, S>(
    devices: &'a [DeviceSlot<S>],
    shard: &'a Shard,
) -> impl Iterator<Item = (Replica, &'a DeviceSlot<S>)> {
    shard.replicas.iter().filter_map(move |r| {
        let slot = devices.get(r.device as usize)?;
        (slot.reachable() && !r.stale).then_some((*r, slot))
    })
}

/// The repair source for `shard`: its first fresh reachable replica not on
/// `except` (the device being replaced or resynced).
fn fresh_source<S>(devices: &[DeviceSlot<S>], shard: &Shard, except: u32) -> Option<Replica> {
    fresh_replicas(devices, shard)
        .map(|(r, _)| r)
        .find(|r| r.device != except)
}

/// Chooses the serving replica for a read: among fresh reachable replicas,
/// the one whose steering resource is least committed; ties prefer
/// rendezvous order. Returns the replica plus how many replicas were
/// eligible (for degraded-read accounting).
fn pick_replica<S>(devices: &[DeviceSlot<S>], shard: &Shard) -> (Option<Replica>, usize) {
    let mut eligible = 0usize;
    let best = fresh_replicas(devices, shard)
        .inspect(|_| eligible += 1)
        .min_by_key(|(_, slot)| slot.busy.next_free())
        .map(|(r, _)| r);
    (best, eligible)
}

fn shard_index(h: usize) -> u32 {
    u32::try_from(h).unwrap_or(u32::MAX)
}

impl<S: StorageFrontEnd> NdsCluster<S> {
    /// Builds a cluster whose `i`-th device is `factory(i)`. The config is
    /// normalized here, once: at least one device, and between one replica
    /// and the device count, so the report, placement and degraded-read
    /// accounting all read the same values.
    pub fn new(mut config: ClusterConfig, mut factory: impl FnMut(usize) -> S) -> Self {
        config.devices = config.devices.max(1);
        config.replicas = config.replicas.clamp(1, config.devices);
        let n = config.devices;
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        let devices = (0..n)
            .map(|i| {
                let mut busy = Resource::new(format!("cluster.device[{i}]"));
                if config.obs.collecting() {
                    busy.enable_timeline();
                }
                DeviceSlot {
                    sys: factory(i),
                    alive: true,
                    link_up: true,
                    busy,
                }
            })
            .collect();
        let events = config.plan.events().to_vec();
        NdsCluster {
            config,
            devices,
            datasets: BTreeMap::new(),
            next_id: 1,
            ops: 0,
            events,
            fault_cursor: 0,
            stats: Stats::new(),
            obs,
            log: String::new(),
            repair_time: SimDuration::ZERO,
            scratch: OpScratch::default(),
        }
    }

    /// Number of composed devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Immutable view of device `i`'s simulated system.
    pub fn device(&self, i: usize) -> Option<&S> {
        self.devices.get(i).map(|d| &d.sys)
    }

    /// True if device `i` exists and has not been killed.
    pub fn is_alive(&self, i: usize) -> bool {
        self.devices.get(i).is_some_and(|d| d.alive)
    }

    /// True if device `i` exists, is alive, and its link is up.
    pub fn is_reachable(&self, i: usize) -> bool {
        self.devices.get(i).is_some_and(DeviceSlot::reachable)
    }

    /// Number of shards of dataset `id` (None if unknown).
    pub fn shard_count(&self, id: DatasetId) -> Option<usize> {
        self.datasets.get(&id).map(|d| d.shards.len())
    }

    /// The devices currently holding replicas of `(id, shard)`, in
    /// rendezvous order.
    pub fn replica_devices(&self, id: DatasetId, shard: usize) -> Vec<u32> {
        self.shard(id, shard)
            .map(|s| s.replicas.iter().map(|r| r.device).collect())
            .unwrap_or_default()
    }

    /// The deterministic completion/fault journal: one line per front-end
    /// completion, fault event, re-replication, and resync, in order.
    pub fn journal_lines(&self) -> String {
        self.log.clone()
    }

    /// The cluster-side run report: placement meta, cluster counters and
    /// repair durations, the cluster journal summary, and the per-device
    /// steering timelines. Device-internal reports are *not* merged — see
    /// [`full_report`](Self::full_report).
    pub fn report(&self) -> RunReport {
        let mut report = self.stats.to_report();
        report.set_meta("arch", "cluster");
        report.set_meta("cluster.devices", format!("{}", self.config.devices));
        report.set_meta("cluster.replicas", format!("{}", self.config.replicas));
        report.set_meta("cluster.shard_rows", format!("{}", self.config.shard_rows));
        report.set_meta("cluster.seed", format!("{}", self.config.seed));
        report.add_duration("cluster.repair_time", self.repair_time);
        report.absorb(&self.obs);
        for slot in &self.devices {
            if let Some(timeline) = slot.busy.timeline() {
                report.add_busy(slot.busy.name(), timeline);
            }
        }
        report
    }

    /// [`report`](Self::report) plus every device's own run report merged
    /// under `device[i].` — the artifact the determinism stage compares.
    pub fn full_report(&self) -> RunReport {
        let mut report = self.report();
        for (i, slot) in self.devices.iter().enumerate() {
            report.merge_prefixed(&format!("device[{i}]."), &slot.sys.run_report());
        }
        report
    }

    /// Every device's causal trace export (label, export), for devices
    /// built with tracing on. Dead devices still export — their journal up
    /// to the kill is part of the run.
    pub fn device_trace_exports(&self) -> Vec<(String, TraceExport)> {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.sys.trace_export().map(|t| (format!("device[{i}]"), t)))
            .collect()
    }

    fn shard(&self, id: DatasetId, h: usize) -> Option<&Shard> {
        self.datasets.get(&id)?.shards.get(h)
    }

    fn shard_mut(&mut self, id: DatasetId, h: usize) -> Option<&mut Shard> {
        self.datasets.get_mut(&id)?.shards.get_mut(h)
    }

    /// Every `(dataset, shard index)` with a replica on `device`, in
    /// `(dataset id, shard index)` order — the deterministic work list of
    /// re-replication and resync.
    fn shards_on(&self, device: u32) -> Vec<(DatasetId, usize)> {
        let mut held = Vec::new();
        for (&id, ds) in &self.datasets {
            for (h, shard) in ds.shards.iter().enumerate() {
                if shard.replicas.iter().any(|r| r.device == device) {
                    held.push((id, h));
                }
            }
        }
        held
    }

    /// Top-`k` reachable devices by rendezvous score for
    /// `(dataset, shard)`, best first; ties prefer the lower device index.
    fn place(&self, dataset: u64, shard: u64, k: usize) -> Vec<u32> {
        let mut scored: Vec<(u64, u32)> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.reachable())
            .map(|(i, _)| {
                let dev = u32::try_from(i).unwrap_or(u32::MAX);
                (
                    rendezvous_score(self.config.seed, dataset, shard, dev as u64),
                    dev,
                )
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, d)| d).collect()
    }

    /// The best re-replication target for shard `h` of `id`: the
    /// highest-scoring reachable device not already holding a replica.
    fn place_spare(&self, id: DatasetId, h: usize, shard: &Shard) -> Option<u32> {
        self.place(id.0, h as u64, self.devices.len())
            .into_iter()
            .find(|d| shard.replicas.iter().all(|r| r.device != *d))
    }

    /// Applies every scheduled fault event whose `at_op` has been reached.
    fn apply_pending_faults(&mut self) -> Result<(), SystemError> {
        while let Some(ev) = self.events.get(self.fault_cursor).copied() {
            if ev.at_op > self.ops {
                break;
            }
            self.fault_cursor += 1;
            self.apply_event(ev)?;
        }
        Ok(())
    }

    fn apply_event(&mut self, ev: DeviceFault) -> Result<(), SystemError> {
        let device = ev.device;
        let line = format!(
            "event={} device={} at_op={}\n",
            ev.kind.name(),
            device,
            ev.at_op
        );
        self.log.push_str(&line);
        let Some(slot) = self.devices.get_mut(device as usize) else {
            return Ok(());
        };
        // An event that changes nothing (unknown or dead device, link
        // already in that state) is journaled above and otherwise ignored.
        let (counter, kind) = match ev.kind {
            DeviceFaultKind::Kill if slot.alive => {
                slot.alive = false;
                ("cluster.device_kills", EventKind::DeviceDown { device })
            }
            DeviceFaultKind::LinkDown if slot.reachable() => {
                slot.link_up = false;
                ("cluster.link_downs", EventKind::DeviceDown { device })
            }
            DeviceFaultKind::LinkRestore if slot.alive && !slot.link_up => {
                slot.link_up = true;
                ("cluster.link_restores", EventKind::DeviceUp { device })
            }
            _ => return Ok(()),
        };
        self.stats.add(counter, 1);
        self.obs.event(SimTime::ZERO, CLUSTER_COMPONENT, || kind);
        match ev.kind {
            DeviceFaultKind::Kill => self.rereplicate_after_kill(device),
            DeviceFaultKind::LinkRestore => self.resync_device(device),
            DeviceFaultKind::LinkDown => Ok(()),
        }
    }

    /// Copies the full shard `(id, h)` from `src` onto device `dst`,
    /// writing into `dst_local` (creating it first when `None`). Returns
    /// the local dataset id written and the bytes copied.
    fn copy_shard(
        &mut self,
        id: DatasetId,
        h: usize,
        src: Replica,
        dst: u32,
        dst_local: Option<DatasetId>,
    ) -> Result<(DatasetId, u64), SystemError> {
        let ds = self
            .datasets
            .get(&id)
            .ok_or(SystemError::ClusterInconsistency("copy dataset"))?;
        let local = &ds
            .shards
            .get(h)
            .ok_or(SystemError::ClusterInconsistency("copy shard"))?
            .local;
        let zeros = vec![0u64; local.ndims()];
        let slot = slot_mut(&mut self.devices, src.device)?;
        let read = slot.sys.read_into(
            src.local,
            local,
            &zeros,
            local.dims(),
            &mut self.scratch.payload,
        )?;
        slot.busy.acquire(SimTime::ZERO, read.io_latency);
        let slot = slot_mut(&mut self.devices, dst)?;
        let target_local = match dst_local {
            Some(existing) => existing,
            None => slot.sys.create_dataset(local.clone(), ds.element)?,
        };
        let out = slot.sys.write(
            target_local,
            local,
            &zeros,
            local.dims(),
            &self.scratch.payload,
        )?;
        slot.busy.acquire(SimTime::ZERO, out.latency);
        self.repair_time += read.io_latency + out.latency;
        let bytes = read.bytes;
        self.obs.event(SimTime::ZERO, CLUSTER_COMPONENT, || {
            EventKind::ReplicaCopied {
                from: src.device,
                to: dst,
                bytes,
            }
        });
        Ok((target_local, bytes))
    }

    /// Deterministic re-replication after `dead` is killed: every shard
    /// that held a replica there is copied from its [`fresh_source`] onto
    /// the highest-scoring reachable non-holder, replacing the dead entry
    /// in place. The work list ([`shards_on`](Self::shards_on)) and the
    /// placement function are deterministic, so the same seed and plan
    /// reproduce the same repair byte for byte.
    fn rereplicate_after_kill(&mut self, dead: u32) -> Result<(), SystemError> {
        for (id, h) in self.shards_on(dead) {
            let Some(shard) = self.shard(id, h) else {
                continue;
            };
            let src = fresh_source(&self.devices, shard, dead);
            let target = self.place_spare(id, h, shard);
            let (Some(src), Some(target)) = (src, target) else {
                // No fresh source or no spare capacity: the shard runs
                // at reduced redundancy (or is lost if this was the
                // last replica). Account it loudly instead of hiding.
                self.stats.add("cluster.rereplication_stranded", 1);
                self.log.push_str(&format!(
                    "rereplicate ds={} shard={} stranded\n",
                    id.0,
                    shard_index(h)
                ));
                if let Some(shard) = self.shard_mut(id, h) {
                    shard.replicas.retain(|r| r.device != dead);
                }
                continue;
            };
            let (new_local, bytes) = self.copy_shard(id, h, src, target, None)?;
            let replaced = self
                .shard_mut(id, h)
                .and_then(|s| s.replicas.iter_mut().find(|r| r.device == dead));
            if let Some(replica) = replaced {
                *replica = Replica {
                    device: target,
                    local: new_local,
                    stale: false,
                };
            }
            self.stats.add("cluster.rereplications", 1);
            self.stats.add("cluster.rereplicated_bytes", bytes);
            self.log.push_str(&format!(
                "rereplicate ds={} shard={} from={} to={} bytes={}\n",
                id.0,
                shard_index(h),
                src.device,
                target,
                bytes
            ));
        }
        Ok(())
    }

    /// Resyncs every stale replica on `dev` (its link just came back) from
    /// its shard's [`fresh_source`], then marks it fresh. Writes during the
    /// outage were acknowledged by the surviving replicas, so the copy
    /// restores byte identity before `dev` serves reads again.
    fn resync_device(&mut self, dev: u32) -> Result<(), SystemError> {
        let is_stale_here = |r: &Replica| r.device == dev && r.stale;
        for (id, h) in self.shards_on(dev) {
            let Some(shard) = self.shard(id, h) else {
                continue;
            };
            let Some(stale) = shard.replicas.iter().copied().find(is_stale_here) else {
                continue;
            };
            let Some(src) = fresh_source(&self.devices, shard, dev) else {
                self.stats.add("cluster.resync_stranded", 1);
                self.log.push_str(&format!(
                    "resync ds={} shard={} device={} stranded\n",
                    id.0,
                    shard_index(h),
                    dev
                ));
                continue;
            };
            let (_, bytes) = self.copy_shard(id, h, src, dev, Some(stale.local))?;
            let resynced = self
                .shard_mut(id, h)
                .and_then(|s| s.replicas.iter_mut().find(|r| is_stale_here(r)));
            if let Some(replica) = resynced {
                replica.stale = false;
            }
            self.stats.add("cluster.resyncs", 1);
            self.stats.add("cluster.resynced_bytes", bytes);
            self.log.push_str(&format!(
                "resync ds={} shard={} from={} to={} bytes={}\n",
                id.0,
                shard_index(h),
                src.device,
                dev,
                bytes
            ));
        }
        Ok(())
    }

    /// The read path: plans the request's sub-ops, steers each to the
    /// least-busy fresh replica, and reassembles — a one-sub-op plan reads
    /// straight into `buf`, a longer one appends each sub-op's payload in
    /// turn. A read is *degraded* when a shard it touches has fewer
    /// eligible replicas than the configured replica count.
    /// Parallel across devices
    /// (`io_latency` is the max of the per-device serial sums), serial
    /// within a device. `datasets`, `devices` and `scratch` are borrowed as
    /// disjoint fields, so any `?` leaves the cluster consistent.
    fn clustered_read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        self.apply_pending_faults()?;
        let ds = self
            .datasets
            .get(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        let esize = ds.element.size() as u64;
        let op = self.ops;
        self.ops += 1;

        let caller = (view, coord, sub_dims);
        let volume = ds.plan(caller, &mut self.scratch)?;
        let OpScratch {
            plan,
            dev_io,
            payload,
            ..
        } = &mut self.scratch;
        let direct = plan.subops.len() == 1;
        let replicas = self.config.replicas;
        let mut metrics = ReadMetrics {
            io_latency: SimDuration::ZERO,
            io_occupancy: SimDuration::ZERO,
            restructure: SimDuration::ZERO,
            commands: 0,
            bytes: volume * esize,
        };
        buf.clear();
        buf.reserve(metrics.bytes as usize);
        dev_io.clear();
        dev_io.resize(self.devices.len(), (SimDuration::ZERO, SimDuration::ZERO));
        let mut degraded = false;
        for sub in plan.subops.iter() {
            let shard = ds
                .shards
                .get(sub.shard)
                .ok_or(SystemError::ClusterInconsistency("subop shard"))?;
            let shard_idx = shard_index(sub.shard);
            let (replica, eligible) = pick_replica(&self.devices, shard);
            let replica = replica.ok_or(SystemError::ShardUnavailable {
                dataset: id,
                shard: shard_idx,
            })?;
            degraded |= eligible < replicas;
            let (dev_view, dev_coord, dev_sub) = sub.request(shard, &plan.table, caller)?;
            let slot = slot_mut(&mut self.devices, replica.device)?;
            let into = if direct { &mut *buf } else { &mut *payload };
            let m = slot
                .sys
                .read_into(replica.local, dev_view, dev_coord, dev_sub, into)?;
            slot.busy.acquire(SimTime::ZERO, m.io_latency);
            if !direct {
                sub.append_payload(payload, esize, buf)?;
            } else if buf.len() as u64 != sub.len * esize {
                // The device read something other than the planned piece.
                return Err(SystemError::ClusterInconsistency("read buffer range"));
            }
            let entry = dev_io
                .get_mut(replica.device as usize)
                .ok_or(SystemError::ClusterInconsistency("replica device index"))?;
            entry.0 += m.io_latency;
            entry.1 += m.io_occupancy;
            metrics.restructure += m.restructure;
            metrics.commands += m.commands;
            self.obs.event(SimTime::ZERO, CLUSTER_COMPONENT, || {
                EventKind::ReplicaRead {
                    device: replica.device,
                    shard: shard_idx,
                }
            });
        }
        // Devices work in parallel; an untouched device's zero sums lose
        // every `max`.
        for &(io, occupancy) in dev_io.iter() {
            metrics.io_latency = metrics.io_latency.max(io);
            metrics.io_occupancy = metrics.io_occupancy.max(occupancy);
        }

        let subops = plan.subops.len() as u64;
        self.stats.add("cluster.ops", 1);
        self.stats.add("cluster.reads", 1);
        self.stats.add("cluster.read_subops", subops);
        self.stats.add("cluster.bytes_read", metrics.bytes);
        if degraded {
            self.stats.add("cluster.degraded_reads", 1);
        }
        self.obs.latency("cluster.read", metrics.latency());
        // Writing to a `String` cannot fail.
        let _ = writeln!(
            self.log,
            "op={} kind=read ds={} subops={} degraded={} io_ns={} bytes={}",
            op,
            id.0,
            subops,
            u64::from(degraded),
            metrics.io_latency.as_nanos(),
            metrics.bytes
        );
        self.observe_cluster_op(metrics.bytes, metrics.latency());
        Ok(metrics)
    }

    /// Samples the cluster health gauges (reachable devices, stale
    /// replicas) and throughput counters for one finished operation, then
    /// folds the operation's span into the metric clock so the next op
    /// lands in later windows. One branch when metrics are disabled.
    fn observe_cluster_op(&mut self, bytes: u64, span: SimDuration) {
        if self.obs.metrics().is_enabled() {
            let up = self.devices.iter().filter(|d| d.reachable()).count() as u64;
            let stale = self
                .datasets
                .values()
                .flat_map(|d| d.shards.iter())
                .flat_map(|s| s.replicas.iter())
                .filter(|r| r.stale)
                .count() as u64;
            self.obs.metric_add(SimTime::ZERO, "cluster.ops", 1);
            self.obs.metric_add(SimTime::ZERO, "cluster.bytes", bytes);
            self.obs
                .metric_sample(SimTime::ZERO, "cluster.devices_up", up);
            self.obs
                .metric_sample(SimTime::ZERO, "cluster.stale_replicas", stale);
        }
        self.obs.fold_metrics_epoch(span);
    }

    /// The write path: every fresh reachable replica of every touched
    /// shard accepts the write; replicas behind a downed link miss it and
    /// are marked stale. The operation is acknowledged only if *every*
    /// touched shard reaches at least one fresh replica — checked up front
    /// so a rejected write performs no partial mutation.
    fn clustered_write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        self.apply_pending_faults()?;
        let ds = self
            .datasets
            .get(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        let esize = ds.element.size() as u64;
        let op = self.ops;
        self.ops += 1;

        let caller = (view, coord, sub_dims);
        let volume = ds.plan(caller, &mut self.scratch)?;
        let OpScratch { plan, dev_io, .. } = &mut self.scratch;
        let expected = (volume * esize) as usize;
        if data.len() != expected {
            return Err(SystemError::Nds(NdsError::BadPayloadSize {
                got: data.len(),
                expected,
            }));
        }
        if let Some(h) = ds.unacked_shard(&self.devices, &plan.subops) {
            return Err(SystemError::ShardUnavailable {
                dataset: id,
                shard: shard_index(h),
            });
        }

        dev_io.clear();
        dev_io.resize(self.devices.len(), (SimDuration::ZERO, SimDuration::ZERO));
        let mut commands = 0u64;
        let mut skips = 0u64;
        // (shard, replica position) pairs that missed this write.
        let mut stale_marks: Vec<(usize, usize)> = Vec::new();
        for sub in plan.subops.iter() {
            let shard = ds
                .shards
                .get(sub.shard)
                .ok_or(SystemError::ClusterInconsistency("subop shard"))?;
            let (dev_view, dev_coord, dev_sub) = sub.request(shard, &plan.table, caller)?;
            let b0 = (sub.buf_elem * esize) as usize;
            let slice = data
                .get(b0..b0 + (sub.len * esize) as usize)
                .ok_or(SystemError::ClusterInconsistency("write buffer range"))?;
            for (pos, r) in shard.replicas.iter().enumerate() {
                let Some(slot) = self.devices.get_mut(r.device as usize) else {
                    continue;
                };
                if !slot.alive {
                    continue;
                }
                if !slot.link_up {
                    if !stale_marks.contains(&(sub.shard, pos)) {
                        stale_marks.push((sub.shard, pos));
                    }
                    skips += 1;
                    continue;
                }
                if r.stale {
                    // Stale while reachable only exists transiently inside
                    // an event application; skip defensively.
                    continue;
                }
                let out = slot
                    .sys
                    .write(r.local, dev_view, dev_coord, dev_sub, slice)?;
                slot.busy.acquire(SimTime::ZERO, out.latency);
                commands += out.commands;
                if let Some(sums) = dev_io.get_mut(r.device as usize) {
                    sums.0 += out.latency;
                }
            }
        }
        let subops = plan.subops.len() as u64;
        // Devices work in parallel; an untouched device's zero loses the max.
        let latency = dev_io
            .iter()
            .map(|sums| sums.0)
            .fold(SimDuration::ZERO, SimDuration::max);
        for (h, pos) in stale_marks {
            if let Some(replica) = self.shard_mut(id, h).and_then(|s| s.replicas.get_mut(pos)) {
                replica.stale = true;
            }
        }

        let outcome = WriteOutcome {
            latency,
            commands,
            bytes: data.len() as u64,
        };
        self.stats.add("cluster.ops", 1);
        self.stats.add("cluster.writes", 1);
        self.stats.add("cluster.write_subops", subops);
        self.stats.add("cluster.bytes_written", outcome.bytes);
        self.stats.add("cluster.write_skips", skips);
        self.obs.latency("cluster.write", outcome.latency);
        let _ = writeln!(
            self.log,
            "op={} kind=write ds={} subops={} skips={} lat_ns={} bytes={}",
            op,
            id.0,
            subops,
            skips,
            outcome.latency.as_nanos(),
            outcome.bytes
        );
        self.observe_cluster_op(outcome.bytes, outcome.latency);
        Ok(outcome)
    }
}

impl<S: StorageFrontEnd> StorageFrontEnd for NdsCluster<S> {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let mut ds = ClusterDataset::new(shape, element, self.config.shard_rows)
            .map_err(SystemError::Nds)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        let k = self.config.replicas;
        for (h, shard) in ds.shards.iter_mut().enumerate() {
            let holders = self.place(id.0, h as u64, k);
            if holders.is_empty() {
                return Err(SystemError::ShardUnavailable {
                    dataset: id,
                    shard: shard_index(h),
                });
            }
            for dev in holders {
                let slot = slot_mut(&mut self.devices, dev)?;
                let local = slot.sys.create_dataset(shard.local.clone(), element)?;
                shard.replicas.push(Replica {
                    device: dev,
                    local,
                    stale: false,
                });
            }
            self.stats
                .add("cluster.replicas_placed", shard.replicas.len() as u64);
        }
        self.stats.add("cluster.datasets", 1);
        self.stats.add("cluster.shards", ds.shards.len() as u64);
        self.datasets.insert(id, ds);
        Ok(id)
    }

    fn write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        self.clustered_write(id, view, coord, sub_dims, data)
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        self.clustered_read_into(id, view, coord, sub_dims, buf)
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let ds = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        for r in ds.shards.iter().flat_map(|s| &s.replicas) {
            // Unreachable holders keep their (now orphaned) local dataset.
            if let Some(slot) = self.devices.get_mut(r.device as usize) {
                if slot.reachable() {
                    slot.sys.delete_dataset(r.local)?;
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> Stats {
        self.stats.clone()
    }

    fn run_report(&self) -> RunReport {
        self.full_report()
    }

    fn collecting(&self) -> bool {
        self.config.obs.collecting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareNds, SystemConfig};

    #[test]
    fn aligned_len_names_partitions_and_stays_logarithmic() {
        for start in 0..300u64 {
            for len in 1..300u64 {
                let (mut p, end, mut pieces) = (start, start + len, 0u32);
                while p < end {
                    let l = aligned_len(p, end - p);
                    assert!(l >= 1 && p + l <= end, "[{p}, {end}) piece of {l}");
                    assert!(p.is_multiple_of(l), "{l} does not divide {p}");
                    p += l;
                    pieces += 1;
                }
                let bits = 64 - len.leading_zeros();
                assert!(pieces < 2 * bits, "{pieces} pieces for [{start}, {end})");
            }
        }
    }

    /// A planned sub-op as `(shard, coord, sub_dims, len, buf_elem)`.
    type Piece = (usize, Vec<u64>, Vec<u64>, u64, u64);

    /// Every sub-op of `ds`'s plan for `(view, coord, sub)`.
    fn planned(ds: &ClusterDataset, view: &Shape, coord: &[u64], sub: &[u64]) -> Vec<Piece> {
        let mut scratch = OpScratch::default();
        ds.plan((view, coord, sub), &mut scratch).unwrap();
        let plan = &scratch.plan;
        plan.subops
            .iter()
            .map(|op| {
                let shard = &ds.shards[op.shard];
                let (_, c, f) = op.request(shard, &plan.table, (view, coord, sub)).unwrap();
                (op.shard, c.to_vec(), f.to_vec(), op.len, op.buf_elem)
            })
            .collect()
    }

    /// Every partition `(coord, sub_dims)` of `view`.
    fn partitions(view: &Shape) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut all = vec![(Vec::new(), Vec::new())];
        for &d in view.dims() {
            all = all
                .into_iter()
                .flat_map(|(c, f)| {
                    (1..=d).flat_map(move |s| {
                        let (c, f) = (c.clone(), f.clone());
                        (0..d / s).map(move |i| {
                            let (mut c, mut f) = (c.clone(), f.clone());
                            c.push(i);
                            f.push(s);
                            (c, f)
                        })
                    })
                })
                .collect();
        }
        all
    }

    /// For every partition of every view: each sub-op is a valid partition
    /// of its shard's local shape, the sub-ops tile the caller's buffer in
    /// ascending order with no gap or overlap, and each buffer element maps
    /// to the dataset element the request names there.
    #[test]
    fn plans_are_shard_partitions_that_tile_the_buffer() {
        // (dataset dims, shard rows, views)
        type Case<'a> = (&'a [u64], &'a [u64], &'a [&'a [u64]]);
        let cases: [Case; 3] = [
            (
                &[8, 16],
                &[1, 2, 3, 5, 7],
                &[&[8, 16], &[128], &[16, 8], &[4, 32]],
            ),
            (
                &[5, 7, 6],
                &[1, 2, 4],
                &[&[5, 7, 6], &[35, 6], &[5, 42], &[210]],
            ),
            (&[13], &[3, 5], &[&[13]]),
        ];
        for (dims, shard_rows, views) in cases {
            let shape = Shape::new(dims);
            let inner: u64 = dims[..dims.len() - 1].iter().product();
            for &rows in shard_rows {
                let ds = ClusterDataset::new(shape.clone(), ElementType::F32, rows).unwrap();
                assert!(ds.shards.len() > 1);
                for &v in views {
                    let view = Shape::new(v);
                    for (coord, sub) in partitions(&view) {
                        let mut want = Vec::new();
                        Region::for_each_request_run(&view, &coord, &sub, |_, at, len| {
                            want.extend(at..at + len);
                        })
                        .unwrap();
                        let mut got = Vec::new();
                        for (h, c, f, len, buf_elem) in planned(&ds, &view, &coord, &sub) {
                            let shard = &ds.shards[h];
                            let why = format!("{dims:?}/{rows} via {v:?} {coord:?}×{sub:?}");
                            assert_eq!(
                                Region::request_volume(&shard.local, &c, &f),
                                Ok(len),
                                "{why}: {c:?}×{f:?} of shard {h}"
                            );
                            assert_eq!(buf_elem, got.len() as u64, "{why}: buffer order");
                            let base = shard.start_row * inner;
                            Region::for_each_request_run(&shard.local, &c, &f, |_, at, len| {
                                got.extend(base + at..base + at + len);
                            })
                            .unwrap();
                        }
                        assert_eq!(got, want, "{dims:?}/{rows} via {v:?} {coord:?}×{sub:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn own_view_requests_plan_to_one_sub_op_per_shard_piece() {
        let shape = Shape::new([64, 64]);
        let ds = ClusterDataset::new(shape.clone(), ElementType::F32, 24).unwrap();
        let count = |coord: [u64; 2], sub: [u64; 2]| planned(&ds, &shape, &coord, &sub).len();
        // Inside one band: one sub-op, the request itself moved to the band.
        assert_eq!(count([0, 3], [64, 8]), 1, "row panel, rows 24..32");
        assert_eq!(
            planned(&ds, &shape, &[0, 3], &[64, 8])[0],
            (1, vec![0, 0], vec![64, 8], 512, 0)
        );
        assert_eq!(count([1, 0], [16, 16]), 1, "tile, rows 0..16");
        // Rows 32..48 are shard 1's local rows 8..24: 16 does not divide 8,
        // so the tile goes as two 8-row halves.
        assert_eq!(
            planned(&ds, &shape, &[2, 2], &[16, 16]),
            vec![
                (1, vec![2, 1], vec![16, 8], 128, 0),
                (1, vec![2, 2], vec![16, 8], 128, 128),
            ]
        );
        assert_eq!(count([1, 1], [16, 16]), 2, "tile, rows 16..32");
        assert_eq!(count([3, 0], [8, 64]), 3, "column panel over three bands");
    }

    /// A stranded re-replication shrinks the replica list, and reads of
    /// the shard were still counted as served at full redundancy.
    #[test]
    fn reads_after_a_stranded_rereplication_count_as_degraded() {
        let shape = Shape::new([8, 16]);
        let config = ClusterConfig::new(2, 2)
            .with_shard_rows(4)
            .with_plan(ClusterFaultPlan::kill_at(1, 0));
        let mut cluster = NdsCluster::new(config, |_| HardwareNds::new(SystemConfig::small_test()));
        let id = cluster
            .create_dataset(shape.clone(), ElementType::F32)
            .unwrap();
        let data = vec![3u8; 8 * 16 * 4];
        cluster.write(id, &shape, &[0, 0], &[8, 16], &data).unwrap();
        let mut buf = Vec::new();
        for y in 0..4 {
            cluster
                .read_into(id, &shape, &[0, y], &[8, 4], &mut buf)
                .unwrap();
            assert_eq!(buf, data[..8 * 4 * 4]);
        }
        let stats = cluster.stats();
        assert_eq!(stats.get("cluster.rereplication_stranded"), 4);
        assert_eq!(stats.get("cluster.degraded_reads"), 4);
    }

    /// A config the cluster cannot honour literally is normalized once:
    /// the report and placement both see 1 ≤ replicas ≤ devices.
    #[test]
    fn config_is_normalized_once_for_report_and_placement() {
        let build =
            |config| NdsCluster::new(config, |_| HardwareNds::new(SystemConfig::small_test()));
        let meta = |c: &NdsCluster<HardwareNds>, key: &str| c.report().meta.get(key).cloned();
        let shape = Shape::new([8, 8]);

        // More replicas than devices: capped at the device count.
        let mut over = build(ClusterConfig::new(2, 3));
        assert_eq!(meta(&over, "cluster.replicas").as_deref(), Some("2"));
        let id = over
            .create_dataset(shape.clone(), ElementType::F32)
            .unwrap();
        assert_eq!(over.replica_devices(id, 0).len(), 2);

        // Zero replicas: one replica, and datasets can still be created.
        let mut none = build(ClusterConfig {
            replicas: 0,
            ..ClusterConfig::new(2, 1)
        });
        assert_eq!(meta(&none, "cluster.replicas").as_deref(), Some("1"));
        let id = none.create_dataset(shape, ElementType::F32).unwrap();
        assert_eq!(none.replica_devices(id, 0).len(), 1);

        // Zero devices: the one device built is the one reported.
        let empty = build(ClusterConfig {
            devices: 0,
            ..ClusterConfig::default()
        });
        assert_eq!(meta(&empty, "cluster.devices").as_deref(), Some("1"));
        assert!(empty.is_alive(0) && !empty.is_alive(1));
    }

    #[test]
    fn a_sub_op_that_does_not_continue_the_buffer_is_a_typed_error() {
        let sub = |buf_elem, len| SubOp {
            shard: 0,
            at: 0,
            len,
            buf_elem,
            verbatim: false,
        };
        let payload = [7u8; 16];
        let mut buf = vec![1u8; 8];
        sub(2, 3).append_payload(&payload, 4, &mut buf).unwrap();
        assert_eq!(buf.len(), 20, "elements 2..5 of 4 bytes land at byte 8");
        for (planted, why) in [
            (sub(4, 1), "overlaps"),
            (sub(6, 1), "leaves a gap"),
            (sub(5, 5), "payload too short"),
        ] {
            let err = planted.append_payload(&payload, 4, &mut buf).unwrap_err();
            assert!(
                matches!(err, SystemError::ClusterInconsistency("read buffer range")),
                "{why}: got {err}"
            );
            assert_eq!(buf.len(), 20, "{why}: nothing appended");
        }
    }

    #[test]
    fn rendezvous_is_deterministic_and_spreads() {
        let a = rendezvous_score(7, 1, 0, 0);
        assert_eq!(a, rendezvous_score(7, 1, 0, 0));
        assert_ne!(a, rendezvous_score(8, 1, 0, 0));
        assert_ne!(a, rendezvous_score(7, 2, 0, 0));
        assert_ne!(a, rendezvous_score(7, 1, 1, 0));
        assert_ne!(a, rendezvous_score(7, 1, 0, 1));
        // Swapping identifier roles must not collide (salted mixes).
        assert_ne!(rendezvous_score(7, 3, 5, 1), rendezvous_score(7, 5, 3, 1));
    }
}

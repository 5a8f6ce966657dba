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
//! of shape `[d₁ … dₙ₋₁, rows]`, so a shard-aligned request forwards as a
//! single device request and the device's own STL handles intra-shard
//! layout.
//!
//! Replica holders are chosen by seeded **rendezvous hashing**: every
//! device scores `mix(seed, dataset, shard, device)` and the top-k scores
//! win (ties broken by device index). The choice is a pure function of the
//! seed and the identifiers — no placement tables to keep consistent, and
//! any participant can recompute it, which is what makes re-replication
//! after a device kill deterministic.
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
//! is the golden run, and a `k = 1, N = 1` cluster degenerates to a pure
//! pass-through whose device sees a call sequence identical to running
//! without the cluster at all.

use std::collections::BTreeMap;

use nds_core::{ElementType, NdsError, Region, Shape};
use nds_faults::{ClusterFaultPlan, DeviceFault, DeviceFaultKind};
use nds_sim::{
    ComponentId, EventKind, ObsConfig, Observability, Resource, RunReport, SimDuration, SimTime,
    Stats, TraceExport, TIMELINE_BUCKETS, TIMELINE_WINDOW,
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

/// SplitMix64 finalizer — the same well-mixed permutation the fault plans
/// and the traffic engine use.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rendezvous score of `device` for `(dataset, shard)` under `seed`.
/// A pure function, so any holder set can be recomputed at any time.
fn rendezvous_score(seed: u64, dataset: u64, shard: u64, device: u64) -> u64 {
    mix(seed ^ mix(dataset ^ SALT_DATASET) ^ mix(shard ^ SALT_SHARD) ^ mix(device ^ SALT_DEVICE))
}

/// Decomposes the element range `[start, start + len)` of a flat space into
/// the minimal sequence of *partition-aligned* chunks: each emitted chunk
/// `(origin, len)` has power-of-two `len` dividing `origin`, so it is
/// expressible as the front-end request `coord = origin / len`,
/// `sub_dims = [len]` in a one-dimensional view. At most
/// `O(log₂ len)` chunks are emitted, in ascending order.
fn aligned_chunks(start: u64, len: u64, mut f: impl FnMut(u64, u64)) {
    let mut p = start;
    let mut rem = len;
    while rem > 0 {
        // Largest power of two dividing p (p = 0 divides everything)…
        let align = if p == 0 {
            u64::MAX
        } else {
            1u64 << p.trailing_zeros()
        };
        // …capped by the largest power of two that still fits.
        let fit = 1u64 << (63 - rem.leading_zeros());
        let l = align.min(fit);
        f(p, l);
        p += l;
        rem -= l;
    }
}

/// Tunable knobs of a cluster run. `Default` is a single-device,
/// single-replica cluster — the pass-through configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of devices composed behind the front-end (≥ 1).
    pub devices: usize,
    /// Replicas per shard (≥ 1, capped at the device count).
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
            devices: devices.max(1),
            replicas: replicas.max(1),
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
#[derive(Debug, Clone)]
struct Shard {
    start_row: u64,
    /// The shard's device-local dataset shape `[d₁ … dₙ₋₁, rows]`.
    local: Shape,
    replicas: Vec<Replica>,
}

impl Shard {
    /// Elements in the shard.
    fn volume(&self) -> u64 {
        self.local.volume()
    }
}

/// Cluster-side metadata of one dataset.
#[derive(Debug, Clone)]
struct ClusterDataset {
    shape: Shape,
    element: ElementType,
    /// Product of all dimensions except the last (elements per row).
    inner_vol: u64,
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

/// One planned device-level sub-operation of a clustered request: `len`
/// elements at flat-view partition coordinate `coord` of shard `shard`,
/// landing at element offset `buf_elem` of the caller's dense buffer.
#[derive(Debug, Clone, Copy)]
struct SubOp {
    shard: usize,
    coord: u64,
    len: u64,
    buf_elem: u64,
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
    scratch: Vec<u8>,
}

impl<S: StorageFrontEnd> NdsCluster<S> {
    /// Builds a cluster whose `i`-th device is `factory(i)`.
    pub fn new(config: ClusterConfig, mut factory: impl FnMut(usize) -> S) -> Self {
        let n = config.devices.max(1);
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        let devices = (0..n)
            .map(|i| {
                let mut busy = Resource::new(format!("cluster.device[{i}]"));
                if config.obs.timelines {
                    busy.enable_timeline(TIMELINE_WINDOW, TIMELINE_BUCKETS);
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
            scratch: Vec::new(),
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
        self.devices.get(i).is_some_and(|d| d.alive && d.link_up)
    }

    /// Number of shards of dataset `id` (None if unknown).
    pub fn shard_count(&self, id: DatasetId) -> Option<usize> {
        self.datasets.get(&id).map(|d| d.shards.len())
    }

    /// The devices currently holding replicas of `(id, shard)`, in
    /// rendezvous order.
    pub fn replica_devices(&self, id: DatasetId, shard: usize) -> Vec<u32> {
        self.datasets
            .get(&id)
            .and_then(|d| d.shards.get(shard))
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
        for (i, slot) in self.devices.iter().enumerate() {
            if let Some(snapshot) = slot.busy.timeline_snapshot() {
                report.add_timeline(format!("cluster.device[{i}].busy"), snapshot);
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

    /// True when `id` lives in a single shard, making every request a
    /// verbatim pass-through to one device request per replica.
    fn is_passthrough(ds: &ClusterDataset) -> bool {
        ds.shards.len() == 1
    }

    fn device_slot(&mut self, device: u32) -> Result<&mut DeviceSlot<S>, SystemError> {
        self.devices
            .get_mut(device as usize)
            .ok_or(SystemError::ClusterInconsistency("replica device index"))
    }

    /// Top-`k` alive, reachable devices by rendezvous score for
    /// `(dataset, shard)`, best first; ties prefer the lower device index.
    fn place(&self, dataset: u64, shard: u64, k: usize) -> Vec<u32> {
        let mut scored: Vec<(u64, u32)> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.alive && d.link_up)
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

    /// The best re-replication target for `(dataset, shard)`: the
    /// highest-scoring alive, reachable device not already in `holders`.
    fn place_spare(&self, dataset: u64, shard: u64, holders: &[u32]) -> Option<u32> {
        self.place(dataset, shard, self.devices.len())
            .into_iter()
            .find(|d| !holders.contains(d))
    }

    /// Chooses the serving replica for a read: among alive, reachable,
    /// fresh replicas, the one whose steering resource is least committed;
    /// ties prefer rendezvous order. Returns the replica plus how many
    /// replicas were eligible (for degraded-read accounting).
    fn pick_replica(&self, shard: &Shard) -> (Option<Replica>, usize) {
        let mut eligible = 0usize;
        let mut best: Option<(SimTime, Replica)> = None;
        for r in &shard.replicas {
            let Some(slot) = self.devices.get(r.device as usize) else {
                continue;
            };
            if !slot.alive || !slot.link_up || r.stale {
                continue;
            }
            eligible += 1;
            let nf = slot.busy.next_free();
            let better = match &best {
                None => true,
                Some((bnf, _)) => nf < *bnf,
            };
            if better {
                best = Some((nf, *r));
            }
        }
        (best.map(|(_, r)| r), eligible)
    }

    /// Splits the request `(view, coord, sub_dims)` into shard-local,
    /// partition-aligned device sub-operations. Returns the sub-ops plus
    /// the request's element volume.
    ///
    /// The region's linear runs (contiguous in the canonical linearization
    /// shared by every view of the dataset) are first coalesced — adjacent
    /// runs contiguous in both the buffer and the linearization merge, so a
    /// canonical-view rectangle over whole shards becomes one run per shard
    /// — then each run is intersected with the shard ranges and decomposed
    /// into [`aligned_chunks`] so every piece is expressible as a
    /// `(coord, sub_dims)` request in the shard's flat view.
    fn plan_subops(
        ds: &ClusterDataset,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<(Vec<SubOp>, u64), SystemError> {
        if view.volume() != ds.shape.volume() {
            return Err(SystemError::Nds(NdsError::ViewVolumeMismatch {
                space: ds.shape.volume(),
                view: view.volume(),
            }));
        }
        let region = Region::from_request(view, coord, sub_dims).map_err(SystemError::Nds)?;
        let volume = region.volume();
        let mut runs: Vec<(u64, u64, u64)> = Vec::new();
        region.for_each_run(view, |buf, linear, len| {
            if let Some(last) = runs.last_mut() {
                if last.0 + last.2 == buf && last.1 + last.2 == linear {
                    last.2 += len;
                    return;
                }
            }
            runs.push((buf, linear, len));
        });
        let mut subops = Vec::new();
        for (buf, linear, len) in runs {
            let mut g = linear;
            let end = linear + len;
            while g < end {
                let row = g / ds.inner_vol;
                let idx =
                    ((row / ds.rows_per_shard) as usize).min(ds.shards.len().saturating_sub(1));
                let shard = ds
                    .shards
                    .get(idx)
                    .ok_or(SystemError::ClusterInconsistency("shard index"))?;
                let base = shard.start_row * ds.inner_vol;
                let shard_end = base + shard.volume();
                if g < base || g >= shard_end {
                    return Err(SystemError::ClusterInconsistency("shard range"));
                }
                let take = end.min(shard_end) - g;
                aligned_chunks(g - base, take, |p, l| {
                    subops.push(SubOp {
                        shard: idx,
                        coord: p / l,
                        len: l,
                        buf_elem: buf + (base + p - linear),
                    });
                });
                g += take;
            }
        }
        Ok((subops, volume))
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
        let dev = ev.device;
        let line = format!(
            "event={} device={} at_op={}\n",
            ev.kind.name(),
            dev,
            ev.at_op
        );
        self.log.push_str(&line);
        match ev.kind {
            DeviceFaultKind::Kill => {
                let Some(slot) = self.devices.get_mut(dev as usize) else {
                    return Ok(());
                };
                if !slot.alive {
                    return Ok(());
                }
                slot.alive = false;
                self.stats.add("cluster.device_kills", 1);
                self.obs
                    .event(SimTime::ZERO, CLUSTER_COMPONENT, || EventKind::DeviceDown {
                        device: dev,
                    });
                self.rereplicate_after_kill(dev)?;
            }
            DeviceFaultKind::LinkDown => {
                let Some(slot) = self.devices.get_mut(dev as usize) else {
                    return Ok(());
                };
                if !slot.alive || !slot.link_up {
                    return Ok(());
                }
                slot.link_up = false;
                self.stats.add("cluster.link_downs", 1);
                self.obs
                    .event(SimTime::ZERO, CLUSTER_COMPONENT, || EventKind::DeviceDown {
                        device: dev,
                    });
            }
            DeviceFaultKind::LinkRestore => {
                let Some(slot) = self.devices.get_mut(dev as usize) else {
                    return Ok(());
                };
                if !slot.alive || slot.link_up {
                    return Ok(());
                }
                slot.link_up = true;
                self.stats.add("cluster.link_restores", 1);
                self.obs
                    .event(SimTime::ZERO, CLUSTER_COMPONENT, || EventKind::DeviceUp {
                        device: dev,
                    });
                self.resync_device(dev)?;
            }
        }
        Ok(())
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
        let (local_shape, element) = {
            let ds = self
                .datasets
                .get(&id)
                .ok_or(SystemError::ClusterInconsistency("copy dataset"))?;
            let shard = ds
                .shards
                .get(h)
                .ok_or(SystemError::ClusterInconsistency("copy shard"))?;
            (shard.local.clone(), ds.element)
        };
        let zeros = vec![0u64; local_shape.ndims()];
        let full = local_shape.dims().to_vec();
        let mut scratch = std::mem::take(&mut self.scratch);
        let read = {
            let slot = self.device_slot(src.device)?;
            let metrics =
                slot.sys
                    .read_into(src.local, &local_shape, &zeros, &full, &mut scratch)?;
            slot.busy.acquire(SimTime::ZERO, metrics.io_latency);
            metrics
        };
        let (target_local, write_latency) = {
            let slot = self.device_slot(dst)?;
            let target_local = match dst_local {
                Some(existing) => existing,
                None => slot.sys.create_dataset(local_shape.clone(), element)?,
            };
            let out = slot
                .sys
                .write(target_local, &local_shape, &zeros, &full, &scratch)?;
            slot.busy.acquire(SimTime::ZERO, out.latency);
            (target_local, out.latency)
        };
        self.scratch = scratch;
        self.repair_time += read.io_latency + write_latency;
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
    /// that held a replica there is copied from its first fresh reachable
    /// replica onto the highest-scoring reachable non-holder, replacing
    /// the dead entry in place. Iteration order (dataset id, shard index)
    /// and the placement function are deterministic, so the same seed and
    /// plan reproduce the same repair byte for byte.
    fn rereplicate_after_kill(&mut self, dead: u32) -> Result<(), SystemError> {
        let ids: Vec<DatasetId> = self.datasets.keys().copied().collect();
        for id in ids {
            let shard_count = self
                .datasets
                .get(&id)
                .map(|d| d.shards.len())
                .unwrap_or_default();
            for h in 0..shard_count {
                let Some((dead_pos, src, holders)) = self.datasets.get(&id).and_then(|d| {
                    let shard = d.shards.get(h)?;
                    let dead_pos = shard.replicas.iter().position(|r| r.device == dead)?;
                    let src = shard.replicas.iter().copied().find(|r| {
                        r.device != dead
                            && !r.stale
                            && self
                                .devices
                                .get(r.device as usize)
                                .is_some_and(|s| s.alive && s.link_up)
                    });
                    let holders: Vec<u32> = shard
                        .replicas
                        .iter()
                        .filter(|r| r.device != dead)
                        .map(|r| r.device)
                        .collect();
                    Some((dead_pos, src, holders))
                }) else {
                    continue;
                };
                let shard_idx = u32::try_from(h).unwrap_or(u32::MAX);
                let target = self.place_spare(id.0, h as u64, &holders);
                let (Some(src), Some(target)) = (src, target) else {
                    // No fresh source or no spare capacity: the shard runs
                    // at reduced redundancy (or is lost if this was the
                    // last replica). Account it loudly instead of hiding.
                    self.stats.add("cluster.rereplication_stranded", 1);
                    self.log.push_str(&format!(
                        "rereplicate ds={} shard={} stranded\n",
                        id.0, shard_idx
                    ));
                    if let Some(ds) = self.datasets.get_mut(&id) {
                        if let Some(shard) = ds.shards.get_mut(h) {
                            shard.replicas.retain(|r| r.device != dead);
                        }
                    }
                    continue;
                };
                let (new_local, bytes) = self.copy_shard(id, h, src, target, None)?;
                if let Some(replica) = self
                    .datasets
                    .get_mut(&id)
                    .and_then(|d| d.shards.get_mut(h))
                    .and_then(|s| s.replicas.get_mut(dead_pos))
                {
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
                    id.0, shard_idx, src.device, target, bytes
                ));
            }
        }
        Ok(())
    }

    /// Resyncs every stale replica on `dev` (its link just came back) from
    /// a fresh reachable peer, then marks it fresh. Writes during the
    /// outage were acknowledged by the surviving replicas, so the copy
    /// restores byte identity before `dev` serves reads again.
    fn resync_device(&mut self, dev: u32) -> Result<(), SystemError> {
        let ids: Vec<DatasetId> = self.datasets.keys().copied().collect();
        for id in ids {
            let shard_count = self
                .datasets
                .get(&id)
                .map(|d| d.shards.len())
                .unwrap_or_default();
            for h in 0..shard_count {
                let Some((pos, local, src)) = self.datasets.get(&id).and_then(|d| {
                    let shard = d.shards.get(h)?;
                    let pos = shard
                        .replicas
                        .iter()
                        .position(|r| r.device == dev && r.stale)?;
                    let local = shard.replicas.get(pos)?.local;
                    let src = shard.replicas.iter().copied().find(|r| {
                        r.device != dev
                            && !r.stale
                            && self
                                .devices
                                .get(r.device as usize)
                                .is_some_and(|s| s.alive && s.link_up)
                    });
                    Some((pos, local, src))
                }) else {
                    continue;
                };
                let shard_idx = u32::try_from(h).unwrap_or(u32::MAX);
                let Some(src) = src else {
                    self.stats.add("cluster.resync_stranded", 1);
                    self.log.push_str(&format!(
                        "resync ds={} shard={} device={} stranded\n",
                        id.0, shard_idx, dev
                    ));
                    continue;
                };
                let (_, bytes) = self.copy_shard(id, h, src, dev, Some(local))?;
                if let Some(replica) = self
                    .datasets
                    .get_mut(&id)
                    .and_then(|d| d.shards.get_mut(h))
                    .and_then(|s| s.replicas.get_mut(pos))
                {
                    replica.stale = false;
                }
                self.stats.add("cluster.resyncs", 1);
                self.stats.add("cluster.resynced_bytes", bytes);
                self.log.push_str(&format!(
                    "resync ds={} shard={} from={} to={} bytes={}\n",
                    id.0, shard_idx, src.device, dev, bytes
                ));
            }
        }
        Ok(())
    }

    /// The shared read path: plans sub-ops (or forwards verbatim for a
    /// single-shard dataset), steers each to the least-busy fresh replica,
    /// and reassembles. Parallel across devices (`io_latency` is the max
    /// of the per-device serial sums), serial within a device.
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
            .ok_or(SystemError::UnknownDataset(id))?
            .clone();
        let esize = ds.element.size() as u64;
        let op = self.ops;
        self.ops += 1;

        if Self::is_passthrough(&ds) {
            let shard = ds
                .shards
                .first()
                .ok_or(SystemError::ClusterInconsistency("empty shard list"))?;
            let (replica, eligible) = self.pick_replica(shard);
            let replica = replica.ok_or(SystemError::ShardUnavailable {
                dataset: id,
                shard: 0,
            })?;
            let degraded = eligible < shard.replicas.len();
            let slot = self.device_slot(replica.device)?;
            let metrics = slot
                .sys
                .read_into(replica.local, view, coord, sub_dims, buf)?;
            slot.busy.acquire(SimTime::ZERO, metrics.io_latency);
            self.obs.event(SimTime::ZERO, CLUSTER_COMPONENT, || {
                EventKind::ReplicaRead {
                    device: replica.device,
                    shard: 0,
                }
            });
            self.finish_read(op, id, 1, degraded, &metrics);
            return Ok(metrics);
        }

        let (subops, volume) = Self::plan_subops(&ds, view, coord, sub_dims)?;
        let bytes = volume * esize;
        buf.clear();
        buf.resize(bytes as usize, 0);
        let mut dev_io: BTreeMap<u32, (SimDuration, SimDuration)> = BTreeMap::new();
        let mut restructure = SimDuration::ZERO;
        let mut commands = 0u64;
        let mut degraded = false;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut result = Ok(());
        for sub in &subops {
            let Some(shard) = ds.shards.get(sub.shard) else {
                result = Err(SystemError::ClusterInconsistency("subop shard"));
                break;
            };
            let (replica, eligible) = self.pick_replica(shard);
            let Some(replica) = replica else {
                result = Err(SystemError::ShardUnavailable {
                    dataset: id,
                    shard: u32::try_from(sub.shard).unwrap_or(u32::MAX),
                });
                break;
            };
            degraded |= eligible < shard.replicas.len();
            let flat = match Shape::try_new(vec![shard.volume()]) {
                Ok(s) => s,
                Err(e) => {
                    result = Err(SystemError::Nds(e));
                    break;
                }
            };
            let metrics = {
                let slot = match self.device_slot(replica.device) {
                    Ok(s) => s,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                };
                match slot.sys.read_into(
                    replica.local,
                    &flat,
                    &[sub.coord],
                    &[sub.len],
                    &mut scratch,
                ) {
                    Ok(m) => {
                        slot.busy.acquire(SimTime::ZERO, m.io_latency);
                        m
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            };
            let b0 = (sub.buf_elem * esize) as usize;
            let b1 = b0 + (sub.len * esize) as usize;
            let copied = buf
                .get_mut(b0..b1)
                .zip(scratch.get(..(sub.len * esize) as usize));
            match copied {
                Some((dst, src)) => dst.copy_from_slice(src),
                None => {
                    result = Err(SystemError::ClusterInconsistency("read buffer range"));
                    break;
                }
            }
            let entry = dev_io
                .entry(replica.device)
                .or_insert((SimDuration::ZERO, SimDuration::ZERO));
            entry.0 += metrics.io_latency;
            entry.1 += metrics.io_occupancy;
            restructure += metrics.restructure;
            commands += metrics.commands;
            let shard_idx = u32::try_from(sub.shard).unwrap_or(u32::MAX);
            self.obs.event(SimTime::ZERO, CLUSTER_COMPONENT, || {
                EventKind::ReplicaRead {
                    device: replica.device,
                    shard: shard_idx,
                }
            });
        }
        self.scratch = scratch;
        result?;
        let io_latency = dev_io
            .values()
            .map(|(io, _)| *io)
            .fold(SimDuration::ZERO, SimDuration::max);
        let io_occupancy = dev_io
            .values()
            .map(|(_, occ)| *occ)
            .fold(SimDuration::ZERO, SimDuration::max);
        let metrics = ReadMetrics {
            io_latency,
            io_occupancy,
            restructure,
            commands,
            bytes,
        };
        self.finish_read(op, id, subops.len() as u64, degraded, &metrics);
        Ok(metrics)
    }

    fn finish_read(
        &mut self,
        op: u64,
        id: DatasetId,
        subops: u64,
        degraded: bool,
        m: &ReadMetrics,
    ) {
        self.stats.add("cluster.ops", 1);
        self.stats.add("cluster.reads", 1);
        self.stats.add("cluster.read_subops", subops);
        self.stats.add("cluster.bytes_read", m.bytes);
        if degraded {
            self.stats.add("cluster.degraded_reads", 1);
        }
        self.obs.latency("cluster.read", m.latency());
        self.log.push_str(&format!(
            "op={} kind=read ds={} subops={} degraded={} io_ns={} bytes={}\n",
            op,
            id.0,
            subops,
            u64::from(degraded),
            m.io_latency.as_nanos(),
            m.bytes
        ));
        self.observe_cluster_op(m.bytes, m.latency());
    }

    /// Samples the cluster health gauges (reachable devices, stale
    /// replicas) and throughput counters for one finished operation, then
    /// folds the operation's span into the metric clock so the next op
    /// lands in later windows. One branch when metrics are disabled.
    fn observe_cluster_op(&mut self, bytes: u64, span: SimDuration) {
        if self.obs.metrics().is_enabled() {
            let up = self.devices.iter().filter(|d| d.alive && d.link_up).count() as u64;
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

    /// The shared write path: every fresh reachable replica of every
    /// touched shard accepts the write; unreachable replicas are marked
    /// stale. The operation is acknowledged only if *every* touched shard
    /// reached at least one replica — checked up front so a failed write
    /// performs no partial mutation.
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
            .ok_or(SystemError::UnknownDataset(id))?
            .clone();
        let esize = ds.element.size() as u64;
        let op = self.ops;
        self.ops += 1;

        let (subops, volume) = if Self::is_passthrough(&ds) {
            (Vec::new(), 0)
        } else {
            let (s, v) = Self::plan_subops(&ds, view, coord, sub_dims)?;
            let expected = (v * esize) as usize;
            if data.len() != expected {
                return Err(SystemError::Nds(NdsError::BadPayloadSize {
                    got: data.len(),
                    expected,
                }));
            }
            (s, v)
        };

        // The ack pre-check: every touched shard must reach ≥ 1 fresh
        // replica, or the whole operation is rejected unacknowledged.
        let mut touched: Vec<usize> = if Self::is_passthrough(&ds) {
            vec![0]
        } else {
            subops.iter().map(|s| s.shard).collect()
        };
        touched.sort_unstable();
        touched.dedup();
        for &h in &touched {
            let shard = ds
                .shards
                .get(h)
                .ok_or(SystemError::ClusterInconsistency("write shard"))?;
            let reachable = shard.replicas.iter().any(|r| {
                !r.stale
                    && self
                        .devices
                        .get(r.device as usize)
                        .is_some_and(|s| s.alive && s.link_up)
            });
            if !reachable {
                return Err(SystemError::ShardUnavailable {
                    dataset: id,
                    shard: u32::try_from(h).unwrap_or(u32::MAX),
                });
            }
        }

        let mut dev_lat: BTreeMap<u32, SimDuration> = BTreeMap::new();
        let mut commands = 0u64;
        let mut skips = 0u64;
        // (shard, replica position) pairs that missed this write.
        let mut stale_marks: Vec<(usize, usize)> = Vec::new();

        if Self::is_passthrough(&ds) {
            let shard = ds
                .shards
                .first()
                .ok_or(SystemError::ClusterInconsistency("empty shard list"))?;
            for (pos, r) in shard.replicas.iter().enumerate() {
                let Some(slot) = self.devices.get_mut(r.device as usize) else {
                    continue;
                };
                if !slot.alive {
                    continue;
                }
                if !slot.link_up {
                    stale_marks.push((0, pos));
                    skips += 1;
                    continue;
                }
                if r.stale {
                    // Stale while reachable only exists transiently inside
                    // an event application; skip defensively.
                    continue;
                }
                let out = slot.sys.write(r.local, view, coord, sub_dims, data)?;
                slot.busy.acquire(SimTime::ZERO, out.latency);
                commands += out.commands;
                let lat = dev_lat.entry(r.device).or_insert(SimDuration::ZERO);
                *lat += out.latency;
            }
        } else {
            for sub in &subops {
                let shard = ds
                    .shards
                    .get(sub.shard)
                    .ok_or(SystemError::ClusterInconsistency("subop shard"))?;
                let flat = Shape::try_new(vec![shard.volume()]).map_err(SystemError::Nds)?;
                let b0 = (sub.buf_elem * esize) as usize;
                let b1 = b0 + (sub.len * esize) as usize;
                let slice = data
                    .get(b0..b1)
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
                        continue;
                    }
                    let out = slot
                        .sys
                        .write(r.local, &flat, &[sub.coord], &[sub.len], slice)?;
                    slot.busy.acquire(SimTime::ZERO, out.latency);
                    commands += out.commands;
                    let lat = dev_lat.entry(r.device).or_insert(SimDuration::ZERO);
                    *lat += out.latency;
                }
            }
        }

        for (h, pos) in stale_marks {
            if let Some(replica) = self
                .datasets
                .get_mut(&id)
                .and_then(|d| d.shards.get_mut(h))
                .and_then(|s| s.replicas.get_mut(pos))
            {
                replica.stale = true;
            }
        }

        let latency = dev_lat
            .values()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        let bytes = data.len() as u64;
        let outcome = WriteOutcome {
            latency,
            commands,
            bytes,
        };
        let subop_count = if volume == 0 { 1 } else { subops.len() as u64 };
        self.stats.add("cluster.ops", 1);
        self.stats.add("cluster.writes", 1);
        self.stats.add("cluster.write_subops", subop_count);
        self.stats.add("cluster.bytes_written", bytes);
        self.stats.add("cluster.write_skips", skips);
        self.obs.latency("cluster.write", latency);
        self.log.push_str(&format!(
            "op={} kind=write ds={} subops={} skips={} lat_ns={} bytes={}\n",
            op,
            id.0,
            subop_count,
            skips,
            latency.as_nanos(),
            bytes
        ));
        self.observe_cluster_op(bytes, latency);
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
        let dims = shape.dims().to_vec();
        let (&last, inner) = dims
            .split_last()
            .ok_or(SystemError::Nds(NdsError::EmptyShape))?;
        let inner_vol: u64 = inner.iter().product::<u64>().max(1);
        let rows_per_shard = if self.config.shard_rows == 0 {
            last
        } else {
            self.config.shard_rows.min(last)
        };
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        let k = self.config.replicas;
        let mut shards = Vec::new();
        let mut start_row = 0u64;
        while start_row < last {
            let rows = rows_per_shard.min(last - start_row);
            let h = shards.len() as u64;
            let mut local_dims = inner.to_vec();
            local_dims.push(rows);
            let local = Shape::try_new(local_dims).map_err(SystemError::Nds)?;
            let holders = self.place(id.0, h, k);
            if holders.is_empty() {
                return Err(SystemError::ShardUnavailable {
                    dataset: id,
                    shard: u32::try_from(h).unwrap_or(u32::MAX),
                });
            }
            let mut replicas = Vec::with_capacity(holders.len());
            for dev in holders {
                let slot = self.device_slot(dev)?;
                let local_id = slot.sys.create_dataset(local.clone(), element)?;
                replicas.push(Replica {
                    device: dev,
                    local: local_id,
                    stale: false,
                });
            }
            self.stats
                .add("cluster.replicas_placed", replicas.len() as u64);
            shards.push(Shard {
                start_row,
                local,
                replicas,
            });
            start_row += rows;
        }
        self.stats.add("cluster.datasets", 1);
        self.stats.add("cluster.shards", shards.len() as u64);
        self.datasets.insert(
            id,
            ClusterDataset {
                shape,
                element,
                inner_vol,
                rows_per_shard,
                shards,
            },
        );
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
        for shard in &ds.shards {
            for r in &shard.replicas {
                let Some(slot) = self.devices.get_mut(r.device as usize) else {
                    continue;
                };
                if !slot.alive || !slot.link_up {
                    continue;
                }
                slot.sys.delete_dataset(r.local)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_chunks_are_partition_aligned() {
        for (start, len) in [
            (0u64, 1u64),
            (0, 96),
            (3, 5),
            (5, 123),
            (96, 32),
            (1, 1),
            (7, 1024),
            (1000, 24),
        ] {
            let mut covered = start;
            aligned_chunks(start, len, |p, l| {
                assert_eq!(p, covered, "chunks are contiguous and ascending");
                assert!(l.is_power_of_two());
                assert_eq!(p % l, 0, "chunk length divides its origin");
                covered += l;
            });
            assert_eq!(covered, start + len, "chunks cover the range exactly");
        }
    }

    #[test]
    fn aligned_chunks_count_is_logarithmic() {
        for (start, len) in [(3u64, 1_000_000u64), (12345, 999_999), (0, (1 << 40) - 1)] {
            let mut count = 0;
            aligned_chunks(start, len, |_, _| count += 1);
            assert!(count <= 90, "{count} chunks for ({start}, {len})");
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

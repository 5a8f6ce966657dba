//! Every kill / link-down / link-restore ordering, enumerated (ROADMAP
//! 1(b)).
//!
//! For N ≤ 4 devices and k ≤ min(3, N) replicas, every sequence of
//! `Kill` / `LinkDown` / `LinkRestore` events over the N devices — up to
//! length 3 for N ≤ 3, up to length 2 for N = 4 — is interleaved at fixed
//! points of one short write / read script over a sharded `[8, 16]` f32
//! dataset (6-row shards: bands of 6, 6 and 4 rows, so tiles straddle
//! shards and some shard pieces start off their own alignment). That is
//! 40 (N = 1) + 2 × 259 (N = 2) + 3 × 820 (N = 3) + 3 × 157 (N = 4) =
//! **3 489 runs**, counted by the tests below.
//!
//! The script is checked against two models the test keeps itself: a
//! dense in-memory copy of the dataset, and per shard which holder is
//! *fresh* (has every acknowledged write). Holder identity is the
//! cluster's own choice (rendezvous placement, `place_spare`) and is read
//! back through `replica_devices`; freshness, liveness and the bytes are
//! not. The properties, after every prefix of every ordering:
//!
//! * a read returns the dense model's bytes if every shard it touches has a
//!   fresh reachable holder, and a typed `ShardUnavailable` naming one that
//!   has none otherwise;
//! * a write is acknowledged exactly when every shard it touches has a
//!   fresh reachable holder — and is then visible to every later
//!   successful read — or is rejected with `ShardUnavailable` having moved
//!   no counter of the cluster or of any device;
//! * a re-replication adds a holder only when a fresh reachable source
//!   existed, and no shard ever lists a dead device;
//! * once every link is restored, every shard that kept a fresh live holder
//!   reads back equal to the model, and the others answer
//!   `ShardUnavailable` — never stale bytes. (A holder that missed an
//!   acknowledged write behind a downed link while its last fresh peer was
//!   killed has nothing to resync from: k-way replication survives k − 1
//!   kills, not a link outage followed by the kill of the only up-to-date
//!   copy.)

use std::cell::Cell;

use nds_core::{ElementType, Region, Shape};
use nds_faults::{ClusterFaultPlan, DeviceFault, DeviceFaultKind};
use nds_sim::splitmix64;
use nds_system::{
    ClusterConfig, DatasetId, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig, SystemError,
};

const WIDTH: u64 = 8;
const ROWS: u64 = 16;
const SHARD_ROWS: u64 = 6;
const ESIZE: usize = 4;
const KINDS: [DeviceFaultKind; 3] = [
    DeviceFaultKind::Kill,
    DeviceFaultKind::LinkDown,
    DeviceFaultKind::LinkRestore,
];

/// The rows `[lo, hi)` of shard `h`.
fn band(h: usize) -> (u64, u64) {
    let lo = h as u64 * SHARD_ROWS;
    (lo, (lo + SHARD_ROWS).min(ROWS))
}

fn shard_count() -> usize {
    ROWS.div_ceil(SHARD_ROWS) as usize
}

/// One request of the script: a view, a partition of it, and the canonical
/// rows it touches.
struct Request {
    view: Shape,
    coord: Vec<u64>,
    sub: Vec<u64>,
}

impl Request {
    fn own(coord: [u64; 2], sub: [u64; 2]) -> Self {
        Request {
            view: Shape::new([WIDTH, ROWS]),
            coord: coord.to_vec(),
            sub: sub.to_vec(),
        }
    }

    /// Elements `[at·len, (at + 1)·len)` of the dataset through a flat view.
    fn flat(at: u64, len: u64) -> Self {
        Request {
            view: Shape::new([WIDTH * ROWS]),
            coord: vec![at],
            sub: vec![len],
        }
    }

    /// Every shard holding an element of the request.
    fn shards(&self) -> Vec<usize> {
        let mut rows = Vec::new();
        Region::for_each_request_run(&self.view, &self.coord, &self.sub, |_, linear, len| {
            rows.push((linear / WIDTH, (linear + len - 1) / WIDTH));
        })
        .unwrap();
        (0..shard_count())
            .filter(|&h| {
                let (lo, hi) = band(h);
                rows.iter().any(|&(a, b)| a < hi && b >= lo)
            })
            .collect()
    }

    /// The request's bytes of `model`, in buffer order.
    fn gather(&self, model: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Region::for_each_request_run(&self.view, &self.coord, &self.sub, |_, linear, len| {
            let (a, n) = (linear as usize * ESIZE, len as usize * ESIZE);
            out.extend_from_slice(&model[a..a + n]);
        })
        .unwrap();
        out
    }

    fn scatter(&self, model: &mut [u8], data: &[u8]) {
        Region::for_each_request_run(&self.view, &self.coord, &self.sub, |at, linear, len| {
            let (src, dst, n) = (
                at as usize * ESIZE,
                linear as usize * ESIZE,
                len as usize * ESIZE,
            );
            model[dst..dst + n].copy_from_slice(&data[src..src + n]);
        })
        .unwrap();
    }

    fn bytes(&self) -> usize {
        self.sub.iter().product::<u64>() as usize * ESIZE
    }
}

/// Each shard's row band as a request in the dataset's own view.
fn band_reads() -> Vec<Request> {
    vec![
        Request::own([0, 0], [WIDTH, 6]),
        Request::own([0, 1], [WIDTH, 6]),
        Request::own([0, 3], [WIDTH, 4]),
    ]
}

/// The write of script slot `j` (each straddles a shard boundary).
fn slot_write(j: usize) -> Request {
    match j % 3 {
        0 => Request::own([1, 1], [4, 4]), // rows 4..8: shards 0, 1
        1 => Request::own([0, 1], [8, 8]), // rows 8..16: shards 1, 2
        _ => Request::own([3, 0], [2, 8]), // rows 0..8: shards 0, 1
    }
}

/// The test's own account of the cluster: device liveness, per shard the
/// holders and whether each has every acknowledged write, and the bytes.
struct Model {
    alive: Vec<bool>,
    link_up: Vec<bool>,
    /// Per shard: `(device, fresh)`.
    holders: Vec<Vec<(u32, bool)>>,
    /// Shards whose holder died under the last event: whether a fresh
    /// reachable source was left to re-replicate from.
    repairs: Vec<(usize, bool)>,
    bytes: Vec<u8>,
}

impl Model {
    fn reachable(&self, d: u32) -> bool {
        self.alive[d as usize] && self.link_up[d as usize]
    }

    fn serves(&self, h: usize) -> bool {
        self.holders[h]
            .iter()
            .any(|&(d, fresh)| fresh && self.reachable(d))
    }

    fn apply(&mut self, ev: DeviceFault) {
        let d = ev.device;
        let i = d as usize;
        match ev.kind {
            DeviceFaultKind::Kill if self.alive[i] => {
                self.alive[i] = false;
                for h in 0..self.holders.len() {
                    if self.holders[h].iter().any(|&(x, _)| x == d) {
                        self.holders[h].retain(|&(x, _)| x != d);
                        self.repairs.push((h, self.serves(h)));
                    }
                }
            }
            DeviceFaultKind::LinkDown if self.reachable(d) => self.link_up[i] = false,
            DeviceFaultKind::LinkRestore if self.alive[i] && !self.link_up[i] => {
                self.link_up[i] = true;
                for h in 0..self.holders.len() {
                    let source = self.holders[h]
                        .iter()
                        .any(|&(x, fresh)| x != d && fresh && self.reachable(x));
                    for holder in &mut self.holders[h] {
                        if holder.0 == d && source {
                            holder.1 = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Reconciles the holder lists with the cluster's after an op:
    /// re-replication may only have added a holder where the model left a
    /// fresh source, and nothing else may have changed.
    fn sync(&mut self, cluster: &NdsCluster<HardwareNds>, id: DatasetId, why: &str) {
        let repairs = std::mem::take(&mut self.repairs);
        for h in 0..self.holders.len() {
            let now = cluster.replica_devices(id, h);
            let mut added: Vec<u32> = now
                .iter()
                .copied()
                .filter(|d| self.holders[h].iter().all(|&(x, _)| x != *d))
                .collect();
            for &(x, _) in &self.holders[h] {
                assert!(now.contains(&x), "{why}: shard {h} dropped live holder {x}");
            }
            let source = repairs.iter().find(|r| r.0 == h).map(|r| r.1);
            match source {
                Some(true) => assert!(added.len() <= 1, "{why}: shard {h} grew {added:?}"),
                _ => assert!(
                    added.is_empty(),
                    "{why}: shard {h} gained {added:?} with nothing fresh to copy"
                ),
            }
            for d in added.drain(..) {
                assert!(self.reachable(d), "{why}: shard {h} re-replicated to {d}");
                self.holders[h].push((d, true));
            }
            for &d in &now {
                assert!(self.alive[d as usize], "{why}: shard {h} lists dead {d}");
            }
        }
        for d in 0..self.alive.len() {
            assert_eq!(cluster.is_alive(d), self.alive[d], "{why}: device {d}");
            assert_eq!(
                cluster.is_reachable(d),
                self.reachable(d as u32),
                "{why}: device {d} reachability"
            );
        }
    }
}

/// Runs the script under `events` (event `j` fires before slot `j`).
/// Returns how many operations were refused with `ShardUnavailable`.
fn run(n: usize, k: usize, events: &[(DeviceFaultKind, u32)]) -> usize {
    let why = format!("N={n} k={k} events={events:?}");
    let shape = Shape::new([WIDTH, ROWS]);
    let reads = band_reads();
    // Op 0 seeds the dataset; slot j is ops [1 + j·SLOT, 1 + (j + 1)·SLOT).
    const SLOT: u64 = 6;
    let mut plan: Vec<DeviceFault> = events
        .iter()
        .enumerate()
        .map(|(j, &(kind, device))| DeviceFault {
            at_op: 1 + j as u64 * SLOT,
            device,
            kind,
        })
        .collect();
    // After the last slot, restore every link still down on a live device.
    let mut link_up = vec![true; n];
    let mut alive = vec![true; n];
    for &(kind, d) in events {
        let i = d as usize;
        match kind {
            DeviceFaultKind::Kill => alive[i] = false,
            DeviceFaultKind::LinkDown if alive[i] => link_up[i] = false,
            DeviceFaultKind::LinkRestore if alive[i] => link_up[i] = true,
            _ => {}
        }
    }
    let end = 1 + events.len() as u64 * SLOT;
    for d in 0..n {
        if alive[d] && !link_up[d] {
            plan.push(DeviceFault {
                at_op: end,
                device: d as u32,
                kind: DeviceFaultKind::LinkRestore,
            });
        }
    }
    let plan = ClusterFaultPlan::new(plan);

    let cfg = ClusterConfig::new(n, k)
        .with_shard_rows(SHARD_ROWS)
        .with_seed(3)
        .with_plan(plan.clone());
    let mut cluster = NdsCluster::new(cfg, |_| HardwareNds::new(SystemConfig::small_test()));
    let id = cluster
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let mut model = Model {
        alive: vec![true; n],
        link_up: vec![true; n],
        holders: (0..shard_count())
            .map(|h| {
                let holders = cluster.replica_devices(id, h);
                assert_eq!(holders.len(), k, "{why}: shard {h} placement");
                holders.into_iter().map(|d| (d, true)).collect()
            })
            .collect(),
        repairs: Vec::new(),
        bytes: vec![0; (WIDTH * ROWS) as usize * ESIZE],
    };

    let mut op = 0u64;
    let mut buf = Vec::new();
    let refusals = Cell::new(0);
    let fire = |model: &mut Model, op: u64| {
        for ev in plan.events().iter().filter(|e| e.at_op == op) {
            model.apply(*ev);
        }
    };
    let mut read =
        |cluster: &mut NdsCluster<HardwareNds>, model: &mut Model, op: &mut u64, req: &Request| {
            fire(model, *op);
            *op += 1;
            let got = cluster.read_into(id, &req.view, &req.coord, &req.sub, &mut buf);
            model.sync(cluster, id, &why);
            let down: Vec<usize> = req
                .shards()
                .into_iter()
                .filter(|&h| !model.serves(h))
                .collect();
            match got {
                Ok(m) => {
                    assert!(
                        down.is_empty(),
                        "{why}: op {op} read shards {down:?} with no fresh holder"
                    );
                    assert_eq!(m.bytes as usize, buf.len());
                    assert_eq!(
                        buf,
                        req.gather(&model.bytes),
                        "{why}: op {op} read stale bytes"
                    );
                }
                Err(SystemError::ShardUnavailable { dataset, shard }) => {
                    refusals.set(refusals.get() + 1);
                    assert_eq!(dataset, id);
                    assert!(
                        down.contains(&(shard as usize)),
                        "{why}: op {op} refused shard {shard}, unavailable are {down:?}"
                    );
                }
                Err(e) => panic!("{why}: op {op} read failed untyped: {e}"),
            }
        };
    let write =
        |cluster: &mut NdsCluster<HardwareNds>, model: &mut Model, op: &mut u64, req: &Request| {
            fire(model, *op);
            let salt = splitmix64(*op ^ 0x5eed);
            *op += 1;
            let data: Vec<u8> = (0..req.bytes() as u64)
                .map(|i| (splitmix64(salt ^ i) & 0xff) as u8)
                .collect();
            // Events due now apply inside the call; a rejected write is only
            // comparable against counters taken after them, so writes are never
            // the first op after an event.
            let before: Vec<_> = (0..n)
                .map(|d| cluster.device(d).unwrap().stats())
                .chain([cluster.stats()])
                .collect();
            let got = cluster.write(id, &req.view, &req.coord, &req.sub, &data);
            model.sync(cluster, id, &why);
            let touched = req.shards();
            let down: Vec<usize> = touched
                .iter()
                .copied()
                .filter(|&h| !model.serves(h))
                .collect();
            match got {
                Ok(out) => {
                    assert!(down.is_empty(), "{why}: op {op} acked a write to {down:?}");
                    assert_eq!(out.bytes as usize, data.len());
                    req.scatter(&mut model.bytes, &data);
                    for &h in &touched {
                        for i in 0..model.holders[h].len() {
                            let d = model.holders[h][i].0 as usize;
                            if model.alive[d] && !model.link_up[d] {
                                model.holders[h][i].1 = false;
                            }
                        }
                    }
                }
                Err(SystemError::ShardUnavailable { shard, .. }) => {
                    refusals.set(refusals.get() + 1);
                    assert!(
                        down.contains(&(shard as usize)),
                        "{why}: op {op} rejected shard {shard}, unavailable are {down:?}"
                    );
                    let after: Vec<_> = (0..n)
                        .map(|d| cluster.device(d).unwrap().stats())
                        .chain([cluster.stats()])
                        .collect();
                    assert_eq!(before, after, "{why}: op {op} rejected but moved a counter");
                }
                Err(e) => panic!("{why}: op {op} write failed untyped: {e}"),
            }
        };

    write(
        &mut cluster,
        &mut model,
        &mut op,
        &Request::own([0, 0], [WIDTH, ROWS]),
    );
    for j in 0..events.len() {
        // The slot's first op applies its event; SLOT ops per slot.
        for req in &reads {
            read(&mut cluster, &mut model, &mut op, req);
        }
        read(&mut cluster, &mut model, &mut op, &Request::flat(1, 64)); // rows 8..16
        let tile = slot_write(j);
        write(&mut cluster, &mut model, &mut op, &tile);
        read(&mut cluster, &mut model, &mut op, &tile);
    }
    assert_eq!(op, end);
    // Every link is back: each shard with a fresh live holder reads back.
    for req in &reads {
        read(&mut cluster, &mut model, &mut op, req);
    }
    assert!((0..n).all(|d| !model.alive[d] || model.link_up[d]));
    refusals.get()
}

/// Runs every ordering of up to `max_len` events on `n` devices for every
/// k ≤ min(3, n); returns the number of runs, after checking that some of
/// them reached the refusal edge (the properties are not vacuous).
fn enumerate(n: usize, max_len: usize) -> usize {
    let alphabet: Vec<(DeviceFaultKind, u32)> = KINDS
        .iter()
        .flat_map(|&kind| (0..n as u32).map(move |d| (kind, d)))
        .collect();
    let (mut runs, mut refusals) = (0, 0);
    for k in 1..=n.min(3) {
        for len in 0..=max_len {
            let count = alphabet.len().pow(len as u32);
            for mut index in 0..count {
                let events: Vec<_> = (0..len)
                    .map(|_| {
                        let e = alphabet[index % alphabet.len()];
                        index /= alphabet.len();
                        e
                    })
                    .collect();
                refusals += run(n, k, &events);
                runs += 1;
            }
        }
    }
    assert!(refusals > 0, "no ordering on {n} devices refused an op");
    runs
}

#[test]
fn every_ordering_on_one_device() {
    assert_eq!(enumerate(1, 3), 40);
}

#[test]
fn every_ordering_on_two_devices() {
    assert_eq!(enumerate(2, 3), 2 * 259);
}

#[test]
fn every_ordering_on_three_devices() {
    assert_eq!(enumerate(3, 3), 3 * 820);
}

#[test]
fn every_ordering_on_four_devices() {
    assert_eq!(enumerate(4, 2), 3 * 157);
}

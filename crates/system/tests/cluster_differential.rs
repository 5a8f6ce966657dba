//! The cluster differential harness (ISSUE 9 acceptance criteria).
//!
//! Proves the three cluster-level guarantees:
//!
//! 1. **Pass-through identity** — a `k = 1, N = 1` cluster with the empty
//!    fault plan is schedule-identical to the bare device: every outcome
//!    matches and the device's own run report is byte-identical JSON.
//! 2. **No lost acknowledged writes** — a run with a device-kill (or
//!    link-down/restore) plan acknowledges the same writes as the
//!    fault-free golden run and finishes with byte-identical dataset
//!    contents, both against the golden run and against a host-side model.
//! 3. **Deterministic failover** — the same seed and plan produce a
//!    byte-identical journal and full report on a second run, including
//!    the re-replication and resync traffic.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_core::{ElementType, Region, Shape};
use nds_faults::{ClusterFaultPlan, DeviceFault, DeviceFaultKind};
use nds_sim::{splitmix64, ObsConfig};
use nds_system::{
    ClusterConfig, DatasetId, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig,
};

/// Deterministic payload byte for element `i` of write `salt`.
fn pat(salt: u64, i: u64) -> u8 {
    (splitmix64(salt ^ splitmix64(i)) & 0xff) as u8
}

/// Applies a write to the host-side model of the dataset's canonical
/// contents, mirroring exactly what the cluster is asked to store.
fn apply_model(
    model: &mut [u8],
    view: &Shape,
    coord: &[u64],
    sub: &[u64],
    data: &[u8],
    esize: usize,
) {
    let region = Region::from_request(view, coord, sub).expect("model request");
    region
        .for_each_run(view, |buf, linear, len| {
            let src = buf as usize * esize;
            let dst = linear as usize * esize;
            let n = len as usize * esize;
            model[dst..dst + n].copy_from_slice(&data[src..src + n]);
        })
        .unwrap();
}

fn read_full(sys: &mut impl StorageFrontEnd, id: DatasetId, shape: &Shape) -> Vec<u8> {
    let zeros = vec![0u64; shape.ndims()];
    sys.read(id, shape, &zeros, shape.dims())
        .expect("full read")
        .data
}

/// The mixed write/read workload both runs of a differential pair execute:
/// a fixed cycle of aligned partition requests over one dataset, payloads
/// seeded per op. Returns the host-side model of the final contents and
/// the application bytes the front-end reported moving (writes + reads).
fn run_workload(
    sys: &mut impl StorageFrontEnd,
    id: DatasetId,
    shape: &Shape,
    ops: usize,
    seed: u64,
) -> (Vec<u8>, u64) {
    let esize = ElementType::F32.size();
    let volume = shape.volume() as usize;
    let mut model = vec![0u8; volume * esize];

    // (sub_dims, coordinate grid) choices — all partition-aligned in the
    // canonical view of an [8, 16] dataset.
    let requests: Vec<(Vec<u64>, Vec<u64>)> = vec![
        (vec![8, 16], vec![0, 0]),
        (vec![4, 4], vec![1, 2]),
        (vec![4, 4], vec![0, 3]),
        (vec![8, 2], vec![0, 5]),
        (vec![2, 8], vec![2, 1]),
        (vec![4, 4], vec![1, 0]),
        (vec![8, 2], vec![0, 7]),
        (vec![2, 8], vec![0, 0]),
    ];

    let mut moved = 0u64;
    let mut buf = Vec::new();
    for op in 0..ops {
        let (sub, coord) =
            &requests[(splitmix64(seed ^ op as u64) % requests.len() as u64) as usize];
        let elems: u64 = sub.iter().product();
        if op % 3 != 2 {
            // Write: fresh deterministic payload.
            let salt = splitmix64(seed ^ 0x57 ^ op as u64);
            let data: Vec<u8> = (0..elems * esize as u64).map(|i| pat(salt, i)).collect();
            let out = sys
                .write(id, shape, coord, sub, &data)
                .expect("acked write");
            assert_eq!(out.bytes, data.len() as u64);
            moved += out.bytes;
            apply_model(&mut model, shape, coord, sub, &data, esize);
        } else {
            // Read: must match the model exactly.
            let m = sys
                .read_into(id, shape, coord, sub, &mut buf)
                .expect("read");
            assert_eq!(m.bytes as usize, buf.len());
            moved += m.bytes;
            let region = Region::from_request(shape, coord, sub).expect("request");
            region
                .for_each_run(shape, |b, linear, len| {
                    let got = &buf[b as usize * esize..(b + len) as usize * esize];
                    let want = &model[linear as usize * esize..(linear + len) as usize * esize];
                    assert_eq!(got, want, "read diverged from model at op {op}");
                })
                .unwrap();
        }
    }
    (model, moved)
}

fn hardware_cluster(cfg: ClusterConfig) -> NdsCluster<HardwareNds> {
    NdsCluster::new(cfg, |_| HardwareNds::new(SystemConfig::small_test()))
}

#[test]
fn k1n1_passthrough_is_identical_to_bare_device() {
    let shape = Shape::new([8, 16]);
    let sys_cfg = SystemConfig::small_test().with_observability(ObsConfig::full());

    let mut bare = HardwareNds::new(sys_cfg.clone());
    let mut cluster = NdsCluster::new(ClusterConfig::new(1, 1).with_seed(3), |_| {
        HardwareNds::new(sys_cfg.clone())
    });

    let bare_id = bare
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("bare create");
    let cl_id = cluster
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("cluster create");
    assert_eq!(bare_id, cl_id, "pass-through allocates the same dataset id");

    let esize = ElementType::F32.size();
    let full: Vec<u8> = (0..shape.volume() * esize as u64)
        .map(|i| pat(0xf00d, i))
        .collect();
    let wb = bare
        .write(bare_id, &shape, &[0, 0], shape.dims(), &full)
        .expect("bare write");
    let wc = cluster
        .write(cl_id, &shape, &[0, 0], shape.dims(), &full)
        .expect("cluster write");
    assert_eq!(wb, wc, "write outcomes must be identical");

    let mut b1 = Vec::new();
    let mut b2 = Vec::new();
    for (coord, sub) in [
        (vec![0u64, 0u64], vec![4u64, 4u64]),
        (vec![1, 2], vec![4, 4]),
        (vec![0, 3], vec![8, 2]),
        (vec![3, 0], vec![2, 8]),
    ] {
        let rb = bare
            .read_into(bare_id, &shape, &coord, &sub, &mut b1)
            .expect("bare read");
        let rc = cluster
            .read_into(cl_id, &shape, &coord, &sub, &mut b2)
            .expect("cluster read");
        assert_eq!(rb, rc, "read metrics must be identical");
        assert_eq!(b1, b2, "read payloads must be identical");
    }

    // The composed device's own artifact is byte-identical to the bare
    // device's: the cluster added bookkeeping, never modeled time.
    let bare_json = bare.run_report().to_json();
    let dev_json = cluster.device(0).expect("device 0").run_report().to_json();
    assert_eq!(bare_json, dev_json, "device report diverged from bare run");
}

#[test]
fn device_kill_loses_no_acknowledged_writes() {
    let shape = Shape::new([8, 16]);
    let ops = 48usize;
    let seed = 11u64;
    let base = ClusterConfig::new(4, 2)
        .with_shard_rows(4)
        .with_seed(7)
        .with_observability(ObsConfig::full());

    // Golden: same cluster, empty plan.
    let mut golden = hardware_cluster(base.clone());
    let gid = golden
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("golden create");
    let (gmodel, gmoved) = run_workload(&mut golden, gid, &shape, ops, seed);
    let gfinal = read_full(&mut golden, gid, &shape);
    assert_eq!(gfinal, gmodel, "golden final contents match the model");

    // Faulted: kill device 0 mid-run.
    let plan = ClusterFaultPlan::kill_at(ops as u64 / 2, 0);
    let mut faulted = hardware_cluster(base.clone().with_plan(plan));
    let fid = faulted
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("faulted create");
    assert_eq!(gid, fid);
    let (fmodel, fmoved) = run_workload(&mut faulted, fid, &shape, ops, seed);
    let ffinal = read_full(&mut faulted, fid, &shape);

    assert_eq!(fmodel, gmodel, "same acknowledged-write set");
    assert_eq!(
        fmoved, gmoved,
        "the degraded run moved different app bytes than the healthy one"
    );
    assert_eq!(
        ffinal, gfinal,
        "recovered contents must be byte-identical to the golden run"
    );

    // Non-vacuity: the kill actually took replicas away and repair ran.
    let stats = faulted.stats();
    assert_eq!(stats.get("cluster.device_kills"), 1);
    assert!(
        stats.get("cluster.rereplications") >= 1,
        "device 0 held no replicas — pick a different seed"
    );
    assert_eq!(stats.get("cluster.rereplication_stranded"), 0);
    assert!(!faulted.is_alive(0));
    // No shard lists the dead device anymore.
    for h in 0..faulted.shard_count(fid).expect("dataset") {
        let holders = faulted.replica_devices(fid, h);
        assert!(
            !holders.contains(&0),
            "shard {h} still lists the dead device"
        );
        assert_eq!(holders.len(), 2, "shard {h} lost redundancy");
    }
}

#[test]
fn link_down_marks_stale_and_resync_restores_identity() {
    let shape = Shape::new([8, 16]);
    let ops = 48usize;
    let seed = 23u64;
    let base = ClusterConfig::new(3, 2)
        .with_shard_rows(4)
        .with_seed(5)
        .with_observability(ObsConfig::full());

    let mut golden = hardware_cluster(base.clone());
    let gid = golden
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("golden create");
    let (gmodel, _) = run_workload(&mut golden, gid, &shape, ops, seed);
    let gfinal = read_full(&mut golden, gid, &shape);

    let plan = ClusterFaultPlan::new(vec![
        DeviceFault {
            at_op: 10,
            device: 1,
            kind: DeviceFaultKind::LinkDown,
        },
        DeviceFault {
            at_op: 30,
            device: 1,
            kind: DeviceFaultKind::LinkRestore,
        },
    ]);
    let mut faulted = hardware_cluster(base.clone().with_plan(plan));
    let fid = faulted
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("faulted create");
    let (fmodel, _) = run_workload(&mut faulted, fid, &shape, ops, seed);
    let ffinal = read_full(&mut faulted, fid, &shape);

    assert_eq!(fmodel, gmodel);
    assert_eq!(ffinal, gfinal, "resynced contents diverged from golden");

    let stats = faulted.stats();
    assert_eq!(stats.get("cluster.link_downs"), 1);
    assert_eq!(stats.get("cluster.link_restores"), 1);
    assert!(
        stats.get("cluster.write_skips") >= 1,
        "no write hit the downed device — pick a different seed"
    );
    assert!(
        stats.get("cluster.resyncs") >= 1,
        "nothing went stale, resync untested"
    );
    assert_eq!(stats.get("cluster.resync_stranded"), 0);
    assert!(faulted.is_reachable(1), "link is back up");
}

#[test]
fn failover_is_deterministic_journal_and_report() {
    let run = || {
        let shape = Shape::new([8, 16]);
        let plan = ClusterFaultPlan::new(vec![
            DeviceFault {
                at_op: 8,
                device: 2,
                kind: DeviceFaultKind::LinkDown,
            },
            DeviceFault {
                at_op: 20,
                device: 0,
                kind: DeviceFaultKind::Kill,
            },
            DeviceFault {
                at_op: 28,
                device: 2,
                kind: DeviceFaultKind::LinkRestore,
            },
        ]);
        let cfg = ClusterConfig::new(4, 2)
            .with_shard_rows(4)
            .with_seed(9)
            .with_plan(plan)
            .with_observability(ObsConfig::full());
        let mut cluster = hardware_cluster(cfg);
        let id = cluster
            .create_dataset(shape.clone(), ElementType::F32)
            .expect("create");
        let _ = run_workload(&mut cluster, id, &shape, 40, 31);
        let contents = read_full(&mut cluster, id, &shape);
        (
            cluster.journal_lines(),
            cluster.full_report().to_json(),
            contents,
        )
    };
    let (j1, r1, c1) = run();
    let (j2, r2, c2) = run();
    assert!(!j1.is_empty(), "journal must not be vacuously empty");
    assert!(j1.contains("event=kill"), "journal records the kill");
    assert!(j1.contains("rereplicate"), "journal records the repair");
    assert_eq!(j1, j2, "journal must be byte-identical across runs");
    assert_eq!(r1, r2, "full report must be byte-identical across runs");
    assert_eq!(c1, c2);
}

#[test]
fn shard_straddling_requests_reassemble_exactly() {
    let shape = Shape::new([8, 10]);
    let esize = ElementType::F32.size();
    let cfg = ClusterConfig::new(2, 1).with_shard_rows(3).with_seed(13);
    let mut cluster = hardware_cluster(cfg);
    let id = cluster
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    assert_eq!(cluster.shard_count(id), Some(4), "rows 3+3+3+1");

    // Seed the full canonical contents.
    let full: Vec<u8> = (0..shape.volume() * esize as u64)
        .map(|i| pat(0xabcd, i))
        .collect();
    cluster
        .write(id, &shape, &[0, 0], shape.dims(), &full)
        .expect("full write");

    // Canonical sub-rectangles straddling shard boundaries.
    let mut buf = Vec::new();
    for (coord, sub) in [
        (vec![1u64, 1u64], vec![4u64, 5u64]), // rows 5..10: shards 1,2,3
        (vec![0, 0], vec![8, 5]),             // rows 0..5: shards 0,1
        (vec![0, 1], vec![2, 2]),             // rows 2..4: shards 0,1
    ] {
        let m = cluster
            .read_into(id, &shape, &coord, &sub, &mut buf)
            .expect("straddling read");
        assert_eq!(m.bytes as usize, buf.len());
        let region = Region::from_request(&shape, &coord, &sub).expect("request");
        region
            .for_each_run(&shape, |b, linear, len| {
                let got = &buf[b as usize * esize..(b + len) as usize * esize];
                let want = &full[linear as usize * esize..(linear + len) as usize * esize];
                assert_eq!(got, want, "straddling read mangled a run");
            })
            .unwrap();
    }

    // A non-canonical flat view whose partition crosses a shard boundary
    // (elements [16, 32) cross the row-24 boundary at shard 0 → 1).
    let flat = Shape::new([80]);
    let m = cluster
        .read_into(id, &flat, &[1], &[16], &mut buf)
        .expect("flat straddling read");
    assert_eq!(m.bytes as usize, buf.len());
    assert_eq!(&buf[..], &full[16 * esize..32 * esize]);

    // Partial write across a shard boundary, then read it back.
    let patch: Vec<u8> = (0..16 * esize as u64).map(|i| pat(0x9999, i)).collect();
    cluster
        .write(id, &flat, &[1], &[16], &patch)
        .expect("flat straddling write");
    cluster
        .read_into(id, &flat, &[1], &[16], &mut buf)
        .expect("read back");
    assert_eq!(&buf[..], &patch[..]);
}

#[test]
fn tenants_route_through_the_cluster_deterministically() {
    // The multi-tenant traffic engine is generic over `StorageFrontEnd`,
    // so the cluster drops in under it: every tenant dataset shards and
    // replicates across devices, a mid-run device kill re-replicates, and
    // the whole composition stays byte-deterministic with verified data.
    use nds_system::TrafficEngine;
    use nds_workloads::tenants::mixed_open_closed;

    let run = || {
        let cfg = ClusterConfig::new(3, 2)
            .with_shard_rows(16)
            .with_seed(21)
            .with_plan(ClusterFaultPlan::kill_at(20, 1))
            .with_observability(ObsConfig::full());
        let cluster = hardware_cluster(cfg);
        let set = mixed_open_closed(19, 4, 8);
        let mut engine = TrafficEngine::new(cluster, &set).expect("tenant setup");
        engine.run().expect("engine run over cluster");
        assert!(
            engine.completions().iter().all(|c| c.data_ok),
            "a tenant read bad bytes through the cluster"
        );
        engine.full_report().to_json()
    };
    let r1 = run();
    assert!(
        r1.contains("system.cluster.device_kills") && r1.contains("system.cluster.rereplications"),
        "kill did not reach the cluster under the engine"
    );
    assert_eq!(r1, run(), "tenants-over-cluster run is not deterministic");
}

#[test]
fn unreachable_shard_rejects_unacknowledged() {
    let shape = Shape::new([8, 16]);
    // Two devices, ONE replica: killing the holder makes its shards
    // unrecoverable (no surviving source) — the cluster must say so with a
    // typed error, never fabricate data or ack a write.
    let cfg = ClusterConfig::new(2, 1)
        .with_shard_rows(4)
        .with_seed(1)
        .with_plan(ClusterFaultPlan::kill_at(1, 0));
    let mut cluster = hardware_cluster(cfg);
    let id = cluster
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let esize = ElementType::F32.size();
    let full: Vec<u8> = vec![7u8; (shape.volume() as usize) * esize];
    cluster
        .write(id, &shape, &[0, 0], shape.dims(), &full)
        .expect("pre-kill write acked");

    // Device 0 held at least one single-replica shard for this seed.
    let holders: Vec<u32> = (0..cluster.shard_count(id).expect("ds"))
        .flat_map(|h| cluster.replica_devices(id, h))
        .collect();
    assert!(holders.contains(&0), "seed places nothing on device 0");

    // After the kill (applied before op index 1), full reads and writes
    // touching the lost shards fail loudly.
    let zeros = vec![0u64; shape.ndims()];
    let read = cluster.read(id, &shape, &zeros, shape.dims());
    assert!(
        matches!(read, Err(nds_system::SystemError::ShardUnavailable { .. })),
        "lost shard must surface a typed error, got {read:?}"
    );
    let write = cluster.write(id, &shape, &zeros, shape.dims(), &full);
    assert!(matches!(
        write,
        Err(nds_system::SystemError::ShardUnavailable { .. })
    ));
    let stats = cluster.stats();
    assert!(stats.get("cluster.rereplication_stranded") >= 1);
}

/// One more configuration of the same harness: an *unsharded*, replicated
/// volume (`shard_rows = 0`, N = 3, k = 2) — every request plans to one
/// verbatim sub-op, so write fan-out, stale marking, steering, kill and
/// resync all run on the single-shard side of the plan.
#[test]
fn unsharded_replicated_volume_survives_kill_and_link_outage() {
    let shape = Shape::new([8, 16]);
    let ops = 48usize;
    let seed = 29u64;
    let base = ClusterConfig::new(3, 2)
        .with_seed(17)
        .with_observability(ObsConfig::full());
    let run = |plan: ClusterFaultPlan| {
        let mut cluster = hardware_cluster(base.clone().with_plan(plan));
        let id = cluster
            .create_dataset(shape.clone(), ElementType::F32)
            .expect("create");
        assert_eq!(cluster.shard_count(id), Some(1), "unsharded");
        let holders = cluster.replica_devices(id, 0);
        let (model, _) = run_workload(&mut cluster, id, &shape, ops, seed);
        let contents = read_full(&mut cluster, id, &shape);
        (cluster, id, holders, model, contents)
    };

    let (_, _, holders, gmodel, gfinal) = run(ClusterFaultPlan::default());
    assert_eq!(gfinal, gmodel, "golden final contents match the model");
    assert_eq!(holders.len(), 2);
    let victim = holders[0];
    let kill = ClusterFaultPlan::kill_at(ops as u64 / 2, victim);
    let outage = ClusterFaultPlan::new(vec![
        DeviceFault {
            at_op: 10,
            device: victim,
            kind: DeviceFaultKind::LinkDown,
        },
        DeviceFault {
            at_op: 30,
            device: victim,
            kind: DeviceFaultKind::LinkRestore,
        },
    ]);

    for plan in [kill.clone(), outage.clone()] {
        let (faulted, id, _, fmodel, ffinal) = run(plan.clone());
        assert_eq!(fmodel, gmodel, "same acknowledged-write set");
        assert_eq!(ffinal, gfinal, "an acknowledged write was lost");
        assert_eq!(faulted.replica_devices(id, 0).len(), 2, "lost redundancy");
        // Deterministic failover: journal + report repeat byte for byte.
        let (again, ..) = run(plan);
        assert_eq!(faulted.journal_lines(), again.journal_lines());
        assert_eq!(
            faulted.full_report().to_json(),
            again.full_report().to_json()
        );
    }

    let (killed, id, ..) = run(kill);
    let stats = killed.stats();
    assert_eq!(
        stats.get("cluster.rereplications"),
        1,
        "one shard, one copy"
    );
    assert_eq!(stats.get("cluster.rereplication_stranded"), 0);
    assert!(!killed.replica_devices(id, 0).contains(&victim));

    // The downed holder missed writes (marked stale — only stale replicas
    // are ever resynced) and was brought back by exactly one resync.
    let (restored, id, ..) = run(outage);
    let stats = restored.stats();
    assert!(
        stats.get("cluster.write_skips") >= 1,
        "no write was skipped"
    );
    assert_eq!(
        stats.get("cluster.resyncs"),
        1,
        "stale replica not resynced"
    );
    assert_eq!(stats.get("cluster.resync_stranded"), 0);
    assert!(restored.is_reachable(victim as usize), "link is back up");
    assert_eq!(restored.replica_devices(id, 0), holders, "same holders");
}

/// The error edge of the single plan: a request that cannot be planned
/// against a single-shard dataset fails typed, counts nothing, still
/// advances the fault clock, and leaves the data path usable.
#[test]
fn unplannable_request_on_unsharded_dataset_fails_cleanly() {
    use nds_system::SystemError;

    let shape = Shape::new([8, 16]);
    let esize = ElementType::F32.size();
    // Ops: 0 = seed write, 1 = bad read, 2 = bad write, 3 = valid read —
    // the kill fires only if both rejected requests consumed an op index.
    let cfg = ClusterConfig::new(3, 2)
        .with_seed(17)
        .with_plan(ClusterFaultPlan::kill_at(3, 0));
    let mut cluster = hardware_cluster(cfg);
    let id = cluster
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    assert_eq!(cluster.shard_count(id), Some(1));
    let full: Vec<u8> = (0..shape.volume() * esize as u64)
        .map(|i| pat(0xbeef, i))
        .collect();
    cluster
        .write(id, &shape, &[0, 0], shape.dims(), &full)
        .expect("seed write");
    let before = cluster.stats();

    let wrong_volume = Shape::new([8, 15]);
    let mut buf = Vec::new();
    let read = cluster.read_into(id, &wrong_volume, &[0, 0], &[8, 15], &mut buf);
    assert!(matches!(read, Err(SystemError::Nds(_))), "got {read:?}");
    let write = cluster.write(
        id,
        &wrong_volume,
        &[0, 0],
        &[8, 15],
        &full[..8 * 15 * esize],
    );
    assert!(matches!(write, Err(SystemError::Nds(_))), "got {write:?}");
    assert_eq!(cluster.stats(), before, "a rejected request was counted");
    assert!(cluster.is_alive(0), "the kill is not due yet");

    let m = cluster
        .read_into(id, &shape, &[1, 2], &[4, 4], &mut buf)
        .expect("valid read after the rejected ones");
    assert!(
        !cluster.is_alive(0),
        "rejected requests must tick the fault clock"
    );
    assert_eq!(m.bytes as usize, buf.len());
    let region = Region::from_request(&shape, &[1, 2], &[4, 4]).expect("request");
    region
        .for_each_run(&shape, |b, linear, len| {
            let got = &buf[b as usize * esize..(b + len) as usize * esize];
            let want = &full[linear as usize * esize..(linear + len) as usize * esize];
            assert_eq!(got, want, "read after a rejected request is wrong");
        })
        .unwrap();
}

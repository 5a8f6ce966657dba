//! Layer probes: after the traced pass, the request list it captured (and
//! the page and command counts the layers reported) is replayed against
//! each lower layer's public API *alone*, each under its own span. A probe
//! runs cold and outside the front-end call it imitates, so its time is an
//! estimate of that layer's share, not a measurement of it — spans inside
//! the product crates are a later change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nds_core::{translator, BlockShape, DeviceSpec, MemBackend, Shape, SpaceId, Stl};
use nds_flash::{FlashConfig, FlashDevice, Ftl, FtlConfig};
use nds_host::pipeline::{self, StageTimes};
use nds_interconnect::{wire, Link, NvmeCommand, WfqScheduler};
use nds_sim::{ResourceSet, SimDuration, SimTime};
use nds_system::SystemConfig;

use crate::metrics::Metrics;
use crate::spans::{OpKind, Rec, Request};
use crate::workloads::Collector;

/// Layers only some workloads reach; their probes replay nothing elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct Uses {
    /// Requests pass a WFQ scheduler.
    pub wfq: bool,
    /// Reads feed the host pipeline.
    pub pipeline: bool,
}

/// One wrapped system's STL during the replay: the system's number, the STL,
/// and its dataset-id → space-id map.
type LiveStl = (u32, Stl<MemBackend>, BTreeMap<u64, SpaceId>);

/// Flows the WFQ probe registers (the tenant count of `tenant_mix`).
const WFQ_FLOWS: u64 = 16;

/// Runs `f` under a span called `name`; returns its wall seconds and result.
fn timed<T>(rec: &Rec, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
    let _span = rec.span(name);
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

fn device_spec(flash: &FlashConfig) -> DeviceSpec {
    let g = flash.geometry;
    DeviceSpec::new(
        g.channels as u32,
        g.banks_per_channel as u32,
        g.page_size as u32,
    )
}

fn is_nds(r: &Request) -> bool {
    r.arch != "baseline"
}

/// Runs every probe and derives `system.self_wall_s_est`.
pub fn run(rec: &Rec, config: &SystemConfig, c: &Collector, uses: Uses, m: &mut Metrics) {
    let requests = rec.take_requests();
    translate(rec, config, &requests, m);
    stl(rec, config, &requests, m);
    flash_store(rec, config, c, m);
    ftl(rec, config, c, &requests, m);
    link(rec, config, &requests, m);
    wire_codec(rec, &requests, m);
    if uses.wfq {
        wfq(rec, &requests, m);
    }
    if uses.pipeline {
        host_pipeline(rec, &requests, m);
    }
    resource_acquire(rec, config, c, m);

    // What the front-end spans hold that no probe of a layer beneath them
    // accounts for. (`translate` runs inside `Stl`, `ResourceSet::acquire`
    // inside the flash schedule calls, WFQ and the pipeline above the
    // front-end — none of those is subtracted twice or at all.)
    let beneath: f64 = [
        "core.stl_read_wall_s",
        "core.stl_write_wall_s",
        "flash.store_program_wall_s",
        "flash.store_read_wall_s",
        "flash.schedule_wall_s",
        "flash.ftl_write_wall_s",
        "flash.ftl_read_wall_s",
        "interconnect.link_transfer_wall_s",
        "interconnect.wire_wall_s",
    ]
    .iter()
    .filter_map(|name| m.get(name))
    .map(|v| v.as_f64())
    .sum();
    let front_end = rec.read(|r| r.op_wall_ns.values().sum::<u64>()) as f64 / 1e9;
    m.real("system.self_wall_s_est", front_end - beneath);
}

/// `translator::translate` for every NDS read and write.
fn translate(rec: &Rec, config: &SystemConfig, requests: &[Request], m: &mut Metrics) {
    let spec = device_spec(&config.flash);
    let (seconds, (blocks, segments)) = timed(rec, "probe.core.translate", || {
        let mut spaces: BTreeMap<(u32, u64), (Shape, BlockShape)> = BTreeMap::new();
        let (mut blocks, mut segments) = (0u64, 0u64);
        for r in requests.iter().filter(|r| is_nds(r)) {
            match (r.kind, r.element) {
                (OpKind::Create, Some(element)) => {
                    let bb = BlockShape::for_space(
                        &r.view,
                        element,
                        spec,
                        config.stl.block_dimensionality,
                        config.stl.block_multiplier,
                    );
                    spaces.insert((r.system, r.dataset), (r.view.clone(), bb));
                }
                (OpKind::Read | OpKind::Write, _) => {
                    let Some((space, bb)) = spaces.get(&(r.system, r.dataset)) else {
                        continue;
                    };
                    if let Ok(t) = translator::translate(space, bb, &r.view, &r.coord, &r.sub_dims)
                    {
                        blocks += t.block_count() as u64;
                        segments += t.segment_count();
                    }
                }
                _ => {}
            }
        }
        (blocks, segments)
    });
    m.real("core.translate_wall_s", seconds);
    m.count("core.translate_blocks", blocks);
    m.count("core.translate_segments", segments);
}

/// `Stl<MemBackend>::read_into` / `write` for every NDS read and write: the
/// STL's translation, plan cache, allocation and assembly copies without
/// any flash or link model behind them.
fn stl(rec: &Rec, config: &SystemConfig, requests: &[Request], m: &mut Metrics) {
    let g = config.flash.geometry;
    let spec = device_spec(&config.flash);
    let units_per_lane = g.blocks_per_bank * g.pages_per_block;
    let largest = requests
        .iter()
        .filter(|r| r.kind == OpKind::Write)
        .map(|r| r.bytes as usize)
        .max()
        .unwrap_or(0);
    // Non-zero, or the STL's zero-unit elision would skip the writes.
    let payload = vec![0xA5u8; largest];
    let mut buf = Vec::new();
    let (mut read_ns, mut write_ns) = (0u128, 0u128);
    {
        let _span = rec.span("probe.core.stl");
        // One STL per wrapped system, alive only while that system's
        // requests replay (a later system of the same architecture
        // replaces it), as in the run itself.
        let mut live: BTreeMap<&'static str, LiveStl> = BTreeMap::new();
        for r in requests.iter().filter(|r| is_nds(r)) {
            if live
                .get(r.arch)
                .is_none_or(|(system, _, _)| *system != r.system)
            {
                let fresh = Stl::new(MemBackend::new(spec, units_per_lane), config.stl);
                live.insert(r.arch, (r.system, fresh, BTreeMap::new()));
            }
            let Some((_, stl, spaces)) = live.get_mut(r.arch) else {
                continue;
            };
            match (r.kind, r.element) {
                (OpKind::Create, Some(element)) => {
                    if let Ok(id) = stl.create_space(r.view.clone(), element) {
                        spaces.insert(r.dataset, id);
                    }
                }
                (OpKind::Read, _) => {
                    let Some(&id) = spaces.get(&r.dataset) else {
                        continue;
                    };
                    let started = Instant::now();
                    let _ = black_box(stl.read_into(id, &r.view, &r.coord, &r.sub_dims, &mut buf));
                    read_ns += started.elapsed().as_nanos();
                }
                (OpKind::Write, _) => {
                    let Some(&id) = spaces.get(&r.dataset) else {
                        continue;
                    };
                    let started = Instant::now();
                    let data = &payload[..r.bytes as usize];
                    let _ = black_box(stl.write(id, &r.view, &r.coord, &r.sub_dims, data));
                    write_ns += started.elapsed().as_nanos();
                }
                (OpKind::Delete, _) => {
                    if let Some(id) = spaces.remove(&r.dataset) {
                        let _ = stl.delete_space(id);
                    }
                }
                _ => {}
            }
        }
    }
    m.real("core.stl_read_wall_s", read_ns as f64 / 1e9);
    m.real("core.stl_write_wall_s", write_ns as f64 / 1e9);
}

/// The bare `FlashDevice`: construction, then as many page programs, page
/// reads and schedule calls as the NDS architectures' devices reported.
/// Reads `peek`, as `FlashBackend`'s data path does.
fn flash_store(rec: &Rec, config: &SystemConfig, c: &Collector, m: &mut Metrics) {
    let g = config.flash.geometry;
    let total = g.total_pages();
    let programs = c.nds("flash.pages_programmed") as usize;
    let reads = c.nds_page_reads() as usize;

    let (new_s, device) = timed(rec, "probe.flash.new", || {
        let mut last = FlashDevice::new(config.flash.clone());
        for _ in 1..c.devices {
            last = FlashDevice::new(config.flash.clone());
        }
        last
    });
    m.real("flash.new_wall_s", new_s);
    let mut device = device;

    let (program_s, ()) = timed(rec, "probe.flash.store_program", || {
        for i in 0..programs {
            let addr = g.page_at(i % total);
            if i >= total && addr.page == 0 {
                device.erase_block(addr.block_addr());
            }
            let _ = black_box(device.program(addr, vec![0xA5u8; g.page_size]));
        }
    });
    m.real("flash.store_program_wall_s", program_s);

    let valid = programs.min(total);
    let (read_s, ()) = timed(rec, "probe.flash.store_read", || {
        if valid == 0 {
            return;
        }
        for i in 0..reads {
            black_box(device.peek(g.page_at(i % valid)));
        }
    });
    m.real("flash.store_read_wall_s", read_s);

    // One page per channel per call, as a striped request schedules them.
    let batch: Vec<_> = (0..g.channels)
        .map(|ch| g.page_at(ch * (total / g.channels)))
        .collect();
    let (schedule_s, ()) = timed(rec, "probe.flash.schedule", || {
        for _ in 0..reads.div_ceil(batch.len()) {
            black_box(device.schedule_reads(&batch, SimTime::ZERO));
        }
        for _ in 0..programs.div_ceil(batch.len()) {
            black_box(device.schedule_programs(&batch, SimTime::ZERO));
        }
    });
    m.real("flash.schedule_wall_s", schedule_s);
}

/// The baseline's FTL over a bare device: as many logical page writes as
/// the baseline's hosts wrote, cycling over the footprint of one system's
/// datasets (so overwrites invalidate and garbage-collect), then as many
/// page reads as its devices served, in runs of the mean command length.
fn ftl(rec: &Rec, config: &SystemConfig, c: &Collector, requests: &[Request], m: &mut Metrics) {
    let page = config.flash.geometry.page_size as u64;
    let mut systems = std::collections::BTreeSet::new();
    let mut created = 0u64;
    for r in requests.iter().filter(|r| !is_nds(r)) {
        systems.insert(r.system);
        if let (OpKind::Create, Some(element)) = (r.kind, r.element) {
            created += r.view.volume() * element.size() as u64;
        }
    }
    let writes = c.baseline("system.write_bytes") / page;
    let reads = c.baseline_page_reads();
    if systems.is_empty() || writes == 0 {
        m.real("flash.ftl_write_wall_s", 0.0);
        m.real("flash.ftl_read_wall_s", 0.0);
        return;
    }
    let mut ftl = Ftl::new(FlashDevice::new(config.flash.clone()), FtlConfig::default());
    let footprint = (created / systems.len() as u64)
        .div_ceil(page)
        .clamp(1, ftl.capacity_pages());
    let (write_s, ()) = timed(rec, "probe.flash.ftl_write", || {
        for i in 0..writes {
            let payload = vec![0xA5u8; page as usize];
            let _ = black_box(ftl.write(i % footprint, payload, SimTime::ZERO));
        }
    });
    m.real("flash.ftl_write_wall_s", write_s);

    let written = writes.min(footprint);
    let run = (reads / c.baseline("system.read_commands").max(1)).clamp(1, written);
    let (read_s, ()) = timed(rec, "probe.flash.ftl_read", || {
        for k in 0..reads / run {
            let lba = (k * run) % (written - run + 1);
            let _ = black_box(ftl.read_run(lba, run, SimTime::ZERO));
        }
    });
    m.real("flash.ftl_read_wall_s", read_s);
}

/// `Link::transfer` once per device command every front-end call issued.
fn link(rec: &Rec, config: &SystemConfig, requests: &[Request], m: &mut Metrics) {
    let mut link = Link::new(config.link);
    let (seconds, ()) = timed(rec, "probe.interconnect.link_transfer", || {
        for r in requests.iter().filter(|r| r.commands > 0) {
            let per_command = r.bytes / r.commands;
            for _ in 0..r.commands {
                black_box(link.transfer(per_command, SimTime::ZERO));
            }
        }
    });
    m.real("interconnect.link_transfer_wall_s", seconds);
}

/// `wire::encode` + `wire::decode` of the extended NVMe command behind
/// every call on a hardware-NDS device (alone or in a cluster).
fn wire_codec(rec: &Rec, requests: &[Request], m: &mut Metrics) {
    let (seconds, ()) = timed(rec, "probe.interconnect.wire", || {
        for r in requests
            .iter()
            .filter(|r| matches!(r.arch, "hardware-nds" | "cluster"))
        {
            let space = nds_interconnect::SpaceId(r.dataset);
            let cmd = match (r.kind, r.element) {
                (OpKind::Create, Some(element)) => NvmeCommand::OpenSpace {
                    dims: r.view.dims().iter().rev().copied().collect(),
                    element_size: element.size() as u32,
                },
                (OpKind::Read, _) => NvmeCommand::NdsRead {
                    space,
                    coord: r.coord.clone(),
                    sub_dims: r.sub_dims.clone(),
                },
                (OpKind::Write, _) => NvmeCommand::NdsWrite {
                    space,
                    coord: r.coord.clone(),
                    sub_dims: r.sub_dims.clone(),
                },
                (OpKind::Delete, _) => NvmeCommand::DeleteSpace { space },
                _ => continue,
            };
            if let Ok(wired) = wire::encode(&cmd) {
                let _ = black_box(wire::decode(&wired));
            }
        }
    });
    m.real("interconnect.wire_wall_s", seconds);
}

/// `WfqScheduler::enqueue` + `pop` once per read and write, one flow per
/// dataset (each tenant owns one).
fn wfq(rec: &Rec, requests: &[Request], m: &mut Metrics) {
    let mut scheduler = WfqScheduler::new();
    for flow in 0..WFQ_FLOWS {
        scheduler.register(flow as u32, 1);
    }
    let (seconds, ops) = timed(rec, "probe.interconnect.wfq", || {
        let mut ops = 0u64;
        for r in requests
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Read | OpKind::Write))
        {
            let flow = (r.dataset % WFQ_FLOWS) as u32;
            if scheduler.enqueue(flow, r.bytes.max(1), ops).is_ok() {
                black_box(scheduler.pop());
                ops += 1;
            }
        }
        ops
    });
    m.real("interconnect.wfq_wall_s", seconds);
    m.count("interconnect.wfq_ops", ops);
}

/// `pipeline::run` over each system's reads, one block per read with the
/// I/O and restructure times the front-end reported.
fn host_pipeline(rec: &Rec, requests: &[Request], m: &mut Metrics) {
    let mut per_system: BTreeMap<u32, Vec<StageTimes>> = BTreeMap::new();
    for r in requests.iter().filter(|r| r.kind == OpKind::Read) {
        per_system
            .entry(r.system)
            .or_default()
            .push(StageTimes::new([
                SimDuration::from_nanos(r.io_ns),
                SimDuration::from_nanos(r.restructure_ns),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ]));
    }
    let (seconds, ()) = timed(rec, "probe.host.pipeline", || {
        for blocks in per_system.values() {
            black_box(pipeline::run(blocks));
        }
    });
    m.real("host.pipeline_wall_s", seconds);
    m.count(
        "host.pipeline_blocks",
        per_system.values().map(|b| b.len() as u64).sum(),
    );
}

/// `ResourceSet::acquire` twice per flash page operation (its bank, then
/// its channel — or the reverse for a program).
fn resource_acquire(rec: &Rec, config: &SystemConfig, c: &Collector, m: &mut Metrics) {
    let acquires = 2 * (c.page_reads.values().sum::<u64>() + c.total("flash.pages_programmed"));
    let mut set = ResourceSet::new("probe", config.flash.geometry.channels);
    let hold = config.flash.timing.read_latency;
    let (seconds, ()) = timed(rec, "probe.sim.resource_acquire", || {
        for i in 0..acquires as usize {
            black_box(set.acquire(i % set.len(), SimTime::ZERO, hold));
        }
    });
    m.real("sim.resource_acquire_wall_s", seconds);
}

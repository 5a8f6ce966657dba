//! The hardware-assisted NDS system (Fig. 7c, §5.3).
//!
//! The STL runs inside the SSD controller (Fig. 8): the host issues a single
//! extended NVMe command per multi-dimensional request, the controller's
//! space translator and channel handlers fetch building blocks at full
//! internal bandwidth, the data assembler constructs the application object
//! in device DRAM, and only the finished object crosses the interconnect —
//! in saturating transfer chunks. The host never restructures anything.
//!
//! Costs unique to this architecture: the controller's per-request STL
//! latency (§7.3 measures 17 µs worst-case) and the ARM-class cores'
//! slower data handling, which shows up as the ~17% write penalty of §7.1.

use std::collections::BTreeMap;

use nds_core::{AccessReport, ElementType, Shape, SpaceId, Stl, WriteReport};
use nds_host::CpuModel;
use nds_interconnect::wire::{self, WireCommand};
use nds_interconnect::{NvmeCommand, QueuePair};
use nds_sim::{
    ComponentId, EventKind, Resource, RunReport, SimDuration, SimTime, Stats, TraceExport,
    TraceStage,
};

use crate::config::{ControllerConfig, SystemConfig};
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};
use crate::lifecycle::Lifecycle;

/// NDS with the STL embedded in the storage controller.
#[derive(Debug)]
pub struct HardwareNds {
    stl: Stl<FlashBackend>,
    life: Lifecycle,
    cpu: CpuModel,
    controller: ControllerConfig,
    transfer_chunk: u64,
    datasets: BTreeMap<DatasetId, SpaceId>,
    queue: QueuePair,
    next_id: u64,
    /// The in-device assembler of the read in flight (reset per read).
    assembler: Resource,
    scratch: Scratch,
}

/// Request-scoped state kept between commands so that marshalling and
/// executing one allocates nothing in steady state.
#[derive(Debug)]
struct Scratch {
    /// Coordinate vectors of the last reaped command, for the next one.
    spare_args: (Vec<u64>, Vec<u64>),
    /// The command as it crosses the interface.
    wired: WireCommand,
    /// The command the controller decoded off the wire and executes.
    decoded: NvmeCommand,
    read: AccessReport,
    write: WriteReport,
}

/// Journal identity of the NVMe submission/completion queue pair.
const QUEUE_COMPONENT: ComponentId = ComponentId::singleton("nvme.queue");

impl HardwareNds {
    /// Fixed cost of issuing one DMA descriptor in the on-device assembler.
    const DMA_DESCRIPTOR_COST: SimDuration = SimDuration::nanos::<100>();

    /// Builds a hardware-NDS system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let mut stl = Stl::new(FlashBackend::new(config.flash.clone()), config.stl);
        let life = Lifecycle::new(&config, &mut stl);
        HardwareNds {
            stl,
            life,
            cpu: config.cpu,
            controller: config.controller,
            transfer_chunk: config.nds_transfer_chunk,
            datasets: BTreeMap::new(),
            queue: QueuePair::new(64),
            next_id: 1,
            assembler: Resource::new("nds.assembler"),
            scratch: Scratch {
                spare_args: (Vec::new(), Vec::new()),
                wired: WireCommand::default(),
                decoded: NvmeCommand::Read { lba: 0, pages: 0 },
                read: AccessReport::default(),
                write: WriteReport::default(),
            },
        }
    }

    /// Marshals the extended read (or, with `write`, write) of
    /// `(space, coord, sub_dims)` — one NVMe command, §5.3.1 — through the
    /// interface limits, the real wire codec and the submission queue,
    /// exactly as the host driver would: validate, encode, submit, device
    /// pops and decodes. Leaves the decoded command the controller executes
    /// in `scratch.decoded`.
    fn submit_command(
        &mut self,
        write: bool,
        space: SpaceId,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<(), SystemError> {
        let space = nds_interconnect::SpaceId(space.0);
        let (mut cmd_coord, mut cmd_sub_dims) = std::mem::take(&mut self.scratch.spare_args);
        cmd_coord.clear();
        cmd_coord.extend_from_slice(coord);
        cmd_sub_dims.clear();
        cmd_sub_dims.extend_from_slice(sub_dims);
        let cmd = if write {
            NvmeCommand::NdsWrite {
                space,
                coord: cmd_coord,
                sub_dims: cmd_sub_dims,
            }
        } else {
            NvmeCommand::NdsRead {
                space,
                coord: cmd_coord,
                sub_dims: cmd_sub_dims,
            }
        };
        cmd.validate()?;
        wire::encode_into(&cmd, &mut self.scratch.wired)?;
        let wire_bytes = self.scratch.wired.wire_bytes();
        self.life.stats.add("nvme.wire_bytes", wire_bytes);
        // The queue drains synchronously, so issue and completion share the
        // per-operation epoch anchor rather than carrying modeled time.
        self.life.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandIssued { bytes: wire_bytes }
        });
        self.queue.submit(cmd)?;
        if self.life.obs.metrics().is_enabled() {
            let depth = self.queue.in_flight() as u64;
            self.life
                .obs
                .metric_sample(SimTime::ZERO, "nvme.queue_depth", depth);
        }
        let popped = self
            .queue
            .device_pop()
            .ok_or(SystemError::Protocol("submitted command missing on pop"))?;
        wire::decode_into(&self.scratch.wired, &mut self.scratch.decoded)?;
        debug_assert_eq!(self.scratch.decoded, popped, "wire format must be faithful");
        self.queue.complete(popped);
        if let Some(
            NvmeCommand::NdsRead {
                coord, sub_dims, ..
            }
            | NvmeCommand::NdsWrite {
                coord, sub_dims, ..
            },
        ) = self.queue.reap()
        {
            self.scratch.spare_args = (coord, sub_dims);
        }
        self.life.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandCompleted { bytes: wire_bytes }
        });
        Ok(())
    }

    /// The controller-resident STL (exposed for overhead experiments).
    pub fn stl(&self) -> &Stl<FlashBackend> {
        &self.stl
    }

    fn space_of(&self, id: DatasetId) -> Result<SpaceId, SystemError> {
        self.datasets
            .get(&id)
            .copied()
            .ok_or(SystemError::UnknownDataset(id))
    }

    /// The controller pipeline's fixed per-request latency for `space`
    /// (Fig. 8; one B-tree traversal per request, §7.3).
    fn stl_latency(&self, space: SpaceId) -> SimDuration {
        let levels = self
            .stl
            .space(space)
            .map(|s| s.tree().levels())
            .unwrap_or(2);
        self.controller.pipeline.request_latency(levels)
    }

    /// Device-side assembler time: DMA descriptors per segment plus the
    /// assembler's internal bandwidth over the payload.
    fn assemble_time(controller: &ControllerConfig, segments: u64, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        Self::DMA_DESCRIPTOR_COST * segments + controller.assemble_bandwidth.time_for_bytes(bytes)
    }

    /// Controller decomposition time on writes: the ARM cores scatter the
    /// incoming object into page images.
    fn decompose_time(&self, segments: u64, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.controller.scatter_chunk_overhead * segments
            + self.controller.assemble_bandwidth.time_for_bytes(bytes)
    }

    /// Link time for shipping `bytes` in saturating chunks.
    fn chunked_link_time(&mut self, bytes: u64) -> Result<SimDuration, SystemError> {
        if bytes == 0 {
            return Ok(SimDuration::ZERO);
        }
        let mut remaining = bytes;
        let mut end = SimTime::ZERO;
        while remaining > 0 {
            let take = remaining.min(self.transfer_chunk);
            end = self.life.link.try_transfer(take, SimTime::ZERO)?;
            remaining -= take;
        }
        Ok(end.saturating_since(SimTime::ZERO))
    }
}

impl StorageFrontEnd for HardwareNds {
    fn name(&self) -> &'static str {
        "hardware-nds"
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let space = self.stl.create_space(shape, element)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.datasets.insert(id, space);
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
        let outcome = self.write_scoped(id, view, coord, sub_dims, data);
        self.life.settle(&mut self.stl, "write", outcome)
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let outcome = self.read_scoped(id, view, coord, sub_dims, buf);
        self.life.settle(&mut self.stl, "read", outcome)
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let space = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.stl.delete_space(space)?;
        self.life.stats.add("system.delete_commands", 1);
        Ok(())
    }

    fn stats(&self) -> Stats {
        let mut s = self.life.stats(&self.stl);
        s.merge(self.stl.backend().stats());
        s.add("stl.plan_cache.hits", self.stl.plan_cache().hits());
        s.add("stl.plan_cache.misses", self.stl.plan_cache().misses());
        s
    }

    fn run_report(&self) -> RunReport {
        self.life.run_report(&self.stl, self.name(), &self.stats())
    }

    fn trace_export(&self) -> Option<TraceExport> {
        self.life.trace_export(&self.stl)
    }

    fn trace_cursor(&self) -> u64 {
        self.life.trace_cursor()
    }
}

/// The data paths behind [`StorageFrontEnd::write`] and
/// [`StorageFrontEnd::read_into`]; the trait methods settle their outcome
/// with the lifecycle, which closes the trace scope a failure leaves open.
impl HardwareNds {
    fn write_scoped(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        let space = self.space_of(id)?;
        // The trace scope opens before the NVMe queue events, so the
        // extended command's submission is part of the trace.
        let ctx = self.life.open_scope(&mut self.stl);
        // The request travels as one extended NVMe write (§5.3.1).
        self.submit_command(true, space, coord, sub_dims)?;
        let NvmeCommand::NdsWrite {
            coord, sub_dims, ..
        } = &self.scratch.decoded
        else {
            return Err(SystemError::Protocol("decoded write changed command kind"));
        };
        let report = &mut self.scratch.write;
        self.stl
            .write_reusing(space, view, coord, sub_dims, data, report)?;
        let (bytes, segments) = (report.access.bytes, report.access.segments);
        self.life.start_epoch(&mut self.stl);

        // One extended NVMe command; the object streams in over the link,
        // the controller decomposes it, the channel handlers program pages.
        let submit = self.cpu.submit_time(1);
        let link = self.chunked_link_time(bytes)?;
        let decompose = self.decompose_time(segments, bytes);
        let mut program_end = SimTime::ZERO;
        for block in &self.scratch.write.access.blocks {
            let backend = self.stl.backend_mut();
            program_end =
                program_end.max(backend.try_schedule_unit_programs(&block.units, SimTime::ZERO)?);
        }
        let stl = self.stl_latency(space);
        let program_tail = program_end.saturating_since(SimTime::ZERO);
        let latency = stl + submit + link + decompose + program_tail;

        self.life.record_write(1, bytes, latency);
        if let Some(ctx) = ctx {
            // The write is a strict chronological chain: controller STL
            // lookup, NVMe submission, the object streaming over the link,
            // controller decomposition, then the channel programs.
            let stages = [
                (TraceStage::Other, stl),
                (TraceStage::Queue, submit),
                (TraceStage::Link, link),
                (TraceStage::Restructure, decompose),
                (TraceStage::Flash, program_tail),
            ];
            self.life
                .close_scope(&mut self.stl, ctx, "write", latency, &stages);
        }
        self.life.end_epoch(&mut self.stl, latency);
        Ok(WriteOutcome {
            latency,
            commands: 1,
            bytes,
        })
    }

    fn read_scoped(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let space = self.space_of(id)?;
        let ctx = self.life.open_scope(&mut self.stl);
        // The request travels as one extended NVMe read (§5.3.1).
        self.submit_command(false, space, coord, sub_dims)?;
        let NvmeCommand::NdsRead {
            coord, sub_dims, ..
        } = &self.scratch.decoded
        else {
            return Err(SystemError::Protocol("decoded read changed command kind"));
        };
        let report = &mut self.scratch.read;
        self.stl
            .read_reusing(space, view, coord, sub_dims, buf, report)?;
        let report = &self.scratch.read;
        self.life.start_epoch(&mut self.stl);

        // Device: all covered blocks stream concurrently at internal
        // bandwidth; the assembler and the link pipeline behind them.
        self.assembler.reset();
        let mut first_block = SimDuration::ZERO;
        let mut dev_end = SimTime::ZERO;
        let bytes = report.bytes;
        let blocks = report.blocks.len().max(1) as u64;
        let assemble = Self::assemble_time(
            &self.controller,
            report.segments.div_ceil(blocks),
            bytes.div_ceil(blocks),
        );
        let mut asm_end = SimTime::ZERO;
        for (i, block) in report.blocks.iter().enumerate() {
            if block.units.is_empty() {
                continue;
            }
            let backend = self.stl.backend_mut();
            let end = backend.try_schedule_unit_reads(&block.units, SimTime::ZERO)?;
            if i == 0 {
                first_block = end.saturating_since(SimTime::ZERO);
            }
            dev_end = dev_end.max(end);
            asm_end = asm_end.max(self.assembler.acquire(end, assemble));
        }
        let link = self.chunked_link_time(bytes)?;
        let submit = self.cpu.submit_time(1);
        let stl = self.stl_latency(space);
        let asm_dur = asm_end.saturating_since(SimTime::ZERO);
        let region = asm_dur.max(link + first_block);
        let io_latency = stl + submit + region;
        // Steady-state pacing: device lanes, the in-device assembler, and
        // the wire drain their aggregate work concurrently.
        let io_occupancy = self
            .stl
            .backend()
            .device()
            .throughput_occupancy()
            .max(self.assembler.busy_time())
            .max(self.life.link.busy_time());

        self.life
            .record_read(1, bytes, io_latency, SimDuration::ZERO);
        if let Some(ctx) = ctx {
            // After the fixed STL + submission prefix, the critical path of
            // the remaining region is either the in-device assembler (flash
            // streaming, then assembly) or the wire (the first block, then
            // the chunked transfer draining behind it).
            let (flash, rest) = if asm_dur >= link + first_block {
                let flash = dev_end.saturating_since(SimTime::ZERO).min(region);
                (flash, TraceStage::Restructure)
            } else {
                (first_block.min(region), TraceStage::Link)
            };
            let stages = [
                (TraceStage::Other, stl),
                (TraceStage::Queue, submit),
                (TraceStage::Flash, flash),
                (rest, region - flash),
            ];
            self.life
                .close_scope(&mut self.stl, ctx, "read", io_latency, &stages);
        }
        self.life.end_epoch(&mut self.stl, io_latency);
        Ok(ReadMetrics {
            io_latency,
            io_occupancy,
            restructure: SimDuration::ZERO,
            commands: 1,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::software::SoftwareNds;

    fn system() -> HardwareNds {
        HardwareNds::new(SystemConfig::small_test())
    }

    #[test]
    fn round_trip_with_one_command() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        assert_eq!(w.commands, 1, "one extended NVMe command per write");
        let r = sys.read(id, &shape, &[1, 0], &[32, 64]).unwrap();
        assert_eq!(r.commands, 1, "one extended NVMe command per read");
        assert_eq!(r.restructure, SimDuration::ZERO);
        for (i, &b) in r.data.iter().enumerate() {
            let x = (i / 4) % 32 + 32;
            let y = (i / 4) / 32;
            let src = (x + 64 * y) * 4 + i % 4;
            assert_eq!(b, (src % 251) as u8);
        }
    }

    #[test]
    fn hardware_beats_software_on_tile_reads() {
        let config = SystemConfig::small_test();
        let shape = Shape::new([128, 128]);
        let data = vec![1u8; 128 * 128 * 4];

        let mut hw = HardwareNds::new(config.clone());
        let id = hw.create_dataset(shape.clone(), ElementType::F32).unwrap();
        hw.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let hw_read = hw.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        let mut sw = SoftwareNds::new(config);
        let id = sw.create_dataset(shape.clone(), ElementType::F32).unwrap();
        sw.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let sw_read = sw.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        assert!(
            hw_read.latency() <= sw_read.latency(),
            "hardware {} should not trail software {}",
            hw_read.latency(),
            sw_read.latency()
        );
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        // NAND programs are far slower than reads; sanity-check the model.
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        assert!(w.latency > r.latency());
    }

    #[test]
    fn stl_latency_floor() {
        // Even a tiny read pays the controller's per-request STL latency.
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[1, 1]).unwrap();
        assert!(r.io_latency >= sys.controller.pipeline.request_latency(2));
    }

    #[test]
    fn empty_dataset_read_is_cheap_but_valid() {
        let mut sys = system();
        let shape = Shape::new([32, 32]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[32, 32]).unwrap();
        assert!(r.data.iter().all(|&b| b == 0));
        assert_eq!(r.bytes, 32 * 32 * 4);
    }
}

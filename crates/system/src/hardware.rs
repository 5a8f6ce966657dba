//! The hardware-assisted NDS system (Fig. 7c, §5.3): [`FlashSystem`] at the
//! [`Controller`] placement.
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

use nds_core::{AccessReport, SpaceId, Stl, WriteReport};
use nds_interconnect::wire::{self, WireCommand};
use nds_interconnect::{Link, NvmeCommand, QueuePair};
use nds_sim::{ComponentId, EventKind, Resource, SimDuration, SimTime, Throughput, TraceStage};

use crate::config::SystemConfig;
use crate::controller::ControllerPipeline;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::flash_system::sealed::{Placed, Request};
use crate::flash_system::FlashSystem;
use crate::frontend::{ReadMetrics, WriteOutcome};
use crate::lifecycle::{partition, Lifecycle, Stages};

/// NDS with the STL embedded in the storage controller.
pub type HardwareNds = FlashSystem<Controller>;

/// The controller placement of the STL (§5.3.2): the Fig. 8 pipeline behind
/// an NVMe queue pair, with a data assembler working out of device DRAM.
#[derive(Debug)]
pub struct Controller {
    pipeline: ControllerPipeline,
    transfer_chunk: u64,
    queue: QueuePair,
    /// The in-device assembler of the read in flight (reset per read).
    assembler: Resource,
    // Request-scoped state kept between commands so that marshalling and
    // executing one allocates nothing in steady state.
    /// Coordinate vectors of the last reaped command, for the next one.
    spare_args: (Vec<u64>, Vec<u64>),
    /// The command as it crosses the interface.
    wired: WireCommand,
    /// The command the controller decoded off the wire and executes.
    decoded: NvmeCommand,
    /// The STL's reports of the command in flight.
    read_report: AccessReport,
    write_report: WriteReport,
}

/// Journal identity of the NVMe submission/completion queue pair.
const QUEUE_COMPONENT: ComponentId = ComponentId::singleton("nvme.queue");

impl Controller {
    /// Fixed cost of issuing one DMA descriptor in the on-device assembler.
    const DMA_DESCRIPTOR_COST: SimDuration = SimDuration::nanos::<100>();
    /// Bandwidth of the device-side assembler moving data between NVM
    /// buffers and assembled objects in device DRAM: 8/5 of the NVMeoF
    /// external peak (≈4.8 GiB/s) ≈ 7.7 GiB/s, the prototype's
    /// internal-to-external ratio (§7.2).
    pub(crate) const ASSEMBLE_BANDWIDTH: Throughput = Throughput::mib_per_sec(7_680);
    /// Per-chunk overhead of the controller's scattered copies: the ARM
    /// cores are weaker than the host CPU, §7.1's 17% write-penalty source.
    const SCATTER_CHUNK_OVERHEAD: SimDuration = SimDuration::nanos::<500>();

    /// Marshals the extended read (or, with `write`, write) of
    /// `(space, coord, sub_dims)` — one NVMe command, §5.3.1 — through the
    /// interface limits, the real wire codec and the submission queue,
    /// exactly as the host driver would: validate, encode, submit, device
    /// pops and decodes. Leaves the decoded command the controller executes
    /// in `decoded`.
    fn submit_command(
        &mut self,
        life: &mut Lifecycle,
        write: bool,
        space: SpaceId,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<(), SystemError> {
        let space = nds_interconnect::SpaceId(space.0);
        let (mut cmd_coord, mut cmd_sub_dims) = std::mem::take(&mut self.spare_args);
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
        wire::encode_into(&cmd, &mut self.wired)?;
        let wire_bytes = self.wired.wire_bytes();
        life.stats.add("nvme.wire_bytes", wire_bytes);
        // The queue drains synchronously, so issue and completion share the
        // per-operation epoch anchor rather than carrying modeled time.
        life.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandIssued { bytes: wire_bytes }
        });
        self.queue.submit(cmd)?;
        if life.obs.metrics().is_enabled() {
            let depth = self.queue.in_flight() as u64;
            life.obs
                .metric_sample(SimTime::ZERO, "nvme.queue_depth", depth);
        }
        let popped = self
            .queue
            .device_pop()
            .ok_or(SystemError::Protocol("submitted command missing on pop"))?;
        wire::decode_into(&self.wired, &mut self.decoded)?;
        debug_assert_eq!(self.decoded, popped, "wire format must be faithful");
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
            self.spare_args = (coord, sub_dims);
        }
        life.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandCompleted { bytes: wire_bytes }
        });
        Ok(())
    }

    /// Time for the controller to move `bytes` in `segments` pieces at the
    /// assembler's internal bandwidth, paying `per_segment` on each: DMA
    /// descriptors when the assembler builds a read's object, the ARM
    /// cores' scattered copies when a write is decomposed into page images.
    fn copy_time(per_segment: SimDuration, segments: u64, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        per_segment * segments + Self::ASSEMBLE_BANDWIDTH.time_for_bytes(bytes)
    }

    /// Link time for shipping `bytes` in saturating chunks.
    fn chunked_link_time(&self, link: &mut Link, bytes: u64) -> Result<SimDuration, SystemError> {
        if bytes == 0 {
            return Ok(SimDuration::ZERO);
        }
        let mut remaining = bytes;
        let mut end = SimTime::ZERO;
        while remaining > 0 {
            let take = remaining.min(self.transfer_chunk);
            end = link.try_transfer(take, SimTime::ZERO)?;
            remaining -= take;
        }
        Ok(end.saturating_since(SimTime::ZERO))
    }
}

impl Placed for Controller {
    const NAME: &'static str = "hardware-nds";
    const EXTENDED_COMMANDS: bool = true;
    type Store = Stl<FlashBackend>;

    fn new(config: &SystemConfig) -> Self {
        Controller {
            pipeline: config.controller,
            transfer_chunk: config.nds_transfer_chunk,
            queue: QueuePair::new(64),
            assembler: Resource::new("nds.assembler"),
            spare_args: (Vec::new(), Vec::new()),
            wired: WireCommand::default(),
            decoded: NvmeCommand::Read { lba: 0, pages: 0 },
            read_report: AccessReport::default(),
            write_report: WriteReport::default(),
        }
    }

    /// The request travels as one extended NVMe write (§5.3.1); the
    /// controller's STL runs the command it decoded.
    fn translate_write(
        sys: &mut HardwareNds,
        space: SpaceId,
        req: &mut Request<'_, &[u8]>,
    ) -> Result<(), SystemError> {
        let place = &mut sys.place;
        place.submit_command(&mut sys.life, true, space, req.coord, req.sub_dims)?;
        let NvmeCommand::NdsWrite {
            coord, sub_dims, ..
        } = &place.decoded
        else {
            return Err(SystemError::Protocol("decoded write changed command kind"));
        };
        let report = &mut place.write_report;
        sys.store
            .write_reusing(space, req.view, coord, sub_dims, req.payload, report)?;
        Ok(())
    }

    fn write_cost(
        sys: &mut HardwareNds,
        space: SpaceId,
        _req: &mut Request<'_, &[u8]>,
    ) -> Result<(WriteOutcome, Stages), SystemError> {
        let report = &sys.place.write_report;
        let (bytes, segments) = (report.access.bytes, report.access.segments);

        // One extended NVMe command; the object streams in over the link,
        // the controller decomposes it, the channel handlers program pages.
        let submit = sys.cpu.submit_time(1);
        let link = sys.place.chunked_link_time(&mut sys.life.link, bytes)?;
        let decompose = Self::copy_time(Self::SCATTER_CHUNK_OVERHEAD, segments, bytes);
        let mut program_end = SimTime::ZERO;
        for block in &report.access.blocks {
            let backend = sys.store.backend_mut();
            program_end =
                program_end.max(backend.try_schedule_unit_programs(&block.units, SimTime::ZERO)?);
        }
        // The Fig. 8 pipeline's latency (§7.3 measures 17 µs worst-case).
        let stl = sys.place.pipeline.request_latency(sys.tree_levels(space));
        let program_tail = program_end.saturating_since(SimTime::ZERO);
        let latency = stl + submit + link + decompose + program_tail;

        // The write is a strict chronological chain: controller STL lookup,
        // NVMe submission, the object streaming over the link, controller
        // decomposition, then the channel programs.
        let stages = partition([
            (TraceStage::Other, stl),
            (TraceStage::Queue, submit),
            (TraceStage::Link, link),
            (TraceStage::Restructure, decompose),
            (TraceStage::Flash, program_tail),
        ]);
        let outcome = WriteOutcome {
            latency,
            commands: 1,
            bytes,
        };
        Ok((outcome, stages))
    }

    /// The request travels as one extended NVMe read (§5.3.1); the
    /// controller's STL runs the command it decoded.
    fn translate_read(
        sys: &mut HardwareNds,
        space: SpaceId,
        req: &mut Request<'_, &mut Vec<u8>>,
    ) -> Result<(), SystemError> {
        let place = &mut sys.place;
        place.submit_command(&mut sys.life, false, space, req.coord, req.sub_dims)?;
        let NvmeCommand::NdsRead {
            coord, sub_dims, ..
        } = &place.decoded
        else {
            return Err(SystemError::Protocol("decoded read changed command kind"));
        };
        let report = &mut place.read_report;
        sys.store
            .read_reusing(space, req.view, coord, sub_dims, req.payload, report)?;
        Ok(())
    }

    fn read_cost(
        sys: &mut HardwareNds,
        space: SpaceId,
        _req: &mut Request<'_, &mut Vec<u8>>,
    ) -> Result<(ReadMetrics, Stages), SystemError> {
        let place = &mut sys.place;
        let report = &place.read_report;

        // Device: all covered blocks stream concurrently at internal
        // bandwidth; the assembler and the link pipeline behind them.
        place.assembler.reset();
        let mut first_block = SimDuration::ZERO;
        let mut dev_end = SimTime::ZERO;
        let bytes = report.bytes;
        let blocks = report.blocks.len().max(1) as u64;
        let assemble = Self::copy_time(
            Self::DMA_DESCRIPTOR_COST,
            report.segments.div_ceil(blocks),
            bytes.div_ceil(blocks),
        );
        let mut asm_end = SimTime::ZERO;
        for (i, block) in report.blocks.iter().enumerate() {
            if block.units.is_empty() {
                continue;
            }
            let backend = sys.store.backend_mut();
            let end = backend.try_schedule_unit_reads(&block.units, SimTime::ZERO)?;
            if i == 0 {
                first_block = end.saturating_since(SimTime::ZERO);
            }
            dev_end = dev_end.max(end);
            asm_end = asm_end.max(place.assembler.acquire(end, assemble));
        }
        let link = place.chunked_link_time(&mut sys.life.link, bytes)?;
        let submit = sys.cpu.submit_time(1);
        let stl = sys.place.pipeline.request_latency(sys.tree_levels(space));
        let asm_dur = asm_end.saturating_since(SimTime::ZERO);
        let region = asm_dur.max(link + first_block);
        let io_latency = stl + submit + region;
        // Steady-state pacing: device lanes, the in-device assembler, and
        // the wire drain their aggregate work concurrently.
        let io_occupancy = sys
            .store
            .backend()
            .device()
            .throughput_occupancy()
            .max(sys.place.assembler.busy_time())
            .max(sys.life.link.busy_time());

        // After the fixed STL + submission prefix, the critical path of the
        // remaining region is either the in-device assembler (flash
        // streaming, then assembly) or the wire (the first block, then the
        // chunked transfer draining behind it).
        let (flash, rest) = if asm_dur >= link + first_block {
            let flash = dev_end.saturating_since(SimTime::ZERO).min(region);
            (flash, TraceStage::Restructure)
        } else {
            (first_block.min(region), TraceStage::Link)
        };
        let stages = partition([
            (TraceStage::Other, stl),
            (TraceStage::Queue, submit),
            (TraceStage::Flash, flash),
            (rest, region - flash),
        ]);
        let metrics = ReadMetrics {
            io_latency,
            io_occupancy,
            restructure: SimDuration::ZERO,
            commands: 1,
            bytes,
        };
        Ok((metrics, stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::StorageFrontEnd;
    use crate::software::SoftwareNds;
    use nds_core::{ElementType, Shape};

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
        assert!(r.io_latency >= sys.place.pipeline.request_latency(2));
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

//! The software-only NDS system (Fig. 7b): [`FlashSystem`] at the [`Host`]
//! placement.
//!
//! The full STL — building blocks, locator tree, translator, allocator —
//! runs on the *host*, talking to the device through a LightNVM-style
//! physical-address interface. Building blocks fix the baseline's \[P3\]
//! (every block spans all channels) and batch the interconnect into
//! block-sized vector commands, but two costs remain on the host:
//!
//! * **Assembly** — constructing the application object means copying one
//!   building-block row at a time (2 KB for the prototype's 256×256 f64
//!   blocks), which §7.1 measures as a ~12% effective-bandwidth loss on row
//!   fetches. Assembly overlaps with I/O per block, so it appears inside
//!   `io_latency` rather than as a separate restructure stage.
//! * **Write decomposition + per-page submission** — physical writes must
//!   name physical pages, so the host both scatters the object into page
//!   images and submits page-granular program commands; §7.1 measures the
//!   combination as a ~30% write-bandwidth loss.

use nds_core::{AccessReport, NvmBackend, SpaceId, Stl, WriteReport};
use nds_sim::{SimDuration, SimTime, TraceStage};

use crate::config::SystemConfig;
use crate::controller::HostStlPath;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::flash_system::sealed::{Placed, Request};
use crate::flash_system::FlashSystem;
use crate::frontend::{ReadMetrics, WriteOutcome};
use crate::lifecycle::{partition, Stages};

/// NDS with the STL running on the host CPU over LightNVM.
pub type SoftwareNds = FlashSystem<Host>;

/// The host placement of the STL: requests cross the kernel I/O stack
/// ([`HostStlPath`]) and the host assembles and decomposes objects.
#[derive(Debug)]
pub struct Host {
    path: HostStlPath,
    /// The STL's reports of the request in flight, kept between requests
    /// so the steady-state data path does not allocate them.
    read_report: AccessReport,
    write_report: WriteReport,
}

impl Placed for Host {
    const NAME: &'static str = "software-nds";
    const EXTENDED_COMMANDS: bool = false;
    type Store = Stl<FlashBackend>;

    fn new(config: &SystemConfig) -> Self {
        Host {
            path: config.sw_stl_path,
            read_report: AccessReport::default(),
            write_report: WriteReport::default(),
        }
    }

    fn translate_write(
        sys: &mut SoftwareNds,
        space: SpaceId,
        req: &mut Request<'_, &[u8]>,
    ) -> Result<(), SystemError> {
        let report = &mut sys.place.write_report;
        sys.store.write_reusing(
            space,
            req.view,
            req.coord,
            req.sub_dims,
            req.payload,
            report,
        )?;
        Ok(())
    }

    fn write_cost(
        sys: &mut SoftwareNds,
        space: SpaceId,
        _req: &mut Request<'_, &[u8]>,
    ) -> Result<(WriteOutcome, Stages), SystemError> {
        let report = &sys.place.write_report;
        let page = sys.store.backend().spec().unit_bytes as u64;

        // Host decomposition: one scattered copy per translation segment.
        let decompose = sys
            .cpu
            .scatter_copy_time(report.access.segments, report.access.bytes);

        // Physical writes: page-granular program commands; data crosses the
        // link in per-block batches.
        let mut unit_commands = 0u64;
        let mut link_end = SimTime::ZERO;
        let mut program_end = SimTime::ZERO;
        for block in &report.access.blocks {
            unit_commands += block.units.len() as u64;
            if block.units.is_empty() {
                continue;
            }
            link_end = sys
                .life
                .link
                .try_transfer(block.units.len() as u64 * page, SimTime::ZERO)?;
            let backend = sys.store.backend_mut();
            program_end =
                program_end.max(backend.try_schedule_unit_programs(&block.units, link_end)?);
        }
        let submit = sys.cpu.submit_time(unit_commands);
        let link_dur = link_end.saturating_since(SimTime::ZERO);
        let io = link_dur.max(submit);
        // The kernel I/O stack's latency (§7.3 measures 41 µs worst-case).
        let stl = sys.place.path.request_latency(sys.tree_levels(space));
        let program_tail = program_end.saturating_since(link_end.max(SimTime::ZERO));
        let latency = stl + decompose + io + program_tail;

        // Chronological waterfall: STL traversal, host decomposition, the io
        // region (submission vs. link), and the program tail past the last
        // link flush — an exact partition of `latency`.
        let io_stage = if submit >= link_dur {
            TraceStage::Queue
        } else {
            TraceStage::Link
        };
        let stages = partition([
            (TraceStage::Other, stl),
            (TraceStage::Restructure, decompose),
            (io_stage, io),
            (TraceStage::Flash, program_tail),
        ]);
        let outcome = WriteOutcome {
            latency,
            commands: unit_commands,
            bytes: report.access.bytes,
        };
        Ok((outcome, stages))
    }

    fn translate_read(
        sys: &mut SoftwareNds,
        space: SpaceId,
        req: &mut Request<'_, &mut Vec<u8>>,
    ) -> Result<(), SystemError> {
        let report = &mut sys.place.read_report;
        sys.store.read_reusing(
            space,
            req.view,
            req.coord,
            req.sub_dims,
            req.payload,
            report,
        )?;
        Ok(())
    }

    fn read_cost(
        sys: &mut SoftwareNds,
        space: SpaceId,
        _req: &mut Request<'_, &mut Vec<u8>>,
    ) -> Result<(ReadMetrics, Stages), SystemError> {
        let report = &sys.place.read_report;
        let page = sys.store.backend().spec().unit_bytes as u64;

        // Vectored physical-read commands (LightNVM supports scatter lists
        // of up to 64 pages per command): each command's units stream off
        // the device in parallel and its requested sectors cross the link
        // as one batched transfer.
        const VECTOR_PAGES: usize = 64;
        let mut first_block = SimDuration::ZERO;
        let mut first_ready = SimTime::ZERO;
        let mut flash_end = SimTime::ZERO;
        let mut io_end = SimTime::ZERO;
        let mut total_units = 0u64;
        let mut pending_bytes = 0u64;
        let mut pending_units = 0usize;
        let mut pending_ready = SimTime::ZERO;
        for block in &report.blocks {
            if block.units.is_empty() {
                continue;
            }
            total_units += block.units.len() as u64;
            let backend = sys.store.backend_mut();
            let dev_end = backend.try_schedule_unit_reads(&block.units, SimTime::ZERO)?;
            flash_end = flash_end.max(dev_end);
            pending_ready = pending_ready.max(dev_end);
            pending_bytes += block.sector_bytes.min(block.units.len() as u64 * page);
            pending_units += block.units.len();
            if pending_units >= VECTOR_PAGES {
                let end = sys.life.link.try_transfer(pending_bytes, pending_ready)?;
                if first_block.is_zero() {
                    first_block = end.saturating_since(SimTime::ZERO);
                    first_ready = pending_ready;
                }
                io_end = io_end.max(end);
                pending_bytes = 0;
                pending_units = 0;
                pending_ready = SimTime::ZERO;
            }
        }
        if pending_units > 0 {
            let end = sys.life.link.try_transfer(pending_bytes, pending_ready)?;
            if first_block.is_zero() {
                first_block = end.saturating_since(SimTime::ZERO);
                first_ready = pending_ready;
            }
            io_end = io_end.max(end);
        }
        let commands = (total_units as usize).div_ceil(VECTOR_PAGES) as u64;
        let submit = sys.cpu.submit_time(commands);

        // Host assembly overlaps with block arrivals: the read completes
        // when both the last block has landed and the (pipelined) assembly
        // has drained.
        let assembly = sys.cpu.scatter_copy_time(report.segments, report.bytes);
        let io_dur = io_end.saturating_since(SimTime::ZERO);
        let stl = sys.place.path.request_latency(sys.tree_levels(space));
        let region = io_dur.max(submit).max(assembly + first_block);
        let io_latency = stl + region;

        // Waterfall back from whichever term won the overlapped region:
        // submission (queue), the last link flush (flash up to the last
        // device completion, link for the rest), or pipelined assembly
        // draining behind the first block.
        let other = (TraceStage::Other, stl);
        let stages = if submit >= io_dur && submit >= assembly + first_block {
            partition([other, (TraceStage::Queue, region)])
        } else if io_dur >= assembly + first_block {
            let flash = flash_end.saturating_since(SimTime::ZERO).min(region);
            partition([
                other,
                (TraceStage::Flash, flash),
                (TraceStage::Link, region - flash),
            ])
        } else {
            let flash = first_ready.saturating_since(SimTime::ZERO).min(first_block);
            partition([
                other,
                (TraceStage::Flash, flash),
                (TraceStage::Link, first_block - flash),
                (TraceStage::Restructure, assembly),
            ])
        };
        // Steady-state pacing: aggregate device, wire, submission, and host
        // assembly work, whichever drains slowest.
        let io_occupancy = sys
            .store
            .backend()
            .device()
            .throughput_occupancy()
            .max(sys.life.link.busy_time())
            .max(submit)
            .max(assembly);
        let metrics = ReadMetrics {
            io_latency,
            io_occupancy,
            restructure: SimDuration::ZERO,
            commands,
            bytes: report.bytes,
        };
        Ok((metrics, stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{DatasetId, StorageFrontEnd};
    use nds_core::{ElementType, Shape};

    fn system() -> SoftwareNds {
        SoftwareNds::new(SystemConfig::small_test())
    }

    #[test]
    fn round_trip_and_no_restructure_stage() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[1, 1], &[32, 32]).unwrap();
        assert_eq!(r.bytes, 32 * 32 * 4);
        assert_eq!(
            r.restructure,
            SimDuration::ZERO,
            "NDS assembles inside the read"
        );
        // Verify the tile content.
        for (i, &b) in r.data.iter().enumerate() {
            let x = (i / 4) % 32 + 32;
            let y = (i / 4) / 32 + 32;
            let src = (x + 64 * y) * 4 + i % 4;
            assert_eq!(b, (src % 251) as u8);
        }
    }

    #[test]
    fn tile_reads_use_few_commands() {
        let mut sys = system();
        let shape = Shape::new([128, 128]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![5u8; 128 * 128 * 4];
        sys.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let r = sys.read(id, &shape, &[1, 1], &[32, 32]).unwrap();
        // One vectored command per covered building block — far fewer than
        // the baseline's one-per-row.
        assert!(r.commands <= 4, "got {} commands", r.commands);
    }

    #[test]
    fn row_and_column_cost_comparably() {
        let mut sys = system();
        let shape = Shape::new([128, 128]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 128 * 128 * 4];
        sys.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let rows = sys.read(id, &shape, &[0, 0], &[128, 32]).unwrap();
        let cols = sys.read(id, &shape, &[0, 0], &[32, 128]).unwrap();
        let ratio = cols.latency().as_nanos() as f64 / rows.latency().as_nanos() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "building blocks should make rows and columns comparable, ratio {ratio}"
        );
    }

    #[test]
    fn per_page_write_commands() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        // LightNVM physical writes are page-granular.
        let pages = (64 * 64 * 4) / sys.store.backend().spec().unit_bytes as u64;
        assert!(w.commands >= pages);
    }

    #[test]
    fn unknown_dataset_rejected() {
        let mut sys = system();
        assert!(matches!(
            sys.read(DatasetId(42), &Shape::new([4]), &[0], &[4]),
            Err(SystemError::UnknownDataset(_))
        ));
    }
}

//! The baseline conventional-SSD system (Fig. 7a): [`FlashSystem`] at the
//! [`Conventional`] placement.
//!
//! Datasets live in a linear LBA space in their producer's canonical
//! (row-major, fastest-dimension-first) serialization; the FTL stripes
//! consecutive pages across channels. A multi-dimensional read therefore
//! becomes: enumerate the contiguous serialized extents the partition
//! touches, issue one I/O command per maximal page run, and — when the data
//! arrives scattered across many extents — spend host CPU marshalling it
//! into the dense object the kernel wants. Those three steps are exactly
//! the paper's \[P1\]/\[P2\]/\[P3\] cost structure for Fig. 1's blocked matrix
//! multiplication.

use std::collections::btree_map::{BTreeMap, Entry};

use nds_core::{Assembler, NdsError, Region};
use nds_flash::FlashError;
use nds_host::CpuModel;
use nds_interconnect::Link;
use nds_sim::{SimDuration, SimTime, TraceStage};

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_system::sealed::{Placed, Request};
use crate::flash_system::FlashSystem;
use crate::frontend::{ReadMetrics, WriteOutcome};
use crate::lifecycle::{partition, LbaRun, Lbas, Stages};

/// One contiguous byte extent of a request within a dataset's serialization.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) buffer_off: u64,
    pub(crate) dataset_off: u64,
    pub(crate) len: u64,
}

/// A conventional SSD behind an NVMe link — the paper's baseline.
///
/// See the crate docs for an end-to-end example; all four architectures
/// share the [`StorageFrontEnd`](crate::StorageFrontEnd) interface.
pub type BaselineSystem = FlashSystem<Conventional>;

/// The conventional placement of translation: the device's FTL behind a
/// linear LBA space, with the host marshalling objects to and from their
/// serialization.
#[derive(Debug)]
pub struct Conventional;

/// The command machinery of the placements over the linear LBA space: the
/// extents in `self.extents`, bytes of the LBA run at `base_lba`, become
/// I/O commands, one per maximal page run.
impl Lbas {
    /// Enumerates the extents of a request in the baseline's row-major
    /// serialization into `self.extents`, merging those contiguous in the
    /// serialization (a well-written application issues one request for
    /// them). Extents come out in ascending dataset order (the region
    /// iterator is row-major). Returns their total bytes.
    fn extents_into<B>(&mut self, run: LbaRun, req: &Request<'_, B>) -> Result<u64, SystemError> {
        if req.view.volume() != run.volume {
            return Err(NdsError::ViewVolumeMismatch {
                space: run.volume,
                view: req.view.volume(),
            }
            .into());
        }
        let (elem, extents) = (run.element.size() as u64, &mut self.extents);
        extents.clear();
        Region::for_each_request_run(req.view, req.coord, req.sub_dims, |buf_off, linear, len| {
            let e = Extent {
                buffer_off: buf_off * elem,
                dataset_off: linear * elem,
                len: len * elem,
            };
            if let Some(last) = extents.last_mut() {
                if last.dataset_off + last.len == e.dataset_off
                    && last.buffer_off + last.len == e.buffer_off
                {
                    last.len += e.len;
                    return;
                }
            }
            extents.push(e);
        })?;
        Ok(extents.iter().map(|e| e.len).sum())
    }

    /// Groups extents into I/O commands: maximal runs of adjacent pages of
    /// `ps` bytes. Leaves `(first_page, page_count, wire_bytes)` triples in
    /// ascending order in `commands`, where `wire_bytes` is the requested
    /// volume rounded up to 512-byte NVMe sectors — the device senses whole
    /// pages internally but transfers only the requested sectors across the
    /// link.
    fn commands_into(commands: &mut Vec<(u64, u64, u64)>, ps: u64, extents: &[Extent]) {
        const SECTOR: u64 = 512;
        commands.clear();
        let mut last_sector = u64::MAX;
        for e in extents {
            let first = e.dataset_off / ps;
            let last = (e.dataset_off + e.len - 1) / ps;
            let first_sector = e.dataset_off / SECTOR;
            let last_sector_of_e = (e.dataset_off + e.len - 1) / SECTOR;
            let start_sector = if first_sector == last_sector {
                first_sector + 1
            } else {
                first_sector
            };
            let sector_bytes = if last_sector_of_e >= start_sector {
                (last_sector_of_e - start_sector + 1) * SECTOR
            } else {
                0
            };
            last_sector = last_sector_of_e;
            if let Some((cmd_first, cmd_count, cmd_bytes)) = commands.last_mut() {
                let cmd_last = *cmd_first + *cmd_count - 1;
                if first <= cmd_last + 1 {
                    if last > cmd_last {
                        *cmd_count = last - *cmd_first + 1;
                    }
                    *cmd_bytes += sector_bytes;
                    continue;
                }
            }
            commands.push((first, last - first + 1, sector_bytes.max(SECTOR)));
        }
    }

    /// Hands the bytes of one extent of the run at `base_lba` to the
    /// assembler, page by page out of the page store (zeros where pages were
    /// never written). Extents tile the request in ascending buffer order.
    ///
    /// # Errors
    ///
    /// [`FlashError::Inconsistent`] if a mapped page has no image or one
    /// shorter than the page size.
    pub(crate) fn read_extent<'s>(
        &'s self,
        base_lba: u64,
        e: Extent,
        assembler: &mut Assembler<'_, 's>,
    ) -> Result<(), SystemError> {
        let ftl = &self.ftl;
        let ps = ftl.page_size() as u64;
        let mut off = e.dataset_off;
        let mut remaining = e.len;
        while remaining > 0 {
            let lba = base_lba + off / ps;
            let in_page = (off % ps) as usize;
            let take = remaining.min(ps - off % ps) as usize;
            match ftl.physical_of(lba) {
                Some(addr) => {
                    let image = ftl.device().peek(addr);
                    let bytes = image.and_then(|page| page.get(in_page..in_page + take));
                    assembler.stored(bytes.ok_or(FlashError::Inconsistent {
                        addr,
                        what: "mapped page has no full page image",
                    })?);
                }
                None => assembler.zeros(take),
            }
            off += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Writes the extents' bytes of `payload`: builds their page images
    /// (read-modify-write at the edges), programs them through the FTL and
    /// carries each command's whole pages over `link`. The write is `bytes`
    /// long and spent `marshal` serializing the object first.
    pub(crate) fn program(
        &mut self,
        link: &mut Link,
        cpu: &CpuModel,
        base_lba: u64,
        payload: &[u8],
        marshal: SimDuration,
        bytes: u64,
    ) -> Result<(WriteOutcome, Stages), SystemError> {
        let ftl = &mut self.ftl;
        let ps = ftl.page_size() as u64;
        Self::commands_into(&mut self.commands, ps, &self.extents);
        let mut pages: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for e in &self.extents {
            let mut off = e.dataset_off;
            let mut src = e.buffer_off;
            let mut remaining = e.len;
            while remaining > 0 {
                let lba = base_lba + off / ps;
                let in_page = off % ps;
                let take = remaining.min(ps - in_page);
                let payload = payload.get(src as usize..(src + take) as usize);
                match (pages.entry(lba), payload.filter(|_| take == ps)) {
                    // An extent that covers the whole page is its image: the
                    // old page (every page of a populate) is not copied.
                    (Entry::Vacant(slot), Some(page)) => {
                        slot.insert(page.to_vec());
                    }
                    (slot, _) => {
                        let image = slot.or_insert_with(|| {
                            ftl.peek(lba)
                                .map(<[u8]>::to_vec)
                                .unwrap_or_else(|| vec![0; ps as usize])
                        });
                        let dst = image.get_mut(in_page as usize..(in_page + take) as usize);
                        if let (Some(dst), Some(payload)) = (dst, payload) {
                            dst.copy_from_slice(payload);
                        }
                    }
                }
                off += take;
                src += take;
                remaining -= take;
            }
        }
        let mut program_end = SimTime::ZERO;
        // BTreeMap iteration is already in ascending LBA order.
        for (lba, image) in pages {
            let end = ftl.write(lba, image, SimTime::ZERO)?;
            program_end = program_end.max(end);
        }

        // Link and submission costs per command.
        let mut link_end = SimTime::ZERO;
        for &(_first, count, _wire) in &self.commands {
            // Writes carry whole pages (the controller cannot
            // read-modify-write sectors it never received).
            link_end = link.try_transfer(count * ps, SimTime::ZERO)?;
        }
        let submit = cpu.submit_time(self.commands.len() as u64);
        let link_dur = link_end.saturating_since(SimTime::ZERO);
        let io = link_dur.max(submit);
        let program = program_end.saturating_since(SimTime::ZERO);
        let latency = marshal + io + program;

        // Chronological waterfall: marshal, then the io region (won by
        // whichever of submission and link transfer dominated), then the
        // program tail. The three sum exactly to `latency`.
        let io_stage = if submit >= link_dur {
            TraceStage::Queue
        } else {
            TraceStage::Link
        };
        let stages = partition([
            (TraceStage::Restructure, marshal),
            (io_stage, io),
            (TraceStage::Flash, program),
        ]);
        let outcome = WriteOutcome {
            latency,
            commands: self.commands.len() as u64,
            bytes,
        };
        Ok((outcome, stages))
    }

    /// Reads the extents' pages on the device, one batch per command, and
    /// carries each command's requested sectors over `link`. The read is
    /// `bytes` long and spends `restructure` rebuilding the object after.
    pub(crate) fn fetch(
        &mut self,
        link: &mut Link,
        cpu: &CpuModel,
        base_lba: u64,
        restructure: SimDuration,
        bytes: u64,
    ) -> Result<(ReadMetrics, Stages), SystemError> {
        let ftl = &mut self.ftl;
        let ps = ftl.page_size() as u64;
        Self::commands_into(&mut self.commands, ps, &self.extents);
        // DMA streams pages to the host as they come off the channels, so
        // the link transfer overlaps the device batch: it can start once the
        // first page has been sensed and transferred internally.
        let timing = *ftl.device().timing();
        let first_page = SimTime::ZERO + timing.read_latency + timing.transfer_time(ps as usize);
        let mut io_end = SimTime::ZERO;
        let mut flash_end = SimTime::ZERO;
        for &(first, count, wire_bytes) in &self.commands {
            // Device: all the command's mapped pages, as one batch.
            let addrs = &mut self.addrs;
            addrs.clear();
            addrs.extend((first..first + count).filter_map(|lba| ftl.physical_of(base_lba + lba)));
            let dev_end = if addrs.is_empty() {
                SimTime::ZERO
            } else {
                ftl.device_mut().fault_read_batch(addrs, SimTime::ZERO)?
            };
            let link_end =
                link.try_transfer(wire_bytes.min(count * ps), first_page.min(dev_end))?;
            flash_end = flash_end.max(dev_end);
            io_end = io_end.max(dev_end).max(link_end);
        }
        // Preventive migration of any blocks the batch pushed past the
        // read-disturb limit, before the host sees the data.
        let disturbed = ftl.service_disturbed(io_end)?;
        flash_end = flash_end.max(disturbed);
        io_end = io_end.max(disturbed);
        let submit = cpu.submit_time(self.commands.len() as u64);
        let io_dur = io_end.saturating_since(SimTime::ZERO);
        let io_latency = io_dur.max(submit);
        // Steady-state pacing under a deep queue: device lanes, wire, and
        // submitting CPU each drain their aggregate work in parallel.
        let io_occupancy = ftl
            .device()
            .throughput_occupancy()
            .max(link.busy_time())
            .max(submit);

        // Waterfall back from the end of the io region: when command
        // submission dominated, the whole region is queue time; otherwise
        // flash service owns it up to the last page's completion and the
        // link the remainder (it finished last).
        let stages = if submit >= io_dur {
            partition([
                (TraceStage::Queue, io_latency),
                (TraceStage::Restructure, restructure),
            ])
        } else {
            let flash = flash_end.saturating_since(SimTime::ZERO).min(io_latency);
            partition([
                (TraceStage::Flash, flash),
                (TraceStage::Link, io_latency - flash),
                (TraceStage::Restructure, restructure),
            ])
        };
        let metrics = ReadMetrics {
            io_latency,
            io_occupancy,
            restructure,
            commands: self.commands.len() as u64,
            bytes,
        };
        Ok((metrics, stages))
    }
}

impl Placed for Conventional {
    const NAME: &'static str = "baseline";
    const EXTENDED_COMMANDS: bool = false;
    type Store = Lbas;

    fn new(_config: &SystemConfig) -> Self {
        Conventional
    }

    fn write(
        sys: &mut BaselineSystem,
        run: LbaRun,
        req: Request<'_, &[u8]>,
    ) -> Result<(WriteOutcome, Stages), SystemError> {
        let lbas = &mut sys.store;
        let total_bytes = lbas.extents_into(run, &req)?;
        if req.payload.len() as u64 != total_bytes {
            return Err(NdsError::BadPayloadSize {
                got: req.payload.len(),
                expected: total_bytes as usize,
            }
            .into());
        }
        // [P1] serialization: scattering the object into the linear layout.
        let marshal = match lbas.extents.len() as u64 {
            0 | 1 => SimDuration::ZERO,
            extents => sys.cpu.scatter_copy_time(extents, total_bytes),
        };
        let (link, base) = (&mut sys.life.link, run.base_lba);
        lbas.program(link, &sys.cpu, base, req.payload, marshal, total_bytes)
    }

    fn read(
        sys: &mut BaselineSystem,
        run: LbaRun,
        req: Request<'_, &mut Vec<u8>>,
    ) -> Result<(ReadMetrics, Stages), SystemError> {
        let lbas = &mut sys.store;
        let total_bytes = lbas.extents_into(run, &req)?;
        // [P1] deserialization: rebuilding the dense object from scattered
        // extents (free when the request is one contiguous extent — DMA
        // lands it directly).
        let restructure = match lbas.extents.len() as u64 {
            0 | 1 => SimDuration::ZERO,
            extents => sys.cpu.scatter_copy_time(extents, total_bytes),
        };
        let link = &mut sys.life.link;
        let read = lbas.fetch(link, &sys.cpu, run.base_lba, restructure, total_bytes)?;
        let mut assembler = Assembler::new(req.payload, total_bytes as usize);
        for e in &lbas.extents {
            lbas.read_extent(run.base_lba, *e, &mut assembler)?;
        }
        assembler.finish()?;
        Ok(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{DatasetId, StorageFrontEnd};
    use nds_core::{ElementType, Shape};

    fn system() -> BaselineSystem {
        BaselineSystem::new(SystemConfig::small_test())
    }

    #[test]
    fn round_trip_full_matrix() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        assert_eq!(w.bytes, data.len() as u64);
        let r = sys.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        assert_eq!(r.data, data);
        // A full canonical read is one contiguous extent: one command, no
        // restructuring.
        assert_eq!(r.commands, 1);
        assert_eq!(r.restructure, SimDuration::ZERO);
    }

    #[test]
    fn submatrix_needs_many_commands_and_marshal() {
        let mut sys = system();
        // Rows span two pages (256 × 4 B = 1 KiB, 512 B pages), so tile-row
        // segments land on non-adjacent pages as at paper scale.
        let shape = Shape::new([256, 256]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![3u8; 256 * 256 * 4];
        sys.write(id, &shape, &[0, 0], &[256, 256], &data).unwrap();
        let r = sys.read(id, &shape, &[1, 1], &[64, 64]).unwrap();
        assert_eq!(r.bytes, 64 * 64 * 4);
        assert!(r.commands > 1, "tile rows are not LBA-adjacent");
        assert!(r.restructure > SimDuration::ZERO, "tile needs marshalling");
        assert!(r.data.iter().all(|&b| b == 3));
    }

    #[test]
    fn row_panel_is_one_command() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        // Rows 16..32: contiguous in the serialization.
        let r = sys.read(id, &shape, &[0, 1], &[64, 16]).unwrap();
        assert_eq!(r.commands, 1);
        assert_eq!(r.restructure, SimDuration::ZERO);
    }

    #[test]
    fn column_panel_is_slow_and_scattered() {
        let mut sys = system();
        let shape = Shape::new([256, 256]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![7u8; 256 * 256 * 4];
        sys.write(id, &shape, &[0, 0], &[256, 256], &data).unwrap();
        let row_panel = sys.read(id, &shape, &[0, 0], &[256, 16]).unwrap();
        let col_panel = sys.read(id, &shape, &[0, 0], &[16, 256]).unwrap();
        assert_eq!(row_panel.bytes, col_panel.bytes);
        assert!(
            col_panel.latency() > row_panel.latency() * 2,
            "columns {} should cost far more than rows {}",
            col_panel.latency(),
            row_panel.latency()
        );
        assert!(col_panel.commands > row_panel.commands);
    }

    #[test]
    fn partial_overwrite_rmw() {
        let mut sys = system();
        let shape = Shape::new([32, 32]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let base = vec![1u8; 32 * 32 * 4];
        sys.write(id, &shape, &[0, 0], &[32, 32], &base).unwrap();
        let patch = vec![9u8; 8 * 8 * 4];
        sys.write(id, &shape, &[1, 1], &[8, 8], &patch).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[32, 32]).unwrap();
        for y in 0..32usize {
            for x in 0..32usize {
                let i = (x + 32 * y) * 4;
                let expect = if (8..16).contains(&x) && (8..16).contains(&y) {
                    9
                } else {
                    1
                };
                assert_eq!(r.data[i], expect, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn unwritten_dataset_reads_zero() {
        let mut sys = system();
        let shape = Shape::new([16, 16]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[16, 16]).unwrap();
        assert!(r.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn a_mapped_page_without_its_image_is_a_typed_error_not_zeros() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![5u8; 64 * 64 * 4];
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        // Behind the FTL's back: the page its map points at stops being valid.
        let addr = sys.store.ftl.physical_of(3).unwrap();
        sys.store.ftl.device_mut().invalidate(addr).unwrap();
        let mut buf = vec![0xFF; 16];
        let err = sys
            .read_into(id, &shape, &[0, 0], &[64, 64], &mut buf)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SystemError::Flash(FlashError::Inconsistent { addr: at, .. }) if at == addr
            ),
            "got {err}"
        );
        // The rest of the dataset still reads.
        let r = sys.read(id, &shape, &[0, 1], &[64, 32]).unwrap();
        assert!(r.data.iter().all(|&b| b == 5));
    }

    #[test]
    fn capacity_enforced() {
        let mut sys = system();
        // Demand more than the tiny test device holds.
        let err = sys
            .create_dataset(Shape::new([1 << 12, 1 << 12]), ElementType::F64)
            .unwrap_err();
        assert!(matches!(err, SystemError::CapacityExceeded { .. }));
    }

    #[test]
    fn reshaped_view_reads_linear_order() {
        let mut sys = system();
        let producer = Shape::new([256]);
        let id = sys
            .create_dataset(producer.clone(), ElementType::F32)
            .unwrap();
        let data: Vec<u8> = (0..256u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        sys.write(id, &producer, &[0], &[256], &data).unwrap();
        let view = Shape::new([16, 16]);
        let r = sys.read(id, &view, &[0, 1], &[16, 1]).unwrap();
        // Row y=1 of the 16×16 view = elements 16..32.
        let values: Vec<f32> = r
            .data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(values, (16..32).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_dataset_rejected() {
        let mut sys = system();
        let err = sys
            .read(DatasetId(99), &Shape::new([4]), &[0], &[4])
            .unwrap_err();
        assert!(matches!(err, SystemError::UnknownDataset(_)));
    }
}

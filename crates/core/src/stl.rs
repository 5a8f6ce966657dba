//! The STL front-end: space management plus multi-dimensional read/write
//! with object assembly and decomposition (§4.4).
//!
//! Reads translate the request into a building-block cover, look up the
//! allocated units of each covered block, and *assemble* the application
//! object by placing the plan's spans, in ascending buffer order, in a
//! dense buffer laid out in the consumer's view — every byte written once,
//! zeros where nothing is stored. Writes run the same translation in reverse,
//! *decomposing* the object into per-unit images; a write that covers only
//! part of a unit performs a read-modify-write (the paper instead stages
//! partial partitions in STL memory until a full unit accumulates — the
//! functional result is identical, and [`WriteReport::rmw_units`] lets the
//! timing layer charge for whichever policy it models).
//!
//! Every operation returns a report of exactly which physical units it
//! touched and how many copy segments it performed, so the system
//! architectures (`nds-system`) can charge channels, banks, the
//! interconnect, and the assembling CPU without re-deriving the translation.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::alloc::{AllocationPolicy, BlockAllocator};
use crate::assembly::Assembler;
use crate::backend::{NvmBackend, UnitLocation};
use crate::block::{BlockDimensionality, BlockShape};
use crate::element::ElementType;
use crate::error::NdsError;
use crate::plan_cache::PlanCache;
use crate::shape::{Region, Shape};
use crate::space::{Space, SpaceId};
use crate::translator::{self, BlockCover, Segment, Translation};
use crate::views::{ViewId, ViewRegistry};

/// Configuration of an STL instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StlConfig {
    /// Unit-placement policy (default: the paper's §4.2 rules; the naive
    /// alternative exists for the \[P3\] ablation).
    pub allocation_policy: AllocationPolicy,
    /// Building-block dimensionality policy (default: the paper's Auto).
    pub block_dimensionality: BlockDimensionality,
    /// Power-of-two multiple of the minimum building-block size (§4.1 allows
    /// any multiple; the paper's prototype uses 4× for its 256×256 f64
    /// blocks).
    pub block_multiplier: u64,
    /// Seed for the randomized first-unit placement of §4.2.
    pub seed: u64,
    /// Maximum translation plans memoized by the [`PlanCache`]; 0 disables
    /// caching. The cache is a wall-clock optimization only: a cached plan
    /// equals a fresh one, so reports and modeled time are bit-identical
    /// with it on or off.
    pub plan_cache_capacity: usize,
}

impl Default for StlConfig {
    fn default() -> Self {
        StlConfig {
            allocation_policy: AllocationPolicy::Paper,
            block_dimensionality: BlockDimensionality::Auto,
            block_multiplier: 1,
            seed: 0x4E44_5321, // "NDS!"
            plan_cache_capacity: 128,
        }
    }
}

/// The units of one building block touched by a request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockAccess {
    /// Building-block coordinate.
    pub coord: Vec<u64>,
    /// Units read or written, in sequential block order.
    pub units: Vec<UnitLocation>,
    /// Requested bytes of this block rounded up to 512-byte NVMe sectors —
    /// what actually needs to cross the interconnect (devices sense whole
    /// pages internally but transfer at sector granularity).
    pub sector_bytes: u64,
}

/// What one read or write physically did — the timing layer's input.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessReport {
    /// Per-block unit accesses.
    pub blocks: Vec<BlockAccess>,
    /// Contiguous copy segments performed during assembly/decomposition.
    pub segments: u64,
    /// Application-payload bytes moved.
    pub bytes: u64,
    /// Smallest copy segment in bytes (0 when no copying happened).
    pub min_segment_bytes: u64,
}

impl AccessReport {
    /// Total physical units touched.
    pub fn unit_count(&self) -> usize {
        self.blocks.iter().map(|b| b.units.len()).sum()
    }

    /// Entry `index` of `blocks` reset for `cover` of the block at `coord`,
    /// reusing the entry's (and its vectors') allocations when a previous
    /// request left one there. [`finish`](Self::finish) drops whatever lies
    /// past the last one begun.
    fn begin_block(
        &mut self,
        index: usize,
        coord: &[u64],
        cover: &BlockCover,
    ) -> Result<&mut BlockAccess, NdsError> {
        if index == self.blocks.len() {
            self.blocks.push(BlockAccess::default());
        }
        let block = self
            .blocks
            .get_mut(index)
            .ok_or(NdsError::Inconsistent("report blocks begun out of order"))?;
        block.coord.clear();
        block.coord.extend_from_slice(coord);
        block.units.clear();
        block.sector_bytes = sector_rounded(&cover.segments);
        Ok(block)
    }

    /// Completes a report of `blocks` block entries for `translation`.
    fn finish(&mut self, blocks: usize, translation: &Translation) {
        self.blocks.truncate(blocks);
        self.segments = translation.segment_count();
        self.bytes = translation.total_bytes;
        self.min_segment_bytes = translation.min_segment_bytes();
    }
}

/// Report of a write.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteReport {
    /// The access performed.
    pub access: AccessReport,
    /// Units that required a read-modify-write because the request covered
    /// them only partially.
    pub rmw_units: u64,
}

/// The space translation layer over a backend device.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Stl<B: NvmBackend> {
    backend: B,
    allocator: BlockAllocator,
    config: StlConfig,
    spaces: BTreeMap<SpaceId, Space>,
    views: ViewRegistry,
    next_id: u64,
    plan_cache: PlanCache,
    scratch: Scratch<B::UnitRef>,
}

/// A write plan's span that its block, unit image or payload does not cover.
const STRAY_SPAN: NdsError = NdsError::Inconsistent("plan span outside its unit or payload");

/// Reusable request-scoped buffers, so the steady-state hot loop performs no
/// per-request heap allocation beyond what the backend itself needs.
#[derive(Debug)]
struct Scratch<R> {
    /// The request's canonical origin — the plan-cache key — and how many
    /// building blocks it lies from there ([`translator::canonicalize`]).
    origin: Vec<u64>,
    base: Vec<u64>,
    /// The coordinate of the cover being consumed: the cached plan's plus
    /// `base`.
    coord: Vec<u64>,
    /// Read path: the stored units of the request, resolved once each — row
    /// `i` holds the units of cover `i`, by unit index; `None` reads as zeros.
    resolved: Vec<Option<(UnitLocation, R)>>,
    /// Write path: `(unit index, unit offset, buffer offset, length)` byte
    /// spans of one cover, each unit's spans adjacent.
    spans: Vec<(usize, usize, usize, usize)>,
    /// Write path: the staging image of the unit being composed.
    image: Vec<u8>,
}

/// Splits `cover`'s segments at unit boundaries into `spans`. They come out
/// grouped by ascending unit index (within a unit, ascending buffer offset)
/// because the segments ascend in the block image as they do in the buffer.
fn split_into_unit_spans(
    spans: &mut Vec<(usize, usize, usize, usize)>,
    cover: &BlockCover,
    unit_bytes: u32,
) {
    spans.clear();
    for seg in &cover.segments {
        let mut buf_off = seg.buffer_offset as usize;
        for span in translator::unit_spans(0, seg.block_offset, seg.len, unit_bytes) {
            let len = span.len as usize;
            spans.push((span.unit as usize, span.unit_offset as usize, buf_off, len));
            buf_off += len;
        }
    }
}

/// `at` = the cached cover coordinate `coord` moved `base` blocks: where the
/// request's cover really lies.
fn rebase(at: &mut Vec<u64>, coord: &[u64], base: &[u64]) {
    at.clear();
    at.extend(coord.iter().zip(base).map(|(c, b)| c + b));
}

impl<B: NvmBackend> Stl<B> {
    /// Creates an STL over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `config.block_multiplier` is not a power of two — the
    /// contract of [`BlockShape::for_space`], checked here so that
    /// [`create_space`](Self::create_space) cannot trip it.
    pub fn new(backend: B, config: StlConfig) -> Self {
        assert!(
            config.block_multiplier.is_power_of_two(),
            "block multiplier must be a power of two, got {}",
            config.block_multiplier
        );
        Stl {
            allocator: BlockAllocator::with_policy(config.seed, config.allocation_policy),
            backend,
            config,
            spaces: BTreeMap::new(),
            views: ViewRegistry::new(),
            next_id: 1,
            plan_cache: PlanCache::new(config.plan_cache_capacity),
            scratch: Scratch {
                origin: Vec::new(),
                base: Vec::new(),
                coord: Vec::new(),
                resolved: Vec::new(),
                spans: Vec::new(),
                image: Vec::new(),
            },
        }
    }

    /// The backend device.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (e.g. for timing resets between measurements).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The STL configuration.
    pub fn config(&self) -> &StlConfig {
        &self.config
    }

    /// Creates a new multi-dimensional space; the STL derives the
    /// building-block geometry from the device spec (§4.1) and sets up the
    /// locator tree.
    ///
    /// # Errors
    ///
    /// [`NdsError::EmptyShape`] if `shape` is degenerate.
    pub fn create_space(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<SpaceId, NdsError> {
        let bb = BlockShape::for_space(
            &shape,
            element,
            self.backend.spec(),
            self.config.block_dimensionality,
            self.config.block_multiplier,
        );
        let id = SpaceId(self.next_id);
        self.next_id += 1;
        let class = self.plan_cache.class_of(&shape, &bb);
        self.spaces
            .insert(id, Space::new(id, shape, element, bb, class));
        Ok(id)
    }

    /// Looks up a space.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] if `id` is not registered.
    pub fn space(&self, id: SpaceId) -> Result<&Space, NdsError> {
        self.spaces.get(&id).ok_or(NdsError::UnknownSpace(id))
    }

    /// Registered spaces, in id order.
    pub fn spaces(&self) -> impl Iterator<Item = &Space> {
        self.spaces.values()
    }

    /// Permanently deletes a space: every allocated unit is released, the
    /// translation structures are dropped, and all open views of the space
    /// are closed (the paper's `delete_space`).
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] if `id` is not registered.
    pub fn delete_space(&mut self, id: SpaceId) -> Result<(), NdsError> {
        let mut space = self.spaces.remove(&id).ok_or(NdsError::UnknownSpace(id))?;
        for unit in space.tree_mut().drain_units() {
            self.backend.release_unit(unit);
        }
        self.views.close_all_of(id);
        Ok(())
    }

    /// Opens an application view of `space` (the paper's `open_space` on an
    /// existing identifier): any dimensionality whose volume matches the
    /// space's. Returns the dynamic view ID used to address subsequent
    /// requests via [`read_view`](Self::read_view)/
    /// [`write_view`](Self::write_view).
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] or [`NdsError::ViewVolumeMismatch`].
    pub fn open_view(&mut self, space: SpaceId, shape: Shape) -> Result<ViewId, NdsError> {
        let volume = self.space(space)?.shape().volume();
        self.views.open(space, shape, volume)
    }

    /// Closes a view, reclaiming its dynamic ID (the paper's `close_space`).
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownView`] if `view` is not open.
    pub fn close_view(&mut self, view: ViewId) -> Result<(), NdsError> {
        self.views.close(view)
    }

    /// Reads a partition addressed through an open view.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownView`] plus the usual translation errors.
    pub fn read_view(
        &mut self,
        view: ViewId,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<(Vec<u8>, AccessReport), NdsError> {
        let space = self.views.space_of(view)?;
        let shape = self.views.shape(view)?.clone();
        self.read(space, &shape, coord, sub_dims)
    }

    /// Writes a partition addressed through an open view.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownView`] plus the usual translation/allocation
    /// errors.
    pub fn write_view(
        &mut self,
        view: ViewId,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteReport, NdsError> {
        let space = self.views.space_of(view)?;
        let shape = self.views.shape(view)?.clone();
        self.write(space, &shape, coord, sub_dims, data)
    }

    /// Number of views currently open across all spaces.
    pub fn open_views(&self) -> usize {
        self.views.open_count()
    }

    /// Translates a request without performing it (used by planners and the
    /// §7.3 overhead experiments).
    ///
    /// # Errors
    ///
    /// Translation errors per [`translator::translate`], plus
    /// [`NdsError::UnknownSpace`].
    pub fn plan(
        &self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<Translation, NdsError> {
        let space = self.space(id)?;
        translator::translate(space.shape(), space.block_shape(), view, coord, sub_dims)
    }

    /// Like [`plan`](Self::plan), but through the [`PlanCache`], as
    /// `read`/`write` translate: the cached plan of the request's
    /// *canonical* form — shared by every request a whole number of building
    /// blocks away in any space of the same geometry — with each cover moved
    /// to where this request lies. Equals a fresh [`plan`](Self::plan) of
    /// the same request; the copy is what `read`/`write` do without.
    ///
    /// # Errors
    ///
    /// Same as [`plan`](Self::plan), for a request that would hit as for one
    /// that misses. Errors are never cached and touch no counter.
    pub fn plan_cached(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<Translation, NdsError> {
        let mut plan = Translation::clone(&*self.lookup(id, view, coord, sub_dims)?);
        let Scratch {
            base, coord: at, ..
        } = &mut self.scratch;
        for cover in &mut plan.blocks {
            rebase(at, &cover.coord, base);
            cover.coord.clone_from(at);
        }
        Ok(plan)
    }

    /// The cached plan of the request's canonical form, its block shift
    /// left in `scratch.base` ([`translator::canonicalize`]).
    fn lookup(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<Arc<Translation>, NdsError> {
        let space = self.spaces.get(&id).ok_or(NdsError::UnknownSpace(id))?;
        let (shape, block) = (space.shape(), space.block_shape());
        let Scratch { origin, base, .. } = &mut self.scratch;
        // Validated on every lookup, not only on a miss: an out-of-bounds
        // request can reduce to a resident key.
        translator::canonicalize(shape, block, view, coord, sub_dims, origin, base)?;
        self.plan_cache
            .get_or_translate(space.geometry_class(), view, origin, sub_dims, || {
                let region = Region {
                    origin: origin.clone(),
                    extent: sub_dims.to_vec(),
                };
                translator::translate_region(shape, block, view, &region)
            })
    }

    /// The translation-plan cache (hit/miss counters for the stats sinks).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Reads the partition at `coord` (extent `sub_dims`) of `view`,
    /// assembling it into a dense buffer in view order. Unwritten elements
    /// read as zero, like fresh storage.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] plus translation errors.
    pub fn read(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<(Vec<u8>, AccessReport), NdsError> {
        let mut buffer = Vec::new();
        let report = self.read_into(id, view, coord, sub_dims, &mut buffer)?;
        Ok((buffer, report))
    }

    /// Like [`read`](Self::read), but assembles into a caller-provided
    /// buffer. On `Ok`, `buf` holds exactly the partition
    /// (`buf.len() == report.bytes`) whatever it held or however long it was
    /// before: it is sized once and every byte placed once, so repeated reads
    /// through one buffer allocate nothing once it has grown to the largest
    /// request (a read of megabytes, copied in parts on several threads,
    /// excepted). On `Err` its contents are unspecified, its capacity kept.
    /// The report is identical to [`read`](Self::read)'s.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] plus translation errors.
    pub fn read_into(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<AccessReport, NdsError> {
        let mut report = AccessReport::default();
        self.read_reusing(id, view, coord, sub_dims, buf, &mut report)?;
        Ok(report)
    }

    /// [`read_into`](Self::read_into) that also overwrites a caller-kept
    /// `report` in place: a front-end that passes the same buffer and report
    /// to every request performs no heap allocation at all on a plan-cache
    /// hit. On an error `report` is unspecified.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`] plus translation errors.
    pub fn read_reusing(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
        report: &mut AccessReport,
    ) -> Result<(), NdsError> {
        let translation = self.lookup(id, view, coord, sub_dims)?;
        let space = self.spaces.get(&id).ok_or(NdsError::UnknownSpace(id))?;
        let unit_bytes = u64::from(space.block_shape().unit_bytes());
        let units_per_block = space.tree().units_per_block();
        let backend = &self.backend;

        // Pass 1 — what the timing layer sees: each covered block that was
        // ever written, and in sequential (ascending unit index) order each
        // allocated unit the cover overlaps, looked up in the backend once.
        let Scratch {
            resolved,
            base,
            coord: at,
            ..
        } = &mut self.scratch;
        resolved.clear();
        resolved.resize(translation.blocks.len() * units_per_block, None);
        let mut blocks = 0;
        for (cover, row) in translation
            .blocks
            .iter()
            .zip(resolved.chunks_exact_mut(units_per_block.max(1)))
        {
            rebase(at, &cover.coord, base);
            let Some(entry) = space.tree().get(at) else {
                continue; // never-written block: zeros
            };
            let block = report.begin_block(blocks, at, cover)?;
            blocks += 1;
            cover.try_for_each_unit(unit_bytes, |unit| {
                // Unallocated units read as zero.
                let unit = unit as usize;
                if let (Some(&Some(loc)), Some(slot)) = (entry.units.get(unit), row.get_mut(unit)) {
                    block.units.push(loc);
                    let stored = backend.resolve_unit(loc);
                    *slot = Some((loc, stored.ok_or(NdsError::MissingUnit(loc))?));
                }
                Ok(())
            })?;
        }
        report.finish(blocks, &translation);

        // Pass 2 — assembly: the plan's spans, in buffer order. Spans of
        // one unit often follow one another (rows narrower than the block),
        // so the image of the unit at `slot` is kept for the next span.
        let mut assembler = Assembler::new(buf, translation.total_bytes as usize);
        let mut slot = usize::MAX;
        let mut image = None;
        translation.try_for_each_span(|span| {
            let wanted = span.block as usize * units_per_block + span.unit as usize;
            if wanted != slot {
                image = match resolved.get(wanted).copied().flatten() {
                    Some((loc, stored)) => {
                        let lost = NdsError::MissingUnit(loc);
                        Some((loc, backend.unit_image(stored).ok_or(lost)?))
                    }
                    None => None,
                };
                slot = wanted;
            }
            let range = span.unit_offset as usize..(span.unit_offset + span.len) as usize;
            match &image {
                None => assembler.zeros(range.len()),
                Some((loc, Cow::Borrowed(bytes))) => {
                    let bytes: &[u8] = bytes;
                    assembler.stored(bytes.get(range).ok_or(NdsError::MissingUnit(*loc))?);
                }
                Some((loc, Cow::Owned(bytes))) => {
                    assembler.copied(bytes.get(range).ok_or(NdsError::MissingUnit(*loc))?);
                }
            }
            Ok(())
        })?;
        assembler.finish()
    }

    /// Writes `data` (dense, in view order) to the partition at `coord` of
    /// `view`, decomposing it into building blocks and allocating units per
    /// the §4.2 policy.
    ///
    /// # Errors
    ///
    /// [`NdsError::UnknownSpace`], translation errors,
    /// [`NdsError::BadPayloadSize`] if `data` doesn't match the partition,
    /// and [`NdsError::DeviceFull`] if allocation fails.
    pub fn write(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteReport, NdsError> {
        let mut report = WriteReport::default();
        self.write_reusing(id, view, coord, sub_dims, data, &mut report)?;
        Ok(report)
    }

    /// [`write`](Self::write) that overwrites a caller-kept `report` in
    /// place instead of building a fresh one (see
    /// [`read_reusing`](Self::read_reusing)). On an error `report` is
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`write`](Self::write).
    pub fn write_reusing(
        &mut self,
        id: SpaceId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
        report: &mut WriteReport,
    ) -> Result<(), NdsError> {
        let translation = self.lookup(id, view, coord, sub_dims)?;
        if data.len() as u64 != translation.total_bytes {
            return Err(NdsError::BadPayloadSize {
                got: data.len(),
                expected: translation.total_bytes as usize,
            });
        }
        let space = self.spaces.get_mut(&id).ok_or(NdsError::UnknownSpace(id))?;
        let unit_bytes = space.block_shape().unit_bytes() as usize;

        report.rmw_units = 0;
        for (index, cover) in translation.blocks.iter().enumerate() {
            // This block's dirty byte spans, grouped per unit in ascending
            // unit order.
            let Scratch {
                spans,
                base,
                coord: at,
                ..
            } = &mut self.scratch;
            split_into_unit_spans(spans, cover, translation.unit_bytes);
            rebase(at, &cover.coord, base);
            let entry = space.tree_mut().get_or_insert(at)?;
            let block = report.access.begin_block(index, at, cover)?;
            for spans in self.scratch.spans.chunk_by(|a, b| a.0 == b.0) {
                let Some(&(unit_idx, ..)) = spans.first() else {
                    continue;
                };
                let old = *entry.units.get(unit_idx).ok_or(STRAY_SPAN)?;
                // One span that covers the whole unit — a tile-aligned write
                // — is the unit's image as it lies in the payload.
                let whole = match *spans {
                    [(_, 0, buf_off, len)] if len == unit_bytes => data.get(buf_off..buf_off + len),
                    _ => None,
                };
                let image = if let Some(image) = whole {
                    image
                } else {
                    let covered: usize = spans.iter().map(|&(_, _, _, len)| len).sum();
                    // Base image: the old unit's bytes for a partial
                    // overwrite (read-modify-write), zeros for fresh/full
                    // writes — filled once, whichever it is. The staging
                    // buffer is reused across units and requests.
                    self.scratch.image.clear();
                    if let (true, Some(old_loc)) = (covered != unit_bytes, old) {
                        if let Some(existing) = self.backend.read_unit(old_loc) {
                            if existing.len() != unit_bytes {
                                return Err(NdsError::MissingUnit(old_loc));
                            }
                            self.scratch.image.extend_from_slice(&existing);
                        }
                        report.rmw_units += 1;
                    }
                    self.scratch.image.resize(unit_bytes, 0);
                    for &(_, unit_off, buf_off, len) in spans {
                        let into = self.scratch.image.get_mut(unit_off..unit_off + len);
                        let from = data.get(buf_off..buf_off + len);
                        let (into, from) = into.zip(from).ok_or(STRAY_SPAN)?;
                        into.copy_from_slice(from);
                    }
                    &self.scratch.image
                };
                // §8's sparse-content optimization ("similar to page-zero
                // optimization in VAX/VMS"): all-zero units need no physical
                // storage — unallocated units already read back as zeros —
                // so they are never allocated, and overwriting a unit with
                // zeros releases it.
                if image.iter().all(|&b| b == 0) {
                    if let Some(old_loc) = old {
                        self.backend.release_unit(old_loc);
                        *entry.units.get_mut(unit_idx).ok_or(STRAY_SPAN)? = None;
                    }
                    continue;
                }
                let target = self
                    .allocator
                    .allocate(&mut self.backend, &entry.units, old)?;
                if let Err(e) = self.backend.write_unit(target, image) {
                    // The block keeps the unit it had; the fresh handle
                    // goes back to its lane.
                    self.backend.release_unit(target);
                    return Err(e);
                }
                if let Some(old_loc) = old {
                    self.backend.release_unit(old_loc);
                }
                *entry.units.get_mut(unit_idx).ok_or(STRAY_SPAN)? = Some(target);
                block.units.push(target);
            }
        }
        report.access.finish(translation.blocks.len(), &translation);
        Ok(())
    }

    /// Total bytes of translation metadata across all spaces — the quantity
    /// behind the paper's "≤0.1% of the storage space" claim (§7.3).
    pub fn translation_bytes(&self) -> u64 {
        self.spaces.values().map(|s| s.tree().memory_bytes()).sum()
    }
}

/// Sums the 512-byte-sector spans of a cover's segments (within the block
/// image), the bytes a sector-granular transfer of the block must move.
fn sector_rounded(segments: &[Segment]) -> u64 {
    const SECTOR: u64 = 512;
    let mut bytes = 0;
    let mut last_sector_end = u64::MAX;
    for seg in segments {
        let first = seg.block_offset / SECTOR;
        let last = (seg.block_offset + seg.len - 1) / SECTOR;
        let start = if first == last_sector_end {
            first + 1
        } else {
            first
        };
        if last >= start {
            bytes += (last - start + 1) * SECTOR;
        }
        last_sector_end = last;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DeviceSpec, MemBackend};

    fn stl() -> Stl<MemBackend> {
        // 8 channels × 4 banks × 512 B units; plenty of lanes for tests.
        let backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 4096);
        Stl::new(backend, StlConfig::default())
    }

    fn f32_bytes(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn f32_from(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn write_read_full_space() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<f32> = (0..64 * 64).map(|i| i as f32).collect();
        s.write(id, &shape, &[0, 0], &[64, 64], &f32_bytes(&data))
            .unwrap();
        let (out, report) = s.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        assert_eq!(f32_from(&out), data);
        assert!(report.unit_count() > 0);
        assert_eq!(report.bytes, 64 * 64 * 4);
    }

    #[test]
    fn tile_reads_match_row_major_source() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<f32> = (0..64 * 64).map(|i| i as f32).collect();
        s.write(id, &shape, &[0, 0], &[64, 64], &f32_bytes(&data))
            .unwrap();
        // The [1, 1] 32×32 tile: element (x, y) = (32 + x) + 64 * (32 + y).
        let (out, _) = s.read(id, &shape, &[1, 1], &[32, 32]).unwrap();
        let tile = f32_from(&out);
        for y in 0..32 {
            for x in 0..32 {
                let expect = ((32 + x) + 64 * (32 + y)) as f32;
                assert_eq!(tile[x + 32 * y], expect, "tile mismatch at ({x},{y})");
            }
        }
    }

    #[test]
    fn consumer_view_differs_from_producer_view() {
        // Producer writes a 1-D stream; consumer reads 2-D tiles of it.
        let mut s = stl();
        let producer = Shape::new([4096]);
        let id = s.create_space(producer.clone(), ElementType::F32).unwrap();
        let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        s.write(id, &producer, &[0], &[4096], &f32_bytes(&data))
            .unwrap();
        let consumer = Shape::new([64, 64]);
        let (out, _) = s.read(id, &consumer, &[1, 0], &[32, 64]).unwrap();
        let tile = f32_from(&out);
        // Consumer element (x, y) is linear 32 + x + 64y.
        for y in 0..64 {
            for x in 0..32 {
                assert_eq!(tile[x + 32 * y], (32 + x + 64 * y) as f32);
            }
        }
    }

    #[test]
    fn unwritten_regions_read_zero() {
        let mut s = stl();
        let shape = Shape::new([128, 128]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let (out, report) = s.read(id, &shape, &[0, 0], &[16, 16]).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(report.unit_count(), 0, "nothing to fetch");
    }

    #[test]
    fn partial_overwrite_preserves_surroundings() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let base: Vec<f32> = vec![1.0; 64 * 64];
        s.write(id, &shape, &[0, 0], &[64, 64], &f32_bytes(&base))
            .unwrap();
        // Overwrite an unaligned 5×5 patch.
        let patch: Vec<f32> = vec![9.0; 25];
        let patch_region = Shape::new([64, 64]);
        let report = s
            .write(id, &patch_region, &[3, 7], &[5, 5], &f32_bytes(&patch))
            .unwrap();
        assert!(report.rmw_units > 0, "partial writes need RMW");
        let (out, _) = s.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        let all = f32_from(&out);
        for y in 0..64 {
            for x in 0..64 {
                let expected = if (15..20).contains(&x) && (35..40).contains(&y) {
                    9.0
                } else {
                    1.0
                };
                assert_eq!(all[x + 64 * y], expected, "mismatch at ({x},{y})");
            }
        }
    }

    #[test]
    fn complete_blocks_span_all_channels() {
        let mut s = stl();
        let shape = Shape::new([256, 256]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        // Non-zero data: all-zero units are elided (§8) and would not
        // allocate at all.
        let data = vec![1u8; 256 * 256 * 4];
        let report = s.write(id, &shape, &[0, 0], &[256, 256], &data).unwrap();
        let channels = s.backend().spec().channels;
        for block in &report.access.blocks {
            let used: std::collections::HashSet<u32> =
                block.units.iter().map(|u| u.channel).collect();
            assert_eq!(
                used.len() as u32,
                channels,
                "block {:?} uses only {used:?}",
                block.coord
            );
        }
    }

    #[test]
    fn overwrite_releases_old_units() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        s.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let free_after_first: usize = total_free(&s);
        s.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        assert_eq!(
            total_free(&s),
            free_after_first,
            "full overwrite must not leak units"
        );
    }

    #[test]
    fn delete_space_releases_everything() {
        let mut s = stl();
        let before = total_free(&s);
        let shape = Shape::new([128, 128]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data = vec![7u8; 128 * 128 * 4];
        s.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        assert!(total_free(&s) < before);
        s.delete_space(id).unwrap();
        assert_eq!(total_free(&s), before);
        assert!(matches!(
            s.read(id, &shape, &[0, 0], &[1, 1]),
            Err(NdsError::UnknownSpace(_))
        ));
    }

    #[test]
    fn payload_size_validated() {
        let mut s = stl();
        let shape = Shape::new([16, 16]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let err = s
            .write(id, &shape, &[0, 0], &[16, 16], &[0u8; 3])
            .unwrap_err();
        assert!(matches!(err, NdsError::BadPayloadSize { .. }));
    }

    #[test]
    fn translation_bytes_are_small() {
        // At realistic page granularity (4 KB, as in the paper's prototype)
        // the lookup structures stay well under 1% of the payload (§7.3
        // claims ≤0.1% with OOB-resident unit lists; our conservative
        // estimate keeps everything in DRAM).
        let backend = MemBackend::new(DeviceSpec::new(8, 4, 4096), 4096);
        let mut s = Stl::new(backend, StlConfig::default());
        let shape = Shape::new([512, 512]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data = vec![0u8; 512 * 512 * 4];
        s.write(id, &shape, &[0, 0], &[512, 512], &data).unwrap();
        let meta = s.translation_bytes();
        let payload = s.space(id).unwrap().byte_volume();
        assert!(
            (meta as f64) < 0.01 * payload as f64,
            "translation metadata {meta} B should be ≪ payload {payload} B"
        );
    }

    #[test]
    fn read_into_matches_read_and_reuses_capacity() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<f32> = (0..64 * 64).map(|i| i as f32).collect();
        s.write(id, &shape, &[0, 0], &[64, 64], &f32_bytes(&data))
            .unwrap();
        let (owned, report_owned) = s.read(id, &shape, &[1, 1], &[32, 32]).unwrap();
        let mut buf = Vec::new();
        let report_into = s
            .read_into(id, &shape, &[1, 1], &[32, 32], &mut buf)
            .unwrap();
        assert_eq!(buf, owned);
        assert_eq!(report_into, report_owned);
        // A second same-shaped read must not grow the buffer's allocation.
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        s.read_into(id, &shape, &[0, 0], &[32, 32], &mut buf)
            .unwrap();
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr, "no reallocation on reuse");
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        s.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap(); // miss
        for _ in 0..3 {
            s.read(id, &shape, &[0, 0], &[64, 64]).unwrap(); // same key: hits
        }
        s.read(id, &shape, &[1, 1], &[32, 32]).unwrap(); // new key: miss
        assert_eq!(s.plan_cache().hits(), 3);
        assert_eq!(s.plan_cache().misses(), 2);
    }

    #[test]
    fn reports_identical_with_cache_on_and_off() {
        let run = |capacity: usize| {
            let backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 4096);
            let mut s = Stl::new(
                backend,
                StlConfig {
                    plan_cache_capacity: capacity,
                    ..StlConfig::default()
                },
            );
            let shape = Shape::new([64, 64]);
            let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
            let data: Vec<f32> = (0..64 * 64).map(|i| (i % 97) as f32).collect();
            let mut log = Vec::new();
            log.push(format!(
                "{:?}",
                s.write(id, &shape, &[0, 0], &[64, 64], &f32_bytes(&data))
                    .unwrap()
            ));
            for coord in [[0u64, 0], [1, 0], [0, 1], [1, 1], [0, 0], [1, 1]] {
                let (bytes, report) = s.read(id, &shape, &coord, &[32, 32]).unwrap();
                log.push(format!("{report:?}"));
                log.push(format!("{bytes:?}"));
            }
            log.push(format!(
                "{:?}",
                s.write(id, &shape, &[3, 7], &[5, 5], &f32_bytes(&[9.0; 25]))
                    .unwrap()
            ));
            log
        };
        assert_eq!(run(0), run(128), "cache must not change any report or byte");
    }

    #[test]
    fn cached_plan_equals_fresh_plan() {
        let mut s = stl();
        let shape = Shape::new([64, 64]);
        let id = s.create_space(shape.clone(), ElementType::F32).unwrap();
        let fresh = s.plan(id, &shape, &[1, 1], &[16, 16]).unwrap();
        let cached_miss = s.plan_cached(id, &shape, &[1, 1], &[16, 16]).unwrap();
        let cached_hit = s.plan_cached(id, &shape, &[1, 1], &[16, 16]).unwrap();
        // The same tile two blocks over is the same plan, moved.
        let relocated = s.plan_cached(id, &shape, &[3, 1], &[16, 16]).unwrap();
        assert_eq!(cached_miss, fresh);
        assert_eq!(cached_hit, fresh);
        assert_eq!(relocated, s.plan(id, &shape, &[3, 1], &[16, 16]).unwrap());
        assert_eq!(s.plan_cache().hits(), 2);
    }

    fn total_free(s: &Stl<MemBackend>) -> usize {
        let spec = s.backend().spec();
        (0..spec.channels)
            .flat_map(|c| (0..spec.banks_per_channel).map(move |b| (c, b)))
            .map(|(c, b)| s.backend().free_units(c, b))
            .sum()
    }
}

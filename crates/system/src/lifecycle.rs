//! The command lifecycle shared by the baseline and the NDS system.
//!
//! The paper's architectures (Fig. 7a–c) differ only in *where the STL runs
//! and what crosses the link* (Fig. 7b and 7c are one
//! [`NdsSystem`](crate::NdsSystem) at two placements); everything around
//! that — fault and
//! observability wiring, the causal trace scope on system + link + device,
//! the exact stage partition, the per-op counters / `host.*` series /
//! request span / latency histograms, the timing-epoch folds and the
//! report and trace artifacts — is identical by construction and lives
//! here, once. A data path (the baseline's, or an NDS placement's) keeps
//! its cost model, and per operation calls [`start_epoch`](Lifecycle::start_epoch),
//! [`open_scope`](Lifecycle::open_scope), its data path,
//! [`close_scope`](Lifecycle::close_scope),
//! [`record_read`](Lifecycle::record_read) or
//! [`record_write`](Lifecycle::record_write), and
//! [`end_epoch`](Lifecycle::end_epoch); its trait method hands the outcome
//! to [`settle`](Lifecycle::settle), which closes whatever a typed failure
//! left open. The controller placement (hardware NDS) opens the scope first
//! (NVMe submission and the STL op belong to the trace) and records before
//! it closes (so its request span is trace-tagged); DESIGN.md "Command
//! lifecycle" has the step list and what those two orders mean.

use nds_core::Stl;
use nds_flash::{FlashDevice, Ftl};
use nds_interconnect::Link;
use nds_sim::{
    record_command_partition, CommandTracer, ComponentId, Event, Observability, RunReport,
    SimDuration, SimTime, Stats, TraceContext, TraceExport, TraceStage,
};

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;

/// Journal identity of a front-end's request-level span events.
const SYSTEM_COMPONENT: ComponentId = ComponentId::singleton("system");

/// How the lifecycle reaches the flash device under a front-end's store —
/// the baseline's [`Ftl`] or the NDS variants' [`Stl`].
pub(crate) trait DeviceAccess {
    fn device(&self) -> &FlashDevice;
    fn device_mut(&mut self) -> &mut FlashDevice;
}

impl DeviceAccess for Ftl {
    fn device(&self) -> &FlashDevice {
        Ftl::device(self)
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        Ftl::device_mut(self)
    }
}

impl DeviceAccess for Stl<FlashBackend> {
    fn device(&self) -> &FlashDevice {
        self.backend().device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.backend_mut().device_mut()
    }
}

/// The link, system-level observability, command tracer and front-end
/// counters of one flash-backed system.
#[derive(Debug)]
pub(crate) struct Lifecycle {
    pub(crate) link: Link,
    pub(crate) obs: Observability,
    pub(crate) stats: Stats,
    tracer: Option<CommandTracer>,
    /// The scope opened by the operation in flight, until it closes.
    scope: Option<TraceContext>,
}

impl Lifecycle {
    /// Builds the link and system observability from `config`, installing
    /// its fault plan and observability settings into `store`'s device and
    /// the link.
    pub(crate) fn new(config: &SystemConfig, store: &mut impl DeviceAccess) -> Self {
        let device = store.device_mut();
        let mut link = Link::new(config.link);
        if let Some(faults) = config.faults {
            device.install_faults(faults);
            link.install_faults(faults);
        }
        device.configure_observability(&config.obs);
        link.configure_observability(&config.obs);
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        Lifecycle {
            link,
            obs,
            stats: Stats::new(),
            tracer: config.obs.tracing().then(CommandTracer::new),
            scope: None,
        }
    }

    /// Starts an operation's timing epoch: device and link clocks to zero.
    pub(crate) fn start_epoch(&mut self, store: &mut impl DeviceAccess) {
        store.device_mut().reset_timing();
        self.link.reset_timing();
    }

    /// Starts a traced command: allocates its trace context and tags the
    /// system, link, and device journals with it. Returns `None` (and does
    /// nothing) unless tracing is configured.
    pub(crate) fn open_scope(&mut self, store: &mut impl DeviceAccess) -> Option<TraceContext> {
        let ctx = self.tracer.as_mut().map(|t| t.begin())?;
        self.obs.set_trace(ctx);
        store.device_mut().begin_trace(ctx);
        self.link.begin_trace(ctx);
        self.scope = Some(ctx);
        Some(ctx)
    }

    /// Finishes a traced command: records its exact stage partition,
    /// clears the trace tags, and advances the trace clock by `latency`.
    pub(crate) fn close_scope(
        &mut self,
        store: &mut impl DeviceAccess,
        ctx: TraceContext,
        op: &'static str,
        latency: SimDuration,
        stages: &[(TraceStage, SimDuration)],
    ) {
        record_command_partition(
            self.obs.journal_mut(),
            SYSTEM_COMPONENT,
            ctx,
            op,
            latency,
            stages,
        );
        self.obs.clear_trace();
        store.device_mut().end_trace();
        self.link.end_trace();
        self.scope = None;
        if let Some(t) = self.tracer.as_mut() {
            t.finish(latency);
        }
    }

    /// Settles an operation's `outcome`. Success passes through. A typed
    /// failure (a budget exhausted, a command rejected) ends what the
    /// operation left open, by the modeled time it had consumed on the
    /// device and the link: a scope still open closes over that span — the
    /// failed command gets its partition, the journals lose its tags and
    /// the trace clock advances, so the next command starts later — and
    /// the timing epoch ends by the same span.
    pub(crate) fn settle<T>(
        &mut self,
        store: &mut impl DeviceAccess,
        op: &'static str,
        outcome: Result<T, SystemError>,
    ) -> Result<T, SystemError> {
        if outcome.is_err() {
            let spent = store
                .device()
                .drained_at()
                .max(self.link.drained_at())
                .saturating_since(SimTime::ZERO);
            if let Some(ctx) = self.scope {
                self.close_scope(store, ctx, op, spent, &[]);
            }
            self.end_epoch(store, spent);
        }
        outcome
    }

    /// Records a completed read: system counters, `host.*` series, the
    /// request span and both read-latency histograms.
    pub(crate) fn record_read(
        &mut self,
        commands: u64,
        bytes: u64,
        io_latency: SimDuration,
        restructure: SimDuration,
    ) {
        self.stats.add("system.read_commands", commands);
        self.stats.add("system.read_bytes", bytes);
        self.record_request("read", bytes, io_latency + restructure);
        self.obs.latency("read.io_latency", io_latency);
        self.obs.latency("read.latency", io_latency + restructure);
    }

    /// Records a completed write: system counters, `host.*` series, the
    /// request span and the write-latency histogram.
    pub(crate) fn record_write(&mut self, commands: u64, bytes: u64, latency: SimDuration) {
        self.stats.add("system.write_commands", commands);
        self.stats.add("system.write_bytes", bytes);
        self.record_request("write", bytes, latency);
        self.obs.latency("write.latency", latency);
    }

    fn record_request(&mut self, op: &'static str, bytes: u64, latency: SimDuration) {
        self.obs.metric_add(SimTime::ZERO, "host.ops", 1);
        self.obs.metric_add(SimTime::ZERO, "host.bytes", bytes);
        let journal = self.obs.journal_mut();
        journal.begin_span(SimTime::ZERO, SYSTEM_COMPONENT, op);
        journal.end_span(SimTime::ZERO + latency, SYSTEM_COMPONENT, op);
    }

    /// Ends the timing epoch by the operation's full span so per-lane
    /// timelines stay on the run-long clock (the link or a channel may
    /// have drained long before the operation's tail finished).
    pub(crate) fn end_epoch(&mut self, store: &mut impl DeviceAccess, span: SimDuration) {
        store.device_mut().fold_timing_epoch(span);
        self.link.fold_timing_epoch(span);
        self.obs.fold_metrics_epoch(span);
    }

    /// The counters every flash-backed front-end reports: its own, the
    /// link's and the device's. Callers merge their store's on top.
    pub(crate) fn stats(&self, store: &impl DeviceAccess) -> Stats {
        let mut s = self.stats.clone();
        s.merge(self.link.stats());
        s.merge(store.device().stats());
        s
    }

    /// Assembles the run artifact from the front-end's merged `stats`.
    pub(crate) fn run_report(
        &self,
        store: &impl DeviceAccess,
        arch: &'static str,
        stats: &Stats,
    ) -> RunReport {
        let device = store.device();
        let mut report = stats.to_report();
        report.set_meta("arch", arch);
        report.absorb(&self.obs);
        report.absorb(self.link.observability());
        report.absorb(device.observability());
        if let Some(t) = self.link.wire_timeline() {
            report.add_timeline("link", t);
        }
        for (name, t) in device.timeline_snapshots() {
            report.add_timeline(name, t);
        }
        report
    }

    /// The run's causal trace; `None` unless tracing is configured.
    pub(crate) fn trace_export(&self, store: &impl DeviceAccess) -> Option<TraceExport> {
        let tracer = self.tracer.as_ref()?;
        let device = store.device();
        let mut events: Vec<Event> = self.obs.journal().events().copied().collect();
        events.extend(self.link.observability().journal().events().copied());
        events.extend(device.observability().journal().events().copied());
        events.retain(|e| e.trace != 0);
        // Stable sort: ties keep source order (system, link, flash).
        events.sort_by_key(|e| e.at);
        let (channels, banks) = device.lane_busy_totals();
        Some(TraceExport {
            events,
            channels,
            banks,
            makespan: tracer.makespan(),
            tenants: Vec::new(),
        })
    }

    /// Number of trace ids allocated so far; 0 when tracing is off.
    pub(crate) fn trace_cursor(&self) -> u64 {
        self.tracer.as_ref().map_or(0, CommandTracer::commands)
    }
}

//! Chrome trace-event (Perfetto-loadable) JSON rendering.
//!
//! [`write_trace`] streams labeled [`TraceExport`]s as one JSON document in
//! the Chrome trace-event format, one event per line, using the *modeled*
//! clock: `ts`/`dur` are the trace-clock nanoseconds converted to
//! microseconds with exact integer math (three decimal places), and every
//! event's `args` carries the raw nanosecond integers so downstream tools —
//! [`crate::analysis`] in particular — never have to parse floats. Each
//! journaled interval carries its own duration, so one pass over the events
//! renders it: no begin is matched to an end.
//!
//! Layout per system (one Chrome "process" each, `pid` = 1-based position):
//!
//! | tid | thread          | content |
//! |-----|-----------------|---------|
//! | 0   | `commands`      | one `X` slice per traced front-end command (`op#trace`) |
//! | 1   | `stages`        | the command's exact latency partition (`StageSpan`s) |
//! | 2   | `nvme.queue`    | a submission and a completion marker per queue command |
//! | 3   | `link`          | one `X` slice per link command, and link fault/retry markers |
//! | 4   | `flash`         | instant markers for page reads/programs, erases, GC, faults |
//! | 5   | `spans`         | other `Span` intervals as `X` slices |
//! | 16+t | `tenant[t]`    | per-tenant command lanes (multi-tenant runs only) |
//!
//! When the export carries tenant attribution (`TraceExport::tenants`),
//! every attributed command slice on the `commands` thread gains a
//! `"tenant"` arg, and a copy of the slice lands on that tenant's own
//! lane (`tid = 16 + tenant`) so Perfetto shows one swim-lane per tenant.
//! The analysis parser only reads `tid` 0 and 1, so the duplicated lanes
//! never double-count.
//!
//! The rendering is fully deterministic: same export, same bytes. An
//! `ndsSummary` object (one line per system) carries the makespan, the
//! command count, and the per-channel/bank busy totals for the profiler.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

use nds_sim::{ArgValue, ComponentId, EventKind, TraceExport};

const TID_COMMANDS: u32 = 0;
const TID_STAGES: u32 = 1;
const TID_QUEUE: u32 = 2;
const TID_LINK: u32 = 3;
const TID_FLASH: u32 = 4;
const TID_SPANS: u32 = 5;
/// First per-tenant command lane; tenant `t` renders at `tid = 16 + t`.
const TID_TENANT_BASE: u32 = 16;

/// Thread naming for the per-system metadata records.
const THREADS: [(u32, &str); 6] = [
    (TID_COMMANDS, "commands"),
    (TID_STAGES, "stages"),
    (TID_QUEUE, "nvme.queue"),
    (TID_LINK, "link"),
    (TID_FLASH, "flash"),
    (TID_SPANS, "spans"),
];

/// `s` as a quoted JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    nds_sim::push_json_string(&mut out, s);
    out
}

/// Nanoseconds as a microsecond JSON number with three exact decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// A `,\n`-separated run of JSON lines, written straight to `out`.
struct Lines<'w, W> {
    out: &'w mut W,
    first: bool,
}

impl<W: Write> Lines<'_, W> {
    fn line(&mut self, line: fmt::Arguments<'_>) -> io::Result<()> {
        if !std::mem::take(&mut self.first) {
            self.out.write_all(b",\n")?;
        }
        self.out.write_fmt(line)
    }

    /// One complete (`ph: "X"`) slice. `extra` is appended inside `args`.
    fn slice(
        &mut self,
        (pid, tid): (usize, u32),
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        extra: &str,
    ) -> io::Result<()> {
        self.line(format_args!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"args\":{{\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}{extra}}}}}",
            quoted(name),
            micros(start_ns),
            micros(dur_ns),
        ))
    }

    /// One instant (`ph: "i"`, thread scope) marker.
    fn instant(
        &mut self,
        (pid, tid): (usize, u32),
        name: &str,
        at_ns: u64,
        extra: &str,
    ) -> io::Result<()> {
        self.line(format_args!(
            "{{\"name\":{},\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"args\":{{\"at_ns\":{at_ns}{extra}}}}}",
            quoted(name),
            micros(at_ns),
        ))
    }
}

fn emit_system(
    lines: &mut Lines<'_, impl Write>,
    pid: usize,
    name: &str,
    export: &TraceExport,
) -> io::Result<()> {
    lines.line(format_args!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":{}}}}}",
        quoted(name)
    ))?;
    for (tid, tname) in THREADS {
        lines.line(format_args!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{tname}\"}}}}"
        ))?;
    }
    let tenant_of: BTreeMap<u64, u32> = export.tenants.iter().copied().collect();
    let mut tenant_lanes: Vec<u32> = tenant_of.values().copied().collect();
    tenant_lanes.sort_unstable();
    tenant_lanes.dedup();
    for tenant in &tenant_lanes {
        let tid = TID_TENANT_BASE + tenant;
        lines.line(format_args!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"tenant[{tenant}]\"}}}}"
        ))?;
    }
    for ev in &export.events {
        let at_ns = ev.at.as_nanos();
        let trace = ev.trace;
        match ev.kind {
            EventKind::Trace { op, dur } => {
                let slice = format!("{op}#{trace}");
                let tenant = tenant_of.get(&trace);
                let extra = match tenant {
                    Some(t) => format!(",\"trace\":{trace},\"tenant\":{t}"),
                    None => format!(",\"trace\":{trace}"),
                };
                let dur_ns = dur.as_nanos();
                lines.slice((pid, TID_COMMANDS), &slice, at_ns, dur_ns, &extra)?;
                if let Some(&t) = tenant {
                    lines.slice((pid, TID_TENANT_BASE + t), &slice, at_ns, dur_ns, &extra)?;
                }
            }
            EventKind::StageSpan { stage, dur } => {
                let (name, dur_ns) = (stage.name(), dur.as_nanos());
                let extra = format!(",\"trace\":{trace},\"stage\":\"{name}\"");
                lines.slice((pid, TID_STAGES), name, at_ns, dur_ns, &extra)?;
            }
            EventKind::Command { bytes, dur } => {
                let extra = format!(",\"trace\":{trace},\"bytes\":{bytes}");
                if ev.component.group == "nvme.queue" {
                    lines.instant((pid, TID_QUEUE), "CommandIssued", at_ns, &extra)?;
                    let done_ns = at_ns + dur.as_nanos();
                    lines.instant((pid, TID_QUEUE), "CommandCompleted", done_ns, &extra)?;
                } else {
                    let slice = format!("{}.cmd", ev.component.group);
                    lines.slice((pid, TID_LINK), &slice, at_ns, dur.as_nanos(), &extra)?;
                }
            }
            EventKind::Span { label, dur } => {
                let extra = format!(",\"trace\":{trace},\"component\":\"{}\"", ev.component);
                lines.slice((pid, TID_SPANS), label, at_ns, dur.as_nanos(), &extra)?;
            }
            // Every instant kind renders generically: its name, its payload
            // fields in declaration order, on its emitter's thread.
            ref marker => {
                let mut extra = format!(",\"trace\":{trace}");
                // Writing into a `String` cannot fail.
                marker.args(|key, value| {
                    let _ = match value {
                        ArgValue::U64(n) => write!(extra, ",\"{key}\":{n}"),
                        ArgValue::Str(s) => write!(extra, ",\"{key}\":{}", quoted(s)),
                    };
                });
                let tid = instant_tid(ev.component);
                lines.instant((pid, tid), marker.name(), at_ns, &extra)?;
            }
        }
    }
    Ok(())
}

/// Instant markers land on the thread of the component that raised them:
/// the link thread for link events, the spans thread for the cluster
/// front-end's, the flash thread otherwise (flash, FTL, GC).
fn instant_tid(component: ComponentId) -> u32 {
    if component.group.starts_with("link") {
        TID_LINK
    } else if component.group == "cluster" {
        TID_SPANS
    } else {
        TID_FLASH
    }
}

/// The per-system summary record (one line) the profiler parses back.
fn summary_line(name: &str, pid: usize, export: &TraceExport) -> String {
    let makespan_ns = export.makespan.as_nanos();
    let commands = export
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Trace { .. }))
        .count();
    let mut s = format!(
        "{{\"name\":{},\"pid\":{pid},\"makespan_ns\":{makespan_ns},\"commands\":{commands}",
        quoted(name)
    );
    for (key, lanes) in [("channels", &export.channels), ("banks", &export.banks)] {
        s.push_str(&format!(",\"{key}\":["));
        for (i, (lane, busy)) in lanes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let busy_ns = busy.as_nanos();
            s.push_str(&format!(
                "{{\"name\":{},\"busy_ns\":{busy_ns}}}",
                quoted(lane)
            ));
        }
        s.push(']');
    }
    s.push('}');
    s
}

/// Writes labeled trace exports to `out` as one Chrome trace-event JSON
/// document, line by line, holding no copy of the document.
///
/// Each `(label, export)` pair becomes one Chrome process (`pid` = 1-based
/// position, process name = label). The output ends with an `ndsSummary`
/// object carrying makespans, command counts, and channel/bank busy totals.
/// Byte-identical for identical inputs.
///
/// # Errors
///
/// I/O errors from `out`.
pub fn write_trace(out: &mut impl Write, systems: &[(String, TraceExport)]) -> io::Result<()> {
    out.write_all(b"{\n\"traceEvents\": [\n")?;
    let mut lines = Lines { out, first: true };
    for (i, (name, export)) in systems.iter().enumerate() {
        emit_system(&mut lines, i + 1, name, export)?;
    }
    out.write_all(b"\n],\n\"ndsSummary\": {\"systems\": [\n")?;
    let mut lines = Lines { out, first: true };
    for (i, (name, export)) in systems.iter().enumerate() {
        lines.line(format_args!("{}", summary_line(name, i + 1, export)))?;
    }
    out.write_all(b"\n]}\n}\n")
}

/// [`write_trace`] into a `String`.
pub fn render(systems: &[(String, TraceExport)]) -> String {
    let mut out = Vec::new();
    // Writing into a `Vec` cannot fail, and every byte written is UTF-8.
    let _ = write_trace(&mut out, systems);
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_sim::{Event, SimDuration, SimTime, TraceStage};

    fn ev(at_ns: u64, component: ComponentId, kind: EventKind, trace: u64) -> Event {
        Event {
            at: SimTime::from_nanos(at_ns),
            component,
            kind,
            trace,
        }
    }

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    fn sample_export() -> TraceExport {
        let sys = ComponentId::singleton("system");
        let link = ComponentId::singleton("link");
        let queue = ComponentId::singleton("nvme.queue");
        let ch = ComponentId::new("flash.ch", 0);
        let command = |bytes, dur| EventKind::Command { bytes, dur };
        let stage = |stage, dur| EventKind::StageSpan { stage, dur };
        TraceExport {
            events: vec![
                ev(
                    0,
                    sys,
                    EventKind::Trace {
                        op: "read",
                        dur: ns(500),
                    },
                    1,
                ),
                ev(0, queue, command(64, SimDuration::ZERO), 1),
                ev(100, link, command(4096, ns(200)), 1),
                ev(
                    250,
                    ch,
                    EventKind::PageRead {
                        channel: 0,
                        bank: 1,
                    },
                    1,
                ),
                ev(0, sys, stage(TraceStage::Flash, ns(250)), 1),
                ev(250, sys, stage(TraceStage::Link, ns(250)), 1),
            ],
            channels: vec![("flash.ch[0]".to_string(), ns(250))],
            banks: vec![("flash.bank[0]".to_string(), ns(250))],
            makespan: ns(500),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn render_is_deterministic_and_structured() {
        let systems = vec![("baseline".to_string(), sample_export())];
        let a = render(&systems);
        let b = render(&systems);
        assert_eq!(a, b, "identical inputs must render identical bytes");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ndsSummary\""));
        assert!(a.contains("\"name\":\"read#1\""));
        assert!(a.contains("\"makespan_ns\":500"));
        // The link command renders as a 200 ns slice at ts 0.100 µs.
        assert!(a.contains("\"name\":\"link.cmd\""));
        assert!(a.contains("\"ts\":0.100,\"dur\":0.200"));
        // The queue command renders as its submission and completion markers.
        let issued = a.find("\"name\":\"CommandIssued\",\"ph\":\"i\",\"pid\":1,\"tid\":2");
        let completed = a.find("\"name\":\"CommandCompleted\",\"ph\":\"i\",\"pid\":1,\"tid\":2");
        assert!(matches!((issued, completed), (Some(i), Some(c)) if i < c));
    }

    #[test]
    fn micros_uses_exact_integer_math() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1000), "1.000");
        assert_eq!(micros(1234567), "1234.567");
    }

    #[test]
    fn tenant_attribution_duplicates_slices_onto_tenant_lanes() {
        let mut export = sample_export();
        export.tenants = vec![(1, 3)];
        let out = render(&[("mt".to_string(), export)]);
        // Command slice carries the tenant arg on the commands thread…
        assert!(out.contains("\"tid\":0") && out.contains("\"tenant\":3"));
        // …and is duplicated onto the tenant's own named lane.
        assert!(out.contains("\"tid\":19"));
        assert!(out.contains("\"name\":\"tenant[3]\""));
        // Unattributed exports emit no tenant lanes at all.
        let plain = render(&[("st".to_string(), sample_export())]);
        assert!(!plain.contains("tenant"));
    }

    #[test]
    fn an_exhausted_link_command_renders_as_one_slice() {
        // What `Link::try_transfer` journals for a command that ran out of
        // retries: the command over the wire time it held, its fault marker
        // at the same instant, and the retry it never got to make.
        let link = ComponentId::singleton("link");
        let command = EventKind::Command {
            bytes: 8,
            dur: ns(40),
        };
        let fault = EventKind::FaultInjected {
            kind: "link.timeout",
        };
        let retry = EventKind::RetryScheduled { attempt: 1 };
        let export = TraceExport {
            events: vec![
                ev(10, link, command, 3),
                ev(10, link, fault, 3),
                ev(70, link, retry, 3),
            ],
            makespan: ns(70),
            ..TraceExport::default()
        };
        let out = render(&[("x".to_string(), export)]);
        let slices: Vec<_> = out.lines().filter(|l| l.contains("\"ph\":\"X\"")).collect();
        assert_eq!(slices.len(), 1, "{out}");
        assert!(slices[0].contains("\"name\":\"link.cmd\""));
        assert!(slices[0].contains("\"start_ns\":10,\"dur_ns\":40,\"trace\":3,\"bytes\":8"));
        let markers = out.lines().filter(|l| l.contains("\"ph\":\"i\"")).count();
        assert_eq!(markers, 2, "only the fault and retry markers are instants");
        let slice = out.find("link.cmd");
        let fault = out.find("FaultInjected");
        assert!(matches!((slice, fault), (Some(s), Some(f)) if s < f));
    }
}

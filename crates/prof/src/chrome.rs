//! Chrome trace-event (Perfetto-loadable) JSON rendering.
//!
//! [`render`] turns labeled [`TraceExport`]s into one JSON document in the
//! Chrome trace-event format, using the *modeled* clock: `ts`/`dur` are the
//! trace-clock nanoseconds converted to microseconds with exact integer
//! math (three decimal places), and every event's `args` carries the raw
//! nanosecond integers so downstream tools — [`crate::analysis`] in
//! particular — never have to parse floats.
//!
//! Layout per system (one Chrome "process" each, `pid` = 1-based position):
//!
//! | tid | thread          | content |
//! |-----|-----------------|---------|
//! | 0   | `commands`      | one `X` slice per traced front-end command (`op#trace`) |
//! | 1   | `stages`        | the command's exact latency partition (`StageSpan`s) |
//! | 2   | `nvme.queue`    | instant markers for queue submissions/completions |
//! | 3   | `link`          | paired link transfers as `X` slices |
//! | 4   | `flash`         | instant markers for page reads/programs, erases, GC, faults |
//! | 5   | `spans`         | other paired `SpanBegin`/`SpanEnd` intervals |
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;

use nds_sim::{ArgValue, ComponentId, Event, EventKind, TraceExport};

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

/// Begin/end matching computed in one pre-pass over a sorted event list.
struct Pairing {
    /// Trace id → `TraceEnd` nanosecond instant.
    trace_end: BTreeMap<u64, u64>,
    /// `CommandIssued` event index → matching completion instant (FIFO per
    /// component).
    complete_at: BTreeMap<usize, u64>,
    /// `SpanBegin` event index → matching `SpanEnd` instant (FIFO per
    /// component + label).
    span_end: BTreeMap<usize, u64>,
    /// Indices of end-side events consumed by a pair (not re-emitted).
    consumed: BTreeMap<usize, ()>,
}

fn pair_events(events: &[Event]) -> Pairing {
    let mut trace_end = BTreeMap::new();
    let mut complete_at = BTreeMap::new();
    let mut span_end = BTreeMap::new();
    let mut consumed = BTreeMap::new();
    let mut open_cmds: BTreeMap<ComponentId, VecDeque<usize>> = BTreeMap::new();
    let mut open_spans: BTreeMap<(ComponentId, &str), VecDeque<usize>> = BTreeMap::new();
    for (idx, ev) in events.iter().enumerate() {
        let at_ns = ev.at.as_nanos();
        match ev.kind {
            EventKind::TraceEnd { trace } => {
                trace_end.insert(trace, at_ns);
            }
            EventKind::CommandIssued { .. } if ev.component.group != "nvme.queue" => {
                open_cmds.entry(ev.component).or_default().push_back(idx);
            }
            EventKind::CommandCompleted { .. } if ev.component.group != "nvme.queue" => {
                if let Some(issue) = open_cmds
                    .get_mut(&ev.component)
                    .and_then(VecDeque::pop_front)
                {
                    complete_at.insert(issue, at_ns);
                    consumed.insert(idx, ());
                }
            }
            EventKind::SpanBegin { label } => {
                open_spans
                    .entry((ev.component, label))
                    .or_default()
                    .push_back(idx);
            }
            EventKind::SpanEnd { label } => {
                if let Some(begin) = open_spans
                    .get_mut(&(ev.component, label))
                    .and_then(VecDeque::pop_front)
                {
                    span_end.insert(begin, at_ns);
                    consumed.insert(idx, ());
                }
            }
            _ => {}
        }
    }
    Pairing {
        trace_end,
        complete_at,
        span_end,
        consumed,
    }
}

/// One complete (`ph: "X"`) slice. `extra` is appended inside `args`.
fn x_line(pid: usize, tid: u32, name: &str, start_ns: u64, dur_ns: u64, extra: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
         \"args\":{{\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}{extra}}}}}",
        quoted(name),
        micros(start_ns),
        micros(dur_ns),
    )
}

/// One instant (`ph: "i"`, thread scope) marker.
fn i_line(pid: usize, tid: u32, name: &str, at_ns: u64, extra: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
         \"args\":{{\"at_ns\":{at_ns}{extra}}}}}",
        quoted(name),
        micros(at_ns),
    )
}

fn emit_system(lines: &mut Vec<String>, pid: usize, name: &str, export: &TraceExport) {
    lines.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":{}}}}}",
        quoted(name)
    ));
    for (tid, tname) in THREADS {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{tname}\"}}}}"
        ));
    }
    let tenant_of: BTreeMap<u64, u32> = export.tenants.iter().copied().collect();
    let mut tenant_lanes: Vec<u32> = tenant_of.values().copied().collect();
    tenant_lanes.sort_unstable();
    tenant_lanes.dedup();
    for tenant in &tenant_lanes {
        let tid = TID_TENANT_BASE + tenant;
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"tenant[{tenant}]\"}}}}"
        ));
    }
    let pairing = pair_events(&export.events);
    for (idx, ev) in export.events.iter().enumerate() {
        let at_ns = ev.at.as_nanos();
        let trace = ev.trace;
        match ev.kind {
            EventKind::TraceBegin { trace: id, op } => {
                if let Some(&end_ns) = pairing.trace_end.get(&id) {
                    let dur_ns = end_ns.saturating_sub(at_ns);
                    let slice = format!("{op}#{id}");
                    let tenant = tenant_of.get(&id);
                    let extra = match tenant {
                        Some(t) => format!(",\"trace\":{id},\"tenant\":{t}"),
                        None => format!(",\"trace\":{id}"),
                    };
                    lines.push(x_line(pid, TID_COMMANDS, &slice, at_ns, dur_ns, &extra));
                    if let Some(&t) = tenant {
                        lines.push(x_line(
                            pid,
                            TID_TENANT_BASE + t,
                            &slice,
                            at_ns,
                            dur_ns,
                            &extra,
                        ));
                    }
                }
            }
            EventKind::TraceEnd { .. } => {}
            EventKind::StageSpan {
                trace: id,
                stage,
                dur,
            } => {
                let dur_ns = dur.as_nanos();
                lines.push(x_line(
                    pid,
                    TID_STAGES,
                    stage.name(),
                    at_ns,
                    dur_ns,
                    &format!(",\"trace\":{id},\"stage\":\"{}\"", stage.name()),
                ));
            }
            EventKind::CommandIssued { bytes } => {
                let extra = format!(",\"trace\":{trace},\"bytes\":{bytes}");
                if ev.component.group == "nvme.queue" {
                    lines.push(i_line(pid, TID_QUEUE, "CommandIssued", at_ns, &extra));
                } else if let Some(&end_ns) = pairing.complete_at.get(&idx) {
                    let dur_ns = end_ns.saturating_sub(at_ns);
                    let slice = format!("{}.cmd", ev.component.group);
                    lines.push(x_line(pid, TID_LINK, &slice, at_ns, dur_ns, &extra));
                } else {
                    lines.push(i_line(pid, TID_LINK, "CommandIssued", at_ns, &extra));
                }
            }
            EventKind::CommandCompleted { bytes } => {
                let extra = format!(",\"trace\":{trace},\"bytes\":{bytes}");
                if ev.component.group == "nvme.queue" {
                    lines.push(i_line(pid, TID_QUEUE, "CommandCompleted", at_ns, &extra));
                } else if !pairing.consumed.contains_key(&idx) {
                    lines.push(i_line(pid, TID_LINK, "CommandCompleted", at_ns, &extra));
                }
            }
            EventKind::SpanBegin { label } => {
                let extra = format!(",\"trace\":{trace},\"component\":\"{}\"", ev.component);
                if let Some(&end_ns) = pairing.span_end.get(&idx) {
                    let dur_ns = end_ns.saturating_sub(at_ns);
                    lines.push(x_line(pid, TID_SPANS, label, at_ns, dur_ns, &extra));
                } else {
                    lines.push(i_line(pid, TID_SPANS, label, at_ns, &extra));
                }
            }
            EventKind::SpanEnd { label } => {
                if !pairing.consumed.contains_key(&idx) {
                    let extra = format!(",\"trace\":{trace},\"component\":\"{}\"", ev.component);
                    lines.push(i_line(pid, TID_SPANS, label, at_ns, &extra));
                }
            }
            // Every instant kind renders generically: its name, its payload
            // fields in declaration order, on its emitter's thread.
            ref instant => {
                let mut extra = format!(",\"trace\":{trace}");
                // Writing into a `String` cannot fail.
                instant.args(|key, value| {
                    let _ = match value {
                        ArgValue::U64(n) => write!(extra, ",\"{key}\":{n}"),
                        ArgValue::Str(s) => write!(extra, ",\"{key}\":{}", quoted(s)),
                    };
                });
                let tid = instant_tid(ev.component);
                lines.push(i_line(pid, tid, instant.name(), at_ns, &extra));
            }
        }
    }
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
        .filter(|e| matches!(e.kind, EventKind::TraceBegin { .. }))
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

/// Renders labeled trace exports as one Chrome trace-event JSON document.
///
/// Each `(label, export)` pair becomes one Chrome process (`pid` = 1-based
/// position, process name = label). The output ends with an `ndsSummary`
/// object carrying makespans, command counts, and channel/bank busy totals.
/// Byte-identical for identical inputs.
pub fn render(systems: &[(String, TraceExport)]) -> String {
    let mut lines = Vec::new();
    for (i, (name, export)) in systems.iter().enumerate() {
        emit_system(&mut lines, i + 1, name, export);
    }
    let summaries: Vec<String> = systems
        .iter()
        .enumerate()
        .map(|(i, (name, export))| summary_line(name, i + 1, export))
        .collect();
    let mut out = String::from("{\n\"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n],\n\"ndsSummary\": {\"systems\": [\n");
    out.push_str(&summaries.join(",\n"));
    out.push_str("\n]}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_sim::{SimDuration, SimTime, TraceStage};

    fn ev(at_ns: u64, component: ComponentId, kind: EventKind, trace: u64) -> Event {
        Event {
            at: SimTime::from_nanos(at_ns),
            component,
            kind,
            trace,
        }
    }

    fn sample_export() -> TraceExport {
        let sys = ComponentId::singleton("system");
        let link = ComponentId::singleton("link");
        let queue = ComponentId::singleton("nvme.queue");
        let ch = ComponentId::new("flash.ch", 0);
        TraceExport {
            events: vec![
                ev(
                    0,
                    sys,
                    EventKind::TraceBegin {
                        trace: 1,
                        op: "read",
                    },
                    1,
                ),
                ev(0, queue, EventKind::CommandIssued { bytes: 64 }, 1),
                ev(100, link, EventKind::CommandIssued { bytes: 4096 }, 1),
                ev(
                    250,
                    ch,
                    EventKind::PageRead {
                        channel: 0,
                        bank: 1,
                    },
                    1,
                ),
                ev(300, link, EventKind::CommandCompleted { bytes: 4096 }, 1),
                ev(
                    0,
                    sys,
                    EventKind::StageSpan {
                        trace: 1,
                        stage: TraceStage::Flash,
                        dur: SimDuration::from_nanos(250),
                    },
                    1,
                ),
                ev(
                    250,
                    sys,
                    EventKind::StageSpan {
                        trace: 1,
                        stage: TraceStage::Link,
                        dur: SimDuration::from_nanos(250),
                    },
                    1,
                ),
                ev(500, sys, EventKind::TraceEnd { trace: 1 }, 1),
            ],
            channels: vec![("flash.ch[0]".to_string(), SimDuration::from_nanos(250))],
            banks: vec![("flash.bank[0]".to_string(), SimDuration::from_nanos(250))],
            makespan: SimDuration::from_nanos(500),
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
        // The paired link transfer renders as a 200 ns slice at ts 0.100 µs.
        assert!(a.contains("\"name\":\"link.cmd\""));
        assert!(a.contains("\"ts\":0.100,\"dur\":0.200"));
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
    fn unpaired_events_degrade_to_instants() {
        let link = ComponentId::singleton("link");
        let export = TraceExport {
            events: vec![ev(10, link, EventKind::CommandIssued { bytes: 8 }, 3)],
            channels: vec![],
            banks: vec![],
            makespan: SimDuration::from_nanos(10),
            tenants: Vec::new(),
        };
        let out = render(&[("x".to_string(), export)]);
        assert!(out.contains("\"ph\":\"i\""));
        assert!(!out.contains("\"ph\":\"X\""));
    }
}

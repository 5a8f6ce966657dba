//! Deterministic critical-path analysis over an exported trace file.
//!
//! [`parse`] reads the Chrome trace-event JSON written by
//! [`crate::chrome::render`] back into per-system profiles. The parser is
//! line-based and touches only the integer `args` fields (`start_ns`,
//! `dur_ns`, `busy_ns`, …) — the fractional `ts`/`dur` microsecond values
//! exist for Perfetto, never for analysis, so no floats enter any computed
//! number. [`analyze`] then computes per system:
//!
//! * the **attribution invariant** check — every command's stage spans must
//!   sum *exactly* (integer nanoseconds) to its end-to-end latency;
//! * aggregate time attribution per [`TraceStage`] with per-mille shares;
//! * latency quantiles (p50/p95/p99) via [`LatencyHistogram::quantile`];
//! * channel/bank **parallelism metrics**: lane busy-sum (channels +
//!   banks) over makespan (effective parallelism) and Jain's fairness
//!   index across channels, both as integer milli-units;
//! * the slowest commands, for drill-down in Perfetto.
//!
//! [`format_report`] renders the analyses — and a cross-system comparison —
//! as deterministic text.

use std::collections::BTreeMap;

use nds_sim::{LatencyHistogram, SimDuration, TraceStage};

/// One traced front-end command parsed back from the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandProfile {
    /// Run-unique 1-based trace id.
    pub trace: u64,
    /// Operation kind (`"read"` / `"write"`).
    pub op: String,
    /// Start instant on the run-long trace clock, nanoseconds.
    pub start_ns: u64,
    /// Exact end-to-end modeled latency, nanoseconds.
    pub dur_ns: u64,
    /// Owning tenant, when the trace came from a multi-tenant run.
    pub tenant: Option<u32>,
}

/// Everything parsed for one system (one Chrome process) of a trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemProfile {
    /// System label (the process name, e.g. `"a.baseline"`).
    pub name: String,
    /// Chrome pid (1-based position in the file).
    pub pid: u64,
    /// Traced commands in file order.
    pub commands: Vec<CommandProfile>,
    /// Trace id → that command's stage partition `(stage name, ns)`.
    pub stages: BTreeMap<u64, Vec<(String, u64)>>,
    /// Final trace-clock value (sum of traced command latencies).
    pub makespan_ns: u64,
    /// Run-long busy nanoseconds per flash channel.
    pub channels: Vec<(String, u64)>,
    /// Run-long busy nanoseconds per flash bank.
    pub banks: Vec<(String, u64)>,
}

/// The computed profile of one system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemAnalysis {
    /// System label.
    pub name: String,
    /// Number of traced commands.
    pub commands: u64,
    /// Sum of command latencies, nanoseconds (equals the makespan when
    /// every command was traced to completion).
    pub total_latency_ns: u64,
    /// Final trace-clock value from the export.
    pub makespan_ns: u64,
    /// `(stage, total ns, per-mille share of total latency)` in
    /// [`TraceStage::ALL`] order; stages with no samples are omitted.
    pub attribution: Vec<(String, u64, u64)>,
    /// Human-readable attribution-invariant violations (empty = verified).
    pub violations: Vec<String>,
    /// Median command latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile command latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile command latency, nanoseconds.
    pub p99_ns: u64,
    /// Sum of busy nanoseconds over every flash lane (channels + banks).
    pub busy_sum_ns: u64,
    /// Effective lane parallelism (busy-sum / makespan) in milli-units
    /// (e.g. `2500` = 2.5 lanes busy on average).
    pub effective_parallelism_milli: u64,
    /// Jain's fairness index over per-channel busy time, in milli-units
    /// (1000 = perfectly even use of every channel).
    pub jain_milli: u64,
    /// Per-tenant rows `(tenant, commands, total latency ns, per-mille
    /// share of total latency)`; empty for single-stream traces.
    pub tenants: Vec<(u32, u64, u64, u64)>,
    /// Jain's fairness index over per-tenant total latency (the service
    /// each tenant received), milli-units; `None` for single-stream traces.
    pub tenant_jain_milli: Option<u64>,
    /// Up to ten slowest commands, longest first (ties by trace id).
    pub slowest: Vec<CommandProfile>,
}

/// Reconstructs a modeled duration from a nanosecond count parsed back out
/// of a trace artifact — the one place the profiler re-enters modeled time.
#[expect(
    clippy::disallowed_methods,
    reason = "D3: reconstructs a modeled duration parsed from a trace artifact"
)]
fn dur_from_ns(ns: u64) -> SimDuration {
    SimDuration::from_nanos(ns)
}

/// Extracts the integer value of `"key":<digits>` from a line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)?;
    let rest = line.get(at + pat.len()..)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        None
    } else {
        digits.parse().ok()
    }
}

/// Extracts the string value of the *first* `"key":"value"` on a line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)?;
    let rest = line.get(at + pat.len()..)?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// Extracts the string value of the *last* `"key":"value"` on a line.
fn field_str_last<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.rfind(&pat)?;
    let rest = line.get(at + pat.len()..)?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// Parses a `[{"name":"…","busy_ns":N},…]` segment.
fn parse_busy_list(segment: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = segment;
    while let Some(at) = rest.find("{\"name\":\"") {
        let Some(tail) = rest.get(at + "{\"name\":\"".len()..) else {
            break;
        };
        let Some(endq) = tail.find('"') else {
            break;
        };
        let name = tail.get(..endq).unwrap_or("").to_string();
        let Some(after) = tail.get(endq..) else {
            break;
        };
        let busy = field_u64(after, "busy_ns").unwrap_or(0);
        out.push((name, busy));
        let Some(close) = after.find('}') else {
            break;
        };
        rest = after.get(close + 1..).unwrap_or("");
    }
    out
}

/// Parses a Chrome trace-event JSON document produced by
/// [`crate::chrome::render`] into per-system profiles, ordered by pid.
///
/// # Errors
///
/// Returns a description of the first malformed line: an event referring
/// to a pid with no prior `process_name` record, or a record missing a
/// required integer field.
pub fn parse(text: &str) -> Result<Vec<SystemProfile>, String> {
    let mut systems: BTreeMap<u64, SystemProfile> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        if line.contains("\"ph\":\"M\"") {
            if field_str(line, "name") == Some("process_name") {
                let pid = field_u64(line, "pid").ok_or_else(|| err("process_name without pid"))?;
                let name = field_str_last(line, "name").unwrap_or("").to_string();
                systems.entry(pid).or_insert_with(|| SystemProfile {
                    name,
                    pid,
                    ..SystemProfile::default()
                });
            }
            continue;
        }
        if line.contains("\"ph\":\"X\"") {
            let pid = field_u64(line, "pid").ok_or_else(|| err("slice without pid"))?;
            let tid = field_u64(line, "tid").ok_or_else(|| err("slice without tid"))?;
            if tid > 1 {
                continue; // link / span slices are visualization-only
            }
            let sys = systems
                .get_mut(&pid)
                .ok_or_else(|| err("slice for unknown pid"))?;
            let trace = field_u64(line, "trace").ok_or_else(|| err("slice without trace id"))?;
            let dur_ns = field_u64(line, "dur_ns").ok_or_else(|| err("slice without dur_ns"))?;
            if tid == 0 {
                let full = field_str(line, "name").ok_or_else(|| err("command without name"))?;
                let op = full.split('#').next().unwrap_or(full).to_string();
                let start_ns =
                    field_u64(line, "start_ns").ok_or_else(|| err("command without start_ns"))?;
                sys.commands.push(CommandProfile {
                    trace,
                    op,
                    start_ns,
                    dur_ns,
                    tenant: field_u64(line, "tenant").map(|t| t as u32),
                });
            } else {
                let stage = field_str(line, "stage")
                    .ok_or_else(|| err("stage span without stage"))?
                    .to_string();
                sys.stages.entry(trace).or_default().push((stage, dur_ns));
            }
            continue;
        }
        if line.contains("\"makespan_ns\"") {
            let pid = field_u64(line, "pid").ok_or_else(|| err("summary without pid"))?;
            let sys = systems
                .get_mut(&pid)
                .ok_or_else(|| err("summary for unknown pid"))?;
            sys.makespan_ns = field_u64(line, "makespan_ns").unwrap_or(0);
            let ch_at = line.find("\"channels\":[");
            let bk_at = line.find("\"banks\":[");
            if let (Some(ch), Some(bk)) = (ch_at, bk_at) {
                sys.channels = parse_busy_list(line.get(ch..bk).unwrap_or(""));
                sys.banks = parse_busy_list(line.get(bk..).unwrap_or(""));
            }
        }
    }
    Ok(systems.into_values().collect())
}

/// `num / den` in milli-units via exact u128 arithmetic (0 when `den` = 0).
#[deny(clippy::arithmetic_side_effects)]
fn milli_ratio(num: u64, den: u64) -> u64 {
    u128::from(num)
        .saturating_mul(1000)
        .checked_div(u128::from(den))
        .map_or(0, |r| r as u64)
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` in milli-units; 1000 for an
/// empty or all-zero population (trivially fair).
#[deny(clippy::arithmetic_side_effects)]
pub fn jain_milli(values: &[u64]) -> u64 {
    let n = values.len() as u128;
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    let sum_sq: u128 = values
        .iter()
        .map(|&v| u128::from(v).saturating_mul(u128::from(v)))
        .sum();
    let num = sum.saturating_mul(sum).saturating_mul(1000);
    // n = 0 or Σx² = 0 leaves a zero divisor: the trivially fair case.
    num.checked_div(n.saturating_mul(sum_sq))
        .map_or(1000, |j| j as u64)
}

/// Analyzes one parsed system profile.
///
/// Verifies the attribution invariant for every command (stage spans sum
/// exactly to latency, orphan partitions flagged), aggregates stage
/// shares, and computes latency quantiles and channel-parallelism metrics.
/// Pure integer arithmetic end to end; deterministic for identical input.
pub fn analyze(profile: &SystemProfile) -> SystemAnalysis {
    let mut violations = Vec::new();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    let mut hist = LatencyHistogram::default();
    let mut total_latency_ns = 0u64;
    let mut seen = BTreeMap::new();
    for cmd in &profile.commands {
        seen.insert(cmd.trace, ());
        total_latency_ns += cmd.dur_ns;
        hist.record(dur_from_ns(cmd.dur_ns));
        match profile.stages.get(&cmd.trace) {
            None => violations.push(format!(
                "command {}#{} has no stage partition",
                cmd.op, cmd.trace
            )),
            Some(stages) => {
                let sum: u64 = stages.iter().map(|(_, ns)| ns).sum();
                if sum != cmd.dur_ns {
                    violations.push(format!(
                        "command {}#{}: stage spans sum to {} ns but latency is {} ns",
                        cmd.op, cmd.trace, sum, cmd.dur_ns
                    ));
                }
                for (stage, ns) in stages {
                    // Attribute under the canonical stage name so the table
                    // ordering below is stable even for unknown labels.
                    let key = TraceStage::ALL
                        .iter()
                        .map(|s| s.name())
                        .find(|name| name == stage)
                        .unwrap_or("other");
                    *totals.entry(key).or_default() += ns;
                }
            }
        }
    }
    for trace in profile.stages.keys() {
        if !seen.contains_key(trace) {
            violations.push(format!("stage partition for unknown command #{trace}"));
        }
    }
    let attribution: Vec<(String, u64, u64)> = TraceStage::ALL
        .iter()
        .filter_map(|stage| {
            let &ns = totals.get(stage.name())?;
            Some((
                stage.name().to_string(),
                ns,
                milli_ratio(ns, total_latency_ns),
            ))
        })
        .collect();
    let p50 = hist.quantile(0.50);
    let p95 = hist.quantile(0.95);
    let p99 = hist.quantile(0.99);
    // Busy-sum spans every flash lane — channels *and* banks. Bank array
    // holds dwarf channel-bus transfers, so lane busy is what actually
    // measures how much of the device worked concurrently; strided access
    // that camps on a lane subset stretches the makespan without adding
    // busy time and scores low here.
    let busy_sum_ns: u64 = profile
        .channels
        .iter()
        .chain(profile.banks.iter())
        .map(|(_, ns)| ns)
        .sum();
    let channel_busy: Vec<u64> = profile.channels.iter().map(|&(_, ns)| ns).collect();
    // Per-tenant service received: count and summed latency per tenant,
    // plus Jain fairness over those sums. Only present when the trace was
    // tenant-attributed (multi-tenant runs); latency share uses the
    // attributed subtotal so unattributed setup traffic cannot skew it.
    let mut per_tenant: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for cmd in &profile.commands {
        if let Some(t) = cmd.tenant {
            let entry = per_tenant.entry(t).or_default();
            entry.0 += 1;
            entry.1 += cmd.dur_ns;
        }
    }
    let tenant_total: u64 = per_tenant.values().map(|&(_, ns)| ns).sum();
    let tenants: Vec<(u32, u64, u64, u64)> = per_tenant
        .iter()
        .map(|(&t, &(cmds, ns))| (t, cmds, ns, milli_ratio(ns, tenant_total)))
        .collect();
    let tenant_jain_milli = if per_tenant.is_empty() {
        None
    } else {
        let service: Vec<u64> = per_tenant.values().map(|&(_, ns)| ns).collect();
        Some(jain_milli(&service))
    };
    let mut slowest: Vec<CommandProfile> = profile.commands.clone();
    slowest.sort_by_key(|c| (std::cmp::Reverse(c.dur_ns), c.trace));
    slowest.truncate(10);
    SystemAnalysis {
        name: profile.name.clone(),
        commands: profile.commands.len() as u64,
        total_latency_ns,
        makespan_ns: profile.makespan_ns,
        attribution,
        violations,
        p50_ns: p50.as_nanos(),
        p95_ns: p95.as_nanos(),
        p99_ns: p99.as_nanos(),
        busy_sum_ns,
        effective_parallelism_milli: milli_ratio(busy_sum_ns, profile.makespan_ns),
        jain_milli: jain_milli(&channel_busy),
        tenants,
        tenant_jain_milli,
        slowest,
    }
}

/// Milli-units as a fixed-point decimal string (`2500` → `"2.500"`).
fn milli(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Per-mille as a percentage string with one decimal (`123` → `"12.3%"`).
fn permille_pct(v: u64) -> String {
    format!("{}.{}%", v / 10, v % 10)
}

/// Renders the analyses — and a cross-system comparison — as
/// deterministic plain text.
pub fn format_report(analyses: &[SystemAnalysis]) -> String {
    let mut out = String::from("# nds-prof — critical-path attribution report\n");
    for a in analyses {
        out.push_str(&format!("\n## {}\n\n", a.name));
        out.push_str(&format!(
            "commands: {}  total latency: {} ns  trace makespan: {} ns\n",
            a.commands, a.total_latency_ns, a.makespan_ns
        ));
        if a.commands > 0 {
            out.push_str("attribution (stage spans partition total latency exactly):\n");
            for (stage, ns, pm) in &a.attribution {
                out.push_str(&format!(
                    "  {stage:<12} {ns:>14} ns  {:>6}\n",
                    permille_pct(*pm)
                ));
            }
            out.push_str(&format!(
                "latency quantiles: p50 {} ns, p95 {} ns, p99 {} ns\n",
                a.p50_ns, a.p95_ns, a.p99_ns
            ));
        }
        out.push_str(&format!(
            "channel/bank parallelism: busy-sum {} ns / makespan {} ns = {}x effective, \
             channel jain fairness {}\n",
            a.busy_sum_ns,
            a.makespan_ns,
            milli(a.effective_parallelism_milli),
            milli(a.jain_milli)
        ));
        if !a.tenants.is_empty() {
            out.push_str("tenant service (attributed commands only):\n");
            for (tenant, cmds, ns, pm) in &a.tenants {
                out.push_str(&format!(
                    "  tenant[{tenant}]: {cmds} cmds, {ns} ns total, share {}\n",
                    permille_pct(*pm)
                ));
            }
            if let Some(jain) = a.tenant_jain_milli {
                out.push_str(&format!(
                    "tenant fairness: jain {} over per-tenant latency totals\n",
                    milli(jain)
                ));
            }
        }
        if !a.slowest.is_empty() {
            out.push_str("slowest commands:\n");
            for cmd in &a.slowest {
                out.push_str(&format!(
                    "  {}#{} — {} ns (start {} ns)\n",
                    cmd.op, cmd.trace, cmd.dur_ns, cmd.start_ns
                ));
            }
        }
        if a.violations.is_empty() {
            out.push_str(&format!(
                "attribution invariant: OK ({} commands verified)\n",
                a.commands
            ));
        } else {
            out.push_str("attribution invariant: VIOLATED\n");
            for v in &a.violations {
                out.push_str(&format!("  - {v}\n"));
            }
        }
    }
    if analyses.len() > 1 {
        out.push_str("\n## cross-system comparison\n\n");
        out.push_str("| system | commands | total latency ns | effective parallelism | p99 ns |\n");
        out.push_str("|---|---|---|---|---|\n");
        for a in analyses {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                a.name,
                a.commands,
                a.total_latency_ns,
                milli(a.effective_parallelism_milli),
                a.p99_ns
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(stages: Vec<(String, u64)>, dur_ns: u64) -> SystemProfile {
        let mut p = SystemProfile {
            name: "t".into(),
            pid: 1,
            makespan_ns: dur_ns,
            channels: vec![("ch0".into(), 40), ("ch1".into(), 40)],
            ..SystemProfile::default()
        };
        p.commands.push(CommandProfile {
            trace: 1,
            op: "read".into(),
            start_ns: 0,
            dur_ns,
            tenant: None,
        });
        p.stages.insert(1, stages);
        p
    }

    #[test]
    fn exact_partition_verifies() {
        let p = profile_with(vec![("flash".into(), 60), ("link".into(), 40)], 100);
        let a = analyze(&p);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.total_latency_ns, 100);
        let flash = a.attribution.iter().find(|(s, _, _)| s == "flash");
        assert_eq!(flash, Some(&("flash".to_string(), 60, 600)));
    }

    #[test]
    fn off_by_one_partition_is_flagged() {
        let p = profile_with(vec![("flash".into(), 60), ("link".into(), 39)], 100);
        let a = analyze(&p);
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations.iter().any(|v| v.contains("99 ns")));
    }

    #[test]
    fn missing_partition_is_flagged() {
        let mut p = profile_with(vec![], 100);
        p.stages.clear();
        let a = analyze(&p);
        assert_eq!(a.violations.len(), 1);
        assert!(a
            .violations
            .iter()
            .any(|v| v.contains("no stage partition")));
    }

    #[test]
    fn parallelism_metrics_are_exact() {
        let mut p = profile_with(vec![("flash".into(), 100)], 100);
        p.banks.push(("bank0".into(), 20));
        let a = analyze(&p);
        // Two channels at 40 ns plus one bank at 20 ns, over a 100 ns
        // makespan: lane busy-sum counts channels *and* banks.
        assert_eq!(a.busy_sum_ns, 100);
        assert_eq!(a.effective_parallelism_milli, 1000);
        assert_eq!(a.jain_milli, 1000, "equal channel busy is perfectly fair");
    }

    #[test]
    fn tenant_rows_aggregate_attributed_commands_only() {
        let mut p = profile_with(vec![("flash".into(), 100)], 100);
        // Two more commands, attributed; the helper's command stays
        // unattributed (setup traffic) and must not enter tenant rows.
        for (trace, tenant, dur_ns) in [(2, 0u32, 300u64), (3, 1, 100)] {
            p.commands.push(CommandProfile {
                trace,
                op: "read".into(),
                start_ns: 0,
                dur_ns,
                tenant: Some(tenant),
            });
            p.stages.insert(trace, vec![("flash".into(), dur_ns)]);
        }
        let a = analyze(&p);
        assert_eq!(a.tenants, vec![(0, 1, 300, 750), (1, 1, 100, 250)]);
        // Jain over [300, 100]: 400² / (2·100000) = 0.8.
        assert_eq!(a.tenant_jain_milli, Some(800));
        let report = format_report(&[a]);
        assert!(report.contains("tenant[0]: 1 cmds, 300 ns total, share 75.0%"));
        assert!(report.contains("tenant fairness: jain 0.800"));
        // Single-stream analyses stay tenant-free.
        let plain = analyze(&profile_with(vec![("flash".into(), 100)], 100));
        assert!(plain.tenants.is_empty());
        assert_eq!(plain.tenant_jain_milli, None);
        assert!(!format_report(&[plain]).contains("tenant"));
    }

    #[test]
    fn jain_penalizes_imbalance() {
        // One busy channel out of two: (x)² / (2·x²) = 0.5.
        assert_eq!(jain_milli(&[100, 0]), 500);
        assert_eq!(jain_milli(&[]), 1000);
        assert_eq!(jain_milli(&[0, 0]), 1000);
    }

    #[test]
    fn parse_roundtrips_render() {
        use nds_sim::{ComponentId, Event, EventKind, SimDuration, SimTime, TraceExport};
        let sys = ComponentId::singleton("system");
        let export = TraceExport {
            events: vec![
                Event {
                    at: SimTime::ZERO,
                    component: sys,
                    kind: EventKind::TraceBegin {
                        trace: 1,
                        op: "write",
                    },
                    trace: 1,
                },
                Event {
                    at: SimTime::ZERO,
                    component: sys,
                    kind: EventKind::StageSpan {
                        trace: 1,
                        stage: nds_sim::TraceStage::Flash,
                        dur: SimDuration::from_nanos(70),
                    },
                    trace: 1,
                },
                Event {
                    at: SimTime::from_nanos(70),
                    component: sys,
                    kind: EventKind::StageSpan {
                        trace: 1,
                        stage: nds_sim::TraceStage::Queue,
                        dur: SimDuration::from_nanos(30),
                    },
                    trace: 1,
                },
                Event {
                    at: SimTime::from_nanos(100),
                    component: sys,
                    kind: EventKind::TraceEnd { trace: 1 },
                    trace: 1,
                },
            ],
            channels: vec![("flash.ch[0]".to_string(), SimDuration::from_nanos(70))],
            banks: vec![],
            makespan: SimDuration::from_nanos(100),
            tenants: Vec::new(),
        };
        let text = crate::chrome::render(&[("demo".to_string(), export)]);
        let profiles = parse(&text).expect("parse");
        assert_eq!(profiles.len(), 1);
        let p = profiles.first().expect("one system");
        assert_eq!(p.name, "demo");
        assert_eq!(p.makespan_ns, 100);
        assert_eq!(p.commands.len(), 1);
        assert_eq!(p.channels, vec![("flash.ch[0]".to_string(), 70)]);
        let a = analyze(p);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.p50_ns, a.p99_ns, "single sample: all quantiles equal");
        let report = format_report(&[a]);
        assert!(report.contains("attribution invariant: OK"));
    }
}

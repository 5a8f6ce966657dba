//! The ratcheting baseline, version 3: grandfathered violation counts per
//! `(rule, file)`, stored as `lint-baseline.json` at the workspace root.
//! (Version 2 carried a per-entry `"reachable"` sub-count for the retired
//! rule D4; such files are rejected, not silently reinterpreted.)
//!
//! The ratchet has three failure modes, all hard errors in the default run:
//!
//! * **regression** — a `(rule, file)` count above its baselined value
//!   (new violations are listed individually);
//! * **improvement** — a count *below* its baselined value; the fix is to
//!   tighten the baseline with `--update-baseline`, so counts only go down;
//! * **stale entry** — a baselined file that no longer exists, reported
//!   rather than silently kept.
//!
//! The file format is a deliberately tiny JSON subset (objects, arrays,
//! strings, non-negative integers) so the crate stays std-only.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use crate::Rule;

/// Grandfathered counts per `(rule, file)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Baselined violation counts, always positive.
    pub entries: BTreeMap<(Rule, String), usize>,
}

/// One divergence between the current tree and the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// More violations than baselined: the new ones must be fixed or
    /// suppressed.
    Regression {
        /// The rule and file that regressed.
        rule: Rule,
        /// Workspace-relative file path.
        file: String,
        /// Violations now present in the file.
        current: usize,
        /// Violations the baseline allows.
        allowed: usize,
    },
    /// Fewer violations than baselined: run `--update-baseline` to ratchet.
    Improvement {
        /// The rule and file that improved.
        rule: Rule,
        /// Workspace-relative file path.
        file: String,
        /// Violations now present in the file.
        current: usize,
        /// Violations the baseline still records.
        allowed: usize,
    },
    /// A baselined file no longer exists.
    StaleFile {
        /// The rule of the stale entry.
        rule: Rule,
        /// The recorded path that is gone.
        file: String,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Regression {
                rule,
                file,
                current,
                allowed,
            } => write!(
                f,
                "{file}: [{rule}] {current} violation(s), baseline allows {allowed}"
            ),
            Drift::Improvement {
                rule,
                file,
                current,
                allowed,
            } => write!(
                f,
                "{file}: [{rule}] improved to {current} (baseline says {allowed}); \
                 run `cargo run -p nds-lint -- --update-baseline` to ratchet"
            ),
            Drift::StaleFile { rule, file } => write!(
                f,
                "{file}: [{rule}] stale baseline entry — the file no longer exists; \
                 run `cargo run -p nds-lint -- --update-baseline`"
            ),
        }
    }
}

impl Drift {
    /// True for drifts that demand a code fix (as opposed to a baseline
    /// refresh). All drifts fail the run either way.
    pub fn is_regression(&self) -> bool {
        matches!(self, Drift::Regression { .. })
    }
}

/// Compares current counts against the baseline. `existing` is the set of
/// files that are still present, for stale-entry detection.
pub fn compare(
    current: &BTreeMap<(Rule, String), usize>,
    baseline: &Baseline,
    existing: &BTreeSet<String>,
) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for ((rule, file), &counts) in current {
        let allowed = baseline
            .entries
            .get(&(*rule, file.clone()))
            .copied()
            .unwrap_or_default();
        if counts > allowed {
            drifts.push(Drift::Regression {
                rule: *rule,
                file: file.clone(),
                current: counts,
                allowed,
            });
        }
    }
    for ((rule, file), &allowed) in &baseline.entries {
        if !existing.contains(file) {
            drifts.push(Drift::StaleFile {
                rule: *rule,
                file: file.clone(),
            });
            continue;
        }
        let counts = current
            .get(&(*rule, file.clone()))
            .copied()
            .unwrap_or_default();
        if counts < allowed {
            drifts.push(Drift::Improvement {
                rule: *rule,
                file: file.clone(),
                current: counts,
                allowed,
            });
        }
    }
    drifts
}

impl Baseline {
    /// Builds a baseline that exactly matches `current` (dropping zeros).
    pub fn from_counts(current: &BTreeMap<(Rule, String), usize>) -> Baseline {
        Baseline {
            entries: current
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| (k.clone(), c))
                .collect(),
        }
    }

    /// Loads the baseline at `path`; `Ok(None)` when the file is absent.
    pub fn load(path: &Path) -> Result<Option<Baseline>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        Baseline::parse(&text).map(Some)
    }

    /// Parses the baseline JSON (version 3; older versions are rejected so a
    /// stale format surfaces loudly instead of being half-read).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = Json::parse(text)?;
        let top = value
            .as_object()
            .ok_or("baseline: top level must be an object")?;
        let version = top
            .iter()
            .find(|(k, _)| k == "version")
            .and_then(|(_, v)| v.as_number())
            .ok_or("baseline: missing \"version\"")?;
        if version != 3 {
            return Err(format!(
                "baseline: version {version} unsupported; regenerate with \
                 `cargo run -p nds-lint -- --update-baseline` (format is now version 3)"
            ));
        }
        let entries_value = top
            .iter()
            .find(|(k, _)| k == "entries")
            .map(|(_, v)| v)
            .ok_or("baseline: missing \"entries\" array")?;
        let list = entries_value
            .as_array()
            .ok_or("baseline: \"entries\" must be an array")?;
        let mut entries = BTreeMap::new();
        for item in list {
            let obj = item
                .as_object()
                .ok_or("baseline: entry must be an object")?;
            let field = |name: &str| {
                obj.iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("baseline: entry missing \"{name}\""))
            };
            let rule_name = field("rule")?
                .as_string()
                .ok_or("baseline: \"rule\" must be a string")?;
            let rule = Rule::parse(rule_name)
                .ok_or_else(|| format!("baseline: unknown rule {rule_name:?}"))?;
            let file = field("file")?
                .as_string()
                .ok_or("baseline: \"file\" must be a string")?
                .to_string();
            let total = field("count")?
                .as_number()
                .ok_or("baseline: \"count\" must be a number")?;
            if total > 0 {
                entries.insert((rule, file), total);
            }
        }
        Ok(Baseline { entries })
    }

    /// Serializes the baseline, sorted by `(rule, file)` for stable diffs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(
            "  \"_comment\": \"nds-lint ratchet: grandfathered violations per (rule, file). \
             Counts may only decrease; refresh with `cargo run -p nds-lint -- \
             --update-baseline`.\",\n",
        );
        out.push_str("  \"version\": 3,\n");
        out.push_str("  \"entries\": [\n");
        let mut first = true;
        for ((rule, file), count) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"count\": {count} }}",
                rule.name(),
                json_escape(file)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Total baselined counts for one rule (for summaries).
    pub fn total(&self, rule: Rule) -> usize {
        let of_rule = self.entries.iter().filter(|((r, _), _)| *r == rule);
        of_rule.map(|(_, count)| count).sum()
    }
}

/// `s` with JSON string escapes applied (no surrounding quotes) — shared by
/// the baseline file and the `--json` report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The tiny JSON subset the baseline file uses.
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Text(String),
    Number(usize),
}

impl Json {
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    fn as_string(&self) -> Option<&str> {
        match self {
            Json::Text(s) => Some(s),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<usize> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Json::parse_value(bytes, &mut pos)?;
        Json::skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("baseline: trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        Json::skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    Json::skip_ws(bytes, pos);
                    if bytes.get(*pos) == Some(&b'}') {
                        *pos += 1;
                        break;
                    }
                    let key = match Json::parse_value(bytes, pos)? {
                        Json::Text(s) => s,
                        _ => return Err("baseline: object key must be a string".into()),
                    };
                    Json::skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("baseline: expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    let value = Json::parse_value(bytes, pos)?;
                    fields.push((key, value));
                    Json::skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(format!("baseline: expected ',' or '}}' at byte {pos}")),
                    }
                }
                Ok(Json::Object(fields))
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::skip_ws(bytes, pos);
                    if bytes.get(*pos) == Some(&b']') {
                        *pos += 1;
                        break;
                    }
                    items.push(Json::parse_value(bytes, pos)?);
                    Json::skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(format!("baseline: expected ',' or ']' at byte {pos}")),
                    }
                }
                Ok(Json::Array(items))
            }
            Some(b'"') => {
                *pos += 1;
                let mut s = String::new();
                while let Some(&b) = bytes.get(*pos) {
                    match b {
                        b'"' => {
                            *pos += 1;
                            return Ok(Json::Text(s));
                        }
                        b'\\' => {
                            let escaped = bytes.get(*pos + 1).ok_or("baseline: dangling escape")?;
                            s.push(match escaped {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'n' => '\n',
                                b't' => '\t',
                                other => {
                                    return Err(format!(
                                        "baseline: unsupported escape \\{}",
                                        *other as char
                                    ))
                                }
                            });
                            *pos += 2;
                        }
                        _ => {
                            s.push(b as char);
                            *pos += 1;
                        }
                    }
                }
                Err("baseline: unterminated string".into())
            }
            Some(b) if b.is_ascii_digit() => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                let digits = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                digits
                    .parse::<usize>()
                    .map(Json::Number)
                    .map_err(|e| format!("baseline: bad number {digits:?}: {e}"))
            }
            other => Err(format!(
                "baseline: unexpected input {:?} at byte {pos}",
                other.map(|b| *b as char)
            )),
        }
    }
}

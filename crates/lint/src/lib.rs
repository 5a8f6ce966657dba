//! `nds-lint`: a flow-aware determinism/invariant linter for the NDS
//! workspace, with a ratcheting baseline.
//!
//! Every correctness claim this reproduction makes — byte-identity of the
//! fig9/fig10 sweeps with the plan cache on or off, rate-0 fault-schedule
//! identity, WFQ shares tracking weights, tenant isolation — rests on the
//! simulator being *deterministic by construction*. This crate turns that
//! contract from tribal knowledge into a machine-checked gate. It is
//! deliberately std-only (offline-safe, like the `crates/compat/*` stubs)
//! and built in layers:
//!
//! 1. a real token-stream lexer ([`lexer`]) — raw/byte strings, nested
//!    block comments, char-vs-lifetime disambiguation, doc comments — so
//!    rules never fire inside literals or comments;
//! 2. a per-file item index ([`items`]) — `fn` items and their line
//!    spans — so rules can reason about one function at a time;
//! 3. the rules themselves, over masked lines and the token stream.
//!
//! # Rules
//!
//! * **D1 — no ambient nondeterminism in simulation crates.** Wall-clock
//!   reads (`std::time::Instant`, `SystemTime`), OS randomness
//!   (`thread_rng`, `rand::random`) and environment reads (`std::env::*`)
//!   are banned outside test/bench code. Modeled time comes from
//!   `nds_sim::SimTime` alone.
//! * **D2 — no `HashMap`/`HashSet` in data-path code.** Hash iteration
//!   order is randomized per process; if it reaches a schedule or an output
//!   buffer the differential harnesses silently stop proving anything. Use
//!   `BTreeMap`/`BTreeSet` or sort explicitly.
//! * **D3 — no raw modeled-time arithmetic outside the clock API.**
//!   `as_nanos()` fed into arithmetic, or `from_nanos(...)` with a
//!   non-literal argument, bypasses the typed `SimTime`/`SimDuration`
//!   operators. Only `crates/sim` (the clock/stats API home) may do raw
//!   nanosecond math.
//! * **D4 is retired.** Panic paths in the data-path crates are held at
//!   zero by clippy (`unwrap_used`, `expect_used`, `indexing_slicing`,
//!   `panic`, … denied crate-wide; DESIGN.md "Panic policy"), which sees
//!   types where this linter saw substrings. The name is not reused, and a
//!   leftover `allow(D4, …)` directive is a malformed-directive error.
//! * **D5 — checked virtual-time/modeled-cost arithmetic.** Unchecked `+`
//!   or `*` on u128 finish-tag/virtual-time values or on
//!   `as_nanos()`-derived integer costs silently wraps; data-path code
//!   must use `checked_*`/`saturating_*` and surface a typed error.
//! * **D6 — tenant-isolation discipline.** Inside `crates/system`, a
//!   function that handles a `tenant` and resolves a dataset id
//!   (`read_into`/`write`/`shape_of`) must call the isolation guard
//!   (`guard`/`owner_of`) *before* the first resolution, so a fast path
//!   cannot skip the check the dynamic probes only sample.
//! * **D7 — no floating point in deterministic data paths.** f32/f64
//!   types, `*_f32`/`*_f64` conversions, and float literals are confined
//!   to `crates/prof`, `crates/bench`, and test code.
//!
//! # Suppressions
//!
//! A violation can be acknowledged in place with
//!
//! ```text
//! // nds-lint: allow(D2, keyed access only, never iterated)
//! let map: HashMap<K, V> = HashMap::new();
//! ```
//!
//! The directive needs a rule name *and* a non-empty reason; it applies to
//! its own line and, when it stands alone on a line, to the next line.
//! Malformed directives are hard errors, and so are **stale** ones: an
//! `allow(...)` that no longer masks any violation must be deleted, not
//! left to rot.
//!
//! # Ratcheting baseline (version 3)
//!
//! Pre-existing violations are grandfathered in `lint-baseline.json`,
//! counted per `(rule, file)`. New violations fail; reductions fail too
//! until the baseline is tightened with `--update-baseline`, so counts only
//! go down. A baseline entry for a file that no longer exists is reported
//! as stale.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod items;
pub mod lexer;

use lexer::{MaskedSource, Token, TokenKind};

/// A named invariant the linter enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Ambient nondeterminism (wall clock, OS rng, environment) in
    /// simulation crates.
    D1,
    /// `HashMap`/`HashSet` in data-path code.
    D2,
    /// Raw modeled-time arithmetic outside the `nds-sim` clock API.
    D3,
    /// Unchecked `+`/`*` on u128 virtual-time / modeled-cost arithmetic.
    D5,
    /// Dataset-id resolution not dominated by the tenant-isolation guard.
    D6,
    /// Floating point in a deterministic data path.
    D7,
    /// A malformed `nds-lint:` directive — never baselined, always an error.
    BadDirective,
    /// An `nds-lint: allow(...)` that suppresses nothing — never baselined,
    /// always an error.
    StaleSuppression,
}

impl Rule {
    /// The baselinable rules, in report order.
    pub const ALL: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::D5, Rule::D6, Rule::D7];

    /// Canonical name, as used in directives and the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::BadDirective => "directive",
            Rule::StaleSuppression => "stale-suppression",
        }
    }

    /// Parses a rule name as written in a suppression or the baseline.
    pub fn parse(name: &str) -> Option<Rule> {
        match name.trim() {
            "D1" | "d1" => Some(Rule::D1),
            "D2" | "d2" => Some(Rule::D2),
            "D3" | "d3" => Some(Rule::D3),
            "D5" | "d5" => Some(Rule::D5),
            "D6" | "d6" => Some(Rule::D6),
            "D7" | "d7" => Some(Rule::D7),
            _ => None,
        }
    }

    /// One-line description used in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "ambient nondeterminism in a simulation crate",
            Rule::D2 => "HashMap/HashSet in data-path code",
            Rule::D3 => "raw modeled-time arithmetic outside the clock API",
            Rule::D5 => "unchecked virtual-time/cost arithmetic",
            Rule::D6 => "dataset resolution not dominated by the tenant guard",
            Rule::D7 => "floating point in a deterministic data path",
            Rule::BadDirective => "malformed nds-lint directive",
            Rule::StaleSuppression => "stale nds-lint suppression",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    bits: u16,
}

impl RuleSet {
    /// No rules.
    pub const EMPTY: RuleSet = RuleSet { bits: 0 };

    fn bit(rule: Rule) -> u16 {
        match rule {
            Rule::D1 => 1,
            Rule::D2 => 2,
            Rule::D3 => 4,
            Rule::D5 => 16,
            Rule::D6 => 32,
            Rule::D7 => 64,
            Rule::BadDirective => 128,
            Rule::StaleSuppression => 256,
        }
    }

    /// A set from the given rules.
    pub fn of(rules: &[Rule]) -> RuleSet {
        let mut s = RuleSet::EMPTY;
        for &r in rules {
            s.bits |= RuleSet::bit(r);
        }
        s
    }

    /// Whether `rule` is in the set.
    pub fn contains(self, rule: Rule) -> bool {
        self.bits & RuleSet::bit(rule) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates whose lib code models simulated behaviour: rules D1/D3 apply.
const SIM_CRATES: &[&str] = &[
    "sim",
    "faults",
    "flash",
    "interconnect",
    "core",
    "host",
    "accel",
    "system",
    "workloads",
    "prof",
];

/// Crates on the modeled data/timing path: rules D2/D5 apply on top.
const DATA_PATH_CRATES: &[&str] = &["core", "flash", "interconnect", "system", "prof"];

/// Crates where floating point is banned (D7). `prof` is the sanctioned
/// home for derived statistics, so it is data-path for D2/D5 but not for
/// D7.
const D7_CRATES: &[&str] = &["core", "flash", "interconnect", "system"];

/// Classifies a workspace-relative path into the rules that apply to it.
///
/// Only library sources (`crates/<name>/src/**`) are linted: integration
/// tests, benches, examples, the reporting-only `bench` crate, the vendored
/// `compat` stubs, and the linter itself are exempt by construction.
/// `crates/sim` is the clock/stats API home, so D3 does not apply there.
pub fn rules_for(rel_path: &str) -> RuleSet {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return RuleSet::EMPTY;
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return RuleSet::EMPTY;
    };
    if !tail.starts_with("src/") {
        return RuleSet::EMPTY;
    }
    let mut rules = Vec::new();
    if SIM_CRATES.contains(&krate) {
        rules.push(Rule::D1);
        if krate != "sim" {
            rules.push(Rule::D3);
        }
    }
    if DATA_PATH_CRATES.contains(&krate) {
        rules.push(Rule::D2);
        rules.push(Rule::D5);
    }
    if krate == "system" {
        rules.push(Rule::D6);
    }
    if D7_CRATES.contains(&krate) {
        rules.push(Rule::D7);
    }
    // The observability module feeds RunReport serialization; hash-ordered
    // containers there would leak nondeterminism into report JSON, so it
    // gets D2 despite living in the clock/stats crate.
    if rel_path == "crates/sim/src/obs.rs" {
        rules.push(Rule::D2);
    }
    RuleSet::of(&rules)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True if `needle` occurs in `line` with non-identifier characters (or the
/// text boundary) on both sides.
fn has_token(line: &str, needle: &str) -> bool {
    let lb = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(lb[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= lb.len() || !is_ident(lb[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Marks the lines covered by `#[cfg(test)]` / `#[test]` / `#[bench]` items
/// (attribute line through the item's closing brace) as exempt.
fn test_exempt_lines(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count() + 1;
    let mut exempt = vec![false; line_count + 1];
    let bytes = masked.as_bytes();
    // Byte offset -> line lookup.
    let mut line_of = Vec::with_capacity(bytes.len() + 1);
    let mut ln = 1usize;
    for &b in bytes {
        line_of.push(ln);
        if b == b'\n' {
            ln += 1;
        }
    }
    line_of.push(ln);
    let mut i = 0;
    while let Some(pos) = masked[i..].find("#[") {
        let attr_start = i + pos;
        // Read the attribute to its matching `]`.
        let mut depth = 0usize;
        let mut j = attr_start + 1;
        while j < bytes.len() {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= bytes.len() {
            break;
        }
        let attr = &masked[attr_start + 2..j];
        let is_test_attr = has_token(attr, "test") && !attr.contains("not(test")
            || has_token(attr, "bench") && !attr.contains("not(bench");
        i = j + 1;
        if !is_test_attr {
            continue;
        }
        // Find the item body: the first `{` before any top-level `;`.
        let mut k = j + 1;
        let mut body_start = None;
        let mut paren = 0isize;
        while k < bytes.len() {
            match bytes[k] {
                b'(' | b'<' => paren += 1,
                b')' | b'>' => paren -= 1,
                b';' if paren <= 0 => break,
                b'{' => {
                    body_start = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(open) = body_start else {
            // Item without a body (e.g. an attributed `use`): exempt just
            // its own lines.
            for l in line_of[attr_start]..=line_of[k.min(bytes.len())] {
                if l < exempt.len() {
                    exempt[l] = true;
                }
            }
            continue;
        };
        let mut braces = 0usize;
        let mut end = open;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => braces += 1,
                b'}' => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        for l in line_of[attr_start]..=line_of[end.min(bytes.len())] {
            if l < exempt.len() {
                exempt[l] = true;
            }
        }
        i = j + 1;
    }
    exempt
}

/// A parsed `// nds-lint: allow(<rule>, <reason>)` directive.
struct Suppression {
    line: usize,
    rule: Rule,
    standalone: bool,
}

/// Extracts suppressions from comments; malformed directives become
/// [`Rule::BadDirective`] violations.
fn parse_directives(
    comments: &[(usize, String, bool)],
    file: &str,
) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for (line, text, standalone) in comments {
        let Some(at) = text.find("nds-lint:") else {
            continue;
        };
        let directive = text[at + "nds-lint:".len()..].trim();
        let parsed = directive
            .strip_prefix("allow(")
            .and_then(|rest| rest.rfind(')').map(|close| &rest[..close]))
            .and_then(|inner| {
                let (rule_name, reason) = inner.split_once(',')?;
                let rule = Rule::parse(rule_name)?;
                if reason.trim().is_empty() {
                    None
                } else {
                    Some(rule)
                }
            });
        match parsed {
            Some(rule) => sups.push(Suppression {
                line: *line,
                rule,
                standalone: *standalone,
            }),
            None => bad.push(Violation {
                rule: Rule::BadDirective,
                file: file.to_string(),
                line: *line,
                message: format!(
                    "unparseable directive {directive:?}; use \
                     `nds-lint: allow(<D1|D2|D3|D5|D6|D7>, <reason>)` with a non-empty reason"
                ),
            }),
        }
    }
    (sups, bad)
}

/// Ambient-nondeterminism sources banned by D1.
const D1_NEEDLES: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
    "std::env::",
    "env::var(",
    "env::vars(",
    "env::args(",
];

/// True if the masked line does raw modeled-time arithmetic (rule D3).
fn is_raw_time_arith(line: &str) -> bool {
    if line.contains("as_nanos()") {
        let arith = line.contains('*')
            || line.contains('/')
            || line.contains(" + ")
            || line.contains(" - ")
            || line.contains("+=")
            || line.contains("-=");
        if arith {
            return true;
        }
    }
    if let Some(at) = line.find("from_nanos(") {
        let rest = &line[at + "from_nanos(".len()..];
        let arg = rest.split(')').next().unwrap_or(rest).trim();
        let literal = !arg.is_empty() && arg.bytes().all(|c| c.is_ascii_digit() || c == b'_');
        if !literal {
            return true;
        }
    }
    false
}

/// Everything the flow-aware rules need about one file: its token stream,
/// the masked text, and the item index.
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated (reporting key).
    pub rel_path: String,
    /// The raw source.
    pub src: String,
    /// The full token stream of `src`.
    pub tokens: Vec<Token>,
    /// `src` with comments and textual literals blanked.
    pub masked: MaskedSource,
    /// Recognized `fn` items with their line spans.
    pub items: items::ItemIndex,
}

impl FileAnalysis {
    /// Lexes and indexes one file.
    pub fn new(src: &str, rel_path: &str) -> FileAnalysis {
        let tokens = lexer::lex(src);
        let masked = lexer::mask(src, &tokens);
        let items = items::build_items(src, &tokens);
        FileAnalysis {
            rel_path: rel_path.to_string(),
            src: src.to_string(),
            tokens,
            masked,
            items,
        }
    }

    /// Significant (non-comment, non-textual-literal) tokens on each line,
    /// keyed by 1-based line number. Multi-line tokens appear under their
    /// start line.
    fn line_tokens(&self) -> BTreeMap<usize, Vec<&Token>> {
        let mut map: BTreeMap<usize, Vec<&Token>> = BTreeMap::new();
        for t in &self.tokens {
            if t.kind.is_comment() || t.kind.is_textual_literal() {
                continue;
            }
            map.entry(t.line).or_default().push(t);
        }
        map
    }
}

/// Keywords that must not count as the left operand of a binary `+`/`*`
/// (so `return *x` / `match *x` are not read as arithmetic).
const EXPR_KEYWORDS: &[&str] = &[
    "return", "break", "in", "if", "else", "match", "while", "let", "mut", "ref", "move", "as",
    "loop", "yield",
];

/// D5 state for one function: identifiers tainted as virtual-time/cost
/// values (u128-typed, `as_nanos()`-derived, or the `COST_SCALE` family).
fn d5_tainted_idents(analysis: &FileAnalysis, f: &items::FnItem) -> BTreeSet<String> {
    let mut tainted = BTreeSet::new();
    let line_tokens = analysis.line_tokens();
    for (_, toks) in line_tokens.range(f.start_line..=f.end_line) {
        let texts: Vec<&str> = toks.iter().map(|t| t.text(&analysis.src)).collect();
        let hot = texts
            .iter()
            .any(|t| *t == "u128" || *t == "as_nanos" || *t == "COST_SCALE");
        if !hot {
            continue;
        }
        // `let [mut] <id>` on a hot line taints <id>; `<id>: u128` (a
        // parameter or binding annotation) taints <id> too.
        for w in 0..texts.len() {
            if texts[w] == "let" {
                let name_at = if texts.get(w + 1) == Some(&"mut") {
                    w + 2
                } else {
                    w + 1
                };
                if let Some(t) = toks.get(name_at) {
                    if t.kind == TokenKind::Ident {
                        tainted.insert(t.text(&analysis.src).to_string());
                    }
                }
            }
            if texts[w] == "u128"
                && w >= 2
                && texts[w - 1] == ":"
                && toks[w - 2].kind == TokenKind::Ident
            {
                tainted.insert(texts[w - 2].to_string());
            }
        }
    }
    tainted.insert("COST_SCALE".to_string());
    tainted
}

/// Scans one analyzed file under `rules`.
fn scan_analyzed(analysis: &FileAnalysis, rules: RuleSet) -> Vec<Violation> {
    let rel_path = analysis.rel_path.as_str();
    let (sups, mut hard_errors) = parse_directives(&analysis.masked.comments, rel_path);
    let exempt = test_exempt_lines(&analysis.masked.text);
    let is_exempt = |line: usize| *exempt.get(line).unwrap_or(&false);
    let line_tokens = analysis.line_tokens();

    // Raw findings, before suppression filtering.
    let mut raw: Vec<Violation> = Vec::new();
    let push = |raw: &mut Vec<Violation>, rule: Rule, line: usize, message: String| {
        raw.push(Violation {
            rule,
            file: rel_path.to_string(),
            line,
            message,
        });
    };

    for (idx, line) in analysis.masked.text.lines().enumerate() {
        let lineno = idx + 1;
        if is_exempt(lineno) {
            continue;
        }
        if rules.contains(Rule::D1) {
            if let Some(needle) = D1_NEEDLES.iter().find(|n| line.contains(*n)) {
                push(
                    &mut raw,
                    Rule::D1,
                    lineno,
                    format!(
                        "`{needle}` — simulation code must be free of wall-clock, \
                         OS randomness, and environment reads"
                    ),
                );
            }
        }
        if rules.contains(Rule::D2) && (has_token(line, "HashMap") || has_token(line, "HashSet")) {
            push(
                &mut raw,
                Rule::D2,
                lineno,
                "hash collections have randomized iteration order; use \
                 BTreeMap/BTreeSet or sort explicitly"
                    .to_string(),
            );
        }
        if rules.contains(Rule::D3) && is_raw_time_arith(line) {
            push(
                &mut raw,
                Rule::D3,
                lineno,
                "raw modeled-time arithmetic; use the SimTime/SimDuration \
                 operators (Add/Sub/Mul/Div) instead of nanosecond math"
                    .to_string(),
            );
        }
        if rules.contains(Rule::D7) {
            if let Some(toks) = line_tokens.get(&lineno) {
                let float = toks.iter().find(|t| match t.kind {
                    TokenKind::Number { float } => float,
                    TokenKind::Ident => {
                        let text = t.text(&analysis.src);
                        text == "f32"
                            || text == "f64"
                            || text.ends_with("_f32")
                            || text.ends_with("_f64")
                    }
                    _ => false,
                });
                if let Some(t) = float {
                    push(
                        &mut raw,
                        Rule::D7,
                        lineno,
                        format!(
                            "`{}` — floating point is nondeterministic across \
                             targets/opt-levels; deterministic data paths must use \
                             integer (fixed-point) arithmetic",
                            t.text(&analysis.src)
                        ),
                    );
                }
            }
        }
    }

    // D5: per-function taint, then statement-level unchecked +/* detection.
    if rules.contains(Rule::D5) {
        for f in &analysis.items.functions {
            let tainted = d5_tainted_idents(analysis, f);
            for (lineno, toks) in line_tokens.range(f.start_line..=f.end_line) {
                if is_exempt(*lineno) {
                    continue;
                }
                // Nested fns own their lines.
                if analysis.items.enclosing_fn(*lineno).map(|g| g.start_line) != Some(f.start_line)
                {
                    continue;
                }
                let texts: Vec<&str> = toks.iter().map(|t| t.text(&analysis.src)).collect();
                let hot = texts
                    .iter()
                    .any(|t| *t == "u128" || *t == "as_nanos" || tainted.contains(*t));
                if !hot {
                    continue;
                }
                // A checked/saturating/wrapping call on the line sanctions
                // it (statement granularity, documented approximation).
                if texts.iter().any(|t| {
                    t.starts_with("checked_")
                        || t.starts_with("saturating_")
                        || t.starts_with("wrapping_")
                        || t.starts_with("overflowing_")
                }) {
                    continue;
                }
                // A binary `+` or `*`: previous significant token is an
                // operand end. CamelCase idents on the left are type
                // bounds (`T: Add + Mul`), not values; SCREAMING_CASE
                // consts still count.
                let mut fired = false;
                for w in 1..toks.len() {
                    if fired {
                        break;
                    }
                    if toks[w].kind != TokenKind::Punct || !matches!(texts[w], "+" | "*") {
                        continue;
                    }
                    let prev = toks[w - 1];
                    let prev_text = texts[w - 1];
                    let operand_end = match prev.kind {
                        TokenKind::Ident => {
                            !EXPR_KEYWORDS.contains(&prev_text)
                                && (!prev_text.starts_with(char::is_uppercase)
                                    || !prev_text.chars().any(char::is_lowercase))
                        }
                        TokenKind::Number { .. } => true,
                        TokenKind::Punct => matches!(prev_text, ")" | "]"),
                        _ => false,
                    };
                    if operand_end {
                        push(
                            &mut raw,
                            Rule::D5,
                            *lineno,
                            format!(
                                "unchecked `{}` on virtual-time/cost arithmetic; use \
                                 checked_*/saturating_* and surface a typed overflow error",
                                texts[w]
                            ),
                        );
                        fired = true;
                    }
                }
            }
        }
    }

    // D6: guard-dominance inside tenant-handling functions.
    if rules.contains(Rule::D6) {
        for f in &analysis.items.functions {
            let mut mentions_tenant = false;
            let mut first_guard: Option<usize> = None;
            let mut first_resolve: Option<usize> = None;
            for (lineno, toks) in line_tokens.range(f.start_line..=f.end_line) {
                if analysis.items.enclosing_fn(*lineno).map(|g| g.start_line) != Some(f.start_line)
                {
                    continue;
                }
                let texts: Vec<&str> = toks.iter().map(|t| t.text(&analysis.src)).collect();
                for w in 0..texts.len() {
                    if toks[w].kind != TokenKind::Ident {
                        continue;
                    }
                    if texts[w] == "tenant" || texts[w] == "tenant_id" {
                        mentions_tenant = true;
                    }
                    let called = texts.get(w + 1) == Some(&"(");
                    if !called {
                        continue;
                    }
                    match texts[w] {
                        "guard" | "owner_of" => {
                            first_guard.get_or_insert(*lineno);
                        }
                        "read_into" | "write" | "shape_of" => {
                            first_resolve.get_or_insert(*lineno);
                        }
                        _ => {}
                    }
                }
            }
            if !mentions_tenant || is_exempt(f.start_line) {
                continue;
            }
            if let Some(r) = first_resolve {
                let guarded = first_guard.is_some_and(|g| g <= r);
                if !guarded && !is_exempt(r) {
                    push(
                        &mut raw,
                        Rule::D6,
                        r,
                        format!(
                            "fn `{}` resolves a dataset id before (or without) calling \
                             the isolation guard; call guard()/owner_of() first",
                            f.name
                        ),
                    );
                }
            }
        }
    }

    // Suppression filtering + stale-suppression audit.
    let mut used = vec![false; sups.len()];
    let mut kept: Vec<Violation> = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (si, s) in sups.iter().enumerate() {
            if s.rule == v.rule && (s.line == v.line || (s.standalone && s.line + 1 == v.line)) {
                used[si] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(v);
        }
    }
    if rules.contains(Rule::StaleSuppression) {
        for (si, s) in sups.iter().enumerate() {
            // A suppression inside test-exempt code suppresses nothing by
            // construction; only audit live-code directives.
            if used[si] || is_exempt(s.line) || (s.standalone && is_exempt(s.line + 1)) {
                continue;
            }
            kept.push(Violation {
                rule: Rule::StaleSuppression,
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "allow({}) suppresses no violation; delete the directive",
                    s.rule
                ),
            });
        }
    }
    kept.append(&mut hard_errors);
    kept.sort();
    kept
}

/// Lints one file's source under the given rule set (plus the
/// stale-suppression audit). `rel_path` is used for reporting only.
pub fn scan_source(src: &str, rel_path: &str, rules: RuleSet) -> Vec<Violation> {
    let with_audit = RuleSet {
        bits: rules.bits | RuleSet::bit(Rule::StaleSuppression),
    };
    scan_analyzed(&FileAnalysis::new(src, rel_path), with_audit)
}

/// Recursively lists the workspace's `.rs` files as
/// `(workspace-relative path, absolute path)`, sorted for determinism.
///
/// Skips `target/`, VCS metadata, the vendored `crates/compat` stubs, the
/// linter itself (its fixtures are violations on purpose), and any
/// directory named `fixtures`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                if rel == "crates/compat" || rel == "crates/lint" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                files.push((rel.to_string_lossy().replace('\\', "/"), path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every classified file under `root` and returns all violations.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for (rel, abs) in workspace_files(root)? {
        let rules = rules_for(&rel);
        if !rules.is_empty() {
            let src = std::fs::read_to_string(&abs)?;
            violations.extend(scan_source(&src, &rel, rules));
        }
    }
    violations.sort();
    Ok(violations)
}

/// Per-`(rule, file)` violation counts: the baseline unit. Bad directives
/// and stale suppressions are never counted — they are unconditional errors.
pub fn counts_of(violations: &[Violation]) -> BTreeMap<(Rule, String), usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        if !matches!(v.rule, Rule::BadDirective | Rule::StaleSuppression) {
            *counts.entry((v.rule, v.file.clone())).or_default() += 1;
        }
    }
    counts
}

/// The set of files that currently exist (for stale-baseline detection).
pub fn existing_files(root: &Path) -> std::io::Result<BTreeSet<String>> {
    Ok(workspace_files(root)?
        .into_iter()
        .map(|(rel, _)| rel)
        .collect())
}

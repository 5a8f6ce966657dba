//! Named counters for simulation accounting.
//!
//! Devices and systems in the reproduction report how many commands crossed
//! the I/O interface, how many bytes moved on each bus, how many pages were
//! programmed, and so on — the quantities the paper's evaluation section
//! (§7) discusses. [`Stats`] is a tiny registry of named `u64` counters that
//! every component embeds and the benches read.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A registry of named monotonic counters.
///
/// Counter names are free-form `&'static str` dotted paths by convention,
/// e.g. `"link.commands"` or `"flash.pages_read"`. A `BTreeMap` keeps report
/// output deterministically ordered.
///
/// # Example
///
/// ```
/// use nds_sim::Stats;
///
/// let mut stats = Stats::new();
/// stats.add("link.commands", 1);
/// stats.add("link.bytes", 4096);
/// stats.add("link.commands", 1);
/// assert_eq!(stats.get("link.commands"), 2);
/// assert_eq!(stats.get("link.bytes"), 4096);
/// assert_eq!(stats.get("never.touched"), 0);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent. Only
    /// the first touch of a name allocates its key.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sums every counter whose name starts with `prefix` — e.g.
    /// `sum_prefix("retries.")` aggregates `retries.flash` and
    /// `retries.link` into one recovery-effort figure.
    ///
    /// ```
    /// use nds_sim::Stats;
    ///
    /// let mut stats = Stats::new();
    /// stats.add("retries.flash", 3);
    /// stats.add("retries.link", 2);
    /// stats.add("faults.injected", 5);
    /// assert_eq!(stats.sum_prefix("retries."), 5);
    /// assert_eq!(stats.sum_prefix("nothing."), 0);
    /// ```
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(_, value)| value)
            .sum()
    }

    /// Merges another registry into this one, summing shared counters.
    pub fn merge(&mut self, other: &Stats) {
        for (name, value) in &other.counters {
            self.add(name, *value);
        }
    }

    /// Seeds a [`RunReport`](crate::RunReport) with these counters — the
    /// bridge every front-end report producer starts from.
    ///
    /// ```
    /// use nds_sim::Stats;
    ///
    /// let mut stats = Stats::new();
    /// stats.add("link.commands", 2);
    /// let report = stats.to_report();
    /// assert_eq!(report.counters.get("link.commands"), Some(&2));
    /// ```
    pub fn to_report(&self) -> crate::RunReport {
        let mut report = crate::RunReport::new();
        report.add_counters(self);
        report
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counters.is_empty() {
            return write!(f, "(no counters)");
        }
        for (name, value) in &self.counters {
            writeln!(f, "{name:<32} {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.add("a", 3);
        s.add("a", 4);
        assert_eq!(s.get("a"), 7);
        assert_eq!(s.get("b"), 0);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn merge_sums_shared_names() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut s = Stats::new();
        s.add("zeta", 1);
        s.add("alpha", 1);
        let names: Vec<_> = s.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn display_never_empty() {
        let s = Stats::new();
        assert!(!s.to_string().is_empty());
        let mut s = Stats::new();
        s.add("a.b", 9);
        assert!(s.to_string().contains("a.b"));
    }

    #[test]
    fn sum_prefix_bounds_are_exact() {
        let mut s = Stats::new();
        s.add("retries.flash", 1);
        s.add("retries.link", 2);
        // Lexicographic neighbours that must NOT be included.
        s.add("retries", 100);
        s.add("retriesx", 100);
        s.add("retrie.", 100);
        assert_eq!(s.sum_prefix("retries."), 3);
        assert_eq!(s.sum_prefix(""), 303, "empty prefix sums everything");
    }
}

//! Deterministic static HTML dashboard for windowed telemetry (ISSUE 10).
//!
//! Two artifacts make a dashboard: a byte-fixed HTML page (this module's
//! [`html_page`]) and a sibling `data.js` the page loads with a relative
//! `<script src>`. The `data.js` wraps the run's report JSON
//! ([`RunReport::to_json`](nds_sim::RunReport::to_json), the `--report`
//! artifact) **verbatim** in a `const` declaration: [`write_data_js`] makes it
//! `const RUN = …;`, and the page plots every windowed series — metric
//! series and `busy.*` timelines alike — over modeled time with
//! fault/failover marks as vertical markers, under the report's
//! `obs.health`.
//!
//! The page itself is a single fixed string: no network fetches, no
//! external assets, no dependencies, and no timestamps — rendering the
//! same artifact twice produces byte-identical HTML and `data.js`, which
//! `scripts/check.sh` enforces with `cmp`.

/// Writes a run's report JSON verbatim to `out` as the dashboard's
/// `data.js`: `const RUN = `, the JSON less trailing whitespace, and `;`,
/// with no copy of the JSON made. The input must already be valid JSON (it
/// is embedded as a JS object literal);
/// [`RunReport::to_json`](nds_sim::RunReport::to_json) output is used
/// unmodified, so the file stays byte-deterministic.
///
/// # Errors
///
/// I/O errors from `out`.
pub fn write_data_js(out: &mut impl std::io::Write, report_json: &str) -> std::io::Result<()> {
    out.write_all(b"const RUN = ")?;
    out.write_all(report_json.trim_end().as_bytes())?;
    out.write_all(b";\n")
}

/// The self-contained dashboard page, loading its data from `data_src`
/// (a relative path to the sibling `data.js`). The page renders the `RUN`
/// global the data file declares (windowed series + marks).
pub fn html_page(data_src: &str) -> String {
    TEMPLATE.replace("__DATA_SRC__", &escape_attr(data_src))
}

/// Minimal HTML attribute escaping for the script src.
fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
    out
}

const TEMPLATE: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>NDS telemetry dashboard</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1rem 2rem; background: #fdfcf7; color: #222; }
h1 { font-size: 1.1rem; }
h2 { font-size: 0.95rem; margin: 1.2rem 0 0.3rem; }
.chart { margin-bottom: 0.4rem; }
.meta, .health { font-size: 0.8rem; color: #555; white-space: pre-wrap; }
.health.bad { color: #a33; }
svg { background: #fff; border: 1px solid #ddd; }
.axis { font-size: 9px; fill: #888; }
.total { font-size: 0.8rem; color: #777; margin-left: 0.5rem; }
.marklegend { font-size: 0.8rem; color: #a33; }
</style>
</head>
<body>
<h1>NDS telemetry dashboard</h1>
<div id="root"></div>
<script src="__DATA_SRC__"></script>
<script>
"use strict";
(function () {
  var W = 720, H = 96, PAD = 28;
  var root = document.getElementById("root");

  function el(tag, attrs, text) {
    var ns = "http://www.w3.org/2000/svg";
    var svgTags = { svg: 1, polyline: 1, line: 1, text: 1, rect: 1 };
    var e = svgTags[tag] ? document.createElementNS(ns, tag) : document.createElement(tag);
    for (var k in attrs) { e.setAttribute(k, attrs[k]); }
    if (text !== undefined) { e.textContent = text; }
    return e;
  }

  function fmt(n) {
    if (n >= 1e9) { return (n / 1e9).toFixed(2) + "G"; }
    if (n >= 1e6) { return (n / 1e6).toFixed(2) + "M"; }
    if (n >= 1e3) { return (n / 1e3).toFixed(1) + "k"; }
    return String(n);
  }

  // One SVG line chart. points: array of {x, y}; marks: array of
  // {frac (0..1), label}. Returns the svg element.
  function chart(points, marks, color) {
    var svg = el("svg", { width: W, height: H + PAD });
    var maxY = 1, maxX = 1, i;
    for (i = 0; i < points.length; i++) {
      if (points[i].y > maxY) { maxY = points[i].y; }
      if (points[i].x > maxX) { maxX = points[i].x; }
    }
    var sx = function (x) { return 2 + (W - 4) * (maxX ? x / maxX : 0); };
    var sy = function (y) { return H - 2 - (H - 6) * (y / maxY); };
    var pts = [];
    for (i = 0; i < points.length; i++) {
      pts.push(sx(points[i].x).toFixed(1) + "," + sy(points[i].y).toFixed(1));
    }
    svg.appendChild(el("polyline", {
      points: pts.join(" "), fill: "none", stroke: color, "stroke-width": "1.2"
    }));
    for (i = 0; i < (marks || []).length; i++) {
      var mx = 2 + (W - 4) * marks[i].frac;
      svg.appendChild(el("line", {
        x1: mx, y1: 0, x2: mx, y2: H, stroke: "#c33", "stroke-width": "1",
        "stroke-dasharray": "3,2"
      }));
    }
    svg.appendChild(el("text", { x: 4, y: 10, "class": "axis" }, "max " + fmt(maxY)));
    svg.appendChild(el("text", { x: 4, y: H + PAD - 6, "class": "axis" }, "0"));
    svg.appendChild(el("text", { x: W - 60, y: H + PAD - 6, "class": "axis" }, fmt(maxX)));
    return svg;
  }

  function section(title, totalText) {
    var div = el("div", { "class": "chart" });
    var h = el("h2", {}, title);
    if (totalText) { h.appendChild(el("span", { "class": "total" }, totalText)); }
    div.appendChild(h);
    root.appendChild(div);
    return div;
  }

  function renderRun(run) {
    var metaLines = [];
    for (var k in run.meta) { metaLines.push(k + " = " + run.meta[k]); }
    metaLines.push("series_window_ns = " + run.series_window_ns);
    var meta = el("div", { "class": "meta" }, metaLines.join("\n"));
    root.appendChild(meta);

    var h = (run.obs || {}).health || {};
    var issues = [];
    for (k in h.histogram_saturated || {}) {
      issues.push("histogram saturated: " + k + " (" + h.histogram_saturated[k] + ")");
    }
    for (k in h.series_overflow || {}) {
      issues.push("series overflow: " + k + " (+" + h.series_overflow[k] + ")");
    }
    root.appendChild(el("div", { "class": "health" + (issues.length ? " bad" : "") },
      issues.length ? "health: " + issues.join("; ") : "health: ok"));

    var names = Object.keys(run.series || {}).sort();
    var windowNs = run.series_window_ns || 1;
    var maxWindows = 1;
    var i, j;
    for (i = 0; i < names.length; i++) {
      var len = run.series[names[i]].values.length;
      if (len > maxWindows) { maxWindows = len; }
    }
    var spanNs = maxWindows * windowNs;
    var marks = [];
    for (i = 0; i < (run.marks || []).length; i++) {
      marks.push({ frac: Math.min(1, run.marks[i].at_ns / spanNs), label: run.marks[i].label });
    }
    if (marks.length) {
      var legend = [];
      for (i = 0; i < marks.length; i++) {
        legend.push("| " + run.marks[i].label + " @ " + fmt(run.marks[i].at_ns) + "ns");
      }
      root.appendChild(el("div", { "class": "marklegend" }, legend.join("  ")));
    }
    for (i = 0; i < names.length; i++) {
      var s = run.series[names[i]];
      var points = [];
      for (j = 0; j < s.values.length; j++) { points.push({ x: j, y: s.values[j] }); }
      if (!points.length) { points.push({ x: 0, y: 0 }); }
      var div = section(names[i], s.kind + "  total " + fmt(s.total) +
        (s.overflow ? "  overflow " + fmt(s.overflow) : ""));
      div.appendChild(chart(points, marks, s.kind === "gauge" ? "#27a" : "#283"));
    }
  }

  if (typeof RUN !== "undefined") {
    renderRun(RUN);
  } else {
    root.appendChild(el("div", { "class": "health bad" },
      "no data: data.js did not define RUN"));
  }
})();
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_wrappers_embed_verbatim_and_are_deterministic() {
        let json = "{\n  \"series\": {}\n}\n";
        let data_js = || {
            let mut out = Vec::new();
            write_data_js(&mut out, json).unwrap();
            String::from_utf8(out).unwrap()
        };
        let (a, b) = (data_js(), data_js());
        assert_eq!(a, b);
        assert!(a.starts_with("const RUN = {"));
        assert!(a.ends_with("};\n"));
    }

    #[test]
    fn page_is_self_contained_and_references_data() {
        let page = html_page("fig9.data.js");
        assert_eq!(page, html_page("fig9.data.js"), "byte-deterministic");
        assert!(page.contains("<script src=\"fig9.data.js\"></script>"));
        assert!(!page.contains("https://"), "no network fetches");
        assert!(!page.contains("fetch("), "no network fetches");
        assert!(!page.contains("XMLHttpRequest"), "no network fetches");
        assert!(page.contains("renderRun"));
        assert!(
            !page.to_lowercase().contains("trajectory"),
            "the page renders runs only; benchmark/ is the per-commit scoreboard"
        );
    }

    #[test]
    fn data_src_is_attribute_escaped() {
        let page = html_page("a\"b<c>.js");
        assert!(page.contains("src=\"a&quot;b&lt;c&gt;.js\""));
    }
}

//! CLI for the workspace determinism/invariant linter.
//!
//! ```text
//! cargo run -p nds-lint                       # gate: compare tree vs baseline
//! cargo run -p nds-lint -- --update-baseline  # ratchet the baseline down
//! cargo run -p nds-lint -- --list             # dump every current violation
//! cargo run -p nds-lint -- --summary          # per-rule totals only
//! cargo run -p nds-lint -- --json report.json # machine-readable report
//! ```
//!
//! Exit codes: 0 clean, 1 violations/drift, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use nds_lint::baseline::{compare, json_escape, Baseline, Drift};
use nds_lint::{counts_of, existing_files, lint_workspace, Rule, Violation};

struct Options {
    root: PathBuf,
    baseline_path: PathBuf,
    update_baseline: bool,
    list: bool,
    summary: bool,
    json_path: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: nds-lint [--root PATH] [--baseline PATH] [--update-baseline] [--list] [--summary] \
     [--json PATH]"
}

fn parse_args() -> Result<Options, String> {
    // The linter lives at <root>/crates/lint, so the workspace root is two
    // levels up from the manifest; --root overrides (e.g. for an installed
    // binary run elsewhere).
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut opts = Options {
        root: default_root,
        baseline_path: PathBuf::new(),
        update_baseline: false,
        list: false,
        summary: false,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    let mut baseline_override = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                opts.root = PathBuf::from(value);
            }
            "--baseline" => {
                let value = args.next().ok_or("--baseline needs a path")?;
                baseline_override = Some(PathBuf::from(value));
            }
            "--json" => {
                let value = args.next().ok_or("--json needs a path")?;
                opts.json_path = Some(PathBuf::from(value));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--list" => opts.list = true,
            "--summary" => opts.summary = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !opts.root.is_dir() {
        return Err(format!(
            "workspace root {} is not a directory",
            opts.root.display()
        ));
    }
    opts.baseline_path = baseline_override.unwrap_or_else(|| opts.root.join("lint-baseline.json"));
    Ok(opts)
}

/// `(violations, files)` of one rule.
fn rule_totals(violations: &[Violation], rule: Rule) -> (usize, usize) {
    let counts = counts_of(violations);
    let of_rule = counts.iter().filter(|((r, _), _)| *r == rule);
    of_rule.fold((0, 0), |(total, files), (_, count)| {
        (total + count, files + 1)
    })
}

fn print_summary(violations: &[Violation]) {
    for rule in Rule::ALL {
        let (total, files) = rule_totals(violations, rule);
        println!(
            "{rule}: {total} violation(s) in {files} file(s) — {}",
            rule.summary()
        );
    }
}

/// The machine-readable report `--json` writes: every violation plus
/// per-rule totals and the drift verdict, so CI can archive one artifact.
fn json_report(violations: &[Violation], drifts: &[Drift], failed: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 3,\n");
    out.push_str(&format!("  \"failed\": {failed},\n"));
    out.push_str("  \"summary\": {\n");
    let mut first = true;
    for rule in Rule::ALL {
        let (total, files) = rule_totals(violations, rule);
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    \"{}\": {{ \"total\": {total}, \"files\": {files} }}",
            rule.name()
        ));
    }
    out.push_str("\n  },\n");
    out.push_str(&format!("  \"drifts\": {},\n", drifts.len()));
    out.push_str("  \"violations\": [\n");
    let mut first = true;
    for v in violations {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\" }}",
            v.rule.name(),
            json_escape(&v.file),
            v.line,
            json_escape(&v.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let violations = lint_workspace(&opts.root).map_err(|e| format!("walking workspace: {e}"))?;
    let hard_errors: Vec<_> = violations
        .iter()
        .filter(|v| matches!(v.rule, Rule::BadDirective | Rule::StaleSuppression))
        .collect();
    let counts = counts_of(&violations);

    if opts.list {
        for v in &violations {
            println!("{v}");
        }
        print_summary(&violations);
        return Ok(ExitCode::SUCCESS);
    }
    if opts.summary {
        print_summary(&violations);
        return Ok(ExitCode::SUCCESS);
    }

    for v in &hard_errors {
        eprintln!("error: {v}");
    }

    if opts.update_baseline {
        let baseline = Baseline::from_counts(&counts);
        std::fs::write(&opts.baseline_path, baseline.to_json())
            .map_err(|e| format!("writing {}: {e}", opts.baseline_path.display()))?;
        println!("wrote {}", opts.baseline_path.display());
        print_summary(&violations);
        if let Some(path) = &opts.json_path {
            std::fs::write(path, json_report(&violations, &[], !hard_errors.is_empty()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        return Ok(if hard_errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let baseline = Baseline::load(&opts.baseline_path)?.unwrap_or_default();
    let existing = existing_files(&opts.root).map_err(|e| format!("walking workspace: {e}"))?;
    let drifts = compare(&counts, &baseline, &existing);
    let mut failed = !hard_errors.is_empty();
    for drift in &drifts {
        failed = true;
        eprintln!("error: {drift}");
        if drift.is_regression() {
            // Show the individual violations so the developer can see the
            // lines without re-running with --list.
            if let Drift::Regression { rule, file, .. } = drift {
                for v in violations
                    .iter()
                    .filter(|v| v.rule == *rule && &v.file == file)
                {
                    eprintln!("  {v}");
                }
            }
        }
    }
    if let Some(path) = &opts.json_path {
        std::fs::write(path, json_report(&violations, &drifts, failed))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if failed {
        eprintln!(
            "nds-lint: FAILED — fix or suppress with `// nds-lint: allow(<rule>, <reason>)`, \
             or ratchet improvements with `cargo run -p nds-lint -- --update-baseline`"
        );
        Ok(ExitCode::FAILURE)
    } else {
        println!(
            "nds-lint: clean (baseline {})",
            opts.baseline_path.display()
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("nds-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

//! Workspace-native static analysis.
//!
//! `cargo run -p xtask -- lint` walks every library source file under
//! `crates/`, lexes it with a real Rust lexer, applies the repo's lint
//! rules, and compares the per-file violation counts against the
//! checked-in ratchet baseline (`ci/lint-baseline.json`). The run fails
//! if any file's count rises; falling counts are reported so the
//! baseline can be tightened with `--update-baseline`.
//!
//! `cargo run -p xtask -- waivers` audits the lint waivers instead:
//! it lists every `lint: allow(…)` site with its documented reason,
//! flags stale waivers whose debt has since been paid, and fails if a
//! strict crate (one required to carry zero baselined lint debt, such
//! as the service crate) has ratcheted violations or baseline entries.
//!
//! Exit codes: 0 = clean, 1 = lint/audit failures, 2 = usage or I/O
//! error.

mod baseline;
mod json;
mod lexer;
mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use baseline::Baseline;
use rules::{check_file, RULE_NO_PANIC};

/// Crates whose library panic-site totals are tracked against the seed
/// counts recorded in the baseline.
const SEED_CRATES: [&str; 3] = ["spicenet", "core", "timan"];

/// Crates required to carry ZERO baselined lint debt: every rule hit in
/// their library code must be fixed or explicitly waived with a reason.
/// The `waivers` audit fails if one of these crates has a ratcheted
/// violation or a `ci/lint-baseline.json` entry — so no new unwaivered
/// site can land in the service, the solver or the logic simulator
/// behind the baseline.
const STRICT_CRATES: [&str; 3] = ["coolserved", "logicsim", "spicenet"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xtask: error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- <lint|waivers> [--update-baseline] \
                     [--baseline <path>] [--root <path>]";

fn run(args: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    if command != "lint" && command != "waivers" {
        return Err(format!("unknown command `{command}`; {USAGE}"));
    }
    let mut update = false;
    let mut baseline_rel = "ci/lint-baseline.json".to_string();
    let mut root = default_root();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--update-baseline" if command == "lint" => update = true,
            "--baseline" => {
                baseline_rel = it
                    .next()
                    .ok_or_else(|| format!("--baseline needs a path; {USAGE}"))?
                    .clone();
            }
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| format!("--root needs a path; {USAGE}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`; {USAGE}")),
        }
    }
    if command == "waivers" {
        audit_waivers(&root, &baseline_rel)
    } else {
        lint(&root, &baseline_rel, update)
    }
}

/// The workspace root, resolved from this crate's manifest directory so
/// the tool works from any cwd.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct FileOutcome {
    rel_path: String,
    violations: Vec<rules::Violation>,
    waived: usize,
}

fn lint(root: &Path, baseline_rel: &str, update: bool) -> Result<bool, String> {
    let crates_dir = root.join("crates");
    let mut sources = Vec::new();
    collect_rust_sources(&crates_dir, &mut sources)
        .map_err(|e| format!("walking {}: {e}", crates_dir.display()))?;
    sources.sort();

    let mut outcomes = Vec::new();
    let mut scanned = 0usize;
    for path in &sources {
        let rel_path = relative_to(path, root);
        if is_exempt_path(&rel_path) {
            continue;
        }
        scanned += 1;
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let report = check_file(&rel_path, &src);
        outcomes.push(FileOutcome {
            rel_path,
            violations: report.violations,
            waived: report.waived,
        });
    }

    // Per-file, per-rule current counts.
    let mut current: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for o in &outcomes {
        let per_rule = current.entry(o.rel_path.clone()).or_default();
        for v in &o.violations {
            *per_rule.entry(v.rule.to_string()).or_insert(0) += 1;
        }
    }

    // Library panic-site totals per tracked crate, for the seed ratchet.
    let mut crate_panics: BTreeMap<String, usize> = BTreeMap::new();
    for name in SEED_CRATES {
        crate_panics.insert(name.to_string(), 0);
    }
    for o in &outcomes {
        if let Some(krate) = crate_of(&o.rel_path) {
            if let Some(slot) = crate_panics.get_mut(krate) {
                *slot += o
                    .violations
                    .iter()
                    .filter(|v| v.rule == RULE_NO_PANIC)
                    .count();
            }
        }
    }

    let baseline_path = root.join(baseline_rel);
    let old = if baseline_path.exists() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
    } else {
        Baseline::default()
    };

    let total_waived: usize = outcomes.iter().map(|o| o.waived).sum();
    let total_violations: usize = outcomes.iter().map(|o| o.violations.len()).sum();

    if update {
        let seed = if old.seed.is_empty() {
            // First generation: freeze today's counts as the reference.
            crate_panics.clone()
        } else {
            old.seed.clone()
        };
        let next = Baseline {
            seed,
            files: current,
        };
        std::fs::write(&baseline_path, next.render())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        println!(
            "xtask lint: baseline updated ({scanned} files scanned, \
             {total_violations} baselined violations, {total_waived} waived)"
        );
        print_seed_progress(&next.seed, &crate_panics);
        return Ok(true);
    }

    // Ratchet comparison: fail on any file/rule count above its allowance.
    let mut failed = false;
    let mut improvable = 0usize;
    for o in &outcomes {
        let mut by_rule: BTreeMap<&'static str, Vec<&rules::Violation>> = BTreeMap::new();
        for v in &o.violations {
            by_rule.entry(v.rule).or_default().push(v);
        }
        for (rule, list) in &by_rule {
            let allowed = old.allowance(&o.rel_path, rule);
            if list.len() > allowed {
                failed = true;
                eprintln!(
                    "{}: {} `{rule}` violation(s), baseline allows {allowed}:",
                    o.rel_path,
                    list.len()
                );
                for v in list {
                    eprintln!("  {}:{}: {}", o.rel_path, v.line, v.message);
                }
            } else if list.len() < allowed {
                improvable += 1;
            }
        }
    }
    // Files whose baselined debt is now below allowance (including gone
    // entirely) are worth tightening.
    for (path, per_rule) in &old.files {
        for (rule, &allowed) in per_rule {
            let now = current.get(path).and_then(|r| r.get(rule)).copied();
            if allowed > 0 && now.is_none() {
                improvable += 1;
            }
        }
    }

    println!(
        "xtask lint: {scanned} files scanned, {total_violations} baselined violation(s), \
         {total_waived} waived site(s)"
    );
    print_seed_progress(&old.seed, &crate_panics);
    if improvable > 0 && !failed {
        println!(
            "note: {improvable} file/rule count(s) are below the baseline; \
             run `cargo run -p xtask -- lint --update-baseline` to tighten the ratchet"
        );
    }
    if failed {
        eprintln!("xtask lint: FAILED — new violations above the ratchet baseline");
    } else {
        println!("xtask lint: OK");
    }
    Ok(!failed)
}

/// The `waivers` subcommand: lists every `lint: allow(…)` site with its
/// documented reason, flags stale waivers, and enforces the strict-crate
/// invariant — a strict crate's lint debt must be zero outside of
/// reasoned waivers, with no `ci/lint-baseline.json` entries to hide
/// behind.
fn audit_waivers(root: &Path, baseline_rel: &str) -> Result<bool, String> {
    let crates_dir = root.join("crates");
    let mut sources = Vec::new();
    collect_rust_sources(&crates_dir, &mut sources)
        .map_err(|e| format!("walking {}: {e}", crates_dir.display()))?;
    sources.sort();

    let mut rows: Vec<(String, rules::WaiverSite)> = Vec::new();
    let mut strict_hits: Vec<(String, rules::Violation)> = Vec::new();
    for path in &sources {
        let rel_path = relative_to(path, root);
        if is_exempt_path(&rel_path) {
            continue;
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let report = check_file(&rel_path, &src);
        if crate_of(&rel_path).is_some_and(|k| STRICT_CRATES.contains(&k)) {
            strict_hits.extend(
                report
                    .violations
                    .iter()
                    .cloned()
                    .map(|v| (rel_path.clone(), v)),
            );
        }
        rows.extend(report.waivers.into_iter().map(|w| (rel_path.clone(), w)));
    }

    let stale = rows.iter().filter(|(_, w)| !w.used).count();
    println!(
        "xtask waivers: {} waived site(s), {stale} stale",
        rows.len()
    );
    for (path, w) in &rows {
        let mark = if w.used {
            ""
        } else {
            "  [stale: no matching site]"
        };
        println!("  {path}:{} {} — {}{mark}", w.line, w.rule, w.reason);
    }

    let mut failed = false;
    let baseline_path = root.join(baseline_rel);
    if baseline_path.exists() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {}: {e}", baseline_path.display()))?;
        let old =
            Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        for (file, per_rule) in &old.files {
            if !crate_of(file).is_some_and(|k| STRICT_CRATES.contains(&k)) {
                continue;
            }
            for (rule, &count) in per_rule {
                if count > 0 {
                    failed = true;
                    eprintln!(
                        "{file}: {count} baselined `{rule}` entr{} — strict crates must \
                         fix or waive, never ratchet",
                        if count == 1 { "y" } else { "ies" }
                    );
                }
            }
        }
    }
    for (path, v) in &strict_hits {
        failed = true;
        eprintln!(
            "{path}:{}: unwaivered `{}` in a strict crate: {}",
            v.line, v.rule, v.message
        );
    }
    if failed {
        eprintln!("xtask waivers: FAILED — strict crates carry unwaivered or baselined lint debt");
    } else {
        println!("xtask waivers: OK — strict crates are baseline-free and fully waived");
    }
    Ok(!failed)
}

fn print_seed_progress(seed: &BTreeMap<String, usize>, current: &BTreeMap<String, usize>) {
    for (krate, &was) in seed {
        let now = current.get(krate).copied().unwrap_or(0);
        if was == 0 {
            continue;
        }
        let cut = 100.0 * (was.saturating_sub(now) as f64) / (was as f64);
        println!("  {krate}: {now} library panic site(s), seed {was} ({cut:.0}% reduced)");
    }
}

/// Workspace-relative path with `/` separators.
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// `crates/<name>/…` → `<name>`.
fn crate_of(rel_path: &str) -> Option<&str> {
    let mut parts = rel_path.split('/');
    (parts.next() == Some("crates"))
        .then(|| parts.next())
        .flatten()
}

/// Test, example, and bench trees are exempt from the library rules.
fn is_exempt_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|part| matches!(part, "tests" | "examples" | "benches"))
}

fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemptions_cover_test_trees_only() {
        assert!(is_exempt_path("crates/core/tests/props.rs"));
        assert!(is_exempt_path("crates/coolplace/examples/pareto.rs"));
        assert!(is_exempt_path("crates/bench/benches/sweep.rs"));
        assert!(!is_exempt_path("crates/core/src/sweep.rs"));
        assert!(!is_exempt_path("crates/core/src/test_support.rs"));
    }

    #[test]
    fn crate_names_come_from_the_path() {
        assert_eq!(crate_of("crates/core/src/sweep.rs"), Some("core"));
        assert_eq!(crate_of("crates/spicenet/src/factor.rs"), Some("spicenet"));
        assert_eq!(crate_of("vendor/serde/src/lib.rs"), None);
    }

    /// End-to-end: the real workspace must lint clean against the real
    /// committed baseline. This is the same check CI runs.
    #[test]
    fn workspace_lints_clean_against_committed_baseline() {
        let root = default_root();
        if !root.join("ci/lint-baseline.json").exists() {
            return; // freshly bootstrapped tree; CI runs the binary anyway
        }
        let ok = lint(&root, "ci/lint-baseline.json", false).expect("lint run");
        assert!(
            ok,
            "workspace has lint violations above the ratchet baseline"
        );
    }

    /// End-to-end: the strict crates (the service and solver crates) must
    /// pass the waiver audit — no baselined debt, no unwaivered sites.
    #[test]
    fn strict_crates_pass_the_waiver_audit() {
        let root = default_root();
        if !root.join("crates/coolserved").exists() {
            return; // freshly bootstrapped tree
        }
        let ok = audit_waivers(&root, "ci/lint-baseline.json").expect("audit run");
        assert!(ok, "strict crates carry unwaivered or baselined lint debt");
    }
}

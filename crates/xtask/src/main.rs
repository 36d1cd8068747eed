//! Workspace-native float-literal lint.
//!
//! `cargo run -p xtask -- lint` walks every library source file under
//! `crates/`, lexes it with a small Rust lexer, and fails on any `==` /
//! `!=` against a float literal that no reasoned waiver covers, on a
//! malformed waiver and on a stale one (see `rules`). Clippy's
//! `float_cmp` exempts comparisons with zero, which is where exact float
//! tests hide; the panic and unsafe rules are clippy's and rustc's.
//!
//! Exit codes: 0 = clean, 1 = violations, 2 = usage or I/O error.

mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::check_file;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["lint"] {
        eprintln!("usage: cargo run -p xtask -- lint");
        return ExitCode::from(2);
    }
    match lint(&workspace_root()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xtask: error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workspace root, resolved from this crate's manifest directory so
/// the tool works from any cwd.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lints every library source under `root/crates`, printing each
/// violation; returns whether there were none.
fn lint(root: &Path) -> Result<bool, String> {
    let crates_dir = root.join("crates");
    let mut sources = Vec::new();
    collect_rust_sources(&crates_dir, &mut sources)
        .map_err(|e| format!("walking {}: {e}", crates_dir.display()))?;
    sources.sort();

    let (mut scanned, mut waived, mut violations) = (0usize, 0usize, 0usize);
    for path in &sources {
        let rel_path = relative_to(path, root);
        if is_exempt_path(&rel_path) {
            continue;
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let report = check_file(&src);
        scanned += 1;
        waived += report.waivers.iter().filter(|w| w.used).count();
        violations += report.violations.len();
        for v in &report.violations {
            eprintln!("{rel_path}:{}: {}: {}", v.line, v.rule, v.message);
        }
    }
    println!(
        "xtask lint: {scanned} files scanned, {waived} waived site(s), {violations} violation(s)"
    );
    Ok(violations == 0)
}

/// Workspace-relative path with `/` separators.
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
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

    /// End-to-end: the real workspace has no unwaived float-literal
    /// comparison and no malformed or stale waiver. This is the same
    /// check CI runs.
    #[test]
    fn workspace_has_no_unwaived_float_literal_comparison() {
        assert!(
            lint(&workspace_root()).expect("lint run"),
            "workspace has float-literal lint violations"
        );
    }
}

//! Simulator-invariant static analysis for the vpir workspace.
//!
//! `vpir analyze` walks the workspace sources and checks the
//! invariants that `rustc` and clippy cannot express, because they are
//! facts about *this simulator*, not about Rust:
//!
//! - **R2 literal indexing** — panic-free crates must not index with an
//!   integer literal (`xs[0]`); clippy's `unwrap_used`, `expect_used`
//!   and panic-macro lints, denied at those crate roots, cover the
//!   rest of panic-freedom.
//! - **R3 stats discipline** — every `*Stats` field must be updated
//!   somewhere.
//! - **R4 config discipline** — every config field must be read
//!   outside its definition.
//! - **R7 columnar hot state** — no `Vec<Option<…>>` fields in
//!   cycle-level crates outside the ROB column module.
//! - **R9 concurrency determinism** and **R10 lock order** — the
//!   interprocedural passes in [`passes`].
//!
//! Determinism (R1) and wall-clock freedom (R6) are clippy's
//! `disallowed_types`, configured in the workspace `clippy.toml`.
//! Counter width (R5) and "every counter reaches the job files" (R3's
//! former second half) hold by construction: every stats struct is
//! declared through the `vpir_stats::counters!` table, which accepts
//! only `u64`, `[u64; N]` and nested table fields and which the job
//! serializer walks field by field.
//!
//! A finding is suppressed (recorded but not fatal) by appending
//! `// vpir: allow(rule, reason)` to the offending line. `vpir analyze`
//! exits nonzero when any unsuppressed finding remains, which is what
//! makes it usable as a CI gate.

pub mod callgraph;
pub mod findings;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod rules;
pub mod sarif;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use findings::{Finding, Report, Rule};

/// Analyzes the workspace rooted at `root`.
///
/// Scans `<root>/src` and every `<root>/crates/*/src` tree, runs all
/// rules, and returns a sorted [`Report`]. The walk order (and thus
/// the report order) is lexicographic, so output is reproducible.
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", root.display()),
        ));
    }
    let files = scan_workspace(root)?;
    Ok(analyze_files(&files))
}

/// Scans `<root>/src` and every `<root>/crates/*/src` tree into lexed
/// files, sorted by path for reproducible output.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<rules::File>> {
    let mut files = Vec::new();
    collect_tree(root, &root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        krates.sort();
        for krate in krates {
            collect_tree(root, &krate.join("src"), &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Runs the line rules and the interprocedural passes (R9, R10) over
/// already-scanned files and returns the combined sorted report.
pub fn analyze_files(files: &[rules::File]) -> Report {
    let mut findings = rules::run_all(files);
    findings.extend(passes::run_interprocedural(files));
    let mut report = Report {
        files_scanned: files.len(),
        findings,
    };
    report.sort();
    report
}

/// Scans the workspace under `root` and renders the resolved call tree
/// below `root_spec` (an exact qualified name or a unique suffix).
pub fn dump_call_graph(root: &Path, root_spec: &str) -> io::Result<Result<String, String>> {
    let files = scan_workspace(root)?;
    let idx = items::ItemIndex::build(&files);
    let graph = callgraph::CallGraph::build(&files, &idx);
    Ok(graph.dump(&files, &idx, root_spec))
}

/// Recursively scans every `.rs` file under `dir` into `files`.
fn collect_tree(root: &Path, dir: &Path, files: &mut Vec<rules::File>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(rules::File {
                path: rel,
                lines: lexer::scan(&source),
            });
        }
    }
    Ok(())
}

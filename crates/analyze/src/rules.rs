//! The per-line simulator-invariant rules.
//!
//! | id | name     | scope                                          |
//! |----|----------|------------------------------------------------|
//! | R2 | panic    | [`PANIC_CRATES`]: literal indexing only        |
//! | R3 | stats    | `*Stats` structs in core + stats crates        |
//! | R4 | config   | `crates/core/src/config.rs` fields             |
//! | R7 | columnar | [`CYCLE_CRATES`] minus the column module       |
//!
//! Cycle-level crates are the ones whose state evolves per simulated
//! cycle. A panic mid-cycle would tear down a simulation that a
//! malformed workload should instead surface as an error; clippy's
//! panic lints (denied at each crate root in [`PANIC_CRATES`]) cover
//! `unwrap`/`expect`/`panic!` and friends, and R2 covers the literal
//! index clippy can only express together with every computed one.
//! Determinism (R1) and wall-clock freedom (R6) are clippy's
//! `disallowed_types`, configured in the workspace `clippy.toml` and
//! denied at each [`CYCLE_CRATES`] root. R3 and R4 keep the
//! measurement layer honest: a counter that is never updated, or a knob
//! that changes nothing, produces plausible-looking but wrong tables.
//! That every counter is `u64` and reaches the job files is not a rule
//! here: the `vpir_stats::counters!` table declares each stats struct
//! and admits no other field type.

use crate::findings::{Finding, Rule};
use crate::lexer::SourceLine;

/// One scanned file: path relative to the analyzed root, plus lines.
pub struct File {
    pub path: String,
    pub lines: Vec<SourceLine>,
}

/// The crates whose per-cycle state must be deterministic & panic-free.
/// Each denies `clippy::disallowed_types` plus [`PANIC_LINTS`] at its root.
pub const CYCLE_CRATES: [&str; 6] = ["core", "reuse", "predict", "branch", "mem", "mechanism"];

/// The crates held to panic-freedom: the cycle crates, the ISA they
/// execute through, and the service and stats crates on the request
/// path (a panic there takes down a connection or worker thread). Each
/// denies [`PANIC_LINTS`] at its root; R2 checks their literal indexes.
pub const PANIC_CRATES: [&str; 9] = [
    "core",
    "reuse",
    "predict",
    "branch",
    "mem",
    "mechanism",
    "isa",
    "serve",
    "stats",
];

/// The clippy lints every [`PANIC_CRATES`] root denies.
pub const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The one file allowed to declare `Vec<Option<…>>` state: the ROB
/// column module, where array-of-structs remnants are being burned down
/// behind the columnar accessors (R7's escape hatch is the module
/// boundary, not an allow comment).
const COLUMN_MODULE: &str = "crates/core/src/rob.rs";

fn in_crates(crates: &[&str], path: &str) -> bool {
    crates
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Runs every rule over the scanned files.
pub fn run_all(files: &[File]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if in_crates(&CYCLE_CRATES, &f.path) && f.path != COLUMN_MODULE {
            columnar(f, &mut findings);
        }
        if in_crates(&PANIC_CRATES, &f.path) {
            literal_indexing(f, &mut findings);
        }
    }
    stats_discipline(files, &mut findings);
    config_discipline(files, &mut findings);
    findings
}

/// Creates a finding, honoring a same-line `vpir: allow` comment.
pub(crate) fn emit(
    findings: &mut Vec<Finding>,
    rule: Rule,
    file: &File,
    line: usize,
    message: String,
) {
    let suppressed = file
        .lines
        .get(line - 1)
        .and_then(|l| l.allow.as_ref())
        .filter(|a| a.rule == rule.name())
        .map(|a| a.reason.clone());
    findings.push(Finding {
        rule,
        file: file.path.clone(),
        line,
        col: 0,
        message,
        suppressed,
    });
}

// ----------------------------------------------------------------
// R7: columnar hot state.
// ----------------------------------------------------------------

/// Flags `Vec<Option<…>>` struct fields in cycle-level code outside the
/// column module. That shape is the array-of-structs layout the SoA
/// refactor removed from the hot loop: per-cycle scans over it pay an
/// occupancy branch plus a strided load per slot, where parallel
/// columns behind a validity bitmap pay one word-test per 64 slots.
fn columnar(file: &File, findings: &mut Vec<Finding>) {
    let (fields, _) = parse_structs(file);
    for field in &fields {
        if field.ty.contains("Vec<Option<") {
            emit(
                findings,
                Rule::Columnar,
                file,
                field.line,
                format!(
                    "field `{}.{}` is `{}`: Vec<Option<…>> hot state outside {COLUMN_MODULE}; split it into parallel columns with a validity bitmap",
                    field.struct_name, field.name, field.ty
                ),
            );
        }
    }
}

// ----------------------------------------------------------------
// R2: panic-freedom (literal indexing).
// ----------------------------------------------------------------

fn literal_indexing(file: &File, findings: &mut Vec<Finding>) {
    for line in live_lines(file) {
        for idx in literal_indexes(&line.code) {
            emit(
                findings,
                Rule::Panic,
                file,
                line.number,
                format!("direct indexing `[{idx}]` can panic out of bounds; use `.get({idx})`"),
            );
        }
    }
}

/// Collects integer-literal index expressions: `xs[0]`, `pair.1[12]`.
///
/// Loop-style indexing (`xs[i]`, `map[reg.index()]`) is deliberately
/// not flagged — the index is usually derived from the collection's
/// own length, and flagging it would drown real findings in noise. A
/// literal index instead encodes a fixed-size assumption that an
/// `.get(n)` makes explicit.
fn literal_indexes(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        // What precedes the bracket decides slice-index vs array type
        // or literal: only an expression tail (identifier, `)`, `]`)
        // makes this an index operation.
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        let is_index =
            prev.is_some_and(|&p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']');
        if !is_index {
            continue;
        }
        let mut depth = 1;
        let mut j = i + 1;
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue; // index spans lines; out of this checker's reach
        }
        let inner: String = chars[i + 1..j - 1].iter().collect();
        let trimmed = inner.trim();
        if !trimmed.is_empty() && trimmed.chars().all(|c| c.is_ascii_digit() || c == '_') {
            out.push(trimmed.to_string());
        }
    }
    out
}

// ----------------------------------------------------------------
// Struct parsing shared by R3/R4/R7.
// ----------------------------------------------------------------

/// One parsed struct field.
struct Field {
    struct_name: String,
    name: String,
    /// The declared type text (up to the trailing comma).
    ty: String,
    line: usize,
}

/// A struct declaration's extent, for "outside the declaration" tests.
struct StructRegion {
    start: usize,
    end: usize,
}

/// Parses `struct` declarations and their named fields from a file.
fn parse_structs(file: &File) -> (Vec<Field>, Vec<StructRegion>) {
    let mut fields = Vec::new();
    let mut regions = Vec::new();
    let lines = &file.lines;
    let mut i = 0usize;
    while i < lines.len() {
        let code = &lines[i].code;
        let Some(name) = struct_name(code) else {
            i += 1;
            continue;
        };
        // Track braces from the declaration line to its close.
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = i;
        'outer: for (j, line) in lines.iter().enumerate().skip(i) {
            for c in line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    ';' if !opened => {
                        // Unit or tuple struct: no named fields.
                        end = j;
                        break 'outer;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = j;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for line in &lines[i..=end] {
            if let Some((fname, ty)) = field_decl(&line.code) {
                fields.push(Field {
                    struct_name: name.clone(),
                    name: fname,
                    ty,
                    line: line.number,
                });
            }
        }
        regions.push(StructRegion {
            start: i + 1,
            end: end + 1,
        });
        i = end + 1;
    }
    (fields, regions)
}

/// Extracts the struct name from a `struct Foo` declaration line.
fn struct_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed
        .strip_prefix("pub struct ")
        .or_else(|| trimmed.strip_prefix("struct "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Extracts `name` and type text from a `pub name: Type,` field line.
fn field_decl(code: &str) -> Option<(String, String)> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "struct" || name == "fn" {
        return None;
    }
    let after = &rest[name.len()..];
    let after = after.trim_start();
    let ty = after.strip_prefix(':')?;
    Some((name, ty.trim().trim_end_matches(',').to_string()))
}

/// True when `tok` occurs in `code` with non-identifier neighbors.
fn has_token(code: &str, tok: &str) -> bool {
    find_word(code, tok, 0).is_some()
}

/// `word` at `from` or later with identifier boundaries on both sides.
pub(crate) fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let mut at = from;
    while let Some(p) = code[at..].find(word) {
        let pos = at + p;
        let pre = code[..pos].chars().next_back();
        let post = code[pos + word.len()..].chars().next();
        let pre_ok = !pre.is_some_and(|c| c.is_alphanumeric() || c == '_');
        let post_ok = !post.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return Some(pos);
        }
        at = pos + word.len();
    }
    None
}

/// True when `.field` (a member access or member update of `field`)
/// occurs in `code`.
fn has_member_access(code: &str, field: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(field) {
        let at = from + pos;
        let dotted = code[..at].ends_with('.');
        let after_ok = !code[at + field.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if dotted && after_ok {
            return true;
        }
        from = at + field.len();
    }
    false
}

/// Non-test lines of a file.
fn live_lines(file: &File) -> impl Iterator<Item = &SourceLine> {
    file.lines.iter().filter(|l| !l.in_test)
}

// ----------------------------------------------------------------
// R3: stats discipline.
// ----------------------------------------------------------------

/// Files whose `*Stats` structs are held to R3.
fn stats_decl_files(files: &[File]) -> impl Iterator<Item = &File> {
    files
        .iter()
        .filter(|f| f.path == "crates/core/src/stats.rs" || f.path.starts_with("crates/stats/src/"))
}

fn stats_discipline(files: &[File], findings: &mut Vec<Finding>) {
    for decl_file in stats_decl_files(files) {
        let (fields, regions) = parse_structs(decl_file);
        for field in fields.iter().filter(|f| f.struct_name.ends_with("Stats")) {
            let in_decl = |f: &File, line: usize| {
                f.path == decl_file.path && regions.iter().any(|r| line >= r.start && line <= r.end)
            };
            // Updated: some `.field` access outside the declaration.
            let updated = files.iter().any(|f| {
                live_lines(f)
                    .any(|l| !in_decl(f, l.number) && has_member_access(&l.code, &field.name))
            });
            if !updated {
                emit(
                    findings,
                    Rule::Stats,
                    decl_file,
                    field.line,
                    format!(
                        "stats field `{}.{}` is never updated: no `.{}` access outside its declaration",
                        field.struct_name, field.name, field.name
                    ),
                );
            }
        }
    }
}

// ----------------------------------------------------------------
// R4: config discipline.
// ----------------------------------------------------------------

fn config_discipline(files: &[File], findings: &mut Vec<Finding>) {
    let Some(decl_file) = files.iter().find(|f| f.path == "crates/core/src/config.rs") else {
        return;
    };
    let (fields, _) = parse_structs(decl_file);
    for field in &fields {
        let read_elsewhere = files.iter().any(|f| {
            f.path != decl_file.path && live_lines(f).any(|l| has_token(&l.code, &field.name))
        });
        if !read_elsewhere {
            emit(
                findings,
                Rule::Config,
                decl_file,
                field.line,
                format!(
                    "config field `{}.{}` is never read outside {}: a knob that changes nothing misleads every experiment built on it",
                    field.struct_name, field.name, decl_file.path
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn file(path: &str, src: &str) -> File {
        File {
            path: path.to_string(),
            lines: scan(src),
        }
    }

    #[test]
    fn r2_covers_every_panic_crate_and_honors_allow() {
        let src = "fn f(xs: &[u8]) -> u8 {\n    xs[0]\n}\nfn g(xs: &[u8]) -> u8 {\n    xs[1] // vpir: allow(panic, caller checks len)\n}\n";
        for krate in PANIC_CRATES {
            let findings = run_all(&[file(&format!("crates/{krate}/src/x.rs"), src)]);
            let live: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
            assert_eq!(live.len(), 1, "{krate}");
            assert_eq!(live[0].line, 2);
            assert_eq!(
                findings.iter().filter(|f| f.suppressed.is_some()).count(),
                1
            );
        }
        // Harness crates and integration tests are outside the scope.
        assert!(run_all(&[file("crates/bench/src/x.rs", src)]).is_empty());
        assert!(run_all(&[file("crates/serve/tests/http.rs", src)]).is_empty());
    }

    #[test]
    fn r2_literal_index_only() {
        let src = "fn f(xs: &[u64], i: usize) -> u64 { xs[0] + xs[i] }\n";
        let findings = run_all(&[file("crates/branch/src/x.rs", src)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("[0]"));
    }

    #[test]
    fn r2_skips_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!([1u8][0], 1); }\n}\n";
        let findings = run_all(&[file("crates/core/src/x.rs", src)]);
        assert!(findings.is_empty());
    }

    #[test]
    fn r3_flags_unused_fields() {
        let stats = file(
            "crates/core/src/stats.rs",
            "vpir_stats::counters! {\n    pub struct SimStats {\n        pub used: u64,\n        pub dead: u64,\n    }\n}\n",
        );
        let pipeline = file(
            "crates/core/src/pipeline.rs",
            "fn tick(s: &mut vpir::SimStats) { s.used += 1; }\n",
        );
        let findings = run_all(&[stats, pipeline]);
        let r3: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Stats).collect();
        assert_eq!(r3.len(), 1);
        assert!(r3[0].message.contains("SimStats.dead"));
    }

    #[test]
    fn r4_flags_unread_config_fields() {
        let config = file(
            "crates/core/src/config.rs",
            "pub struct CoreConfig {\n    pub width: usize,\n    pub ghost: usize,\n}\n",
        );
        let user = file(
            "crates/core/src/pipeline.rs",
            "fn f(w: usize) { let _ = w; }\nfn g(c: &C) -> usize { c.width }\n",
        );
        let findings = run_all(&[config, user]);
        let r4: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Config).collect();
        assert_eq!(r4.len(), 1);
        assert!(r4[0].message.contains("ghost"));
    }

    #[test]
    fn r7_flags_vec_option_fields_outside_the_column_module() {
        let src = "pub struct Table {\n    pub slots: Vec<Option<(u64, u64)>>,\n    pub tags: Vec<u64>,\n}\n";
        let bad = run_all(&[file("crates/branch/src/x.rs", src)]);
        let r7: Vec<_> = bad.iter().filter(|f| f.rule == Rule::Columnar).collect();
        assert_eq!(r7.len(), 1);
        assert!(r7[0].message.contains("Table.slots"));
        // The column module itself is the burn-down site and exempt.
        let exempt = run_all(&[file("crates/core/src/rob.rs", src)]);
        assert!(exempt.iter().all(|f| f.rule != Rule::Columnar));
        // Non-cycle crates may use whatever layout they like.
        let cold = run_all(&[file("crates/bench/src/x.rs", src)]);
        assert!(cold.iter().all(|f| f.rule != Rule::Columnar));
    }
}

//! Finding and report types plus the text / JSON renderers.

use std::fmt::Write as _;

/// The simulator invariants (R2–R10, host Rust sources) and guest-program
/// structural lints (L1–L4, vpir assembly) the analyzers check.
///
/// The ids R1 (determinism), R6 (wall clock) and R8 (panic
/// reachability) are retired: clippy's `disallowed_types` and panic
/// lints enforce them, configured in `clippy.toml` and at each crate
/// root. R5 (counter width) is retired too: the `vpir_stats::counters!`
/// table that declares every stats struct accepts only `u64` fields.
/// The remaining ids keep their numbers.
///
/// The host rules are emitted by `vpir-analyze` over the workspace; the
/// guest lints are emitted by `vpir-isa-analyze` over assembled
/// programs. Both share this type so reports render identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R2 — panic-free crates must not index with integer literals.
    Panic,
    /// R3 — every stats field must be updated somewhere.
    Stats,
    /// R4 — every config field must be read outside its definition.
    Config,
    /// R7 — cycle-level hot state must be columnar, not `Vec<Option<…>>`.
    Columnar,
    /// R9 — spawned closures must not race on shared mutable captures,
    /// and control-flow atomics must not use `Ordering::Relaxed`.
    Concurrency,
    /// R10 — the lock-acquisition graph must be acyclic.
    LockOrder,
    /// L1 — guest basic block unreachable from the entry point.
    Unreachable,
    /// L2 — guest register read before any write reaches it.
    UninitRead,
    /// L3 — guest branch/jump to an undefined or misaligned target.
    BadTarget,
    /// L4 — guest memory stored to but never loaded.
    DeadStore,
}

impl Rule {
    /// The short identifier (`R2` … `R10`, `L1` … `L4`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "R2",
            Rule::Stats => "R3",
            Rule::Config => "R4",
            Rule::Columnar => "R7",
            Rule::Concurrency => "R9",
            Rule::LockOrder => "R10",
            Rule::Unreachable => "L1",
            Rule::UninitRead => "L2",
            Rule::BadTarget => "L3",
            Rule::DeadStore => "L4",
        }
    }

    /// The name used in `// vpir: allow(name, reason)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Stats => "stats",
            Rule::Config => "config",
            Rule::Columnar => "columnar",
            Rule::Concurrency => "concurrency",
            Rule::LockOrder => "lock-order",
            Rule::Unreachable => "unreachable",
            Rule::UninitRead => "uninit-read",
            Rule::BadTarget => "bad-target",
            Rule::DeadStore => "dead-store",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Path relative to the analyzed root.
    pub file: String,
    /// 1-based line number (0 when the source location is unknown, e.g.
    /// a guest program loaded from a binary image).
    pub line: usize,
    /// 1-based column; 0 when unknown. Host-rule findings are
    /// line-granular and leave this 0.
    pub col: usize,
    pub message: String,
    /// The justification from a matching `vpir: allow` comment; `None`
    /// for live (unsuppressed) findings.
    pub suppressed: Option<String>,
}

impl Finding {
    /// `file:line` or `file:line:col` when the column is known.
    pub fn location(&self) -> String {
        if self.col > 0 {
            format!("{}:{}:{}", self.file, self.line, self.col)
        } else {
            format!("{}:{}", self.file, self.line)
        }
    }
}

/// The result of analyzing one source tree.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    /// Findings not silenced by an allow comment; these gate CI.
    pub fn live(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings silenced by an allow comment (recorded, not fatal).
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }

    /// Sorts findings by file, line, then rule for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in self.live() {
            let _ = writeln!(
                out,
                "{}: {}({}): {}",
                f.location(),
                f.rule.id(),
                f.rule.name(),
                f.message
            );
        }
        let live = self.live().count();
        let suppressed = self.suppressed().count();
        let _ = writeln!(
            out,
            "vpir-analyze: {} file(s), {} finding(s), {} suppressed",
            self.files_scanned, live, suppressed
        );
        if suppressed > 0 {
            for f in self.suppressed() {
                let _ = writeln!(
                    out,
                    "  allowed {}: {}({}): {}",
                    f.location(),
                    f.rule.id(),
                    f.rule.name(),
                    f.suppressed.as_deref().unwrap_or_default()
                );
            }
        }
        out
    }

    /// Machine-readable report (single JSON object).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"files_scanned\":{},", self.files_scanned);
        let _ = write!(out, "\"live\":{},", self.live().count());
        let _ = write!(out, "\"suppressed\":{},", self.suppressed().count());
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"",
                f.rule.id(),
                f.rule.name(),
                escape(&f.file),
                f.line,
                f.col,
                escape(&f.message)
            );
            match &f.suppressed {
                Some(reason) => {
                    let _ = write!(out, ",\"allowed\":\"{}\"}}", escape(reason));
                }
                None => out.push('}'),
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for inclusion in a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, suppressed: Option<&str>) -> Finding {
        Finding {
            rule,
            file: "crates/core/src/x.rs".into(),
            line: 7,
            col: 0,
            message: "msg with \"quotes\"".into(),
            suppressed: suppressed.map(String::from),
        }
    }

    #[test]
    fn live_and_suppressed_split() {
        let report = Report {
            findings: vec![finding(Rule::Panic, None), finding(Rule::Panic, Some("ok"))],
            files_scanned: 1,
        };
        assert_eq!(report.live().count(), 1);
        assert_eq!(report.suppressed().count(), 1);
    }

    #[test]
    fn json_is_escaped() {
        let report = Report {
            findings: vec![finding(Rule::Panic, None)],
            files_scanned: 3,
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"rule\":\"R2\""));
        assert!(json.contains("\"files_scanned\":3"));
    }

    #[test]
    fn text_mentions_counts() {
        let report = Report {
            findings: vec![finding(Rule::Stats, Some("legacy"))],
            files_scanned: 2,
        };
        let text = report.to_text();
        assert!(text.contains("0 finding(s), 1 suppressed"));
        assert!(text.contains("allowed"));
    }
}

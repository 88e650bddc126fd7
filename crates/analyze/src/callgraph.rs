//! Best-effort workspace call graph over the [`crate::items`] index.
//!
//! Resolution is deliberately tiered and conservative — every tier
//! either resolves a call site to workspace functions or records what
//! it could not prove, so the pass built on top (R10 lock order) and
//! the `--call-graph` dump never silently drop an edge:
//!
//! 1. **Free fn** — `helper(…)` resolves through the qualified-name
//!    table (free fns are indexed under their bare name, so imported
//!    cross-crate free fns resolve too).
//! 2. **`Type::method(…)`** — resolves `Type::method`; `Self` maps to
//!    the enclosing impl's type.
//! 3. **`self.method(…)`** — resolves `{Owner}::method` via the
//!    enclosing impl block.
//! 4. **`self.field.method(…)`** — the field's declared base type
//!    (wrappers like `Option<Box<…>>` stripped) names the owner.
//! 5. **`expr.method(…)`** on any other receiver — *may-call* edges to
//!    every workspace fn with that bare name ([`Target::Ambiguous`]).
//!
//! A call that matches no workspace function at all is
//! [`Target::External`] (std or vendored code); R10 treats externals as
//! acquiring no workspace lock.
//! Macro bodies (`write!`, `format!`) are invisible by construction —
//! the lexer blanks literals and the extractor skips `name!(…)` —
//! which is also a documented limit, not a silent one.

use std::collections::BTreeSet;

use crate::items::{FnItem, ItemIndex};
use crate::rules::File;

/// Where a call site leads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Resolved to exactly one workspace fn (index into `ItemIndex::fns`).
    Known(usize),
    /// May-call: one of several workspace fns with this name.
    Ambiguous(Vec<usize>),
    /// No workspace candidate — std or otherwise out of scope.
    External,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Display name as written (`helper`, `Type::method`, `.lock`).
    pub name: String,
    /// 1-based source line of the call.
    pub line: usize,
    /// 1-based column of the callee identifier.
    pub col: usize,
    pub target: Target,
}

/// Per-function facts: the outgoing calls.
#[derive(Debug, Clone, Default)]
pub struct FnNode {
    pub calls: Vec<CallEdge>,
}

/// The workspace call graph, indexed in parallel with `ItemIndex::fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
}

impl CallGraph {
    /// Extracts the calls of every indexed fn.
    pub fn build(files: &[File], idx: &ItemIndex) -> CallGraph {
        let mut nodes = Vec::with_capacity(idx.fns.len());
        for f in &idx.fns {
            nodes.push(scan_fn(files, idx, f));
        }
        CallGraph { nodes }
    }

    /// Renders the resolved call tree under `root_qual` (exact
    /// qualified name, or a unique suffix like `run_checked`).
    pub fn dump(&self, files: &[File], idx: &ItemIndex, root_qual: &str) -> Result<String, String> {
        let root = resolve_root(idx, root_qual)?;
        let mut out = String::new();
        let mut seen = BTreeSet::new();
        self.dump_one(files, idx, root, 0, &mut seen, &mut out);
        Ok(out)
    }

    fn dump_one(
        &self,
        files: &[File],
        idx: &ItemIndex,
        at: usize,
        depth: usize,
        seen: &mut BTreeSet<usize>,
        out: &mut String,
    ) {
        let f = &idx.fns[at];
        let pad = "  ".repeat(depth);
        let node = &self.nodes[at];
        if !seen.insert(at) {
            out.push_str(&format!("{pad}{} (…)\n", f.qual));
            return;
        }
        out.push_str(&format!(
            "{pad}{} ({}:{})\n",
            f.qual, files[f.file].path, f.line
        ));
        for call in &node.calls {
            match &call.target {
                Target::Known(t) => self.dump_one(files, idx, *t, depth + 1, seen, out),
                Target::Ambiguous(cands) => {
                    out.push_str(&format!(
                        "{pad}  ?{} ({} candidate(s): {})\n",
                        call.name,
                        cands.len(),
                        cands
                            .iter()
                            .take(4)
                            .map(|c| idx.fns[*c].qual.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                Target::External => {}
            }
        }
    }
}

/// Resolves a root spec: exact qualified name, else unique suffix.
pub fn resolve_root(idx: &ItemIndex, spec: &str) -> Result<usize, String> {
    if let Some(i) = idx.resolve_qual(spec) {
        return Ok(i);
    }
    let hits: Vec<usize> = idx
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && (f.qual.ends_with(spec) || f.name == spec))
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [] => Err(format!("no function matches `{spec}`")),
        [one] => Ok(*one),
        many => Err(format!(
            "`{spec}` is ambiguous: {}",
            many.iter()
                .map(|i| idx.fns[*i].qual.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Rust keywords and control constructs that look like calls.
const NOT_CALLS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "impl", "where", "unsafe", "pub",
];

fn scan_fn(files: &[File], idx: &ItemIndex, f: &FnItem) -> FnNode {
    let mut node = FnNode::default();
    let lines = &files[f.file].lines;
    for line in &lines[f.body_start..=f.body_end] {
        extract_calls(&line.code, line.number, f, idx, &mut node.calls);
    }
    node
}

/// Finds `ident(` call shapes and resolves each through the tiers.
fn extract_calls(code: &str, line: usize, f: &FnItem, idx: &ItemIndex, out: &mut Vec<CallEdge>) {
    let chars: Vec<char> = code.chars().collect();
    for open in 0..chars.len() {
        if chars[open] != '(' {
            continue;
        }
        // Identifier directly before the paren.
        let mut s = open;
        while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
            s -= 1;
        }
        if s == open {
            continue;
        }
        let ident: String = chars[s..open].iter().collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if NOT_CALLS.contains(&ident.as_str()) {
            continue;
        }
        // `name!(…)` never reaches here (the `!` breaks the ident run
        // before the paren), but `name! (` styles would: skip both.
        if s > 0 && chars[s - 1] == '!' {
            continue;
        }
        // The declaration's own `fn name(` is not a call.
        let before: String = chars[..s].iter().collect();
        if before.trim_end().ends_with("fn") {
            continue;
        }
        let first_upper = ident.chars().next().is_some_and(|c| c.is_uppercase());
        let target = if s >= 2 && chars[s - 2] == ':' && chars[s - 1] == ':' {
            // Tier 2: `Seg::ident(` — a path call.
            if first_upper {
                // `Enum::Variant(…)` constructor, not a call.
                continue;
            }
            let seg = ident_before(&chars, s - 2);
            match seg {
                Some(ty) => {
                    let ty = if ty == "Self" {
                        f.owner.clone().unwrap_or(ty)
                    } else {
                        ty
                    };
                    resolve_qualified(idx, &ty, &ident)
                }
                None => Target::External,
            }
        } else if s >= 1 && chars[s - 1] == '.' {
            // Tiers 3-5: a method call; walk the receiver chain.
            if first_upper {
                continue;
            }
            match receiver_chain(&chars, s - 1) {
                Receiver::SelfOnly => match &f.owner {
                    Some(owner) => resolve_qualified(idx, owner, &ident),
                    None => resolve_bare(idx, &ident),
                },
                Receiver::SelfField(field) => {
                    let owner_ty = f
                        .owner
                        .as_ref()
                        .and_then(|o| idx.structs.get(o))
                        .and_then(|s| s.fields.get(&field));
                    match owner_ty {
                        Some(ty) => resolve_qualified(idx, &ty.clone(), &ident),
                        None => resolve_bare(idx, &ident),
                    }
                }
                Receiver::Other => resolve_bare(idx, &ident),
            }
        } else {
            // Tier 1: free call — or an uppercase constructor, skipped.
            if first_upper {
                continue;
            }
            match idx.by_qual.get(&ident).map(|v| non_test(idx, v)) {
                Some(cands) if cands.len() == 1 => Target::Known(cands[0]),
                Some(cands) if !cands.is_empty() => Target::Ambiguous(cands),
                _ => Target::External,
            }
        };
        let display = if s >= 1 && chars[s - 1] == '.' {
            format!(".{ident}")
        } else {
            ident.clone()
        };
        out.push(CallEdge {
            name: display,
            line,
            col: s + 1,
            target,
        });
    }
}

/// `Type::method` resolution with bare-name fallback: a workspace type
/// without that method (trait impls the item parser cannot see, derive
/// output) degrades to may-call over the bare name rather than being
/// dropped.
fn resolve_qualified(idx: &ItemIndex, ty: &str, method: &str) -> Target {
    let qual = format!("{ty}::{method}");
    if let Some(v) = idx.by_qual.get(&qual) {
        let cands = non_test(idx, v);
        match cands.as_slice() {
            [one] => return Target::Known(*one),
            [] => {}
            _ => return Target::Ambiguous(cands),
        }
    }
    let known_type =
        idx.structs.contains_key(ty) || idx.fns.iter().any(|f| f.owner.as_deref() == Some(ty));
    if known_type {
        resolve_bare(idx, method)
    } else {
        Target::External
    }
}

/// Tier-5 may-call resolution over the bare method name.
fn resolve_bare(idx: &ItemIndex, method: &str) -> Target {
    match idx.by_name.get(method) {
        Some(v) => {
            let cands = non_test(idx, v);
            if cands.is_empty() {
                Target::External
            } else {
                Target::Ambiguous(cands)
            }
        }
        None => Target::External,
    }
}

fn non_test(idx: &ItemIndex, v: &[usize]) -> Vec<usize> {
    v.iter().copied().filter(|i| !idx.fns[*i].in_test).collect()
}

/// What precedes a method call's final `.`.
enum Receiver {
    /// `self.method(…)`
    SelfOnly,
    /// `self.field.method(…)`
    SelfField(String),
    /// Anything else (locals, call results, chained expressions).
    Other,
}

/// Classifies the receiver ending at `dot` (index of the final `.`).
fn receiver_chain(chars: &[char], dot: usize) -> Receiver {
    let Some(seg1) = ident_before(chars, dot) else {
        return Receiver::Other;
    };
    let start1 = dot - seg1.chars().count();
    if seg1 == "self" {
        return Receiver::SelfOnly;
    }
    if start1 >= 1 && chars[start1 - 1] == '.' {
        if let Some(seg2) = ident_before(chars, start1 - 1) {
            let start2 = start1 - 1 - seg2.chars().count();
            let clean = start2 == 0 || !matches!(chars[start2 - 1], '.' | ':');
            if seg2 == "self" && clean {
                return Receiver::SelfField(seg1);
            }
        }
    }
    Receiver::Other
}

/// The identifier ending right before position `end`, if any.
fn ident_before(chars: &[char], end: usize) -> Option<String> {
    let mut s = end;
    while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
        s -= 1;
    }
    if s == end {
        None
    } else {
        Some(chars[s..end].iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn graph(src: &str) -> (Vec<File>, ItemIndex, CallGraph) {
        let files = vec![File {
            path: "crates/core/src/x.rs".into(),
            lines: scan(src),
        }];
        let idx = ItemIndex::build(&files);
        let g = CallGraph::build(&files, &idx);
        (files, idx, g)
    }

    fn edges_of<'a>(idx: &ItemIndex, g: &'a CallGraph, qual: &str) -> &'a [CallEdge] {
        &g.nodes[idx.resolve_qual(qual).unwrap()].calls
    }

    #[test]
    fn free_fn_calls_resolve() {
        let (_, idx, g) =
            graph("fn helper(x: u64) -> u64 { x }\nfn caller() -> u64 { helper(3) }\n");
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 1);
        assert_eq!(
            calls[0].target,
            Target::Known(idx.resolve_qual("helper").unwrap())
        );
    }

    #[test]
    fn type_method_calls_resolve() {
        let (_, idx, g) = graph(
            "pub struct M;\nimpl M {\n    pub fn new() -> M { M }\n}\nfn caller() { let _ = M::new(); }\n",
        );
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 1);
        assert_eq!(
            calls[0].target,
            Target::Known(idx.resolve_qual("M::new").unwrap())
        );
    }

    #[test]
    fn self_method_and_self_field_calls_resolve() {
        let (_, idx, g) = graph(
            "pub struct Rb;\nimpl Rb {\n    pub fn lookup(&self) {}\n}\n\
             pub struct M { rb: Rb }\nimpl M {\n    fn inner(&self) {}\n\
                 fn step(&mut self) { self.inner(); self.rb.lookup(); }\n}\n",
        );
        let calls = edges_of(&idx, &g, "M::step");
        assert_eq!(calls.len(), 2);
        assert_eq!(
            calls[0].target,
            Target::Known(idx.resolve_qual("M::inner").unwrap())
        );
        assert_eq!(
            calls[1].target,
            Target::Known(idx.resolve_qual("Rb::lookup").unwrap())
        );
    }

    #[test]
    fn unknown_receivers_become_may_call_or_external() {
        let (_, idx, g) = graph(
            "pub struct A;\nimpl A { pub fn poke(&self) {} }\n\
             fn caller(x: &A, v: &[u64]) { x.poke(); let _ = v.len(); }\n",
        );
        let calls = edges_of(&idx, &g, "caller");
        assert_eq!(calls.len(), 2);
        // `x.poke()` — unknown receiver, one workspace candidate: may-call.
        assert_eq!(
            calls[0].target,
            Target::Ambiguous(vec![idx.resolve_qual("A::poke").unwrap()])
        );
        // `v.len()` — no workspace fn named `len`: external.
        assert_eq!(calls[1].target, Target::External);
    }

    #[test]
    fn dump_renders_the_tree_with_unknowns() {
        let (files, idx, g) = graph(
            "fn leaf() {}\nfn root(v: &[u64]) { leaf(); v.mystery(); }\n\
             pub struct Q;\nimpl Q { pub fn mystery(&self) {} }\n",
        );
        let text = g.dump(&files, &idx, "root").unwrap();
        assert!(text.contains("root (crates/core/src/x.rs:2)"));
        assert!(text.contains("leaf"));
        assert!(text.contains("?.mystery (1 candidate(s): Q::mystery)"));
    }
}

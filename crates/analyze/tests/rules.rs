//! Fixture tests: each rule has a bad/good twin under
//! `tests/fixtures/`, shaped like a miniature workspace, plus a
//! self-check that the real workspace stays clean and keeps the clippy
//! configuration that replaced the retired rules.

use std::fs;
use std::path::{Path, PathBuf};

use vpir_analyze::rules::{CYCLE_CRATES, PANIC_CRATES, PANIC_LINTS};
use vpir_analyze::{analyze_root, dump_call_graph, sarif, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(name: &str) -> Report {
    analyze_root(&fixture(name)).expect("fixture tree readable")
}

/// Rule ids of unsuppressed findings, e.g. `["R2"]`.
fn live_ids(report: &Report) -> Vec<&'static str> {
    report.live().map(|f| f.rule.id()).collect()
}

#[test]
fn r2_fires_on_literal_indexes_and_honors_allows() {
    let bad = analyze("r2_bad");
    assert_eq!(live_ids(&bad), ["R2", "R2", "R2"], "{}", bad.to_text());
    assert!(
        bad.live().any(|f| f.message.contains("[1]")),
        "{}",
        bad.to_text()
    );

    let good = analyze("r2_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
    // The allow comment is recorded, not discarded.
    let reasons: Vec<String> = good
        .suppressed()
        .filter_map(|f| f.suppressed.clone())
        .collect();
    assert_eq!(reasons.len(), 1, "{}", good.to_text());
    assert!(reasons[0].contains("constructor"), "reasons: {reasons:?}");
}

#[test]
fn r3_fires_on_dead_stats_fields() {
    let bad = analyze("r3_bad");
    assert_eq!(live_ids(&bad), ["R3"], "{}", bad.to_text());
    assert!(bad
        .live()
        .any(|f| f.message.contains("`RunStats.dead` is never updated")));

    let good = analyze("r3_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r4_fires_on_unread_config_fields() {
    let bad = analyze("r4_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R4"], "{}", bad.to_text());
    assert!(bad
        .live()
        .next()
        .is_some_and(|f| f.message.contains("ghost")));

    let good = analyze("r4_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r7_fires_on_vec_option_hot_state_and_not_on_columns() {
    let bad = analyze("r7_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R7", "R7"], "{}", bad.to_text());
    assert!(bad.live().all(|f| f.message.contains("Vec<Option<")));

    let good = analyze("r7_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r9_fires_on_shared_writes_and_relaxed_control_flow() {
    let bad = analyze("r9_bad");
    let ids = live_ids(&bad);
    assert_eq!(ids, ["R9", "R9"], "{}", bad.to_text());
    assert!(
        bad.live().any(|f| f.message.contains("total")),
        "{}",
        bad.to_text()
    );
    assert!(
        bad.live().any(|f| f.message.contains("Relaxed")),
        "{}",
        bad.to_text()
    );

    // Per-slot writes and RMW counters are the sanctioned disciplines.
    let good = analyze("r9_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn r10_fires_on_opposite_lock_orders_and_not_on_a_fixed_order() {
    let bad = analyze("r10_bad");
    let ids = live_ids(&bad);
    assert!(
        !ids.is_empty() && ids.iter().all(|id| *id == "R10"),
        "{}",
        bad.to_text()
    );
    assert!(
        bad.live().any(|f| f.message.contains("fixed order")),
        "{}",
        bad.to_text()
    );
    // One half of the cycle is acquired inside a helper: the edge comes
    // from the call graph, not from the line that holds the guard.
    assert!(
        bad.live()
            .any(|f| f.message.contains("Store.cache -> Store.pool")),
        "{}",
        bad.to_text()
    );

    let good = analyze("r10_good");
    assert!(live_ids(&good).is_empty(), "{}", good.to_text());
}

#[test]
fn call_graph_dump_resolves_methods_and_free_functions() {
    let tree = dump_call_graph(&fixture("r10_bad"), "Store::promote")
        .expect("fixture readable")
        .expect("root resolves");
    assert!(tree.starts_with("Store::promote"), "tree: {tree}");
    assert!(tree.contains("  Store::park"), "tree: {tree}");
    assert!(tree.contains("    scrub"), "tree: {tree}");

    // A unique suffix resolves too; an unknown name reports cleanly.
    assert!(dump_call_graph(&fixture("r10_bad"), "park")
        .expect("fixture readable")
        .is_ok());
    let missing = dump_call_graph(&fixture("r10_bad"), "no_such_fn").expect("fixture readable");
    assert!(missing.is_err());
}

#[test]
fn sarif_output_round_trips_through_the_validator() {
    // Findings and suppressions both survive the round trip.
    for name in ["r2_bad", "r2_good", "r10_bad"] {
        let report = analyze(name);
        let sarif_text = sarif::to_sarif(&report);
        sarif::validate_sarif(&sarif_text)
            .unwrap_or_else(|e| panic!("{name} SARIF failed validation: {e}"));
    }
    let bad = sarif::to_sarif(&analyze("r10_bad"));
    assert!(bad.contains("\"ruleId\":\"R10\""), "{bad}");
    let suppressed = sarif::to_sarif(&analyze("r2_good"));
    assert!(suppressed.contains("\"suppressions\""), "{suppressed}");
    assert!(suppressed.contains("inSource"), "{suppressed}");
}

#[test]
fn json_output_round_trips_rule_ids() {
    let bad = analyze("r2_bad");
    let json = bad.to_json();
    assert!(json.contains("\"rule\":\"R2\""));
    assert!(json.contains("\"name\":\"panic\""));
    assert!(json.starts_with('{') && json.ends_with('}'));
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = workspace_root();
    let report = analyze_root(root).expect("workspace readable");
    assert!(
        report.live().next().is_none(),
        "workspace has live findings:\n{}",
        report.to_text()
    );
    // The R2 burn-down removed every suppression: each former allow
    // site now handles its case structurally (let-else, `?`, if-let).
    // New suppressions need a justification strong enough to also
    // justify weakening this count.
    assert_eq!(
        report.suppressed().count(),
        0,
        "unexpected suppressions:\n{}",
        report.to_text()
    );
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// Panic-freedom and determinism are clippy lints now. They hold only
/// while every crate in the analyzer's scope lists denies them at its
/// root and `clippy.toml` names the banned types, so pin both here: a
/// crate added to a scope list without its deny line, or a deny line
/// or banned type dropped, fails this test.
#[test]
fn scoped_crates_deny_the_clippy_lints_that_replaced_r1_r6_and_r8() {
    let root = workspace_root();
    for krate in PANIC_CRATES {
        let lib = fs::read_to_string(root.join(format!("crates/{krate}/src/lib.rs")))
            .expect("crate root readable");
        let deny = lib
            .find("#![deny(")
            .map(|at| &lib[at..at + lib[at..].find(")]").expect("closed deny")])
            .unwrap_or_else(|| panic!("crates/{krate}/src/lib.rs has no #![deny(...)]"));
        for lint in PANIC_LINTS {
            assert!(deny.contains(lint), "crates/{krate} does not deny {lint}");
        }
        assert_eq!(
            deny.contains("clippy::disallowed_types"),
            CYCLE_CRATES.contains(&krate),
            "crates/{krate}: clippy::disallowed_types must be denied in exactly the cycle crates"
        );
    }
    let config = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml readable");
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(
            config.contains(&format!("path = \"{ty}\"")),
            "clippy.toml does not ban {ty}"
        );
    }
}

//! Self-tests of the benchmark: its statistics helpers, its output
//! checks, its seeded inputs, and that every workload emits every
//! metric `BENCHMARK.json` names, once and with its unit.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vpir_bench::state::stats_to_json;
use vpir_core::{RunLimits, Simulator};
use vpir_perfbench::report::{check_digest, fnv1a64, median, quantile, supports, Outcome};
use vpir_perfbench::serve::{hit_inputs, MissGen, LABELS};
use vpir_perfbench::{run, Args};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

#[test]
fn quantiles_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), Some(50.0));
    assert_eq!(quantile(&v, 0.9), Some(90.0));
    assert_eq!(quantile(&v, 1.0), Some(100.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(supports(100, 0.9));
    assert!(!supports(99, 0.9));
    assert!(supports(20, 0.5));
    assert!(!supports(19, 0.5));
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
}

#[test]
fn digest_check_rejects_a_one_byte_perturbation() {
    let prog =
        vpir_isa::asm::assemble("li r1, 7\nli r2, 5\nadd r3, r1, r2\nhalt").expect("assembles");
    let config = vpir_bench::matrix::config_for_label("base").expect("base label");
    let mut sim = Simulator::new(&prog, config);
    let json = stats_to_json(sim.run(RunLimits::cycles(10_000)));
    let digest = fnv1a64(json.as_bytes());
    assert!(check_digest("tiny/base", &json, digest).is_ok());
    for i in [0, json.len() / 2, json.len() - 1] {
        let mut bytes = json.clone().into_bytes();
        bytes[i] ^= 1;
        let perturbed = String::from_utf8(bytes).expect("still ASCII");
        let err = check_digest("tiny/base", &perturbed, digest).expect_err("perturbation detected");
        assert!(err.contains("tiny/base"), "{err}");
    }
}

#[test]
fn one_seed_generates_identical_serve_inputs() {
    for seed in [1, 2, 12345] {
        for conn in 0..2 {
            let a = hit_inputs(seed, conn);
            assert_eq!(a, hit_inputs(seed, conn));
            assert_eq!(a.len(), 28);
        }
        let (g1, g2) = (MissGen::new(seed), MissGen::new(seed));
        for seq in [0, 1, 2, 15, 1 << 20, (1 << 21) + 3] {
            assert_eq!(g1.input(seq), g2.input(seq));
        }
    }
    // The seed matters, and every miss program is distinct and valid.
    assert_ne!(hit_inputs(1, 0), hit_inputs(2, 0));
    assert_ne!(MissGen::new(1).input(5), MissGen::new(2).input(5));
    let gen = MissGen::new(7);
    let mut seen = std::collections::BTreeSet::new();
    for seq in (0..64).chain((1 << 20)..(1 << 20) + 64) {
        let input = gen.input(seq);
        let asm = input.asm.clone().expect("miss inputs carry a program");
        assert_eq!(asm.lines().count(), 5);
        vpir_isa::asm::assemble(&asm).expect("generated program assembles");
        assert!(seen.insert(input.bytes), "seq {seq} repeats a request");
    }
    // The label rotation covers every family evenly.
    let mut per_family = [0; LABELS.len()];
    for seq in 0..40 {
        per_family[gen.input(seq).family] += 1;
    }
    assert_eq!(per_family, [10; LABELS.len()]);
}

/// (name, unit) of every metric in one `BENCHMARK.json` section.
fn section(doc: &str, key: &str) -> Vec<(String, String)> {
    let start = doc.find(&format!("\"{key}\"")).expect("section present");
    let body = &doc[start..];
    let end = body.find(']').expect("section is a list");
    let field = |obj: &str, k: &str| -> String {
        let i = obj.find(&format!("\"{k}\": \"")).expect("field present") + k.len() + 5;
        obj[i..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run_workload(workload: &str, seconds: f64, trace: bool) -> Outcome {
    std::env::set_current_dir(repo_root()).expect("repo root exists");
    let args = Args {
        workload: workload.to_string(),
        seed: 3,
        seconds,
        trace,
        work_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}")),
    };
    let out = run(&args).expect("workload runs");
    assert!(
        out.correct(),
        "{workload}: {:?}",
        out.checks.iter().filter(|c| !c.ok).collect::<Vec<_>>()
    );
    out
}

/// Checks that `out` emits exactly `expected`, each once, with the unit
/// `BENCHMARK.json` gives it.
fn assert_emits(out: &Outcome, listed: &[(String, String)], expected: &[&str]) {
    let units: BTreeMap<&str, &str> = listed
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        names.len(),
        "a metric is emitted twice: {names:?}"
    );
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(sorted, want);
    for m in &out.metrics {
        assert_eq!(units.get(m.name.as_str()), Some(&m.unit), "{} unit", m.name);
        assert!(m.samples >= 1, "{} has no samples", m.name);
    }
    let line = out.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

/// The end-to-end metrics every workload emits with tracing off.
const E2E: &[&str] = &[
    "setup_s",
    "rps",
    "p50_ms",
    "p90_ms",
    "vp_cost_ratio",
    "ir_cost_ratio",
    "rtb_cost_ratio",
    "peak_heap_mb",
];

/// The per-layer metrics every workload emits with tracing on.
fn layers() -> Vec<String> {
    let mut v: Vec<String> = [
        "isa.build_ms",
        "isa.image_us",
        "bench.table_s",
        "predict.vpt_lookups",
        "predict.correct_ratio",
        "reuse.tests",
        "reuse.hit_ratio",
        "rtb.replays",
        "rtb.abort_ratio",
        "redundancy.limit_insts_per_s",
        "bench.parallel_speedup",
        "jsonlite.stats_to_json_us",
        "serve.parse_us",
        "serve.key_us",
        "serve.get_us",
        "serve.write_us",
        "serve.insert_us",
        "serve.store_insert_us",
        "serve.transport_ms",
        "serve.server_p50_us",
        "serve.hit_ratio",
        "serve.evictions_per_req",
        "serve.conns_per_1k_req",
        "serve.failed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for fam in ["base", "vp", "ir", "ir_late", "rtb"] {
        for m in [
            "core.cycles_per_s",
            "core.ns_per_dispatched",
            "sim.ipc",
            "core.useful_dispatch_ratio",
            "core.exec_per_commit",
        ] {
            v.push(format!("{m}.{fam}"));
        }
    }
    v.extend(
        ["base", "vp", "ir", "rtb"]
            .iter()
            .map(|f| format!("core.new_us.{f}")),
    );
    v.extend(E2E.iter().map(|m| format!("overhead.{m}")));
    v
}

fn benchmark_json() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root")
}

#[test]
fn the_listed_metrics_are_the_emitted_ones() {
    let doc = benchmark_json();
    let mut listed: Vec<String> = section(&doc, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    listed.sort();
    let mut want: Vec<String> = E2E.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(listed, want);
    let mut listed: Vec<String> = section(&doc, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    listed.sort();
    let mut want = layers();
    want.sort();
    assert_eq!(listed, want);
}

/// Runs `workload` untraced and traced and checks that each run emits
/// exactly its section's metrics. The service part gets a quarter of
/// the seconds, enough for the 100 latency samples p90 needs.
fn emits_every_metric(workload: &str) {
    let doc = benchmark_json();
    assert_emits(
        &run_workload(workload, 10.0, false),
        &section(&doc, "end_to_end"),
        E2E,
    );
    let layers = layers();
    let want: Vec<&str> = layers.iter().map(String::as_str).collect();
    assert_emits(
        &run_workload(workload, 20.0, true),
        &section(&doc, "per_layer"),
        &want,
    );
}

#[test]
fn hit_emits_every_metric() {
    emits_every_metric("hit");
}

#[test]
fn miss_emits_every_metric() {
    emits_every_metric("miss");
}

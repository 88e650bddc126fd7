//! The simulator part of every workload: the quick-scale paper matrix
//! at `jobs = nproc`, then single-thread passes over the 35 golden
//! simulator cells. Every cell is checked against the golden fixture.
//!
//! Host noise moves every family together (see `NOTES.md`), so the
//! passes interleave the families cell by cell, rotate which family
//! starts each pass, and every rate is Σ cycles ÷ Σ seconds over the
//! whole timed phase.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vpir_bench::matrix::{
    config_for_label, parse_vp_label, run_matrix_outcome, MatrixConfig, RunOptions,
};
use vpir_bench::state::{limit_to_json, stats_to_json};
use vpir_core::{RunLimits, SimStats, Simulator};
use vpir_isa::Program;
use vpir_redundancy::{analyze, LimitConfig};
use vpir_workloads::Bench;

use crate::report::{check_digest, Measured, Outcome, Part};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Args;

/// The golden fixture, relative to the repository root.
pub const FIXTURE: &str = "crates/bench/tests/fixtures/golden_digests.json";

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The simulator families of the single-thread passes: metric suffix
/// and configuration label. These are the golden labels minus `limit`.
pub const FAMILIES: [(&str, &str); 5] = [
    ("base", "base"),
    ("vp", "magic:ME-SB:vl1"),
    ("ir", "ir_early"),
    ("ir_late", "ir_late"),
    ("rtb", "rtb:t8"),
];

/// Families whose host cost relative to base is an end-to-end metric.
pub const COST_FAMILIES: [&str; 3] = ["vp", "ir", "rtb"];

/// Recorded digests keyed by (bench, config label).
pub type Golden = BTreeMap<(String, String), u64>;

/// Parses the golden fixture text.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let doc = vpir_jsonlite::parse_json(text).map_err(|e| format!("fixture: {e}"))?;
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .ok_or("fixture has no cells")?;
    let mut out = Golden::new();
    for c in cells {
        let field = |k: &str| {
            c.get(k)
                .and_then(|v| v.as_str())
                .ok_or(format!("cell lacks `{k}`"))
        };
        let digest =
            u64::from_str_radix(field("digest")?, 16).map_err(|e| format!("digest: {e}"))?;
        out.insert(
            (field("bench")?.to_string(), field("config")?.to_string()),
            digest,
        );
    }
    Ok(out)
}

fn golden_of(golden: &Golden, bench: Bench, label: &str) -> Result<u64, String> {
    golden
        .get(&(bench.name().to_string(), label.to_string()))
        .copied()
        .ok_or_else(|| format!("{}/{label}: not in the fixture", bench.name()))
}

/// Per-family accumulators over the passes of one phase.
#[derive(Debug, Clone, Default)]
struct Family {
    cells: u64,
    run_secs: f64,
    /// Exact counters summed over the seven benches of one pass.
    pass: SimStats,
}

/// What one set-up leaves for the timed phase.
struct Prepared {
    progs: Vec<Program>,
    golden: Golden,
}

fn setup(
    args: &Args,
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let cfg = MatrixConfig::quick();
    let progs: Vec<Program> = Bench::ALL
        .iter()
        .enumerate()
        .map(|(i, b)| tracer.span("isa.build", None, i as u64, |_| b.program(cfg.scale)))
        .collect();
    let text =
        std::fs::read_to_string(Path::new(FIXTURE)).map_err(|e| format!("{FIXTURE}: {e}"))?;
    let prepared = Prepared {
        progs,
        golden: parse_golden(&text)?,
    };
    // Untimed warm-up pass: caches, page faults and lazy allocation
    // settle before anything is measured.
    let mut warm = vec![Family::default(); FAMILIES.len()];
    pass(
        &prepared,
        args.seed as usize,
        &Tracer::new(false),
        &mut warm,
        0,
        failures,
    );
    Ok((prepared, t.elapsed().as_secs_f64()))
}

/// Simulated cycles a cell runs before the pass moves on to the next
/// family: short enough (tens of ms) that every family of a bench
/// sees the same host conditions.
pub const SLICE_CYCLES: u64 = 20_000;

/// One single-thread pass over the 35 cells. Per bench, the five
/// families' simulators advance in turns of [`SLICE_CYCLES`], starting
/// at family `rotation`, until each halts or reaches the cycle cap.
/// Returns cells attempted.
fn pass(
    p: &Prepared,
    rotation: usize,
    tracer: &Tracer,
    fams: &mut [Family],
    req0: u64,
    failures: &mut Vec<String>,
) -> u64 {
    let cfg = MatrixConfig::quick();
    let mut req = req0;
    for (bi, &bench) in Bench::ALL.iter().enumerate() {
        tracer.span("matrix.bench", None, req, |span| {
            let mut cells: Vec<(usize, u64, Simulator)> = (0..FAMILIES.len())
                .map(|k| {
                    let fi = (k + rotation) % FAMILIES.len();
                    let config = config_for_label(FAMILIES[fi].1)
                        .expect("family labels are registry labels");
                    let id = req + fi as u64;
                    let sim = tracer.span("core.new", span, id, |_| {
                        Simulator::new(&p.progs[bi], config)
                    });
                    (fi, id, sim)
                })
                .collect();
            let mut limit = 0;
            while limit < cfg.max_cycles {
                limit = (limit + SLICE_CYCLES).min(cfg.max_cycles);
                let mut active = false;
                for (fi, id, sim) in &mut cells {
                    if sim.halted() || sim.error().is_some() {
                        continue;
                    }
                    active = true;
                    let t = Instant::now();
                    tracer.span("core.run", span, *id, |_| sim.run(RunLimits::cycles(limit)));
                    fams[*fi].run_secs += t.elapsed().as_secs_f64();
                }
                if !active {
                    break;
                }
            }
            for (fi, id, sim) in &cells {
                let label = FAMILIES[*fi].1;
                let json = tracer.span("bench.stats_to_json", span, *id, |_| {
                    stats_to_json(sim.stats())
                });
                let cell_name = format!("{}/{label}", bench.name());
                if let Err(e) = golden_of(&p.golden, bench, label)
                    .and_then(|d| check_digest(&cell_name, &json, d))
                {
                    failures.push(e);
                }
                let f = &mut fams[*fi];
                if f.cells < Bench::ALL.len() as u64 {
                    add_stats(&mut f.pass, sim.stats());
                }
                f.cells += 1;
            }
        });
        req += FAMILIES.len() as u64;
    }
    req - req0
}

fn add_stats(acc: &mut SimStats, s: &SimStats) {
    acc.cycles += s.cycles;
    acc.committed += s.committed;
    acc.dispatched += s.dispatched;
    acc.executions += s.executions;
    acc.result_predicted += s.result_predicted;
    acc.result_pred_correct += s.result_pred_correct;
    acc.vpt_result.lookups += s.vpt_result.lookups;
    acc.vpt_addr.lookups += s.vpt_addr.lookups;
    acc.rb.full_reuses += s.rb.full_reuses;
    acc.rb.addr_reuses += s.rb.addr_reuses;
    acc.rb.misses += s.rb.misses;
    acc.rtb.replays += s.rtb.replays;
    acc.rtb.aborted += s.rtb.aborted;
}

/// Runs the 154-job matrix at `jobs` workers and checks it: every job
/// completes and the 42 golden cells inside it match their digests.
/// Returns (seconds, jobs attempted, failure messages).
fn table(p: &Prepared, jobs: usize) -> (f64, u64, Vec<String>) {
    let t = Instant::now();
    let outcome = run_matrix_outcome(
        &Bench::ALL,
        &p.progs,
        MatrixConfig::quick(),
        jobs,
        &RunOptions::default(),
    );
    let secs = t.elapsed().as_secs_f64();
    let mut failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("{}/{}: {}", f.bench, f.config, f.error))
        .collect();
    if outcome.completed_jobs != 154 || outcome.total_jobs != 154 {
        failures.push(format!(
            "matrix completed {}/{} jobs, want 154/154",
            outcome.completed_jobs, outcome.total_jobs
        ));
    }
    if let Some(m) = &outcome.matrix {
        let vp_key = parse_vp_label("magic:ME-SB:vl1").expect("registry VP label");
        for r in &m.runs {
            let cells: [(&str, Option<String>); 6] = [
                ("base", Some(stats_to_json(&r.base))),
                ("magic:ME-SB:vl1", r.vp.get(&vp_key).map(stats_to_json)),
                ("ir_early", Some(stats_to_json(&r.ir_early))),
                ("ir_late", Some(stats_to_json(&r.ir_late))),
                ("rtb:t8", r.rtb.get(&8).map(stats_to_json)),
                ("limit", Some(limit_to_json(&r.limit))),
            ];
            for (label, json) in cells {
                let name = format!("{}/{label} (parallel matrix)", r.bench.name());
                let res = json
                    .ok_or_else(|| format!("{name}: missing"))
                    .and_then(|j| {
                        golden_of(&p.golden, r.bench, label)
                            .and_then(|d| check_digest(&name, &j, d))
                    });
                if let Err(e) = res {
                    failures.push(e);
                }
            }
        }
    }
    (secs, outcome.total_jobs as u64, failures)
}

/// End-to-end results of one timed phase.
struct Phase {
    table_secs: f64,
    fams: Vec<Family>,
    attempted: u64,
    failures: Vec<String>,
    peak_mb: f64,
}

/// The timed phase: one table, then interleaved passes until `secs`
/// have elapsed (at least one pass).
fn timed(args: &Args, secs: f64, p: &Prepared, tracer: &Tracer) -> Phase {
    let mut rng = Rng::new(args.seed, 1);
    let mut phase = Phase {
        table_secs: 0.0,
        fams: vec![Family::default(); FAMILIES.len()],
        attempted: 0,
        failures: Vec::new(),
        peak_mb: 0.0,
    };
    crate::alloc::reset_peak();
    let start = Instant::now();
    let (table_secs, jobs, failures) =
        tracer.span("bench.table", None, 0, |_| table(p, crate::nproc()));
    phase.table_secs = table_secs;
    phase.attempted += jobs;
    phase.failures.extend(failures);
    let mut req = 1;
    loop {
        let rotation = rng.below(FAMILIES.len());
        let n = pass(
            p,
            rotation,
            tracer,
            &mut phase.fams,
            req,
            &mut phase.failures,
        );
        phase.attempted += n;
        req += n;
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    phase.peak_mb = crate::alloc::peak_mb();
    phase
}

fn fam<'a>(phase: &'a Phase, name: &str) -> &'a Family {
    let i = FAMILIES
        .iter()
        .position(|f| f.0 == name)
        .expect("known family");
    &phase.fams[i]
}

/// Host seconds per simulated cycle of a family.
fn secs_per_cycle(f: &Family) -> f64 {
    let passes = (f.cells / Bench::ALL.len() as u64).max(1);
    f.run_secs / (f.pass.cycles * passes) as f64
}

/// The part's gated end-to-end metrics. The mechanism families' cost
/// ratios come from the same interleaved passes as base, so host
/// slowdowns, which hit every family together, cancel out of them.
fn measured(phase: &Phase, setup_secs: Vec<f64>) -> Measured {
    let mut out = Outcome::default();
    let base = secs_per_cycle(fam(phase, "base"));
    for name in COST_FAMILIES {
        let f = fam(phase, name);
        out.metric(
            &format!("{name}_cost_ratio"),
            secs_per_cycle(f) / base,
            "ratio",
            f.cells,
        );
    }
    Measured {
        setup_secs,
        metrics: out.metrics,
        peak_mb: phase.peak_mb,
    }
}

/// The host-speed figures (`table_s`, `<family>_cycles_per_s`), as a
/// detail-line object with units and sample counts. They swing with
/// the host's memory interference far beyond any usable bound (see
/// `NOTES.md`), so they are reported but not gated.
fn host_speed(phase: &Phase) -> String {
    let mut parts = vec![format!(
        "\"table_s\": {{\"value\": {:?}, \"unit\": \"s\", \"samples\": 1}}",
        phase.table_secs
    )];
    for (name, _) in FAMILIES {
        let f = fam(phase, name);
        parts.push(format!(
            "\"{name}_cycles_per_s\": {{\"value\": {:?}, \"unit\": \"cycles/s\", \"samples\": {}}}",
            1.0 / secs_per_cycle(f),
            f.cells
        ));
    }
    format!("{{{}}}", parts.join(", "))
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs the simulator part for `secs` (halved between an untraced and
/// a traced phase on traced runs, which record spans in `tracer`).
pub(crate) fn run(args: &Args, secs: f64, tracer: &Tracer) -> Result<Part, String> {
    let mut part = Part::default();
    let out = &mut part.out;
    let phase_secs = crate::phase_secs(args, secs);
    let mut setup_failures = Vec::new();
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let (p, secs) = setup(args, &Tracer::new(false), &mut setup_failures)?;
        setup_secs.push(secs);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    out.check(
        "warm-up cells match golden digests",
        setup_failures.is_empty(),
        setup_failures.first().cloned().unwrap_or_default(),
    );

    let untraced = timed(args, phase_secs, &p, &Tracer::new(false));
    out.attempted = untraced.attempted;
    out.failed = untraced.failures.len() as u64;
    out.check(
        "timed cells and 154/154 matrix jobs match golden digests",
        untraced.failures.is_empty(),
        untraced
            .failures
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{} operations checked", untraced.attempted)),
    );
    part.untraced = measured(&untraced, setup_secs);
    out.info("host_speed", host_speed(&untraced));
    if !args.trace {
        return Ok(part);
    }

    // The traced run: one more set-up and the same timed phase with
    // spans on, then probes for the layers the timed phase only
    // reaches through `bench`.
    let mut traced_setup_failures = Vec::new();
    let (p, traced_setup) = setup(args, tracer, &mut traced_setup_failures)?;
    out.check(
        "traced warm-up cells match golden digests",
        traced_setup_failures.is_empty(),
        traced_setup_failures.first().cloned().unwrap_or_default(),
    );
    let traced = timed(args, phase_secs, &p, tracer);
    part.traced = Some(measured(&traced, vec![traced_setup]));
    out.attempted += traced.attempted;
    let mut bad = traced.failures.clone();

    let (one_job_secs, jobs, failures) = tracer.span("bench.table_1job", None, 0, |_| table(&p, 1));
    out.attempted += jobs;
    bad.extend(failures);
    let cfg = MatrixConfig::quick();
    let mut limit_insts = 0u64;
    for (bi, &bench) in Bench::ALL.iter().enumerate() {
        let study = tracer.span("redundancy.analyze", None, bi as u64, |_| {
            analyze(&p.progs[bi], cfg.limit_insts, LimitConfig::default())
        });
        limit_insts += study.total;
        out.attempted += 1;
        let name = format!("{}/limit", bench.name());
        if let Err(e) = golden_of(&p.golden, bench, "limit")
            .and_then(|d| check_digest(&name, &limit_to_json(&study), d))
        {
            bad.push(e);
        }
    }
    out.failed += bad.len() as u64;
    out.check(
        "traced run outputs match golden digests",
        bad.is_empty(),
        bad.first().cloned().unwrap_or_default(),
    );

    let builds = tracer.secs("isa.build");
    out.metric(
        "isa.build_ms",
        builds.iter().sum::<f64>() * 1e3,
        "ms",
        builds.len() as u64,
    );
    for (name, _) in FAMILIES {
        let f = fam(&traced, name);
        let passes = (f.cells / Bench::ALL.len() as u64).max(1);
        out.metric(
            &format!("core.cycles_per_s.{name}"),
            1.0 / secs_per_cycle(f),
            "cycles/s",
            f.cells,
        );
        out.metric(
            &format!("core.ns_per_dispatched.{name}"),
            f.run_secs * 1e9 / (f.pass.dispatched * passes) as f64,
            "ns",
            f.cells,
        );
        out.metric(
            &format!("sim.ipc.{name}"),
            ratio(f.pass.committed, f.pass.cycles),
            "insts/cycle",
            7,
        );
        out.metric(
            &format!("core.useful_dispatch_ratio.{name}"),
            ratio(f.pass.committed, f.pass.dispatched),
            "ratio",
            7,
        );
        out.metric(
            &format!("core.exec_per_commit.{name}"),
            ratio(f.pass.executions, f.pass.committed),
            "ratio",
            7,
        );
    }
    let vp = &fam(&traced, "vp").pass;
    out.metric(
        "predict.vpt_lookups",
        (vp.vpt_result.lookups + vp.vpt_addr.lookups) as f64,
        "count",
        7,
    );
    out.metric(
        "predict.correct_ratio",
        ratio(vp.result_pred_correct, vp.result_predicted),
        "ratio",
        7,
    );
    let ir = &fam(&traced, "ir").pass;
    let tests = ir.rb.full_reuses + ir.rb.addr_reuses + ir.rb.misses;
    out.metric("reuse.tests", tests as f64, "count", 7);
    out.metric(
        "reuse.hit_ratio",
        ratio(ir.rb.full_reuses, tests),
        "ratio",
        7,
    );
    let rtb = &fam(&traced, "rtb").pass;
    out.metric("rtb.replays", rtb.rtb.replays as f64, "count", 7);
    out.metric(
        "rtb.abort_ratio",
        ratio(rtb.rtb.aborted, rtb.rtb.replays),
        "ratio",
        7,
    );
    out.metric(
        "redundancy.limit_insts_per_s",
        limit_insts as f64 / tracer.secs("redundancy.analyze").iter().sum::<f64>(),
        "insts/s",
        7,
    );
    out.metric("bench.table_s", traced.table_secs, "s", 1);
    out.metric(
        "bench.parallel_speedup",
        one_job_secs / traced.table_secs,
        "ratio",
        2,
    );
    Ok(part)
}

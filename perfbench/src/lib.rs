//! The repository benchmark for the vpir simulator and its HTTP service.
//!
//! Two closed-loop workloads (see `NOTES.md` for why each exists). Each
//! runs two parts in turn, so that every workload exercises every
//! end-to-end metric:
//!
//! - the service part: an in-process `vpir serve` answering repeated
//!   keys from its memory tier (`hit`) or unique tiny programs, so every
//!   request simulates, evicts and writes the disk tier (`miss`);
//! - the simulator part: the quick-scale paper matrix at `jobs = nproc`,
//!   then single-thread passes over the 35 golden simulator cells with
//!   the configuration families interleaved cell by cell.
//!
//! Every output is checked. The end-to-end metrics come from an
//! untraced run; `--trace 1` adds a traced run whose spans, recorded
//! around the calls this crate makes into each layer's public API,
//! give the per-layer metrics.

#![deny(unsafe_code)]

pub mod alloc;
mod matrix;
pub mod report;
mod rng;
pub mod serve;
mod trace;

use std::path::PathBuf;

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to add the traced run and print per-layer metrics.
    pub trace: bool,
    /// Directory for temporary server state and the span dump.
    pub work_dir: PathBuf,
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["hit", "miss"];

/// Share of `--seconds` given to the service part; the simulator part
/// gets the rest. The service latencies settle within a few hundred
/// requests; the simulator's cost ratios need the longer window.
pub const SERVE_SHARE: f64 = 0.25;

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>
    /// [--work-dir <dir>]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            work_dir: PathBuf::from(".bench_build/perfbench"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                    }
                }
                "--work-dir" => out.work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "unknown workload `{}` (valid: {})",
                out.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(out)
    }
}

/// Worker threads and client connections: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Length of each timed phase of a part given `secs`: all of it for
/// an untraced run; half of it for each of the untraced and traced
/// phases of a traced run, so both kinds of run take about the same
/// time.
pub fn phase_secs(args: &Args, secs: f64) -> f64 {
    if args.trace {
        secs / 2.0
    } else {
        secs
    }
}

/// Runs the named workload: the service part, then the simulator part.
/// An untraced run reports the end-to-end metrics; a traced run reports
/// the per-layer metrics and the tracing overhead of each end-to-end
/// metric.
pub fn run(args: &Args) -> Result<report::Outcome, String> {
    let mode = match args.workload.as_str() {
        "hit" => serve::Mode::Hit,
        "miss" => serve::Mode::Miss,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let tracer = trace::Tracer::new(args.trace);
    let serve_secs = args.seconds * SERVE_SHARE;
    let service = serve::run(args, mode, serve_secs, &tracer)?;
    let sim = matrix::run(args, args.seconds - serve_secs, &tracer)?;
    let untraced = report::end_to_end(&[&service.untraced, &sim.untraced]);
    let traced = match (&service.traced, &sim.traced) {
        (Some(a), Some(b)) => Some(report::end_to_end(&[a, b])),
        _ => None,
    };
    let mut out = report::Outcome::default();
    out.absorb(service.out);
    out.absorb(sim.out);
    match traced {
        None => out.metrics = untraced,
        Some(traced) => {
            report::push_overhead(&mut out, &untraced, &traced);
            trace::finish(args, &tracer, &mut out);
        }
    }
    Ok(out)
}

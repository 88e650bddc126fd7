//! Per-benchmark SB vs NSB branch-resolution-latency probe (figure 4
//! shape check), at the paper_claims test scale. Optional arg filters
//! to one benchmark.

use vpir_core::{
    BranchResolution, CoreConfig, Reexecution, RunLimits, Simulator, VpConfig, VpKind,
};
use vpir_workloads::{Bench, Scale};

fn main() {
    let filter = std::env::args().nth(1);
    for bench in Bench::ALL {
        if let Some(f) = &filter {
            if bench.name() != f {
                continue;
            }
        }
        let prog = bench.program(Scale::of(2));
        let mut lat = [0.0f64; 2];
        for (i, br) in [BranchResolution::Sb, BranchResolution::Nsb]
            .into_iter()
            .enumerate()
        {
            let cfg = CoreConfig::with_vp(VpConfig {
                kind: VpKind::Magic,
                reexecution: Reexecution::Me,
                branch_resolution: br,
                verify_latency: 0,
                ..VpConfig::magic()
            });
            let mut sim = Simulator::new(&prog, cfg);
            sim.run(RunLimits {
                max_cycles: 400_000,
                max_insts: 120_000,
            });
            lat[i] = sim.stats().branch_resolution_latency();
        }
        println!(
            "{:10} sb={:8.4} nsb={:8.4} holds={}",
            bench.name(),
            lat[0],
            lat[1],
            lat[1] >= lat[0] - 1e-9
        );
    }
}

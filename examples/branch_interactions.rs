//! The paper's central sensitivity result: how branches with
//! value-speculative operands are resolved (SB vs NSB) decides whether
//! value prediction helps or hurts.
//!
//! With an accurate predictor (`VP_Magic`) speculative resolution (SB)
//! wins — branches resolve sooner and spurious squashes are rare. With
//! an inaccurate one (`VP_LVP`) SB floods the pipeline with spurious
//! branch squashes and non-speculative resolution (NSB) is safer.
//!
//! ```text
//! cargo run --release --example branch_interactions
//! ```

use vpir::core::{BranchResolution, CoreConfig, RunLimits, Simulator, VpConfig};
use vpir::workloads::{Bench, Scale};

fn main() {
    let bench = Bench::Perl; // high spurious-misprediction potential
    let program = bench.program(Scale::of(4));

    let mut base = Simulator::new(&program, CoreConfig::table1());
    let base_stats = base.run(RunLimits::cycles(4_000_000)).clone();
    println!(
        "{} base: IPC {:.3}, {} branch squashes\n",
        bench.name(),
        base_stats.ipc(),
        base_stats.squashes
    );

    println!("predictor  resolution  speedup  squashes  spurious  res-latency");
    for (name, vp) in [("magic", VpConfig::magic()), ("lvp  ", VpConfig::lvp())] {
        for br in [BranchResolution::Sb, BranchResolution::Nsb] {
            let cfg = CoreConfig::with_vp(vp.with_branches(br));
            let mut sim = Simulator::new(&program, cfg);
            let s = sim.run(RunLimits::cycles(4_000_000)).clone();
            println!(
                "{name}      {:>4}       {:>6.3}  {:>8}  {:>8}  {:>10.2}",
                match br {
                    BranchResolution::Sb => "SB",
                    BranchResolution::Nsb => "NSB",
                },
                s.ipc() / base_stats.ipc(),
                s.squashes,
                s.spurious_squashes,
                s.branch_resolution_latency(),
            );
        }
    }
    println!(
        "\nThe paper's conclusion: no single branch-resolution policy wins —\n\
         low value-misprediction rates favour SB, high rates favour NSB."
    );
}

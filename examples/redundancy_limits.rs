//! The Section 4.3 limit study: how much of a program's redundancy can
//! instruction reuse capture at all?
//!
//! Classifies every result-producing dynamic instruction as unique /
//! repeated / derivable (Figure 8), splits repeated instructions by
//! input readiness (Figure 9), and reports the reusable fraction of the
//! total redundancy (Figure 10 — the paper finds 84–97%).
//!
//! ```text
//! cargo run --release --example redundancy_limits
//! ```

use vpir::redundancy::{analyze, LimitConfig};
use vpir::stats::AsciiBars;
use vpir::workloads::{Bench, Scale};

fn main() {
    println!("bench     unique  repeated  derivable  | prod-reused  far  not-ready | reusable%");
    let mut bars = AsciiBars::new(40, 100.0);
    for bench in Bench::ALL {
        let program = bench.program(Scale::of(4));
        let study = analyze(&program, 1_000_000, LimitConfig::default());
        let (u, r, d, _) = study.classification_pct();
        let (pr, far, near) = study.readiness_pct();
        println!(
            "{:<9} {u:>5.1}%  {r:>7.1}%  {d:>8.1}%  | {pr:>10.1}% {far:>4.1}% {near:>9.1}% | {:>7.1}%",
            bench.name(),
            study.reusable_pct(),
        );
        bars.bar(bench.name(), study.reusable_pct());
    }
    println!(
        "\nreusable fraction of total redundancy:\n{}",
        bars.render()
    );
}

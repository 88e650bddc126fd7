//! One group per paper figure: each target runs the reduced
//! simulations behind the figure's data series. Run `experiments <fig>`
//! for the full-scale series.
//!
//! Run with `cargo bench -p vpir-bench --features bench`.

use vpir_bench::matrix::run_one;
use vpir_bench::microbench::{black_box, group};
use vpir_core::{BranchResolution, CoreConfig, IrConfig, Validation, VpConfig};
use vpir_redundancy::{analyze, LimitConfig};
use vpir_workloads::{Bench, Scale};

const CYCLES: u64 = 60_000;

/// Figure 3: early vs late validation.
fn fig3_early_validation() {
    group("fig3").bench("early_vs_late", || {
        let early = run_one(
            Bench::Perl,
            Scale::of(1),
            CoreConfig::with_ir(IrConfig::table1()),
            CYCLES,
        );
        let late = run_one(
            Bench::Perl,
            Scale::of(1),
            CoreConfig::with_ir(IrConfig {
                validation: Validation::Late,
                ..IrConfig::table1()
            }),
            CYCLES,
        );
        black_box((early.ipc(), late.ipc()))
    });
}

/// Figure 4: branch resolution latency across configurations.
fn fig4_branch_resolution() {
    group("fig4").bench("resolution_latency", || {
        let sb = run_one(
            Bench::Go,
            Scale::of(1),
            CoreConfig::with_vp(VpConfig::magic()),
            CYCLES,
        );
        let nsb = run_one(
            Bench::Go,
            Scale::of(1),
            CoreConfig::with_vp(VpConfig::magic().with_branches(BranchResolution::Nsb)),
            CYCLES,
        );
        let ir = run_one(
            Bench::Go,
            Scale::of(1),
            CoreConfig::with_ir(IrConfig::table1()),
            CYCLES,
        );
        black_box((
            sb.branch_resolution_latency(),
            nsb.branch_resolution_latency(),
            ir.branch_resolution_latency(),
        ))
    });
}

/// Figure 5: resource contention.
fn fig5_contention() {
    group("fig5").bench("contention", || {
        let base = run_one(Bench::Compress, Scale::of(1), CoreConfig::table1(), CYCLES);
        let vp = run_one(
            Bench::Compress,
            Scale::of(1),
            CoreConfig::with_vp(VpConfig::magic()),
            CYCLES,
        );
        let ir = run_one(
            Bench::Compress,
            Scale::of(1),
            CoreConfig::with_ir(IrConfig::table1()),
            CYCLES,
        );
        black_box((base.contention(), vp.contention(), ir.contention()))
    });
}

/// Figure 6: speedups of VP_Magic configurations and IR.
fn fig6_speedup_magic() {
    group("fig6").bench("magic_speedups", || {
        let base = run_one(Bench::Ijpeg, Scale::of(1), CoreConfig::table1(), CYCLES);
        let vp = run_one(
            Bench::Ijpeg,
            Scale::of(1),
            CoreConfig::with_vp(VpConfig::magic()),
            CYCLES,
        );
        black_box(vp.ipc() / base.ipc().max(1e-9))
    });
}

/// Figure 7: speedups of VP_LVP configurations.
fn fig7_speedup_lvp() {
    group("fig7").bench("lvp_speedups", || {
        let base = run_one(Bench::Gcc, Scale::of(1), CoreConfig::table1(), CYCLES);
        let vp = run_one(
            Bench::Gcc,
            Scale::of(1),
            CoreConfig::with_vp(VpConfig::lvp()),
            CYCLES,
        );
        black_box(vp.ipc() / base.ipc().max(1e-9))
    });
}

/// Figures 8–10: the functional limit study.
fn fig8_taxonomy() {
    let prog = Bench::M88ksim.program(Scale::of(1));
    group("fig8").bench("classification", || {
        black_box(analyze(&prog, 30_000, LimitConfig::default()).classification_pct())
    });
}

fn fig9_readiness() {
    let prog = Bench::Vortex.program(Scale::of(1));
    group("fig9").bench("readiness", || {
        black_box(analyze(&prog, 30_000, LimitConfig::default()).readiness_pct())
    });
}

fn fig10_reusable() {
    let prog = Bench::Compress.program(Scale::of(1));
    group("fig10").bench("reusable_fraction", || {
        black_box(analyze(&prog, 30_000, LimitConfig::default()).reusable_pct())
    });
}

fn main() {
    fig3_early_validation();
    fig4_branch_resolution();
    fig5_contention();
    fig6_speedup_magic();
    fig7_speedup_lvp();
    fig8_taxonomy();
    fig9_readiness();
    fig10_reusable();
}

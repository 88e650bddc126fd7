//! Property-based differential testing of the pipeline.
//!
//! For arbitrary seeds and machine configurations, the out-of-order
//! pipeline must commit exactly the architectural state of the
//! functional interpreter. This complements the fixed-seed differential
//! suite with randomized configuration sweeps (seeds reported by the
//! testkit harness on failure).

use vpir_core::{
    BranchResolution, CoreConfig, IrConfig, Reexecution, RunLimits, Simulator, Validation,
    VpConfig, VpKind,
};
use vpir_isa::{Machine, Reg};
use vpir_reuse::{RbConfig, ReuseScheme};
use vpir_testkit::{check, Rng};
use vpir_workloads::synth::{random_program, SynthConfig};

fn arb_config(rng: &mut Rng) -> CoreConfig {
    match rng.gen_range(0..4u32) {
        0 => CoreConfig::table1(),
        1 => {
            let kind = [VpKind::Magic, VpKind::Lvp, VpKind::Stride][rng.gen_range(0..3usize)];
            let br = if rng.gen_bool(0.5) {
                BranchResolution::Sb
            } else {
                BranchResolution::Nsb
            };
            let re = if rng.gen_bool(0.5) {
                Reexecution::Me
            } else {
                Reexecution::Nme
            };
            CoreConfig::with_vp(VpConfig {
                kind,
                branch_resolution: br,
                reexecution: re,
                verify_latency: rng.gen_range(0u32..2),
                ..VpConfig::magic()
            })
        }
        2 => {
            let scheme = [ReuseScheme::Sn, ReuseScheme::SnD, ReuseScheme::SnDValues]
                [rng.gen_range(0..3usize)];
            let validation = if rng.gen_bool(0.5) {
                Validation::Early
            } else {
                Validation::Late
            };
            CoreConfig::with_ir(IrConfig {
                rb: RbConfig {
                    scheme,
                    ..RbConfig::table1()
                },
                validation,
            })
        }
        _ => {
            let kind = [VpKind::Magic, VpKind::Lvp, VpKind::Stride][rng.gen_range(0..3usize)];
            CoreConfig::with_hybrid(
                VpConfig {
                    kind,
                    ..VpConfig::magic()
                },
                IrConfig::table1(),
            )
        }
    }
}

/// Random program × random configuration: identical architectural
/// outcome to the golden model.
#[test]
fn pipeline_matches_functional_machine() {
    check("pipeline_matches_functional_machine", 24, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let config = arb_config(rng);
        let prog = random_program(seed, SynthConfig::default());
        let mut gold = Machine::new(&prog);
        gold.run(20_000_000).expect("golden run");
        if !gold.halted {
            return;
        }

        let mut sim = Simulator::new(&prog, config);
        sim.run(RunLimits::cycles(100_000_000));
        assert!(sim.halted(), "pipeline did not halt (seed {seed})");
        assert_eq!(
            sim.stats().committed,
            gold.icount,
            "commit count (seed {seed})"
        );
        for i in 0..vpir_isa::NUM_REGS {
            let r = Reg::from_index(i);
            assert_eq!(
                sim.arch_regs().read(r),
                gold.regs.read(r),
                "register {r} (seed {seed})"
            );
        }
    });
}

/// Stats invariants hold for arbitrary runs.
#[test]
fn stats_invariants() {
    check("stats_invariants", 24, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let config = arb_config(rng);
        let prog = random_program(
            seed,
            SynthConfig {
                blocks: 4,
                ..SynthConfig::default()
            },
        );
        let mut sim = Simulator::new(&prog, config);
        sim.run(RunLimits::cycles(50_000_000));
        let s = sim.stats();
        assert!(s.committed <= s.dispatched);
        assert!(s.result_pred_correct <= s.result_predicted);
        assert!(s.result_predicted <= s.committed);
        assert!(s.reused_full <= s.committed);
        assert!(s.branch_mispredicts <= s.branches);
        assert!(s.fu_denials <= s.fu_requests);
        assert!(s.port_denials <= s.port_requests);
        assert_eq!(s.exec_histogram.iter().sum::<u64>(), s.committed);
    });
}

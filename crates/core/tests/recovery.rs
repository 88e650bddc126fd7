//! Squash/recovery correctness under the pooled-checkpoint cycle loop.
//!
//! The pipeline recycles checkpoints, RAS snapshots, and squash scratch
//! buffers across cycles (see DESIGN.md §8). A stale byte left behind by
//! pool reuse would corrupt exactly one thing: the architectural state
//! restored after a misprediction. This suite hammers the recovery path
//! with a mispredict-heavy program — data-dependent branches from an LCG,
//! call/return pairs that stress the RAS snapshot pool, and stores that
//! stress reuse-buffer invalidation — and checks the committed registers
//! against the functional golden model under the configurations with the
//! most speculative churn.

use vpir_core::{
    BranchResolution, CoreConfig, IrConfig, Reexecution, RunLimits, Simulator, Validation,
    VpConfig, VpKind,
};
use vpir_isa::{asm, Machine, Program, Reg};

/// A program whose control flow is decided by low bits of an LCG: the
/// gshare predictor cannot learn it, so nearly every iteration squashes.
/// Calls on both sides of the unpredictable branch keep the RAS pool hot,
/// and the store/load pair through a small scratch buffer exercises the
/// bucketed memory invalidation index.
fn mispredict_heavy() -> Program {
    let src = "
        .data
buf:    .space 64
        .text
        .entry main
main:   li   r1, 0            # iteration counter
        li   r2, 400          # iterations
        li   r3, 12345        # LCG state
        li   r4, 0            # accumulator
        la   r5, buf
        li   r6, 1103515245   # LCG multiplier
loop:   mul  r3, r3, r6
        addi r3, r3, 12345
        srl  r7, r3, 17       # low LCG bits have short periods;
        andi r7, r7, 1        # bit 17 is unpredictable at this length
        beq  r7, r0, even
        jal  oddfn
        j    next
even:   jal  evenfn
next:   andi r8, r3, 56       # 8-aligned offset into buf (0..=56)
        add  r9, r5, r8
        sd   r4, 0(r9)        # store: invalidates dependent RB entries
        ld   r10, 0(r9)
        add  r4, r4, r10
        addi r1, r1, 1
        bne  r1, r2, loop
        halt
oddfn:  addi r4, r4, 3
        srl  r11, r3, 19      # second unpredictable branch, inside a call
        andi r11, r11, 1
        beq  r11, r0, oskip
        addi r4, r4, 5
oskip:  jr   ra
evenfn: addi r4, r4, 1
        jr   ra
";
    asm::assemble(src).expect("recovery test program assembles")
}

/// The configurations with the most recovery traffic: the base machine
/// (plain branch squashes), the least conservative VP policy at both
/// verify latencies (value mispredictions squash too), and late-validated
/// IR (reuse is speculative until writeback).
fn churn_configs() -> Vec<(&'static str, CoreConfig)> {
    let nme_nsb = |vl: u32| VpConfig {
        kind: VpKind::Magic,
        reexecution: Reexecution::Nme,
        branch_resolution: BranchResolution::Nsb,
        verify_latency: vl,
        ..VpConfig::magic()
    };
    vec![
        ("base", CoreConfig::table1()),
        ("vp-nme-nsb-vl0", CoreConfig::with_vp(nme_nsb(0))),
        ("vp-nme-nsb-vl1", CoreConfig::with_vp(nme_nsb(1))),
        (
            "ir-late",
            CoreConfig::with_ir(IrConfig {
                validation: Validation::Late,
                ..IrConfig::table1()
            }),
        ),
        (
            "hybrid",
            CoreConfig::with_hybrid(nme_nsb(1), IrConfig::table1()),
        ),
    ]
}

fn assert_matches_golden(label: &str, prog: &Program, config: CoreConfig) {
    let mut gold = Machine::new(prog);
    gold.run(10_000_000).expect("golden run");
    assert!(gold.halted, "golden model did not halt");

    let mut sim = Simulator::new(prog, config);
    sim.run(RunLimits::unbounded());
    assert!(sim.halted(), "[{label}] pipeline did not halt");
    assert_eq!(
        sim.stats().committed,
        gold.icount,
        "[{label}] committed-instruction count diverged"
    );
    for i in 0..vpir_isa::NUM_REGS {
        let r = Reg::from_index(i);
        assert_eq!(
            sim.arch_regs().read(r),
            gold.regs.read(r),
            "[{label}] register {r} diverged after recovery"
        );
    }
}

#[test]
fn recovery_restores_exact_architectural_state() {
    let prog = mispredict_heavy();
    for (label, config) in churn_configs() {
        assert_matches_golden(label, &prog, config);
    }
}

/// Recoveries actually happen in this program — otherwise the suite
/// proves nothing about the pooled checkpoint path.
#[test]
fn recovery_program_squashes_heavily() {
    let prog = mispredict_heavy();
    let mut sim = Simulator::new(&prog, CoreConfig::table1());
    sim.run(RunLimits::unbounded());
    assert!(sim.halted());
    let s = sim.stats();
    assert!(
        s.branch_mispredicts > 100,
        "expected a mispredict-heavy run, saw {} mispredictions",
        s.branch_mispredicts
    );
}

/// Pool state must never leak between runs: two fresh simulators over the
/// same program produce bit-identical statistics, and so do back-to-back
/// runs at different configurations interleaved with each other.
#[test]
fn repeated_runs_are_deterministic() {
    let prog = mispredict_heavy();
    for (label, config) in churn_configs() {
        let mut a = Simulator::new(&prog, config.clone());
        a.run(RunLimits::unbounded());
        let mut b = Simulator::new(&prog, config);
        b.run(RunLimits::unbounded());
        assert_eq!(a.stats(), b.stats(), "[{label}] repeated runs diverged");
    }
}

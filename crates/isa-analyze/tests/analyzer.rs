//! Integration tests: CFG edge cases, dataflow classification, lints,
//! and the characterization test cross-validating the static analysis
//! against the dynamic limit study on every built-in workload.

use vpir_isa::{asm, Inst, Op, Program, Reg, TEXT_BASE};
use vpir_isa_analyze::{analyze_program, cfg, cross_validate, EdgeRole, StaticClass};
use vpir_redundancy::{analyze_per_pc, LimitConfig};
use vpir_workloads::{Bench, Scale};

fn assemble(src: &str) -> Program {
    asm::assemble(src).expect("test program assembles")
}

fn lint_ids(analysis: &vpir_isa_analyze::Analysis) -> Vec<&'static str> {
    analysis.findings.iter().map(|f| f.rule.id()).collect()
}

// ---- CFG edge cases ----

#[test]
fn empty_program_analyzes_to_nothing() {
    let prog = Program::from_insts(Vec::new());
    let analysis = analyze_program(&prog, "empty.s");
    assert!(analysis.cfg.blocks.is_empty());
    assert!(analysis.insts.is_empty());
    assert!(analysis.findings.is_empty());
    assert!(analysis.loops.loops.is_empty());
    assert!(analysis.to_json().starts_with('{'));
}

#[test]
fn self_loop_block_is_its_own_loop() {
    let prog = assemble(
        "loop:  addi r1, r1, 1
                j    loop",
    );
    let analysis = analyze_program(&prog, "selfloop.s");
    assert_eq!(analysis.cfg.blocks.len(), 1);
    assert_eq!(analysis.cfg.blocks[0].succs, vec![0]);
    assert_eq!(analysis.cfg.blocks[0].preds, vec![0]);
    let lp = analysis.loops.loops.get(&0).expect("self-loop detected");
    assert_eq!(lp.tails, vec![0]);
    assert!(lp.body.contains(&0));
    assert_eq!(analysis.loops.depth[0], 1);
}

#[test]
fn branch_to_fallthrough_keeps_one_successor_two_roles() {
    let prog = assemble(
        "       beq  r0, r0, next
         next:  halt",
    );
    let analysis = analyze_program(&prog, "bfall.s");
    // Target and fallthrough collapse to one successor...
    assert_eq!(analysis.cfg.blocks[0].succs, vec![1]);
    // ...but both edge roles survive for the dataflow passes.
    let roles: Vec<EdgeRole> = analysis.cfg.blocks[0]
        .out_edges
        .iter()
        .map(|&(_, r)| r)
        .collect();
    assert_eq!(roles, vec![EdgeRole::Fallthrough, EdgeRole::Target]);
    // beq r0, r0 is constant-taken, so the halt stays executable.
    assert!(analysis.sccp.facts[1].executable);
}

#[test]
fn unreachable_tail_after_unconditional_jump_is_flagged() {
    let prog = assemble(
        "       j    end
                addi r1, r0, 1
         end:   halt",
    );
    let analysis = analyze_program(&prog, "tail.s");
    assert_eq!(analysis.cfg.unreachable_blocks(), vec![1]);
    assert_eq!(lint_ids(&analysis), vec!["L1"]);
    assert!(analysis.findings[0].message.contains("unreachable"));
    // The lint carries the source position of the dead instruction.
    assert_eq!(analysis.findings[0].line, 2);
}

#[test]
fn analysis_json_is_deterministic_across_runs() {
    let src = "
        .entry main
main:   li   r1, 6
        li   r2, 0
        li   r3, 0
loop:   addi r2, r2, 3
        add  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        jal  helper
        halt
helper: addi r4, r0, 9
        jr   r31
";
    // Assemble twice: `Program::labels` is a HashMap, so any ordering
    // leak would show up between two independent instances.
    let a = analyze_program(&assemble(src), "det.s");
    let b = analyze_program(&assemble(src), "det.s");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_text(), b.to_text());
    assert_eq!(cfg::to_json(&a.cfg), cfg::to_json(&b.cfg));
}

// ---- Dataflow and classification ----

#[test]
fn constant_chain_is_invariant_and_loop_counter_is_stride() {
    let prog = assemble(
        "       li   r1, 5
                li   r2, 0
                li   r7, 0
        loop:   addi r2, r2, 4
                addi r7, r7, 1
                add  r3, r2, r7
                li   r9, 1234
                addi r1, r1, -1
                bne  r1, r0, loop
                halt",
    );
    let analysis = analyze_program(&prog, "cls.s");
    assert!(analysis.findings.is_empty(), "{}", analysis.to_text());
    let by_text = |needle: &str| {
        analysis
            .insts
            .iter()
            .find(|i| i.text.contains(needle))
            .expect("inst present")
    };
    // Re-materialized constant inside the loop: same value every time.
    let li9 = by_text("1234");
    assert_eq!(li9.class, Some(StaticClass::Invariant));
    assert_eq!(li9.const_value, Some(1234));
    assert_eq!(li9.loop_depth, 1);
    // Self-incremented counters advance on a stride.
    assert_eq!(
        by_text("addi r2, r2, 4").class,
        Some(StaticClass::StrideDerivable)
    );
    assert_eq!(
        by_text("addi r7, r7, 1").class,
        Some(StaticClass::StrideDerivable)
    );
    // Sum of two varying values: no claim.
    assert_eq!(by_text("add r3").class, Some(StaticClass::InputDependent));
}

#[test]
fn calls_clobber_registers_but_initialize_them() {
    let prog = assemble(
        "main:   jal  helper
                 add  r3, r1, r0
                 halt
         helper: li   r1, 7
                 jr   r31",
    );
    let analysis = analyze_program(&prog, "call.s");
    // No L2: the call-return edge conservatively initializes everything.
    assert!(analysis.findings.is_empty(), "{}", analysis.to_text());
    // And no constant claim across the call, even though the callee
    // happens to always write 7.
    let add = analysis
        .insts
        .iter()
        .find(|i| i.text.contains("add r3"))
        .expect("add present");
    assert_eq!(add.class, Some(StaticClass::InputDependent));
}

#[test]
fn loads_from_never_stored_data_are_invariant() {
    let prog = assemble(
        "        .data
         tbl:    .word 11, 22, 33
                 .text
         main:   li   r5, 2
         loop:   la   r6, tbl
                 lw   r7, 4(r6)
                 addi r5, r5, -1
                 bne  r5, r0, loop
                 halt",
    );
    let analysis = analyze_program(&prog, "load.s");
    assert!(analysis.sccp.resolved_loads);
    let lw = analysis
        .insts
        .iter()
        .find(|i| i.text.starts_with("lw"))
        .expect("load present");
    assert_eq!(lw.class, Some(StaticClass::Invariant));
    assert_eq!(lw.const_value, Some(22));
}

#[test]
fn stored_memory_is_not_constant_for_loads() {
    let prog = assemble(
        "        .data
         cell:   .word 5
                 .text
         main:   la   r6, cell
                 li   r7, 9
                 sw   r7, 0(r6)
                 lw   r8, 0(r6)
                 halt",
    );
    let analysis = analyze_program(&prog, "store.s");
    let lw = analysis
        .insts
        .iter()
        .find(|i| i.text.starts_with("lw"))
        .expect("load present");
    // The load aliases the store's footprint, so no invariance claim
    // (the propagation does not model the store's value).
    assert_eq!(lw.class, Some(StaticClass::InputDependent));
    assert!(analysis.findings.is_empty(), "{}", analysis.to_text());
}

// ---- Lints ----

#[test]
fn uninit_read_fires_with_source_position() {
    let prog = assemble(
        "main:   add  r1, r2, r0
                 halt",
    );
    let analysis = analyze_program(&prog, "uninit.s");
    assert_eq!(lint_ids(&analysis), vec!["L2"]);
    let f = &analysis.findings[0];
    assert!(f.message.contains("r2"), "{}", f.message);
    assert_eq!(f.line, 1);
    assert!(f.col > 0);
    assert!(f.location().starts_with("uninit.s:1:"));
}

#[test]
fn bad_branch_target_fires() {
    // Hand-built: the assembler itself rejects undefined labels, but a
    // program image can still carry a wild target.
    let prog = Program::from_insts(vec![
        Inst::branch2(Op::Beq, Reg::ZERO, Reg::ZERO, TEXT_BASE + 2),
        Inst::HALT,
    ]);
    let analysis = analyze_program(&prog, "bad.s");
    assert_eq!(lint_ids(&analysis), vec!["L3"]);
    assert!(analysis.findings[0].message.contains("0x1002"));
    // Unknown source positions render as file:0.
    assert_eq!(analysis.findings[0].line, 0);
}

#[test]
fn store_only_memory_fires_dead_store() {
    let prog = assemble(
        "        .data
         out:    .word 0
                 .text
         main:   li   r7, 42
                 la   r6, out
                 sw   r7, 0(r6)
                 halt",
    );
    let analysis = analyze_program(&prog, "dead.s");
    assert_eq!(lint_ids(&analysis), vec!["L4"]);
    assert!(analysis.findings[0].message.contains("no load ever reads"));
}

// ---- Cross-validation against the dynamic limit study ----

#[test]
fn invariant_prediction_is_confirmed_dynamically() {
    let src = "
        li   r1, 50
        li   r2, 0
loop:   li   r9, 77
        add  r2, r2, r9
        addi r1, r1, -1
        bne  r1, r0, loop
        halt";
    let prog = assemble(src);
    let analysis = analyze_program(&prog, "xv.s");
    let (_, per_pc) = analyze_per_pc(&prog, 100_000, LimitConfig::default());
    let xv = cross_validate(&analysis.insts, &per_pc);
    assert!(xv.universe > 0);
    assert!(xv.static_invariant > 0);
    assert!(
        xv.false_positive_pcs.is_empty(),
        "{:?}",
        xv.false_positive_pcs
    );
    assert!((xv.precision() - 1.0).abs() < 1e-12);
    assert!(xv.recall() > 0.0);
}

/// Characterization test (the PR's acceptance bar): on every built-in
/// workload, each statically invariant instruction that executes at
/// least twice produces a repeated result in the dynamic limit study —
/// zero false positives — and the workloads themselves are lint-clean.
#[test]
fn workloads_are_lint_clean_and_invariance_has_zero_false_positives() {
    for bench in Bench::ALL {
        let prog = bench.program(Scale::test());
        let analysis = analyze_program(&prog, bench.name());
        assert!(
            analysis.findings.is_empty(),
            "{} has lint findings:\n{}",
            bench.name(),
            analysis.to_text()
        );
        let (_, per_pc) = analyze_per_pc(&prog, 200_000, LimitConfig::default());
        let xv = cross_validate(&analysis.insts, &per_pc);
        assert!(
            xv.false_positive_pcs.is_empty(),
            "{}: statically invariant PCs never repeated dynamically: {:x?}",
            bench.name(),
            xv.false_positive_pcs
        );
        assert!((xv.precision() - 1.0).abs() < 1e-12, "{}", bench.name());
        assert!(xv.universe > 0, "{}", bench.name());
    }
}

//! Zero-allocation steady-state assertion for the cycle loop.
//!
//! The SoA refactor's perf contract (ISSUE 7, DESIGN.md §8) is that a
//! steady-state cycle touches preallocated columns, masks, and pooled
//! scratch only — no heap traffic. This suite installs the counting
//! allocator from `vpir-testkit` as the test binary's global allocator,
//! warms a simulator past its capacity-growth phase, and asserts that
//! stepping further cycles performs literally zero allocations.
//!
//! The workload is a long straight-line ALU stream: branches are
//! excluded deliberately, because checkpoint creation at branch
//! dispatch clones the rename map (a bounded, pooled cost under churn,
//! but an allocation nonetheless) and would turn the assertion into a
//! flaky measure of pool-capacity high-water marks. The straight-line
//! stream still drives every per-cycle stage: fetch (with i-cache
//! misses), dispatch, rename, issue sleep/wake, execute, writeback,
//! and commit.

use std::fmt::Write as _;

use vpir_core::{CoreConfig, RunLimits, Simulator};
use vpir_isa::{asm, Program};
use vpir_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A straight-line program: a dependent ALU chain interleaved with
/// independent work, long enough to hold steady state for thousands of
/// cycles before its halt.
fn straight_line(insts: usize) -> Program {
    let mut src = String::from("        .text\n        .entry main\nmain:   li r1, 1\n        li r2, 3\n        li r3, 7\n");
    for i in 0..insts {
        match i % 4 {
            0 => src.push_str("        add r1, r1, r2\n"),
            1 => src.push_str("        xor r4, r1, r3\n"),
            2 => src.push_str("        addi r2, r2, 5\n"),
            _ => {
                let _ = writeln!(src, "        andi r5, r4, {}", (i % 255) + 1);
            }
        }
    }
    src.push_str("        halt\n");
    asm::assemble(&src).expect("straight-line source assembles")
}

#[test]
fn steady_state_cycles_allocate_nothing() {
    let program = straight_line(6_000);
    let mut sim = Simulator::new(&program, CoreConfig::table1());

    // Warm-up: let every growable structure (fetch queue, speculative
    // undo logs, MSHR lists, scratch vectors) reach its steady-state
    // capacity.
    sim.run(RunLimits::cycles(500));
    assert!(!sim.halted(), "warm-up consumed the whole program");

    let before = ALLOC.allocations();
    for _ in 0..1_000 {
        sim.step_cycle().expect("steady-state cycle");
        assert!(!sim.halted(), "program ended inside the measured window");
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state loop allocated {delta} time(s) over 1000 cycles"
    );
}

#[test]
fn the_counting_allocator_itself_observes_heap_traffic() {
    // Sanity check that a zero reading means something: an actual
    // allocation moves the counter.
    let before = ALLOC.allocations();
    let v: Vec<u64> = Vec::with_capacity(32);
    assert!(v.capacity() >= 32);
    assert!(
        ALLOC.allocations() > before,
        "Vec::with_capacity must count"
    );
    drop(v);
}

//! Property-based tests for the reuse buffer.
//!
//! The central invariant is *soundness*: under the value-augmented
//! scheme, whenever the buffer reports a reusable result for an
//! instruction whose operands currently hold known values, that result
//! equals what executing the instruction with those values would
//! produce. (Non-speculativity is IR's defining property.)

use vpir_isa::{execute, Inst, MemImage, Op, Reg};
use vpir_reuse::{OperandView, RbConfig, RbInsert, ReuseBuffer, ReuseScheme};
use vpir_testkit::{check, Rng};

const OPS: [Op; 7] = [Op::Add, Op::Sub, Op::Mul, Op::And, Op::Or, Op::Xor, Op::Slt];

fn arb_op(rng: &mut Rng) -> Op {
    OPS[rng.gen_range(0..OPS.len())]
}

#[derive(Debug, Clone)]
enum Event {
    /// Execute (and record) the instruction at `pc_idx` with operands.
    Exec { pc_idx: u8, a: u64, b: u64 },
    /// Try to reuse `pc_idx` with current operand values.
    Lookup { pc_idx: u8, a: u64, b: u64 },
    /// Commit a register write (invalidation traffic).
    RegWrite { reg: u8, value: u64 },
}

fn arb_event(rng: &mut Rng) -> Event {
    // Small value domains make collisions (and hence reuse) likely.
    match rng.gen_range(0..3u32) {
        0 => Event::Exec {
            pc_idx: rng.gen_range(0u8..6),
            a: rng.gen_range(0u64..6),
            b: rng.gen_range(0u64..6),
        },
        1 => Event::Lookup {
            pc_idx: rng.gen_range(0u8..6),
            a: rng.gen_range(0u64..6),
            b: rng.gen_range(0u64..6),
        },
        _ => Event::RegWrite {
            reg: rng.gen_range(2u8..6),
            value: rng.gen_range(0u64..6),
        },
    }
}

fn compute(op: Op, a: u64, b: u64) -> u64 {
    let inst = Inst::rrr(op, Reg::int(1), Reg::int(2), Reg::int(3));
    let mem = MemImage::new();
    let out = execute(
        &inst,
        0,
        |r| {
            if r == Reg::int(2) {
                a
            } else if r == Reg::int(3) {
                b
            } else {
                0
            }
        },
        &mem,
    );
    out.result.expect("alu result")
}

/// Soundness: any reported full reuse matches real execution.
#[test]
fn reuse_is_always_sound() {
    check("reuse_is_always_sound", 256, |rng| {
        let ops: Vec<Op> = (0..6).map(|_| arb_op(rng)).collect();
        let mut rb = ReuseBuffer::new(RbConfig {
            entries: 16,
            assoc: 2,
            scheme: ReuseScheme::SnDValues,
        });
        for _ in 0..rng.gen_range(1usize..150) {
            match arb_event(rng) {
                Event::Exec { pc_idx, a, b } => {
                    let op = ops[pc_idx as usize];
                    rb.insert(RbInsert {
                        pc: 0x1000 + 4 * pc_idx as u64,
                        op,
                        srcs: [Some((Reg::int(2), a)), Some((Reg::int(3), b))],
                        result: Some(compute(op, a, b)),
                        ..RbInsert::default()
                    });
                }
                Event::Lookup { pc_idx, a, b } => {
                    let op = ops[pc_idx as usize];
                    let view = move |r: Reg| {
                        if r == Reg::int(2) {
                            OperandView::settled(a)
                        } else if r == Reg::int(3) {
                            OperandView::settled(b)
                        } else {
                            OperandView::default()
                        }
                    };
                    if let Some(hit) = rb.lookup(0x1000 + 4 * pc_idx as u64, op, &view, &[]) {
                        assert!(hit.full);
                        assert_eq!(
                            hit.result,
                            Some(compute(op, a, b)),
                            "unsound reuse of {op:?} with ({a}, {b})"
                        );
                    }
                }
                Event::RegWrite { reg, value } => {
                    rb.on_reg_write(Reg::int(reg), value);
                }
            }
        }
    });
}

/// Per-PC occupancy never exceeds the associativity.
#[test]
fn instances_bounded_by_assoc() {
    check("instances_bounded_by_assoc", 256, |rng| {
        let mut rb = ReuseBuffer::new(RbConfig {
            entries: 32,
            assoc: 4,
            scheme: ReuseScheme::SnDValues,
        });
        for _ in 0..rng.gen_range(1usize..120) {
            let pc = 0x1000 + 4 * rng.gen_range(0u64..4);
            let a = rng.gen_range(0u64..20);
            let b = rng.gen_range(0u64..20);
            rb.insert(RbInsert {
                pc,
                op: Op::Add,
                srcs: [Some((Reg::int(2), a)), Some((Reg::int(3), b))],
                result: Some(a + b),
                ..RbInsert::default()
            });
            assert!(rb.instances(pc) <= 4);
        }
    });
}

/// An entry written and immediately probed with identical settled
/// operands always hits (completeness on the easy path).
#[test]
fn fresh_entry_hits() {
    check("fresh_entry_hits", 256, |rng| {
        let mut rb = ReuseBuffer::new(RbConfig::table1());
        let pc = 0x1000 + rng.gen_range(0u64..64) * 4;
        let a = rng.gen_range(0u64..100);
        let b = rng.gen_range(0u64..100);
        rb.insert(RbInsert {
            pc,
            op: Op::Xor,
            srcs: [Some((Reg::int(2), a)), Some((Reg::int(3), b))],
            result: Some(a ^ b),
            ..RbInsert::default()
        });
        let view = move |r: Reg| {
            if r == Reg::int(2) {
                OperandView::settled(a)
            } else {
                OperandView::settled(b)
            }
        };
        let hit = rb
            .lookup(pc, Op::Xor, &view, &[])
            .expect("fresh entry reusable");
        assert_eq!(hit.result, Some(a ^ b));
    });
}

/// Stats counters never go backwards and always balance.
#[test]
fn stats_balance() {
    check("stats_balance", 256, |rng| {
        let mut rb = ReuseBuffer::new(RbConfig {
            entries: 8,
            assoc: 2,
            scheme: ReuseScheme::SnDValues,
        });
        for _ in 0..rng.gen_range(1usize..80) {
            let a = rng.gen_range(0u64..4);
            let b = rng.gen_range(0u64..4);
            rb.insert(RbInsert {
                pc: 0x1000 + 4 * rng.gen_range(0u64..8),
                op: Op::Add,
                srcs: [Some((Reg::int(2), a)), Some((Reg::int(3), b))],
                result: Some(a + b),
                ..RbInsert::default()
            });
            let s = rb.stats();
            assert!(s.evictions <= s.inserts);
        }
    });
}

//! Property-based tests for the ISA crate.

use vpir_isa::{asm, execute, Inst, MemImage, MemWidth, Op, Reg, RegFile};
use vpir_testkit::{check, Rng};

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::int(rng.gen_range(0u8..32))
}

fn arb_freg(rng: &mut Rng) -> Reg {
    Reg::fp(rng.gen_range(0u8..32))
}

fn arb_width(rng: &mut Rng) -> MemWidth {
    [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8][rng.gen_range(0..4usize)]
}

/// Assembly-printable instructions (register-file subset).
fn arb_inst(rng: &mut Rng) -> Inst {
    const RRR_OPS: [Op; 11] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Nor,
        Op::Slt,
        Op::Sltu,
        Op::Div,
        Op::Rem,
    ];
    const RRI_OPS: [Op; 5] = [Op::Addi, Op::Andi, Op::Ori, Op::Xori, Op::Slti];
    match rng.gen_range(0..4u32) {
        0 => {
            let op = RRR_OPS[rng.gen_range(0..RRR_OPS.len())];
            Inst::rrr(op, arb_reg(rng), arb_reg(rng), arb_reg(rng))
        }
        1 => {
            let op = RRI_OPS[rng.gen_range(0..RRI_OPS.len())];
            Inst::rri(
                op,
                arb_reg(rng),
                arb_reg(rng),
                rng.gen_range(-10_000i64..10_000),
            )
        }
        2 => Inst::rrr(Op::AddF, arb_freg(rng), arb_freg(rng), arb_freg(rng)),
        _ => Inst::rri(
            Op::Lui,
            arb_reg(rng),
            Reg::ZERO,
            rng.gen_range(0i64..0x10000),
        ),
    }
}

/// The assembler parses back exactly what `Display` prints.
#[test]
fn display_assemble_roundtrip() {
    check("display_assemble_roundtrip", 256, |rng| {
        let n = rng.gen_range(1usize..20);
        let insts: Vec<Inst> = (0..n).map(|_| arb_inst(rng)).collect();
        let mut src = String::new();
        for i in &insts {
            src.push_str(&format!("        {i}\n"));
        }
        src.push_str("        halt\n");
        let prog = asm::assemble(&src).expect("printed instructions reassemble");
        assert_eq!(prog.insts.len(), insts.len() + 1);
        for (orig, parsed) in insts.iter().zip(&prog.insts) {
            assert_eq!(orig, parsed);
        }
    });
}

/// Memory behaves like a byte map: reads return the last write.
#[test]
fn memory_matches_byte_map() {
    check("memory_matches_byte_map", 256, |rng| {
        let n = rng.gen_range(1usize..60);
        let writes: Vec<(u64, MemWidth, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..0x1_0000), arb_width(rng), rng.gen_u64()))
            .collect();
        let probe = rng.gen_range(0u64..0x1_0000);
        let mut mem = MemImage::new();
        let mut model = std::collections::HashMap::<u64, u8>::new();
        for (addr, width, value) in &writes {
            mem.write(*addr, *width, *value);
            for i in 0..width.bytes() {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        assert_eq!(mem.read_u8(probe), model.get(&probe).copied().unwrap_or(0));
        for (addr, width, _) in &writes {
            let expected: u64 = (0..width.bytes())
                .map(|i| (model.get(&(addr + i)).copied().unwrap_or(0) as u64) << (8 * i))
                .sum();
            assert_eq!(mem.read(*addr, *width), expected);
        }
    });
}

/// Execution is a pure function of the operand values.
#[test]
fn execute_is_deterministic() {
    check("execute_is_deterministic", 256, |rng| {
        let inst = arb_inst(rng);
        let mut rf = RegFile::new();
        for i in 0..65 {
            rf.write(Reg::from_index(i), rng.gen_u64());
        }
        let mem = MemImage::new();
        let a = execute(&inst, 0x1000, |r| rf.read(r), &mem);
        let b = execute(&inst, 0x1000, |r| rf.read(r), &mem);
        assert_eq!(a, b);
    });
}

/// The zero register is never observed non-zero, whatever executes.
#[test]
fn zero_register_invariant() {
    check("zero_register_invariant", 256, |rng| {
        let inst = arb_inst(rng);
        let mut rf = RegFile::new();
        for i in 0..65 {
            rf.write(Reg::from_index(i), rng.gen_u64());
        }
        let mem = MemImage::new();
        let out = execute(&inst, 0x1000, |r| rf.read(r), &mem);
        if inst.dst == Some(Reg::ZERO) {
            assert_eq!(out.result, Some(0));
        }
        assert_eq!(rf.read(Reg::ZERO), 0);
    });
}

/// Every opcode's mnemonic survives a parse round trip.
#[test]
fn mnemonic_roundtrip() {
    for op in Op::ALL {
        assert_eq!(Op::parse(op.mnemonic()), Some(*op));
    }
}

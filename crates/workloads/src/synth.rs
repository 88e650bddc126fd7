//! Structured random program generation for differential fuzzing.
//!
//! [`random_program`] builds terminating, deterministic programs that
//! exercise the whole ISA — counted loops, forward branches, calls,
//! memory traffic, multiplies/divides, and floating point — so the
//! pipeline can be checked instruction-for-instruction against the
//! functional interpreter under every machine configuration.
//!
//! Termination is guaranteed by construction: all loops count down
//! dedicated registers, all conditional branches inside a block jump
//! strictly forward, and calls only target leaf functions.

use vpir_isa::{asm, Program};
use vpir_testkit::Rng;

/// Scratch memory region used by generated memory operations.
const REGION: u64 = 0x50_0000;

/// Knobs for [`random_program`].
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of top-level blocks.
    pub blocks: usize,
    /// Iterations of the outermost loop.
    pub outer_iters: u32,
    /// Include floating-point operations.
    pub fp: bool,
    /// Include multiply/divide operations.
    pub muldiv: bool,
    /// Include loads/stores.
    pub memory: bool,
    /// Include calls to generated leaf functions.
    pub calls: bool,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            blocks: 6,
            outer_iters: 3,
            fp: true,
            muldiv: true,
            memory: true,
            calls: true,
        }
    }
}

/// Generates a random, terminating program from `seed`.
///
/// The same `(seed, config)` always yields the same program.
///
/// # Panics
///
/// Panics only on an internal assembly error (a generator bug).
pub fn random_program(seed: u64, config: SynthConfig) -> Program {
    let src = random_source(seed, config);
    asm::assemble(&src).unwrap_or_else(|e| panic!("synth bug (seed {seed}): {e}\n{src}"))
}

/// Generates the assembly source for a random program (exposed so test
/// failures can print it).
pub fn random_source(seed: u64, config: SynthConfig) -> String {
    let mut rng = Rng::new(seed);
    let mut g = Gen {
        rng: &mut rng,
        config,
        out: String::new(),
        label: 0,
        funcs: Vec::new(),
    };
    g.program();
    g.out
}

/// General-purpose registers the generator may freely clobber.
const POOL: [u8; 12] = [8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19];
/// FP registers the generator may freely clobber.
const FPOOL: [u8; 6] = [0, 1, 2, 3, 4, 5];

struct Gen<'a> {
    rng: &'a mut Rng,
    config: SynthConfig,
    out: String,
    label: u32,
    funcs: Vec<String>,
}

impl Gen<'_> {
    fn fresh(&mut self, stem: &str) -> String {
        self.label += 1;
        format!("{stem}_{}", self.label)
    }

    fn emit(&mut self, line: &str) {
        self.out.push_str("        ");
        self.out.push_str(line);
        self.out.push('\n');
    }

    fn emit_label(&mut self, label: &str) {
        self.out.push_str(label);
        self.out.push_str(":\n");
    }

    fn reg(&mut self) -> String {
        format!("r{}", POOL[self.rng.gen_range(0..POOL.len())])
    }

    fn freg(&mut self) -> String {
        format!("f{}", FPOOL[self.rng.gen_range(0..FPOOL.len())])
    }

    fn program(&mut self) {
        // Pre-generate leaf functions so calls have targets.
        let nfuncs = if self.config.calls {
            self.rng.gen_range(1..4)
        } else {
            0
        };
        for i in 0..nfuncs {
            self.funcs.push(format!("leaf_{i}"));
        }

        self.emit(".entry main");
        self.emit_label("main");
        // Seed the register pool with interesting values.
        for r in POOL {
            let v: i64 = match self.rng.gen_range(0..4) {
                0 => self.rng.gen_range(-100..100),
                1 => self.rng.gen_range(0..1 << 16),
                2 => -1,
                _ => self.rng.gen_i32() as i64,
            };
            self.emit(&format!("li r{r}, {v}"));
        }
        if self.config.fp {
            for (i, f) in FPOOL.into_iter().enumerate() {
                self.emit(&format!("li r7, {}", (i as i64 + 1) * 3));
                self.emit(&format!("cvt.f.i f{f}, r7"));
            }
        }
        self.emit(&format!("la r5, {REGION}"));

        let outer = self.fresh("outer");
        self.emit(&format!("li r1, {}", self.config.outer_iters));
        self.emit_label(&outer.clone());
        for _ in 0..self.config.blocks {
            self.block(2);
        }
        self.emit("addi r1, r1, -1");
        self.emit(&format!("bne r1, r0, {outer}"));
        self.emit("halt");

        // Leaf functions: straight-line compute, return via `jr ra`.
        let funcs = self.funcs.clone();
        for name in funcs {
            self.emit_label(&name);
            for _ in 0..self.rng.gen_range(2..8) {
                self.straight_op();
            }
            self.emit("jr ra");
        }
    }

    /// One top-level block; `depth` bounds loop nesting.
    fn block(&mut self, depth: u32) {
        match self.rng.gen_range(0..10) {
            0..=3 => {
                for _ in 0..self.rng.gen_range(1..6) {
                    self.straight_op();
                }
            }
            4..=5 => self.forward_branch(),
            6..=7 if depth > 0 => self.counted_loop(depth),
            8 if !self.funcs.is_empty() => {
                let f = self.funcs[self.rng.gen_range(0..self.funcs.len())].clone();
                self.emit(&format!("jal {f}"));
            }
            _ => {
                for _ in 0..self.rng.gen_range(1..4) {
                    self.straight_op();
                }
            }
        }
    }

    fn forward_branch(&mut self) {
        let skip = self.fresh("skip");
        let (a, b) = (self.reg(), self.reg());
        let cond = match self.rng.gen_range(0..4) {
            0 => format!("beq {a}, {b}, {skip}"),
            1 => format!("bne {a}, {b}, {skip}"),
            2 => format!("blez {a}, {skip}"),
            _ => format!("bgez {a}, {skip}"),
        };
        self.emit(&cond);
        for _ in 0..self.rng.gen_range(1..5) {
            self.straight_op();
        }
        // Optional else arm via a second forward jump.
        if self.rng.gen_bool(0.3) {
            let join = self.fresh("join");
            self.emit(&format!("b {join}"));
            self.emit_label(&skip);
            for _ in 0..self.rng.gen_range(1..4) {
                self.straight_op();
            }
            self.emit_label(&join);
        } else {
            self.emit_label(&skip);
        }
    }

    fn counted_loop(&mut self, depth: u32) {
        // r2 and r3 are dedicated loop counters by nesting level.
        let counter = if depth == 2 { "r2" } else { "r3" };
        let head = self.fresh("loop");
        let iters = self.rng.gen_range(2..8);
        self.emit(&format!("li {counter}, {iters}"));
        self.emit_label(&head);
        for _ in 0..self.rng.gen_range(1..4) {
            if depth > 1 && self.rng.gen_bool(0.3) {
                self.counted_loop(depth - 1);
            } else {
                self.block(0);
            }
        }
        self.emit(&format!("addi {counter}, {counter}, -1"));
        self.emit(&format!("bne {counter}, r0, {head}"));
    }

    fn straight_op(&mut self) {
        let choices: u32 = if self.config.fp { 10 } else { 8 };
        match self.rng.gen_range(0..choices) {
            0..=3 => self.alu_op(),
            4..=5 if self.config.memory => self.mem_op(),
            6 if self.config.muldiv => self.muldiv_op(),
            7 => {
                let (d, s) = (self.reg(), self.reg());
                let sh = self.rng.gen_range(0..32);
                let op = ["sll", "srl", "sra"][self.rng.gen_range(0..3)];
                self.emit(&format!("{op} {d}, {s}, {sh}"));
            }
            8..=9 => self.fp_op(),
            _ => self.alu_op(),
        }
    }

    fn alu_op(&mut self) {
        let (d, a, b) = (self.reg(), self.reg(), self.reg());
        if self.rng.gen_bool(0.4) {
            let op = ["addi", "andi", "ori", "xori", "slti"][self.rng.gen_range(0..5)];
            // Logical immediates are zero-extended 16-bit fields in the
            // binary encoding, so they must be non-negative.
            let imm: i64 = match op {
                "andi" | "ori" | "xori" => self.rng.gen_range(0..4096),
                _ => self.rng.gen_range(-4096..4096),
            };
            self.emit(&format!("{op} {d}, {a}, {imm}"));
        } else {
            let op =
                ["add", "sub", "and", "or", "xor", "nor", "slt", "sltu"][self.rng.gen_range(0..8)];
            self.emit(&format!("{op} {d}, {a}, {b}"));
        }
    }

    fn muldiv_op(&mut self) {
        let (d, a, b) = (self.reg(), self.reg(), self.reg());
        let op = ["mul", "mulh", "div", "rem"][self.rng.gen_range(0..4)];
        self.emit(&format!("{op} {d}, {a}, {b}"));
    }

    fn mem_op(&mut self) {
        // Constrain the address into the scratch region: r5 holds its
        // base; mask a pool register into a bounded offset.
        let idx = self.reg();
        let tmp = "r4";
        let off = self.rng.gen_range(0..64) * 8;
        self.emit(&format!("andi {tmp}, {idx}, 0x7f8"));
        self.emit(&format!("add {tmp}, {tmp}, r5"));
        if self.rng.gen_bool(0.5) {
            let d = self.reg();
            let op = ["lb", "lbu", "lh", "lhu", "lw", "lwu", "ld"][self.rng.gen_range(0..7)];
            self.emit(&format!("{op} {d}, {off}({tmp})"));
        } else {
            let v = self.reg();
            let op = ["sb", "sh", "sw", "sd"][self.rng.gen_range(0..4)];
            self.emit(&format!("{op} {v}, {off}({tmp})"));
        }
    }

    fn fp_op(&mut self) {
        if !self.config.fp {
            return self.alu_op();
        }
        match self.rng.gen_range(0..4) {
            0 => {
                let (d, a, b) = (self.freg(), self.freg(), self.freg());
                let op = ["add.f", "sub.f", "mul.f"][self.rng.gen_range(0..3)];
                self.emit(&format!("{op} {d}, {a}, {b}"));
            }
            1 => {
                let (d, a) = (self.freg(), self.freg());
                let op = ["abs.f", "neg.f", "mov.f"][self.rng.gen_range(0..3)];
                self.emit(&format!("{op} {d}, {a}"));
            }
            2 => {
                // Keep magnitudes bounded: convert through integers.
                let (f, r) = (self.freg(), self.reg());
                self.emit(&format!("cvt.i.f {r}, {f}"));
                self.emit(&format!("andi {r}, {r}, 0xff"));
                self.emit(&format!("cvt.f.i {f}, {r}"));
            }
            _ => {
                let (a, b) = (self.freg(), self.freg());
                let op = ["c.eq.f", "c.lt.f", "c.le.f"][self.rng.gen_range(0..3)];
                self.emit(&format!("{op} {a}, {b}"));
                let skip = self.fresh("fskip");
                let br = if self.rng.gen_bool(0.5) {
                    "bc1t"
                } else {
                    "bc1f"
                };
                self.emit(&format!("{br} {skip}"));
                self.alu_op();
                self.emit_label(&skip);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_isa::Machine;

    #[test]
    fn generated_programs_assemble_and_terminate() {
        for seed in 0..30 {
            let prog = random_program(seed, SynthConfig::default());
            let mut m = Machine::new(&prog);
            m.run(2_000_000).unwrap();
            assert!(m.halted, "seed {seed} did not halt");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_source(7, SynthConfig::default());
        let b = random_source(7, SynthConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = random_source(1, SynthConfig::default());
        let b = random_source(2, SynthConfig::default());
        assert_ne!(a, b);
    }

    #[test]
    fn feature_knobs_respected() {
        let cfg = SynthConfig {
            fp: false,
            muldiv: false,
            memory: false,
            calls: false,
            ..SynthConfig::default()
        };
        for seed in 0..10 {
            let src = random_source(seed, cfg);
            assert!(!src.contains(".f"), "fp in: {src}");
            assert!(!src.contains("mul"), "mul in: {src}");
            assert!(!src.contains("lw "), "mem in: {src}");
            assert!(!src.contains("jal"), "call in: {src}");
        }
    }
}

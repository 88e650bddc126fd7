//! # vpir-workloads — benchmark programs for the simulator
//!
//! The paper evaluates on seven SPECint95 programs. Their binaries and
//! reference inputs are not reproducible here, so this crate provides
//! seven *synthetic stand-ins*, each hand-written in the simulator's
//! assembly dialect and designed to land in the qualitative regime of its
//! namesake along the axes that drive the paper's phenomena:
//!
//! | bench | signature it mimics |
//! |---|---|
//! | [`Bench::Go`] | data-dependent evaluation, hard branches (~76% gshare) |
//! | [`Bench::M88ksim`] | instruction-set interpreter loop: very high redundancy |
//! | [`Bench::Ijpeg`] | blockwise integer transforms: predictable loops, multiplies |
//! | [`Bench::Perl`] | string hashing + table dispatch: moderate redundancy |
//! | [`Bench::Vortex`] | object store traversal: many calls/returns, easy branches |
//! | [`Bench::Gcc`] | tree walk with kind-switch: mixed behaviour |
//! | [`Bench::Compress`] | LZW-style hashing: high *address* reuse, low result reuse |
//!
//! All programs are deterministic (fixed seeds), self-checking (they
//! leave a checksum in `r20`), and scalable via [`Scale`].
//!
//! The crate also provides [`synth::random_program`], a structured random
//! program generator used for differential fuzzing of the pipeline
//! against the functional interpreter.
//!
//! # Examples
//!
//! ```
//! use vpir_workloads::{Bench, Scale};
//! use vpir_isa::Machine;
//!
//! let prog = Bench::Compress.program(Scale::test());
//! let mut m = Machine::new(&prog);
//! m.run(10_000_000).unwrap();
//! assert!(m.halted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;
pub mod synth;

use vpir_isa::Program;

/// How large a run to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Top-level repetition count; dynamic instruction counts grow
    /// roughly linearly in this.
    pub outer: u32,
}

impl Scale {
    /// A small scale for unit tests (a few thousand dynamic instructions).
    pub fn test() -> Scale {
        Scale { outer: 2 }
    }

    /// The default experiment scale (hundreds of thousands to a few
    /// million dynamic instructions per benchmark).
    pub fn experiment() -> Scale {
        Scale { outer: 40 }
    }

    /// A custom scale.
    pub fn of(outer: u32) -> Scale {
        Scale {
            outer: outer.max(1),
        }
    }
}

/// The seven benchmark stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// `go`-like: board evaluation with hard, data-dependent branches.
    Go,
    /// `m88ksim`-like: an instruction-set interpreter (high redundancy).
    M88ksim,
    /// `ijpeg`-like: blockwise integer transforms.
    Ijpeg,
    /// `perl`-like: string hashing and dispatch.
    Perl,
    /// `vortex`-like: object-store traversal, call-heavy.
    Vortex,
    /// `gcc`-like: expression-tree walking with a kind switch.
    Gcc,
    /// `compress`-like: LZW-style compression (address-reuse heavy).
    Compress,
}

impl Bench {
    /// All benchmarks, in the paper's Table 2 order.
    pub const ALL: [Bench; 7] = [
        Bench::Go,
        Bench::M88ksim,
        Bench::Ijpeg,
        Bench::Perl,
        Bench::Vortex,
        Bench::Gcc,
        Bench::Compress,
    ];

    /// The benchmark's display name (its SPECint95 namesake).
    pub fn name(self) -> &'static str {
        match self {
            Bench::Go => "go",
            Bench::M88ksim => "m88ksim",
            Bench::Ijpeg => "ijpeg",
            Bench::Perl => "perl",
            Bench::Vortex => "vortex",
            Bench::Gcc => "gcc",
            Bench::Compress => "compress",
        }
    }

    /// Parses a benchmark name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Builds the program at the given scale.
    ///
    /// # Panics
    ///
    /// Panics only on an internal assembly error (a bug in this crate).
    pub fn program(self, scale: Scale) -> Program {
        let (src, data) = match self {
            Bench::Go => programs::go(scale),
            Bench::M88ksim => programs::m88ksim(scale),
            Bench::Ijpeg => programs::ijpeg(scale),
            Bench::Perl => programs::perl(scale),
            Bench::Vortex => programs::vortex(scale),
            Bench::Gcc => programs::gcc(scale),
            Bench::Compress => programs::compress(scale),
        };
        let mut prog = vpir_isa::asm::assemble(&src)
            .unwrap_or_else(|e| panic!("internal asm error in {}: {e}", self.name()));
        prog.data.extend(data);
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_isa::{Machine, Reg};

    #[test]
    fn names_roundtrip() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Some(b));
        }
        assert_eq!(Bench::parse("nope"), None);
    }

    #[test]
    fn all_benchmarks_assemble_run_and_halt() {
        for b in Bench::ALL {
            let prog = b.program(Scale::test());
            let mut m = Machine::new(&prog);
            let n = m.run(50_000_000).unwrap();
            assert!(m.halted, "{} did not halt ({n} insts)", b.name());
            assert!(n > 1_000, "{} too short: {n} insts", b.name());
            assert_ne!(
                m.regs.read(Reg::int(20)),
                0,
                "{} left no checksum",
                b.name()
            );
        }
    }

    #[test]
    fn benchmarks_are_deterministic() {
        for b in [Bench::Go, Bench::Compress] {
            let run = |_| {
                let prog = b.program(Scale::test());
                let mut m = Machine::new(&prog);
                m.run(50_000_000).unwrap();
                (m.icount, m.regs.read(Reg::int(20)))
            };
            assert_eq!(run(0), run(1), "{}", b.name());
        }
    }

    #[test]
    fn scale_increases_work() {
        let b = Bench::Ijpeg;
        let small = {
            let mut m = Machine::new(&b.program(Scale::of(1)));
            m.run(100_000_000).unwrap();
            m.icount
        };
        let large = {
            let mut m = Machine::new(&b.program(Scale::of(4)));
            m.run(100_000_000).unwrap();
            m.icount
        };
        assert!(large > 2 * small, "{small} -> {large}");
    }
}

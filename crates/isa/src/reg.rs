//! Architectural register identifiers.
//!
//! The machine exposes 32 integer registers (`r0`–`r31`, with `r0`
//! hard-wired to zero), 32 floating-point registers (`f0`–`f31`) and a
//! floating-point condition code (`fcc`), mirroring the architected state
//! of the paper's MIPS-I baseline (Table 1). The paper's `hi`/`lo` pair is
//! subsumed by single-destination `mul`/`mulh`/`div`/`rem` operations (see
//! DESIGN.md).

use std::fmt;

/// Number of architectural registers (32 int + 32 fp + fcc).
pub const NUM_REGS: usize = 65;

/// Index of the first floating-point register.
pub const FP_BASE: u8 = 32;

/// An architectural register name.
///
/// Registers are identified by a flat index: `0..32` are the integer
/// registers, `32..64` the floating-point registers, and `64` is the
/// floating-point condition code.
///
/// # Examples
///
/// ```
/// use vpir_isa::Reg;
/// let r5 = Reg::int(5);
/// assert!(r5.is_int());
/// assert_eq!(r5.to_string(), "r5");
/// assert_eq!(Reg::FCC.to_string(), "fcc");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The integer register hard-wired to zero.
    pub const ZERO: Reg = Reg(0);
    /// The conventional return-address register (`r31`).
    pub const RA: Reg = Reg(31);
    /// The conventional stack pointer (`r29`).
    pub const SP: Reg = Reg(29);
    /// The floating-point condition code register.
    pub const FCC: Reg = Reg(64);

    /// Creates an integer register `rN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn int(n: u8) -> Reg {
        assert!(n < 32, "integer register index {n} out of range");
        Reg(n)
    }

    /// Creates a floating-point register `fN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn fp(n: u8) -> Reg {
        assert!(n < 32, "fp register index {n} out of range");
        Reg(FP_BASE + n)
    }

    /// Creates a register from its flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    pub fn from_index(index: usize) -> Reg {
        assert!(index < NUM_REGS, "register index {index} out of range");
        Reg(index as u8)
    }

    /// The flat index of this register, suitable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the 32 integer registers.
    pub fn is_int(self) -> bool {
        self.0 < FP_BASE
    }

    /// Whether this is one of the 32 floating-point registers.
    pub fn is_fp(self) -> bool {
        self.0 >= FP_BASE && self.0 < FP_BASE + 32
    }

    /// Whether this is the hard-wired zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Parses a register name: `rN`, `fN`, `fcc`, or an ABI alias
    /// (`zero`, `at`, `v0`–`v1`, `a0`–`a3`, `t0`–`t9`, `s0`–`s7`, `k0`,
    /// `k1`, `gp`, `sp`, `fp`, `ra`).
    ///
    /// Returns `None` for unrecognised names.
    pub fn parse(name: &str) -> Option<Reg> {
        let name = name.trim();
        if name == "fcc" {
            return Some(Reg::FCC);
        }
        if let Some(num) = name.strip_prefix('r') {
            if let Ok(n) = num.parse::<u8>() {
                if n < 32 {
                    return Some(Reg::int(n));
                }
            }
        }
        if let Some(num) = name.strip_prefix('f') {
            if let Ok(n) = num.parse::<u8>() {
                if n < 32 {
                    return Some(Reg::fp(n));
                }
            }
        }
        let alias = match name {
            "zero" => 0,
            "at" => 1,
            "v0" => 2,
            "v1" => 3,
            "a0" => 4,
            "a1" => 5,
            "a2" => 6,
            "a3" => 7,
            "t0" => 8,
            "t1" => 9,
            "t2" => 10,
            "t3" => 11,
            "t4" => 12,
            "t5" => 13,
            "t6" => 14,
            "t7" => 15,
            "s0" => 16,
            "s1" => 17,
            "s2" => 18,
            "s3" => 19,
            "s4" => 20,
            "s5" => 21,
            "s6" => 22,
            "s7" => 23,
            "t8" => 24,
            "t9" => 25,
            "k0" => 26,
            "k1" => 27,
            "gp" => 28,
            "sp" => 29,
            "fp" => 30,
            "ra" => 31,
            _ => return None,
        };
        Some(Reg::int(alias))
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else if self.is_fp() {
            write!(f, "f{}", self.0 - FP_BASE)
        } else {
            write!(f, "fcc")
        }
    }
}

/// The architectural register file: a flat array of 64-bit values.
///
/// Integer registers hold two's-complement values; floating-point
/// registers hold `f64` bit patterns; `fcc` holds 0 or 1. Reads of `r0`
/// always return zero and writes to it are ignored.
///
/// # Examples
///
/// ```
/// use vpir_isa::{Reg, RegFile};
/// let mut rf = RegFile::new();
/// rf.write(Reg::int(3), 42);
/// assert_eq!(rf.read(Reg::int(3)), 42);
/// rf.write(Reg::ZERO, 7);
/// assert_eq!(rf.read(Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    vals: [u64; NUM_REGS],
}

impl RegFile {
    /// Creates a register file with every register zeroed.
    pub fn new() -> RegFile {
        RegFile {
            vals: [0; NUM_REGS],
        }
    }

    /// Reads a register. `r0` always reads as zero.
    pub fn read(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.vals[r.index()]
        }
    }

    /// Writes a register. Writes to `r0` are ignored.
    pub fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.vals[r.index()] = v;
        }
    }

    /// Reads a floating-point register as an `f64`.
    pub fn read_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.read(r))
    }

    /// Writes an `f64` into a floating-point register.
    pub fn write_f64(&mut self, r: Reg, v: f64) {
        self.write(r, v.to_bits());
    }

    /// An iterator over `(register, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u64)> + '_ {
        (0..NUM_REGS).map(|i| (Reg::from_index(i), self.vals[i]))
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_pinned() {
        let mut rf = RegFile::new();
        rf.write(Reg::ZERO, 0xdead);
        assert_eq!(rf.read(Reg::ZERO), 0);
    }

    #[test]
    fn int_and_fp_do_not_alias() {
        let mut rf = RegFile::new();
        rf.write(Reg::int(1), 11);
        rf.write(Reg::fp(1), 22);
        assert_eq!(rf.read(Reg::int(1)), 11);
        assert_eq!(rf.read(Reg::fp(1)), 22);
    }

    #[test]
    fn parse_numeric_names() {
        assert_eq!(Reg::parse("r0"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("r31"), Some(Reg::RA));
        assert_eq!(Reg::parse("f4"), Some(Reg::fp(4)));
        assert_eq!(Reg::parse("fcc"), Some(Reg::FCC));
        assert_eq!(Reg::parse("r32"), None);
        assert_eq!(Reg::parse("f32"), None);
        assert_eq!(Reg::parse("x3"), None);
    }

    #[test]
    fn parse_abi_aliases() {
        assert_eq!(Reg::parse("sp"), Some(Reg::SP));
        assert_eq!(Reg::parse("ra"), Some(Reg::RA));
        assert_eq!(Reg::parse("zero"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("t0"), Some(Reg::int(8)));
        assert_eq!(Reg::parse("s7"), Some(Reg::int(23)));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for i in 0..NUM_REGS {
            let r = Reg::from_index(i);
            assert_eq!(Reg::parse(&r.to_string()), Some(r));
        }
    }

    #[test]
    fn f64_roundtrip() {
        let mut rf = RegFile::new();
        rf.write_f64(Reg::fp(0), -3.25);
        assert_eq!(rf.read_f64(Reg::fp(0)), -3.25);
    }
}

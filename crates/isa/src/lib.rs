//! # vpir-isa — the simulated instruction set
//!
//! The MIPS-like, 64-bit, load/store ISA shared by every component of the
//! `vpir` reproduction of Sodani & Sohi, *"Understanding the Differences
//! Between Value Prediction and Instruction Reuse"* (MICRO 1998).
//!
//! This crate provides:
//!
//! * register names and the architectural register file ([`Reg`],
//!   [`RegFile`]),
//! * operations with their functional-unit mapping and Table 1 latencies
//!   ([`Op`], [`FuClass`]),
//! * decoded instructions ([`Inst`]) and program images ([`Program`]),
//! * a sparse byte-addressable memory ([`MemImage`]),
//! * total architectural semantics ([`execute`]) used by both the
//!   functional interpreter and the timing pipeline,
//! * the functional interpreter ([`Machine`]) used as the golden model
//!   and by the redundancy limit study, and
//! * a two-pass assembler ([`asm::assemble`]) that expands large
//!   immediates through `lui`/`ori` like a real MIPS assembler, and
//! * a 32-bit binary encoding ([`encoding`]) for storing programs as
//!   byte images.
//!
//! # Examples
//!
//! ```
//! use vpir_isa::{asm, Machine, Reg};
//!
//! let program = asm::assemble(
//!     "       li   r1, 3
//!      loop:  add  r2, r2, r1
//!             addi r1, r1, -1
//!             bne  r1, r0, loop
//!             halt",
//! )?;
//! let mut machine = Machine::new(&program);
//! machine.run(1_000)?;
//! assert_eq!(machine.regs.read(Reg::int(2)), 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod asm;
pub mod encoding;
pub mod image;
mod inst;
mod machine;
mod mem_image;
mod op;
mod program;
mod reg;
mod semantics;

pub use inst::Inst;
pub use machine::{Machine, MachineError, StepEvent};
pub use mem_image::{IntHasher, IntMap, LoadSource, MemImage};
pub use op::{FuClass, MemWidth, Op, OpClass};
pub use program::{Program, SrcLoc, DATA_BASE, INST_BYTES, STACK_TOP, TEXT_BASE};
pub use reg::{Reg, RegFile, FP_BASE, NUM_REGS};
pub use semantics::{execute, ControlOut, ExecOut, StoreAccess};

//! # vpir — Value Prediction vs. Instruction Reuse
//!
//! A from-scratch Rust reproduction of Sodani & Sohi, *"Understanding the
//! Differences Between Value Prediction and Instruction Reuse"*
//! (MICRO 1998): a cycle-level 4-way out-of-order superscalar simulator
//! with a Value Prediction Table, a Reuse Buffer, synthetic SPECint95
//! stand-in workloads, and the paper's full experiment suite.
//!
//! This facade crate re-exports the public API of every subsystem crate:
//!
//! * [`isa`] — instruction set, assembler, functional interpreter
//! * [`mem`] — caches and port arbitration
//! * [`branch`] — gshare, return-address stack, indirect targets
//! * [`predict`] — value predictors (`VP_Magic`, `VP_LVP`)
//! * [`reuse`] — the reuse buffer and reuse-test schemes
//! * [`core`] — the out-of-order pipeline
//! * [`workloads`] — the seven synthetic benchmarks
//! * [`redundancy`] — the Section 4.3 limit study
//! * [`isa_analyze`] — static analysis of guest programs (`vpir analyze-isa`)
//! * [`analyze`] — workspace host-code analyzer (`vpir analyze`)
//! * [`stats`] — means and table rendering for the experiment harness
//! * [`serve`] — the std-only HTTP simulation service (`vpir serve`)
//! * [`jsonlite`] — the shared dependency-free JSON toolkit
//!
//! # Examples
//!
//! ```
//! use vpir::isa::{asm, Machine, Reg};
//!
//! let program = asm::assemble("li r1, 42\nhalt")?;
//! let mut m = Machine::new(&program);
//! m.run(10)?;
//! assert_eq!(m.regs.read(Reg::int(1)), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vpir_analyze as analyze;
pub use vpir_bench as bench;
pub use vpir_branch as branch;
pub use vpir_core as core;
pub use vpir_isa as isa;
pub use vpir_isa_analyze as isa_analyze;
pub use vpir_jsonlite as jsonlite;
pub use vpir_mechanism as mechanism;
pub use vpir_mem as mem;
pub use vpir_predict as predict;
pub use vpir_redundancy as redundancy;
pub use vpir_reuse as reuse;
pub use vpir_serve as serve;
pub use vpir_stats as stats;
pub use vpir_workloads as workloads;

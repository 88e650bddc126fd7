//! # vpir-redundancy — the Section 4.3 limit study
//!
//! Reproduces the paper's estimate of how much of a program's total
//! redundancy instruction reuse can capture (Figures 8, 9, and 10):
//!
//! 1. **Classification** (Figure 8). Every result-producing dynamic
//!    instruction is classified against a per-static-instruction buffer
//!    of past results (capped at 10K instances):
//!    *unique* — first time this result is produced; *repeated* — the
//!    result was produced before; *derivable* — the result extends a
//!    stride detected over the previous results; *unaccounted* — the
//!    buffer was full, so the instruction cannot be classified.
//!    *Redundancy* = repeated + derivable.
//!
//! 2. **Input readiness** (Figure 9). Repeated instructions are split by
//!    whether their inputs would be ready at an early (decode-stage)
//!    reuse test: producers reused, unreused producers ≥ 50 dynamic
//!    instructions ahead, or unreused producers closer than 50
//!    (inputs *not* ready).
//!
//! 3. **Reusability** (Figure 10). Repeated instructions minus those
//!    with unready inputs, minus those whose current operand values never
//!    occurred before (different inputs), as a fraction of the total
//!    redundancy. The paper finds 84–97%.
//!
//! # Examples
//!
//! ```
//! use vpir_redundancy::{analyze, LimitConfig};
//! use vpir_isa::asm;
//!
//! let prog = asm::assemble(
//!     "       .data 0x200000
//!      vals:  .word 6, 2
//!             .text
//!             li   r1, 20
//!      loop:  la   r2, vals
//!             lw   r3, 0(r2)
//!             add  r4, r3, r3
//!             addi r1, r1, -1
//!             bne  r1, r0, loop
//!             halt",
//! )?;
//! let study = analyze(&prog, 100_000, LimitConfig::default());
//! assert!(study.repeated > 0);
//! assert!(study.reusable_pct() > 50.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};

use vpir_isa::{Machine, OpClass, Program, NUM_REGS};

/// Parameters of the limit study (the paper's values by default).
#[derive(Debug, Clone, Copy)]
pub struct LimitConfig {
    /// Maximum buffered instances per static instruction (paper: 10K).
    pub max_instances: usize,
    /// Producer-distance threshold for "inputs ready" (paper: 50).
    pub producer_window: u64,
}

impl Default for LimitConfig {
    fn default() -> LimitConfig {
        LimitConfig {
            max_instances: 10_000,
            producer_window: 50,
        }
    }
}

vpir_stats::counters! {
    /// Results of the limit study.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LimitStudy {
        /// Result-producing dynamic instructions observed.
        pub total: u64,
        /// Figure 8: first-time results.
        pub unique: u64,
        /// Figure 8: results produced before by the same static instruction.
        pub repeated: u64,
        /// Figure 8: results on a detected stride.
        pub derivable: u64,
        /// Figure 8: instances beyond the buffering cap.
        pub unaccounted: u64,
        /// Figure 9: repeated, with at least one producer itself reused (and
        /// all inputs ready).
        pub rep_producers_reused: u64,
        /// Figure 9: repeated, unreused producers at distance ≥ window.
        pub rep_ready_far: u64,
        /// Figure 9: repeated, some unreused producer closer than the window
        /// (inputs not ready at an early reuse test).
        pub rep_not_ready: u64,
        /// Repeated instructions whose exact operand values never occurred
        /// together before (not reusable despite the repeated result).
        pub rep_different_inputs: u64,
        /// Figure 10: repeated instructions that pass the reuse conditions.
        pub reusable: u64,
    }
}

impl LimitStudy {
    /// Total redundancy (repeated + derivable), the Figure 10 baseline.
    pub fn redundant(&self) -> u64 {
        self.repeated + self.derivable
    }

    /// Percent of dynamic result producers that are redundant.
    pub fn redundant_pct(&self) -> f64 {
        pct(self.redundant(), self.total)
    }

    /// Percent of the redundancy that is reusable (the paper: 84–97%).
    pub fn reusable_pct(&self) -> f64 {
        pct(self.reusable, self.redundant())
    }

    /// Figure 8 percentages: `(unique, repeated, derivable, unaccounted)`.
    pub fn classification_pct(&self) -> (f64, f64, f64, f64) {
        (
            pct(self.unique, self.total),
            pct(self.repeated, self.total),
            pct(self.derivable, self.total),
            pct(self.unaccounted, self.total),
        )
    }

    /// Figure 9 percentages over repeated instructions:
    /// `(producers reused, ready ≥ window, not ready)`.
    pub fn readiness_pct(&self) -> (f64, f64, f64) {
        (
            pct(self.rep_producers_reused, self.repeated),
            pct(self.rep_ready_far, self.repeated),
            pct(self.rep_not_ready, self.repeated),
        )
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Figure 8 classification counts for one static instruction (by PC).
///
/// The per-program totals in [`LimitStudy`] are the sums of these; the
/// static analyzer in `vpir-isa-analyze` joins them against its
/// invariant/stride/input-dependent prediction per static instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcClassCounts {
    /// Dynamic result-producing executions of this static instruction.
    pub executions: u64,
    /// First-time results.
    pub unique: u64,
    /// Results produced before by this static instruction.
    pub repeated: u64,
    /// Results on a detected stride.
    pub derivable: u64,
    /// Instances beyond the buffering cap.
    pub unaccounted: u64,
    /// Repeated instances passing the Figure 10 reuse conditions.
    pub reusable: u64,
}

impl PcClassCounts {
    /// The dominant Figure 8 class of this static instruction:
    /// `"repeated"`, `"derivable"`, or `"unique"` (ties break in that
    /// order; `unaccounted` never dominates a classified bucket).
    pub fn dominant_class(&self) -> &'static str {
        if self.repeated >= self.derivable && self.repeated >= self.unique {
            "repeated"
        } else if self.derivable >= self.unique {
            "derivable"
        } else {
            "unique"
        }
    }
}

#[derive(Default)]
struct StaticInfo {
    /// Distinct results seen (bounded by `max_instances`).
    results: HashSet<u64>,
    /// Operand-signature → () for "same inputs seen before" (bounded).
    inputs: HashSet<Vec<u64>>,
    /// Last two results, for stride detection.
    last: Option<u64>,
    prev: Option<u64>,
}

/// Runs the limit study over up to `max_insts` dynamic instructions of
/// `program`.
///
/// Only register-result-producing instructions participate (ALU, loads,
/// FP — not stores, branches, or jumps), matching the paper's
/// "result-producing dynamic instructions".
pub fn analyze(program: &Program, max_insts: u64, config: LimitConfig) -> LimitStudy {
    analyze_per_pc(program, max_insts, config).0
}

/// Like [`analyze`], but additionally returns the Figure 8 classification
/// broken down per static instruction address (deterministically ordered).
pub fn analyze_per_pc(
    program: &Program,
    max_insts: u64,
    config: LimitConfig,
) -> (LimitStudy, BTreeMap<u64, PcClassCounts>) {
    let mut machine = Machine::new(program);
    let mut study = LimitStudy::default();
    let mut per_pc: BTreeMap<u64, PcClassCounts> = BTreeMap::new();
    let mut statics: HashMap<u64, StaticInfo> = HashMap::new();
    // Per architectural register: (dynamic index of last writer, writer
    // was itself classified reusable).
    let mut reg_writer: Vec<Option<(u64, bool)>> = vec![None; NUM_REGS];
    // Last store time per 8-byte block (invalidates load instances).
    let mut mem_writer: HashMap<u64, u64> = HashMap::new();
    let mut dyn_idx: u64 = 0;

    while !machine.halted && dyn_idx < max_insts {
        // Capture operand values before the step (the step may overwrite
        // a register that is both source and destination).
        let src_vals: Vec<u64> = machine
            .program()
            .inst_at(machine.pc)
            .map(|i| i.sources().map(|r| machine.regs.read(r)).collect())
            .unwrap_or_default();
        let Ok(ev) = machine.step() else { break };
        dyn_idx += 1;
        let inst = ev.inst;
        let class = inst.op.class();

        // Track memory writes for load-instance invalidation.
        if class == OpClass::Store {
            if let Some(addr) = ev.out.addr {
                let width = inst.op.mem_width().expect("store width").bytes();
                for b in (addr >> 3)..=((addr + width - 1) >> 3) {
                    mem_writer.insert(b, dyn_idx);
                }
            }
        }

        let produces = inst.dst.is_some()
            && ev.out.result.is_some()
            && !matches!(class, OpClass::Jump | OpClass::JumpReg | OpClass::Misc);
        if !produces {
            // Still update writer tracking for link registers etc.
            if let (Some(dst), Some(_)) = (inst.dst, ev.out.result) {
                reg_writer[dst.index()] = Some((dyn_idx, false));
            }
            continue;
        }

        let result = ev.out.result.expect("checked");
        study.total += 1;
        let counts = per_pc.entry(ev.pc).or_default();
        counts.executions += 1;
        let info = statics.entry(ev.pc).or_default();

        // ---- Figure 8 classification ----
        let capped = info.results.len() >= config.max_instances;
        let is_repeated = info.results.contains(&result);
        let is_derivable = match (info.last, info.prev) {
            (Some(last), Some(prev)) => {
                let stride = last.wrapping_sub(prev);
                stride != 0 && result == last.wrapping_add(stride)
            }
            _ => false,
        };
        if is_repeated {
            study.repeated += 1;
            counts.repeated += 1;
        } else if is_derivable {
            study.derivable += 1;
            counts.derivable += 1;
        } else if capped {
            study.unaccounted += 1;
            counts.unaccounted += 1;
        } else {
            study.unique += 1;
            counts.unique += 1;
        }
        if !capped {
            info.results.insert(result);
        }
        info.prev = info.last;
        info.last = Some(result);

        // ---- Figure 9/10 reuse conditions (repeated instructions) ----
        let mut reusable_here = false;
        if is_repeated {
            // Operand signature: source register values (+ address and a
            // memory-validity epoch for loads).
            let mut sig: Vec<u64> = src_vals.clone();
            if class == OpClass::Load {
                let addr = ev.out.addr.expect("load address");
                sig.push(addr);
                // Fold in the last store epoch covering the loaded bytes,
                // so a store to the address distinguishes instances.
                let width = inst.op.mem_width().expect("load width").bytes();
                let epoch = ((addr >> 3)..=((addr + width - 1) >> 3))
                    .map(|b| mem_writer.get(&b).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                sig.push(epoch);
            }
            let inputs_seen = info.inputs.contains(&sig);
            if info.inputs.len() < config.max_instances {
                info.inputs.insert(sig);
            }

            // Input readiness per the paper's rule.
            let mut any_reused_producer = false;
            let mut not_ready = false;
            for src in inst.sources() {
                if let Some((widx, was_reused)) = reg_writer[src.index()] {
                    if was_reused {
                        any_reused_producer = true;
                    } else if dyn_idx - widx < config.producer_window {
                        not_ready = true;
                    }
                }
            }
            if not_ready {
                study.rep_not_ready += 1;
            } else if any_reused_producer {
                study.rep_producers_reused += 1;
            } else {
                study.rep_ready_far += 1;
            }
            if !inputs_seen {
                study.rep_different_inputs += 1;
            }
            reusable_here = !not_ready && inputs_seen;
            if reusable_here {
                study.reusable += 1;
                counts.reusable += 1;
            }
        }

        if let Some(dst) = inst.dst {
            reg_writer[dst.index()] = Some((dyn_idx, reusable_here));
        }
    }
    (study, per_pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpir_isa::asm;

    fn study(src: &str) -> LimitStudy {
        let prog = asm::assemble(src).expect("assembles");
        analyze(&prog, 1_000_000, LimitConfig::default())
    }

    #[test]
    fn constant_loop_is_repeated() {
        // The same computation with the same inputs every iteration.
        let s = study(
            "       li   r1, 100
             loop:  li   r2, 7
                    add  r3, r2, r2
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert!(s.repeated > 150, "{s:?}");
        assert!(s.redundant_pct() > 40.0, "{s:?}");
    }

    #[test]
    fn counter_is_derivable_not_repeated() {
        // `addi r1, r1, -1` produces a perfect stride.
        let s = study(
            "       li   r1, 200
             loop:  addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert!(s.derivable > 150, "{s:?}");
        assert!(s.repeated < 50, "{s:?}");
    }

    #[test]
    fn random_like_results_are_unique() {
        // An LCG produces a long non-repeating, non-stride sequence.
        let s = study(
            "       li   r1, 100
                    li   r2, 12345
                    li   r3, 1103515245
             loop:  mul  r2, r2, r3
                    addi r2, r2, 12345
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert!(s.unique > 90, "{s:?}");
    }

    #[test]
    fn reusable_fraction_is_high_for_repetitive_code() {
        // Repetition with *repeating inputs* (a constant table walked the
        // same way every iteration): the reuse conditions bootstrap down
        // the dependence chain exactly as in the paper's Figure 9.
        let s = study(
            "       .data 0x200000
             vals:  .word 6, 2, 8, 2
                    .text
                    li   r1, 300
             loop:  la   r2, vals
                    lw   r3, 0(r2)
                    mul  r4, r3, r3
                    lw   r5, 4(r2)
                    add  r6, r4, r5
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert!(s.reusable_pct() > 60.0, "{s:?}");
        assert!(
            s.rep_producers_reused > s.rep_not_ready,
            "most repeated instructions bootstrap off reused producers: {s:?}"
        );
    }

    #[test]
    fn repetition_with_fresh_inputs_is_not_reusable() {
        // A masked loop counter repeats its *results* but never its
        // *inputs* — redundancy that IR cannot capture (the gap the
        // paper quantifies as `different inputs`).
        let s = study(
            "       li   r1, 300
             loop:  andi r2, r1, 3
                    sll  r3, r2, 2
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert!(s.repeated > 100, "{s:?}");
        assert!(s.rep_different_inputs > 100, "{s:?}");
    }

    #[test]
    fn per_pc_counts_sum_to_study_totals() {
        let prog = asm::assemble(
            "       li   r1, 80
             loop:  li   r2, 7
                    add  r3, r2, r2
                    andi r4, r1, 3
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        )
        .expect("assembles");
        let (s, per_pc) = analyze_per_pc(&prog, 1_000_000, LimitConfig::default());
        let sum = |f: fn(&PcClassCounts) -> u64| per_pc.values().map(f).sum::<u64>();
        assert_eq!(sum(|c| c.executions), s.total);
        assert_eq!(sum(|c| c.unique), s.unique);
        assert_eq!(sum(|c| c.repeated), s.repeated);
        assert_eq!(sum(|c| c.derivable), s.derivable);
        assert_eq!(sum(|c| c.unaccounted), s.unaccounted);
        assert_eq!(sum(|c| c.reusable), s.reusable);
        // The loop-invariant `li r2, 7` is dominantly repeated; the
        // counter `addi r1, r1, -1` is dominantly derivable.
        let li_pc = prog.addr_of(1);
        let ctr_pc = prog.addr_of(4);
        assert_eq!(per_pc[&li_pc].dominant_class(), "repeated");
        assert_eq!(per_pc[&ctr_pc].dominant_class(), "derivable");
    }

    #[test]
    fn counts_are_consistent() {
        let s = study(
            "       li   r1, 50
             loop:  andi r2, r1, 7
                    add  r3, r2, r1
                    addi r1, r1, -1
                    bne  r1, r0, loop
                    halt",
        );
        assert_eq!(
            s.unique + s.repeated + s.derivable + s.unaccounted,
            s.total,
            "{s:?}"
        );
        assert_eq!(
            s.rep_producers_reused + s.rep_ready_far + s.rep_not_ready,
            s.repeated,
            "{s:?}"
        );
        assert!(s.reusable <= s.repeated);
    }
}

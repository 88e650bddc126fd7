//! Sparse conditional constant propagation over guest registers.
//!
//! The transfer function is not hand-rolled: every instruction is folded
//! with [`vpir_isa::execute`], the same semantics the interpreter, the
//! pipeline, and the limit study use. That is what makes the headline
//! guarantee hold — an instruction this pass proves `Const` produces that
//! exact value on *every* dynamic execution, so "statically invariant"
//! can never be contradicted by the dynamic redundancy study.
//!
//! Soundness notes:
//!
//! * The entry state is machine reality ([`vpir_isa::Machine::new`]):
//!   every register is 0 except `sp` = [`STACK_TOP`]. There is no
//!   optimistic Top state to converge from — values start `Const` and
//!   only fall to `Bottom` — so the lattice is two-level and the
//!   fixpoint is trivially sound.
//! * A call's return point is reached through a [`EdgeRole::CallReturn`]
//!   edge, along which every register except `r0` is clobbered to
//!   `Bottom` (the callee may write anything).
//! * Loads resolve in two rounds. Round A treats every load as `Bottom`
//!   and collects the store-address footprint of the feasible program.
//!   If *every* feasible store has a constant address, round B re-runs
//!   the propagation letting a constant-address load whose bytes are
//!   disjoint from that footprint read the program's initial data image
//!   (never-stored memory keeps its load-time value forever). Round B
//!   only gains constants, so its feasible-edge set — and hence its
//!   store footprint — is a subset of round A's, keeping the footprint
//!   sound.
//! * Conditional branches with constant operands prune the untaken
//!   edge, again by asking `execute` for the outcome.

use std::collections::BTreeSet;

use vpir_isa::{execute, Inst, MemImage, OpClass, Program, Reg, NUM_REGS, STACK_TOP};

use crate::cfg::{Cfg, EdgeRole};

/// A register's abstract value: known the same on every execution, or
/// varying/unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// The register holds exactly this value whenever the program point
    /// is reached.
    Const(u64),
    /// The value may vary between executions.
    Bottom,
}

impl Value {
    fn join(self, other: Value) -> Value {
        match (self, other) {
            (Value::Const(a), Value::Const(b)) if a == b => self,
            _ => Value::Bottom,
        }
    }
}

/// Abstract register file at a program point.
#[derive(Clone, PartialEq, Eq)]
struct RegState {
    vals: [Value; NUM_REGS],
}

impl RegState {
    /// The machine's initial state: all zeros, `sp` = [`STACK_TOP`].
    fn entry() -> RegState {
        let mut s = RegState {
            vals: [Value::Const(0); NUM_REGS],
        };
        s.vals[Reg::SP.index()] = Value::Const(STACK_TOP);
        s
    }

    /// Everything clobbered except the hardwired zero register.
    fn havoc() -> RegState {
        let mut s = RegState {
            vals: [Value::Bottom; NUM_REGS],
        };
        s.vals[Reg::ZERO.index()] = Value::Const(0);
        s
    }

    fn get(&self, r: Reg) -> Value {
        self.vals[r.index()]
    }

    fn set(&mut self, r: Reg, v: Value) {
        if !r.is_zero() {
            self.vals[r.index()] = v;
        }
    }

    /// Joins `other` into `self`; true if anything changed.
    fn join_from(&mut self, other: &RegState) -> bool {
        let mut changed = false;
        for (slot, &o) in self.vals.iter_mut().zip(other.vals.iter()) {
            let j = slot.join(o);
            if j != *slot {
                *slot = j;
                changed = true;
            }
        }
        changed
    }
}

/// How loads are folded.
enum LoadPolicy<'a> {
    /// Round A: every load is `Bottom`.
    Unknown,
    /// Round B: a constant-address load disjoint from `stored` reads the
    /// initial data image.
    Initial {
        /// Byte addresses written by any feasible store (round A).
        stored: &'a BTreeSet<u64>,
    },
}

/// What the pass concluded about a load/store effective address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrFact {
    /// Not a memory operation.
    NotMem,
    /// Address could not be proven constant.
    Unknown,
    /// Constant effective address.
    Const(u64),
}

/// Per-instruction conclusions of the propagation.
#[derive(Debug, Clone)]
pub struct InstFacts {
    /// Whether the instruction can execute (its block is reachable along
    /// feasible edges).
    pub executable: bool,
    /// The constant value this instruction's register result takes on
    /// every execution, when proven.
    pub const_result: Option<u64>,
    /// The effective-address conclusion for loads and stores.
    pub addr: AddrFact,
}

/// Result of the constant propagation over a program.
#[derive(Debug)]
pub struct Sccp {
    /// Per instruction index, parallel to `Program::insts`.
    pub facts: Vec<InstFacts>,
    /// Per block: reachable along feasible edges from the entry.
    pub executable_block: Vec<bool>,
    /// Whether round B (initial-memory load resolution) ran.
    pub resolved_loads: bool,
}

struct Fixpoint {
    state_in: Vec<Option<RegState>>,
    executable: Vec<bool>,
}

/// Folds one instruction: updates `state`, returns
/// `(result value, address fact)`.
fn transfer(
    inst: &Inst,
    pc: u64,
    state: &mut RegState,
    policy: &LoadPolicy<'_>,
    mem: &MemImage,
) -> (Value, AddrFact) {
    let all_const = inst
        .sources()
        .all(|r| matches!(state.get(r), Value::Const(_)));
    let class = inst.op.class();
    let is_mem = matches!(class, OpClass::Load | OpClass::Store);
    let mut result = Value::Bottom;
    let mut addr = if is_mem {
        AddrFact::Unknown
    } else {
        AddrFact::NotMem
    };

    if all_const {
        let read = |r: Reg| match state.get(r) {
            Value::Const(v) => v,
            Value::Bottom => 0, // unreachable: guarded by all_const
        };
        let out = execute(inst, pc, read, mem);
        if is_mem {
            if let Some(a) = out.addr {
                addr = AddrFact::Const(a);
            }
        }
        let load_ok = match (class, policy, addr) {
            (OpClass::Load, LoadPolicy::Initial { stored }, AddrFact::Const(a)) => {
                let width = inst.op.mem_width().map(|w| w.bytes()).unwrap_or(0);
                (0..width).all(|i| !stored.contains(&a.wrapping_add(i)))
            }
            (OpClass::Load, _, _) => false,
            _ => true,
        };
        if load_ok {
            if let Some(v) = out.result {
                result = Value::Const(v);
            }
        }
    }

    if let Some(dst) = inst.dst {
        state.set(dst, result);
    }
    (result, addr)
}

/// Feasible out edges of block `b` given its end-of-block state: the
/// CFG's role-tagged edges, pruned where the terminator's operands are
/// constant enough to decide the transfer.
fn feasible_edges(prog: &Program, cfg: &Cfg, b: usize, state: &RegState) -> Vec<(usize, EdgeRole)> {
    let blk = &cfg.blocks[b];
    let inst = &prog.insts[blk.end - 1];
    let class = inst.op.class();
    let all_const = inst
        .sources()
        .all(|r| matches!(state.get(r), Value::Const(_)));

    if class == OpClass::Branch && all_const {
        let read = |r: Reg| match state.get(r) {
            Value::Const(v) => v,
            Value::Bottom => 0,
        };
        let out = execute(inst, prog.addr_of(blk.end - 1), read, &MemImage::new());
        let taken = out.control.map(|c| c.taken).unwrap_or(false);
        let want = if taken {
            EdgeRole::Target
        } else {
            EdgeRole::Fallthrough
        };
        return blk
            .out_edges
            .iter()
            .copied()
            .filter(|&(_, role)| role == want)
            .collect();
    }
    if class == OpClass::JumpReg && all_const {
        // Constant indirect target: keep only the matching computed
        // edge (plus the return point for `jalr`).
        let target = inst.src1.map(|r| match state.get(r) {
            Value::Const(v) => v,
            Value::Bottom => 0,
        });
        return blk
            .out_edges
            .iter()
            .copied()
            .filter(|&(s, role)| match role {
                EdgeRole::Computed => Some(prog.addr_of(cfg.blocks[s].start)) == target,
                EdgeRole::CallReturn => true,
                _ => false,
            })
            .collect();
    }
    blk.out_edges.clone()
}

/// Runs the edge-worklist propagation to fixpoint under `policy`.
fn solve(prog: &Program, cfg: &Cfg, policy: &LoadPolicy<'_>, mem: &MemImage) -> Fixpoint {
    let n = cfg.blocks.len();
    let mut fp = Fixpoint {
        state_in: vec![None; n],
        executable: vec![false; n],
    };
    if n == 0 {
        return fp;
    }
    fp.state_in[cfg.entry] = Some(RegState::entry());
    fp.executable[cfg.entry] = true;
    let mut worklist: Vec<usize> = vec![cfg.entry];

    while let Some(b) = worklist.pop() {
        let Some(mut state) = fp.state_in[b].clone() else {
            continue;
        };
        let blk = &cfg.blocks[b];
        for i in blk.insts() {
            transfer(&prog.insts[i], prog.addr_of(i), &mut state, policy, mem);
        }
        for (s, role) in feasible_edges(prog, cfg, b, &state) {
            let edge_state = match role {
                EdgeRole::CallReturn => RegState::havoc(),
                _ => state.clone(),
            };
            let changed = match &mut fp.state_in[s] {
                Some(existing) => existing.join_from(&edge_state),
                slot @ None => {
                    *slot = Some(edge_state);
                    true
                }
            };
            let newly_executable = !fp.executable[s];
            fp.executable[s] = true;
            if (changed || newly_executable) && !worklist.contains(&s) {
                worklist.push(s);
            }
        }
    }
    fp
}

/// Walks the fixpoint once, recording per-instruction facts.
fn collect(
    prog: &Program,
    cfg: &Cfg,
    fp: &Fixpoint,
    policy: &LoadPolicy<'_>,
    mem: &MemImage,
) -> Vec<InstFacts> {
    let mut facts: Vec<InstFacts> = prog
        .insts
        .iter()
        .map(|inst| InstFacts {
            executable: false,
            const_result: None,
            addr: if matches!(inst.op.class(), OpClass::Load | OpClass::Store) {
                AddrFact::Unknown
            } else {
                AddrFact::NotMem
            },
        })
        .collect();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(state_in) = &fp.state_in[b] else {
            continue;
        };
        if !fp.executable[b] {
            continue;
        }
        let mut state = state_in.clone();
        for i in blk.insts() {
            let (result, addr) = transfer(&prog.insts[i], prog.addr_of(i), &mut state, policy, mem);
            facts[i] = InstFacts {
                executable: true,
                const_result: match result {
                    Value::Const(v) => Some(v),
                    Value::Bottom => None,
                },
                addr,
            };
        }
    }
    facts
}

/// Byte footprint of all feasible stores, or `None` if any feasible
/// store has a non-constant address.
fn store_footprint(prog: &Program, facts: &[InstFacts]) -> Option<BTreeSet<u64>> {
    let mut stored = BTreeSet::new();
    for (i, inst) in prog.insts.iter().enumerate() {
        if inst.op.class() != OpClass::Store || !facts[i].executable {
            continue;
        }
        match facts[i].addr {
            AddrFact::Const(a) => {
                let width = inst.op.mem_width().map(|w| w.bytes()).unwrap_or(0);
                for off in 0..width {
                    stored.insert(a.wrapping_add(off));
                }
            }
            _ => return None,
        }
    }
    Some(stored)
}

/// Runs the full two-round propagation over `prog`.
pub fn run(prog: &Program, cfg: &Cfg) -> Sccp {
    let mut mem = MemImage::new();
    prog.load_data(&mut mem);

    let round_a = solve(prog, cfg, &LoadPolicy::Unknown, &mem);
    let facts_a = collect(prog, cfg, &round_a, &LoadPolicy::Unknown, &mem);

    let has_loads = prog
        .insts
        .iter()
        .enumerate()
        .any(|(i, inst)| inst.op.class() == OpClass::Load && facts_a[i].executable);
    if has_loads {
        if let Some(stored) = store_footprint(prog, &facts_a) {
            let policy = LoadPolicy::Initial { stored: &stored };
            let round_b = solve(prog, cfg, &policy, &mem);
            let facts = collect(prog, cfg, &round_b, &policy, &mem);
            return Sccp {
                facts,
                executable_block: round_b.executable,
                resolved_loads: true,
            };
        }
    }
    Sccp {
        facts: facts_a,
        executable_block: round_a.executable,
        resolved_loads: false,
    }
}

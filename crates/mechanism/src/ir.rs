//! The instruction-reuse tenant.
//!
//! A direct port of the pipeline's hard-wired `dispatch_ir` plus the
//! commit/squash reuse-buffer maintenance, behind the
//! [`SpeculationMechanism`] trait. Bit-identical to the pre-trait
//! implementation (golden-digest pinned): the same operand views, the
//! same dependence-chain (`S_{n+d}`) input, the same store-conflict
//! downgrade, and the same non-speculative soundness guard.

use vpir_isa::{OpClass, Reg};
use vpir_reuse::{EntryRef, OperandView, RbInsert, ReuseBuffer};

use crate::config::{IrConfig, Validation};
use crate::{
    CommitEffects, CommitEvent, DispatchAction, DispatchQuery, MechExport, ReuseAction, ReuseGrant,
    SpeculationMechanism, SquashVictim,
};

/// Instruction reuse as a pluggable mechanism: the reuse buffer and the
/// validation policy.
#[derive(Debug, Clone)]
pub struct IrMech {
    rb: ReuseBuffer,
    validation: Validation,
}

impl IrMech {
    /// Builds the reuse buffer described by `ir`.
    pub fn new(ir: &IrConfig) -> IrMech {
        IrMech {
            rb: ReuseBuffer::new(ir.rb),
            validation: ir.validation,
        }
    }
}

impl SpeculationMechanism for IrMech {
    fn name(&self) -> &'static str {
        "ir"
    }

    fn wants_operand_views(&self) -> bool {
        true
    }

    fn wants_exec_records(&self) -> bool {
        true
    }

    fn on_dispatch(&mut self, q: &DispatchQuery, act: &mut DispatchAction) {
        let op = q.inst.op;
        match op.class() {
            OpClass::Misc | OpClass::Jump => return,
            _ => {}
        }
        let views = q.views;
        let lookup_view = move |r: Reg| {
            for (reg, v) in views.iter() {
                if *reg == Some(r) {
                    return *v;
                }
            }
            OperandView::default()
        };
        let [c0, c1] = q.chain;
        let backing;
        let reused_now: &[EntryRef] = match (c0, c1) {
            (Some(a), Some(b)) => {
                backing = [a, b];
                &backing
            }
            (Some(a), None) | (None, Some(a)) => {
                backing = [a, a];
                &backing[..1]
            }
            (None, None) => &[],
        };

        let Some(mut hit) = self.rb.lookup(q.pc, op, &lookup_view, reused_now) else {
            return;
        };

        // A reused load must still snoop older in-flight stores: if one
        // overlaps its address, the buffered value may be stale relative
        // to this path — only the address computation is reusable. The
        // core performed the scan ([`DispatchQuery::store_conflict`]).
        if hit.full && op.class() == OpClass::Load && q.store_conflict {
            hit.full = false;
            hit.result = None;
        }

        // Guard: the reuse test is non-speculative, so a hit must agree
        // with the architectural truth for this dynamic instance.
        let sound = match op.class() {
            OpClass::Branch => hit.result == q.out.control.map(|c| c.taken as u64),
            OpClass::JumpReg => hit.result == q.out.control.map(|c| c.target),
            OpClass::Load | OpClass::Store => {
                (!hit.full || hit.result == q.out.result)
                    && (hit.addr.is_none() || hit.addr == q.out.addr)
            }
            _ => !hit.full || hit.result == q.out.result,
        };
        debug_assert!(sound, "reuse test returned a wrong result for {:?}", q.inst);
        if !sound {
            return;
        }

        let grant = match self.validation {
            Validation::Early => {
                if hit.full {
                    ReuseGrant::EarlyFull
                } else if let Some(addr) = hit.addr {
                    ReuseGrant::EarlyAddr(addr)
                } else {
                    ReuseGrant::Tag
                }
            }
            Validation::Late => {
                if hit.full {
                    ReuseGrant::LateFull
                } else if let Some(addr) = hit.addr {
                    ReuseGrant::LateAddr(addr)
                } else {
                    ReuseGrant::Tag
                }
            }
        };
        act.reuse = Some(ReuseAction {
            entry: hit.entry,
            grant,
        });
    }

    fn on_executed(&mut self, rec: &RbInsert) -> Option<EntryRef> {
        Some(self.rb.insert(*rec))
    }

    fn on_commit(&mut self, ev: &CommitEvent, fx: &mut CommitEffects) {
        // Architected register writes invalidate dependent entries.
        if let (Some(dst), Some(v)) = (ev.inst.dst, ev.result) {
            self.rb.on_reg_write(dst, v);
        }
        // Committed stores invalidate overlapping load entries.
        if let Some(mem) = &ev.mem {
            if !mem.is_load {
                if let Some(addr) = ev.addr {
                    self.rb.on_store(addr, mem.width);
                }
            }
        }
        // Squash-recovery accounting: a committing reuse backed by an
        // entry inserted on a squashed path recovered wrong-path work.
        if ev.reused || ev.addr_reused {
            if let Some(entry) = ev.reuse_source {
                if self.rb.take_flag(entry) {
                    fx.squash_recovered = true;
                }
            }
        }
    }

    fn on_squash_victim(&mut self, v: &SquashVictim) {
        if let Some(entry) = v.rb_entry {
            self.rb.flag(entry);
        }
        // A squashed store never becomes architectural, but loads on
        // its path may have captured its (forwarded) value into the
        // reuse buffer — invalidate those entries.
        if let Some((addr, width)) = v.squashed_store {
            self.rb.on_store(addr, width);
        }
    }

    fn on_squash_restore(&mut self, reg: Reg, value: u64) {
        self.rb.on_reg_write(reg, value);
    }

    fn export(&self, out: &mut MechExport) {
        out.rb = Some(self.rb.stats());
    }
}

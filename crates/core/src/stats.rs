//! Simulation statistics.
//!
//! Every quantity reported in the paper's Tables 2–6 and Figures 3–7 is
//! derived from these counters.

use vpir_mem::CacheStats;
use vpir_predict::VptStats;
use vpir_reuse::ReuseStats;
use vpir_stats::RtbStats;

vpir_stats::counters! {
    /// Counters accumulated over one simulation run.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct SimStats {
        /// Simulated cycles.
        pub cycles: u64,
        /// Instructions committed (architectural progress).
        pub committed: u64,
        /// Instructions dispatched (including wrong path).
        pub dispatched: u64,
        /// Execution events on functional units (re-executions count again).
        pub executions: u64,

        // ---- branches ----
        /// Conditional branches committed.
        pub branches: u64,
        /// Committed conditional branches whose fetch-time direction
        /// prediction was wrong.
        pub branch_mispredicts: u64,
        /// Committed returns (`jr ra`).
        pub returns: u64,
        /// Committed returns whose predicted target was wrong.
        pub return_mispredicts: u64,
        /// Squash events (each control-flow repair; spurious value-induced
        /// squashes count here too).
        pub squashes: u64,
        /// Squash events caused by branches resolving on value-speculative
        /// operands that later turned out correct (spurious squashes).
        pub spurious_squashes: u64,
        /// Sum over committed control instructions of
        /// `resolve_cycle - dispatch_cycle` (branch resolution latency,
        /// Figure 4).
        pub branch_resolution_latency_sum: u64,
        /// Number of committed control instructions in the above sum.
        pub branch_resolution_count: u64,
        /// Instructions that had executed at least once when a squash
        /// discarded them (Table 5 numerator base).
        pub squashed_executed: u64,
        /// Committed instructions whose reuse hit an RB entry written by a
        /// control-squashed instruction (Table 5 "recovered").
        pub squash_recovered: u64,

        // ---- value prediction ----
        /// Committed result-producing instructions.
        pub result_producers: u64,
        /// Committed instructions whose result was predicted.
        pub result_predicted: u64,
        /// ... of which the prediction was correct.
        pub result_pred_correct: u64,
        /// Committed memory operations.
        pub mem_ops: u64,
        /// Committed loads whose effective address was predicted.
        pub addr_predicted: u64,
        /// ... of which the prediction was correct.
        pub addr_pred_correct: u64,
        /// Histogram of per-instruction execution counts at commit:
        /// `[never, once, twice, three or more]`.
        pub exec_histogram: [u64; 4],

        // ---- instruction reuse ----
        /// Committed instructions whose full result was reused.
        pub reused_full: u64,
        /// Committed memory operations whose effective address came from the
        /// RB (includes fully reused memory operations).
        pub reused_addr: u64,

        // ---- resources ----
        /// Requests for a functional unit by ready instructions.
        pub fu_requests: u64,
        /// ... that were denied (unit busy or issue slot exhausted).
        pub fu_denials: u64,
        /// Data-cache port requests.
        pub port_requests: u64,
        /// ... that were denied.
        pub port_denials: u64,

        // ---- substructures ----
        /// Instruction-cache hit/miss counters.
        pub icache: CacheStats,
        /// Data-cache hit/miss counters.
        pub dcache: CacheStats,
        /// Result-VPT counters (zero when VP is off).
        pub vpt_result: VptStats,
        /// Address-VPT counters (zero when address prediction is off).
        pub vpt_addr: VptStats,
        /// Reuse-buffer counters (zero when IR is off).
        pub rb: ReuseStats,
        /// Trace-reuse counters (zero when the RTB is off), including the
        /// per-instruction-class and per-loop-depth attribution of committed
        /// trace members.
        pub rtb: RtbStats,
    }
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch prediction accuracy (percent).
    pub fn branch_pred_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            100.0 * self.branches.saturating_sub(self.branch_mispredicts) as f64
                / self.branches as f64
        }
    }

    /// Return-target prediction accuracy (percent).
    pub fn return_pred_rate(&self) -> f64 {
        if self.returns == 0 {
            100.0
        } else {
            100.0 * self.returns.saturating_sub(self.return_mispredicts) as f64
                / self.returns as f64
        }
    }

    /// Percent of committed instructions whose result was reused (Table 3).
    pub fn reuse_result_rate(&self) -> f64 {
        pct(self.reused_full, self.committed)
    }

    /// Percent of committed memory ops whose address was reused.
    pub fn reuse_addr_rate(&self) -> f64 {
        pct(self.reused_addr, self.mem_ops)
    }

    /// Percent of committed instructions correctly value predicted.
    pub fn vp_result_rate(&self) -> f64 {
        pct(self.result_pred_correct, self.committed)
    }

    /// Percent of committed instructions value predicted *incorrectly*.
    pub fn vp_result_mispred_rate(&self) -> f64 {
        pct(
            self.result_predicted
                .saturating_sub(self.result_pred_correct),
            self.committed,
        )
    }

    /// Percent of committed memory ops with correctly predicted address.
    pub fn vp_addr_rate(&self) -> f64 {
        pct(self.addr_pred_correct, self.mem_ops)
    }

    /// Percent of committed memory ops with mispredicted address.
    pub fn vp_addr_mispred_rate(&self) -> f64 {
        pct(
            self.addr_predicted.saturating_sub(self.addr_pred_correct),
            self.mem_ops,
        )
    }

    /// Mean branch-resolution latency in cycles (Figure 4).
    pub fn branch_resolution_latency(&self) -> f64 {
        if self.branch_resolution_count == 0 {
            0.0
        } else {
            self.branch_resolution_latency_sum as f64 / self.branch_resolution_count as f64
        }
    }

    /// Resource-contention ratio: denied / requested (Figure 5).
    pub fn contention(&self) -> f64 {
        let req = self.fu_requests + self.port_requests;
        let den = self.fu_denials + self.port_denials;
        if req == 0 {
            0.0
        } else {
            den as f64 / req as f64
        }
    }

    /// Percent of executed instructions later squashed (Table 5).
    pub fn squashed_exec_rate(&self) -> f64 {
        pct(self.squashed_executed, self.executions)
    }

    /// Percent of squashed executed instructions recovered by IR (Table 5).
    pub fn squash_recovery_rate(&self) -> f64 {
        pct(self.squash_recovered, self.squashed_executed)
    }

    /// Percent of committed instructions executed exactly `n` times
    /// (n = 1, 2, or 3+; Table 6).
    pub fn exec_times_rate(&self, n: usize) -> f64 {
        let idx = n.min(3);
        pct(self.exec_histogram[idx], self.committed)
    }
}

impl SimStats {
    /// Renders a human-readable summary of the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpir_core::SimStats;
    /// let s = SimStats { cycles: 100, committed: 250, ..SimStats::default() };
    /// let text = s.report();
    /// assert!(text.contains("IPC"));
    /// ```
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycles {}  dispatched {}  committed {}  IPC {:.3}",
            self.cycles,
            self.dispatched,
            self.committed,
            self.ipc()
        );
        let _ = writeln!(
            out,
            "branches {} ({:.1}% predicted)  returns {} ({:.1}%)  squashes {} ({} spurious)",
            self.branches,
            self.branch_pred_rate(),
            self.returns,
            self.return_pred_rate(),
            self.squashes,
            self.spurious_squashes
        );
        if self.result_predicted > 0 || self.addr_predicted > 0 {
            let _ = writeln!(
                out,
                "VP: results {:.1}% correct / {:.1}% wrong; addresses {:.1}% / {:.1}%",
                self.vp_result_rate(),
                self.vp_result_mispred_rate(),
                self.vp_addr_rate(),
                self.vp_addr_mispred_rate()
            );
            let _ = writeln!(
                out,
                "    covered {:.1}% of {} result producers; VPT {} lookups (+{} addr)",
                pct(self.result_predicted, self.result_producers),
                self.result_producers,
                self.vpt_result.lookups,
                self.vpt_addr.lookups
            );
        }
        if self.reused_full > 0 || self.reused_addr > 0 {
            let _ = writeln!(
                out,
                "IR: {:.1}% of results reused; {:.1}% of memory ops reused an address",
                self.reuse_result_rate(),
                self.reuse_addr_rate()
            );
            let _ = writeln!(
                out,
                "    RB: {} inserts, {} evictions, {} reg / {} mem invalidations",
                self.rb.inserts,
                self.rb.evictions,
                self.rb.reg_invalidations,
                self.rb.mem_invalidations
            );
        }
        if self.rtb != RtbStats::default() {
            let _ = writeln!(
                out,
                "RTB: {} replays ({} insts, mean len {:.2}); {:.1}% of commits were trace members",
                self.rtb.replays,
                self.rtb.replayed_insts,
                self.rtb.mean_trace_len(),
                self.rtb.committed_reuse_pct(self.committed)
            );
            let _ = writeln!(
                out,
                "    captures: {} finalized, {} installed ({:.1}%), {} dropped, {} squashed, {} replay aborts",
                self.rtb.captured,
                self.rtb.installed,
                self.rtb.install_pct(),
                self.rtb.dropped,
                self.rtb.pending_squashed,
                self.rtb.aborted
            );
            let mut by_class = String::new();
            for (name, count) in vpir_mechanism::CLASS_NAMES.iter().zip(self.rtb.per_class) {
                if count > 0 {
                    if !by_class.is_empty() {
                        by_class.push_str("  ");
                    }
                    let _ = write!(by_class, "{name} {count}");
                }
            }
            if !by_class.is_empty() {
                let _ = writeln!(out, "    reused by type: {by_class}");
            }
            let mut by_depth = String::new();
            for (depth, count) in self.rtb.per_depth.iter().enumerate() {
                if *count > 0 {
                    if !by_depth.is_empty() {
                        by_depth.push_str("  ");
                    }
                    let tag = if depth == 4 {
                        "4+".to_string()
                    } else {
                        depth.to_string()
                    };
                    let _ = write!(by_depth, "depth{tag} {count}");
                }
            }
            if !by_depth.is_empty() {
                let _ = writeln!(out, "    reused by loop depth: {by_depth}");
            }
        }
        let _ = writeln!(
            out,
            "caches: icache {}/{} hits  dcache {}/{} hits",
            self.icache.hits,
            self.icache.accesses(),
            self.dcache.hits,
            self.dcache.accesses()
        );
        let _ = writeln!(
            out,
            "resources: {:.2}% contention  |  exec histogram {:?}",
            100.0 * self.contention(),
            self.exec_histogram
        );
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            branches: 50,
            branch_mispredicts: 5,
            reused_full: 25,
            mem_ops: 50,
            reused_addr: 10,
            fu_requests: 90,
            fu_denials: 9,
            port_requests: 10,
            port_denials: 1,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.branch_pred_rate() - 90.0).abs() < 1e-12);
        assert!((s.reuse_result_rate() - 10.0).abs() < 1e-12);
        assert!((s.reuse_addr_rate() - 20.0).abs() < 1e-12);
        assert!((s.contention() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn report_renders_all_sections() {
        let s = SimStats {
            cycles: 10,
            committed: 20,
            reused_full: 5,
            result_predicted: 3,
            result_pred_correct: 2,
            ..SimStats::default()
        };
        let r = s.report();
        assert!(r.contains("IPC"));
        assert!(r.contains("VP:"));
        assert!(r.contains("IR:"));
    }

    #[test]
    fn rtb_report_attributes_by_type_and_loop_depth() {
        let mut s = SimStats {
            cycles: 10,
            committed: 100,
            ..SimStats::default()
        };
        assert!(
            !s.report().contains("RTB:"),
            "RTB section must stay silent when the mechanism is off"
        );
        s.rtb = RtbStats {
            captured: 10,
            installed: 8,
            replays: 4,
            replayed_insts: 12,
            committed_reused: 12,
            ..RtbStats::default()
        };
        s.rtb.per_class[0] = 9;
        s.rtb.per_class[2] = 3;
        s.rtb.per_depth[1] = 10;
        s.rtb.per_depth[4] = 2;
        let r = s.report();
        assert!(r.contains("RTB: 4 replays"));
        assert!(r.contains("int-alu 9"));
        assert!(r.contains("load 3"));
        assert!(r.contains("depth1 10"));
        assert!(r.contains("depth4+ 2"));
    }

    /// A resumed job file is not checked for consistency, so a part can
    /// exceed its whole; the rates stay finite instead of underflowing.
    #[test]
    fn rates_are_total_when_a_part_exceeds_its_whole() {
        let s = SimStats {
            committed: 10,
            mem_ops: 10,
            branches: 1,
            branch_mispredicts: 2,
            returns: 1,
            return_mispredicts: 2,
            result_predicted: 1,
            result_pred_correct: 2,
            addr_predicted: 1,
            addr_pred_correct: 2,
            ..SimStats::default()
        };
        assert_eq!(s.branch_pred_rate(), 0.0);
        assert_eq!(s.return_pred_rate(), 0.0);
        assert_eq!(s.vp_result_mispred_rate(), 0.0);
        assert_eq!(s.vp_addr_mispred_rate(), 0.0);
        assert!(s.report().contains("0.0% predicted"));
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_pred_rate(), 0.0);
        assert_eq!(s.return_pred_rate(), 100.0);
        assert_eq!(s.contention(), 0.0);
        assert_eq!(s.branch_resolution_latency(), 0.0);
    }
}

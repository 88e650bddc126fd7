//! Cross-validation of the static classification against the dynamic
//! limit study (`vpir_redundancy::analyze_per_pc`).
//!
//! The join is per static instruction address: the static side predicts
//! *invariant* / *stride-derivable* / *input-dependent*; the dynamic
//! side reports the dominant Figure 8 class actually observed. The
//! headline claim is one-sided — **statically invariant instructions
//! must be dynamically repeated** (zero false positives) — because the
//! constant propagation only calls a result `Const` when it holds on
//! every execution. Recall is necessarily partial: plenty of dynamic
//! repetition comes from program *inputs* repeating, which no static
//! analysis can see.

use std::collections::BTreeMap;

use vpir_redundancy::PcClassCounts;

use crate::classify::StaticClass;
use crate::InstSummary;

/// Result of joining static and dynamic classifications.
#[derive(Debug, Clone, Default)]
pub struct Xval {
    /// Static instructions in the comparison universe (result producers
    /// executed at least twice).
    pub universe: u64,
    /// Universe members predicted invariant.
    pub static_invariant: u64,
    /// Universe members whose dominant dynamic class is `repeated`.
    pub dynamic_repeated: u64,
    /// Predicted invariant and dominantly repeated.
    pub true_positives: u64,
    /// Addresses predicted invariant that never produced a repeated
    /// result — each one disproves the constant-propagation proof, so
    /// this must stay empty.
    pub false_positive_pcs: Vec<u64>,
    /// `static class name × dominant dynamic class name → count` over
    /// the universe.
    pub matrix: BTreeMap<(&'static str, &'static str), u64>,
}

impl Xval {
    /// Precision of "statically invariant" against "dominantly
    /// repeated" (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        if self.static_invariant == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.static_invariant as f64
        }
    }

    /// Recall of "statically invariant" against "dominantly repeated".
    pub fn recall(&self) -> f64 {
        if self.dynamic_repeated == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.dynamic_repeated as f64
        }
    }

    /// Single JSON object with the join counts, rates, and matrix.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"universe\":{},", self.universe);
        let _ = write!(out, "\"static_invariant\":{},", self.static_invariant);
        let _ = write!(out, "\"dynamic_repeated\":{},", self.dynamic_repeated);
        let _ = write!(out, "\"true_positives\":{},", self.true_positives);
        let _ = write!(
            out,
            "\"false_positives\":{},",
            self.false_positive_pcs.len()
        );
        let _ = write!(out, "\"precision\":{:.6},", self.precision());
        let _ = write!(out, "\"recall\":{:.6},", self.recall());
        out.push_str("\"matrix\":[");
        for (i, ((s, d), n)) in self.matrix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"static\":\"{s}\",\"dynamic\":\"{d}\",\"count\":{n}}}"
            );
        }
        out.push_str("]}");
        out
    }
}

/// Joins the static per-instruction summaries with the dynamic per-PC
/// counts.
pub fn cross_validate(insts: &[InstSummary], per_pc: &BTreeMap<u64, PcClassCounts>) -> Xval {
    let mut xval = Xval::default();
    for inst in insts {
        let Some(class) = inst.class else {
            continue;
        };
        let Some(counts) = per_pc.get(&inst.addr) else {
            continue;
        };
        if counts.executions < 2 {
            continue;
        }
        xval.universe += 1;
        let dominant = counts.dominant_class();
        *xval.matrix.entry((class.name(), dominant)).or_insert(0) += 1;
        let is_invariant = class == StaticClass::Invariant;
        let is_repeated = dominant == "repeated";
        if is_invariant {
            xval.static_invariant += 1;
            if counts.repeated == 0 {
                xval.false_positive_pcs.push(inst.addr);
            }
        }
        if is_repeated {
            xval.dynamic_repeated += 1;
        }
        if is_invariant && is_repeated {
            xval.true_positives += 1;
        }
    }
    xval
}

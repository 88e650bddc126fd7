//! Incremental per-job persistence for resumable matrix runs.
//!
//! Each (benchmark × configuration) cell of the matrix is one job; as a
//! worker finishes a job it writes `job-NNN.json` into the dump
//! directory, and a failed job leaves `job-NNN-failure.json` instead.
//! `--resume` reloads the completed files and re-executes only the
//! missing or failed cells. Because every simulator counter is an exact
//! `u64`, the round trip through JSON is lossless and a resumed matrix
//! is bit-identical to an uninterrupted run.
//!
//! Everything here is std-only: the emitter and the exact-`u64`
//! recursive-descent parser live in the shared `vpir-jsonlite` crate
//! (they started life in this module) and are re-exported below so
//! existing `vpir_bench::state::{parse_json, ...}` imports keep working.

use std::path::{Path, PathBuf};

use vpir_core::SimStats;
use vpir_jsonlite::JsonObj as Obj;
use vpir_mem::CacheStats;
use vpir_predict::VptStats;
use vpir_redundancy::LimitStudy;
use vpir_reuse::ReuseStats;
use vpir_stats::RtbStats;

pub use vpir_jsonlite::{json_escape, parse_json, JsonValue};

/// Schema tag stamped into every per-job result file.
pub const JOB_SCHEMA: &str = "vpir-bench-job-v2";

/// Schema tag stamped into every per-job failure dump.
pub const FAILURE_SCHEMA: &str = "vpir-bench-failure-v2";

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

fn cache_to_json(c: &CacheStats) -> String {
    Obj::new()
        .u("hits", c.hits)
        .u("misses", c.misses)
        .u("mshr_merges", c.mshr_merges)
        .finish()
}

fn vpt_to_json(v: &VptStats) -> String {
    Obj::new()
        .u("lookups", v.lookups)
        .u("predictions", v.predictions)
        .u("trainings", v.trainings)
        .u("allocations", v.allocations)
        .finish()
}

fn rb_to_json(r: &ReuseStats) -> String {
    Obj::new()
        .u("inserts", r.inserts)
        .u("updates", r.updates)
        .u("evictions", r.evictions)
        .u("reg_invalidations", r.reg_invalidations)
        .u("revalidations", r.revalidations)
        .u("mem_invalidations", r.mem_invalidations)
        .u("full_reuses", r.full_reuses)
        .u("addr_reuses", r.addr_reuses)
        .u("misses", r.misses)
        .finish()
}

fn u64_array_json(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn rtb_to_json(r: &RtbStats) -> String {
    Obj::new()
        .u("captured", r.captured)
        .u("pending_squashed", r.pending_squashed)
        .u("installed", r.installed)
        .u("dropped", r.dropped)
        .u("replays", r.replays)
        .u("replayed_insts", r.replayed_insts)
        .u("aborted", r.aborted)
        .u("committed_reused", r.committed_reused)
        .raw("per_class", &u64_array_json(&r.per_class))
        .raw("per_depth", &u64_array_json(&r.per_depth))
        .finish()
}

/// Serializes a full [`SimStats`] as a JSON object.
///
/// The `rtb` block is emitted only when trace reuse actually ran (the
/// stats differ from the all-zero default): every pre-RTB job file and
/// golden digest stays byte-identical for the base/VP/IR configurations.
pub fn stats_to_json(s: &SimStats) -> String {
    let histogram = format!(
        "[{}, {}, {}, {}]",
        s.exec_histogram[0], s.exec_histogram[1], s.exec_histogram[2], s.exec_histogram[3]
    );
    let o = Obj::new()
        .u("cycles", s.cycles)
        .u("committed", s.committed)
        .u("dispatched", s.dispatched)
        .u("executions", s.executions)
        .u("branches", s.branches)
        .u("branch_mispredicts", s.branch_mispredicts)
        .u("returns", s.returns)
        .u("return_mispredicts", s.return_mispredicts)
        .u("squashes", s.squashes)
        .u("spurious_squashes", s.spurious_squashes)
        .u("branch_resolution_latency_sum", s.branch_resolution_latency_sum)
        .u("branch_resolution_count", s.branch_resolution_count)
        .u("squashed_executed", s.squashed_executed)
        .u("squash_recovered", s.squash_recovered)
        .u("result_producers", s.result_producers)
        .u("result_predicted", s.result_predicted)
        .u("result_pred_correct", s.result_pred_correct)
        .u("mem_ops", s.mem_ops)
        .u("addr_predicted", s.addr_predicted)
        .u("addr_pred_correct", s.addr_pred_correct)
        .raw("exec_histogram", &histogram)
        .u("reused_full", s.reused_full)
        .u("reused_addr", s.reused_addr)
        .u("fu_requests", s.fu_requests)
        .u("fu_denials", s.fu_denials)
        .u("port_requests", s.port_requests)
        .u("port_denials", s.port_denials)
        .raw("icache", &cache_to_json(&s.icache))
        .raw("dcache", &cache_to_json(&s.dcache))
        .raw("vpt_result", &vpt_to_json(&s.vpt_result))
        .raw("vpt_addr", &vpt_to_json(&s.vpt_addr))
        .raw("rb", &rb_to_json(&s.rb));
    if s.rtb != RtbStats::default() {
        return o.raw("rtb", &rtb_to_json(&s.rtb)).finish();
    }
    o.finish()
}

/// Serializes a [`LimitStudy`] as a JSON object.
pub fn limit_to_json(l: &LimitStudy) -> String {
    Obj::new()
        .u("total", l.total)
        .u("unique", l.unique)
        .u("repeated", l.repeated)
        .u("derivable", l.derivable)
        .u("unaccounted", l.unaccounted)
        .u("rep_producers_reused", l.rep_producers_reused)
        .u("rep_ready_far", l.rep_ready_far)
        .u("rep_not_ready", l.rep_not_ready)
        .u("rep_different_inputs", l.rep_different_inputs)
        .u("reusable", l.reusable)
        .finish()
}

// ---------------------------------------------------------------------
// Field extraction
// ---------------------------------------------------------------------

fn u(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn s(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn cache_from_json(v: &JsonValue) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: u(v, "hits")?,
        misses: u(v, "misses")?,
        mshr_merges: u(v, "mshr_merges")?,
    })
}

fn vpt_from_json(v: &JsonValue) -> Result<VptStats, String> {
    Ok(VptStats {
        lookups: u(v, "lookups")?,
        predictions: u(v, "predictions")?,
        trainings: u(v, "trainings")?,
        allocations: u(v, "allocations")?,
    })
}

fn rb_from_json(v: &JsonValue) -> Result<ReuseStats, String> {
    Ok(ReuseStats {
        inserts: u(v, "inserts")?,
        updates: u(v, "updates")?,
        evictions: u(v, "evictions")?,
        reg_invalidations: u(v, "reg_invalidations")?,
        revalidations: u(v, "revalidations")?,
        mem_invalidations: u(v, "mem_invalidations")?,
        full_reuses: u(v, "full_reuses")?,
        addr_reuses: u(v, "addr_reuses")?,
        misses: u(v, "misses")?,
    })
}

fn u_arr<const N: usize>(v: &JsonValue, key: &str) -> Result<[u64; N], String> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))?;
    if arr.len() != N {
        return Err(format!("{key} has {} entries, want {N}", arr.len()));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item
            .as_u64()
            .ok_or_else(|| format!("non-integer entry in {key}"))?;
    }
    Ok(out)
}

fn rtb_from_json(v: &JsonValue) -> Result<RtbStats, String> {
    Ok(RtbStats {
        captured: u(v, "captured")?,
        pending_squashed: u(v, "pending_squashed")?,
        installed: u(v, "installed")?,
        dropped: u(v, "dropped")?,
        replays: u(v, "replays")?,
        replayed_insts: u(v, "replayed_insts")?,
        aborted: u(v, "aborted")?,
        committed_reused: u(v, "committed_reused")?,
        per_class: u_arr(v, "per_class")?,
        per_depth: u_arr(v, "per_depth")?,
    })
}

fn sub<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing object `{key}`"))
}

/// Reconstructs a [`SimStats`] from its JSON object form.
///
/// Every field is read explicitly (no defaults), so adding a counter to
/// `SimStats` without extending the round trip fails to compile here.
pub fn stats_from_json(v: &JsonValue) -> Result<SimStats, String> {
    let hist = v
        .get("exec_histogram")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array `exec_histogram`")?;
    if hist.len() != 4 {
        return Err(format!("exec_histogram has {} entries, want 4", hist.len()));
    }
    let mut exec_histogram = [0u64; 4];
    for (slot, item) in exec_histogram.iter_mut().zip(hist) {
        *slot = item
            .as_u64()
            .ok_or("non-integer entry in exec_histogram")?;
    }
    Ok(SimStats {
        cycles: u(v, "cycles")?,
        committed: u(v, "committed")?,
        dispatched: u(v, "dispatched")?,
        executions: u(v, "executions")?,
        branches: u(v, "branches")?,
        branch_mispredicts: u(v, "branch_mispredicts")?,
        returns: u(v, "returns")?,
        return_mispredicts: u(v, "return_mispredicts")?,
        squashes: u(v, "squashes")?,
        spurious_squashes: u(v, "spurious_squashes")?,
        branch_resolution_latency_sum: u(v, "branch_resolution_latency_sum")?,
        branch_resolution_count: u(v, "branch_resolution_count")?,
        squashed_executed: u(v, "squashed_executed")?,
        squash_recovered: u(v, "squash_recovered")?,
        result_producers: u(v, "result_producers")?,
        result_predicted: u(v, "result_predicted")?,
        result_pred_correct: u(v, "result_pred_correct")?,
        mem_ops: u(v, "mem_ops")?,
        addr_predicted: u(v, "addr_predicted")?,
        addr_pred_correct: u(v, "addr_pred_correct")?,
        exec_histogram,
        reused_full: u(v, "reused_full")?,
        reused_addr: u(v, "reused_addr")?,
        fu_requests: u(v, "fu_requests")?,
        fu_denials: u(v, "fu_denials")?,
        port_requests: u(v, "port_requests")?,
        port_denials: u(v, "port_denials")?,
        icache: cache_from_json(sub(v, "icache")?)?,
        dcache: cache_from_json(sub(v, "dcache")?)?,
        vpt_result: vpt_from_json(sub(v, "vpt_result")?)?,
        vpt_addr: vpt_from_json(sub(v, "vpt_addr")?)?,
        rb: rb_from_json(sub(v, "rb")?)?,
        // Absent in every pre-RTB job file and in non-RTB runs.
        rtb: match v.get("rtb") {
            Some(r) => rtb_from_json(r)?,
            None => RtbStats::default(),
        },
    })
}

/// Reconstructs a [`LimitStudy`] from its JSON object form.
pub fn limit_from_json(v: &JsonValue) -> Result<LimitStudy, String> {
    Ok(LimitStudy {
        total: u(v, "total")?,
        unique: u(v, "unique")?,
        repeated: u(v, "repeated")?,
        derivable: u(v, "derivable")?,
        unaccounted: u(v, "unaccounted")?,
        rep_producers_reused: u(v, "rep_producers_reused")?,
        rep_ready_far: u(v, "rep_ready_far")?,
        rep_not_ready: u(v, "rep_not_ready")?,
        rep_different_inputs: u(v, "rep_different_inputs")?,
        reusable: u(v, "reusable")?,
    })
}

// ---------------------------------------------------------------------
// Job records
// ---------------------------------------------------------------------

/// The result a job produced: full pipeline statistics for simulator
/// configurations, or the redundancy limit study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPayload {
    /// A simulator run's counters.
    Stats(Box<SimStats>),
    /// The functional limit-study histogram.
    Limit(LimitStudy),
}

/// One completed matrix cell, as persisted to (and reloaded from) the
/// dump directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Flat index of the job in the matrix's fixed job order.
    pub job_index: usize,
    /// Benchmark name (e.g. `"go"`).
    pub bench: String,
    /// Configuration label (e.g. `"base"`, `"magic:ME-SB:vl1"`).
    pub config: String,
    /// Workload scale the job ran at.
    pub scale: u32,
    /// Per-job cycle budget the job ran under.
    pub max_cycles: u64,
    /// Instruction cap for the limit study.
    pub limit_insts: u64,
    /// The job's result.
    pub payload: JobPayload,
}

impl JobRecord {
    /// Serializes the record as a `vpir-bench-job-v2` document.
    pub fn to_json(&self) -> String {
        let (kind, key, body) = match &self.payload {
            JobPayload::Stats(s) => ("stats", "stats", stats_to_json(s)),
            JobPayload::Limit(l) => ("limit", "limit", limit_to_json(l)),
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{JOB_SCHEMA}\",\n"));
        out.push_str(&format!("  \"job_index\": {},\n", self.job_index));
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.bench)));
        out.push_str(&format!("  \"config\": \"{}\",\n", json_escape(&self.config)));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"max_cycles\": {},\n", self.max_cycles));
        out.push_str(&format!("  \"limit_insts\": {},\n", self.limit_insts));
        out.push_str(&format!("  \"kind\": \"{kind}\",\n"));
        out.push_str(&format!("  \"{key}\": {body}\n"));
        out.push_str("}\n");
        out
    }

    /// Parses a `vpir-bench-job-v2` document.
    pub fn from_json(text: &str) -> Result<JobRecord, String> {
        let v = parse_json(text)?;
        let schema = s(&v, "schema")?;
        if schema != JOB_SCHEMA {
            return Err(format!("schema `{schema}`, want `{JOB_SCHEMA}`"));
        }
        let kind = s(&v, "kind")?;
        let payload = match kind.as_str() {
            "stats" => JobPayload::Stats(Box::new(stats_from_json(sub(&v, "stats")?)?)),
            "limit" => JobPayload::Limit(limit_from_json(sub(&v, "limit")?)?),
            other => return Err(format!("unknown job kind `{other}`")),
        };
        Ok(JobRecord {
            job_index: usize::try_from(u(&v, "job_index")?)
                .map_err(|_| "job_index out of range".to_string())?,
            bench: s(&v, "bench")?,
            config: s(&v, "config")?,
            scale: u32::try_from(u(&v, "scale")?)
                .map_err(|_| "scale out of range".to_string())?,
            max_cycles: u(&v, "max_cycles")?,
            limit_insts: u(&v, "limit_insts")?,
            payload,
        })
    }
}

/// Path of the result file for job `job_index` inside `dir`.
pub fn job_path(dir: &Path, job_index: usize) -> PathBuf {
    dir.join(format!("job-{job_index:03}.json"))
}

/// Path of the failure dump for job `job_index` inside `dir`.
pub fn failure_path(dir: &Path, job_index: usize) -> PathBuf {
    dir.join(format!("job-{job_index:03}-failure.json"))
}

/// Writes a job record atomically (temp file + rename), so a crash
/// mid-write never leaves a half-valid file for `--resume` to trust.
pub fn write_job(dir: &Path, rec: &JobRecord) -> std::io::Result<()> {
    let final_path = job_path(dir, rec.job_index);
    let tmp_path = dir.join(format!("job-{:03}.json.tmp", rec.job_index));
    std::fs::write(&tmp_path, rec.to_json())?;
    std::fs::rename(&tmp_path, &final_path)
}

/// Loads job `job_index` from `dir`, or `None` when the file is
/// missing or does not parse as a valid v2 job record (either way the
/// job is simply re-executed).
pub fn load_job(dir: &Path, job_index: usize) -> Option<JobRecord> {
    let text = std::fs::read_to_string(job_path(dir, job_index)).ok()?;
    let rec = JobRecord::from_json(&text).ok()?;
    (rec.job_index == job_index).then_some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats block with every counter distinct, so a field swapped or
    /// dropped in either direction of the round trip is caught. Built as
    /// a full struct literal: adding a `SimStats` field breaks this test
    /// at compile time until the serializer learns about it.
    fn full_stats() -> SimStats {
        SimStats {
            cycles: 1,
            committed: 2,
            dispatched: 3,
            executions: 4,
            branches: 5,
            branch_mispredicts: 6,
            returns: 7,
            return_mispredicts: 8,
            squashes: 9,
            spurious_squashes: 10,
            branch_resolution_latency_sum: 11,
            branch_resolution_count: 12,
            squashed_executed: 13,
            squash_recovered: 14,
            result_producers: 15,
            result_predicted: 16,
            result_pred_correct: 17,
            mem_ops: 18,
            addr_predicted: 19,
            addr_pred_correct: 20,
            exec_histogram: [21, 22, 23, 24],
            reused_full: 25,
            reused_addr: 26,
            fu_requests: 27,
            fu_denials: 28,
            port_requests: 29,
            port_denials: 30,
            icache: CacheStats { hits: 31, misses: 32, mshr_merges: 33 },
            dcache: CacheStats { hits: 34, misses: 35, mshr_merges: 36 },
            vpt_result: VptStats {
                lookups: 37,
                predictions: 38,
                trainings: 39,
                allocations: 40,
            },
            vpt_addr: VptStats {
                lookups: 41,
                predictions: 42,
                trainings: 43,
                allocations: 44,
            },
            rb: ReuseStats {
                inserts: 45,
                updates: 46,
                evictions: 47,
                reg_invalidations: 48,
                revalidations: 49,
                mem_invalidations: 50,
                full_reuses: 51,
                addr_reuses: 52,
                misses: 53,
            },
            rtb: RtbStats {
                captured: 54,
                pending_squashed: 55,
                installed: 56,
                dropped: 57,
                replays: 58,
                replayed_insts: 59,
                aborted: 60,
                committed_reused: 61,
                per_class: [62, 63, 64, 65, 66, 67, 68, 69, 70],
                per_depth: [71, 72, 73, 74, 75],
            },
        }
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let stats = full_stats();
        let v = parse_json(&stats_to_json(&stats)).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);
    }

    /// The `rtb` block must stay out of non-RTB documents (existing
    /// golden digests hash exactly the old byte stream) yet round-trip
    /// when present.
    #[test]
    fn rtb_block_is_conditional_and_defaulted() {
        let mut stats = full_stats();
        stats.rtb = RtbStats::default();
        let text = stats_to_json(&stats);
        assert!(!text.contains("\"rtb\""), "default RTB stats must not serialize");
        let v = parse_json(&text).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);

        let with_rtb = full_stats();
        assert!(stats_to_json(&with_rtb).contains("\"rtb\""));
    }

    #[test]
    fn limit_round_trip_is_exact() {
        let limit = LimitStudy {
            total: 100,
            unique: 40,
            repeated: 50,
            derivable: 5,
            unaccounted: 5,
            rep_producers_reused: 10,
            rep_ready_far: 20,
            rep_not_ready: 15,
            rep_different_inputs: 5,
            reusable: 30,
        };
        let v = parse_json(&limit_to_json(&limit)).expect("parse");
        assert_eq!(limit_from_json(&v).expect("decode"), limit);
    }

    #[test]
    fn job_record_round_trips_through_its_file_form() {
        let rec = JobRecord {
            job_index: 7,
            bench: "go".to_string(),
            config: "magic:ME-SB:vl1".to_string(),
            scale: 2,
            max_cycles: 30_000,
            limit_insts: 6_000,
            payload: JobPayload::Stats(Box::new(full_stats())),
        };
        let back = JobRecord::from_json(&rec.to_json()).expect("decode");
        assert_eq!(back, rec);

        let rec = JobRecord {
            payload: JobPayload::Limit(LimitStudy::default()),
            ..rec
        };
        let back = JobRecord::from_json(&rec.to_json()).expect("decode");
        assert_eq!(back, rec);
    }

    #[test]
    fn wrong_schema_and_stale_index_are_rejected() {
        let rec = JobRecord {
            job_index: 3,
            bench: "go".to_string(),
            config: "base".to_string(),
            scale: 1,
            max_cycles: 1000,
            limit_insts: 100,
            payload: JobPayload::Stats(Box::default()),
        };
        let bad = rec.to_json().replace(JOB_SCHEMA, "vpir-bench-job-v1");
        assert!(JobRecord::from_json(&bad).is_err());

        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/scratch/state-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        write_job(&dir, &rec).expect("write");
        assert_eq!(load_job(&dir, 3), Some(rec));
        // A record stored under the wrong index is not trusted.
        std::fs::rename(job_path(&dir, 3), job_path(&dir, 4)).expect("rename");
        assert_eq!(load_job(&dir, 4), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

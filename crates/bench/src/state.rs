//! Incremental per-job persistence for resumable matrix runs.
//!
//! Each (benchmark × configuration) cell of the matrix is one job; as a
//! worker finishes a job it writes `job-NNN.json` into the dump
//! directory, and a failed job leaves `job-NNN-failure.json` instead.
//! `--resume` reloads the completed files and re-executes only the
//! missing or failed cells. The emitter and parser walk the counter
//! table (`vpir_stats::counters!`) that declares every stats struct, so
//! each counter is written and read back without being named here; and
//! because every counter is an exact `u64`, the round trip through JSON
//! is lossless and a resumed matrix is bit-identical to an
//! uninterrupted run.
//!
//! Everything here is std-only: the emitter and the exact-`u64`
//! recursive-descent parser live in the shared `vpir-jsonlite` crate
//! (they started life in this module) and are re-exported below so
//! existing `vpir_bench::state::{parse_json, ...}` imports keep working.

use std::path::{Path, PathBuf};

use vpir_core::SimStats;
use vpir_jsonlite::JsonObj as Obj;
use vpir_redundancy::LimitStudy;
use vpir_stats::{Counters, Node, NodeMut};

pub use vpir_jsonlite::{json_escape, parse_json, JsonValue};

/// Schema tag stamped into every per-job result file.
pub const JOB_SCHEMA: &str = "vpir-bench-job-v2";

/// Schema tag stamped into every per-job failure dump.
pub const FAILURE_SCHEMA: &str = "vpir-bench-failure-v2";

/// Groups written only when some counter in them is nonzero and read
/// back as zero when absent. Trace reuse postdates the job format, so
/// every non-RTB job file and golden digest keeps its old byte stream.
const OPTIONAL_GROUPS: [&str; 1] = ["rtb"];

// ---------------------------------------------------------------------
// Counter tables <-> JSON
// ---------------------------------------------------------------------

/// Renders a counter table as a JSON object: fields in declaration
/// order, arrays as `[a, b, c]`, groups as nested objects.
fn counters_to_json(c: &dyn Counters) -> String {
    let mut obj = Obj::new();
    c.visit(&mut |name, node| {
        let o = std::mem::take(&mut obj);
        obj = match node {
            Node::Leaf(v) => o.u(name, v),
            Node::Array(xs) => {
                let items: Vec<String> = xs.iter().map(u64::to_string).collect();
                o.raw(name, &format!("[{}]", items.join(", ")))
            }
            Node::Group(g) if OPTIONAL_GROUPS.contains(&name) && is_zero(g) => o,
            Node::Group(g) => o.raw(name, &counters_to_json(g)),
        };
    });
    obj.finish()
}

fn is_zero(c: &dyn Counters) -> bool {
    let mut zero = true;
    c.visit(&mut |_, node| {
        zero &= match node {
            Node::Leaf(v) => v == 0,
            Node::Array(xs) => xs.iter().all(|&x| x == 0),
            Node::Group(g) => is_zero(g),
        }
    });
    zero
}

/// Fills every field of `c` from the JSON object `v`, stopping at the
/// first missing or malformed one.
fn counters_from_json(c: &mut dyn Counters, v: &JsonValue) -> Result<(), String> {
    let mut result = Ok(());
    c.visit_mut(&mut |name, node| {
        if result.is_ok() {
            result = field_from_json(name, node, v);
        }
    });
    result
}

fn field_from_json(name: &str, node: NodeMut<'_>, v: &JsonValue) -> Result<(), String> {
    match node {
        NodeMut::Leaf(slot) => *slot = u(v, name)?,
        NodeMut::Array(slots) => {
            let arr = v
                .get(name)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("missing array `{name}`"))?;
            if arr.len() != slots.len() {
                return Err(format!(
                    "{name} has {} entries, want {}",
                    arr.len(),
                    slots.len()
                ));
            }
            for (slot, item) in slots.iter_mut().zip(arr) {
                *slot = item
                    .as_u64()
                    .ok_or_else(|| format!("non-integer entry in {name}"))?;
            }
        }
        NodeMut::Group(g) => match v.get(name) {
            Some(sub) => counters_from_json(g, sub)?,
            // Parsing starts from the all-zero default.
            None if OPTIONAL_GROUPS.contains(&name) => {}
            None => return Err(format!("missing object `{name}`")),
        },
    }
    Ok(())
}

fn table_from_json<T: Counters + Default>(v: &JsonValue) -> Result<T, String> {
    let mut out = T::default();
    counters_from_json(&mut out, v)?;
    Ok(out)
}

/// Serializes a full [`SimStats`] as a JSON object.
///
/// The `rtb` block is emitted only when trace reuse actually ran (the
/// stats differ from the all-zero default): every pre-RTB job file and
/// golden digest stays byte-identical for the base/VP/IR configurations.
pub fn stats_to_json(s: &SimStats) -> String {
    counters_to_json(s)
}

/// Serializes a [`LimitStudy`] as a JSON object.
pub fn limit_to_json(l: &LimitStudy) -> String {
    counters_to_json(l)
}

/// Reconstructs a [`SimStats`] from its JSON object form.
///
/// Every table field is required except the `rtb` block, which
/// defaults to zero when absent (pre-RTB job files, non-RTB runs).
pub fn stats_from_json(v: &JsonValue) -> Result<SimStats, String> {
    table_from_json(v)
}

/// Reconstructs a [`LimitStudy`] from its JSON object form.
pub fn limit_from_json(v: &JsonValue) -> Result<LimitStudy, String> {
    table_from_json(v)
}

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

fn sub<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing object `{key}`"))
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
        out.push_str(&format!(
            "  \"config\": \"{}\",\n",
            json_escape(&self.config)
        ));
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
            scale: u32::try_from(u(&v, "scale")?).map_err(|_| "scale out of range".to_string())?,
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
    use vpir_stats::RtbStats;

    /// Writes 1, 2, 3, … into the leaves of `c` in declaration order.
    fn fill(c: &mut dyn Counters, next: &mut u64) {
        c.visit_mut(&mut |_, node| match node {
            NodeMut::Leaf(v) => {
                *next += 1;
                *v = *next;
            }
            NodeMut::Array(xs) => {
                for x in xs {
                    *next += 1;
                    *x = *next;
                }
            }
            NodeMut::Group(g) => fill(g, next),
        });
    }

    /// A table with every counter distinct, so a field swapped or
    /// dropped in either direction of the round trip is caught.
    fn filled<T: Counters + Default>() -> T {
        let mut t = T::default();
        fill(&mut t, &mut 0);
        t
    }

    fn full_stats() -> SimStats {
        filled()
    }

    /// `"name": value` for every leaf of `c`, groups flattened.
    fn leaves(c: &dyn Counters, out: &mut Vec<String>) {
        c.visit(&mut |name, node| match node {
            Node::Leaf(v) => out.push(format!("\"{name}\": {v}")),
            Node::Array(xs) => out.push(format!("\"{name}\": {xs:?}")),
            Node::Group(g) => leaves(g, out),
        });
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let stats = full_stats();
        let v = parse_json(&stats_to_json(&stats)).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);
    }

    #[test]
    fn every_leaf_is_emitted_exactly_once() {
        let stats = full_stats();
        let text = stats_to_json(&stats);
        let mut pairs = Vec::new();
        leaves(&stats, &mut pairs);
        assert!(!pairs.is_empty());
        for pair in &pairs {
            let hits = text
                .match_indices(pair.as_str())
                .filter(|(at, _)| {
                    !text[at + pair.len()..].starts_with(|c: char| c.is_ascii_digit())
                })
                .count();
            assert_eq!(hits, 1, "{pair} in {text}");
        }
    }

    /// The `rtb` block must stay out of non-RTB documents (existing
    /// golden digests hash exactly the old byte stream) yet round-trip
    /// when present.
    #[test]
    fn rtb_block_is_conditional_and_defaulted() {
        let mut stats = full_stats();
        stats.rtb = RtbStats::default();
        let text = stats_to_json(&stats);
        assert!(
            !text.contains("\"rtb\""),
            "default RTB stats must not serialize"
        );
        let v = parse_json(&text).expect("parse");
        assert_eq!(stats_from_json(&v).expect("decode"), stats);

        let with_rtb = full_stats();
        assert!(stats_to_json(&with_rtb).contains("\"rtb\""));
    }

    #[test]
    fn limit_round_trip_is_exact() {
        let limit: LimitStudy = filled();
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

        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/scratch/state-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        write_job(&dir, &rec).expect("write");
        assert_eq!(load_job(&dir, 3), Some(rec));
        // A record stored under the wrong index is not trusted.
        std::fs::rename(job_path(&dir, 3), job_path(&dir, 4)).expect("rename");
        assert_eq!(load_job(&dir, 4), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

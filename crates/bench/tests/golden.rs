//! Golden-state equivalence suite.
//!
//! Pins the simulator bit-identical to the final states recorded with
//! the pre-columnar (array-of-structs) machine: every cell of seven
//! workloads × {base, magic:ME-SB:vl1, ir_early, ir_late, limit} must
//! reproduce the exact FNV-1a-64 digest of its serialized run. A digest
//! mismatch means the structure-of-arrays refactor changed observable
//! semantics somewhere — a counter, a stat, a limit-study number — and
//! is a bug unless the change is intentional (then regenerate with
//! `cargo run -p vpir-bench --example golden_gen`).

use vpir_bench::golden::{golden_digest, GOLDEN_LABELS};
use vpir_jsonlite::parse_json;
use vpir_workloads::Bench;

const FIXTURE: &str = include_str!("fixtures/golden_digests.json");

/// Loads the recorded digests as (bench, config, digest) triples.
fn fixture_cells() -> Vec<(String, String, u64)> {
    let doc = parse_json(FIXTURE).expect("fixture parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("vpir-golden-v1"),
        "fixture schema"
    );
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .expect("fixture has cells");
    cells
        .iter()
        .map(|c| {
            let bench = c
                .get("bench")
                .and_then(|v| v.as_str())
                .expect("bench")
                .to_string();
            let config = c
                .get("config")
                .and_then(|v| v.as_str())
                .expect("config")
                .to_string();
            let digest = c.get("digest").and_then(|v| v.as_str()).expect("digest");
            let digest = u64::from_str_radix(digest, 16).expect("hex digest");
            (bench, config, digest)
        })
        .collect()
}

#[test]
fn fixture_covers_every_cell_exactly_once() {
    let cells = fixture_cells();
    assert_eq!(cells.len(), Bench::ALL.len() * GOLDEN_LABELS.len());
    for bench in Bench::ALL {
        for label in GOLDEN_LABELS {
            let n = cells
                .iter()
                .filter(|(b, c, _)| b == bench.name() && c == label)
                .count();
            assert_eq!(n, 1, "cell {}/{} recorded once", bench.name(), label);
        }
    }
}

/// One test per workload so a mismatch names the benchmark and the
/// suite parallelizes across the test harness's threads.
macro_rules! golden_bench {
    ($test:ident, $bench:expr) => {
        #[test]
        fn $test() {
            let cells = fixture_cells();
            for label in GOLDEN_LABELS {
                let expected = cells
                    .iter()
                    .find(|(b, c, _)| b == $bench.name() && c == label)
                    .map(|(_, _, d)| *d)
                    .expect("cell recorded");
                let got = golden_digest($bench, label);
                assert_eq!(
                    got,
                    expected,
                    "golden digest mismatch for {}/{}: got {:016x}, recorded {:016x}",
                    $bench.name(),
                    label,
                    got,
                    expected
                );
            }
        }
    };
}

golden_bench!(golden_go, Bench::Go);
golden_bench!(golden_m88ksim, Bench::M88ksim);
golden_bench!(golden_ijpeg, Bench::Ijpeg);
golden_bench!(golden_perl, Bench::Perl);
golden_bench!(golden_vortex, Bench::Vortex);
golden_bench!(golden_gcc, Bench::Gcc);
golden_bench!(golden_compress, Bench::Compress);

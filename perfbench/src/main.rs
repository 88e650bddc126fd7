//! `vpir-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a detail line (sample counts, checks, build facts) and then,
//! as the last line, the result object. Exits non-zero without a
//! result line when the workload cannot run at all.

use vpir_perfbench::alloc::Counting;
use vpir_perfbench::{run, Args};

#[global_allocator]
static ALLOC: Counting = Counting;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpir-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for c in outcome.checks.iter().filter(|c| !c.ok) {
                eprintln!("vpir-perfbench: check failed: {}: {}", c.name, c.detail);
            }
            println!(
                "{}",
                outcome.detail_line(&args.workload, args.seed, args.seconds, args.trace)
            );
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("vpir-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

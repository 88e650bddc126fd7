//! Microbenchmarks of the simulator's building blocks.
//!
//! Run with `cargo bench -p vpir-bench --features bench`.

use vpir_bench::microbench::{black_box, group};
use vpir_branch::{DirectionPredictor, Gshare};
use vpir_core::{CoreConfig, RunLimits, Simulator};
use vpir_isa::{asm, Machine};
use vpir_mem::{Cache, CacheConfig};
use vpir_predict::{MagicPredictor, ValuePredictor, VptConfig};
use vpir_reuse::{OperandView, RbConfig, RbInsert, ReuseBuffer};
use vpir_workloads::{Bench, Scale};

fn bench_cache() {
    let mut cache = Cache::new(CacheConfig::table1_data());
    let mut t = 0u64;
    group("cache")
        .throughput(1024)
        .bench("access_mixed_1k", || {
            for i in 0..1024u64 {
                t += 1;
                let addr = (i * 2654435761) & 0x3_ffff;
                black_box(cache.access(t, addr, i % 4 == 0));
            }
        });
}

fn bench_gshare() {
    let mut bp = Gshare::table1();
    group("gshare")
        .throughput(1024)
        .bench("predict_update_1k", || {
            for i in 0..1024u64 {
                let pc = 0x1000 + (i % 64) * 4;
                let (taken, token) = bp.predict(pc);
                bp.update(pc, i % 3 == 0, token);
                if taken != (i % 3 == 0) {
                    bp.recover(token, i % 3 == 0);
                }
            }
        });
}

fn bench_vpt() {
    let mut vp = MagicPredictor::new(VptConfig::table1());
    group("vpt")
        .throughput(1024)
        .bench("magic_predict_train_1k", || {
            for i in 0..1024u64 {
                let pc = 0x1000 + (i % 128) * 4;
                let v = i % 5;
                black_box(vp.predict(pc, Some(v)));
                vp.train(pc, v);
            }
        });
}

fn bench_rb() {
    let mut rb = ReuseBuffer::new(RbConfig::table1());
    group("reuse_buffer")
        .throughput(1024)
        .bench("insert_lookup_1k", || {
            for i in 0..1024u64 {
                let pc = 0x1000 + (i % 128) * 4;
                let a = i % 4;
                rb.insert(RbInsert {
                    pc,
                    op: vpir_isa::Op::Add,
                    srcs: [
                        Some((vpir_isa::Reg::int(2), a)),
                        Some((vpir_isa::Reg::int(3), 7)),
                    ],
                    result: Some(a + 7),
                    ..RbInsert::default()
                });
                let view = move |r: vpir_isa::Reg| {
                    if r == vpir_isa::Reg::int(2) {
                        OperandView::settled(a)
                    } else {
                        OperandView::settled(7)
                    }
                };
                black_box(rb.lookup(pc, vpir_isa::Op::Add, &view, &[]));
            }
        });
}

fn bench_functional() {
    let prog = asm::assemble(
        "       li   r1, 1000
 loop:  andi r2, r1, 15
        add  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt",
    )
    .expect("assembles");
    group("functional_machine")
        .throughput(4002)
        .bench("interp_4k_insts", || {
            let mut m = Machine::new(&prog);
            m.run(10_000).expect("runs");
            black_box(m.icount)
        });
}

fn bench_pipeline() {
    let prog = Bench::Ijpeg.program(Scale::of(1));
    group("pipeline").bench("base_50k_cycles", || {
        let mut sim = Simulator::new(&prog, CoreConfig::table1());
        sim.run(RunLimits::cycles(50_000));
        black_box(sim.stats().committed)
    });
}

/// Steady-state simulation throughput in cycles/sec — the figure the
/// zero-allocation cycle loop (DESIGN.md §8) optimises. One entry per
/// mechanism so a regression in any scratch-buffer or pool path shows
/// up against the committed `BENCH_matrix.json` baseline.
fn bench_cycle_rate() {
    use vpir_core::{IrConfig, VpConfig};
    let prog = Bench::Ijpeg.program(Scale::of(1));
    let mut g = group("cycle_rate");
    let run = |cfg: CoreConfig| {
        let mut sim = Simulator::new(&prog, cfg);
        sim.run(RunLimits::cycles(100_000));
        sim.cycle()
    };
    g.bench_cycle_rate("base", || run(CoreConfig::table1()));
    g.bench_cycle_rate("vp_magic", || run(CoreConfig::with_vp(VpConfig::magic())));
    g.bench_cycle_rate("ir", || run(CoreConfig::with_ir(IrConfig::table1())));
}

fn main() {
    bench_cache();
    bench_gshare();
    bench_vpt();
    bench_rb();
    bench_functional();
    bench_pipeline();
    bench_cycle_rate();
}

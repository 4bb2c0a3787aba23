//! Release-mode host-speed ratio gate: the batched fast path must beat
//! the scalar per-event oracle by at least 3x on the single-predicate
//! scan microbench — a selection plan lowered to a one-stage compiled
//! program, the shape where the closed-form line accounting applies in
//! full.
//!
//! The assertion is a *ratio* measured within one process — both sides
//! see the same machine, load, and frequency — so it is far more stable
//! than any absolute wall-clock bound. Still, it is host timing, so the
//! test is `#[ignore]`d by default and CI runs it explicitly in release
//! (`cargo test --release -p popt-bench --test ratio_gate -- --ignored`);
//! a debug-mode run would gate nothing but noise.

use std::time::Instant;

use popt_bench::figures::fig14::scaled_cpu;
use popt_bench::figures::workload::xorshift64;
use popt_core::plan::{Expr, PlanBuilder};
use popt_cpu::SimCpu;
use popt_storage::{AddressSpace, ColumnData, Table};

const ROWS: usize = 1 << 21;
const REPEATS: usize = 5;
const MIN_RATIO: f64 = 3.0;

#[test]
#[ignore = "host-timing gate; CI runs it in release via -- --ignored"]
fn batched_scan_is_at_least_3x_scalar_oracle() {
    let mut state = 0x5EEDu64;
    let val: Vec<i32> = (0..ROWS)
        .map(|_| (xorshift64(&mut state) % 1000) as i32)
        .collect();
    let mut space = AddressSpace::new();
    let mut table = Table::new("t");
    table.add_column("val", ColumnData::I32(val), &mut space);
    let mut compiled = PlanBuilder::scan(&table)
        .filter(Expr::col("val").less_than(500))
        .build()
        .compile()
        .expect("scan compiles");

    let mut best = |oracle: bool| {
        compiled.set_scalar_oracle(oracle);
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..REPEATS {
            let mut cpu = SimCpu::new(scaled_cpu());
            let t0 = Instant::now();
            let stats = compiled.run_range(&mut cpu, 0, ROWS);
            best = best.min(t0.elapsed().as_secs_f64());
            out = Some((stats, cpu.counters()));
        }
        (best, out.expect("at least one repeat"))
    };
    let (fast_s, fast_out) = best(false);
    let (slow_s, slow_out) = best(true);

    assert_eq!(fast_out, slow_out, "fast path diverged from the oracle");
    let ratio = slow_s / fast_s;
    println!(
        "batched {:.2} ns/row, scalar oracle {:.2} ns/row, ratio {ratio:.2}x (gate {MIN_RATIO}x)",
        fast_s * 1e9 / ROWS as f64,
        slow_s * 1e9 / ROWS as f64,
    );
    assert!(
        ratio >= MIN_RATIO,
        "batched fast path is only {ratio:.2}x the scalar oracle (need >= {MIN_RATIO}x)"
    );
}

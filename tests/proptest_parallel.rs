//! Property: morsel-driven parallel execution is observationally
//! equivalent to the single-core executor — identical `qualified` and
//! `sum` for random workloads, worker counts, and morsel sizes, with
//! and without progressive reoptimization.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI pins it
//! so the suite's runtime stays bounded).

use proptest::prelude::*;

use popt::core::exec::CompiledProgram;
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{Expr, PlanBuilder};
use popt::core::progressive::ProgressiveConfig;
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with four value columns, a co-clustered and a random FK, plus a
/// payload dimension — the same random-workload shape as the serial
/// reorder proptest.
fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 4;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..4 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk_seq",
        ColumnData::I32((0..ROWS).map(|i| (i / 4) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "fk_rand",
        ColumnData::I32(
            (0..ROWS)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut dim_space,
    );
    (fact, dim)
}

/// Random mixed pipeline: bit `k` of `kinds` picks select vs. join for
/// stage `k`; joins alternate between the co-clustered and random FK.
fn build<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    kinds: u64,
    lit: i64,
) -> CompiledProgram<'t> {
    let mut builder = PlanBuilder::scan(fact);
    for k in 0..stages {
        builder = if (kinds >> k) & 1 == 1 {
            let fk = if k % 2 == 0 { "fk_seq" } else { "fk_rand" };
            builder.join(dim, fk, Expr::col("payload").less_than(lit))
        } else {
            builder.filter(Expr::col(format!("val{k}")).less_than(lit))
        };
    }
    builder
        .aggregate("val0")
        .build()
        .compile()
        .expect("program lowers")
}

proptest! {
    /// Parallel pipeline execution: identical results for every worker
    /// count and morsel size, baseline and progressive.
    #[test]
    fn parallel_pipeline_is_exact(
        stages in 2usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let serial = build(&fact, &dim, stages, kinds, lit);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = serial.run_range(&mut cpu, 0, ROWS);

        for progressive in [false, true] {
            let mut pipeline = build(&fact, &dim, stages, kinds, lit);
            let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
            let config = ProgressiveConfig { reop_interval: 2, ..Default::default() };
            let report = run_parallel_program(
                &mut pipeline,
                &(0..stages).collect::<Vec<_>>(),
                MorselConfig::new(morsel_tuples),
                &mut pool,
                progressive.then_some(&config),
            ).expect("parallel run succeeds");
            prop_assert_eq!(
                report.qualified, expect.qualified,
                "workers={} morsel={} progressive={}", workers, morsel_tuples, progressive
            );
            prop_assert_eq!(report.sum, expect.sum);
            // The caller's pipeline ends in the published order.
            prop_assert_eq!(pipeline.order(), &report.final_order[..]);
        }
    }

    /// Parallel multi-selection scans: identical to the serial compiled
    /// scan for every worker count, morsel size, and evaluation order.
    #[test]
    fn parallel_scan_is_exact(
        lit1 in 0i64..1000,
        lit2 in 0i64..1000,
        lit3 in 0i64..1000,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
        swap in any::<bool>(),
    ) {
        let mut state = seed | 1;
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        for (c, _) in [lit1, lit2, lit3].iter().enumerate() {
            let data: Vec<i32> = (0..ROWS)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect();
            t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
        }
        let program = PlanBuilder::scan(&t)
            .filter(Expr::col("c0").less_than(lit1))
            .filter(Expr::col("c1").less_than(lit2))
            .filter(Expr::col("c2").less_than(lit3))
            .aggregate("c0")
            .build()
            .compile()
            .expect("compiles");
        let peo: Vec<usize> = if swap { vec![2, 0, 1] } else { vec![0, 1, 2] };

        let mut compiled = program.clone();
        compiled.reorder(&peo).expect("valid order");
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = compiled.run_range(&mut cpu, 0, ROWS);

        for progressive in [false, true] {
            let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
            let config = ProgressiveConfig { reop_interval: 2, ..Default::default() };
            let report = run_parallel_program(
                &mut program.clone(),
                &peo,
                MorselConfig::new(morsel_tuples),
                &mut pool,
                progressive.then_some(&config),
            ).expect("parallel run succeeds");
            prop_assert_eq!(report.qualified, expect.qualified);
            prop_assert_eq!(report.sum, expect.sum);
        }
    }
}

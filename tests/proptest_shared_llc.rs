//! Property: the shared-LLC socket model moves *cycles*, never results.
//! For random mixed pipelines swept across worker counts and morsel
//! sizes, execution on a shared-socket pool is bit-identical to the
//! private-LLC pool and to the serial single-core executor — with and
//! without progressive reoptimization, i.e. regardless of how the
//! contended capacity steers the optimizer's decisions.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::exec::CompiledProgram;
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{Expr, PlanBuilder};
use popt::core::progressive::ProgressiveConfig;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with value columns and a random FK into a dimension big enough
/// to feel the tiny test hierarchy's LLC — so private and shared pools
/// really do simulate different cache behaviour while the property
/// demands identical results.
fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 2;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..3 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk",
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
/// stage `k`.
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
            builder.join(dim, "fk", Expr::col("payload").less_than(lit))
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
    /// Shared-LLC mode on/off × reopt on/off × workers × morsel sizes:
    /// every combination produces the serial executor's exact bits.
    #[test]
    fn contention_never_moves_results(
        stages in 2usize..4,
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

        for mode in [LlcMode::Private, LlcMode::Shared] {
            for progressive in [false, true] {
                let mut pipeline = build(&fact, &dim, stages, kinds, lit);
                let mut pool = CpuPool::with_mode(CpuConfig::tiny_test(), workers, mode);
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
                    "mode={:?} workers={} morsel={} progressive={}",
                    mode, workers, morsel_tuples, progressive
                );
                prop_assert_eq!(report.sum, expect.sum);
                // The partition actually engaged: a multi-worker shared
                // socket leaves every core less than the full LLC.
                if mode == LlcMode::Shared && workers > 1 {
                    let full = pool.config().llc().capacity_bytes;
                    prop_assert!(pool.min_effective_llc_bytes() < full);
                }
            }
        }
    }
}

//! Property: the NUMA socket topology moves *cycles*, never results.
//!
//! Two guarantees, for random mixed pipelines:
//!
//! * sockets × workers × LLC mode × reopt on/off — execution on a
//!   multi-socket pool (with a placement that homes the probed dimension
//!   on one socket, so remote surcharges really fire) is bit-identical
//!   to the serial single-core executor;
//! * a 1-socket NUMA pool is the flat pre-NUMA pool *exactly*: the whole
//!   [`ParallelReport`] — per-worker cycles included — matches the
//!   `CpuPool::with_mode` run bit-for-bit. (Cycle equality is asserted
//!   without reoptimization: with trials on a multi-worker pool, *which*
//!   rounds run is elastic by design. Result equality is asserted in the
//!   first property for both.)
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::exec::CompiledProgram;
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{Expr, PlanBuilder};
use popt::core::progressive::ProgressiveConfig;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with value columns and a random FK into a dimension big enough
/// to feel the tiny test hierarchy's LLC, so the placement's remote
/// surcharge prices real memory-served probes while the property demands
/// identical results.
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
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut space,
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
    /// Sockets × LLC mode × reopt on/off × workers × morsel sizes: every
    /// combination produces the serial executor's exact bits, even with
    /// a placement that homes the whole probed dimension on the last
    /// socket (maximally remote for every other socket's workers).
    #[test]
    fn numa_topology_never_moves_results(
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

        for sockets in [1usize, 2] {
            if sockets > workers {
                continue;
            }
            for mode in [LlcMode::Private, LlcMode::Shared] {
                for progressive in [false, true] {
                    let mut pipeline = build(&fact, &dim, stages, kinds, lit);
                    let mut pool =
                        CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
                    if sockets > 1 {
                        let mut placement = NumaPlacement::interleaved(sockets);
                        let payload = dim.column("payload").expect("dim payload");
                        placement.register(
                            payload.base_addr(),
                            (dim.rows() * 4) as u64,
                            sockets - 1,
                        );
                        pool.set_placement(&placement);
                    }
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
                        "sockets={} mode={:?} workers={} morsel={} progressive={}",
                        sockets, mode, workers, morsel_tuples, progressive
                    );
                    prop_assert_eq!(report.sum, expect.sum);
                    // One published order per socket, all of them valid
                    // permutations the run actually executed under.
                    prop_assert_eq!(report.socket_orders.len(), sockets);
                    if sockets == 1 {
                        prop_assert_eq!(
                            report.remote_access_pct, 0.0,
                            "a single socket has nothing remote"
                        );
                    }
                }
            }
        }
    }

    /// A 1-socket NUMA pool is the flat pre-NUMA pool bit-for-bit: same
    /// results, same per-worker cycles, same counters — the whole report
    /// matches. (Static order: cycle determinism across repeated
    /// multi-worker runs holds without trial scheduling.)
    #[test]
    fn one_socket_pool_is_the_flat_pool_exactly(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        for mode in [LlcMode::Private, LlcMode::Shared] {
            let order: Vec<usize> = (0..stages).collect();
            let mut flat_pipeline = build(&fact, &dim, stages, kinds, lit);
            let mut flat_pool = CpuPool::with_mode(CpuConfig::tiny_test(), workers, mode);
            let flat = run_parallel_program(
                &mut flat_pipeline,
                &order,
                MorselConfig::new(morsel_tuples),
                &mut flat_pool,
                None,
            ).expect("flat run succeeds");

            let mut numa_pipeline = build(&fact, &dim, stages, kinds, lit);
            let mut numa_pool = CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, 1);
            let numa = run_parallel_program(
                &mut numa_pipeline,
                &order,
                MorselConfig::new(morsel_tuples),
                &mut numa_pool,
                None,
            ).expect("1-socket run succeeds");

            prop_assert_eq!(
                &numa, &flat,
                "mode={:?} workers={} morsel={}",
                mode, workers, morsel_tuples
            );
        }
    }
}

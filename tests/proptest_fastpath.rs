//! Property: the batched executor fast paths are **bit-identical** to
//! the scalar per-event oracle (`run_range_scalar`, reachable via
//! `set_scalar_oracle`) — identical [`VectorStats`] *and* identical full
//! PMU counter state for random workloads and vector boundaries, and an
//! identical full [`ParallelReport`] across socket counts, worker
//! counts, LLC modes, and progressive reoptimization.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI runs
//! this suite as a blocking smoke with `PROPTEST_CASES=64`).

use proptest::prelude::*;

use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt::core::progressive::ProgressiveConfig;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with four value columns, a co-clustered and a random FK, plus a
/// payload dimension — the random-workload shape of the other parallel
/// proptests.
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

/// Random mixed select/join plan: bit `k` of `kinds` picks the stage
/// kind; joins alternate the co-clustered and random FK.
fn plan<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    kinds: u64,
    lit: i64,
) -> LogicalPlan<'t> {
    let mut builder = PlanBuilder::scan(fact);
    let mut join_ordinal = 0usize;
    for k in 0..stages {
        if (kinds >> k) & 1 == 1 {
            let fk = if join_ordinal % 2 == 0 {
                "fk_seq"
            } else {
                "fk_rand"
            };
            join_ordinal += 1;
            builder = builder.join(dim, fk, Expr::col("payload").less_than(lit));
        } else {
            builder =
                builder.filter_costed(Expr::col(format!("val{k}")).less_than(lit), k as u64 * 10);
        }
    }
    builder.aggregate("val0").build()
}

proptest! {
    /// Serial pipeline programs: batched vs scalar oracle over random
    /// vector boundaries — identical stats and identical full counters
    /// after every vector.
    #[test]
    fn program_fast_path_matches_oracle(
        stages in 1usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        vector in 128usize..1200,
    ) {
        let (fact, dim) = tables(seed);
        let p = plan(&fact, &dim, stages, kinds, lit);
        let mut fast = p.compile().expect("plan lowers");
        let mut oracle = fast.clone();
        oracle.set_scalar_oracle(true);
        let mut cpu_f = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_o = SimCpu::new(CpuConfig::tiny_test());
        // Also exercise re-chaining: reverse the order mid-run.
        let order: Vec<usize> = (0..stages).rev().collect();
        let mut start = 0usize;
        let mut flipped = false;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            if !flipped && start >= ROWS / 2 {
                fast.reorder(&order).expect("reorder");
                oracle.reorder(&order).expect("reorder");
                flipped = true;
            }
            let sf = fast.run_range(&mut cpu_f, start, end);
            let so = oracle.run_range(&mut cpu_o, start, end);
            prop_assert_eq!(&sf, &so, "vector {}..{}", start, end);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters());
            start = end;
        }
    }

    /// Serial multi-selection scans, lowered to compiled programs
    /// (including the one-selection, no-aggregate bulk path): batched vs
    /// scalar oracle.
    #[test]
    fn scan_fast_path_matches_oracle(
        preds in 1usize..4,
        lit in 0i64..1000,
        seed in any::<u64>(),
        vector in 128usize..1200,
        with_agg in any::<bool>(),
    ) {
        let mut state = seed | 1;
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        for c in 0..3 {
            let data: Vec<i32> = (0..ROWS)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect();
            t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
        }
        let mut builder = (0..preds).fold(PlanBuilder::scan(&t), |b, c| {
            b.filter(Expr::col(format!("c{c}")).less_than(lit + c as i64 * 37))
        });
        if with_agg {
            builder = builder.aggregate("c0");
        }
        let mut fast = builder.build().compile().expect("compiles");
        let mut cpu_f = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_o = SimCpu::new(CpuConfig::tiny_test());
        let mut start = 0usize;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            fast.set_scalar_oracle(false);
            let sf = fast.run_range(&mut cpu_f, start, end);
            fast.set_scalar_oracle(true);
            let so = fast.run_range(&mut cpu_o, start, end);
            prop_assert_eq!(&sf, &so, "vector {}..{} preds {}", start, end, preds);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters());
            start = end;
        }
    }

    /// Morsel-parallel execution: with reoptimization off the batched
    /// fast path and the scalar oracle produce the **same full report**
    /// — per-worker cycles, wall cycles, counters, final orders —
    /// across socket counts, worker counts, and LLC modes. With
    /// progressive reoptimization on, trial leasing is resolved by
    /// host thread arrival order, so two *runs* (of either path) may
    /// legitimately take different switch sequences; there the oracle
    /// comparison pins the ground truth (qualified, sum, morsels), the
    /// same contract the other parallel proptests use.
    #[test]
    fn parallel_report_matches_oracle(
        stages in 1usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..7,
        sockets in 1usize..3,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let order: Vec<usize> = (0..stages).collect();
        let sockets = sockets.min(workers); // topology requires sockets <= cores
        for mode in [LlcMode::Private, LlcMode::Shared] {
            for progressive in [false, true] {
                let config = ProgressiveConfig { reop_interval: 2, ..Default::default() };
                let run = |oracle: bool| {
                    let p = plan(&fact, &dim, stages, kinds, lit);
                    let mut program = p.compile().expect("plan lowers");
                    program.set_scalar_oracle(oracle);
                    let mut pool =
                        CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
                    run_parallel_program(
                        &mut program,
                        &order,
                        MorselConfig::new(morsel_tuples),
                        &mut pool,
                        progressive.then_some(&config),
                    )
                    .expect("parallel run succeeds")
                };
                let fast = run(false);
                let oracle = run(true);
                if progressive {
                    prop_assert_eq!(fast.qualified, oracle.qualified);
                    prop_assert_eq!(fast.sum, oracle.sum);
                    prop_assert_eq!(fast.morsels, oracle.morsels);
                } else {
                    prop_assert_eq!(
                        &fast, &oracle,
                        "mode={:?} sockets={} workers={} morsel={}",
                        mode, sockets, workers, morsel_tuples
                    );
                }
            }
        }
    }
}

//! Properties of the query frontend.
//!
//! 1. A [`CompiledProgram`] lowered from a random logical plan of
//!    selections, joins and an aggregate agrees with an independent
//!    host-side oracle: plain Rust evaluation of the same stages gives
//!    the answer and the per-stage survivor counts, and the simulated
//!    counters must satisfy the Section 2.2 identities and the exact
//!    instruction charge against them — solo in any evaluation order,
//!    under progressive reoptimization, and morsel-parallel across
//!    worker counts, morsel sizes, and shared/private LLC modes.
//!    (Batched-vs-scalar event equality is `tests/proptest_fastpath.rs`.)
//! 2. The static optimizer passes commute semantically: *any* order of
//!    the four passes compiles to a program with the same answer as the
//!    unoptimized plan (lowering normalizes on its own).
//! 3. Filter pushdown never increases any node's estimated input
//!    cardinality.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::exec::program::{CompiledProgram, InstrCosts};
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::passes::{
    constant_folding, filter_pushdown, join_condition_extraction, projection_pruning, Pass,
};
use popt::core::plan::{Expr, LogicalPlan, PassRegistry, PlanBuilder};
use popt::core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with four value columns, a co-clustered and a random FK, plus a
/// payload dimension — the random-workload shape of the parallel
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

/// Random mixed plan through the builder: bit `k` of `kinds` picks
/// select vs. join for stage `k`; joins alternate FKs, selections carry
/// per-stage UDF cost.
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

/// What plain Rust evaluation of [`plan`]'s stages in `order` says:
/// the answer, and per evaluation position how many tuples reached it
/// and how many survived it.
struct HostRun {
    qualified: u64,
    sum: i64,
    reached: Vec<u64>,
    survived: Vec<u64>,
}

/// Per plan stage: `Some(fk column)` for a join, `None` for the
/// selection over `val{k}` — the same decoding as [`plan`].
fn stage_kinds(stages: usize, kinds: u64) -> Vec<Option<&'static str>> {
    let mut join_ordinal = 0usize;
    (0..stages)
        .map(|k| {
            ((kinds >> k) & 1 == 1).then(|| {
                join_ordinal += 1;
                if join_ordinal % 2 == 1 {
                    "fk_seq"
                } else {
                    "fk_rand"
                }
            })
        })
        .collect()
}

fn host_run(
    fact: &Table,
    dim: &Table,
    stages: &[Option<&str>],
    lit: i64,
    order: &[usize],
) -> HostRun {
    let col = |t: &Table, name: &str| t.column(name).unwrap().data().as_i32().unwrap().to_vec();
    let payload = col(dim, "payload");
    let inputs: Vec<Vec<i32>> = stages
        .iter()
        .enumerate()
        .map(|(k, kind)| match kind {
            Some(fk) => col(fact, fk)
                .iter()
                .map(|&key| payload[key as usize])
                .collect(),
            None => col(fact, &format!("val{k}")),
        })
        .collect();
    let agg = col(fact, "val0");
    let mut run = HostRun {
        qualified: 0,
        sum: 0,
        reached: vec![0; order.len()],
        survived: vec![0; order.len()],
    };
    for i in 0..fact.rows() {
        let mut pass = true;
        for (pos, &j) in order.iter().enumerate() {
            run.reached[pos] += 1;
            if i64::from(inputs[j][i]) >= lit {
                pass = false;
                break;
            }
            run.survived[pos] += 1;
        }
        if pass {
            run.qualified += 1;
            run.sum += i64::from(agg[i]);
        }
    }
    run
}

fn compile<'t>(plan: &LogicalPlan<'t>) -> CompiledProgram<'t> {
    plan.compile().expect("plan lowers")
}

proptest! {
    /// The compiled program agrees with the host oracle: the answer,
    /// the counter identities, and the exact instruction charge — solo
    /// in a random evaluation order, progressive, and parallel under
    /// both LLC modes.
    #[test]
    fn compiled_program_matches_the_host_oracle(
        stages in 2usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        rotation in 0usize..4,
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
        vector_tuples in 128usize..1500,
        reop_interval in 2usize..6,
    ) {
        let (fact, dim) = tables(seed);
        let logical = plan(&fact, &dim, stages, kinds, lit);
        let kinds_per_stage = stage_kinds(stages, kinds);
        let identity: Vec<usize> = (0..stages).collect();
        let mut order = identity.clone();
        order.rotate_left(rotation % stages);
        let host = host_run(&fact, &dim, &kinds_per_stage, lit, &order);

        // Solo, in the rotated order.
        let mut program = compile(&logical);
        program.reorder(&order).expect("a permutation");
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = program.run_range(&mut cpu, 0, ROWS);
        let c = &stats.counters;
        let n = ROWS as u64;
        prop_assert_eq!(stats.qualified, host.qualified);
        prop_assert_eq!(stats.sum, host.sum);
        prop_assert_eq!(c.branches, c.branches_taken + c.branches_not_taken);
        prop_assert_eq!(stats.qualified, 2 * n - c.branches_taken);
        prop_assert_eq!(c.branches_not_taken, host.survived.iter().sum::<u64>());
        let costs = InstrCosts::default();
        let stage_instructions = |j: usize| {
            costs.per_eval + if kinds_per_stage[j].is_some() { 6 } else { j as u64 * 10 }
        };
        let evals: u64 = order
            .iter()
            .zip(&host.reached)
            .map(|(&j, &reached)| reached * stage_instructions(j))
            .sum();
        prop_assert_eq!(
            c.instructions,
            n * costs.loop_overhead + evals + host.qualified * costs.per_agg_column
        );

        // Progressive, from the identity order.
        let config = ProgressiveConfig { reop_interval, ..Default::default() };
        let vectors = VectorConfig { vector_tuples, max_vectors: None };
        let mut program = compile(&logical);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let report =
            run_progressive_program(&mut program, &identity, vectors, &mut cpu, &config)
                .expect("progressive program runs");
        prop_assert_eq!((report.qualified, report.sum), (host.qualified, host.sum));
        prop_assert_eq!(program.order(), &report.final_peo[..]);

        // Parallel: shared and private sockets, reopt on and off. Wall
        // cycles are not compared — morsel→worker assignment follows
        // host thread timing, so only results are deterministic.
        for mode in [LlcMode::Private, LlcMode::Shared] {
            for progressive in [false, true] {
                let mut program = compile(&logical);
                let mut pool = CpuPool::with_mode(CpuConfig::tiny_test(), workers, mode);
                let p = run_parallel_program(
                    &mut program,
                    &identity,
                    MorselConfig::new(morsel_tuples),
                    &mut pool,
                    progressive.then_some(&config),
                ).expect("parallel program runs");
                prop_assert_eq!(
                    (p.qualified, p.sum), (host.qualified, host.sum),
                    "mode={:?} workers={} progressive={}", mode, workers, progressive
                );
                // The caller's program ends in the published order.
                prop_assert_eq!(program.order(), &p.final_order[..]);
            }
        }
    }

    /// Any order of the four static passes compiles to the same answer
    /// as the unoptimized plan: passes move stages around, lowering
    /// normalizes expressions either way, the result never moves.
    #[test]
    fn any_pass_order_compiles_to_the_same_answer(
        stages in 2usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        extra_lit in 100i64..900,
        seed in any::<u64>(),
        perm in 0usize..24,
    ) {
        let (fact, dim) = tables(seed);
        // The random mixed shape plus material for every pass: a
        // tautology (folding), a join condition smuggling a fact-side
        // conjunct (extraction), filters after joins (pushdown), and a
        // projection of covered columns (pruning).
        let messy = || {
            let mut builder = PlanBuilder::scan(&fact)
                .filter(Expr::lit(1).less_than(2))
                .join(
                    &dim,
                    "fk_rand",
                    Expr::col("payload")
                        .less_than(lit)
                        .and(Expr::col("val0").less_than(extra_lit)),
                );
            let mut join_ordinal = 1usize;
            for k in 1..stages {
                if (kinds >> k) & 1 == 1 {
                    let fk = if join_ordinal % 2 == 0 { "fk_seq" } else { "fk_rand" };
                    join_ordinal += 1;
                    builder = builder.join(&dim, fk, Expr::col("payload").less_than(lit));
                } else {
                    builder = builder
                        .filter_costed(Expr::col(format!("val{k}")).less_than(lit), k as u64 * 10);
                }
            }
            builder.project("val0").project("val1").aggregate("val0").build()
        };

        let reference = compile(&messy());
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = reference.run_range(&mut cpu, 0, ROWS);

        // Lehmer-decode `perm` into one of the 4! pass orders.
        let mut available: Vec<(&'static str, Pass)> = vec![
            ("constant-folding", constant_folding as Pass),
            ("join-condition-extraction", join_condition_extraction as Pass),
            ("filter-pushdown", filter_pushdown as Pass),
            ("projection-pruning", projection_pruning as Pass),
        ];
        let mut registry = PassRegistry::empty();
        let mut code = perm;
        for remaining in (1..=4usize).rev() {
            let pick = code % remaining;
            code /= remaining;
            let (name, pass) = available.remove(pick);
            registry = registry.with(name, pass);
        }

        let optimized = registry.run(messy());
        let program = compile(&optimized);
        prop_assert_eq!(program.len(), reference.len(), "same conjuncts survive");
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let got = program.run_range(&mut cpu, 0, ROWS);
        prop_assert_eq!(got.qualified, expect.qualified, "order {:?}", registry.names());
        prop_assert_eq!(got.sum, expect.sum, "order {:?}", registry.names());
    }

    /// Filter pushdown only ever lowers the estimated input cardinality
    /// at every node position, for any random plan shape.
    #[test]
    fn pushdown_never_raises_input_estimates(
        stages in 2usize..6,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
    ) {
        let (fact, dim) = tables(seed);
        let logical = plan(&fact, &dim, stages.min(4), kinds, lit);
        let before = logical.input_estimates();
        let pushed = filter_pushdown(logical);
        let after = pushed.input_estimates();
        prop_assert_eq!(before.len(), after.len());
        for (k, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(a <= b, "position {}: estimate rose {} -> {}", k, b, a);
        }
    }
}

//! Property-based tests over the core invariants the paper's method
//! relies on, checked across randomized plans, data and selectivities.

use proptest::prelude::*;

use popt::core::exec::CompiledProgram;
use popt::core::plan::{is_valid_peo, order_by_cost_per_tuple, Expr, PlanBuilder};
use popt::cost::estimate::{estimate_counters, PlanGeometry};
use popt::cost::markov::ChainSpec;
use popt::cpu::{CpuConfig, SimCpu};
use popt::solver::bounds::bnt_bounds;
use popt::storage::distribution::{knuth_shuffle_window, max_displacement};
use popt::storage::{AddressSpace, ColumnData, Table};

fn table_with_columns(rows: usize, columns: usize, seed: u64) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    let mut state = seed | 1;
    for c in 0..columns {
        let data: Vec<i32> = (0..rows)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 17) % 1000) as i32
            })
            .collect();
        t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
    }
    t
}

/// One `c{i} < literals[i]` filter per literal, in evaluation order
/// `order`.
fn program<'t>(t: &'t Table, literals: &[i64], order: &[usize]) -> CompiledProgram<'t> {
    let mut program = literals
        .iter()
        .enumerate()
        .fold(PlanBuilder::scan(t), |b, (c, &lit)| {
            b.filter(Expr::col(format!("c{c}")).less_than(lit))
        })
        .build()
        .compile()
        .expect("non-empty plan");
    program.reorder(order).expect("valid order");
    program
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `qualifying = 2·n − bT` and `bT + bNT = branches` hold for every
    /// plan, PEO, and data set (Section 2.2's counter identities).
    #[test]
    fn counter_identities_hold(
        lit1 in 0i64..1000,
        lit2 in 0i64..1000,
        lit3 in 0i64..1000,
        seed in any::<u64>(),
        swap in any::<bool>(),
    ) {
        let rows = 2048usize;
        let t = table_with_columns(rows, 3, seed);
        let peo = if swap { vec![2, 0, 1] } else { vec![0, 1, 2] };
        let compiled = program(&t, &[lit1, lit2, lit3], &peo);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let c = &stats.counters;
        prop_assert_eq!(c.branches, c.branches_taken + c.branches_not_taken);
        prop_assert_eq!(stats.derived_output(), stats.qualified);
        prop_assert!(c.mispredictions() <= c.branches);
    }

    /// Query results are invariant under any predicate evaluation order.
    #[test]
    fn results_are_peo_invariant(
        lit1 in 100i64..900,
        lit2 in 100i64..900,
        seed in any::<u64>(),
    ) {
        let rows = 2048usize;
        let t = table_with_columns(rows, 2, seed);
        let mut results = Vec::new();
        for peo in [[0usize, 1], [1, 0]] {
            let compiled = program(&t, &[lit1, lit2], &peo);
            let mut cpu = SimCpu::new(CpuConfig::tiny_test());
            let stats = compiled.run_range(&mut cpu, 0, rows);
            results.push((stats.qualified, stats.counters.branches_not_taken));
        }
        prop_assert_eq!(results[0].0, results[1].0);
    }

    /// The BNT bounds of Section 4.1 always bracket the true survivor
    /// vector measured on real executions.
    #[test]
    fn bnt_bounds_bracket_truth(
        lit1 in 50i64..950,
        lit2 in 50i64..950,
        lit3 in 50i64..950,
        seed in any::<u64>(),
    ) {
        let rows = 2048usize;
        let t = table_with_columns(rows, 3, seed);
        let literals = [lit1, lit2, lit3];
        let compiled = program(&t, &literals, &[0, 1, 2]);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let sampled = stats.sampled_counters();
        let bounds = bnt_bounds(3, sampled.n_input, sampled.n_output, sampled.bnt);

        // True survivors via exact host-side evaluation.
        let cols: Vec<&[i32]> = (0..3)
            .map(|c| t.column(&format!("c{c}")).unwrap().data().as_i32().unwrap())
            .collect();
        let mut survivors = vec![0.0f64; 3];
        for i in 0..rows {
            let mut alive = true;
            for (j, col) in cols.iter().enumerate() {
                alive = alive && i64::from(col[i]) < literals[j];
                if alive {
                    survivors[j] += 1.0;
                } else {
                    break;
                }
            }
        }
        prop_assert!(bounds.contains(&survivors), "bounds {bounds:?} vs {survivors:?}");
    }

    /// The Markov stationary distribution is a proper distribution and a
    /// fixed point of the chain, for every state count and selectivity.
    #[test]
    fn markov_stationary_is_fixed_point(
        states in 2u8..10,
        split in 1u8..9,
        p in 0.01f64..0.99,
    ) {
        let not_taken = split.min(states - 1).max(1);
        let spec = ChainSpec { states, not_taken_states: not_taken };
        let pi = spec.stationary(p);
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let via_solve = spec.stationary_linear(p);
        for (a, b) in pi.iter().zip(&via_solve) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Counter model sanity across the survivor space: predicted counters
    /// are finite, non-negative, and BNT equals the survivor sum.
    #[test]
    fn counter_model_is_sane(
        a1 in 0.0f64..1.0,
        a2 in 0.0f64..1.0,
        a3 in 0.0f64..1.0,
    ) {
        let n = 100_000u64;
        // Sort descending to form a monotone survivor vector.
        let mut fr = [a1, a2, a3];
        fr.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let survivors: Vec<f64> = fr.iter().map(|f| f * n as f64).collect();
        let geom = PlanGeometry::uniform_i32(n, 3);
        let est = estimate_counters(&geom, &survivors);
        prop_assert!(est.bnt >= 0.0 && est.bnt.is_finite());
        prop_assert!((est.bnt - survivors.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert!(est.mp_taken >= 0.0 && est.mp_not_taken >= 0.0);
        prop_assert!(est.l3_accesses >= 0.0 && est.l3_accesses.is_finite());
    }

    /// Windowed Knuth shuffling is a permutation with bounded
    /// displacement.
    #[test]
    fn window_shuffle_is_bounded_permutation(
        window in 1usize..256,
        seed in any::<u64>(),
    ) {
        let mut v: Vec<i32> = (0..2048).collect();
        knuth_shuffle_window(&mut v, window, seed);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..2048).collect::<Vec<i32>>());
        prop_assert!(max_displacement(&v) < window.max(1));
    }

    /// For random N-stage pipelines mixing selections and foreign-key
    /// join filters, any permutation of the stages yields the same
    /// qualifying count and aggregate sum, and non-permutations are
    /// rejected.
    #[test]
    fn pipeline_reorder_preserves_results(
        stages in 2usize..5,
        lit in 100i64..900,
        seed in any::<u64>(),
    ) {
        let rows = 2048usize;
        let dim_n = rows / 4;
        let mut space = AddressSpace::new();
        let mut fact = Table::new("fact");
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for c in 0..4 {
            let data: Vec<i32> = (0..rows).map(|_| ((next() >> 17) % 1000) as i32).collect();
            fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
        }
        fact.add_column(
            "fk_seq",
            ColumnData::I32((0..rows).map(|i| (i / 4) as i32).collect()),
            &mut space,
        );
        fact.add_column(
            "fk_rand",
            ColumnData::I32((0..rows).map(|_| (next() % dim_n as u64) as i32).collect()),
            &mut space,
        );
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column(
            "payload",
            ColumnData::I32((0..dim_n).map(|_| (next() % 1000) as i32).collect()),
            &mut dim_space,
        );

        // A random permutation of 0..stages (Fisher–Yates off the seed).
        let mut perm: Vec<usize> = (0..stages).collect();
        for i in (1..stages).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }

        let build = |seed: u64| -> CompiledProgram<'_> {
            let mut builder = PlanBuilder::scan(&fact);
            for k in 0..stages {
                // Bit k of the seed picks the stage kind; joins alternate
                // between the co-clustered and the random foreign key.
                builder = if (seed >> k) & 1 == 1 {
                    let fk = if k % 2 == 0 { "fk_seq" } else { "fk_rand" };
                    builder.join(&dim, fk, Expr::col("payload").less_than(lit))
                } else {
                    builder.filter(Expr::col(format!("val{k}")).less_than(lit))
                };
            }
            builder.aggregate("val0").build().compile().expect("program lowers")
        };

        let identity = build(seed);
        let mut cpu1 = SimCpu::new(CpuConfig::tiny_test());
        let base = identity.run_range(&mut cpu1, 0, rows);

        let mut permuted = build(seed);
        permuted.reorder(&perm).expect("valid permutation");
        let mut cpu2 = SimCpu::new(CpuConfig::tiny_test());
        let got = permuted.run_range(&mut cpu2, 0, rows);

        prop_assert_eq!(got.qualified, base.qualified);
        prop_assert_eq!(got.sum, base.sum);

        // Non-permutations are rejected without touching the program.
        let mut broken = build(seed);
        prop_assert!(broken.reorder(&vec![0; stages]).is_err());
        prop_assert!(broken.reorder(&perm[..stages - 1]).is_err());
        prop_assert!(broken.reorder(&(1..=stages).collect::<Vec<_>>()).is_err());
        prop_assert_eq!(broken.order(), &(0..stages).collect::<Vec<_>>()[..]);
    }

    /// Reordering by cost per tuple yields a valid permutation; with
    /// equal costs it is ascending selectivity, ties broken by plan index.
    #[test]
    fn selectivity_order_is_valid_permutation(
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        s3 in 0.0f64..1.0,
        s4 in 0.0f64..1.0,
        cost in 0.1f64..100.0,
    ) {
        let peo = vec![3usize, 1, 0, 2];
        let sels = vec![s1, s2, s3, s4];
        let ordered = order_by_cost_per_tuple(&peo, &[cost; 4], &sels);
        prop_assert!(is_valid_peo(&ordered, 4), "{:?}", ordered);
        // Selectivity of each plan index, read back through `peo`.
        let sel_of = |idx: usize| sels[peo.iter().position(|&p| p == idx).unwrap()];
        for w in ordered.windows(2) {
            let (a, b) = (sel_of(w[0]), sel_of(w[1]));
            prop_assert!(a < b || (a == b && w[0] < w[1]), "{:?} over {:?}", ordered, sels);
        }
    }
}

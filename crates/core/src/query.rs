//! The paper's workhorse queries as [`PlanBuilder`] presets.
//!
//! TPC-H Q6 in the five-predicate form of Section 5.2 (shipdate window,
//! discount window, quantity cap, 120 possible orders) and the
//! four-predicate Figure 1 variant. Each preset has one filter per
//! predicate, in the order listed, then the revenue aggregate. Lower a
//! preset with [`LogicalPlan::compile`], not after
//! [`LogicalPlan::optimize`]: filter pushdown may reorder the filters,
//! and then an order over the listed predicates would stop indexing the
//! same stages.

use popt_storage::Table;

use crate::plan::{Expr, LogicalPlan, PlanBuilder};

/// Day numbers (since 1992-01-01) of the Q6 shipdate window
/// `[1994-01-01, 1995-01-01)`.
pub const Q6_SHIPDATE_LO: i64 = 731;
/// Exclusive upper day bound of the Q6 shipdate window.
pub const Q6_SHIPDATE_HI: i64 = 1096;
/// Q6 discount window `[0.05, 0.07]` in scaled percent.
pub const Q6_DISCOUNT_LO: i64 = 5;
/// Upper bound of the Q6 discount window.
pub const Q6_DISCOUNT_HI: i64 = 7;
/// Q6 quantity bound (`l_quantity < 24`).
pub const Q6_QUANTITY: i64 = 24;

/// TPC-H Q6 in the paper's five-predicate form over a `lineitem` table:
///
/// ```sql
/// SELECT sum(l_extendedprice * l_discount)
/// FROM lineitem
/// WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
///   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
/// ```
pub fn q6(table: &Table) -> LogicalPlan<'_> {
    PlanBuilder::scan(table)
        .filter(Expr::col("l_shipdate").at_least(Q6_SHIPDATE_LO))
        .filter(Expr::col("l_shipdate").less_than(Q6_SHIPDATE_HI))
        .filter(Expr::col("l_discount").at_least(Q6_DISCOUNT_LO))
        .filter(Expr::col("l_discount").at_most(Q6_DISCOUNT_HI))
        .filter(Expr::col("l_quantity").less_than(Q6_QUANTITY))
        .aggregate("l_extendedprice")
        .aggregate("l_discount")
        .build()
}

/// The four-predicate Q6 variant of Figure 1: a single shipdate bound
/// `l_shipdate <= shipdate_le`, then quantity and the discount window.
pub fn q6_figure1(table: &Table, shipdate_le: i64) -> LogicalPlan<'_> {
    PlanBuilder::scan(table)
        .filter(Expr::col("l_shipdate").at_most(shipdate_le))
        .filter(Expr::col("l_quantity").less_than(Q6_QUANTITY))
        .filter(Expr::col("l_discount").at_least(Q6_DISCOUNT_LO))
        .filter(Expr::col("l_discount").at_most(Q6_DISCOUNT_HI))
        .aggregate("l_extendedprice")
        .aggregate("l_discount")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::plan::all_orders;
    use crate::progressive::{
        run_baseline, run_progressive_program, ProgressiveConfig, ProgressiveReport, VectorConfig,
    };
    use popt_cpu::{CpuConfig, SimCpu};
    use popt_storage::stats;
    use popt_storage::tpch::{generate_lineitem, TpchConfig};

    const VECTORS: VectorConfig = VectorConfig {
        vector_tuples: 8192,
        max_vectors: None,
    };

    fn baseline(t: &Table, vectors: VectorConfig) -> ProgressiveReport {
        let program = q6(t).compile().unwrap();
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        run_baseline(&program, vectors, &mut cpu).unwrap()
    }

    #[test]
    fn q6_runs_and_counts_plausibly() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let report = baseline(&t, VECTORS);
        let n = t.rows() as f64;
        // Independent selectivities: shipdate ~1/7 (365/2526), discount
        // 3/11, quantity 23/50.
        let expected = n * (365.0 / 2526.0) * (3.0 / 11.0) * (23.0 / 50.0);
        let got = report.qualified as f64;
        assert!(
            (got - expected).abs() / expected < 0.25,
            "got {got}, expected ≈ {expected}"
        );
        assert!(report.millis > 0.0);
    }

    #[test]
    fn q6_result_matches_ground_truth_scan() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let report = baseline(&t, VECTORS);
        // Recompute with a plain host-side scan.
        let ship = t.column("l_shipdate").unwrap().data().as_i32().unwrap();
        let disc = t.column("l_discount").unwrap().data().as_i32().unwrap();
        let qty = t.column("l_quantity").unwrap().data().as_i32().unwrap();
        let price = t
            .column("l_extendedprice")
            .unwrap()
            .data()
            .as_i32()
            .unwrap();
        let mut count = 0u64;
        let mut sum = 0i64;
        for i in 0..t.rows() {
            let s = i64::from(ship[i]);
            let d = i64::from(disc[i]);
            let q = i64::from(qty[i]);
            if (Q6_SHIPDATE_LO..Q6_SHIPDATE_HI).contains(&s)
                && (Q6_DISCOUNT_LO..=Q6_DISCOUNT_HI).contains(&d)
                && q < Q6_QUANTITY
            {
                count += 1;
                sum += i64::from(price[i]) * d;
            }
        }
        assert_eq!(report.qualified, count);
        assert_eq!(report.sum, sum);
    }

    #[test]
    fn progressive_run_reports_estimates() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let mut program = q6(&t).compile().unwrap();
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        // Deliberately bad initial order: least selective first.
        let report = run_progressive_program(
            &mut program,
            &[4, 3, 2, 1, 0],
            VectorConfig {
                vector_tuples: 2048,
                max_vectors: None,
            },
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.estimates > 0);
    }

    #[test]
    fn invalid_initial_order_is_rejected() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let mut program = q6(&t).compile().unwrap();
        let err = program.reorder(&[0, 1]).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPeo { .. }));
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        let err = run_progressive_program(
            &mut program,
            &[0, 1],
            VECTORS,
            &mut cpu,
            &ProgressiveConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidPeo { .. }));
    }

    #[test]
    fn vector_cap_limits_work() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let full = baseline(&t, VECTORS);
        let capped = baseline(
            &t,
            VectorConfig {
                max_vectors: Some(1),
                ..VECTORS
            },
        );
        assert!(capped.vectors < full.vectors);
        assert!(capped.cycles < full.cycles);
    }

    #[test]
    fn figure1_plan_has_four_stages() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let ship = t.column("l_shipdate").unwrap();
        let v = stats::quantile(ship.data(), 0.01);
        let program = q6_figure1(&t, v).compile().unwrap();
        assert_eq!(program.len(), 4);
        assert_eq!(all_orders(program.len()).len(), 24);
    }
}

//! Frozen progressive reports for join-free selection plans.
//!
//! TPC-H Q6 and the Figure 1 plan are built with their `PlanBuilder`
//! presets ([`query::q6`], [`query::q6_figure1`]), lowered to one
//! compiled program and driven through [`run_progressive_program`]. The
//! values below were recorded from the dedicated multi-selection scan
//! executor and its scan target before both were folded into the
//! compiled program, so they pin that the preset path reproduces the
//! scan path's every decision and every simulated cycle: three start
//! orders each, at reoptimization intervals 1, 2 and 5.
//!
//! A join-free program has no probe locality to calibrate, so it must
//! not pay estimator fits on its trial vectors — any such fit would move
//! the estimate and optimizer-cycle columns: a Q6 program built filter
//! by filter through the frontend reproduces the same reports.

use popt::core::exec::CompiledProgram;
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt::core::progressive::{
    run_progressive_program, ProgressiveConfig, ProgressiveReport, VectorConfig,
};
use popt::core::query::{
    self, Q6_DISCOUNT_HI, Q6_DISCOUNT_LO, Q6_QUANTITY, Q6_SHIPDATE_HI, Q6_SHIPDATE_LO,
};
use popt::cpu::{CpuConfig, SimCpu};
use popt::storage::tpch::{generate_lineitem, TpchConfig};
use popt::storage::Table;

/// (plan, start order, reop interval, qualified, sum, cycles, estimates,
/// optimizer cycles, final order, switches as `vector:to[r][x]` with
/// `r` = reverted, `x` = exploratory).
type Golden = (
    &'static str,
    &'static [usize],
    usize,
    u64,
    i64,
    u64,
    usize,
    u64,
    &'static [usize],
    &'static str,
);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("q6", &[0, 1, 2, 3, 4], 1, 1169, 358507442, 1269217, 62, 762660, &[1, 0, 2, 3, 4], "19:23014r 20:40123x 21:01243r 22:32104 23:20314r 24:34021 25:23014r 26:32041 27:24310r 28:32014 29:10324 30:10234"),
    ("q6", &[0, 1, 2, 3, 4], 2, 1169, 358507442, 844072, 30, 358080, &[1, 0, 2, 3, 4], "20:43201 22:40321 24:42103r 26:42130r 28:14032x 30:10234"),
    ("q6", &[0, 1, 2, 3, 4], 5, 1169, 358507442, 726140, 12, 204840, &[1, 0, 2, 3, 4], "20:43201 25:24310r 30:10423 35:10234"),
    ("q6", &[4, 3, 2, 1, 0], 1, 1169, 358507442, 1381946, 62, 829680, &[1, 0, 2, 3, 4], "1:12430r 2:01234 19:21304r 20:40123x 21:24310r 22:10423r 23:12304 24:43201 25:24301r 28:24301 29:10423 30:10234"),
    ("q6", &[4, 3, 2, 1, 0], 2, 1169, 358507442, 947109, 30, 425160, &[1, 0, 2, 3, 4], "2:01423 4:01234 20:43201 22:40321 24:42103r 26:42130r 28:14032x 30:10234"),
    ("q6", &[4, 3, 2, 1, 0], 5, 1169, 358507442, 894870, 12, 284340, &[1, 0, 2, 3, 4], "5:01423 10:01234 20:43201 25:24310r 30:10423 35:10234"),
    ("q6", &[2, 0, 4, 1, 3], 1, 1169, 358507442, 1321856, 62, 792300, &[1, 0, 2, 3, 4], "1:02134 2:01234 19:23014r 20:40123x 21:01243r 22:32104 23:20314r 24:30421 25:20143r 26:13204 27:02314r 28:02341 29:14320 30:10234"),
    ("q6", &[2, 0, 4, 1, 3], 2, 1169, 358507442, 901194, 30, 394920, &[1, 0, 2, 3, 4], "2:02134 4:01234 20:43201 22:40321 24:42103r 26:42130r 28:14032x 30:10234"),
    ("q6", &[2, 0, 4, 1, 3], 5, 1169, 358507442, 811926, 12, 241260, &[1, 0, 2, 3, 4], "5:02134 10:01234 20:43201 25:24310r 30:10423 35:10234"),
    ("fig1", &[0, 1, 2, 3], 1, 4140, 1230131520, 2093478, 62, 1124220, &[0, 1, 2, 3], "1:3210 2:2031r 3:0132 4:2130 6:1320 7:1302 8:0123r 9:0321 10:1230 16:2130r 17:1203 18:1320 19:1203r 20:1032 21:3120r 23:2130r 24:2103rx 25:2013 26:1230 27:2130 28:1230 30:2130 31:2103 32:3210 33:0123"),
    ("fig1", &[0, 1, 2, 3], 2, 4140, 1230131520, 1433527, 27, 464640, &[0, 1, 2, 3], "2:1230 6:2130r 8:0123x 10:1320 12:1203r 14:2130r 16:0132rx 20:0132x 22:2130r 28:2130r 32:2013x 34:0213 36:0123"),
    ("fig1", &[0, 1, 2, 3], 5, 4140, 1230131520, 1292343, 12, 288300, &[0, 1, 2, 3], "5:2130 15:1230 20:1320 25:2130r 35:0132 40:0123"),
    ("fig1", &[3, 2, 1, 0], 1, 4140, 1230131520, 2013549, 61, 1049760, &[0, 1, 2, 3], "1:2031 2:1320 3:3120 4:2301 5:2013r 6:1023 7:1230 8:1320 9:2130r 11:1203r 12:0132rx 13:3021 14:1032 15:3120r 18:3120 19:2301r 20:3201 21:0321r 22:1023 23:1230 25:2130r 26:0123rx 27:2301 28:2013 29:1230 30:1203 31:1320 32:2130 33:0312 34:0123"),
    ("fig1", &[3, 2, 1, 0], 2, 4140, 1230131520, 1417042, 27, 459120, &[0, 1, 2, 3], "2:1320r 6:2130r 8:0321rx 10:1320 12:1203r 14:2130r 16:0132rx 20:0132x 22:2130r 28:2130r 32:2013x 34:0213 36:0123"),
    ("fig1", &[3, 2, 1, 0], 5, 4140, 1230131520, 1133974, 10, 179160, &[0, 1, 2, 3], "5:1302 10:0132r 15:0123r 20:2130rx 25:2103r 30:2130rx 35:0132 40:0123"),
    ("fig1", &[1, 3, 0, 2], 1, 4140, 1230131520, 2001409, 61, 1047420, &[0, 1, 2, 3], "1:0123r 2:3201 3:0312r 4:1023 5:1230 6:1320 7:1302 8:0123r 9:0321 10:1230 16:2130r 17:1203 18:1320 19:1203r 20:1032 21:3120r 23:2130r 24:2103rx 25:2013 26:3120 27:2301 28:1320 29:1230r 31:2130r 32:0132x 33:0213 34:0123"),
    ("fig1", &[1, 3, 0, 2], 2, 4140, 1230131520, 1358176, 25, 399060, &[0, 1, 2, 3], "2:0123r 8:0123r 12:2130rx 14:0123r 16:2130rx 20:2130rx 22:0123r 24:2130rx 28:2130rx 30:1203r 32:2130x 34:0231 36:0123"),
    ("fig1", &[1, 3, 0, 2], 5, 4140, 1230131520, 1128490, 10, 177840, &[0, 1, 2, 3], "5:0123r 10:0132r 20:2130rx 25:2103r 30:2130rx 35:0132 40:0123"),
];

fn table() -> Table {
    generate_lineitem(&TpchConfig::with_rows(1 << 16))
}

/// Q6, or the Figure 1 plan at the table's median shipdate.
fn plan<'t>(name: &str, t: &'t Table) -> LogicalPlan<'t> {
    match name {
        "q6" => query::q6(t),
        _ => {
            let ship = t.column("l_shipdate").expect("shipdate column");
            query::q6_figure1(t, popt::storage::stats::quantile(ship.data(), 0.5))
        }
    }
}

fn config(reop_interval: usize) -> (VectorConfig, ProgressiveConfig) {
    (
        VectorConfig {
            vector_tuples: 1024,
            max_vectors: None,
        },
        ProgressiveConfig {
            reop_interval,
            ..Default::default()
        },
    )
}

fn switches(report: &ProgressiveReport) -> String {
    report
        .switches
        .iter()
        .map(|s| {
            let to: String = s.to.iter().map(|d| d.to_string()).collect();
            let reverted = if s.reverted { "r" } else { "" };
            let exploratory = if s.exploratory { "x" } else { "" };
            format!("{}:{to}{reverted}{exploratory}", s.vector)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn assert_golden(report: &ProgressiveReport, golden: &Golden) {
    let (name, peo, reop, qualified, sum, cycles, estimates, optimizer_cycles, final_peo, sw) =
        *golden;
    let case = format!("{name} from {peo:?} at reop {reop}");
    assert_eq!(report.qualified, qualified, "{case}");
    assert_eq!(report.sum, sum, "{case}");
    assert_eq!(switches(report), sw, "{case}");
    assert_eq!(report.final_peo, final_peo, "{case}");
    assert_eq!(report.estimates, estimates, "{case}");
    assert_eq!(report.optimizer_cycles, optimizer_cycles, "{case}");
    assert_eq!(report.cycles, cycles, "{case}");
}

#[test]
fn lowered_selection_plans_reproduce_the_frozen_scan_reports() {
    let t = table();
    for golden in GOLDEN {
        let (name, peo, reop, ..) = *golden;
        let (vectors, cfg) = config(reop);
        let mut program = plan(name, &t).compile().expect("preset lowers");
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        let report = run_progressive_program(&mut program, peo, vectors, &mut cpu, &cfg)
            .expect("progressive run");
        assert_golden(&report, golden);
    }
}

/// Q6 through the frontend, one filter per predicate in plan order.
fn q6_program(t: &Table) -> CompiledProgram<'_> {
    PlanBuilder::scan(t)
        .filter(Expr::col("l_shipdate").at_least(Q6_SHIPDATE_LO))
        .filter(Expr::col("l_shipdate").less_than(Q6_SHIPDATE_HI))
        .filter(Expr::col("l_discount").at_least(Q6_DISCOUNT_LO))
        .filter(Expr::col("l_discount").at_most(Q6_DISCOUNT_HI))
        .filter(Expr::col("l_quantity").less_than(Q6_QUANTITY))
        .aggregate("l_extendedprice")
        .aggregate("l_discount")
        .build()
        .compile()
        .expect("Q6 lowers")
}

#[test]
fn join_free_programs_pay_no_trial_calibration() {
    let t = table();
    for golden in GOLDEN.iter().filter(|g| g.0 == "q6") {
        let (_, peo, reop, ..) = *golden;
        let (vectors, cfg) = config(reop);
        let mut program = q6_program(&t);
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        let report = run_progressive_program(&mut program, peo, vectors, &mut cpu, &cfg)
            .expect("progressive run");
        assert_golden(&report, golden);
    }
}

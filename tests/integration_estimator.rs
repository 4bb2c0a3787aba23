//! Cross-crate integration: the full non-invasive inference loop.
//!
//! Unlike the solver's unit tests (which invert the model on synthetic
//! counters), these tests sample *simulated-hardware* counters from real
//! engine executions and require the estimator to recover the planted
//! selectivities — model error, predictor warmup and cache noise
//! included.

use popt::core::exec::CompiledProgram;
use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::cost::estimate::PlanGeometry;
use popt::cpu::{CpuConfig, SimCpu};
use popt::solver::{estimate_selectivities, EstimatorConfig};
use popt::storage::{AddressSpace, ColumnData, Table};

fn pseudo(i: usize, salt: u64) -> i32 {
    // splitmix64 finalizer: proper avalanche so different salts yield
    // statistically independent columns (a correlated generator would
    // make conditional selectivities diverge from the planted marginals —
    // exactly the Section 4.5 hazard these tests must *not* trip over).
    let mut z = (i as u64) ^ (salt << 32);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 1000) as i32
}

fn uniform_table(rows: usize, cols: usize) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    for c in 0..cols {
        t.add_column(
            format!("c{c}"),
            ColumnData::I32((0..rows).map(|i| pseudo(i, c as u64 + 1)).collect()),
            &mut space,
        );
    }
    t
}

fn plan_for(selectivities: &[f64]) -> SelectionPlan {
    SelectionPlan::new(
        selectivities
            .iter()
            .enumerate()
            .map(|(i, &s)| Predicate::new(format!("c{i}"), CompareOp::Lt, (s * 1000.0) as i64))
            .collect(),
        vec![],
    )
    .expect("plan")
}

/// The estimator's view of `program` on the Ivy-Bridge-like core the
/// samples run on (six-state predictor, 64-byte lines, no probes).
fn plan_geometry(program: &CompiledProgram<'_>, n_input: u64) -> PlanGeometry {
    let cfg = CpuConfig::ivy_bridge();
    let llc = cfg.llc().capacity_bytes;
    program.plan_geometry(n_input, &cfg, llc, &vec![1.0; program.len()])
}

fn recover(selectivities: &[f64], rows: usize) -> Vec<f64> {
    let table = uniform_table(rows, selectivities.len());
    let plan = plan_for(selectivities);
    let peo = plan.identity_peo();
    let compiled = plan.compile(&table, &peo).expect("compiles");
    let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
    let stats = compiled.run_range(&mut cpu, 0, rows);
    let sampled = stats.sampled_counters();
    let geom = plan_geometry(&compiled, sampled.n_input);
    estimate_selectivities(&geom, &sampled, &EstimatorConfig::default()).selectivities
}

#[test]
fn two_predicates_recovered_from_hardware_counters() {
    let got = recover(&[0.4, 0.2], 1 << 16);
    assert!((got[0] - 0.4).abs() < 0.08, "{got:?}");
    assert!((got[1] - 0.2).abs() < 0.08, "{got:?}");
}

#[test]
fn asymmetric_orders_are_distinguished() {
    // The Section 4.2 example: (40%, 20%) vs (20%, 40%).
    let a = recover(&[0.4, 0.2], 1 << 16);
    let b = recover(&[0.2, 0.4], 1 << 16);
    assert!(a[0] > b[0] + 0.1, "a={a:?} b={b:?}");
    assert!(b[1] > a[1] + 0.1, "a={a:?} b={b:?}");
}

#[test]
fn three_predicates_recovered_within_tolerance() {
    let want = [0.7, 0.3, 0.5];
    let got = recover(&want, 1 << 16);
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() < 0.15, "got {got:?}, want {want:?}");
    }
}

#[test]
fn five_predicates_rank_usably() {
    // With five predicates the system is under-determined; the paper only
    // needs the estimates to *order* the predicates usefully. Require the
    // most selective planted predicate to be ranked in the best two.
    let want = [0.9, 0.05, 0.6, 0.4, 0.75];
    let got = recover(&want, 1 << 16);
    let mut rank: Vec<usize> = (0..got.len()).collect();
    rank.sort_by(|&a, &b| got[a].partial_cmp(&got[b]).unwrap());
    assert!(
        rank[0] == 1 || rank[1] == 1,
        "most selective predicate not ranked early: estimates {got:?}"
    );
}

#[test]
fn estimates_stay_within_bounds_on_real_counters() {
    let table = uniform_table(1 << 15, 3);
    let plan = plan_for(&[0.5, 0.25, 0.8]);
    let peo = plan.identity_peo();
    let compiled = plan.compile(&table, &peo).expect("compiles");
    let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
    let stats = compiled.run_range(&mut cpu, 0, 1 << 15);
    let sampled = stats.sampled_counters();
    let geom = plan_geometry(&compiled, sampled.n_input);
    let result = estimate_selectivities(&geom, &sampled, &EstimatorConfig::default());
    assert!(result.bounds.contains(&result.survivors), "{result:?}");
    // Survivor sum must reproduce the sampled BNT closely (it is an
    // exact identity of the workload).
    let sum: f64 = result.survivors.iter().sum();
    let bnt = sampled.bnt as f64;
    assert!((sum - bnt).abs() / bnt < 0.05, "sum {sum} vs bnt {bnt}");
}

#[test]
fn derived_output_identity_holds_on_hardware_counters() {
    let table = uniform_table(1 << 15, 4);
    let plan = plan_for(&[0.6, 0.5, 0.4, 0.3]);
    let compiled = plan
        .compile(&table, &plan.identity_peo())
        .expect("compiles");
    let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
    let stats = compiled.run_range(&mut cpu, 0, 1 << 15);
    assert_eq!(stats.derived_output(), stats.qualified);
}

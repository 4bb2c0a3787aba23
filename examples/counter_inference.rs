//! Non-invasive selectivity inference, step by step.
//!
//! ```text
//! cargo run --release --example counter_inference
//! ```
//!
//! Executes one vector of a three-predicate selection, reads the PMU
//! counters the way the paper does (no instrumentation in the loop), and
//! inverts the cost models to recover each predicate's selectivity —
//! then compares against the exact ground truth the optimizer never saw.

use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::cpu::{CpuConfig, SimCpu};
use popt::solver::{estimate_selectivities, EstimatorConfig};
use popt::storage::tpch::{generate_lineitem, TpchConfig};

fn main() {
    let table = generate_lineitem(&TpchConfig::with_rows(1 << 18));
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("l_quantity", CompareOp::Lt, 24),
            Predicate::new("l_discount", CompareOp::Le, 3),
            Predicate::new("l_shipdate", CompareOp::Ge, 1800),
        ],
        vec!["l_extendedprice".into()],
    )
    .expect("plan");

    // Execute one vector from the middle of the table and sample the
    // counters, non-invasively.
    let peo = plan.identity_peo();
    let compiled = plan.compile(&table, &peo).expect("compiles");
    let cpu_cfg = CpuConfig::xeon_e5_2630_v2();
    let mut cpu = SimCpu::new(cpu_cfg.clone());
    let vector = 65_536.min(table.rows());
    let start = (table.rows() - vector) / 2;

    // Ground truth *for that vector* — the paper's point is that local
    // selectivities (not the global statistics an optimizer keeps) are
    // what determine the right order for the data at hand. The optimizer
    // never sees these numbers.
    let truth: Vec<f64> = plan
        .predicates
        .iter()
        .map(|p| {
            let col = table.column(&p.column).expect("column exists");
            let hits = (start..start + vector)
                .filter(|&i| p.eval(col.get(i)))
                .count();
            hits as f64 / vector as f64
        })
        .collect();

    let stats = compiled.run_range(&mut cpu, start, start + vector);
    let sampled = stats.sampled_counters();
    println!("sampled counters for one {vector}-tuple vector:");
    println!("  branches not taken : {}", sampled.bnt);
    println!("  mispredicted taken : {}", sampled.mp_taken);
    println!("  mispredicted n-tak : {}", sampled.mp_not_taken);
    println!("  L3 accesses        : {}", sampled.l3_accesses);
    println!("  output (2n - bT)   : {}", sampled.n_output);

    // Invert the cost models.
    // The plan shape is static knowledge: column widths, which columns
    // repeat, the CPU's predictor and line size. No probes to calibrate.
    let no_probes = vec![1.0; compiled.len()];
    let geom = compiled.plan_geometry(
        sampled.n_input,
        &cpu_cfg,
        cpu_cfg.llc().capacity_bytes,
        &no_probes,
    );
    let estimate = estimate_selectivities(&geom, &sampled, &EstimatorConfig::default());

    println!("\npredicate                      estimated   true");
    for ((pred, est), truth) in plan
        .predicates
        .iter()
        .zip(&estimate.selectivities)
        .zip(&truth)
    {
        println!("{:28} {:9.3}   {:.3}", pred.display(), est, truth);
    }
    println!(
        "\nestimator: {} starts, {} objective evaluations, residual {:.4}",
        estimate.starts_used, estimate.evaluations, estimate.objective
    );
}

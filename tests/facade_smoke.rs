//! Facade smoke test: the `popt` re-exports must compose into a working
//! end-to-end run, enforcing the doctest contract of `crates/core/src/lib.rs`
//! as a regular test (doctests are easy to skip; this is not).

use popt::core::progressive::{
    run_baseline, run_progressive_program, ProgressiveConfig, ProgressiveReport, VectorConfig,
};
use popt::core::query;
use popt::cpu::{CpuConfig, SimCpu};
use popt::storage::tpch::{generate_lineitem, TpchConfig};

const VECTORS: VectorConfig = VectorConfig {
    vector_tuples: 8192,
    max_vectors: None,
};

fn cpu() -> SimCpu {
    SimCpu::new(CpuConfig::xeon_e5_2630_v2())
}

#[test]
fn facade_reexports_compile_and_agree() {
    let table = generate_lineitem(&TpchConfig::tiny());
    let mut program = query::q6(&table).compile().expect("Q6 lowers");
    let baseline = run_baseline(&program, VECTORS, &mut cpu()).expect("baseline runs");
    let config = ProgressiveConfig {
        reop_interval: 2,
        ..Default::default()
    };
    let optimized =
        run_progressive_program(&mut program, &[0, 1, 2, 3, 4], VECTORS, &mut cpu(), &config)
            .expect("progressive runs");
    // Same answer, independent of how the plan was reordered mid-query.
    assert_eq!(baseline.sum, optimized.sum);
    assert_eq!(baseline.qualified, optimized.qualified);
    assert!(baseline.qualified > 0, "tiny config must qualify rows");
}

#[test]
fn crate_root_reexport_paths_agree() {
    // `popt::core::{PlanBuilder, run_baseline}` (crate-root re-exports)
    // and their module paths must be the same items.
    let table = generate_lineitem(&TpchConfig::tiny());
    let via_module = popt::core::plan::PlanBuilder::scan(&table)
        .filter(popt::core::plan::Expr::col("l_quantity").less_than(24))
        .aggregate("l_extendedprice")
        .build()
        .compile()
        .expect("lowers");
    let via_reexport = popt::core::PlanBuilder::scan(&table)
        .filter(popt::core::Expr::col("l_quantity").less_than(24))
        .aggregate("l_extendedprice")
        .build()
        .compile()
        .expect("lowers");
    let a: ProgressiveReport = run_baseline(&via_module, VECTORS, &mut cpu()).expect("runs");
    let b: popt::core::ProgressiveReport =
        popt::core::run_baseline(&via_reexport, VECTORS, &mut cpu()).expect("runs");
    assert_eq!(a, b);
}

//! Quickstart: run TPC-H Q6 with and without progressive optimization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a laptop-scale `lineitem`, starts Q6 from the *worst*
//! predicate order (least selective predicate first) and shows how the
//! counter-driven optimizer converges to the good order mid-query.

use popt::core::progressive::{
    run_baseline, run_progressive_program, ProgressiveConfig, VectorConfig,
};
use popt::core::query;
use popt::cpu::{CpuConfig, SimCpu};
use popt::storage::tpch::{generate_lineitem, TpchConfig};

fn main() {
    let table = generate_lineitem(&TpchConfig::with_rows(1 << 19));
    println!(
        "lineitem: {} rows, {:.1} MiB across {} columns",
        table.rows(),
        table.bytes() as f64 / (1024.0 * 1024.0),
        table.columns().len()
    );

    // Plan order [4,3,2,1,0] evaluates quantity (46% selective) first and
    // the shipdate window (the sharp filter) last — a classic bad plan
    // born from a wrong cardinality estimate.
    let bad_order = [4, 3, 2, 1, 0];
    let mut program = query::q6(&table).compile().expect("Q6 lowers");
    program.reorder(&bad_order).expect("valid order");
    let vectors = VectorConfig {
        vector_tuples: 8192,
        max_vectors: None,
    };

    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let baseline = run_baseline(&program, vectors, &mut cpu).expect("baseline run");
    println!(
        "\nbaseline  (fixed bad PEO): {:8.2} ms  -> {} rows, sum {}",
        baseline.millis, baseline.qualified, baseline.sum
    );

    let config = ProgressiveConfig {
        reop_interval: 5,
        ..Default::default()
    };
    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let progressive = run_progressive_program(&mut program, &bad_order, vectors, &mut cpu, &config)
        .expect("progressive run");
    println!(
        "progressive (same start) : {:8.2} ms  -> {} rows, sum {}",
        progressive.millis, progressive.qualified, progressive.sum
    );

    assert_eq!(
        (baseline.qualified, baseline.sum),
        (progressive.qualified, progressive.sum),
        "same answer either way"
    );
    println!(
        "\nspeedup: {:.2}x; estimator ran {} times; final PEO {:?}",
        baseline.millis / progressive.millis,
        progressive.estimates,
        progressive.final_peo
    );
    for s in &progressive.switches {
        println!(
            "  vector {:3}: {:?} -> {:?}{}",
            s.vector,
            s.from,
            s.to,
            if s.reverted { "  (reverted)" } else { "" }
        );
    }
}

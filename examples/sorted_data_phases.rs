//! Mid-query plan changes on sorted data (the Section 5.4 effect).
//!
//! ```text
//! cargo run --release --example sorted_data_phases
//! ```
//!
//! On a shipdate-sorted `lineitem`, Q6's optimal predicate order changes
//! *during* the scan: before the date window the lower bound kills every
//! tuple, inside the window both date bounds are useless, after it the
//! upper bound kills everything. No static plan is optimal everywhere —
//! the progressive optimizer switches orders as the scan crosses the
//! phase boundaries.

use popt::core::progressive::{
    run_baseline, run_progressive_program, ProgressiveConfig, VectorConfig,
};
use popt::core::query;
use popt::cpu::{CpuConfig, SimCpu};
use popt::storage::distribution::Layout;
use popt::storage::tpch::{generate_lineitem, TpchConfig};

fn main() {
    let table = generate_lineitem(&TpchConfig::with_rows(1 << 19).shipdate_layout(Layout::Sorted));

    // Start from a bad static order: date bounds last.
    let bad = [4, 3, 2, 0, 1];
    let mut program = query::q6(&table).compile().expect("Q6 lowers");
    program.reorder(&bad).expect("valid order");
    let vectors = VectorConfig {
        vector_tuples: 4096,
        max_vectors: None,
    };
    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let baseline = run_baseline(&program, vectors, &mut cpu).expect("baseline");
    let config = ProgressiveConfig {
        reop_interval: 5,
        ..Default::default()
    };
    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let progressive = run_progressive_program(&mut program, &bad, vectors, &mut cpu, &config)
        .expect("progressive");

    println!(
        "sorted shipdate, {} vectors: baseline {:.2} ms, progressive {:.2} ms ({:.2}x)",
        baseline.vectors,
        baseline.millis,
        progressive.millis,
        baseline.millis / progressive.millis
    );
    assert_eq!(
        (baseline.qualified, baseline.sum),
        (progressive.qualified, progressive.sum)
    );

    println!("\nplan switches while scanning (predicates 0/1 are the shipdate bounds):");
    for s in &progressive.switches {
        let phase = s.vector * 4096 * 100 / table.rows();
        println!(
            "  at vector {:3} (~{:2}% of the table): {:?} -> {:?}{}",
            s.vector,
            phase,
            s.from,
            s.to,
            if s.reverted { "  (reverted)" } else { "" }
        );
    }
    println!(
        "\nfinal order {:?}; the upper shipdate bound (predicate 1) leads once the scan \
         passes the window",
        progressive.final_peo
    );
}

//! Figure 2: counter overview for a single-predicate selection with
//! varying selectivity (Section 2.2).
//!
//! Six counters, each normalized to its maximum over the sweep: L3
//! accesses, branches taken / not taken, and mispredictions (taken /
//! not-taken / total). Reproduces the saturation of L3 accesses around
//! 20% selectivity and the misprediction peak at 50%.

use popt_cpu::{CpuConfig, SimCpu};

use crate::common::{banner, fmt, header, parallel_map, row, FigureCtx};
use crate::figures::workload::{uniform_plan, uniform_table};

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    banner(
        ctx,
        "2",
        "Counter overview (single selection, selectivity sweep)",
    );
    let rows = ctx.scale(1 << 20, 1 << 16);
    let table = uniform_table(rows, 1, 0xF1602);

    let sels: Vec<f64> = (0..=20).map(|i| i as f64 * 5.0).collect();
    let measured = parallel_map(&sels, |&pct| {
        let plan = uniform_plan(&[pct / 100.0]);
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let compiled = plan.compile(&table, &[0]).expect("plan compiles");
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let c = stats.counters;
        [
            c.l3_accesses as f64,
            c.branches_taken as f64,
            c.branches_not_taken as f64,
            c.mp_taken as f64,
            c.mp_not_taken as f64,
            c.mispredictions() as f64,
        ]
    });

    let mut maxima = [0.0f64; 6];
    for m in &measured {
        for (mx, &v) in maxima.iter_mut().zip(m) {
            *mx = mx.max(v);
        }
    }
    header(&[
        "sel_pct",
        "l3_access_pct",
        "branch_taken_pct",
        "branch_not_taken_pct",
        "taken_mp_pct",
        "not_taken_mp_pct",
        "branch_mp_pct",
    ]);
    for (s, m) in sels.iter().zip(&measured) {
        let mut cells = vec![fmt(*s)];
        for (v, mx) in m.iter().zip(&maxima) {
            cells.push(fmt(if *mx > 0.0 { v / mx * 100.0 } else { 0.0 }));
        }
        row(&cells);
    }
}

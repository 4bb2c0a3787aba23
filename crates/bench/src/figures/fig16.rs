//! Figure 16: overhead of enumerator-based instrumentation vs.
//! performance-counter sampling, for 1–10 predicates (Section 5.7).
//!
//! The enumerator pays a counter update per predicate *evaluation* (work
//! proportional to the data); the PMU pays a fixed readout per sampled
//! vector. Percent overhead over the uninstrumented scan, log scale in
//! the paper.

use popt_core::exec::enumerator::EnumeratedSelection;
use popt_cpu::{CpuConfig, SimCpu};

use crate::common::{banner, fmt, header, parallel_map, row, FigureCtx};
use crate::figures::workload::{uniform_plan, uniform_table};
use crate::note;

/// Tuples per vector for the PMU-sampled variant.
pub const VECTOR_TUPLES: usize = 8_192;

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    banner(ctx, "16", "Overhead: enumerator vs. performance counters");
    let rows = ctx.scale(1 << 19, 1 << 15);
    let max_preds = 10usize;
    let table = uniform_table(rows, max_preds, 0xF1616);

    let counts: Vec<usize> = (1..=max_preds).collect();
    let results = parallel_map(&counts, |&p| {
        // High per-predicate selectivity so deep positions actually run.
        let plan = uniform_plan(&vec![0.9; p]);
        let peo: Vec<usize> = (0..p).collect();

        let plain = plan.compile(&table, &peo).expect("compiles");
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        plain.run_range(&mut cpu, 0, rows);
        let base = cpu.cycles() as f64;

        // PMU variant: identical scan, one counter sample per vector.
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        let mut start = 0;
        while start < rows {
            let end = (start + VECTOR_TUPLES).min(rows);
            plain.run_range(&mut cpu, start, end);
            let _ = cpu.sample();
            start = end;
        }
        let pmu = cpu.cycles() as f64;

        // Enumerator variant: counter update per evaluation.
        let inst = EnumeratedSelection::compile(&table, &plan, &peo).expect("compiles");
        let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
        inst.run_range(&mut cpu, 0, rows);
        let enumerated = cpu.cycles() as f64;

        (
            p,
            (enumerated - base) / base * 100.0,
            (pmu - base) / base * 100.0,
        )
    });

    header(&["predicates", "enumerator_overhead_pct", "papi_overhead_pct"]);
    for (p, enum_pct, pmu_pct) in &results {
        row(&[p.to_string(), fmt(*enum_pct), fmt(*pmu_pct)]);
    }
    let max_enum = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let max_pmu = results.iter().map(|r| r.2).fold(0.0f64, f64::max);
    note!(
        "# max enumerator overhead {}%, max PMU overhead {}% (ratio {}x)",
        fmt(max_enum),
        fmt(max_pmu),
        fmt(max_enum / max_pmu.max(1e-9))
    );
}

//! Figure 13: Q6 on differently sorted shipdate layouts (Section 5.4).
//!
//! Three data sets — sorted (a), month-clustered (b), random (c) — each
//! swept over the 120 PEOs with the baseline and progressive runs at
//! reoptimization intervals 10, 75, 200. On sorted data short intervals
//! win (the optimal PEO changes between data partitions); on random data
//! the premise "the sampled vector predicts the future" fails and
//! improvements shrink.

use popt_core::plan::all_orders;
use popt_core::progressive::{
    run_baseline, run_progressive_program, ProgressiveConfig, VectorConfig,
};
use popt_core::query;
use popt_cpu::{CpuConfig, SimCpu};
use popt_storage::distribution::Layout;
use popt_storage::tpch::{generate_lineitem, TpchConfig};

use crate::common::{banner, fmt, header, parallel_map, row, subsample, FigureCtx};
use crate::figures::workload::compile_in;
use crate::note;

/// The reoptimization intervals of the figure.
pub const REOP_INTERVALS: &[usize] = &[10, 75, 200];

/// One sampled PEO's results: baseline millis plus one progressive
/// millis per reoptimization interval.
type PeoRun = (f64, Vec<f64>);

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    banner(
        ctx,
        "13",
        "Q6 on sorted / clustered / random shipdate layouts",
    );
    let rows = ctx.scale(1 << 20, 1 << 17);
    let vector_tuples = ctx.scale(4_096, 2_048);
    let peo_sample = ctx.scale(40, 12);
    let month = TpchConfig::month_window(rows);
    let layouts: Vec<(&str, Layout)> = vec![
        ("(a) sorted", Layout::Sorted),
        ("(b) clustered", Layout::Clustered(month)),
        ("(c) random", Layout::Random),
    ];
    // Q6 has five filters, so 120 orders.
    let peos = subsample(&all_orders(5), peo_sample);
    let vectors = VectorConfig {
        vector_tuples,
        max_vectors: None,
    };

    for (label, layout) in layouts {
        note!("# panel {label}");
        let table = generate_lineitem(&TpchConfig::with_rows(rows).shipdate_layout(layout));
        let plan = query::q6(&table);
        let runs: Vec<(f64, Vec<f64>)> = parallel_map(&peos, |peo| {
            let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
            let base = run_baseline(&compile_in(&plan, peo), vectors, &mut cpu)
                .expect("baseline runs")
                .millis;
            let mut reops = Vec::new();
            for &reop in REOP_INTERVALS {
                let config = ProgressiveConfig {
                    reop_interval: reop,
                    ..Default::default()
                };
                let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
                reops.push(
                    run_progressive_program(
                        &mut compile_in(&plan, peo),
                        peo,
                        vectors,
                        &mut cpu,
                        &config,
                    )
                    .expect("progressive runs")
                    .millis,
                );
            }
            (base, reops)
        });
        let mut sorted = runs;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        header(&[
            "permutation_rank",
            "baseline_ms",
            "reop10_ms",
            "reop75_ms",
            "reop200_ms",
        ]);
        for (rank, (base, reops)) in sorted.iter().enumerate() {
            row(&[
                rank.to_string(),
                fmt(*base),
                fmt(reops[0]),
                fmt(reops[1]),
                fmt(reops[2]),
            ]);
        }
        let avg = |f: &dyn Fn(&PeoRun) -> f64| -> f64 {
            sorted.iter().map(f).sum::<f64>() / sorted.len() as f64
        };
        note!(
            "# avg baseline {} ms; avg reop10 {} ms; avg reop75 {} ms; avg reop200 {} ms",
            fmt(avg(&|r| r.0)),
            fmt(avg(&|r| r.1[0])),
            fmt(avg(&|r| r.1[1])),
            fmt(avg(&|r| r.1[2])),
        );
    }
}

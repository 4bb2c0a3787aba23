//! The serial workloads, `q6-scan` and `star-join`: a round is a fixed
//! sequence of query instances, each planned, compiled and run through
//! the serial progressive loop from its worst static order on a fresh
//! simulated core.

use std::sync::Arc;
use std::time::Instant;

use popt_core::ProgressiveReport;
use popt_obs::DriftObservatory;
use popt_storage::{AddressSpace, Table};

use crate::calib::{self, setup, Calibrator, RoundTimes, Timed};
use crate::engine;
use crate::gen::{self, column_mb};
use crate::host::{self, median, percentile, ratio};
use crate::query::{permutations, worst_order, Expected, Oracle, Query};
use crate::spans::Spans;
use crate::{Ctx, Report};

/// What the oracle knows about one instance before it runs.
struct Prepared {
    expected: Expected,
    /// Worst start order, as indices into the query's predicates.
    start: Vec<usize>,
    rows: usize,
}

/// How a round runs its queries.
#[derive(Clone)]
enum Mode {
    Plain,
    /// With a model-drift observatory attached.
    Observed(Arc<DriftObservatory>),
}

/// One pass over the instance sequence.
struct Round {
    /// Host time of each instance: plan, compile and progressive run.
    steps: Vec<Timed>,
    tuples: f64,
    reports: Vec<Option<ProgressiveReport>>,
    failed: u64,
}

impl Round {
    fn sum(&self, f: impl Fn(&ProgressiveReport) -> f64) -> f64 {
        self.reports.iter().flatten().map(f).sum()
    }
}

/// Typical speed of each workload's calibration blocks (see `calib.rs`),
/// measured once on the reference machine.
const Q6_REF_NS_PER_STEP: f64 = 8.0;
const STAR_REF_NS_PER_STEP: f64 = 25.0;

pub fn q6(ctx: &Ctx) -> Report {
    let rows = if ctx.small { 1 << 16 } else { 1 << 22 };
    let mut spans = Spans::new(ctx.trace);
    let (setup_s, table) = setup(
        &mut spans,
        || gen::lineitem(rows, ctx.seed, &mut AddressSpace::new()),
        || drop(std::hint::black_box(engine::new_cpu())),
    );
    let queries: Vec<Query<'_>> = (0..gen::Q6_INSTANCES)
        .map(|k| gen::q6_query(&table, k))
        .collect();
    let ctl = Control {
        ctx,
        spans,
        calib: Calibrator::new(),
        ref_ns_per_step: Q6_REF_NS_PER_STEP,
    };
    run(ctl, setup_s, &[&table], &queries)
}

pub fn star(ctx: &Ctx) -> Report {
    let sizes = if ctx.small {
        gen::StarSizes {
            fact: 1 << 16,
            customer: 1 << 12,
            supplier: 1 << 14,
            part: 1 << 11,
        }
    } else {
        // supplier's probed column is 4 MiB (4x the simulated LLC); part's
        // is 512 KiB, between the 64 KiB L2 and the 1 MiB LLC.
        gen::StarSizes {
            fact: 1 << 22,
            customer: 1 << 18,
            supplier: 1 << 20,
            part: 1 << 17,
        }
    };
    let mut spans = Spans::new(ctx.trace);
    let (setup_s, s) = setup(
        &mut spans,
        || gen::star(sizes, ctx.seed, &mut AddressSpace::new()),
        || drop(std::hint::black_box(engine::new_cpu())),
    );
    let queries: Vec<Query<'_>> = (0..gen::STAR_INSTANCES)
        .map(|k| gen::star_query(&s, k))
        .collect();
    let ctl = Control {
        ctx,
        spans,
        calib: Calibrator::new(),
        ref_ns_per_step: STAR_REF_NS_PER_STEP,
    };
    run(
        ctl,
        setup_s,
        &[&s.fact, &s.customer, &s.supplier, &s.part],
        &queries,
    )
}

fn round(
    queries: &[Query<'_>],
    prep: &[Prepared],
    spans: &mut Spans,
    calib: &mut Calibrator,
    mode: &Mode,
) -> Round {
    let mut r = Round {
        steps: Vec::with_capacity(queries.len()),
        tuples: 0.0,
        reports: Vec::with_capacity(queries.len()),
        failed: 0,
    };
    for (k, (q, p)) in queries.iter().zip(prep).enumerate() {
        let mut cpu = engine::new_cpu();
        let (report, timed) = calib.time(q, k, || {
            let sq = spans.begin("query", Some(k));
            let sc = spans.begin("plan.compile", Some(k));
            let compiled = engine::compile(q);
            spans.end(sc, &[]);
            let report = compiled.and_then(|mut c| {
                let start = c.stage_order(&p.start);
                let sp = spans.begin("progressive.run", Some(k));
                let rep = match mode {
                    Mode::Plain => engine::run_progressive(&mut c, &start, &mut cpu),
                    Mode::Observed(d) => {
                        engine::run_progressive_observed(&mut c, &start, &mut cpu, d.clone())
                    }
                };
                let counts = rep.as_ref().map_or(vec![], |r| {
                    vec![
                        ("tuples", p.rows as f64),
                        ("estimates", r.estimates as f64),
                        ("switches", r.switches.len() as f64),
                    ]
                });
                spans.end(sp, &counts);
                rep.map_err(|e| e.to_string())
            });
            spans.end(sq, &[]);
            report
        });
        r.steps.push(timed);
        r.tuples += p.rows as f64;
        match report {
            Ok(rep) if rep.qualified == p.expected.qualified && rep.sum == p.expected.sum => {
                r.reports.push(Some(rep));
            }
            Ok(rep) => {
                eprintln!(
                    "# FAILED query {k}: got (qualified {}, sum {}), oracle {:?}",
                    rep.qualified, rep.sum, p.expected
                );
                r.failed += 1;
                r.reports.push(Some(rep));
            }
            Err(e) => {
                eprintln!("# FAILED query {k}: {e}");
                r.failed += 1;
                r.reports.push(None);
            }
        }
    }
    r
}

/// Simulated end-to-end metrics of one round: cycles per tuple, and the
/// p50/p95 of per-instance simulated latency (closed loop: each instance
/// is due when the previous one completes).
fn sim_metrics(r: &Round) -> (f64, f64, f64) {
    let cycles = r.sum(|rep| rep.cycles as f64);
    let millis: Vec<f64> = r.reports.iter().flatten().map(|rep| rep.millis).collect();
    (
        ratio(cycles, r.tuples),
        median(&millis),
        percentile(&millis, 0.95),
    )
}

/// Run-wide state of a serial workload.
struct Control<'c> {
    ctx: &'c Ctx,
    spans: Spans,
    calib: Calibrator,
    /// The workload's quiet-host calibration speed.
    ref_ns_per_step: f64,
}

fn run(ctl: Control<'_>, setup_s: f64, tables: &[&Table], queries: &[Query<'_>]) -> Report {
    let ctx = ctl.ctx;
    let mut prep: Vec<Prepared> = queries
        .iter()
        .map(|q| {
            let oracle = Oracle::new(q);
            Prepared {
                expected: oracle.expected(),
                start: worst_order(q, &oracle.pass_rates()),
                rows: q.fact.rows(),
            }
        })
        .collect();
    if ctx.corrupt {
        prep[0].expected.sum = prep[0].expected.sum.wrapping_add(1);
    }
    if ctx.trace {
        return traced(ctl, tables, queries, &prep);
    }
    let Control {
        mut spans,
        mut calib,
        ref_ns_per_step,
        ..
    } = ctl;

    let t = Instant::now();
    let mut first: Option<Round> = None;
    let mut times = RoundTimes::default();
    let (mut failed, mut attempted, mut deterministic) = (0, 0, true);
    while first.is_none() || t.elapsed().as_secs_f64() < ctx.seconds {
        let r = round(queries, &prep, &mut spans, &mut calib, &Mode::Plain);
        times.push(&r.steps, r.tuples, ref_ns_per_step);
        failed += r.failed;
        attempted += r.reports.len() as u64;
        match &first {
            None => first = Some(r),
            Some(f) => deterministic &= r.reports == f.reports,
        }
    }
    if !deterministic {
        eprintln!("# FAILED: simulated reports differ between identical rounds");
    }
    eprintln!("# {}", times.note(ref_ns_per_step));
    let (cpt, p50, p95) = sim_metrics(first.as_ref().expect("at least one round"));
    Report {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics: vec![
            ("host_ns_per_tuple", times.ns_per_tuple(), "ns"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
            ("sim_cycles_per_tuple", cpt, "cycles"),
            ("sim_latency_p50_ms", p50, "ms"),
            ("sim_latency_p95_ms", p95, "ms"),
        ],
    }
}

/// Rounds of each kind the traced run alternates.
const TRACE_PAIRS: usize = 2;
/// The loop estimates once per `reop_interval` (10) vectors; the replay
/// samples the same windows of the static start-order run.
const REPLAY_EVERY: usize = 10;

/// The per-layer run: alternating untraced, traced and observed rounds
/// (reports asserted bit-identical across all of them), then static
/// reference runs, replayed estimates, and the best static order of the
/// first instance for the regret.
fn traced(ctl: Control<'_>, tables: &[&Table], queries: &[Query<'_>], prep: &[Prepared]) -> Report {
    let Control {
        ctx,
        mut spans,
        mut calib,
        ref_ns_per_step,
    } = ctl;
    let drift = Arc::new(DriftObservatory::new());
    let observed_mode = Mode::Observed(drift.clone());
    let (mut plain, mut traced, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        spans.set_on(false);
        plain.push(round(queries, prep, &mut spans, &mut calib, &Mode::Plain));
        spans.set_on(true);
        traced.push(round(queries, prep, &mut spans, &mut calib, &Mode::Plain));
        spans.set_on(false);
        observed.push(round(queries, prep, &mut spans, &mut calib, &observed_mode));
    }
    spans.set_on(true);
    let reference = &plain[0].reports;
    let identical = plain
        .iter()
        .chain(&traced)
        .chain(&observed)
        .all(|r| &r.reports == reference);
    eprintln!(
        "# traced run: untraced, traced and drift-observed reports bit-identical: {identical}"
    );
    let mut failed: u64 = plain
        .iter()
        .chain(&traced)
        .chain(&observed)
        .map(|r| r.failed)
        .sum();
    let mut attempted: u64 = (3 * TRACE_PAIRS * queries.len()) as u64;

    // Static reference runs and replayed estimates.
    let mut start_cycles = Vec::new();
    let (mut err_sum, mut err_n, mut evals) = (0.0, 0.0, 0.0);
    for (k, (q, p)) in queries.iter().zip(prep).enumerate() {
        attempted += 1;
        let mut c = match engine::compile(q) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("# FAILED static run {k}: {e}");
                failed += 1;
                continue;
            }
        };
        let order = c.stage_order(&p.start);
        let Some(windows) = static_run(&mut spans, &mut c, &order, p, k, &mut failed) else {
            continue;
        };
        start_cycles.push(
            windows
                .iter()
                .map(|w| w.counters.cycles as f64)
                .sum::<f64>(),
        );
        let oracle = Oracle::new(q);
        let pred_order = c.pred_order();
        for w in windows.iter().skip(REPLAY_EVERY - 1).step_by(REPLAY_EVERY) {
            let s = spans.begin("solver.estimate", Some(k));
            let est = engine::replay_estimate(&c, w);
            spans.end(s, &[("evaluations", est.evaluations as f64)]);
            let truth = oracle.conditional_rates(&pred_order, w.start, w.end);
            let diff: f64 = est
                .selectivities
                .iter()
                .zip(&truth)
                .map(|(e, t)| (e - t).abs())
                .sum();
            err_sum += diff / truth.len() as f64;
            err_n += 1.0;
            evals += est.evaluations as f64;
        }
    }

    // Every static order of the first instance, for the regret.
    let mut best_cycles = f64::INFINITY;
    if let Ok(mut c) = engine::compile(&queries[0]) {
        for order in permutations(c.program.len()) {
            attempted += 1;
            if let Some(w) = static_run(&mut spans, &mut c, &order, &prep[0], 0, &mut failed) {
                best_cycles = best_cycles.min(w.iter().map(|w| w.counters.cycles as f64).sum());
            }
        }
    }

    let r0 = &plain[0];
    let tuples = r0.tuples;
    let cycles = r0.sum(|r| r.cycles as f64);
    let exec_cycles = r0.sum(|r| r.counters.cycles as f64);
    let counter = |f: fn(&ProgressiveReport) -> u64| r0.sum(|r| f(r) as f64) / tuples;
    let switches = r0.sum(|r| r.switches.len() as f64);
    let reverted = r0.sum(|r| r.switches.iter().filter(|s| s.reverted).count() as f64);
    let estimates = r0.sum(|r| r.estimates as f64);
    let optimizer_share = ratio(r0.sum(|r| r.optimizer_cycles as f64), cycles);
    let solver_us = median(&spans.durations("solver.estimate")) / 1e3;
    let run_ns = spans.total("progressive.run");
    let run_estimates = spans.count("progressive.run", "estimates");
    let first_rows = prep[0].rows as f64;
    let first_cycles = r0.reports[0].as_ref().map_or(f64::NAN, |r| r.cycles as f64);
    let round_ns = |rs: &[Round]| {
        median(
            &rs.iter()
                .map(|r| calib::calibrated_ns(&r.steps, ref_ns_per_step))
                .collect::<Vec<_>>(),
        )
    };
    let plain_ns = round_ns(&plain);

    let mut self_times: Vec<_> = spans.self_times().into_iter().collect();
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in &self_times {
        eprintln!("# self time {name:<16} {:>10.1} ms", ns / 1e6);
    }
    spans.write(&ctx.workload, ctx.seed);

    let metrics = vec![
        (
            "storage.gen_s",
            median(&spans.durations("storage.gen")) / 1e9,
            "s",
        ),
        ("storage.column_mb", column_mb(tables), "MB"),
        (
            "plan.compile_us_p50",
            median(&spans.durations("plan.compile")) / 1e3,
            "us",
        ),
        (
            "exec.host_ns_per_tuple",
            spans.total("exec.static") / spans.count("exec.static", "tuples"),
            "ns",
        ),
        (
            "exec.sim_cycles_per_tuple_start",
            start_cycles.first().copied().unwrap_or(f64::NAN) / first_rows,
            "cycles",
        ),
        (
            "exec.sim_cycles_per_tuple_best",
            best_cycles / first_rows,
            "cycles",
        ),
        (
            "cpu.ipc",
            ratio(r0.sum(|r| r.counters.instructions as f64), exec_cycles),
            "ratio",
        ),
        (
            "cpu.instructions_per_tuple",
            counter(|r| r.counters.instructions),
            "count",
        ),
        (
            "cpu.branch_mispredicts_per_tuple",
            counter(|r| r.counters.mispredictions()),
            "count",
        ),
        (
            "cpu.l2_accesses_per_tuple",
            counter(|r| r.counters.l2_accesses),
            "count",
        ),
        (
            "cpu.l3_accesses_per_tuple",
            counter(|r| r.counters.l3_accesses),
            "count",
        ),
        (
            "cpu.l3_misses_per_tuple",
            counter(|r| r.counters.l3_misses),
            "count",
        ),
        (
            "cpu.memory_accesses_per_tuple",
            counter(|r| r.counters.memory_accesses),
            "count",
        ),
        (
            "cpu.prefetches_per_tuple",
            counter(|r| r.counters.prefetch_requests),
            "count",
        ),
        (
            "cpu.pool_setup_ms",
            median(&spans.durations("cpu.setup")) / 1e6,
            "ms",
        ),
        ("solver.host_us_per_estimate_p50", solver_us, "us"),
        ("solver.evals_per_estimate", ratio(evals, err_n), "count"),
        ("solver.sel_abs_error", ratio(err_sum, err_n), "ratio"),
        (
            "cost.cpt_calibrated_error",
            drift.worst_calibrated_mean("cpt").unwrap_or(0.0),
            "ratio",
        ),
        (
            "progressive.estimates_per_mtuple",
            estimates / tuples * 1e6,
            "count",
        ),
        (
            "progressive.switches_per_query",
            switches / queries.len() as f64,
            "count",
        ),
        (
            "progressive.revert_share",
            ratio(reverted, switches),
            "ratio",
        ),
        ("progressive.optimizer_share", optimizer_share, "ratio"),
        (
            "progressive.speedup_vs_start",
            ratio(start_cycles.iter().sum(), cycles),
            "ratio",
        ),
        ("progressive.regret", first_cycles / best_cycles, "ratio"),
        (
            "progressive.solver_host_share",
            ratio(run_estimates * solver_us * 1e3, run_ns),
            "ratio",
        ),
        // A serial run is a pool of one core that never idles, whose
        // morsels are the loop's vectors.
        ("parallel.occupancy", 1.0, "ratio"),
        ("parallel.worker_imbalance", 1.0, "ratio"),
        (
            "parallel.morsels_per_query",
            r0.sum(|r| r.vectors as f64) / queries.len() as f64,
            "count",
        ),
        // Closed loop, no server: nothing queues and nothing warm-starts;
        // a round plays the part of a batch.
        ("serve.queue_ms_p50", 0.0, "ms"),
        ("serve.warm_start_share", 0.0, "ratio"),
        ("serve.optimizer_share", optimizer_share, "ratio"),
        ("serve.host_ms_per_batch", plain_ns / 1e6, "ms"),
        (
            "obs.host_overhead_share",
            round_ns(&observed) / plain_ns - 1.0,
            "ratio",
        ),
        (
            "bench.trace_overhead_share",
            round_ns(&traced) / plain_ns - 1.0,
            "ratio",
        ),
    ];
    Report {
        correct: failed == 0 && identical,
        attempted,
        failed,
        metrics,
    }
}

/// A static run of the whole table under `order` (stage indices),
/// inside an `exec.static` span, checked against the oracle.
fn static_run(
    spans: &mut Spans,
    c: &mut engine::Compiled<'_>,
    order: &[usize],
    p: &Prepared,
    k: usize,
    failed: &mut u64,
) -> Option<Vec<engine::Window>> {
    let mut cpu = engine::new_cpu();
    let s = spans.begin("exec.static", Some(k));
    let windows = engine::run_static(c, order, &mut cpu);
    spans.end(s, &[("tuples", p.rows as f64)]);
    match windows {
        Ok(w) => {
            let qualified: u64 = w.iter().map(|w| w.qualified).sum();
            let sum = w.iter().fold(0i64, |a, w| a.wrapping_add(w.sum));
            if (Expected { qualified, sum }) != p.expected {
                eprintln!(
                    "# FAILED static run {k} order {order:?}: ({qualified}, {sum}) vs oracle {:?}",
                    p.expected
                );
                *failed += 1;
            }
            Some(w)
        }
        Err(e) => {
            eprintln!("# FAILED static run {k}: {e}");
            *failed += 1;
            None
        }
    }
}

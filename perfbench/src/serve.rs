//! The `serve-mix` workload: a 2-worker `QueryServer` fed an open loop in
//! simulated time. A round serves `BATCHES` consecutive batches on one
//! server (so later batches warm-start from its order cache), each on a
//! fresh pool, each batch `QUERIES_PER_BATCH` queries cycling through a
//! high-priority scan, a normal-priority 2-join star and a low-priority
//! background scan, arriving every `ARRIVAL_INTERVAL_CYCLES`.

use std::sync::Arc;
use std::time::Instant;

use popt_core::{Priority, ServeReport};
use popt_cpu::{CounterDelta, Counters};
use popt_obs::DriftObservatory;
use popt_storage::AddressSpace;

use crate::calib::{self, setup, Calibrator, RoundTimes, Timed};
use crate::engine;
use crate::gen::{self, column_mb, ServeSizes, ServeTables, SERVE_TEMPLATES, SERVE_VARIANTS};
use crate::host::{self, median, percentile, ratio};
use crate::query::{permutations, Expected, Oracle};

use crate::spans::Spans;
use crate::{Ctx, Report};

/// Engine worker threads: the pool's simulated cores, one host thread each.
pub const WORKERS: usize = 2;
pub const BATCHES: usize = 5;
pub const QUERIES_PER_BATCH: usize = 48;
/// Simulated cycles between arrivals: the mix's mean service cost per
/// query (about 4.1M cycles, measured once in this open loop at full
/// size, seed 1) divided by 0.8 × `WORKERS`, i.e. an offered load of
/// about 80% of the pool's capacity. Fixed here; it never adapts to a run.
pub const ARRIVAL_INTERVAL_CYCLES: u64 = 2_550_000;

/// Typical speed of the mix's calibration blocks (see `calib.rs`),
/// measured once on the reference machine.
const REF_NS_PER_STEP: f64 = 30.0;

const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

/// `(template, literal variant)` of query `i` of batch `b`.
fn slot(b: usize, i: usize) -> (usize, usize) {
    (i % 3, (i / 3 + b) % SERVE_VARIANTS)
}

/// Oracle results and row counts per `[template][variant]`.
struct Prepared {
    expected: Vec<Vec<Expected>>,
    rows: Vec<usize>,
}

struct Round {
    /// Host time of each batch: planning, compiling and serving it.
    batches: Vec<Timed>,
    tuples: f64,
    attempted: u64,
    failed: u64,
    reports: Vec<ServeReport>,
    /// `(template, variant)` of every served outcome, in report order.
    slots: Vec<(usize, usize)>,
    counters: CounterDelta,
}

impl Round {
    fn outcomes(&self) -> impl Iterator<Item = &popt_core::serve::QueryOutcome> {
        self.reports.iter().flat_map(|r| r.queries.iter())
    }

    /// (cycles per tuple, latency p50 ms, latency p95 ms), simulated.
    fn sim_metrics(&self) -> (f64, f64, f64) {
        let ghz = engine::machine().timing.frequency_ghz;
        let cost: f64 = self.outcomes().map(|q| q.cost_cycles() as f64).sum();
        let lat: Vec<f64> = self
            .outcomes()
            .map(|q| q.latency_cycles as f64 / (ghz * 1e6))
            .collect();
        (
            ratio(cost, self.tuples),
            median(&lat),
            percentile(&lat, 0.95),
        )
    }
}

fn round(
    tables: &ServeTables,
    prep: &Prepared,
    spans: &mut Spans,
    calib: &mut Calibrator,
    drift: Option<&Arc<DriftObservatory>>,
) -> Round {
    let mut pools: Vec<_> = (0..BATCHES).map(|_| engine::new_pool(WORKERS)).collect();
    let mut r = Round {
        batches: Vec::with_capacity(BATCHES),
        tuples: 0.0,
        attempted: 0,
        failed: 0,
        reports: Vec::new(),
        slots: Vec::new(),
        counters: CounterDelta::default(),
    };
    let mut server = engine::new_server();
    if let Some(d) = drift {
        engine::observe_server(&mut server, WORKERS, d.clone());
    }
    for (b, pool) in pools.iter_mut().enumerate() {
        // Calibrate on the star template: its probes are the mix's most
        // cache-model-heavy work.
        let calib_query = gen::serve_query(tables, 1, b);
        let mut admitted = Vec::with_capacity(QUERIES_PER_BATCH);
        let (report, timed) = calib.time(&calib_query, b, || {
            let sb = spans.begin("serve.batch", None);
            for i in 0..QUERIES_PER_BATCH {
                let (tpl, v) = slot(b, i);
                let id = b * QUERIES_PER_BATCH + i;
                r.attempted += 1;
                let q = gen::serve_query(tables, tpl, v);
                let sc = spans.begin("plan.compile", Some(id));
                let res = engine::admit(
                    &mut server,
                    &q,
                    format!("{}-{v}", SERVE_TEMPLATES[tpl]),
                    PRIORITIES[tpl],
                    i as u64 * ARRIVAL_INTERVAL_CYCLES,
                );
                spans.end(sc, &[]);
                match res {
                    Ok(()) => admitted.push((tpl, v)),
                    Err(e) => {
                        eprintln!("# FAILED query {id}: {e}");
                        r.failed += 1;
                    }
                }
            }
            let sr = spans.begin("serve.run", None);
            let report = engine::serve(&mut server, pool);
            spans.end(sr, &[("queries", admitted.len() as f64)]);
            spans.end(sb, &[]);
            report
        });
        r.batches.push(timed);
        match report {
            Ok(rep) => {
                for (q, &(tpl, v)) in rep.queries.iter().zip(&admitted) {
                    let want = prep.expected[tpl][v];
                    if q.qualified != want.qualified || q.sum != want.sum {
                        eprintln!(
                            "# FAILED {}: got ({}, {}), oracle {want:?}",
                            q.label, q.qualified, q.sum
                        );
                        r.failed += 1;
                    }
                    r.tuples += prep.rows[tpl] as f64;
                }
                r.counters.accumulate(&pool.counters());
                r.slots.extend(admitted);
                r.reports.push(rep);
            }
            Err(e) => {
                eprintln!("# FAILED batch {b}: {e}");
                r.failed += admitted.len() as u64;
                server = engine::new_server();
            }
        }
    }
    r
}

pub fn serve_mix(ctx: &Ctx) -> Report {
    let sizes = if ctx.small {
        ServeSizes {
            scan: 1 << 12,
            fact: 1 << 13,
            customer: 1 << 11,
            part: 1 << 12,
            background: 1 << 14,
        }
    } else {
        // part's probed column is 512 KiB: between the 64 KiB L2 and the
        // 1 MiB LLC.
        ServeSizes {
            scan: 1 << 16,
            fact: 1 << 17,
            customer: 1 << 15,
            part: 1 << 17,
            background: 1 << 18,
        }
    };
    let mut spans = Spans::new(ctx.trace);
    let (setup_s, tables) = setup(
        &mut spans,
        || gen::serve_tables(sizes, ctx.seed, &mut AddressSpace::new()),
        || drop(std::hint::black_box(engine::new_pool(WORKERS))),
    );

    let mut prep = Prepared {
        expected: Vec::new(),
        rows: Vec::new(),
    };
    for tpl in 0..SERVE_TEMPLATES.len() {
        let q = gen::serve_query(&tables, tpl, 0);
        prep.rows.push(q.fact.rows());
        prep.expected.push(
            (0..SERVE_VARIANTS)
                .map(|v| Oracle::new(&gen::serve_query(&tables, tpl, v)).expected())
                .collect(),
        );
    }
    if ctx.corrupt {
        prep.expected[0][0].sum = prep.expected[0][0].sum.wrapping_add(1);
    }
    let mut calib = Calibrator::new();
    if ctx.trace {
        return traced(ctx, spans, &tables, &prep, &mut calib);
    }

    let t = Instant::now();
    let mut first: Option<Round> = None;
    let mut times = RoundTimes::default();
    let mut sim: Vec<(f64, f64, f64)> = Vec::new();
    let (mut failed, mut attempted) = (0, 0);
    while first.is_none() || t.elapsed().as_secs_f64() < ctx.seconds {
        let r = round(&tables, &prep, &mut spans, &mut calib, None);
        times.push(&r.batches, r.tuples, REF_NS_PER_STEP);
        sim.push(r.sim_metrics());
        failed += r.failed;
        attempted += r.attempted;
        first.get_or_insert(r);
    }
    let first = first.expect("at least one round");
    let col = |f: fn(&(f64, f64, f64)) -> f64| median(&sim.iter().map(f).collect::<Vec<_>>());
    let mean_cost = first
        .outcomes()
        .map(|q| q.cost_cycles() as f64)
        .sum::<f64>()
        / first.outcomes().count().max(1) as f64;
    eprintln!(
        "# {}; {} queries per round; offered load {:.2} of the pool",
        times.note(REF_NS_PER_STEP),
        BATCHES * QUERIES_PER_BATCH,
        mean_cost / (WORKERS as f64 * ARRIVAL_INTERVAL_CYCLES as f64),
    );
    let ghz = engine::machine().timing.frequency_ghz;
    for p in PRIORITIES {
        let lat: Vec<f64> = first
            .outcomes()
            .filter(|q| q.priority == p)
            .map(|q| q.latency_cycles as f64 / (ghz * 1e6))
            .collect();
        eprintln!(
            "# {:<6} priority: {} queries, simulated latency p50 {:.3} ms, p95 {:.3} ms",
            p.label(),
            lat.len(),
            median(&lat),
            percentile(&lat, 0.95)
        );
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("host_ns_per_tuple", times.ns_per_tuple(), "ns"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
            ("sim_cycles_per_tuple", col(|s| s.0), "cycles"),
            ("sim_latency_p50_ms", col(|s| s.1), "ms"),
            ("sim_latency_p95_ms", col(|s| s.2), "ms"),
        ],
    }
}

/// Rounds of each kind the traced run alternates.
const TRACE_PAIRS: usize = 2;
/// Served queries estimate once per `reop_interval` (4) rounds.
const REPLAY_EVERY: usize = 4;

/// Static-order reference costs per `[template][variant]`.
struct Statics {
    start: Vec<Vec<f64>>,
    best: Vec<Vec<f64>>,
}

fn traced(
    ctx: &Ctx,
    mut spans: Spans,
    tables: &ServeTables,
    prep: &Prepared,
    calib: &mut Calibrator,
) -> Report {
    let drift = Arc::new(DriftObservatory::new());
    let (mut plain, mut traced, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        spans.set_on(false);
        plain.push(round(tables, prep, &mut spans, calib, None));
        spans.set_on(true);
        traced.push(round(tables, prep, &mut spans, calib, None));
        spans.set_on(false);
        observed.push(round(tables, prep, &mut spans, calib, Some(&drift)));
    }
    spans.set_on(true);
    let all = || plain.iter().chain(&traced).chain(&observed);
    let mut failed: u64 = all().map(|r| r.failed).sum();
    let mut attempted: u64 = all().map(|r| r.attempted).sum();
    // Served reports with reoptimization on depend on host thread order
    // (trial leasing), so only results are compared exactly; count how
    // many reports still matched bit for bit.
    let same = all()
        .flat_map(|r| r.reports.iter())
        .zip(plain[0].reports.iter().cycle())
        .filter(|(a, b)| a == b)
        .count();
    eprintln!(
        "# traced run: every result matches the oracle: {}; {same} of {} batch reports bit-identical to the first untraced round (host-order-dependent reoptimization)",
        failed == 0,
        all().map(|r| r.reports.len()).sum::<usize>()
    );

    // Static reference runs: the cold start order (plan order after the
    // standard passes), every order for the best, and replayed estimates
    // on the start-order run.
    let mut statics = Statics {
        start: vec![vec![0.0; SERVE_VARIANTS]; SERVE_TEMPLATES.len()],
        best: vec![vec![f64::INFINITY; SERVE_VARIANTS]; SERVE_TEMPLATES.len()],
    };
    let (mut err_sum, mut err_n, mut evals) = (0.0, 0.0, 0.0);
    let mut static_tuples = 0.0;
    for tpl in 0..SERVE_TEMPLATES.len() {
        for v in 0..SERVE_VARIANTS {
            let q = gen::serve_query(tables, tpl, v);
            let mut c = match engine::compile(&q) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("# FAILED static {tpl}-{v}: {e}");
                    attempted += 1;
                    failed += 1;
                    continue;
                }
            };
            let start = c.program.order().to_vec();
            for order in permutations(c.program.len()) {
                attempted += 1;
                let mut cpu = engine::new_cpu();
                let s = spans.begin("exec.static", None);
                let windows = engine::run_static(&mut c, &order, &mut cpu);
                spans.end(s, &[]);
                let Ok(w) = windows else {
                    failed += 1;
                    continue;
                };
                static_tuples += prep.rows[tpl] as f64;
                let qualified: u64 = w.iter().map(|w| w.qualified).sum();
                let sum = w.iter().fold(0i64, |a, w| a.wrapping_add(w.sum));
                if (Expected { qualified, sum }) != prep.expected[tpl][v] {
                    eprintln!("# FAILED static {tpl}-{v} order {order:?}");
                    failed += 1;
                }
                let cycles: f64 = w.iter().map(|w| w.counters.cycles as f64).sum();
                statics.best[tpl][v] = statics.best[tpl][v].min(cycles);
                if order != start {
                    continue;
                }
                statics.start[tpl][v] = cycles;
                let oracle = Oracle::new(&q);
                let pred_order = c.pred_order();
                for w in w.iter().skip(REPLAY_EVERY - 1).step_by(REPLAY_EVERY) {
                    let s = spans.begin("solver.estimate", None);
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
        }
    }

    let r0 = &plain[0];
    let ghz = engine::machine().timing.frequency_ghz;
    let out: Vec<_> = r0.outcomes().collect();
    let n = out.len() as f64;
    let cost: f64 = out.iter().map(|q| q.cost_cycles() as f64).sum();
    let optimizer: f64 = out.iter().map(|q| q.optimizer_cycles as f64).sum();
    let switches: f64 = out.iter().map(|q| q.switches.len() as f64).sum();
    let reverted = out
        .iter()
        .map(|q| q.switches.iter().filter(|s| s.reverted).count() as f64)
        .sum();
    let estimates: f64 = out.iter().map(|q| q.estimates as f64).sum();
    let start_sum: f64 = r0.slots.iter().map(|&(t, v)| statics.start[t][v]).sum();
    let best_sum: f64 = r0.slots.iter().map(|&(t, v)| statics.best[t][v]).sum();
    let per_tuple = |f: fn(&Counters) -> u64| f(&r0.counters.0) as f64 / r0.tuples;
    let later: Vec<_> = r0.reports.iter().skip(1).flat_map(|r| &r.queries).collect();
    let warm = later.iter().filter(|q| q.warm_start).count() as f64;
    let imbalance: Vec<f64> = r0
        .reports
        .iter()
        .map(|r| {
            let busy: Vec<f64> = r.per_worker_busy_cycles.iter().map(|&c| c as f64).collect();
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            ratio(busy.iter().copied().fold(0.0, f64::max), mean)
        })
        .collect();
    let occupancy: Vec<f64> = r0.reports.iter().map(|r| r.occupancy).collect();
    let queue_ms: Vec<f64> = out
        .iter()
        .map(|q| q.queue_cycles as f64 / (ghz * 1e6))
        .collect();
    let ref_start: f64 = statics.start.iter().flatten().sum();
    let ref_best: f64 = statics.best.iter().flatten().sum();
    let ref_tuples: f64 = prep.rows.iter().map(|&r| (r * SERVE_VARIANTS) as f64).sum();
    let solver_us = median(&spans.durations("solver.estimate")) / 1e3;
    let round_ns = |rs: &[Round]| {
        median(
            &rs.iter()
                .map(|r| calib::calibrated_ns(&r.batches, REF_NS_PER_STEP))
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
        (
            "storage.column_mb",
            column_mb(&[
                &tables.scan,
                &tables.fact,
                &tables.customer,
                &tables.part,
                &tables.background,
            ]),
            "MB",
        ),
        (
            "plan.compile_us_p50",
            median(&spans.durations("plan.compile")) / 1e3,
            "us",
        ),
        (
            "exec.host_ns_per_tuple",
            spans.total("exec.static") / static_tuples,
            "ns",
        ),
        (
            "exec.sim_cycles_per_tuple_start",
            ref_start / ref_tuples,
            "cycles",
        ),
        (
            "exec.sim_cycles_per_tuple_best",
            ref_best / ref_tuples,
            "cycles",
        ),
        (
            "cpu.ipc",
            ratio(r0.counters.instructions as f64, r0.counters.cycles as f64),
            "ratio",
        ),
        (
            "cpu.instructions_per_tuple",
            per_tuple(|c| c.instructions),
            "count",
        ),
        (
            "cpu.branch_mispredicts_per_tuple",
            per_tuple(Counters::mispredictions),
            "count",
        ),
        (
            "cpu.l2_accesses_per_tuple",
            per_tuple(|c| c.l2_accesses),
            "count",
        ),
        (
            "cpu.l3_accesses_per_tuple",
            per_tuple(|c| c.l3_accesses),
            "count",
        ),
        (
            "cpu.l3_misses_per_tuple",
            per_tuple(|c| c.l3_misses),
            "count",
        ),
        (
            "cpu.memory_accesses_per_tuple",
            per_tuple(|c| c.memory_accesses),
            "count",
        ),
        (
            "cpu.prefetches_per_tuple",
            per_tuple(|c| c.prefetch_requests),
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
            estimates / r0.tuples * 1e6,
            "count",
        ),
        ("progressive.switches_per_query", switches / n, "count"),
        (
            "progressive.revert_share",
            ratio(reverted, switches),
            "ratio",
        ),
        (
            "progressive.optimizer_share",
            ratio(optimizer, cost),
            "ratio",
        ),
        (
            "progressive.speedup_vs_start",
            ratio(start_sum, cost),
            "ratio",
        ),
        ("progressive.regret", ratio(cost, best_sum), "ratio"),
        (
            "progressive.solver_host_share",
            ratio(
                estimates * solver_us * 1e3,
                spans.total("serve.run") / traced.len() as f64 * WORKERS as f64,
            ),
            "ratio",
        ),
        ("parallel.occupancy", median(&occupancy), "ratio"),
        ("parallel.worker_imbalance", median(&imbalance), "ratio"),
        (
            "parallel.morsels_per_query",
            out.iter().map(|q| q.morsels as f64).sum::<f64>() / n,
            "count",
        ),
        ("serve.queue_ms_p50", median(&queue_ms), "ms"),
        (
            "serve.warm_start_share",
            ratio(warm, later.len() as f64),
            "ratio",
        ),
        ("serve.optimizer_share", ratio(optimizer, cost), "ratio"),
        (
            "serve.host_ms_per_batch",
            median(&spans.durations("serve.batch")) / 1e6,
            "ms",
        ),
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
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

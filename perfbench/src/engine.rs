//! The one adapter between the benchmark and the engine.
//!
//! Every engine call the benchmark makes goes through this file, and only
//! through the surface the engine keeps long term: `PlanBuilder` →
//! `LogicalPlan::{optimize, compile}`, `CompiledProgram::{reorder,
//! run_range, plan_geometry}`, `run_progressive_program` (and its
//! observer-carrying form, for the observer-overhead measurement),
//! `estimate_selectivities`, and `QueryServer` fed by
//! `QuerySpec::from_plan`. A later change to the engine's API is absorbed
//! here without touching the workloads.
//!
//! The benchmark also owns its simulated machine ([`machine`]): the
//! paper's Xeon with the hierarchy scaled to 8 KiB / 64 KiB / 1 MiB.

use std::sync::Arc;

use popt_core::parallel::MorselConfig;
use popt_core::plan::{Expr, PlanBuilder};
use popt_core::predicate::CompareOp;
use popt_core::serve::ServeConfig;
use popt_core::{
    run_progressive_program, run_progressive_program_observed, CompiledProgram, EngineError,
    ExecObservers, Priority, ProgressiveConfig, ProgressiveReport, QueryServer, QuerySpec,
    ServeReport, VectorConfig,
};
use popt_cpu::{CacheLevelConfig, CounterDelta, CpuConfig, CpuPool, SimCpu};
use popt_obs::{DriftObservatory, MemorySink, Tracer};
use popt_solver::{estimate_selectivities, EstimatorConfig, SampledCounters};

use crate::query::{Op, Query, Source};

/// Tuples per vector of the serial progressive loop.
pub const VECTOR_TUPLES: usize = 4_096;

/// Tuples per morsel of the served queries.
pub const MORSEL_TUPLES: usize = 1_024;

/// The simulated machine: `CpuConfig::xeon_e5_2630_v2()` (predictor,
/// timing, prefetcher) with an 8 KiB L1d, 64 KiB L2 and 1 MiB LLC, small
/// enough that benchmark-sized dimensions fall on either side of each
/// level.
pub fn machine() -> CpuConfig {
    let mut cfg = CpuConfig::xeon_e5_2630_v2();
    cfg.name = "benchmark Xeon (8 KiB / 64 KiB / 1 MiB)";
    let level = |kib: u64, ways: u32, hit_latency_cycles: u64| CacheLevelConfig {
        capacity_bytes: kib * 1024,
        line_bytes: 64,
        ways,
        hit_latency_cycles,
    };
    cfg.levels = vec![level(8, 8, 0), level(64, 8, 10), level(1024, 16, 30)];
    cfg
}

pub fn new_cpu() -> SimCpu {
    SimCpu::new(machine())
}

pub fn new_pool(workers: usize) -> CpuPool {
    CpuPool::new(machine(), workers)
}

fn progressive_config() -> ProgressiveConfig {
    ProgressiveConfig::default()
}

fn vectors() -> VectorConfig {
    VectorConfig {
        vector_tuples: VECTOR_TUPLES,
        max_vectors: None,
    }
}

fn expr(column: &str, op: Op, literal: i64) -> Expr {
    let c = Expr::col(column);
    match op {
        Op::Lt => c.less_than(literal),
        Op::Le => c.at_most(literal),
        Op::Ge => c.at_least(literal),
    }
}

fn compare_op(op: Op) -> CompareOp {
    match op {
        Op::Lt => CompareOp::Lt,
        Op::Le => CompareOp::Le,
        Op::Ge => CompareOp::Ge,
    }
}

/// Build the query's logical plan: predicates in query order, then the
/// aggregates.
fn plan<'t>(q: &Query<'t>) -> popt_core::LogicalPlan<'t> {
    let mut b = PlanBuilder::scan(q.fact);
    for p in &q.preds {
        b = match p.source {
            Source::Fact(c) => b.filter_costed(expr(c, p.op, p.literal), p.extra_instructions),
            Source::Join { dim, fk, column } => b.join(dim, fk, expr(column, p.op, p.literal)),
        };
    }
    for a in &q.aggs {
        b = b.aggregate(*a);
    }
    b.build()
}

/// A compiled query and the map from its plan stages back to the query's
/// predicates (the static passes may reorder conjuncts).
pub struct Compiled<'t> {
    pub program: CompiledProgram<'t>,
    /// `stage_pred[j]` = index into `Query::preds` of plan stage `j`.
    pub stage_pred: Vec<usize>,
}

impl Compiled<'_> {
    /// Translate an order over query predicates into plan stage indices.
    pub fn stage_order(&self, pred_order: &[usize]) -> Vec<usize> {
        pred_order
            .iter()
            .map(|&q| {
                self.stage_pred
                    .iter()
                    .position(|&p| p == q)
                    .expect("every predicate lowers to one stage")
            })
            .collect()
    }

    /// Translate the program's current stage order into query indices.
    pub fn pred_order(&self) -> Vec<usize> {
        self.program
            .order()
            .iter()
            .map(|&j| self.stage_pred[j])
            .collect()
    }
}

/// `PlanBuilder` → `optimize` → `compile`, then identify each stage by
/// its column, probed dimension, operator and literal.
pub fn compile<'t>(q: &Query<'t>) -> Result<Compiled<'t>, String> {
    let program = plan(q)
        .optimize()
        .compile()
        .map_err(|e| format!("compile: {e}"))?;
    let base = |t: &popt_storage::Table, c: &str| t.column(c).map(|c| c.base_addr());
    let mut stage_pred = Vec::with_capacity(program.len());
    for j in 0..program.len() {
        let st = program.stage(j);
        let found = q.preds.iter().enumerate().position(|(k, p)| {
            let (col, dim) = match p.source {
                Source::Fact(c) => (base(q.fact, c), None),
                Source::Join { dim, fk, column } => (base(q.fact, fk), base(dim, column)),
            };
            !stage_pred.contains(&k)
                && col == Some(st.column_base())
                && dim == st.dim_base()
                && st.compare_op() == compare_op(p.op)
                && st.literal() == p.literal
        });
        stage_pred.push(found.ok_or_else(|| format!("stage {j} matches no predicate: {st:?}"))?);
    }
    if stage_pred.len() != q.preds.len() {
        return Err(format!(
            "{} predicates lowered to {} stages",
            q.preds.len(),
            stage_pred.len()
        ));
    }
    Ok(Compiled {
        program,
        stage_pred,
    })
}

/// The serial progressive loop from `start` (stage indices).
pub fn run_progressive(
    c: &mut Compiled<'_>,
    start: &[usize],
    cpu: &mut SimCpu,
) -> Result<ProgressiveReport, EngineError> {
    let cfg = progressive_config();
    run_progressive_program(&mut c.program, start, vectors(), cpu, &cfg)
}

/// [`run_progressive`] with a model-drift observatory attached.
pub fn run_progressive_observed(
    c: &mut Compiled<'_>,
    start: &[usize],
    cpu: &mut SimCpu,
    drift: Arc<DriftObservatory>,
) -> Result<ProgressiveReport, EngineError> {
    let cfg = progressive_config();
    let obs = ExecObservers::none().with_drift(drift);
    run_progressive_program_observed(&mut c.program, start, vectors(), cpu, &cfg, &obs)
}

/// One vector's measurements, in the benchmark's own terms.
pub struct Window {
    pub start: usize,
    pub end: usize,
    pub qualified: u64,
    pub sum: i64,
    pub counters: CounterDelta,
    sampled: SampledCounters,
}

/// Run the whole table vector by vector under a fixed stage order.
pub fn run_static(
    c: &mut Compiled<'_>,
    order: &[usize],
    cpu: &mut SimCpu,
) -> Result<Vec<Window>, EngineError> {
    c.program.reorder(order)?;
    let rows = c.program.rows();
    let mut out = Vec::with_capacity(rows.div_ceil(VECTOR_TUPLES));
    for start in (0..rows).step_by(VECTOR_TUPLES) {
        let end = (start + VECTOR_TUPLES).min(rows);
        let stats = c.program.run_range(cpu, start, end);
        out.push(Window {
            start,
            end,
            qualified: stats.qualified,
            sum: stats.sum,
            counters: stats.counters,
            sampled: stats.sampled_counters(),
        });
    }
    Ok(out)
}

/// One replayed estimate.
pub struct Estimate {
    /// Estimated per-stage pass rates, in evaluation order.
    pub selectivities: Vec<f64>,
    pub evaluations: usize,
}

/// Replay the progressive loop's estimator on a window's sampled
/// counters, with the geometry of the program's current order and the
/// loop's cold calibration (every probe assumed random).
pub fn replay_estimate(c: &Compiled<'_>, w: &Window) -> Estimate {
    let cfg = machine();
    let llc_bytes = cfg.llc().capacity_bytes;
    let clustering = vec![1.0; c.program.len()];
    let geom = c
        .program
        .plan_geometry(w.sampled.n_input, &cfg, llc_bytes, &clustering);
    let r = estimate_selectivities(&geom, &w.sampled, &EstimatorConfig::default());
    Estimate {
        selectivities: r.selectivities,
        evaluations: r.evaluations,
    }
}

/// A query server with the benchmark's serving settings: default
/// reoptimization cadence, order cache on, `MORSEL_TUPLES` morsels.
pub fn new_server<'t>() -> QueryServer<'t> {
    QueryServer::new(ServeConfig {
        morsels: MorselConfig::new(MORSEL_TUPLES),
        ..Default::default()
    })
}

/// Attach a memory-sink tracer and a drift observatory to `server`.
pub fn observe_server(server: &mut QueryServer<'_>, workers: usize, drift: Arc<DriftObservatory>) {
    let sink = Arc::new(MemorySink::new());
    server.set_tracer(Arc::new(Tracer::for_workers(sink, workers)));
    server.set_drift(drift);
}

/// Plan, optimize and compile `q` into a served query.
pub fn admit<'t>(
    server: &mut QueryServer<'t>,
    q: &Query<'t>,
    label: String,
    priority: Priority,
    arrival_cycles: u64,
) -> Result<(), EngineError> {
    server.admit(QuerySpec::from_plan(
        label,
        plan(q),
        priority,
        arrival_cycles,
    )?);
    Ok(())
}

pub fn serve(server: &mut QueryServer<'_>, pool: &mut CpuPool) -> Result<ServeReport, EngineError> {
    server.run(pool)
}

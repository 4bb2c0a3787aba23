//! The progressive optimization loop (Section 4.4, Figure 10).
//!
//! Execution proceeds vector-at-a-time. After every *ReopInt* vectors the
//! optimizer:
//!
//! 1. takes the performance-counter sample of the most recent vector
//!    (non-invasive — the counters were running anyway);
//! 2. infers per-predicate selectivities with the multi-start Nelder–Mead
//!    estimator of Section 4.2/4.3;
//! 3. reorders the PEO ascending by estimated selectivity and, if that
//!    differs from the running order, switches ("a JIT-compiled system
//!    would compile a new binary; a vectorized system chains pre-compiled
//!    primitives in the new order");
//! 4. executes one **trial vector** under the new order and compares the
//!    counters against the pre-switch vector: improvements keep the new
//!    order, deteriorations reinstate the old one.
//!
//! Skew is caught by the periodic re-sampling itself; correlation can
//! additionally be probed by occasional exploratory orders (Section 4.5),
//! enabled via [`ProgressiveConfig::explore_correlation`].
//!
//! ## One loop, one executor
//!
//! Sections 5.5–5.6 generalize the approach from predicate orders to
//! *operator* orders — expensive selections versus foreign-key join
//! filters. Every query lowers to one [`CompiledProgram`] (through
//! [`crate::plan::LogicalPlan::compile`]), and one loop drives it:
//! [`run_progressive_program`]. The reorder decision ranks stages by
//! estimated **cost per input tuple** (an LLC-thrashing probe is not
//! comparable to a register compare), and each join's probe clustering is
//! *calibrated* from the sampled counters — the Equation-1 comparison of
//! Section 5.5, with trial vectors doubling as measurement probes for
//! joins whose locality has never been observed.

use popt_cost::cycles::{stage_costs_per_input_tuple, CycleParams};
use popt_cost::estimate::{estimate_counters, PlanGeometry};
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{CpuConfig, NumaPlacement, SimCpu};
use popt_solver::{estimate_selectivities, CalibrationSnapshot, EstimatorConfig, SampledCounters};

use crate::error::EngineError;
use crate::exec::program::{CompiledProgram, VectorStats};
use crate::observe::{front_stage_key, morsel_stage_parts, record_fit_drift, ExecObservers};
use crate::plan::{order_by_cost_per_tuple, Peo};

/// Streaming footprint one scanned column claims in the last-level
/// cache, for [`CompiledProgram::hot_set_bytes`] declarations: streamed
/// lines are touched once and evicted, so only a small in-flight window
/// (a few dozen lines of read-ahead) ever competes for capacity — unlike
/// a probed dimension, which wants to stay resident in full.
pub const STREAM_HOT_BYTES_PER_COLUMN: u64 = 4 * 1024;

/// Extra profiling weight a join-probe stage carries on top of its
/// instruction charge, standing in for its per-tuple memory stalls (an
/// LLC-hit latency's worth — attribution weighting only, never a cost
/// the simulation charges).
pub(crate) const PROFILE_PROBE_WEIGHT: f64 = 30.0;

/// Configuration of the progressive optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveConfig {
    /// Vectors between optimization attempts (the paper evaluates 10, 75
    /// and 200; short intervals react fastest, Section 5.3–5.4).
    pub reop_interval: usize,
    /// Selectivity estimator settings.
    pub estimator: EstimatorConfig,
    /// Reinstate the previous PEO if the trial vector deteriorates.
    pub revert_on_regression: bool,
    /// Relative cycles-per-tuple slack before a trial counts as a
    /// regression.
    pub regression_tolerance: f64,
    /// Periodically execute one vector under an exploratory PEO to detect
    /// correlation effects that the current order cannot reveal
    /// (Section 4.5).
    pub explore_correlation: bool,
    /// Cycles charged per estimator objective evaluation, accounting for
    /// the optimization time the paper discusses in Section 5.7.
    pub cycles_per_estimator_eval: u64,
    /// Optimization rounds for which a *reverted* order is remembered and
    /// not re-proposed. Correlated predicates (e.g. two bounds on one
    /// column, Section 4.5) make the independence-based reorder disagree
    /// with measured reality; without this memory the optimizer would pay
    /// a failed trial vector at every interval.
    pub rejection_ttl: usize,
}

impl Default for ProgressiveConfig {
    fn default() -> Self {
        Self {
            reop_interval: 10,
            estimator: EstimatorConfig::default(),
            revert_on_regression: true,
            regression_tolerance: 0.02,
            explore_correlation: true,
            cycles_per_estimator_eval: 60,
            rejection_ttl: 2,
        }
    }
}

/// One PEO switch performed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Vector index at which the switch took effect.
    pub vector: usize,
    /// Order before the switch.
    pub from: Peo,
    /// Order after the switch.
    pub to: Peo,
    /// Whether the trial vector regressed and the switch was undone.
    pub reverted: bool,
    /// Whether this was an exploratory (correlation-probing) switch
    /// rather than an estimator-driven one.
    pub exploratory: bool,
}

/// Outcome of a full (baseline or progressive) query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveReport {
    /// Qualifying tuples.
    pub qualified: u64,
    /// Aggregate sum.
    pub sum: i64,
    /// Total simulated cycles, including optimizer time.
    pub cycles: u64,
    /// Total simulated milliseconds.
    pub millis: f64,
    /// Vectors executed.
    pub vectors: usize,
    /// PEO switches, in order.
    pub switches: Vec<SwitchEvent>,
    /// Estimator invocations.
    pub estimates: usize,
    /// Cycles attributed to the optimizer itself.
    pub optimizer_cycles: u64,
    /// The order in effect when execution finished.
    pub final_peo: Peo,
    /// Total counters across the run.
    pub counters: CounterDelta,
    /// Per-vector cycle counts (for convergence plots).
    pub per_vector_cycles: Vec<u64>,
}

impl ProgressiveReport {
    // Private assembly helper for the two runners; the argument list is
    // the report's field list, so grouping them into a carrier struct
    // would just duplicate the type.
    #[allow(clippy::too_many_arguments)]
    fn from_run(
        accumulated: VectorStats,
        vectors: usize,
        switches: Vec<SwitchEvent>,
        estimates: usize,
        optimizer_cycles: u64,
        final_peo: Peo,
        per_vector_cycles: Vec<u64>,
        frequency_ghz: f64,
    ) -> Self {
        let cycles = accumulated.counters.cycles + optimizer_cycles;
        Self {
            qualified: accumulated.qualified,
            sum: accumulated.sum,
            cycles,
            millis: cycles as f64 / (frequency_ghz * 1e6),
            vectors,
            switches,
            estimates,
            optimizer_cycles,
            final_peo,
            counters: accumulated.counters,
            per_vector_cycles,
        }
    }
}

/// Vectorization parameters of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorConfig {
    /// Tuples per vector.
    pub vector_tuples: usize,
    /// Cap on the number of vectors (`None` = scan the whole table).
    pub max_vectors: Option<usize>,
}

impl VectorConfig {
    /// Validate and compute the vector ranges for a table of `rows`.
    pub fn ranges(&self, rows: usize) -> Result<Vec<(usize, usize)>, EngineError> {
        if self.vector_tuples == 0 {
            return Err(EngineError::InvalidVectorConfig("vector_tuples = 0".into()));
        }
        let mut out = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + self.vector_tuples).min(rows);
            out.push((start, end));
            start = end;
            if let Some(max) = self.max_vectors {
                if out.len() >= max {
                    break;
                }
            }
        }
        Ok(out)
    }
}

/// Execute `program` in its current order for the whole run — the
/// paper's "common execution pattern" baseline.
pub fn run_baseline(
    program: &CompiledProgram<'_>,
    vectors: VectorConfig,
    cpu: &mut SimCpu,
) -> Result<ProgressiveReport, EngineError> {
    let ranges = vectors.ranges(program.rows())?;
    let mut total = VectorStats::zero();
    let mut per_vector = Vec::with_capacity(ranges.len());
    for &(start, end) in &ranges {
        let stats = program.run_range(cpu, start, end);
        per_vector.push(stats.counters.cycles);
        total.accumulate(&stats);
    }
    let freq = cpu.config().timing.frequency_ghz;
    Ok(ProgressiveReport::from_run(
        total,
        ranges.len(),
        Vec::new(),
        0,
        0,
        program.order().to_vec(),
        per_vector,
        freq,
    ))
}

/// Runtime-learned probe locality of a program's foreign-key join
/// stages: one clustering estimate per *plan* stage, which stages were
/// ever observed, and which already spent their measurement probe.
pub(crate) struct ProbeCalibration {
    /// Per plan-stage clustering estimate (1.0 = assume uniform random,
    /// the textbook-pessimistic prior; meaningless for selects).
    clustering: Vec<f64>,
    /// Whether the stage's clustering was ever calibrated from a sample.
    measured: Vec<bool>,
    /// Whether a measurement probe was already spent on the stage.
    probed: Vec<bool>,
}

impl ProbeCalibration {
    pub(crate) fn cold(stages: usize) -> Self {
        Self {
            clustering: vec![1.0; stages],
            measured: vec![false; stages],
            probed: vec![false; stages],
        }
    }

    pub(crate) fn clustering(&self) -> &[f64] {
        &self.clustering
    }

    /// Solve the front stage's clustering from a vector's L3 sample. Only
    /// the front probe is solved for: it sees every tuple of the vector,
    /// so its contribution dominates the L3 signal, while the later
    /// stages' (smaller) contributions are carried by their current
    /// estimates inside `geom`. The caller has checked that `front` is a
    /// join stage.
    fn calibrate_front(
        &mut self,
        front: usize,
        geom: &PlanGeometry,
        sampled: &SampledCounters,
        survivors: &[f64],
    ) {
        let predict_at = |clustering: f64| -> f64 {
            let mut g = geom.clone();
            if let Some(p) = g.probes[0].as_mut() {
                p.clustering = clustering;
            }
            estimate_counters(&g, survivors).l3_accesses
        };
        let lo = predict_at(0.0);
        let hi = predict_at(1.0);
        if hi - lo < 1.0 {
            // The probe produces no L3 signal (dimension resident above
            // the LLC) — nothing to learn, but the stage is observed.
            self.measured[front] = true;
            return;
        }
        let solved = ((sampled.l3_accesses as f64 - lo) / (hi - lo)).clamp(0.0, 1.0);
        let c = &mut self.clustering[front];
        // First observation replaces the prior; later ones smooth, so a
        // single skewed vector cannot flip a settled belief.
        *c = if self.measured[front] {
            0.5 * *c + 0.5 * solved
        } else {
            solved
        };
        self.measured[front] = true;
    }

    /// An order that moves the first never-observed, never-probed join to
    /// the front, spending its probe budget; `None` when nothing is left
    /// to learn (or the candidate already runs at the front).
    fn take_probe_order(
        &mut self,
        order: &[usize],
        is_join: impl Fn(usize) -> bool,
    ) -> Option<Peo> {
        for (pos, &j) in order.iter().enumerate() {
            if !is_join(j) || self.measured[j] || self.probed[j] {
                continue;
            }
            if pos == 0 {
                // Already at the front: the next calibration covers it.
                return None;
            }
            self.probed[j] = true;
            let mut probe = Vec::with_capacity(order.len());
            probe.push(j);
            probe.extend(order.iter().copied().filter(|&x| x != j));
            return Some(probe);
        }
        None
    }

    fn restore(&mut self, snapshot: &CalibrationSnapshot) {
        self.clustering = snapshot
            .clustering
            .iter()
            .map(|c| c.clamp(0.0, 1.0))
            .collect();
        self.measured = snapshot.measured.clone();
        // Measured stages need no measurement probe; unmeasured ones keep
        // their probe budget (`probed` stays false) so a template whose
        // earlier runs never observed a stage can still learn it.
    }
}

/// A [`CompiledProgram`] as the progressive loop drives it: the program
/// (order tracking and execution) plus the estimator-side model — the
/// geometry the selectivity fit prices, the cost-per-input-tuple order
/// proposal, and the runtime probe-locality calibration of its join
/// stages. The serial loop, the parallel coordinator (as the *master*
/// target that never executes a morsel) and every served query drive
/// one of these.
///
/// Orders are ranked by estimated cost per input tuple (an LLC-thrashing
/// probe is not comparable to a register compare); with uniform stage
/// costs and no probes the rank degenerates to the ascending-selectivity
/// rule of Section 4.4. Each join stage's probe clustering is calibrated
/// from the counters whenever the stage runs at the front (the position
/// where its signal dominates the sample), and trial vectors double as
/// measurement probes for joins whose locality was never observed. A
/// program without joins has nothing to calibrate, so it pays no trial
/// fits and exports no calibration.
///
/// Calibration snapshots are keyed to the program's literal-free
/// [`CompiledProgram::stage_keys`], so a cached snapshot warm-starts any
/// query of the same *structure* regardless of its literals, and is
/// ignored for a structurally different program even when the stage
/// count happens to match.
pub(crate) struct CompiledTarget<'t> {
    program: CompiledProgram<'t>,
    cal: ProbeCalibration,
}

impl<'t> CompiledTarget<'t> {
    /// Wrap `program` with cold calibration state.
    pub(crate) fn new(program: CompiledProgram<'t>) -> Self {
        let stages = program.len();
        Self {
            program,
            cal: ProbeCalibration::cold(stages),
        }
    }

    /// The wrapped program (for sharding).
    pub(crate) fn program(&self) -> &CompiledProgram<'t> {
        &self.program
    }

    /// Unwrap the program, left in the target's current order.
    pub(crate) fn into_program(self) -> CompiledProgram<'t> {
        self.program
    }

    /// The current evaluation order (plan/stage indices).
    pub(crate) fn order(&self) -> Peo {
        self.program.order().to_vec()
    }

    /// Switch to `order` — a JIT system would compile a new binary, a
    /// vectorized system re-chains its pre-compiled primitives.
    pub(crate) fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.program.reorder(order)
    }

    /// Counter-model geometry of the current order for `n_input` tuples,
    /// priced against `llc_bytes` of *effective* last-level capacity (the
    /// full LLC on a private socket, the contention-shrunken share when a
    /// shared-socket pool partitioned it), so counter predictions — and
    /// the reorder decisions fitted against them — price contended miss
    /// rates.
    pub(crate) fn plan_geometry(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
    ) -> PlanGeometry {
        self.program
            .plan_geometry(n_input, cpu, llc_bytes, self.cal.clustering())
    }

    /// [`CompiledTarget::plan_geometry`] as seen from one socket of a NUMA
    /// pool: join-probe stages additionally price the fraction of their
    /// dimension homed on a *remote* socket under `placement`, so two
    /// sockets fitting the same counters can rank the same stages
    /// differently — per-socket order divergence.
    pub(crate) fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        self.program.plan_geometry_numa(
            n_input,
            cpu,
            llc_bytes,
            self.cal.clustering(),
            placement,
            socket,
        )
    }

    /// Propose an evaluation order given per-stage selectivity estimates
    /// (in current evaluation order).
    pub(crate) fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        let costs = stage_costs_per_input_tuple(
            geom,
            &self.program.stage_instructions(),
            selectivities,
            &CycleParams::default(),
        );
        order_by_cost_per_tuple(self.program.order(), &costs, selectivities)
    }

    /// Whether the program learns anything at runtime — only join probes
    /// carry a calibrated locality. Such a program estimates its trial
    /// vectors too (one estimator run per trial, feeding
    /// [`CompiledTarget::calibrate`] even outside reopt rounds); one
    /// without joins pays no trial fits and exports no calibration.
    pub(crate) fn calibrates(&self) -> bool {
        (0..self.program.len()).any(|j| self.program.stage(j).is_join())
    }

    /// Update the probe calibration from a sampled vector and the survivor
    /// estimate fitted to it. `geom` is the geometry the estimate was
    /// fitted against, i.e. it describes the order that produced the
    /// sample.
    pub(crate) fn calibrate(
        &mut self,
        geom: &PlanGeometry,
        sampled: &SampledCounters,
        survivors: &[f64],
    ) {
        let front = self.program.order()[0];
        if !self.program.stage(front).is_join() {
            return;
        }
        self.cal.calibrate_front(front, geom, sampled, survivors);
    }

    /// An exploratory order that moves an unmeasured join to the front,
    /// consumed at most once per join. The loop runs it as a trial
    /// vector: accept/revert semantics still apply, and the trial's
    /// sample feeds [`CompiledTarget::calibrate`].
    pub(crate) fn take_probe_order(&mut self) -> Option<Peo> {
        let order = self.program.order().to_vec();
        self.cal
            .take_probe_order(&order, |j| self.program.stage(j).is_join())
    }

    /// Export the runtime-learned calibration so a later execution of the
    /// same workload template can start from it (`None` for a program
    /// without joins, which learns nothing at runtime).
    pub(crate) fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        self.calibrates().then(|| {
            CalibrationSnapshot::keyed(
                self.cal.clustering.clone(),
                self.cal.measured.clone(),
                self.program.stage_keys(),
            )
        })
    }

    /// Seed the calibration from a prior run's snapshot. A snapshot whose
    /// keys do not match the program is ignored — a wrong warm start may
    /// cost performance, never correctness, so the restore path degrades
    /// to a cold start rather than erroring.
    pub(crate) fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        if !snapshot.matches_keys(&self.program.stage_keys()) {
            return;
        }
        self.cal.restore(snapshot);
    }

    /// Intrinsic per-evaluation profiling weight of each stage,
    /// *plan*-indexed: the relative cost of pushing one tuple through the
    /// stage, used by the cycle profiler to split a morsel's measured
    /// cycles across its stages. Join probes are surcharged for their
    /// memory stalls.
    pub(crate) fn stage_profile_weights(&self) -> Vec<f64> {
        let order = self.program.order();
        let instr = self.program.stage_instructions();
        let mut weights = vec![1.0; order.len()];
        for (k, &j) in order.iter().enumerate() {
            let probe = if self.program.stage(j).is_join() {
                PROFILE_PROBE_WEIGHT
            } else {
                0.0
            };
            weights[j] = instr.get(k).copied().unwrap_or(1.0) + probe;
        }
        weights
    }
}

/// Execute a compiled program starting from `initial_order` with
/// progressive reordering enabled — the execution entry point the
/// frontend's `plan → passes → compile` chain feeds into. Stages are
/// reordered by estimated cost per input tuple, with probe clustering
/// calibrated from the sampled counters (Sections 5.5–5.6).
///
/// The program is left in the final order the run converged to.
pub fn run_progressive_program(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    config: &ProgressiveConfig,
) -> Result<ProgressiveReport, EngineError> {
    run_progressive_program_observed(
        program,
        initial_order,
        vectors,
        cpu,
        config,
        &ExecObservers::none(),
    )
}

/// [`run_progressive_program`] with observers attached: the profiler
/// receives every vector's cycles (attributed across the stages of the
/// order it ran under, worker 0 / socket 0, zero idle) and every
/// estimator charge; the drift observatory receives every fit's
/// predicted-vs-observed residuals. Observation is non-invasive — the
/// report is bit-identical with and without observers.
pub fn run_progressive_program_observed(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    config: &ProgressiveConfig,
    obs: &ExecObservers,
) -> Result<ProgressiveReport, EngineError> {
    program.reorder(initial_order)?;
    let mut target = CompiledTarget::new(program.clone());
    let report = run_loop(&mut target, vectors, cpu, config, obs)?;
    *program = target.into_program();
    Ok(report)
}

/// The §4.4 loop: sample counters per vector, estimate per-stage pass
/// rates, reorder, trial, revert on regression, with stall-triggered
/// exploration (Section 4.5), rejection memory, and measurement probes
/// for joins whose locality was never observed.
fn run_loop(
    target: &mut CompiledTarget<'_>,
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    config: &ProgressiveConfig,
    obs: &ExecObservers,
) -> Result<ProgressiveReport, EngineError> {
    if config.reop_interval == 0 {
        return Err(EngineError::InvalidVectorConfig("reop_interval = 0".into()));
    }
    let ranges = vectors.ranges(target.program().rows())?;
    let cpu_cfg = cpu.config().clone();
    // The capacity every fit prices against: this core's LLC slice (the
    // full socket unless a shared pool shrank it).
    let llc_bytes = cpu.llc_effective_bytes();

    let mut total = VectorStats::zero();
    let mut per_vector = Vec::with_capacity(ranges.len());
    let mut switches: Vec<SwitchEvent> = Vec::new();
    let mut estimates = 0usize;
    let mut optimizer_cycles = 0u64;
    // Pending trial: (pre-switch cycles-per-tuple, index into `switches`).
    let mut pending_trial: Option<(f64, usize)> = None;
    let mut reopt_count = 0usize;
    // Reopt round of the most recent *accepted* switch (for stall
    // detection).
    let mut last_accept_reopt = 0usize;
    // Recently reverted orders: (order, reopt round it was rejected at).
    let mut rejected: Vec<(Peo, usize)> = Vec::new();
    // Cycles-per-tuple of the most recent vector, for end-of-scan trial
    // resolution.
    let mut last_cpt = 0.0f64;
    // Observation-only state: literal-free keys and profiling weights
    // (plan-indexed, order-independent), and the profiler's timeline
    // position (executed + optimizer cycles so far).
    let stage_keys = target.program().stage_keys();
    let plan_weights = target.stage_profile_weights();
    let mut prof_pos = 0u64;

    for (v_idx, &(start, end)) in ranges.iter().enumerate() {
        let stats = target.program().run_range(cpu, start, end);
        if let Some(prof) = &obs.profiler {
            // `order()` still names the order this vector ran under —
            // switches happen below, after the measurements are taken.
            let parts = morsel_stage_parts(&target.order(), &plan_weights, &stats);
            prof.record_morsel(0, 0, prof_pos, &parts);
        }
        prof_pos += stats.counters.cycles;
        per_vector.push(stats.counters.cycles);
        last_cpt = stats.cycles_per_tuple();

        // Estimate fitted to this vector's sample, valid only while the
        // order that produced the sample is still in effect (a revert
        // invalidates it). Lets a trial resolution that coincides with a
        // reopt round share one estimator run instead of paying twice.
        let mut vector_estimate = None;
        // Whether a revert made this vector's sample describe an order
        // that is no longer the current one.
        let mut sample_is_stale = false;

        // Resolve an outstanding trial against this vector's counters.
        if let Some((prev_cpt, switch_idx)) = pending_trial.take() {
            // Trial vectors double as measurement opportunities: estimate
            // the sample *under the order that produced it* and let the
            // target calibrate, before any revert discards that order.
            if target.calibrates() {
                let sampled = stats.sampled_counters();
                let geom = target.plan_geometry(sampled.n_input, &cpu_cfg, llc_bytes);
                let estimate = estimate_selectivities(&geom, &sampled, &config.estimator);
                estimates += 1;
                let spent = estimate.evaluations as u64 * config.cycles_per_estimator_eval;
                optimizer_cycles += spent;
                if let Some(prof) = &obs.profiler {
                    prof.record_optimizer(0, 0, prof_pos, spent);
                }
                prof_pos += spent;
                if let Some(drift) = &obs.drift {
                    // The trial order that produced the sample is still
                    // in effect here (a revert happens below).
                    record_fit_drift(
                        drift,
                        front_stage_key(&stage_keys, &target.order()),
                        &geom,
                        &sampled,
                        &estimate.survivors,
                        stats.cycles_per_tuple(),
                    );
                }
                target.calibrate(&geom, &sampled, &estimate.survivors);
                vector_estimate = Some((geom, estimate));
            }
            let cpt = stats.cycles_per_tuple();
            if config.revert_on_regression && cpt > prev_cpt * (1.0 + config.regression_tolerance) {
                let old = switches[switch_idx].from.clone();
                rejected.push((target.order(), reopt_count));
                target.set_order(&old)?;
                switches[switch_idx].reverted = true;
                vector_estimate = None;
                sample_is_stale = true;
            } else {
                last_accept_reopt = reopt_count;
            }
        }

        total.accumulate(&stats);

        // Optimization point?
        let at_interval = (v_idx + 1) % config.reop_interval == 0;
        let more_vectors_remain = v_idx + 1 < ranges.len();
        if !(at_interval && more_vectors_remain) {
            continue;
        }
        reopt_count += 1;
        // Age out rejections every reopt round — including rounds that
        // end up exploratory — so a stale revert cannot suppress a
        // proposal for longer than its TTL.
        rejected.retain(|(_, at)| reopt_count - at <= config.rejection_ttl);

        // Explore a rotated order when optimization has stalled
        // (Section 4.5: "periodically execute different PEOs"). The tail
        // predicate is the one the sample says least about — it sees the
        // fewest tuples — so rotating it to the front gives it full
        // exposure and escapes local optima of the under-determined
        // estimation. Runs that keep converging never pay for this.
        // "Stalled" requires both no recent accepted switch AND an active
        // disagreement (a recently rejected proposal): a converged run
        // where the estimator proposes nothing never pays for exploration.
        let stalled = reopt_count >= last_accept_reopt + 3 && !rejected.is_empty();
        if config.explore_correlation && stalled && reopt_count % 2 == 0 {
            let current = target.order();
            let mut explored = current.clone();
            explored.rotate_right(1);
            if explored != current {
                switches.push(SwitchEvent {
                    vector: v_idx + 1,
                    from: current,
                    to: explored.clone(),
                    reverted: false,
                    exploratory: true,
                });
                pending_trial = Some((stats.cycles_per_tuple(), switches.len() - 1));
                target.set_order(&explored)?;
            }
            continue;
        }

        // Measurement probe: an order the target wants to observe once
        // (e.g. an unmeasured join moved to the front). Runs under the
        // same trial semantics as any other switch.
        if let Some(probe) = target.take_probe_order() {
            let current = target.order();
            if probe != current {
                switches.push(SwitchEvent {
                    vector: v_idx + 1,
                    from: current,
                    to: probe.clone(),
                    reverted: false,
                    exploratory: true,
                });
                pending_trial = Some((stats.cycles_per_tuple(), switches.len() - 1));
                target.set_order(&probe)?;
                continue;
            }
        }

        // Estimate selectivities from the most recent vector's sample,
        // reusing the trial-resolution fit when this vector was a trial
        // whose order survived.
        let (geom, estimate) = match vector_estimate {
            Some(fitted) => fitted,
            None => {
                let sampled = stats.sampled_counters();
                let geom = target.plan_geometry(sampled.n_input, &cpu_cfg, llc_bytes);
                let estimate = estimate_selectivities(&geom, &sampled, &config.estimator);
                estimates += 1;
                let spent = estimate.evaluations as u64 * config.cycles_per_estimator_eval;
                optimizer_cycles += spent;
                if let Some(prof) = &obs.profiler {
                    prof.record_optimizer(0, 0, prof_pos, spent);
                }
                prof_pos += spent;
                // A reverted trial leaves the sample describing the trial
                // order while `geom` describes the reinstated one —
                // calibrating (or scoring drift) against that mismatch
                // would corrupt a settled belief with a residual the
                // model never produced.
                if !sample_is_stale {
                    if let Some(drift) = &obs.drift {
                        record_fit_drift(
                            drift,
                            front_stage_key(&stage_keys, &target.order()),
                            &geom,
                            &sampled,
                            &estimate.survivors,
                            stats.cycles_per_tuple(),
                        );
                    }
                    target.calibrate(&geom, &sampled, &estimate.survivors);
                }
                (geom, estimate)
            }
        };

        let new_order = target.propose_order(&geom, &estimate.selectivities);
        // Skip orders a recent trial already rejected (correlation guard).
        if rejected.iter().any(|(order, _)| order == &new_order) {
            continue;
        }
        let current = target.order();
        if new_order != current {
            switches.push(SwitchEvent {
                vector: v_idx + 1,
                from: current,
                to: new_order.clone(),
                reverted: false,
                exploratory: false,
            });
            pending_trial = Some((stats.cycles_per_tuple(), switches.len() - 1));
            target.set_order(&new_order)?;
        }
    }

    // Resolve a trial left outstanding at end of scan (defensive: the
    // loop above only schedules trials when another vector remains, but a
    // switch must never stay silently accepted without its comparison).
    if let Some((prev_cpt, switch_idx)) = pending_trial.take() {
        if config.revert_on_regression && last_cpt > prev_cpt * (1.0 + config.regression_tolerance)
        {
            let old = switches[switch_idx].from.clone();
            target.set_order(&old)?;
            switches[switch_idx].reverted = true;
        }
    }

    if let Some(prof) = &obs.profiler {
        // One lane, no co-runners: wall == busy, idle == 0. `prof_pos`
        // accumulated exactly executed + optimizer cycles, so the
        // conservation law holds bit-exactly.
        prof.finish(&[prof_pos]);
    }

    let freq = cpu.config().timing.frequency_ghz;
    Ok(ProgressiveReport::from_run(
        total,
        ranges.len(),
        switches,
        estimates,
        optimizer_cycles,
        target.order(),
        per_vector,
        freq,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Expr, PlanBuilder};
    use popt_cpu::CpuConfig;
    use popt_storage::{AddressSpace, ColumnData, Table};

    /// Table where predicate selectivities are very different: `lo` passes
    /// 5%, `mid` 50%, `hi` 95% — the optimal PEO is [lo, mid, hi].
    fn skewed_table(n: usize) -> Table {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        let pseudo = |i: usize, salt: u64| -> i32 {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ salt;
            ((x >> 33) % 100) as i32
        };
        t.add_column(
            "lo",
            ColumnData::I32((0..n).map(|i| pseudo(i, 1)).collect()),
            &mut space,
        );
        t.add_column(
            "mid",
            ColumnData::I32((0..n).map(|i| pseudo(i, 2)).collect()),
            &mut space,
        );
        t.add_column(
            "hi",
            ColumnData::I32((0..n).map(|i| pseudo(i, 3)).collect()),
            &mut space,
        );
        t
    }

    /// `lo < 5`, `mid < 50`, `hi < 95` over [`skewed_table`], in `order`.
    fn skewed_program<'t>(t: &'t Table, order: &[usize]) -> CompiledProgram<'t> {
        let mut program = PlanBuilder::scan(t)
            .filter(Expr::col("lo").less_than(5))
            .filter(Expr::col("mid").less_than(50))
            .filter(Expr::col("hi").less_than(95))
            .build()
            .compile()
            .unwrap();
        program.reorder(order).unwrap();
        program
    }

    /// Progressive run of the skewed program from `order`.
    fn progressive(
        t: &Table,
        order: &[usize],
        vectors: VectorConfig,
        cpu: &mut SimCpu,
        config: &ProgressiveConfig,
    ) -> Result<ProgressiveReport, EngineError> {
        let mut program = skewed_program(t, &[0, 1, 2]);
        run_progressive_program(&mut program, order, vectors, cpu, config)
    }

    fn vectors() -> VectorConfig {
        VectorConfig {
            vector_tuples: 2048,
            max_vectors: None,
        }
    }

    #[test]
    fn baseline_and_progressive_agree_on_results() {
        let t = skewed_table(16_384);
        let worst = vec![2usize, 1, 0];
        let mut cpu1 = SimCpu::new(CpuConfig::ivy_bridge());
        let base = run_baseline(&skewed_program(&t, &worst), vectors(), &mut cpu1).unwrap();
        let mut cpu2 = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &worst,
            vectors(),
            &mut cpu2,
            &ProgressiveConfig {
                reop_interval: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(base.qualified, prog.qualified);
        assert_eq!(base.sum, prog.sum);
    }

    #[test]
    fn progressive_converges_to_ascending_selectivity_order() {
        let t = skewed_table(16_384);
        let worst = vec![2usize, 1, 0]; // hi, mid, lo: descending selectivity
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &worst,
            vectors(),
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            prog.final_peo,
            vec![0, 1, 2],
            "switches: {:?}",
            prog.switches
        );
        assert!(!prog.switches.is_empty());
        assert!(prog.estimates > 0);
    }

    #[test]
    fn progressive_beats_bad_baseline() {
        let t = skewed_table(16_384);
        let worst = vec![2usize, 1, 0];
        let mut cpu1 = SimCpu::new(CpuConfig::ivy_bridge());
        let base = run_baseline(&skewed_program(&t, &worst), vectors(), &mut cpu1).unwrap();
        let mut cpu2 = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &worst,
            vectors(),
            &mut cpu2,
            &ProgressiveConfig {
                reop_interval: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            prog.cycles < base.cycles,
            "progressive {} !< baseline {}",
            prog.cycles,
            base.cycles
        );
    }

    #[test]
    fn good_initial_order_is_left_alone() {
        let t = skewed_table(16_384);
        let best = vec![0usize, 1, 2];
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &best,
            vectors(),
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // No net change of order; sporadic trial switches must revert.
        assert_eq!(prog.final_peo, best);
    }

    #[test]
    fn zero_reop_interval_is_rejected() {
        let t = skewed_table(1024);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let err = progressive(
            &t,
            &[0, 1, 2],
            vectors(),
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidVectorConfig(_)));
    }

    #[test]
    fn vector_ranges_cover_table_exactly() {
        let v = VectorConfig {
            vector_tuples: 1000,
            max_vectors: None,
        };
        let ranges = v.ranges(2500).unwrap();
        assert_eq!(ranges, vec![(0, 1000), (1000, 2000), (2000, 2500)]);
        let capped = VectorConfig {
            vector_tuples: 1000,
            max_vectors: Some(2),
        };
        assert_eq!(capped.ranges(2500).unwrap().len(), 2);
    }

    #[test]
    fn optimizer_cycles_are_accounted() {
        let t = skewed_table(8192);
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &[2, 1, 0],
            vectors(),
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(prog.optimizer_cycles > 0);
        assert_eq!(prog.cycles, prog.counters.cycles + prog.optimizer_cycles);
    }

    #[test]
    fn rejection_ttl_gates_reproposal_of_reverted_orders() {
        // Force every trial to regress (negative tolerance) with
        // exploration off: the estimator keeps proposing the same better
        // order, each proposal is reverted, and the rejection memory must
        // suppress the re-proposal for exactly `rejection_ttl` rounds —
        // pruned every reopt round, so proposals resume on schedule.
        let t = skewed_table(16_384);
        let ttl = 3usize;
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &[2, 1, 0],
            VectorConfig {
                vector_tuples: 512,
                max_vectors: None,
            },
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                regression_tolerance: -1.0,
                explore_correlation: false,
                rejection_ttl: ttl,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(prog.switches.iter().all(|s| s.reverted));
        assert!(
            prog.switches.len() >= 2,
            "rejections must age out and re-propose: {:?}",
            prog.switches
        );
        // With reop_interval = 1, rounds advance one per vector: two
        // proposals of the same order must be separated by more than the
        // TTL, and pruning every round means they are not separated by
        // much more (trial + revert + ttl rounds of suppression).
        for pair in prog.switches.windows(2) {
            if pair[0].to != pair[1].to {
                continue;
            }
            let gap = pair[1].vector - pair[0].vector;
            assert!(gap > ttl, "re-proposed within TTL: {:?}", prog.switches);
            assert!(
                gap <= ttl + 3,
                "pruning skipped rounds: {:?}",
                prog.switches
            );
        }
    }

    #[test]
    fn trial_on_last_vector_is_still_resolved() {
        // Schedule the only possible switch so that its trial vector is
        // the final vector of the scan: the regression must be detected
        // and the switch reverted rather than silently accepted.
        let t = skewed_table(4096);
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let prog = progressive(
            &t,
            &[2, 1, 0],
            VectorConfig {
                vector_tuples: 2048,
                max_vectors: None, // 2 vectors: reopt after v0, trial = v1
            },
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                regression_tolerance: -1.0, // every trial "regresses"
                explore_correlation: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(prog.vectors, 2);
        assert_eq!(prog.switches.len(), 1, "{:?}", prog.switches);
        assert!(
            prog.switches[0].reverted,
            "last-vector trial left unresolved: {:?}",
            prog.switches
        );
        assert_eq!(prog.final_peo, vec![2, 1, 0], "revert must restore order");
    }

    mod pipeline {
        use super::*;
        use popt_cpu::CacheLevelConfig;

        /// Small hierarchy (4/16/64 KiB) so a modest dimension table
        /// thrashes the LLC.
        fn small_cache_cpu() -> CpuConfig {
            let mut cfg = CpuConfig::xeon_e5_2630_v2();
            cfg.levels = vec![
                CacheLevelConfig {
                    capacity_bytes: 4 * 1024,
                    line_bytes: 64,
                    ways: 8,
                    hit_latency_cycles: 0,
                },
                CacheLevelConfig {
                    capacity_bytes: 16 * 1024,
                    line_bytes: 64,
                    ways: 8,
                    hit_latency_cycles: 10,
                },
                CacheLevelConfig {
                    capacity_bytes: 64 * 1024,
                    line_bytes: 64,
                    ways: 16,
                    hit_latency_cycles: 30,
                },
            ];
            cfg
        }

        /// Fact with a co-clustered and a pseudo-random FK over a
        /// dimension that exceeds the 64 KiB LLC, plus a value column.
        fn tables(n: usize) -> (Table, Table) {
            let dim_n = n / 4; // 4 B * n/4 = n bytes >> LLC for n = 128 Ki
            let mut space = AddressSpace::new();
            let mut fact = Table::new("fact");
            fact.add_column(
                "fk_seq",
                ColumnData::I32((0..n).map(|i| (i / 4) as i32).collect()),
                &mut space,
            );
            // A hashed (not merely strided) key stream: fixed strides
            // leave quasi-periodic locality the caches exploit.
            fact.add_column(
                "fk_rand",
                ColumnData::I32(
                    (0..n)
                        .map(|i| {
                            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                            (h % dim_n as u64) as i32
                        })
                        .collect(),
                ),
                &mut space,
            );
            fact.add_column(
                "val",
                ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
                &mut space,
            );
            let mut dim_space = AddressSpace::new();
            let mut dim = Table::new("dim");
            dim.add_column(
                "payload",
                ColumnData::I32((0..dim_n).map(|k| (k % 100) as i32).collect()),
                &mut dim_space,
            );
            (fact, dim)
        }

        fn pipeline_vectors() -> VectorConfig {
            VectorConfig {
                vector_tuples: 4096,
                max_vectors: None,
            }
        }

        /// Expensive selection (`val < 50`, 50 extra instructions) then
        /// a join through `fk` testing `payload < 50`, optionally summing
        /// `val`.
        fn program<'t>(
            fact: &'t Table,
            dim: &'t Table,
            fk: &str,
            aggregate: bool,
        ) -> CompiledProgram<'t> {
            let mut builder = PlanBuilder::scan(fact)
                .filter_costed(Expr::col("val").less_than(50), 50)
                .join(dim, fk, Expr::col("payload").less_than(50));
            if aggregate {
                builder = builder.aggregate("val");
            }
            builder.build().compile().unwrap()
        }

        fn config() -> ProgressiveConfig {
            ProgressiveConfig {
                reop_interval: 2,
                ..Default::default()
            }
        }

        /// Expensive selection + LLC-thrashing random join: the selection
        /// belongs in front. Start join-first and let the loop fix it.
        #[test]
        fn converges_to_selection_first_for_random_join() {
            let n = 1 << 17;
            let (fact, dim) = tables(n);
            let mut program = program(&fact, &dim, "fk_rand", false);
            program.reorder(&[1, 0]).unwrap();
            let mut static_cpu = SimCpu::new(small_cache_cpu());
            let bad = program.run_range(&mut static_cpu, 0, n).counters.cycles;
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program(
                &mut program,
                &[1, 0],
                pipeline_vectors(),
                &mut cpu,
                &config(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![0, 1], "{:?}", prog.switches);
            assert_eq!(program.order(), &[0, 1], "left in the converged order");
            assert!(
                prog.cycles < bad,
                "progressive {} !< static bad order {bad}",
                prog.cycles
            );
        }

        /// Cheap selection + co-clustered join: the join belongs in front
        /// (Figure 14's sorted side). Start selection-first.
        #[test]
        fn converges_to_join_first_for_coclustered_join() {
            let n = 1 << 17;
            let (fact, dim) = tables(n);
            let mut program = program(&fact, &dim, "fk_seq", false);
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program(
                &mut program,
                &[0, 1],
                pipeline_vectors(),
                &mut cpu,
                &config(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![1, 0], "{:?}", prog.switches);
        }

        /// Reordering mid-run must not change the query result, including
        /// the aggregate.
        #[test]
        fn progressive_pipeline_preserves_results() {
            let n = 1 << 16;
            let (fact, dim) = tables(n);
            let mut program = program(&fact, &dim, "fk_rand", true);
            let mut cpu1 = SimCpu::new(small_cache_cpu());
            let expect = program.run_range(&mut cpu1, 0, n);
            let mut cpu2 = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program(
                &mut program,
                &[1, 0],
                pipeline_vectors(),
                &mut cpu2,
                &config(),
            )
            .unwrap();
            assert_eq!(prog.qualified, expect.qualified);
            assert_eq!(prog.sum, expect.sum);
            assert!(prog.sum > 0);
        }

        /// A good initial operator order stays put.
        #[test]
        fn good_pipeline_order_is_left_alone() {
            let n = 1 << 16;
            let (fact, dim) = tables(n);
            let mut program = program(&fact, &dim, "fk_rand", false);
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program(
                &mut program,
                &[0, 1],
                pipeline_vectors(),
                &mut cpu,
                &config(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![0, 1], "{:?}", prog.switches);
        }
    }

    #[test]
    fn exploration_fires_only_when_stalled() {
        let t = skewed_table(16_384);
        // A converging run never explores.
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let converging = progressive(
            &t,
            &[2, 1, 0],
            VectorConfig {
                vector_tuples: 512,
                max_vectors: None,
            },
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(converging.switches.iter().all(|s| !s.exploratory));

        // Force every trial to "regress" (negative tolerance): all
        // proposals are rejected, the run stalls, and exploration must
        // kick in.
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let stalled = progressive(
            &t,
            &[2, 1, 0],
            VectorConfig {
                vector_tuples: 512,
                max_vectors: None,
            },
            &mut cpu,
            &ProgressiveConfig {
                reop_interval: 1,
                regression_tolerance: -1.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stalled.switches.iter().any(|s| s.reverted));
        assert!(
            stalled.switches.iter().any(|s| s.exploratory),
            "{:?}",
            stalled.switches
        );
    }
}

//! The compiled flat stage form: the one executor every query runs on.
//!
//! Section 2.1 describes the machine code a JIT-compiling engine emits for
//! a conjunctive filter: per tuple, one load + compare + conditional
//! branch per stage, short-circuiting on the first failure, then the
//! aggregate update and the loop back-edge. This module is that loop,
//! "executed" against the simulated CPU. Every stage owns a static branch
//! site keyed by its *plan* index, so predictor state follows the stage
//! across reorders, as it would across JIT recompilations at the same code
//! addresses. Every column is one access stream. A qualifying tuple falls
//! through (branch **not** taken) and a failing tuple jumps (branch
//! **taken**), which produces the counter identities of Section 2.2:
//!
//! * `qualifying = 2·n − branches_taken`
//! * `branches_not_taken = Σ per-stage survivors`
//!
//! A stage is a selection `column OP literal` or a foreign-key join filter
//! (Sections 5.5–5.6): probe the dimension tuple the key addresses and
//! test its payload. Both are filters over the fact stream, so operators
//! reorder exactly like predicates.
//!
//! Lowering ([`CompiledProgram::from_plan`]) emits a compact *stage
//! table* plus a separate evaluation-order
//! permutation. A progressive reorder is therefore a cheap re-emit of the
//! permutation ([`CompiledProgram::reorder`]) — the vectorized engine's
//! "chaining pre-compiled primitives in the new order" of Section 4.4 —
//! and the stage table never moves.

use std::hash::{Hash, Hasher};

use popt_cost::estimate::{PlanGeometry, ProbeGeometry};
use popt_cost::join_model::JoinGeometry;
use popt_cost::markov::ChainSpec;
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{BranchSite, CpuConfig, NumaPlacement, SimCpu};
use popt_solver::SampledCounters;

use crate::error::EngineError;
use crate::plan::logical::{Expr, LogicalNode, LogicalPlan};
use crate::predicate::CompareOp;

/// Instruction charges of the generated loop (mirrored by the analytic
/// cycle model's defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCosts {
    /// Per loop iteration: counter increment + bounds test.
    pub loop_overhead: u64,
    /// Per stage evaluation: load + compare + jump (+ address math).
    pub per_eval: u64,
    /// Per aggregate column read for a qualifying tuple.
    pub per_agg_column: u64,
}

impl Default for InstrCosts {
    fn default() -> Self {
        Self {
            loop_overhead: 2,
            per_eval: 4,
            per_agg_column: 3,
        }
    }
}

/// Branch site id of the loop back-edge (stage sites use their plan
/// index).
pub const LOOP_BRANCH_SITE: BranchSite = BranchSite(u32::MAX);

/// An aggregate column read for qualifying tuples.
#[derive(Clone)]
struct AggColumn<'t> {
    values: &'t [i32],
    base: u64,
    stream: usize,
}

/// Measurements of one executed vector (or any row range).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorStats {
    /// Tuples processed.
    pub tuples: u64,
    /// Tuples qualifying all stages (engine ground truth).
    pub qualified: u64,
    /// Aggregate sum over qualifying tuples (product across aggregate
    /// columns, summed).
    pub sum: i64,
    /// Counter deltas for exactly this range.
    pub counters: CounterDelta,
}

impl VectorStats {
    /// The output cardinality as the *counters* see it: `2·n − bT`
    /// (Section 2.2). Equals [`VectorStats::qualified`] whenever the scan
    /// ran alone between the snapshots — the non-invasive path the
    /// estimator uses.
    pub fn derived_output(&self) -> u64 {
        (2 * self.tuples).saturating_sub(self.counters.branches_taken)
    }

    /// Package the measurements for the selectivity estimator.
    pub fn sampled_counters(&self) -> SampledCounters {
        SampledCounters {
            n_input: self.tuples,
            n_output: self.derived_output(),
            bnt: self.counters.branches_not_taken,
            mp_taken: self.counters.mp_taken,
            mp_not_taken: self.counters.mp_not_taken,
            l3_accesses: self.counters.l3_accesses,
        }
    }

    /// Cycles per tuple — the accept/revert metric of the trial step.
    pub fn cycles_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.counters.cycles as f64 / self.tuples as f64
        }
    }

    /// Merge another range's measurements into this one.
    pub fn accumulate(&mut self, other: &VectorStats) {
        self.tuples += other.tuples;
        self.qualified += other.qualified;
        self.sum += other.sum;
        self.counters.accumulate(&other.counters);
    }

    /// All-zero stats.
    pub fn zero() -> Self {
        Self {
            tuples: 0,
            qualified: 0,
            sum: 0,
            counters: CounterDelta::default(),
        }
    }
}

/// Instructions charged per probe over the base per-eval charge — the
/// index arithmetic of a foreign-key probe.
const PROBE_INSTRUCTIONS: u64 = 6;

/// The probe half of a join stage: the dimension payload column.
#[derive(Clone)]
struct ProbeSpec<'t> {
    dim_values: &'t [i32],
    dim_base: u64,
    dim_stream: usize,
}

/// One compiled stage: evaluate `op(column[i], literal)` per tuple —
/// directly for selections, through a foreign-key probe for joins (the
/// stage's column is then the FK and the tested value is the probed
/// dimension payload).
#[derive(Clone)]
pub struct CompiledStage<'t> {
    values: &'t [i32],
    base: u64,
    stream: usize,
    site: BranchSite,
    op: CompareOp,
    literal: i64,
    /// Per-eval instructions over the base charge: UDF cost for
    /// selections, probe arithmetic for joins.
    extra_instructions: u64,
    probe: Option<ProbeSpec<'t>>,
}

impl CompiledStage<'_> {
    /// Whether the stage probes a dimension.
    pub fn is_join(&self) -> bool {
        self.probe.is_some()
    }

    /// The stage's comparison operator.
    pub fn compare_op(&self) -> CompareOp {
        self.op
    }

    /// The stage's literal operand.
    pub fn literal(&self) -> i64 {
        self.literal
    }

    /// Base address of the fact column the stage reads per tuple.
    pub fn column_base(&self) -> u64 {
        self.base
    }

    /// Stream id of that fact column.
    pub fn column_stream(&self) -> usize {
        self.stream
    }

    /// Base address of the probed dimension payload, for joins.
    pub fn dim_base(&self) -> Option<u64> {
        self.probe.as_ref().map(|p| p.dim_base)
    }

    /// Rows of the probed dimension, for joins.
    pub fn dim_rows(&self) -> Option<usize> {
        self.probe.as_ref().map(|p| p.dim_values.len())
    }

    /// Instructions charged per evaluation over the base charge.
    pub fn extra_instructions(&self) -> u64 {
        self.extra_instructions
    }

    /// A literal-free structural key for this stage: which column it
    /// reads, how it tests, what it probes — everything *except* the
    /// literal, which is a template parameter, not structure. Keys a
    /// calibration snapshot to the stage shape it was learned on.
    pub fn structural_key(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.base.hash(&mut hasher);
        self.stream.hash(&mut hasher);
        self.op.hash(&mut hasher);
        self.extra_instructions.hash(&mut hasher);
        match &self.probe {
            Some(p) => {
                1u8.hash(&mut hasher);
                p.dim_base.hash(&mut hasher);
                p.dim_stream.hash(&mut hasher);
                p.dim_values.len().hash(&mut hasher);
            }
            None => 0u8.hash(&mut hasher),
        }
        hasher.finish()
    }

    /// Load and test row `i` — the stage's column load, its probe (for
    /// joins), and its instruction charge — without the conditional
    /// branch that consumes the outcome.
    #[inline]
    fn test(&self, cpu: &mut SimCpu, i: usize, costs: &InstrCosts) -> bool {
        cpu.load(self.stream, self.base + (i as u64) * 4, 4);
        let value = match &self.probe {
            None => self.values[i],
            Some(p) => {
                let key = self.values[i] as usize;
                // The full key range was validated at lowering.
                debug_assert!(key < p.dim_values.len(), "dangling foreign key");
                cpu.load(p.dim_stream, p.dim_base + (key as u64) * 4, 4);
                p.dim_values[key]
            }
        };
        cpu.instr(costs.per_eval + self.extra_instructions);
        self.op.eval(i64::from(value), self.literal)
    }
}

impl std::fmt::Debug for CompiledStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.probe {
            None => write!(f, "Select({:?} {})", self.op, self.literal),
            Some(p) => write!(
                f,
                "Probe({} rows, {:?} {})",
                p.dim_values.len(),
                self.op,
                self.literal
            ),
        }
    }
}

/// A compiled program: the flat stage table, the evaluation-order
/// permutation, and the aggregate columns. A qualifying tuple adds the
/// product of its aggregate columns to the sum (count only when there
/// are none).
#[derive(Clone)]
pub struct CompiledProgram<'t> {
    /// Stages in plan (lowering) order.
    stages: Vec<CompiledStage<'t>>,
    /// Evaluation order: a permutation of plan indices.
    order: Vec<usize>,
    agg: Vec<AggColumn<'t>>,
    /// Projected columns materialized beyond what stages/aggregates
    /// already read — they widen the declared hot set, nothing else.
    extra_hot_columns: usize,
    rows: usize,
    costs: InstrCosts,
    /// When set, `run_range` uses the scalar per-event oracle path.
    scalar_oracle: bool,
}

impl std::fmt::Debug for CompiledProgram<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("stages", &self.stages)
            .field("order", &self.order)
            .field("agg_columns", &self.agg.len())
            .field("rows", &self.rows)
            .finish()
    }
}

impl<'t> CompiledProgram<'t> {
    /// Lower a logical plan to the flat stage form.
    ///
    /// Every filter conjunct and join condition is normalized
    /// ([`Expr::normalize`]) and must reach the canonical
    /// `column OP literal` shape — lowering performs the same rewrites
    /// the static passes do, so the passes are an optimization, never a
    /// prerequisite. Branch sites are numbered by stage emission order;
    /// dimension streams are `100 + join ordinal` (the convention the
    /// figures established). Foreign-key ranges are validated here, so a
    /// negative or dangling key is an error, never a hot-loop panic.
    pub fn from_plan(plan: &LogicalPlan<'t>) -> Result<Self, EngineError> {
        let fact = plan.fact();
        let mut stages: Vec<CompiledStage<'t>> = Vec::new();
        let mut join_ordinal = 0usize;
        for node in plan.nodes() {
            match node {
                LogicalNode::Filter {
                    predicate,
                    extra_instructions,
                } => {
                    for conjunct in predicate.clone().normalize().conjuncts() {
                        if let Some(stage) = lower_select_conjunct(
                            fact,
                            &conjunct,
                            *extra_instructions,
                            stages.len(),
                        )? {
                            stages.push(stage);
                        }
                    }
                }
                LogicalNode::Join { dim, fk_column, on } => {
                    let (fk, fk_base, fk_stream) = resolve_fact_column(fact, fk_column)?;
                    let dim_stream = 100 + join_ordinal;
                    join_ordinal += 1;
                    for conjunct in on.clone().normalize().conjuncts() {
                        match conjunct.as_comparison() {
                            Some((column, op, literal)) if dim.column_index(column).is_some() => {
                                let dim_col = dim.column(column).expect("index implies presence");
                                let dim_values = dim_col.data().as_i32().ok_or_else(|| {
                                    EngineError::UnsupportedColumnType(column.to_string())
                                })?;
                                validate_fk_range(fk, fk_column, dim_values.len())?;
                                stages.push(CompiledStage {
                                    values: fk,
                                    base: fk_base,
                                    stream: fk_stream,
                                    site: BranchSite(stages.len() as u32),
                                    op,
                                    literal,
                                    extra_instructions: PROBE_INSTRUCTIONS,
                                    probe: Some(ProbeSpec {
                                        dim_values,
                                        dim_base: dim_col.base_addr(),
                                        dim_stream,
                                    }),
                                });
                            }
                            // A conjunct over the fact table inside a join
                            // condition lowers to a plain selection — the
                            // same rewrite the extraction pass performs.
                            Some((column, _, _)) if fact.column_index(column).is_some() => {
                                if let Some(stage) =
                                    lower_select_conjunct(fact, &conjunct, 0, stages.len())?
                                {
                                    stages.push(stage);
                                }
                            }
                            _ => {
                                if let Some(stage) =
                                    lower_select_conjunct(fact, &conjunct, 0, stages.len())?
                                {
                                    stages.push(stage);
                                }
                            }
                        }
                    }
                }
            }
        }
        if stages.is_empty() {
            return Err(EngineError::EmptyPlan);
        }

        let mut agg = Vec::with_capacity(plan.aggregates().len());
        for column in plan.aggregates() {
            let (values, base, stream) = resolve_fact_column(fact, column)?;
            agg.push(AggColumn {
                values,
                base,
                stream,
            });
        }
        let mut extra_hot_columns = 0usize;
        for column in plan.projection() {
            let (_, _, stream) = resolve_fact_column(fact, column)?;
            let covered =
                stages.iter().any(|s| s.stream == stream) || agg.iter().any(|a| a.stream == stream);
            if !covered {
                extra_hot_columns += 1;
            }
        }

        let order = (0..stages.len()).collect();
        Ok(Self {
            stages,
            order,
            agg,
            extra_hot_columns,
            rows: fact.rows(),
            costs: InstrCosts::default(),
            scalar_oracle: false,
        })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the program has no stages (never true post-lowering).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Rows in the scanned fact table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The current evaluation order (plan indices).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The stage at plan index `j`.
    pub fn stage(&self, j: usize) -> &CompiledStage<'t> {
        &self.stages[j]
    }

    /// Re-emit the evaluation order — the cheap progressive reorder. The
    /// permutation is validated *before* any mutation, so a rejected
    /// order leaves the program exactly as it was.
    pub fn reorder(&mut self, order: &[usize]) -> Result<(), EngineError> {
        if !crate::plan::is_valid_peo(order, self.stages.len()) {
            return Err(EngineError::InvalidPeo {
                expected: self.stages.len(),
                got: order.to_vec(),
            });
        }
        self.order.copy_from_slice(order);
        Ok(())
    }

    /// Force every subsequent [`CompiledProgram::run_range`] call through
    /// the scalar per-event oracle instead of the batched fast path. A
    /// test/verification hook: the two paths are bit-identical (pinned by
    /// `tests/proptest_fastpath.rs`), so flipping this must never change
    /// results — only host speed.
    pub fn set_scalar_oracle(&mut self, on: bool) {
        self.scalar_oracle = on;
    }

    /// Execute rows `start..end` against `cpu`, returning measurements for
    /// exactly that range. Dispatches to the batched fast path
    /// (register-held stream states, bulk PMU flush per call) unless the
    /// scalar oracle was requested or the program shape exceeds the fixed
    /// scratch.
    pub fn run_range(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        const MAX_STAGES: usize = 12;
        const MAX_SLOTS: usize = 32;
        if self.scalar_oracle || self.order.len() > MAX_STAGES || self.agg.len() > MAX_STAGES {
            return self.run_range_scalar(cpu, start, end);
        }
        // Deduplicate streams into slots: stages sharing a column must
        // share one adjacency state, exactly like `SimCpu::load` does
        // through its per-stream table.
        fn slot_for(
            slot_streams: &mut [usize],
            n_slots: &mut usize,
            stream: usize,
        ) -> Option<usize> {
            for (k, &s) in slot_streams.iter().enumerate().take(*n_slots) {
                if s == stream {
                    return Some(k);
                }
            }
            if *n_slots == slot_streams.len() {
                return None;
            }
            slot_streams[*n_slots] = stream;
            *n_slots += 1;
            Some(*n_slots - 1)
        }
        let mut slot_streams = [usize::MAX; MAX_SLOTS];
        let mut n_slots = 0usize;
        let mut stage_slot = [0usize; MAX_STAGES];
        let mut probe_slot = [0usize; MAX_STAGES];
        let mut agg_slot = [0usize; MAX_STAGES];
        for (k, &j) in self.order.iter().enumerate() {
            let s = &self.stages[j];
            match slot_for(&mut slot_streams, &mut n_slots, s.stream) {
                Some(t) => stage_slot[k] = t,
                None => return self.run_range_scalar(cpu, start, end),
            }
            if let Some(p) = &s.probe {
                match slot_for(&mut slot_streams, &mut n_slots, p.dim_stream) {
                    Some(t) => probe_slot[k] = t,
                    None => return self.run_range_scalar(cpu, start, end),
                }
            }
        }
        for (k, a) in self.agg.iter().enumerate() {
            match slot_for(&mut slot_streams, &mut n_slots, a.stream) {
                Some(t) => agg_slot[k] = t,
                None => return self.run_range_scalar(cpu, start, end),
            }
        }
        let before = cpu.counters();
        let mut qualified = 0u64;
        let mut sum = 0i64;
        {
            let mut batch = cpu.batch();
            let mut slots = [0u64; MAX_SLOTS];
            for t in 0..n_slots {
                slots[t] = batch.stream_state(slot_streams[t]);
            }
            // Hot counters live in plain locals (registers) and flush in
            // bulk after the row loop; the simulated state machines
            // (predictor table, caches, stream adjacency) still advance
            // per event, in exact program order.
            let mut instrs = 0u64;
            let mut hits = 0u64;
            let mut branches = 0u64;
            let mut taken_n = 0u64;
            let mut mp_taken = 0u64;
            let mut mp_not_taken = 0u64;
            let mut hist = batch.history();
            let costs = self.costs;
            let front = &self.stages[self.order[0]];
            if self.order.len() == 1 && front.probe.is_none() && self.agg.is_empty() {
                // Single-selection count scan: every simulated load in the
                // range belongs to the one stage's stream, so the
                // sequential touches are accounted in bulk (closed form
                // for clean spans) and the row loop carries only the
                // comparison and the two branch events. Loads and
                // branches drive disjoint simulated state machines, so
                // hoisting the loads preserves bit-identity; the branch
                // sequence itself stays in exact row order.
                let n = (end - start) as u64;
                let t = stage_slot[0];
                let mut llpo = slots[t];
                hits += batch.load_elements_seq(&mut llpo, front.base + (start as u64) * 4, 4, n);
                slots[t] = llpo;
                for i in start..end {
                    let ok = front.op.eval(i64::from(front.values[i]), front.literal);
                    let tk = u64::from(!ok);
                    let w = batch.branch_hist(&mut hist, front.site, !ok);
                    taken_n += tk;
                    mp_taken += w & tk;
                    mp_not_taken += w & (1 - tk);
                    qualified += 1 - tk;
                    mp_taken += batch.branch_hist(&mut hist, LOOP_BRANCH_SITE, true);
                }
                instrs += (costs.loop_overhead + costs.per_eval + front.extra_instructions) * n;
                branches += 2 * n;
                taken_n += n;
            } else {
                for i in start..end {
                    instrs += costs.loop_overhead;
                    let mut pass = true;
                    for (k, &j) in self.order.iter().enumerate() {
                        let stg = &self.stages[j];
                        let t = stage_slot[k];
                        let mut llpo = slots[t];
                        hits += batch.load_quiet(&mut llpo, stg.base + (i as u64) * 4, 4);
                        slots[t] = llpo;
                        let value = match &stg.probe {
                            None => stg.values[i],
                            Some(p) => {
                                let key = stg.values[i] as usize;
                                debug_assert!(key < p.dim_values.len(), "dangling foreign key");
                                let tp = probe_slot[k];
                                let mut pl = slots[tp];
                                hits += batch.load_quiet(&mut pl, p.dim_base + (key as u64) * 4, 4);
                                slots[tp] = pl;
                                p.dim_values[key]
                            }
                        };
                        instrs += costs.per_eval + stg.extra_instructions;
                        let ok = stg.op.eval(i64::from(value), stg.literal);
                        let tk = u64::from(!ok);
                        let w = batch.branch_hist(&mut hist, stg.site, !ok);
                        branches += 1;
                        taken_n += tk;
                        mp_taken += w & tk;
                        mp_not_taken += w & (1 - tk);
                        if !ok {
                            pass = false;
                            break;
                        }
                    }
                    if pass {
                        qualified += 1;
                        let mut product = 1i64;
                        for (k, a) in self.agg.iter().enumerate() {
                            let t = agg_slot[k];
                            let mut llpo = slots[t];
                            hits += batch.load_quiet(&mut llpo, a.base + (i as u64) * 4, 4);
                            slots[t] = llpo;
                            instrs += costs.per_agg_column;
                            product *= i64::from(a.values[i]);
                        }
                        if !self.agg.is_empty() {
                            sum += product;
                        }
                    }
                    let w = batch.branch_hist(&mut hist, LOOP_BRANCH_SITE, true);
                    branches += 1;
                    taken_n += 1;
                    mp_taken += w;
                }
            }
            batch.set_history(hist);
            batch.instr(instrs);
            batch.add_element_hits(hits);
            batch.add_branch_block(branches, taken_n, mp_taken, mp_not_taken);
            for t in 0..n_slots {
                batch.set_stream_state(slot_streams[t], slots[t]);
            }
        }
        let after = cpu.counters();
        VectorStats {
            tuples: (end - start) as u64,
            qualified,
            sum,
            counters: after.since(&before),
        }
    }

    /// The scalar per-event oracle: one `SimCpu` call per simulated
    /// event. This is the reference semantics the batched
    /// [`CompiledProgram::run_range`] is proptest-pinned against.
    pub fn run_range_scalar(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.run_range_instrumented(cpu, start, end, |_, _, _| {})
    }

    /// [`CompiledProgram::run_range_scalar`] with `on_eval(cpu, position,
    /// passed)` called after every stage test and before its branch —
    /// the hook the invasive enumerator baseline compiles its counter
    /// updates into.
    pub(crate) fn run_range_instrumented(
        &self,
        cpu: &mut SimCpu,
        start: usize,
        end: usize,
        mut on_eval: impl FnMut(&mut SimCpu, usize, bool),
    ) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let before = cpu.counters();
        let mut qualified = 0u64;
        let mut sum = 0i64;
        for i in start..end {
            cpu.instr(self.costs.loop_overhead);
            let mut pass = true;
            for (k, &j) in self.order.iter().enumerate() {
                let stage = &self.stages[j];
                let ok = stage.test(cpu, i, &self.costs);
                on_eval(cpu, k, ok);
                // Qualifying tuple: fall through (not taken). Failing
                // tuple: jump past the remaining stage code (taken).
                cpu.branch(stage.site, !ok);
                if !ok {
                    pass = false;
                    break;
                }
            }
            if pass {
                qualified += 1;
                let mut product = 1i64;
                for a in &self.agg {
                    cpu.load(a.stream, a.base + (i as u64) * 4, 4);
                    cpu.instr(self.costs.per_agg_column);
                    product *= i64::from(a.values[i]);
                }
                if !self.agg.is_empty() {
                    sum += product;
                }
            }
            // Loop back-edge: taken every iteration.
            cpu.branch(LOOP_BRANCH_SITE, true);
        }
        let after = cpu.counters();
        VectorStats {
            tuples: (end - start) as u64,
            qualified,
            sum,
            counters: after.since(&before),
        }
    }

    /// Counter-model geometry for the current evaluation order.
    ///
    /// `clustering` holds one entry per *plan* stage: the measured
    /// clustering ratio of that stage's dimension probe (ignored for
    /// selections; `1.0` = assume uniform random). Line size, predictor
    /// shape and the private L2 capacity (which gates whether probes reach
    /// L3 at all) come from `cpu`; `llc_bytes` is the **effective**
    /// last-level capacity the executing core sees — the full configured
    /// LLC on a private socket, the contention-shrunken share under a
    /// shared-socket partition — so the Equation-1 probe predictions price
    /// contended miss rates. Aggregate columns already read by a stage are
    /// cache-resident and excluded from the fresh-column list.
    pub fn plan_geometry(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        clustering: &[f64],
    ) -> PlanGeometry {
        assert_eq!(clustering.len(), self.stages.len(), "one entry per stage");
        let line_bytes = cpu.line_bytes() as u32;
        let llc_lines = (llc_bytes / u64::from(line_bytes)).max(1);
        let upper_cache_bytes = cpu.levels.get(1).map_or(0.0, |l| l.capacity_bytes as f64);
        let chain = ChainSpec {
            states: cpu.predictor.states,
            not_taken_states: cpu.predictor.not_taken_states,
        };
        let column_ids: Vec<usize> = self.order.iter().map(|&j| self.stages[j].stream).collect();
        let probes: Vec<Option<ProbeGeometry>> = self
            .order
            .iter()
            .map(|&j| {
                self.stages[j].dim_rows().map(|rows| ProbeGeometry {
                    relation: JoinGeometry {
                        relation_tuples: rows as u64,
                        tuple_bytes: 4,
                        line_bytes,
                        cache_lines: llc_lines,
                    },
                    upper_cache_bytes,
                    clustering: clustering[j].clamp(0.0, 1.0),
                    remote_fraction: 0.0,
                })
            })
            .collect();
        let mut seen_agg: Vec<usize> = Vec::with_capacity(self.agg.len());
        let agg_bytes: Vec<u32> = self
            .agg
            .iter()
            .filter(|a| {
                let fresh = !column_ids.contains(&a.stream) && !seen_agg.contains(&a.stream);
                seen_agg.push(a.stream);
                fresh
            })
            .map(|_| 4)
            .collect();
        PlanGeometry {
            n_input,
            value_bytes: vec![4; self.stages.len()],
            column_ids,
            agg_bytes,
            line_bytes,
            chain,
            probes,
        }
    }

    /// [`CompiledProgram::plan_geometry`] with NUMA-aware probe pricing:
    /// each join stage's probe gains the fraction of its dimension homed
    /// on a socket other than `socket` under `placement`, so the
    /// per-socket cost model prices the hop into a remote partition. Both
    /// inputs are static topology — the geometry stays deterministic.
    pub fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        clustering: &[f64],
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        let mut geom = self.plan_geometry(n_input, cpu, llc_bytes, clustering);
        let line_bytes = cpu.line_bytes();
        for (&j, probe) in self.order.iter().zip(geom.probes.iter_mut()) {
            if let (Some(p), Some(base), Some(rows)) = (
                probe.as_mut(),
                self.stages[j].dim_base(),
                self.stages[j].dim_rows(),
            ) {
                p.remote_fraction =
                    placement.remote_fraction(base, rows as u64 * 4, socket, line_bytes);
            }
        }
        geom
    }

    /// Hot-set footprint declared to a shared-socket capacity partition:
    /// probed dimensions in full plus the streaming window per touched
    /// column (stages, aggregates, and surviving projected columns).
    pub fn hot_set_bytes(&self) -> u64 {
        let dims: u64 = self
            .stages
            .iter()
            .filter_map(CompiledStage::dim_rows)
            .map(|rows| rows as u64 * 4)
            .sum();
        let streams = (self.stages.len() + self.agg.len() + self.extra_hot_columns) as u64
            * crate::progressive::STREAM_HOT_BYTES_PER_COLUMN;
        dims + streams
    }

    /// Instructions charged per evaluation of each stage, in the current
    /// evaluation order.
    pub fn stage_instructions(&self) -> Vec<f64> {
        self.order
            .iter()
            .map(|&j| (self.costs.per_eval + self.stages[j].extra_instructions) as f64)
            .collect()
    }

    /// Literal-free structural keys, one per plan stage — what a
    /// calibration snapshot is keyed to ([`CompiledStage::structural_key`]).
    pub fn stage_keys(&self) -> Vec<u64> {
        self.stages
            .iter()
            .map(CompiledStage::structural_key)
            .collect()
    }
}

/// Resolve a fact-table i32 column to `(values, base address, stream)`.
fn resolve_fact_column<'t>(
    fact: &'t popt_storage::Table,
    column: &str,
) -> Result<(&'t [i32], u64, usize), EngineError> {
    let idx = fact
        .column_index(column)
        .ok_or_else(|| EngineError::UnknownColumn(column.to_string()))?;
    let col = fact.column_at(idx);
    let values = col
        .data()
        .as_i32()
        .ok_or_else(|| EngineError::UnsupportedColumnType(column.to_string()))?;
    Ok((values, col.base_addr(), idx))
}

/// Validate every foreign key against the probed dimension's row range.
fn validate_fk_range(fk: &[i32], fk_column: &str, dim_rows: usize) -> Result<(), EngineError> {
    if let Some(&bad) = fk.iter().find(|&&k| k < 0 || k as usize >= dim_rows) {
        return Err(EngineError::ForeignKeyOutOfRange {
            column: fk_column.to_string(),
            key: i64::from(bad),
            dim_rows,
        });
    }
    Ok(())
}

/// Lower one normalized filter conjunct over the fact table; `TRUE`
/// vanishes, `FALSE` and non-canonical shapes are unsupported.
fn lower_select_conjunct<'t>(
    fact: &'t popt_storage::Table,
    conjunct: &Expr,
    extra_instructions: u64,
    site: usize,
) -> Result<Option<CompiledStage<'t>>, EngineError> {
    match conjunct {
        Expr::Bool(true) => Ok(None),
        Expr::Bool(false) => Err(EngineError::UnsupportedExpr(
            "predicate is constant FALSE — the plan qualifies nothing".to_string(),
        )),
        _ => match conjunct.as_comparison() {
            Some((column, op, literal)) => {
                let (values, base, stream) = resolve_fact_column(fact, column)?;
                Ok(Some(CompiledStage {
                    values,
                    base,
                    stream,
                    site: BranchSite(site as u32),
                    op,
                    literal,
                    extra_instructions,
                    probe: None,
                }))
            }
            None => Err(EngineError::UnsupportedExpr(format!(
                "conjunct {:?} does not normalize to `column OP literal`",
                conjunct.display()
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Expr, PlanBuilder};
    use popt_storage::{AddressSpace, ColumnData, Table};

    fn tables(n: usize, dim_n: usize) -> (Table, Table) {
        let mut space = AddressSpace::new();
        let mut fact = Table::new("fact");
        fact.add_column(
            "fk",
            ColumnData::I32((0..n).map(|i| ((i * 7919) % dim_n) as i32).collect()),
            &mut space,
        );
        fact.add_column(
            "val",
            ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
            &mut space,
        );
        // Co-clustered key: consecutive tuples probe consecutive rows.
        fact.add_column(
            "fk_seq",
            ColumnData::I32((0..n).map(|i| (i * dim_n / n) as i32).collect()),
            &mut space,
        );
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column(
            "payload",
            ColumnData::I32((0..dim_n).map(|k| (k % 2) as i32).collect()),
            &mut dim_space,
        );
        (fact, dim)
    }

    /// `val < 50` then a join through `fk` testing `payload = 0`.
    fn select_then_join<'t>(
        fact: &'t Table,
        dim: &'t Table,
        fk: &str,
        val_lt: i64,
    ) -> CompiledProgram<'t> {
        PlanBuilder::scan(fact)
            .filter(Expr::col("val").less_than(val_lt))
            .join(dim, fk, Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap()
    }

    fn cpu() -> SimCpu {
        SimCpu::new(popt_cpu::CpuConfig::tiny_test())
    }

    #[test]
    fn join_program_matches_host_evaluation_and_counter_identities() {
        let (fact, dim) = tables(4000, 128);
        let program = PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(50), 30)
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .aggregate("val")
            .build()
            .compile()
            .unwrap();
        let mut c = cpu();
        let stats = program.run_range(&mut c, 0, 4000);

        let fk = fact.column("fk").unwrap().data().as_i32().unwrap();
        let val = fact.column("val").unwrap().data().as_i32().unwrap();
        let payload = dim.column("payload").unwrap().data().as_i32().unwrap();
        let first: Vec<usize> = (0..4000).filter(|&i| val[i] < 50).collect();
        let both: Vec<usize> = first
            .iter()
            .copied()
            .filter(|&i| payload[fk[i] as usize] == 0)
            .collect();
        let sum: i64 = both.iter().map(|&i| i64::from(val[i])).sum();
        assert_eq!(stats.qualified, both.len() as u64);
        assert_eq!(stats.sum, sum);
        assert!(stats.sum > 0, "aggregate path must actually sum");
        assert_eq!(stats.derived_output(), stats.qualified);
        assert_eq!(
            stats.counters.branches_not_taken,
            (first.len() + both.len()) as u64
        );
        // Loop overhead, per-eval charges (the selection's 30 extra, the
        // probe's 6), one aggregate column per qualifying tuple.
        let costs = InstrCosts::default();
        let expect = 4000 * costs.loop_overhead
            + 4000 * (costs.per_eval + 30)
            + first.len() as u64 * (costs.per_eval + PROBE_INSTRUCTIONS)
            + both.len() as u64 * costs.per_agg_column;
        assert_eq!(stats.counters.instructions, expect);
    }

    #[test]
    fn join_filter_filters() {
        let (fact, dim) = tables(1000, 100);
        let program = PlanBuilder::scan(&fact)
            .join(&dim, "fk_seq", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        let stats = program.run_range(&mut cpu(), 0, 1000);
        // payload = key % 2 over evenly spread keys: half qualify.
        assert_eq!(stats.qualified, 500);
    }

    #[test]
    fn coclustered_probe_has_fewer_l3_misses_than_random() {
        let n = 20_000;
        // Dimension much larger than the tiny L3 (16 KiB = 4096 values).
        let (fact, dim) = tables(n, 16_384);
        let misses = |fk: &str| {
            let program = PlanBuilder::scan(&fact)
                .join(&dim, fk, Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .unwrap();
            program.run_range(&mut cpu(), 0, n).counters.l3_misses
        };
        let seq = misses("fk_seq");
        let rand = misses("fk");
        assert!(seq * 3 < rand, "seq={seq} rand={rand}");
    }

    #[test]
    fn selection_first_is_cheaper_when_the_join_is_random_and_selective() {
        let n = 20_000;
        let (fact, dim) = tables(n, 16_384);
        let mut program = select_then_join(&fact, &dim, "fk", 10);
        let sel_first = program.run_range(&mut cpu(), 0, n).counters.cycles;
        program.reorder(&[1, 0]).unwrap();
        let join_first = program.run_range(&mut cpu(), 0, n).counters.cycles;
        assert!(sel_first < join_first, "sel {sel_first} join {join_first}");
    }

    #[test]
    fn reorder_is_absolute_over_plan_indices() {
        let (fact, dim) = tables(1000, 100);
        let mut program = select_then_join(&fact, &dim, "fk_seq", 50);
        assert_eq!(program.order(), &[0, 1]);
        program.reorder(&[1, 0]).unwrap();
        // Re-applying the same permutation is idempotent (plan-index
        // semantics), not a swap back.
        program.reorder(&[1, 0]).unwrap();
        assert_eq!(program.order(), &[1, 0]);
        assert!(program.stage(1).is_join());
    }

    #[test]
    fn plan_geometry_carries_probes_in_evaluation_order() {
        let (fact, dim) = tables(1000, 100);
        let mut program = select_then_join(&fact, &dim, "fk", 50);
        program.reorder(&[1, 0]).unwrap();
        let cfg = popt_cpu::CpuConfig::tiny_test();
        let llc = cfg.llc().capacity_bytes;
        let geom = program.plan_geometry(1000, &cfg, llc, &[1.0, 0.25]);
        let probe_lines =
            |g: &PlanGeometry| g.probe(0).expect("front is a join").relation.cache_lines;
        assert_eq!(geom.predicates(), 2);
        assert_eq!(probe_lines(&geom), cfg.llc().lines());
        // A contended share rebinds the probe's Equation-1 capacity.
        let contended = program.plan_geometry(1000, &cfg, llc / 4, &[1.0, 0.25]);
        assert_eq!(probe_lines(&contended), cfg.llc().lines() / 4);
        // Join first: probe at position 0 with the join's clustering.
        let probe = geom.probe(0).expect("join stage has a probe");
        assert_eq!(probe.relation.relation_tuples, 100);
        assert!((probe.clustering - 0.25).abs() < 1e-12);
        assert!(geom.probe(1).is_none());
        let instr = program.stage_instructions();
        assert!(
            instr[0] > instr[1],
            "probe arithmetic costs extra: {instr:?}"
        );
    }

    #[test]
    fn aggregate_on_unknown_column_is_rejected() {
        let (fact, _) = tables(100, 10);
        let err = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .aggregate("nope")
            .build()
            .compile()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    }

    #[test]
    fn reorder_is_cheap_and_result_invariant() {
        let (fact, dim) = tables(2000, 64);
        let mut program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        let mut c = cpu();
        let forward = program.run_range(&mut c, 0, 2000);
        program.reorder(&[1, 0]).unwrap();
        let mut c = cpu();
        let backward = program.run_range(&mut c, 0, 2000);
        assert_eq!(forward.qualified, backward.qualified);
        assert_eq!(forward.sum, backward.sum);
    }

    #[test]
    fn failed_reorder_leaves_the_order_untouched() {
        let (fact, dim) = tables(500, 32);
        let mut program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        program.reorder(&[1, 0]).unwrap();
        assert!(program.reorder(&[0, 0]).is_err());
        assert!(program.reorder(&[1]).is_err());
        assert!(program.reorder(&[1, 2]).is_err());
        assert_eq!(program.order(), &[1, 0], "rejected orders must not corrupt");
    }

    #[test]
    fn multi_conjunct_filters_flatten_to_stages_with_sites_in_emission_order() {
        let (fact, dim) = tables(100, 16);
        let program = PlanBuilder::scan(&fact)
            .filter(
                Expr::col("val")
                    .less_than(80)
                    .and(Expr::col("val").at_least(10)),
            )
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 3);
        assert!(!program.stage(0).is_join());
        assert!(!program.stage(1).is_join());
        assert!(program.stage(2).is_join());
        assert_eq!(program.stage(1).compare_op(), CompareOp::Ge);
    }

    #[test]
    fn true_filters_vanish_and_false_is_rejected() {
        let (fact, _) = tables(100, 16);
        let program = PlanBuilder::scan(&fact)
            .filter(Expr::lit(1).less_than(2))
            .filter(Expr::col("val").less_than(50))
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 1);

        let err = PlanBuilder::scan(&fact)
            .filter(Expr::lit(2).less_than(1))
            .build()
            .compile()
            .unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedExpr(_)), "{err:?}");

        let err = PlanBuilder::scan(&fact).build().compile().unwrap_err();
        assert_eq!(err, EngineError::EmptyPlan);
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_the_shape() {
        let (fact, _) = tables(100, 16);
        let err = PlanBuilder::scan(&fact)
            .filter(
                Expr::col("val")
                    .less_than(1)
                    .or(Expr::col("val").greater_than(90)),
            )
            .build()
            .compile()
            .unwrap_err();
        match err {
            EngineError::UnsupportedExpr(msg) => assert!(msg.contains("OR"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let err = PlanBuilder::scan(&fact)
            .filter(Expr::col("nope").less_than(1))
            .build()
            .compile()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    }

    #[test]
    fn fact_conjuncts_in_join_conditions_lower_to_selections() {
        let (fact, dim) = tables(1000, 64);
        let program = PlanBuilder::scan(&fact)
            .join(
                &dim,
                "fk",
                Expr::col("payload")
                    .equal_to(0)
                    .and(Expr::col("val").less_than(50)),
            )
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 2);
        assert!(program.stage(0).is_join());
        assert!(!program.stage(1).is_join());
        // Same result as building the filter separately.
        let split = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        let mut c1 = cpu();
        let mut c2 = cpu();
        assert_eq!(
            program.run_range(&mut c1, 0, 1000).qualified,
            split.run_range(&mut c2, 0, 1000).qualified
        );
    }

    #[test]
    fn dangling_and_negative_foreign_keys_are_rejected_at_lowering() {
        let lower = |keys: Vec<i32>| {
            let mut space = AddressSpace::new();
            let mut fact = Table::new("fact");
            fact.add_column("fk", ColumnData::I32(keys), &mut space);
            let mut dim_space = AddressSpace::new();
            let mut dim = Table::new("dim");
            dim.add_column("payload", ColumnData::I32(vec![1; 10]), &mut dim_space);
            PlanBuilder::scan(&fact)
                .join(&dim, "fk", Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .map(|_| ())
                .unwrap_err()
        };
        let err = lower(vec![0, 99, 2]);
        assert!(
            matches!(err, EngineError::ForeignKeyOutOfRange { key: 99, .. }),
            "{err:?}"
        );
        // A negative key would wrap through `as usize` in the hot loop.
        assert_eq!(
            lower(vec![0, 3, -1, 2]),
            EngineError::ForeignKeyOutOfRange {
                column: "fk".into(),
                key: -1,
                dim_rows: 10,
            }
        );
    }

    #[test]
    fn stage_keys_are_literal_free_and_structure_sensitive() {
        let (fact, dim) = tables(500, 32);
        let build = |lit: i64| {
            PlanBuilder::scan(&fact)
                .filter(Expr::col("val").less_than(lit))
                .join(&dim, "fk", Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .unwrap()
        };
        assert_eq!(build(50).stage_keys(), build(51).stage_keys());
        let other = PlanBuilder::scan(&fact)
            .filter(Expr::col("fk").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        assert_ne!(build(50).stage_keys(), other.stage_keys());
    }

    #[test]
    fn projection_widens_the_hot_set_only_for_uncovered_columns() {
        let (fact, dim) = tables(500, 32);
        let base = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build();
        let plain = base.clone().compile().unwrap();
        // "val" is already a stage column; an unpruned projection of it
        // still adds nothing. A genuinely new column would, but this
        // fact table has only stage columns, so cover the counted path
        // via the covered branch plus geometry equality.
        let projected = {
            let mut b = base.clone();
            b = crate::plan::passes::projection_pruning(b);
            b.compile().unwrap()
        };
        assert_eq!(plain.hot_set_bytes(), projected.hot_set_bytes());
    }

    /// Plain multi-selection plans: one `column OP literal` stage per
    /// filter, in plan order.
    mod selection {
        use super::*;

        fn test_table(n: usize) -> Table {
            let mut space = AddressSpace::new();
            let mut t = Table::new("t");
            // a: 0..n cyclic mod 100; b: constant blocks; agg: all twos.
            t.add_column(
                "a",
                ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
                &mut space,
            );
            t.add_column(
                "b",
                ColumnData::I32((0..n).map(|i| (i / 100 % 10) as i32).collect()),
                &mut space,
            );
            t.add_column("agg", ColumnData::I32(vec![2; n]), &mut space);
            t
        }

        /// `a < 50` (charging `a_cost` extra instructions) then `b < 5`,
        /// summing `agg`, lowered in evaluation order `peo`.
        fn program<'t>(t: &'t Table, a_cost: u64, peo: &[usize]) -> CompiledProgram<'t> {
            let mut program = PlanBuilder::scan(t)
                .filter_costed(Expr::col("a").less_than(50), a_cost)
                .filter(Expr::col("b").less_than(5))
                .aggregate("agg")
                .build()
                .compile()
                .unwrap();
            program.reorder(peo).unwrap();
            program
        }

        fn run(t: &Table, a_cost: u64, peo: &[usize], rows: usize) -> VectorStats {
            program(t, a_cost, peo).run_range(&mut cpu(), 0, rows)
        }

        #[test]
        fn counts_and_counter_identities_are_exact() {
            let t = test_table(1000);
            let stats = run(&t, 0, &[0, 1], 1000);
            // a < 50: 50%, b < 5: 50%, independent by construction.
            assert_eq!(stats.qualified, 250);
            assert_eq!(stats.sum, 500); // 2 per qualifying tuple
            assert_eq!(stats.derived_output(), stats.qualified);
            // Survivors: after a < 50 -> 500; after b < 5 -> 250.
            assert_eq!(stats.counters.branches_not_taken, 750);
            // Failures: 500 at a, 250 at b; loop: 1000.
            assert_eq!(stats.counters.branches_taken, 500 + 250 + 1000);
            let s = stats.sampled_counters();
            assert_eq!(s.n_input, 1000);
            assert_eq!(s.n_output, stats.qualified);
            assert_eq!(s.bnt, stats.counters.branches_not_taken);
        }

        #[test]
        fn result_is_peo_invariant_and_short_circuits() {
            let t = test_table(2000);
            let s01 = run(&t, 0, &[0, 1], 2000);
            let s10 = run(&t, 0, &[1, 0], 2000);
            assert_eq!((s01.qualified, s01.sum), (s10.qualified, s10.sum));
            // Order a-first reads a 2000x, b 1000x, agg 500x.
            let loads = s01.counters.l1_accesses + s01.counters.l1_element_hits;
            assert_eq!(loads, 2000 + 1000 + 500);
        }

        #[test]
        fn lowering_rejects_bad_plans() {
            let t = test_table(10);
            let bad = PlanBuilder::scan(&t)
                .filter(Expr::col("nope").less_than(1))
                .build();
            assert_eq!(
                bad.compile().unwrap_err(),
                EngineError::UnknownColumn("nope".into())
            );
            assert!(matches!(
                program(&t, 0, &[0, 1]).reorder(&[0, 0]).unwrap_err(),
                EngineError::InvalidPeo { .. }
            ));
            let mut space = AddressSpace::new();
            let mut wide = Table::new("t");
            wide.add_column("w", ColumnData::I64(vec![1, 2, 3]), &mut space);
            let p = PlanBuilder::scan(&wide)
                .filter(Expr::col("w").less_than(2))
                .build();
            assert_eq!(
                p.compile().unwrap_err(),
                EngineError::UnsupportedColumnType("w".into())
            );
        }

        #[test]
        fn predicate_index_is_stage_index_and_branch_site() {
            let t = test_table(10);
            let program = program(&t, 0, &[1, 0]);
            assert_eq!(program.order(), &[1, 0]);
            assert_eq!(program.stage(0).literal(), 50);
            assert_eq!(program.stage(1).compare_op(), CompareOp::Lt);
            assert_eq!(program.stage(1).site, BranchSite(1));
        }

        #[test]
        fn empty_range_is_empty_stats() {
            let t = test_table(100);
            let program = program(&t, 0, &[0, 1]);
            let stats = program.run_range(&mut cpu(), 50, 50);
            assert_eq!(stats.tuples, 0);
            assert_eq!(stats.qualified, 0);
            assert_eq!(stats.counters.branches, 0);
        }

        #[test]
        fn expensive_predicate_costs_more() {
            let t = test_table(1000);
            let s1 = run(&t, 0, &[0, 1], 1000);
            let s2 = run(&t, 100, &[0, 1], 1000);
            assert!(s2.counters.cycles > s1.counters.cycles);
            assert_eq!(s1.qualified, s2.qualified);
        }

        #[test]
        fn count_only_plan_has_zero_sum() {
            let t = test_table(100);
            let program = PlanBuilder::scan(&t)
                .filter(Expr::col("a").less_than(50))
                .build()
                .compile()
                .unwrap();
            let stats = program.run_range(&mut cpu(), 0, 100);
            assert_eq!(stats.sum, 0);
            assert_eq!(stats.qualified, 50);
        }
    }
}

//! # popt-core — vectorized execution with progressive optimization
//!
//! The paper's primary contribution: a vectorized, column-at-a-time
//! execution engine whose multi-selection scans are **re-optimized during
//! execution** from non-invasive performance counters (Sections 4.4–4.5),
//! plus the sortedness/co-clusteredness detection that extends the
//! approach to join ordering (Sections 5.5–5.6).
//!
//! * [`predicate`] / [`plan`] — comparison operators, PEO permutation
//!   utilities, and the **query frontend**: a typed
//!   [`plan::LogicalPlan`] builder ([`plan::PlanBuilder`], the single
//!   entry door for query construction), static optimizer passes
//!   ([`plan::PassRegistry`]: constant folding, join-condition
//!   extraction, filter pushdown, projection pruning), and lowering to
//!   the compiled flat stage form ([`exec::program::CompiledProgram`])
//!   the progressive runtime reorders with a cheap permutation re-emit;
//! * [`exec`] — the one executor: the compiled short-circuit loop of
//!   Section 2.1 over a flat table of selection and foreign-key
//!   join-filter stages, driven against the simulated CPU, plus the
//!   invasive enumerator baseline of Section 5.7;
//! * [`progressive`] — the progressive optimization loop of Figure 10:
//!   sample counters per vector, estimate selectivities, reorder, trial,
//!   revert on regression. Every query lowers to one compiled program
//!   and one loop drives it ([`progressive::run_progressive_program`]):
//!   stages are ranked by estimated cost per input tuple and probe
//!   locality is calibrated from the counters (Sections 5.5–5.6);
//! * [`parallel`] — morsel-driven parallel execution with *shared*
//!   progressive reoptimization: worker threads drive independent
//!   simulated cores over cache-friendly morsels, per-worker counter
//!   samples fuse into one pool-wide estimate, accepted orders are
//!   epoch-published to every worker, and trial orders are leased to
//!   exactly one core;
//! * [`serve`] — multi-query serving over the shared pool: admission by
//!   arrival time, stride scheduling by priority, per-query progressive
//!   coordination, and a cross-query order/calibration cache that lets a
//!   repeated query template start from its last converged state;
//! * [`sortedness`] — counter-based access-pattern classification and join
//!   reordering advice;
//! * [`query`] — the paper's queries as [`plan::PlanBuilder`] presets
//!   (TPC-H Q6 and the Figure 1 plan).
//!
//! ```
//! use popt_core::progressive::{
//!     run_baseline, run_progressive_program, ProgressiveConfig, VectorConfig,
//! };
//! use popt_core::query;
//! use popt_cpu::{CpuConfig, SimCpu};
//! use popt_storage::tpch::{generate_lineitem, TpchConfig};
//!
//! let table = generate_lineitem(&TpchConfig::tiny());
//! let mut program = query::q6(&table).compile().unwrap();
//! let vectors = VectorConfig { vector_tuples: 8192, max_vectors: None };
//! let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
//! let baseline = run_baseline(&program, vectors, &mut cpu).unwrap();
//! let config = ProgressiveConfig { reop_interval: 2, ..Default::default() };
//! let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
//! let optimized =
//!     run_progressive_program(&mut program, &[4, 3, 2, 1, 0], vectors, &mut cpu, &config)
//!         .unwrap();
//! // Same answer, independent of how the plan was reordered mid-query.
//! assert_eq!(baseline.sum, optimized.sum);
//! ```

pub mod error;
pub mod exec;
pub mod observe;
pub mod parallel;
pub mod plan;
pub mod predicate;
pub mod progressive;
pub mod query;
pub mod serve;
pub mod sortedness;

pub use error::EngineError;
pub use exec::program::{CompiledProgram, CompiledStage};
pub use observe::ExecObservers;
pub use parallel::{
    run_parallel_program, run_parallel_program_observed, MorselConfig, MorselDispatcher,
    ParallelReport,
};
pub use plan::{Expr, LogicalNode, LogicalPlan, PassRegistry, Peo, PlanBuilder};
pub use predicate::CompareOp;
pub use progressive::{
    run_baseline, run_progressive_program, run_progressive_program_observed, ProgressiveConfig,
    ProgressiveReport, VectorConfig,
};
pub use serve::{
    CacheStats, OrderCache, Priority, QueryServer, QuerySpec, ServeConfig, ServeReport,
    StrideScheduler, WarmRecordOutcome, WorkloadSignature,
};

//! Morsel-driven parallel execution with shared progressive
//! reoptimization.
//!
//! The paper's §4.4 loop is vector-at-a-time on one core; this module is
//! the intra-query-parallel generalization. Three pieces:
//!
//! * a [`popt_cpu::CpuPool`] of independent simulated cores — per-core
//!   cache hierarchies and free-running PMU banks, sharing nothing but
//!   the immutable column store;
//! * a [`MorselDispatcher`] that carves the scanned row range into
//!   cache-friendly morsels with a deterministic interleaved placement
//!   (morsel `k` → worker `k mod N`, HyPer-style morsel-wise work
//!   division) claimed lazily by real `std::thread` workers — placement
//!   independent of host scheduling, so simulated per-core cycle counts
//!   are reproducible on any machine;
//! * a progressive **coordinator** ([`run_parallel_program`]) that
//!   generalizes the serial `run_progressive*` runners to N workers:
//!   per-worker counter samples are fused into one pool-wide estimate,
//!   accepted operator orders are epoch-published (workers re-chain
//!   their pre-compiled primitives at the next morsel boundary), and
//!   trial / measurement-probe orders are leased to exactly one worker
//!   so a bad candidate never runs on more than one core.
//!
//! The coordinator keeps one *master* target — the shared estimator
//! model (order proposal, geometry, probe calibration) — while every
//! worker executes its own clone of the [`crate::exec::CompiledProgram`]
//! over the same immutable column data (the stage table borrows the
//! columns, so the clone is cheap and re-chaining is a permutation
//! re-emit). A selection plan runs through [`run_parallel_scan`], which
//! lowers it first.
//!
//! Results are bit-identical to the single-core executor for any worker
//! count and morsel size: qualifying counts and aggregate sums are
//! integer accumulations over disjoint row ranges, so neither the
//! partitioning nor the completion order can change them.
//!
//! ```
//! use popt_core::parallel::{run_parallel_scan, MorselConfig};
//! use popt_core::plan::SelectionPlan;
//! use popt_core::predicate::{CompareOp, Predicate};
//! use popt_cpu::{CpuConfig, CpuPool};
//! use popt_storage::{AddressSpace, ColumnData, Table};
//!
//! let mut space = AddressSpace::new();
//! let mut table = Table::new("t");
//! table.add_column(
//!     "a",
//!     ColumnData::I32((0..8192).map(|i| (i % 128) as i32).collect()),
//!     &mut space,
//! );
//! let plan =
//!     SelectionPlan::new(vec![Predicate::new("a", CompareOp::Lt, 50)], vec![]).unwrap();
//! let mut pool = CpuPool::new(CpuConfig::tiny_test(), 4);
//! let report = run_parallel_scan(
//!     &table,
//!     &plan,
//!     &[0],
//!     MorselConfig::new(1024),
//!     &mut pool,
//!     None, // baseline; Some(&ProgressiveConfig) enables reopt
//! )
//! .unwrap();
//! assert_eq!(report.qualified, 3200); // 64 cycles of 128 values, 50 qualify each
//! assert_eq!(report.workers, 4);
//! ```

pub mod coordinator;
pub mod morsel;

pub use coordinator::{
    run_parallel_program, run_parallel_program_observed, run_parallel_scan, ParallelReport,
};
pub use morsel::{MorselConfig, MorselDispatcher};

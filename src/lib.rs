//! # popt — Non-Invasive Progressive Optimization for In-Memory Databases
//!
//! A from-scratch Rust reproduction of Zeuch, Pirk and Freytag,
//! *"Non-Invasive Progressive Optimization for In-Memory Databases"*,
//! PVLDB 9(14), VLDB 2016.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`cpu`] — deterministic simulated CPU with PMU counters (the substrate
//!   standing in for the paper's Intel performance monitoring units);
//! * [`storage`] — column store and TPC-H-style data generation;
//! * [`cost`] — the paper's cost models (Markov branch model, cache access
//!   model, join cache-miss model, unified cycle estimates);
//! * [`solver`] — search-space restriction, start-point selection and the
//!   bounded Nelder–Mead selectivity estimator;
//! * [`obs`] — non-invasive observability: deterministic structured
//!   traces stamped in simulated cycles, a metrics registry, and the
//!   Chrome-trace / decision-log exporters (tracing on or off is
//!   bit-identical — see the README's "Observability" section);
//! * [`core`] — the vectorized execution engine and the progressive
//!   optimizer itself: every query is built with one
//!   [`core::plan::PlanBuilder`], lowered to one
//!   [`core::exec::CompiledProgram`] (selections and foreign-key join
//!   filters alike), and driven by one §4.4 loop
//!   ([`core::progressive::run_progressive_program`]), with stages
//!   ranked by estimated cost per input tuple (Sections 5.5–5.6).
//!
//! See `README.md` for a quickstart, the system inventory and the
//! figure-by-figure record.
//!
//! ```
//! // The five-minute tour: run TPC-H Q6 with progressive optimization
//! // from a deliberately bad initial predicate order.
//! use popt::core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
//! use popt::core::query;
//! use popt::cpu::{CpuConfig, SimCpu};
//! use popt::storage::tpch::{TpchConfig, generate_lineitem};
//!
//! let table = generate_lineitem(&TpchConfig::small());
//! let mut program = query::q6(&table).compile().unwrap();
//! let vectors = VectorConfig { vector_tuples: 8192, max_vectors: Some(32) };
//! let config = ProgressiveConfig { reop_interval: 4, ..Default::default() };
//! let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
//! let report =
//!     run_progressive_program(&mut program, &[4, 3, 2, 1, 0], vectors, &mut cpu, &config)
//!         .unwrap();
//! assert!(report.qualified > 0);
//! ```

pub use popt_core as core;
pub use popt_cost as cost;
pub use popt_cpu as cpu;
pub use popt_obs as obs;
pub use popt_solver as solver;
pub use popt_storage as storage;

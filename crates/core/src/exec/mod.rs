//! Query executors driving the simulated CPU.
//!
//! * [`program`] — the one executor: the compiled short-circuit loop of
//!   Section 2.1 over a flat stage table of selections and foreign-key
//!   join filters (Sections 5.5–5.6), reordered by a permutation re-emit;
//! * [`enumerator`] — the invasive, explicit-counter instrumentation
//!   baseline of the overhead experiment (Section 5.7).

pub mod enumerator;
pub mod program;

pub use program::{CompiledProgram, CompiledStage, VectorStats};

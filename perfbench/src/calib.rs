//! Host-speed calibration: a frozen miniature of the simulator's hot loop.
//!
//! The host this benchmark runs on is shared. Co-tenants slow whole
//! stretches of a run, for tens of seconds at a time, by up to 2x, and
//! the engine slows far more than small arithmetic or memory loops do:
//! its cost is cache-model walks over large tag arrays, data-dependent
//! branches and column reads. So each timed step (a query instance, or a
//! serving batch) is bracketed by fixed blocks of this miniature, which
//! does the same kind of work over the step's own columns: it walks them
//! through a three-level set-associative LRU cache model and a two-bit
//! branch-predictor table, stage by stage with short-circuit, as the
//! engine's executor does. The step's host time is then scaled by how
//! fast the blocks ran relative to the workload's typical speed.
//!
//! The miniature is benchmark code: no engine change makes it faster or
//! slower, so an engine speed-up shows in full in the calibrated time.

use std::time::Instant;

use crate::host::{median, ns_since};
use crate::query::{Oracle, Query, Source};
use crate::spans::Spans;

const LINE_SHIFT: u32 = 6;
const MEMORY_COST: u64 = 180;

/// Rows of the step's fact table each calibration block walks.
const CALIB_ROWS: usize = 65_536;

/// Host time of one timed step, and of the calibration blocks run right
/// before and after it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub ns: f64,
    pub calib_ns: f64,
    pub calib_steps: f64,
}

/// The miniature: the benchmark machine's 8 KiB / 64 KiB / 1 MiB
/// hierarchy as tag arrays per level (`u64::MAX` = empty) with their
/// associativity, and a two-bit predictor table.
pub struct Calibrator {
    levels: Vec<(Vec<u64>, usize)>,
    predictor: Vec<u8>,
    history: usize,
}

impl Calibrator {
    pub fn new() -> Self {
        let level = |lines: usize, ways: usize| (vec![u64::MAX; lines], ways);
        Self {
            levels: vec![level(128, 8), level(1024, 8), level(16384, 16)],
            predictor: vec![1; 4096],
            history: 0,
        }
    }

    /// Look `addr` up level by level, filling on the way back; returns
    /// the modelled cycles (kept so the walk cannot be optimised away).
    fn access(&mut self, addr: u64) -> u64 {
        let line = addr >> LINE_SHIFT;
        let mut cost = 0;
        for (tags, ways) in &mut self.levels {
            let sets = tags.len() / *ways;
            let first = (line as usize % sets) * *ways;
            let set = &mut tags[first..first + *ways];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set[..=pos].rotate_right(1);
                return cost;
            }
            set.rotate_right(1);
            set[0] = line;
            cost += 10;
        }
        cost + MEMORY_COST
    }

    fn branch(&mut self, site: usize, taken: bool) -> u64 {
        let idx = (self.history ^ site.wrapping_mul(97)) & (self.predictor.len() - 1);
        let c = self.predictor[idx];
        self.predictor[idx] = if taken {
            (c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
        self.history = (self.history << 1 | usize::from(taken)) & 0xff;
        u64::from((c >= 2) != taken) * 15
    }

    /// Run the miniature over rows `start..end` of `q`; returns
    /// `(host ns, steps)`.
    fn block(&mut self, q: &Query<'_>, start: usize, end: usize) -> (f64, f64) {
        let oracle = Oracle::new(q);
        let bases: Vec<(u64, u64)> = q
            .preds
            .iter()
            .map(|p| {
                let base =
                    |t: &popt_storage::Table, c: &str| t.column(c).map_or(0, |c| c.base_addr());
                match p.source {
                    Source::Fact(c) => (base(q.fact, c), 0),
                    Source::Join { dim, fk, column } => (base(q.fact, fk), base(dim, column)),
                }
            })
            .collect();
        let t = Instant::now();
        let (mut cycles, mut steps) = (0u64, 0u64);
        for i in start..end {
            for (k, &(col, dim)) in bases.iter().enumerate() {
                cycles += self.access(col + i as u64 * 4);
                let (pass, key) = oracle.probe(k, i);
                if let Some(key) = key {
                    cycles += self.access(dim + key as u64 * 4);
                    steps += 1;
                }
                cycles += self.branch(k, pass);
                steps += 2;
                if !pass {
                    break;
                }
            }
        }
        std::hint::black_box(cycles);
        (ns_since(t), steps as f64)
    }

    /// Time `step`, bracketed by calibration blocks over `q` (slices
    /// chosen by `slot`) before and after it, so that a change of host
    /// speed during the step shows in both.
    pub fn time<T>(&mut self, q: &Query<'_>, slot: usize, step: impl FnOnce() -> T) -> (T, Timed) {
        let (before_ns, before_steps) = self.slice_block(q, slot);
        let t = Instant::now();
        let out = step();
        let ns = ns_since(t);
        let (after_ns, after_steps) = self.slice_block(q, slot + 1);
        (
            out,
            Timed {
                ns,
                calib_ns: before_ns + after_ns,
                calib_steps: before_steps + after_steps,
            },
        )
    }

    /// A block over the `CALIB_ROWS`-row slice of `q` chosen by `slot`.
    fn slice_block(&mut self, q: &Query<'_>, slot: usize) -> (f64, f64) {
        let rows = q.fact.rows();
        let n = CALIB_ROWS.min(rows);
        let start = slot.wrapping_mul(977_777) % (rows - n + 1);
        self.block(q, start, start + n)
    }
}

/// Host ns per miniature step (one cache-model access or predictor
/// update) over `steps`' calibration blocks.
pub fn ns_per_step(steps: &[Timed]) -> f64 {
    let calib_ns: f64 = steps.iter().map(|s| s.calib_ns).sum();
    let calib_steps: f64 = steps.iter().map(|s| s.calib_steps).sum();
    calib_ns / calib_steps
}

/// Total host ns of `steps`, scaled to a host whose calibration blocks
/// run at `ref_ns_per_step`: the workload's blocks' speed on a quiet
/// host, measured once and fixed in the workload definition.
pub fn calibrated_ns(steps: &[Timed], ref_ns_per_step: f64) -> f64 {
    raw_ns(steps) * ref_ns_per_step / ns_per_step(steps)
}

/// Per-round host figures of a run, kept instead of the rounds
/// themselves so that peak memory does not grow with the round count.
#[derive(Default)]
pub struct RoundTimes {
    calibrated: Vec<f64>,
    raw: Vec<f64>,
    ns_per_step: Vec<f64>,
}

impl RoundTimes {
    /// Record a round of `steps` over `tuples` input tuples.
    pub fn push(&mut self, steps: &[Timed], tuples: f64, ref_ns_per_step: f64) {
        self.calibrated
            .push(calibrated_ns(steps, ref_ns_per_step) / tuples);
        self.raw.push(raw_ns(steps) / tuples);
        self.ns_per_step.push(ns_per_step(steps));
    }

    pub fn rounds(&self) -> usize {
        self.raw.len()
    }

    /// Median calibrated host ns per tuple.
    pub fn ns_per_tuple(&self) -> f64 {
        median(&self.calibrated)
    }

    /// A one-line summary for stderr.
    pub fn note(&self, ref_ns_per_step: f64) -> String {
        format!(
            "{} rounds; host ns/tuple median: raw {:.3}, calibrated {:.3}; calibration {:.3} ns/step (reference {ref_ns_per_step})",
            self.rounds(),
            median(&self.raw),
            self.ns_per_tuple(),
            median(&self.ns_per_step),
        )
    }
}

/// Total uncalibrated host ns of `steps`.
pub fn raw_ns(steps: &[Timed]) -> f64 {
    steps.iter().map(|s| s.ns).sum()
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Rows of the generator calibration block run before each set-up.
const SETUP_CALIB_ROWS: usize = 1 << 20;
/// Host ns of that block on a quiet reference host.
const SETUP_CALIB_REF_NS: f64 = 4.0e6;

/// Generate the data `SETUP_REPS` times (dropping the previous copy
/// first, so peak memory holds one copy), building the simulated core or
/// pool after each. Set-up time is mostly the benchmark's own generator
/// at work, so each set-up is calibrated by a block of that generator
/// (one fresh column) run right before it: what remains is host-speed
/// independent, and the engine's share (table construction, core or
/// pool construction) shows in full. Returns the median calibrated
/// seconds and the last copy.
pub fn setup<T>(spans: &mut Spans, mut make: impl FnMut() -> T, construct: impl Fn()) -> (f64, T) {
    let (mut raw, mut calibrated) = (Vec::new(), Vec::new());
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let t = Instant::now();
        std::hint::black_box(crate::gen::calibration_column(SETUP_CALIB_ROWS));
        let calib_ns = ns_since(t);
        let t = Instant::now();
        let s = spans.begin("storage.gen", None);
        data = Some(make());
        spans.end(s, &[]);
        let s = spans.begin("cpu.setup", None);
        construct();
        spans.end(s, &[]);
        let ns = ns_since(t);
        raw.push(ns / 1e9);
        calibrated.push(ns * SETUP_CALIB_REF_NS / calib_ns / 1e9);
    }
    eprintln!(
        "# set-up median: raw {:.4} s, calibrated {:.4} s",
        median(&raw),
        median(&calibrated)
    );
    (median(&calibrated), data.expect("at least one set-up"))
}

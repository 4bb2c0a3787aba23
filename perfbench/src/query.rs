//! The benchmark's own description of a query, and the oracle that
//! evaluates it in plain Rust over the generated columns.
//!
//! A [`Query`] is what the workload generators emit. The engine adapter
//! (`engine.rs`) lowers it through the engine's plan frontend; the oracle
//! here evaluates the same predicates row by row, with no engine code
//! involved, so the engine's `(qualified, sum)` can be checked against it.

use popt_storage::Table;

/// Comparison of a column value against a literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lt,
    Le,
    Ge,
}

impl Op {
    fn eval(self, value: i64, literal: i64) -> bool {
        match self {
            Op::Lt => value < literal,
            Op::Le => value <= literal,
            Op::Ge => value >= literal,
        }
    }
}

/// Where a predicate's tested value comes from.
#[derive(Clone, Copy)]
pub enum Source<'t> {
    /// A column of the fact table.
    Fact(&'static str),
    /// A dimension column reached through a foreign key of the fact.
    Join {
        dim: &'t Table,
        fk: &'static str,
        column: &'static str,
    },
}

/// One conjunct: `source OP literal`, optionally charging extra
/// instructions per evaluation (an expensive predicate).
#[derive(Clone, Copy)]
pub struct Pred<'t> {
    pub source: Source<'t>,
    pub op: Op,
    pub literal: i64,
    pub extra_instructions: u64,
    /// The benchmark's own guess of the stage's simulated cycles per
    /// evaluation, used only to pick the worst start order.
    pub weight: f64,
}

impl<'t> Pred<'t> {
    pub fn select(column: &'static str, op: Op, literal: i64) -> Self {
        Self {
            source: Source::Fact(column),
            op,
            literal,
            extra_instructions: 0,
            weight: 1.0,
        }
    }

    /// Foreign-key join filter keeping rows whose `dim.column < literal`.
    pub fn join(dim: &'t Table, fk: &'static str, column: &'static str, literal: i64) -> Self {
        Self {
            source: Source::Join { dim, fk, column },
            op: Op::Lt,
            literal,
            extra_instructions: 0,
            weight: 1.0,
        }
    }

    pub fn costed(mut self, extra_instructions: u64) -> Self {
        self.extra_instructions = extra_instructions;
        self
    }

    pub fn weighted(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// A selection/join query over one fact table: the conjunction of
/// `preds`, summing the product of `aggs` over qualifying rows.
pub struct Query<'t> {
    pub fact: &'t Table,
    pub preds: Vec<Pred<'t>>,
    pub aggs: Vec<&'static str>,
}

/// The result every engine run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub qualified: u64,
    pub sum: i64,
}

fn i32_column<'t>(table: &'t Table, name: &str) -> &'t [i32] {
    table
        .column(name)
        .and_then(|c| c.data().as_i32())
        .unwrap_or_else(|| panic!("generated table {} has an i32 column {name}", table.name()))
}

/// A predicate with its columns resolved to slices.
enum Resolved<'t> {
    Fact(&'t [i32]),
    Join(&'t [i32], &'t [i32]),
}

/// Row-at-a-time evaluator of a query's predicates.
pub struct Oracle<'t> {
    preds: Vec<(Resolved<'t>, Op, i64)>,
    aggs: Vec<&'t [i32]>,
    rows: usize,
}

impl<'t> Oracle<'t> {
    pub fn new(q: &Query<'t>) -> Self {
        let preds = q
            .preds
            .iter()
            .map(|p| {
                let r = match p.source {
                    Source::Fact(c) => Resolved::Fact(i32_column(q.fact, c)),
                    Source::Join { dim, fk, column } => {
                        Resolved::Join(i32_column(q.fact, fk), i32_column(dim, column))
                    }
                };
                (r, p.op, p.literal)
            })
            .collect();
        Self {
            preds,
            aggs: q.aggs.iter().map(|a| i32_column(q.fact, a)).collect(),
            rows: q.fact.rows(),
        }
    }

    fn passes(&self, k: usize, i: usize) -> bool {
        self.probe(k, i).0
    }

    /// Whether row `i` passes predicate `k`, and the dimension row it
    /// probed (`None` for a fact-column predicate).
    pub fn probe(&self, k: usize, i: usize) -> (bool, Option<usize>) {
        let (src, op, lit) = &self.preds[k];
        let (v, key) = match src {
            Resolved::Fact(col) => (col[i], None),
            Resolved::Join(fk, dim) => {
                let key = fk[i] as usize;
                (dim[key], Some(key))
            }
        };
        (op.eval(i64::from(v), *lit), key)
    }

    /// `(qualified, sum)` over all rows. The sum wraps like the engine's
    /// release-mode integer arithmetic.
    pub fn expected(&self) -> Expected {
        let mut qualified = 0u64;
        let mut sum = 0i64;
        for i in 0..self.rows {
            if (0..self.preds.len()).all(|k| self.passes(k, i)) {
                qualified += 1;
                let product = self
                    .aggs
                    .iter()
                    .fold(1i64, |acc, col| acc.wrapping_mul(i64::from(col[i])));
                sum = sum.wrapping_add(product);
            }
        }
        Expected { qualified, sum }
    }

    /// Each predicate's pass rate over the whole table, in query order.
    pub fn pass_rates(&self) -> Vec<f64> {
        (0..self.preds.len())
            .map(|k| {
                (0..self.rows).filter(|&i| self.passes(k, i)).count() as f64 / self.rows as f64
            })
            .collect()
    }

    /// True conditional pass rates over rows `start..end` when evaluated
    /// in `order` (query indices): stage `k` sees only rows that passed
    /// stages `0..k`. A stage no row reaches reports 1.0, the estimator's
    /// own convention for an unobserved stage.
    pub fn conditional_rates(&self, order: &[usize], start: usize, end: usize) -> Vec<f64> {
        let mut reached = vec![0u64; order.len()];
        let mut passed = vec![0u64; order.len()];
        for i in start..end {
            for (k, &q) in order.iter().enumerate() {
                reached[k] += 1;
                if !self.passes(q, i) {
                    break;
                }
                passed[k] += 1;
            }
        }
        reached
            .iter()
            .zip(&passed)
            .map(|(&r, &p)| if r == 0 { 1.0 } else { p as f64 / r as f64 })
            .collect()
    }
}

/// Worst start order: descending `weight / (1 − pass rate)`, the reverse
/// of the rank rule that orders independent filters optimally (cheap,
/// selective stages first). With equal weights this is descending pass
/// rate. Ties keep query order.
pub fn worst_order(q: &Query<'_>, pass_rates: &[f64]) -> Vec<usize> {
    let rank: Vec<f64> = q
        .preds
        .iter()
        .zip(pass_rates)
        .map(|(p, s)| p.weight / (1.0 - s).max(1e-9))
        .collect();
    let mut order: Vec<usize> = (0..rank.len()).collect();
    order.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]));
    order
}

/// All permutations of `0..n`, in lexicographic order.
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out.sort();
    out
}

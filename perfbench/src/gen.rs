//! Benchmark-owned input generators: the tables of every workload, the
//! literal schedules that slide between query instances, and the
//! serve-mix arrival schedule. Everything is a pure function of the seed
//! and the sizes; nothing is borrowed from the engine's own generators,
//! so a change to those cannot change what the benchmark measures.

use popt_storage::{AddressSpace, ColumnData, Table};

use crate::query::{Op, Pred, Query};

/// SplitMix64: small, fast, and good enough for uniform test data.
struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`; distinct streams are
    /// independent, so adding a column never shifts another one.
    fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as u64) as i32
    }
}

fn column(rows: usize, seed: u64, stream: u64, f: impl Fn(usize, &mut Rng) -> i32) -> ColumnData {
    let mut rng = Rng::new(seed, stream);
    ColumnData::I32((0..rows).map(|i| f(i, &mut rng)).collect())
}

/// A uniform column of `rows` values: the unit of work the set-up
/// calibration times (see `serial::setup`).
pub fn calibration_column(rows: usize) -> ColumnData {
    column(rows, 0, 0, |_, r| r.range(0, DOMAIN - 1))
}

/// Total column bytes of `tables`, in MiB.
pub fn column_mb(tables: &[&Table]) -> f64 {
    tables.iter().map(|t| t.bytes() as f64).sum::<f64>() / (1024.0 * 1024.0)
}

/// Domain of every uniform attribute column: a literal `L` keeps the
/// share `L / DOMAIN` of the rows under `< L`.
const DOMAIN: i32 = 10_000;

fn pass_literal(share: f64) -> i64 {
    (share * f64::from(DOMAIN)).round() as i64
}

// ---------------------------------------------------------------- q6-scan

/// Months of `l_shipdate`: January 1992 to December 1998, as in TPC-H.
const Q6_MONTHS: usize = 84;
/// Query instances per q6-scan round (one per shipdate year 1993–1997).
pub const Q6_INSTANCES: usize = 5;

fn days_in_month(month: usize) -> i32 {
    let year = 1992 + month / 12;
    match month % 12 {
        1 if year.is_multiple_of(4) => 29,
        1 => 28,
        3 | 5 | 8 | 10 => 30,
        _ => 31,
    }
}

/// Days from 1992-01-01 to the first day of `month` (0 = January 1992).
fn month_start(month: usize) -> i32 {
    (0..month).map(days_in_month).sum()
}

/// Days from 1992-01-01 to January 1st of `year`.
fn year_start(year: usize) -> i64 {
    i64::from(month_start((year - 1992) * 12))
}

/// A TPC-H-shaped `lineitem` with the four columns Q6 reads. Rows are
/// sorted by ship month (month-clustered, as after a bulk load in ship
/// order), so the shipdate predicates' pass rates change along the scan.
pub fn lineitem(rows: usize, seed: u64, space: &mut AddressSpace) -> Table {
    let months: Vec<(i32, u64)> = (0..Q6_MONTHS)
        .map(|m| (month_start(m), days_in_month(m) as u64))
        .collect();
    let shipdate = column(rows, seed, 1, |i, r| {
        let (start, days) = months[i * Q6_MONTHS / rows];
        start + r.below(days) as i32
    });
    let quantity = column(rows, seed, 3, |_, r| r.range(1, 50));
    let q = quantity.as_i32().expect("generated as i32");
    let price = column(rows, seed, 4, |i, r| q[i] * r.range(900, 2_100));
    let mut t = Table::new("lineitem");
    t.add_column("l_shipdate", shipdate, space);
    t.add_column(
        "l_discount",
        column(rows, seed, 2, |_, r| r.range(0, 10)),
        space,
    );
    t.add_column("l_quantity", quantity, space);
    t.add_column("l_extendedprice", price, space);
    t
}

/// Q6 instance `k`: the shipdate year slides over 1993–1997 and the
/// discount band over 1–10, so the best order differs per instance and,
/// within one instance, along the month-clustered scan.
pub fn q6_query(lineitem: &Table, k: usize) -> Query<'_> {
    let year = 1993 + k % 5;
    let discount = 2 + (3 * k % 8) as i64;
    let quantity = 24 + (k % 2) as i64;
    Query {
        fact: lineitem,
        preds: vec![
            Pred::select("l_shipdate", Op::Ge, year_start(year)),
            Pred::select("l_shipdate", Op::Lt, year_start(year + 1)),
            Pred::select("l_discount", Op::Ge, discount - 1),
            Pred::select("l_discount", Op::Le, discount + 1),
            Pred::select("l_quantity", Op::Lt, quantity),
        ],
        aggs: vec!["l_extendedprice", "l_discount"],
    }
}

// -------------------------------------------------------------- star-join

/// Row counts of a star schema.
#[derive(Debug, Clone, Copy)]
pub struct StarSizes {
    pub fact: usize,
    pub customer: usize,
    pub supplier: usize,
    pub part: usize,
}

/// A fact table with three foreign keys and its three dimensions, all in
/// one simulated address space.
pub struct Star {
    pub fact: Table,
    pub customer: Table,
    pub supplier: Table,
    pub part: Table,
}

/// Generate a star schema. `customer` is co-clustered with the fact
/// table (keys ascend along the scan, with a little jitter); `supplier`
/// and `part` keys are uniform random. Every dimension carries one
/// uniform attribute column over `0..DOMAIN`.
pub fn star(sizes: StarSizes, seed: u64, space: &mut AddressSpace) -> Star {
    let dim = |name: &str, attr: &str, rows: usize, stream: u64, space: &mut AddressSpace| {
        let mut t = Table::new(name);
        t.add_column(
            attr,
            column(rows, seed, stream, |_, r| r.range(0, DOMAIN - 1)),
            space,
        );
        t
    };
    let customer = dim("customer", "c_attr", sizes.customer, 10, space);
    let supplier = dim("supplier", "s_attr", sizes.supplier, 11, space);
    let part = dim("part", "p_attr", sizes.part, 12, space);
    let mut fact = Table::new("fact");
    let (n, c) = (sizes.fact, sizes.customer);
    let custkey = column(n, seed, 13, |i, r| {
        let home = (i as u64 * c as u64 / n as u64) as i64 + i64::from(r.range(-8, 8));
        home.clamp(0, c as i64 - 1) as i32
    });
    fact.add_column("f_custkey", custkey, space);
    let s = sizes.supplier as u64;
    fact.add_column(
        "f_suppkey",
        column(n, seed, 14, |_, r| r.below(s) as i32),
        space,
    );
    let p = sizes.part as u64;
    fact.add_column(
        "f_partkey",
        column(n, seed, 15, |_, r| r.below(p) as i32),
        space,
    );
    fact.add_column(
        "f_val",
        column(n, seed, 16, |_, r| r.range(0, DOMAIN - 1)),
        space,
    );
    fact.add_column(
        "f_amount",
        column(n, seed, 17, |_, r| r.range(1, 1_000)),
        space,
    );
    Star {
        fact,
        customer,
        supplier,
        part,
    }
}

/// Star-join instances per round.
pub const STAR_INSTANCES: usize = 4;

/// Extra instructions per evaluation of the star's costed selection (an
/// expensive predicate, as in the paper's §5.6 join-vs-selection study).
pub const STAR_SELECTION_COST: u64 = 40;

/// Start-order weights (the benchmark's guess of simulated cycles per
/// evaluation on `engine::machine()`): a co-clustered probe streams, a
/// random probe into a dimension beyond the LLC pays a memory access, one
/// into a dimension between L2 and LLC an LLC hit; the costed selection
/// pays its extra instructions at 0.5 cycles each.
const CO_CLUSTERED_PROBE: f64 = 2.0;
const MEMORY_PROBE: f64 = 180.0;
const LLC_PROBE: f64 = 30.0;
const COSTED_SELECTION: f64 = 1.0 + 0.5 * STAR_SELECTION_COST as f64;

/// Star instance `k`: pass rates of (customer join, supplier join, part
/// join, costed selection) slide so that a different stage is best first.
pub fn star_query(s: &Star, k: usize) -> Query<'_> {
    const SCHEDULE: [[f64; 4]; STAR_INSTANCES] = [
        [0.95, 0.30, 0.60, 0.50],
        [0.20, 0.90, 0.50, 0.70],
        [0.60, 0.50, 0.10, 0.90],
        [0.80, 0.70, 0.90, 0.15],
    ];
    let rates = SCHEDULE[k % STAR_INSTANCES];
    Query {
        fact: &s.fact,
        preds: vec![
            Pred::join(&s.customer, "f_custkey", "c_attr", pass_literal(rates[0]))
                .weighted(CO_CLUSTERED_PROBE),
            Pred::join(&s.supplier, "f_suppkey", "s_attr", pass_literal(rates[1]))
                .weighted(MEMORY_PROBE),
            Pred::join(&s.part, "f_partkey", "p_attr", pass_literal(rates[2])).weighted(LLC_PROBE),
            Pred::select("f_val", Op::Lt, pass_literal(rates[3]))
                .costed(STAR_SELECTION_COST)
                .weighted(COSTED_SELECTION),
        ],
        aggs: vec!["f_amount"],
    }
}

// -------------------------------------------------------------- serve-mix

/// Tables of the serving mix: a narrow foreground scan table, a small
/// star (co-clustered customer, random part between L2 and LLC size),
/// and a larger background scan table.
pub struct ServeTables {
    pub scan: Table,
    pub fact: Table,
    pub customer: Table,
    pub part: Table,
    pub background: Table,
}

/// Row counts of the serving mix.
#[derive(Debug, Clone, Copy)]
pub struct ServeSizes {
    pub scan: usize,
    pub fact: usize,
    pub customer: usize,
    pub part: usize,
    pub background: usize,
}

pub fn serve_tables(sizes: ServeSizes, seed: u64, space: &mut AddressSpace) -> ServeTables {
    let uniform =
        |name: &str, cols: &[&str], rows: usize, stream: u64, space: &mut AddressSpace| {
            let mut t = Table::new(name);
            for (k, c) in cols.iter().enumerate() {
                let data = column(rows, seed, stream + k as u64, |_, r| r.range(0, DOMAIN - 1));
                t.add_column(*c, data, space);
            }
            t
        };
    let scan = uniform("scan", &["a", "b", "c"], sizes.scan, 20, space);
    let background = uniform("background", &["x", "y"], sizes.background, 30, space);
    let customer = uniform("sv_customer", &["c_attr"], sizes.customer, 40, space);
    let part = uniform("sv_part", &["p_attr"], sizes.part, 41, space);
    let mut fact = Table::new("sv_fact");
    let (n, c) = (sizes.fact as u64, sizes.customer as u64);
    fact.add_column(
        "f_custkey",
        column(sizes.fact, seed, 42, |i, _| (i as u64 * c / n) as i32),
        space,
    );
    let p = sizes.part as u64;
    fact.add_column(
        "f_partkey",
        column(sizes.fact, seed, 43, |_, r| r.below(p) as i32),
        space,
    );
    fact.add_column(
        "f_amount",
        column(sizes.fact, seed, 44, |_, r| r.range(1, 1_000)),
        space,
    );
    ServeTables {
        scan,
        fact,
        customer,
        part,
        background,
    }
}

/// Literal variants per serving template; the batch schedule cycles
/// through them so later batches repeat templates with new literals.
pub const SERVE_VARIANTS: usize = 8;

/// The serving templates, in the order queries cycle through them.
pub const SERVE_TEMPLATES: [&str; 3] = ["scan", "star", "background"];

/// Template `t` (index into [`SERVE_TEMPLATES`]) with literal variant `v`.
/// Predicates are listed worst first by the rule of
/// `query::worst_order`, which is the order a query starts from when the
/// order cache has nothing for it.
pub fn serve_query(s: &ServeTables, template: usize, v: usize) -> Query<'_> {
    let slide = (v % SERVE_VARIANTS) as f64 / SERVE_VARIANTS as f64;
    let lit = |base: f64| pass_literal(base + 0.08 * slide);
    match template {
        0 => Query {
            fact: &s.scan,
            preds: vec![
                Pred::select("a", Op::Lt, lit(0.85)),
                Pred::select("b", Op::Lt, lit(0.45)),
                Pred::select("c", Op::Lt, lit(0.10)),
            ],
            aggs: vec!["a"],
        },
        1 => Query {
            fact: &s.fact,
            preds: vec![
                Pred::join(&s.part, "f_partkey", "p_attr", lit(0.25)),
                Pred::join(&s.customer, "f_custkey", "c_attr", lit(0.80)),
            ],
            aggs: vec!["f_amount"],
        },
        _ => Query {
            fact: &s.background,
            preds: vec![
                Pred::select("x", Op::Lt, lit(0.85)),
                Pred::select("y", Op::Lt, lit(0.40)),
            ],
            aggs: vec!["y"],
        },
    }
}

//! Synthetic workloads shared by the counter/model figures: uniform
//! random columns with selectivity-addressable predicates, plus the
//! star-schema workload the multi-join and parallel-scaling figures
//! exercise.

use popt_core::exec::program::CompiledProgram;
use popt_core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt_storage::{AddressSpace, ColumnData, Table};

/// Value domain of the uniform columns (selectivity granularity 1/10000).
pub const DOMAIN: i64 = 10_000;

/// One step of xorshift64* — the deterministic PRNG every synthetic
/// workload draws from. Seed states should be made odd (`seed | 1`) so
/// the zero state can never occur.
pub fn xorshift64(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33
}

/// A table with `columns` independent uniform columns `c0..` over
/// `0..DOMAIN` plus an aggregate column `agg`.
pub fn uniform_table(rows: usize, columns: usize, seed: u64) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("uniform");
    let mut state = seed | 1;
    for c in 0..columns {
        let data: Vec<i32> = (0..rows)
            .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
            .collect();
        t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
    }
    let agg: Vec<i32> = (0..rows)
        .map(|_| (xorshift64(&mut state) % 100) as i32)
        .collect();
    t.add_column("agg", ColumnData::I32(agg), &mut space);
    t
}

/// The Figure-14 "Mem" workload shared by the parallel figures and
/// tests: a fact table whose `fk` addresses a `rows/4`-tuple dimension
/// uniformly at random (the fully shuffled end of the fig14 sortedness
/// sweep) plus a `val` column, and the dimension's `payload` — both
/// uniform over `0..DOMAIN`, so `< literal_for(s)` selects with
/// selectivity `s` on either side.
pub fn fig14_mem_tables(rows: usize, seed: u64) -> (Table, Table) {
    mem_tables_with_dim(rows, rows / 4, seed)
}

/// [`fig14_mem_tables`] with an explicit dimension row count — the
/// shared-LLC figures size the probed dimension against the socket
/// capacity (fits the full LLC, thrashes a contended share) instead of
/// deriving it from the fact table.
pub fn mem_tables_with_dim(rows: usize, dim_n: usize, seed: u64) -> (Table, Table) {
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    fact.add_column(
        "fk",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    fact.add_column(
        "val",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
                .collect(),
        ),
        &mut dim_space,
    );
    (fact, dim)
}

/// NUMA affinity workload: fact (`fk`, `val`) plus a dimension
/// (`payload`) allocated in **one** address space, so the two tables
/// occupy disjoint simulated addresses and a [`popt_cpu::NumaPlacement`]
/// can home their ranges independently. (Separate `AddressSpace`s all
/// start at the same base address — registrations would collide.)
///
/// `bands` are the per-socket fact row ranges the affinity dispatcher
/// will pin (`MorselDispatcher::socket_row_range`); a row in band `b`
/// draws its FK uniformly from the proportional slice of the dimension,
/// the partitioned layout a NUMA-aware build produces. Probes stay fully
/// random *within* the band (memory-served when the band outgrows the
/// LLC), so a placement that homes each band on its socket makes every
/// probe local while the default line-interleave leaves roughly half of
/// them remote.
pub fn numa_banded_tables(
    rows: usize,
    dim_n: usize,
    bands: &[(usize, usize)],
    seed: u64,
) -> (Table, Table) {
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let dim_band = |r: usize| r * dim_n / rows;
    let mut fk = Vec::with_capacity(rows);
    for &(r0, r1) in bands {
        let (d0, d1) = (dim_band(r0), dim_band(r1));
        let width = (d1 - d0).max(1) as u64;
        for _ in r0..r1 {
            fk.push((d0 as u64 + xorshift64(&mut state) % width) as i32);
        }
    }
    assert_eq!(fk.len(), rows, "bands must cover every fact row");
    let mut fact = Table::new("fact");
    fact.add_column("fk", ColumnData::I32(fk), &mut space);
    fact.add_column(
        "val",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    (fact, dim)
}

/// NUMA divergence workload: a fact with two fully random FKs into two
/// equal-size dimensions (`dim_a.payload_a`, `dim_b.payload_b`), all
/// three tables in **one** address space (see [`numa_banded_tables`] for
/// why). Homing `dim_a` on socket 0 and `dim_b` on socket 1 makes the
/// two join stages cost-symmetric *mirror images* across the sockets —
/// the setup in which each socket's progressive loop should converge to
/// probing its local dimension first.
pub fn numa_two_dim_tables(rows: usize, dim_n: usize, seed: u64) -> (Table, Table, Table) {
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for fk in ["fk_a", "fk_b"] {
        fact.add_column(
            fk,
            ColumnData::I32(
                (0..rows)
                    .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                    .collect(),
            ),
            &mut space,
        );
    }
    let mut dim = |name: &str, col: &str| {
        let mut t = Table::new(name);
        t.add_column(
            col,
            ColumnData::I32(
                (0..dim_n)
                    .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
                    .collect(),
            ),
            &mut space,
        );
        t
    };
    let dim_a = dim("dim_a", "payload_a");
    let dim_b = dim("dim_b", "payload_b");
    (fact, dim_a, dim_b)
}

/// Literal giving a `< literal` predicate the requested selectivity on a
/// uniform `0..DOMAIN` column.
pub fn literal_for(selectivity: f64) -> i64 {
    (selectivity.clamp(0.0, 1.0) * DOMAIN as f64).round() as i64
}

/// Plan over `table` with one `< literal` filter per selectivity, on
/// `c0, c1, …`, aggregating over `agg`.
pub fn uniform_plan<'t>(table: &'t Table, selectivities: &[f64]) -> LogicalPlan<'t> {
    selectivities
        .iter()
        .enumerate()
        .fold(PlanBuilder::scan(table), |b, (i, &s)| {
            b.filter(Expr::col(format!("c{i}")).less_than(literal_for(s)))
        })
        .aggregate("agg")
        .build()
}

/// [`uniform_plan`] lowered in evaluation order `order`.
pub fn uniform_program<'t>(
    table: &'t Table,
    selectivities: &[f64],
    order: &[usize],
) -> CompiledProgram<'t> {
    compile_in(&uniform_plan(table, selectivities), order)
}

/// Lower `plan` (one stage per filter, in plan order) and switch it to
/// evaluation order `order`.
pub fn compile_in<'t>(plan: &LogicalPlan<'t>, order: &[usize]) -> CompiledProgram<'t> {
    let mut program = plan.compile().expect("plan lowers");
    program.reorder(order).expect("valid evaluation order");
    program
}

/// A star-schema workload: one fact table with three foreign keys into
/// dimension tables of descending size and different access locality.
///
/// * `customer` — the largest dimension, addressed by a **co-clustered**
///   FK (fact tuples arrive in customer order, the lineitem→orders
///   pattern): probes are near-sequential however big the table is.
/// * `supplier` — mid-sized, addressed by a **random** FK: probes thrash
///   any LLC the table outgrows.
/// * `part` — the smallest dimension, also randomly addressed: cheap
///   once it fits a private cache level.
///
/// Every dimension payload is uniform over `0..DOMAIN`, so FK-filter
/// selectivities are addressable via [`literal_for`] exactly like the
/// uniform scan columns.
pub struct StarSchema {
    /// The fact table (`fk_customer`, `fk_supplier`, `fk_part`, `val`,
    /// `agg`).
    pub fact: Table,
    /// Largest dimension, co-clustered FK (`c_payload`).
    pub customer: Table,
    /// Mid dimension, random FK (`s_payload`).
    pub supplier: Table,
    /// Smallest dimension, random FK (`p_payload`).
    pub part: Table,
}

impl StarSchema {
    /// Dimension row counts for a fact table of `rows`.
    pub fn dim_rows(rows: usize) -> [usize; 3] {
        [(rows / 4).max(16), (rows / 8).max(16), (rows / 16).max(16)]
    }
}

/// Generate the star schema for `rows` fact tuples.
pub fn star_schema(rows: usize, seed: u64) -> StarSchema {
    let [customer_n, supplier_n, part_n] = StarSchema::dim_rows(rows);
    let mut state = seed | 1;
    let mut next = move || xorshift64(&mut state);
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    fact.add_column(
        "fk_customer",
        ColumnData::I32((0..rows).map(|i| (i * customer_n / rows) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "fk_supplier",
        ColumnData::I32(
            (0..rows)
                .map(|_| (next() % supplier_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    fact.add_column(
        "fk_part",
        ColumnData::I32((0..rows).map(|_| (next() % part_n as u64) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "val",
        ColumnData::I32((0..rows).map(|_| (next() % DOMAIN as u64) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "agg",
        ColumnData::I32((0..rows).map(|_| (next() % 100) as i32).collect()),
        &mut space,
    );
    let mut dim = |name: &str, col: &str, n: usize| {
        let mut dim_space = AddressSpace::new();
        let mut t = Table::new(name);
        t.add_column(
            col,
            ColumnData::I32((0..n).map(|_| (next() % DOMAIN as u64) as i32).collect()),
            &mut dim_space,
        );
        t
    };
    StarSchema {
        customer: dim("customer", "c_payload", customer_n),
        supplier: dim("supplier", "s_payload", supplier_n),
        part: dim("part", "p_payload", part_n),
        fact,
    }
}

/// Build the star-join program through the query frontend: an optional
/// selection on `val` plus the three FK join filters, each
/// `< literal_for(selectivity)` on its dimension payload, aggregating
/// over `agg` — [`PlanBuilder`] → optimizer passes → compiled program.
///
/// Plan-order stage indices: selection (if any) first, then customer,
/// supplier, part — so with a selection, plan index 1 is the
/// co-clustered join and 2/3 are the random ones.
pub fn star_program<'t>(
    star: &'t StarSchema,
    select_sel: Option<f64>,
    join_sels: [f64; 3],
) -> CompiledProgram<'t> {
    let mut builder = PlanBuilder::scan(&star.fact);
    if let Some(sel) = select_sel {
        builder = builder.filter_costed(Expr::col("val").less_than(literal_for(sel)), 50);
    }
    let joins: [(&Table, &str, &str); 3] = [
        (&star.customer, "fk_customer", "c_payload"),
        (&star.supplier, "fk_supplier", "s_payload"),
        (&star.part, "fk_part", "p_payload"),
    ];
    for (&(dim, fk, payload), sel) in joins.iter().zip(join_sels) {
        builder = builder.join(dim, fk, Expr::col(payload).less_than(literal_for(sel)));
    }
    builder
        .aggregate("agg")
        .build()
        .optimize()
        .compile()
        .expect("star plan lowers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_cpu::{CpuConfig, SimCpu};
    use popt_storage::stats;

    #[test]
    fn uniform_columns_hit_requested_selectivity() {
        let t = uniform_table(50_000, 2, 42);
        for c in ["c0", "c1"] {
            let col = t.column(c).unwrap();
            let sel = stats::selectivity(col.data(), |v| v < literal_for(0.3));
            assert!((sel - 0.3).abs() < 0.02, "{c}: {sel}");
        }
    }

    #[test]
    fn plan_matches_requested_arity() {
        let t = uniform_table(64, 3, 7);
        let p = uniform_program(&t, &[0.5, 0.1, 0.9], &[2, 0, 1]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.order(), &[2, 0, 1]);
        assert_eq!(p.stage(1).literal(), literal_for(0.1));
    }

    #[test]
    fn star_schema_joins_hit_requested_selectivities() {
        let rows = 1 << 15;
        let star = star_schema(rows, 0x57A2);
        // Every FK is in range by construction; the plan lowers.
        let program = star_program(&star, Some(0.5), [0.3, 0.5, 0.7]);
        assert_eq!(program.len(), 4);
        // Ground truth: host-side evaluation of the conjunction.
        let fk = |name: &str| star.fact.column(name).unwrap().data().as_i32().unwrap();
        fn payload<'t>(t: &'t Table, c: &str) -> &'t [i32] {
            t.column(c).unwrap().data().as_i32().unwrap()
        }
        let val = fk("val");
        let (c, s, p) = (
            payload(&star.customer, "c_payload"),
            payload(&star.supplier, "s_payload"),
            payload(&star.part, "p_payload"),
        );
        let (fkc, fks, fkp) = (fk("fk_customer"), fk("fk_supplier"), fk("fk_part"));
        let expect = (0..rows)
            .filter(|&i| {
                i64::from(val[i]) < literal_for(0.5)
                    && i64::from(c[fkc[i] as usize]) < literal_for(0.3)
                    && i64::from(s[fks[i] as usize]) < literal_for(0.5)
                    && i64::from(p[fkp[i] as usize]) < literal_for(0.7)
            })
            .count() as u64;
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = program.run_range(&mut cpu, 0, rows);
        assert_eq!(stats.qualified, expect);
        // Roughly 0.5 * 0.3 * 0.5 * 0.7 = 5.25% qualify.
        let frac = expect as f64 / rows as f64;
        assert!((frac - 0.0525).abs() < 0.01, "joint = {frac}");
    }

    #[test]
    fn star_customer_fk_is_coclustered_and_others_random() {
        let rows = 1 << 14;
        let star = star_schema(rows, 7);
        let fkc = star
            .fact
            .column("fk_customer")
            .unwrap()
            .data()
            .as_i32()
            .unwrap();
        // Co-clustered: monotone non-decreasing.
        assert!(fkc.windows(2).all(|w| w[0] <= w[1]));
        // Random: displacement between adjacent keys is large on average.
        let fks = star
            .fact
            .column("fk_supplier")
            .unwrap()
            .data()
            .as_i32()
            .unwrap();
        let jumps = fks
            .windows(2)
            .filter(|w| (w[0] - w[1]).unsigned_abs() > 16)
            .count();
        assert!(jumps > rows / 2, "supplier FK looks clustered: {jumps}");
    }

    #[test]
    fn columns_are_independent() {
        let t = uniform_table(50_000, 2, 7);
        let a = t.column("c0").unwrap().data().as_i32().unwrap();
        let b = t.column("c1").unwrap().data().as_i32().unwrap();
        let both = a
            .iter()
            .zip(b)
            .filter(|(&x, &y)| x < 5000 && y < 5000)
            .count() as f64
            / 50_000.0;
        assert!((both - 0.25).abs() < 0.02, "joint = {both}");
    }

    #[test]
    fn banded_fks_stay_inside_their_band() {
        let rows = 8_192;
        let dim_n = rows;
        let bands = [(0usize, rows / 2), (rows / 2, rows)];
        let (fact, dim) = numa_banded_tables(rows, dim_n, &bands, 0xBA2D);
        assert_eq!(fact.rows(), rows);
        assert_eq!(dim.rows(), dim_n);
        let fks = fact.column("fk").unwrap().data().as_i32().unwrap();
        for &(r0, r1) in &bands {
            let (d0, d1) = (r0 * dim_n / rows, r1 * dim_n / rows);
            for &fk in &fks[r0..r1] {
                let fk = fk as usize;
                assert!(
                    (d0..d1).contains(&fk),
                    "row band [{r0},{r1}) drew fk {fk} outside dim band [{d0},{d1})"
                );
            }
        }
    }

    #[test]
    fn numa_tables_share_one_address_space() {
        // Separate `AddressSpace`s all allocate from the same base, so a
        // placement registered on one table's range would capture the
        // other's. The NUMA builders must hand out disjoint ranges.
        let (fact, dim_a, dim_b) = numa_two_dim_tables(4_096, 1_024, 0x5EED);
        let cols = [
            fact.column("fk_a").unwrap(),
            fact.column("fk_b").unwrap(),
            dim_a.column("payload_a").unwrap(),
            dim_b.column("payload_b").unwrap(),
        ];
        let mut ranges: Vec<(u64, u64)> = cols
            .iter()
            .map(|c| (c.base_addr(), c.addr_of(c.data().len() - 1) + 4))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "column ranges overlap: {w:?}");
        }
    }
}

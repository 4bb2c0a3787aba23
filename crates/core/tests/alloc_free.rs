//! Steady-state execution must not touch the heap.
//!
//! A counting wrapper around the system allocator pins the
//! allocation-free property of the hot loops: after compilation and CPU
//! construction, executing rows through the batched fast path performs
//! zero allocations (serial), and the parallel claim → execute → sample
//! loop performs none per morsel (total allocations are independent of
//! the morsel count when reoptimization is off).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is process-wide, so the tests take turns: an
/// allocation in one test's setup must never land in another's window.
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

use popt_core::exec::CompiledProgram;
use popt_core::parallel::{run_parallel_program, MorselConfig};
use popt_core::plan::{Expr, PlanBuilder};
use popt_cpu::{CpuConfig, CpuPool, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

fn table(rows: usize) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    t.add_column(
        "a",
        ColumnData::I32((0..rows).map(|i| (i % 100) as i32).collect()),
        &mut space,
    );
    t.add_column(
        "b",
        ColumnData::I32((0..rows).map(|i| (i / 7 % 10) as i32).collect()),
        &mut space,
    );
    t.add_column("agg", ColumnData::I32(vec![2; rows]), &mut space);
    t
}

fn expected_qualified(rows: usize) -> usize {
    (0..rows)
        .filter(|i| (i % 100) < 50 && (i / 7 % 10) < 5)
        .count()
}

/// `a < 50 AND b < 5` summing `agg`.
fn program(t: &Table) -> CompiledProgram<'_> {
    PlanBuilder::scan(t)
        .filter(Expr::col("a").less_than(50))
        .filter(Expr::col("b").less_than(5))
        .aggregate("agg")
        .build()
        .compile()
        .unwrap()
}

/// Serial morsel loop: after one warmup vector (stream-state slots may
/// lazily extend on first touch), executing any number of further
/// vectors through the batched fast path allocates nothing — both the
/// general row loop and the single-selection bulk path.
#[test]
fn serial_vector_loop_is_allocation_free() {
    let _turn = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let rows = 64 * 1024;
    let t = table(rows);
    let bulk = PlanBuilder::scan(&t)
        .filter(Expr::col("a").less_than(50))
        .build()
        .compile()
        .unwrap();
    for (program, expected) in [
        (program(&t), expected_qualified(rows)),
        (bulk, (0..rows).filter(|i| i % 100 < 50).count()),
    ] {
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let mut total = program.run_range(&mut cpu, 0, 1024);
        let before = allocations();
        for start in (1024..rows).step_by(1024) {
            let stats = program.run_range(&mut cpu, start, start + 1024);
            total.accumulate(&stats);
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "steady-state vectors allocated {delta} times");
        assert_eq!(total.qualified as usize, expected);
    }
}

/// Parallel claim → execute → sample loop: with reoptimization off, the
/// run's total allocation count is a function of the setup (workers,
/// shards, report), not of how many morsels stream through it. Running
/// 4× the rows over the same morsel size must allocate exactly as often
/// as the short run.
#[test]
fn parallel_morsel_loop_is_allocation_free() {
    let _turn = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let run = |rows: usize| {
        let t = table(rows);
        let mut p = program(&t);
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 4);
        let before = allocations();
        let report =
            run_parallel_program(&mut p, &[0, 1], MorselConfig::new(512), &mut pool, None).unwrap();
        let delta = allocations() - before;
        assert_eq!(report.qualified as usize, expected_qualified(rows));
        delta
    };
    // Warm both shapes once: lazily initialized process state (thread
    // stack caches, lock shards) must not be charged to either side.
    run(8 * 1024);
    run(32 * 1024);
    let short = run(8 * 1024);
    let long = run(32 * 1024);
    assert_eq!(
        short, long,
        "morsel count leaked into allocations: {short} vs {long} (48 more morsels)"
    );
}

//! Batched event accounting: the simulator fast path.
//!
//! [`BatchCpu`] is a scoped guard over a [`SimCpu`] that accumulates PMU
//! counters, cycles and remote-access counts in a local bank and flushes
//! them **in bulk** when the guard drops — one set of memory writes per
//! morsel instead of several per tuple. On top of the bulk counter flush
//! it adds two accounting short-cuts, both bit-identical to the scalar
//! per-line path (pinned by `tests/proptest_batch.rs`):
//!
//! * **closed-form dense spans** ([`BatchCpu::load_span`]): a sequential
//!   touch of N contiguous *clean* lines is accounted at set/level
//!   granularity (parity rule for memory trips vs buddy-covered L2 hits,
//!   one batched LRU rebuild per set, prefetcher advanced arithmetically)
//!   instead of N hierarchy walks;
//! * **segment-granular NUMA pricing**: remote surcharges are resolved
//!   per contiguous home-range segment ([`crate::numa::NumaPlacement::segment_of`])
//!   through a two-entry segment cache, not by scanning the region list
//!   per missing line.
//!
//! Executors that own their inner loop (the compiled program/selection
//! `run_range` fast paths in `popt-core`) additionally keep per-stream
//! adjacency state in registers via [`BatchCpu::load_with`] +
//! [`BatchCpu::stream_state`]/[`BatchCpu::set_stream_state`], so the
//! steady-state tuple loop touches no `Vec` at all.
//!
//! The scalar path ([`SimCpu::load`]/[`SimCpu::load_span`] et al.)
//! remains the **oracle**: it is the reference semantics, and every
//! batched shortcut must reproduce its results exactly — counters,
//! cycles, cache state, predictor state and remote counts.

use crate::branch::BranchSite;
use crate::cache::ServedBy;
use crate::cpu::{SimCpu, StreamId, StreamState};
use crate::pmu::Counters;

/// Maximum cache-hierarchy depth the cached latency table covers.
const MAX_LEVELS: usize = 8;

/// Spans shorter than this stay on the per-line path: the closed form's
/// residency pre-check costs a few set scans, which only pays off once a
/// span covers several 128-byte pairs.
const MIN_CLOSED_FORM_LINES: u64 = 4;

/// A batched accounting scope over one [`SimCpu`]. See the
/// [module documentation](self).
///
/// Dropping the guard flushes the accumulated counters into the core's
/// PMU bank; [`BatchCpu::finish`] does the same explicitly. While the
/// guard is alive the core itself is mutably borrowed, so stale
/// mid-batch counter reads are a compile error, not a hazard.
pub struct BatchCpu<'a> {
    cpu: &'a mut SimCpu,
    /// Locally accumulated counter bank (flushed on drop).
    acc: Counters,
    /// Locally accumulated remote demand misses (flushed on drop).
    remote: u64,
    // Hot timing constants, copied out of the config once per batch.
    line_shift: u32,
    mispredict_penalty: u64,
    mem_seq: u64,
    mem_rand: u64,
    remote_extra: u64,
    /// Whether remote pricing is active (`placement.sockets() > 1`).
    numa: bool,
    /// Per-level demand hit latencies.
    lat: [u64; MAX_LEVELS],
    /// Two-entry cache of `(seg_start, seg_end, is_remote)` home-range
    /// segments — scans and probe clusters each keep their own entry hot.
    seg: [(u64, u64, bool); 2],
    seg_next: usize,
}

impl<'a> BatchCpu<'a> {
    pub(crate) fn new(cpu: &'a mut SimCpu) -> Self {
        let timing = cpu.config.timing;
        let mut lat = [0u64; MAX_LEVELS];
        assert!(cpu.config.levels.len() <= MAX_LEVELS, "hierarchy too deep");
        for (i, l) in cpu.config.levels.iter().enumerate() {
            lat[i] = l.hit_latency_cycles;
        }
        let numa = cpu.placement.sockets() > 1;
        let line_shift = cpu.line_shift;
        Self {
            cpu,
            acc: Counters::default(),
            remote: 0,
            line_shift,
            mispredict_penalty: timing.mispredict_penalty_cycles,
            mem_seq: timing.memory_sequential_cycles,
            mem_rand: timing.memory_random_cycles,
            remote_extra: timing.memory_remote_extra_cycles,
            numa,
            lat,
            seg: [(0, 0, false); 2],
            seg_next: 0,
        }
    }

    /// Retire `n` generic instructions.
    #[inline(always)]
    pub fn instr(&mut self, n: u64) {
        self.acc.instructions += n;
    }

    /// Execute a conditional branch — identical semantics to
    /// [`SimCpu::branch`], accumulated locally.
    #[inline(always)]
    pub fn branch(&mut self, site: BranchSite, taken: bool) {
        let correct = self.cpu.predictor.execute_fast(site, taken);
        let c = &mut self.acc;
        let t = u64::from(taken);
        let w = u64::from(!correct);
        c.branches += 1;
        c.branches_taken += t;
        c.branches_not_taken += 1 - t;
        c.mp_taken += w & t;
        c.mp_not_taken += w & (1 - t);
        c.cycles += self.mispredict_penalty * w;
    }

    /// Execute a branch, returning 1 if mispredicted else 0, **without**
    /// touching the counter bank — the register-resident executor form.
    /// The caller accumulates branch totals in plain locals and flushes
    /// them once per morsel via [`BatchCpu::add_branch_block`]; the
    /// predictor itself (table + history) still transitions per event, in
    /// exact program order, so simulated state is identical to
    /// [`BatchCpu::branch`].
    #[inline(always)]
    pub fn branch_quiet(&mut self, site: BranchSite, taken: bool) -> u64 {
        u64::from(!self.cpu.predictor.execute_fast(site, taken))
    }

    /// [`BatchCpu::branch_quiet`] against a caller-held gshare history
    /// register (see [`crate::branch::BranchPredictor::execute_hist`]): the serial
    /// history dependence between consecutive branches stays in a host
    /// register. Obtain the register with [`BatchCpu::history`], write it
    /// back with [`BatchCpu::set_history`].
    #[inline(always)]
    pub fn branch_hist(&mut self, history: &mut u32, site: BranchSite, taken: bool) -> u64 {
        u64::from(!self.cpu.predictor.execute_hist(history, site, taken))
    }

    /// Read the predictor's global history register.
    #[inline]
    pub fn history(&mut self) -> u32 {
        self.cpu.predictor.history()
    }

    /// Write back a history register obtained from [`BatchCpu::history`].
    #[inline]
    pub fn set_history(&mut self, history: u32) {
        self.cpu.predictor.set_history(history);
    }

    /// Bulk-add the branch statistics a [`BatchCpu::branch_quiet`] loop
    /// accumulated: total branches, taken count, and mispredictions split
    /// by direction. Equivalent to the per-event bookkeeping of
    /// [`BatchCpu::branch`] applied `branches` times.
    #[inline]
    pub fn add_branch_block(
        &mut self,
        branches: u64,
        taken: u64,
        mp_taken: u64,
        mp_not_taken: u64,
    ) {
        debug_assert!(taken <= branches && mp_taken <= taken);
        debug_assert!(mp_not_taken <= branches - taken);
        let c = &mut self.acc;
        c.branches += branches;
        c.branches_taken += taken;
        c.branches_not_taken += branches - taken;
        c.mp_taken += mp_taken;
        c.mp_not_taken += mp_not_taken;
        c.cycles += self.mispredict_penalty * (mp_taken + mp_not_taken);
    }

    /// [`BatchCpu::load_with`] that returns 1 instead of counting when
    /// the access is an element hit on the stream's current line — the
    /// register-resident executor form. The caller accumulates the hits
    /// in a local and flushes once via [`BatchCpu::add_element_hits`];
    /// line crossings are accounted directly (and return 0).
    #[inline(always)]
    pub fn load_quiet(&mut self, llpo: &mut u64, addr: u64, bytes: u64) -> u64 {
        debug_assert!(bytes >= 1);
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        if (*llpo == first + 1) & (first == last) {
            1
        } else {
            self.load_with_cold(llpo, first, last);
            0
        }
    }

    /// Bulk-add element hits counted by a [`BatchCpu::load_quiet`] loop.
    #[inline]
    pub fn add_element_hits(&mut self, n: u64) {
        self.acc.l1_element_hits += n;
    }

    /// Load `bytes` at `addr` on `stream` — identical semantics to
    /// [`SimCpu::load`], accumulated locally.
    #[inline]
    pub fn load(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        let mut llpo = self.stream_state(stream);
        self.load_with(&mut llpo, addr, u64::from(bytes));
        self.cpu.streams[stream].last_line_plus_one = llpo;
    }

    /// Store `bytes` at `addr` on `stream` (write-allocate, like
    /// [`SimCpu::store`]).
    #[inline]
    pub fn store(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        self.load(stream, addr, bytes);
    }

    /// Read (creating if needed) the adjacency state of `stream`:
    /// last-touched line number plus one, 0 if untouched. An executor
    /// fast path copies this into a local, drives [`BatchCpu::load_with`]
    /// against it, and writes it back once per morsel via
    /// [`BatchCpu::set_stream_state`].
    #[inline]
    pub fn stream_state(&mut self, stream: StreamId) -> u64 {
        if stream >= self.cpu.streams.len() {
            self.cpu.streams.resize(stream + 1, StreamState::default());
        }
        self.cpu.streams[stream].last_line_plus_one
    }

    /// Write back a stream adjacency state obtained from
    /// [`BatchCpu::stream_state`].
    #[inline]
    pub fn set_stream_state(&mut self, stream: StreamId, last_line_plus_one: u64) {
        debug_assert!(stream < self.cpu.streams.len(), "state never read");
        self.cpu.streams[stream].last_line_plus_one = last_line_plus_one;
    }

    /// [`BatchCpu::load`] against a caller-held stream state — the
    /// register-resident inner-loop form.
    #[inline(always)]
    pub fn load_with(&mut self, llpo: &mut u64, addr: u64, bytes: u64) {
        debug_assert!(bytes >= 1);
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        // The overwhelmingly common case: an element access within the
        // stream's current line. One combined compare keeps the executor
        // loop's hot path to a handful of host instructions.
        if (*llpo == first + 1) & (first == last) {
            self.acc.l1_element_hits += 1;
        } else {
            self.load_with_cold(llpo, first, last);
        }
    }

    /// Out-of-line remainder of [`BatchCpu::load_with`]: line crossings
    /// and non-adjacent accesses.
    #[inline]
    fn load_with_cold(&mut self, llpo: &mut u64, first: u64, last: u64) {
        for line in first..=last {
            if *llpo == line + 1 {
                self.acc.l1_element_hits += 1;
            } else {
                self.touch_line_with(llpo, line);
            }
        }
    }

    /// One full hierarchy access — the scalar `touch_line` semantics
    /// against the local accumulator and the segment cache.
    fn touch_line_with(&mut self, llpo: &mut u64, line: u64) {
        let sequential = *llpo == line;
        *llpo = line + 1;
        let result = self.cpu.hierarchy.demand_access(line);
        let c = &mut self.acc;
        c.l1_accesses += 1;
        match result.served_by {
            ServedBy::Level(0) => {
                c.l1_hits += 1;
                c.cycles += self.lat[0];
            }
            ServedBy::Level(i) => {
                c.l2_accesses += 1;
                if i >= 2 {
                    c.l3_accesses += 1;
                }
                c.cycles += self.lat[i];
            }
            ServedBy::Memory => {
                c.l2_accesses += 1;
                c.l3_accesses += 1;
                c.l3_misses += 1;
                c.memory_accesses += 1;
                c.cycles += if sequential {
                    self.mem_seq
                } else {
                    self.mem_rand
                };
                if self.numa && self.is_remote(line) {
                    self.remote += 1;
                    self.acc.cycles += if sequential {
                        self.remote_extra / 4
                    } else {
                        self.remote_extra
                    };
                }
            }
        }
        if result.prefetch_issued {
            let c = &mut self.acc;
            c.prefetch_requests += 1;
            c.l3_accesses += 1;
            if result.prefetch_memory {
                c.l3_misses += 1;
                c.cycles += self.mem_seq / 4;
            }
        }
    }

    /// Whether `line` is homed on a remote socket, resolved through the
    /// two-entry home-segment cache.
    #[inline]
    fn is_remote(&mut self, line: u64) -> bool {
        let addr = line << self.line_shift;
        for s in &self.seg {
            if addr >= s.0 && addr < s.1 {
                return s.2;
            }
        }
        let line_bytes = 1u64 << self.line_shift;
        let seg = self.cpu.placement.segment_of(addr, line_bytes);
        let remote = seg.socket != self.cpu.socket;
        self.seg[self.seg_next] = (seg.start, seg.end, remote);
        self.seg_next ^= 1;
        remote
    }

    /// Load an arbitrarily long byte span at `addr` on `stream`. Dense
    /// clean spans are accounted in closed form at set/level granularity;
    /// anything else (partially resident span, too-shallow hierarchy,
    /// prefetcher off, tiny span) falls back to the per-line walk.
    /// Bit-identical to [`SimCpu::load_span`] in all cases.
    pub fn load_span(&mut self, stream: StreamId, addr: u64, bytes: u64) {
        assert!(bytes >= 1, "empty span");
        let mut llpo = self.stream_state(stream);
        let mut first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        // Leading element hit: the span may re-enter the current line.
        if llpo == first + 1 {
            self.acc.l1_element_hits += 1;
            first += 1;
        }
        if first > last {
            return; // wholly absorbed by the current line
        }
        self.walk_dense_lines(&mut llpo, first, last);
        self.cpu.streams[stream].last_line_plus_one = llpo;
    }

    /// Touch the dense line range `first..=last` exactly as a sequential
    /// per-line walk would: closed form when the span is clean and the
    /// hierarchy shape allows it, the per-line walk otherwise. Leaves
    /// `*llpo == last + 1` on every path.
    fn walk_dense_lines(&mut self, llpo: &mut u64, first: u64, last: u64) {
        let entering_sequential = *llpo == first;
        let n = last - first + 1;
        let eligible = n >= MIN_CLOSED_FORM_LINES
            && first >= 1 // the odd-start rule needs a below-span buddy line
            && self.cpu.hierarchy.dense_span_eligible();
        if eligible {
            let ext_lo = first - (first & 1);
            let ext_hi = last + 1 - (last & 1);
            if self.cpu.hierarchy.span_is_clean(ext_lo, ext_hi) {
                self.apply_clean_span(first, last, entering_sequential);
                *llpo = last + 1;
                return;
            }
        }
        for line in first..=last {
            self.touch_line_with(llpo, line);
        }
    }

    /// Account `n` sequential element loads (`elem` bytes each, starting
    /// at `addr`) against a caller-held stream state, bit-identically to
    /// `n` individual [`BatchCpu::load_with`] calls, and return how many
    /// of them were element hits (the caller flushes those in bulk via
    /// [`BatchCpu::add_element_hits`]).
    ///
    /// Exactness: with `addr` element-aligned and the element dividing
    /// the line size, no element straddles a line, so the per-element
    /// walk reduces to "one touch at each new line, element hits for the
    /// rest" — `n − touches` hits plus the same ordered sequence of
    /// sequential line touches, which `BatchCpu::walk_dense_lines`
    /// applies (in closed form when the span is clean). Misaligned
    /// shapes fall back to the per-element loop.
    pub fn load_elements_seq(&mut self, llpo: &mut u64, addr: u64, elem: u64, n: u64) -> u64 {
        debug_assert!(elem >= 1);
        if n == 0 {
            return 0;
        }
        let line_bytes = 1u64 << self.line_shift;
        if addr % elem != 0 || line_bytes % elem != 0 {
            let mut hits = 0u64;
            for k in 0..n {
                hits += self.load_quiet(llpo, addr + k * elem, elem);
            }
            return hits;
        }
        let mut first = addr >> self.line_shift;
        let last = (addr + n * elem - 1) >> self.line_shift;
        // Elements in the stream's current line are hits and advance
        // nothing; the first new line starts the touch walk.
        if *llpo == first + 1 {
            first += 1;
        }
        if first > last {
            return n; // wholly absorbed by the current line
        }
        let hits = n - (last - first + 1);
        self.walk_dense_lines(llpo, first, last);
        hits
    }

    /// Closed-form accounting of a clean dense span (see
    /// [`crate::cache::CacheHierarchy`]'s `apply_dense_span` for the
    /// parity argument).
    fn apply_clean_span(&mut self, first: u64, last: u64, entering_sequential: bool) {
        let (initiators, hits) = self.cpu.hierarchy.apply_dense_span(first, last);
        let n = initiators + hits;
        let c = &mut self.acc;
        c.l1_accesses += n;
        c.l2_accesses += n;
        // Demand misses and prefetches each make one L3 lookup and one
        // memory trip; prefetch count equals initiator count.
        c.l3_accesses += 2 * initiators;
        c.l3_misses += 2 * initiators;
        c.memory_accesses += initiators;
        c.prefetch_requests += initiators;
        c.cycles +=
            hits * self.lat[1] + initiators * self.mem_seq + initiators * (self.mem_seq / 4);
        // The first line is always an initiator; if the span was entered
        // non-sequentially it pays the random latency instead.
        if !entering_sequential {
            c.cycles += self.mem_rand - self.mem_seq;
        }
        if self.numa {
            self.price_remote_span(first, last, entering_sequential);
        }
    }

    /// Remote surcharges for the initiator lines of a clean dense span,
    /// walked one contiguous home-range segment at a time.
    fn price_remote_span(&mut self, first: u64, last: u64, entering_sequential: bool) {
        let line_bytes = 1u64 << self.line_shift;
        let socket = self.cpu.socket;
        let mut pos = first;
        while pos <= last {
            let seg = self
                .cpu
                .placement
                .segment_of(pos << self.line_shift, line_bytes);
            let seg_last = ((seg.end - 1) >> self.line_shift).min(last);
            if seg.socket != socket {
                // Initiators in `pos..=seg_last`: the even lines, plus
                // the span's first line when it is odd.
                let first_even = pos + (pos & 1);
                let evens = if first_even > seg_last {
                    0
                } else {
                    (seg_last - first_even) / 2 + 1
                };
                let k = evens + u64::from(pos == first && first & 1 == 1);
                self.remote += k;
                self.acc.cycles += k * (self.remote_extra / 4);
                if pos == first && !entering_sequential && k > 0 {
                    // The non-sequential first line pays the full
                    // surcharge, not the streamed quarter.
                    self.acc.cycles += self.remote_extra - self.remote_extra / 4;
                }
            }
            pos = seg_last + 1;
        }
    }

    /// Flush the accumulated counters into the core and end the batch.
    /// Equivalent to dropping the guard; provided for explicitness.
    pub fn finish(self) {}
}

impl Drop for BatchCpu<'_> {
    fn drop(&mut self) {
        let a = &self.acc;
        let c = self.cpu.pmu.counters_mut();
        c.instructions += a.instructions;
        c.cycles += a.cycles;
        c.branches += a.branches;
        c.branches_taken += a.branches_taken;
        c.branches_not_taken += a.branches_not_taken;
        c.mp_taken += a.mp_taken;
        c.mp_not_taken += a.mp_not_taken;
        c.l1_accesses += a.l1_accesses;
        c.l1_hits += a.l1_hits;
        c.l1_element_hits += a.l1_element_hits;
        c.l2_accesses += a.l2_accesses;
        c.l3_accesses += a.l3_accesses;
        c.l3_misses += a.l3_misses;
        c.prefetch_requests += a.prefetch_requests;
        c.memory_accesses += a.memory_accesses;
        self.cpu.remote_accesses += self.remote;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::numa::NumaPlacement;
    use crate::pmu::Counters;

    fn assert_same(a: &SimCpu, b: &SimCpu, what: &str) {
        assert_eq!(a.counters(), b.counters(), "{what}: counters");
        assert_eq!(a.remote_accesses(), b.remote_accesses(), "{what}: remote");
        for lvl in 0..a.hierarchy().depth() {
            let (la, lb) = (a.hierarchy().level(lvl), b.hierarchy().level(lvl));
            assert_eq!(la.demand, lb.demand, "{what}: L{lvl} demand stats");
            assert_eq!(la.prefetch, lb.prefetch, "{what}: L{lvl} prefetch stats");
            for set in 0..la.set_count() as usize {
                assert_eq!(
                    la.set_lines(set),
                    lb.set_lines(set),
                    "{what}: L{lvl} set {set}"
                );
            }
        }
    }

    #[test]
    fn batched_events_flush_to_identical_counters() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        let site = BranchSite(3);
        for i in 0..500u64 {
            scalar.instr(2);
            scalar.load(0, i * 4, 4);
            scalar.branch(site, i % 3 == 0);
        }
        {
            let mut b = batched.batch();
            for i in 0..500u64 {
                b.instr(2);
                b.load(0, i * 4, 4);
                b.branch(site, i % 3 == 0);
            }
        }
        assert_same(&scalar, &batched, "mixed events");
    }

    #[test]
    fn nothing_is_visible_before_the_flush() {
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        {
            let mut b = cpu.batch();
            b.instr(100);
            b.load(0, 0, 4);
        }
        assert!(cpu.counters().instructions == 100, "flushed on drop");
        assert_eq!(cpu.counters(), {
            let mut reference = SimCpu::new(CpuConfig::tiny_test());
            reference.instr(100);
            reference.load(0, 0, 4);
            reference.counters()
        });
    }

    #[test]
    fn clean_dense_span_matches_per_line_oracle() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        // Even and odd entry points, even and odd span ends.
        for (addr, bytes) in [(64u64, 4096u64), (8256, 1000), (64 * 129, 64 * 7)] {
            scalar.load_span(0, addr, bytes);
            batched.batch().load_span(0, addr, bytes);
            assert_same(&scalar, &batched, "span");
        }
    }

    #[test]
    fn load_elements_seq_matches_per_element_loads() {
        // Various starting offsets, element sizes and counts, including a
        // warm pass over the same region (element hits dominate) and a
        // misaligned base (fallback path).
        for (addr, elem, n) in [
            (0u64, 4u64, 1000u64),
            (64 * 7 + 16, 4, 300),
            (64 * 3, 8, 500),
            (128, 64, 40),
            (2, 4, 333), // misaligned: falls back
        ] {
            let mut scalar = SimCpu::new(CpuConfig::tiny_test());
            let mut batched = SimCpu::new(CpuConfig::tiny_test());
            for pass in 0..2 {
                for k in 0..n {
                    scalar.load(0, addr + k * elem, elem as u32);
                }
                let mut b = batched.batch();
                let mut llpo = b.stream_state(0);
                let hits = b.load_elements_seq(&mut llpo, addr, elem, n);
                b.add_element_hits(hits);
                b.set_stream_state(0, llpo);
                drop(b);
                assert_same(
                    &scalar,
                    &batched,
                    &format!("elements addr={addr} elem={elem} n={n} pass={pass}"),
                );
            }
        }
    }

    #[test]
    fn dirty_span_falls_back_and_still_matches() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        // Warm a line in the middle of the span so it is not clean.
        scalar.load(1, 64 * 40, 4);
        batched.load(1, 64 * 40, 4);
        scalar.load_span(0, 64 * 32, 64 * 16);
        batched.batch().load_span(0, 64 * 32, 64 * 16);
        assert_same(&scalar, &batched, "dirty span");
    }

    #[test]
    fn span_remote_surcharge_matches_per_line_oracle() {
        let configure = |socket: usize| {
            let mut c = SimCpu::new(CpuConfig::tiny_test());
            let mut p = NumaPlacement::interleaved(2);
            p.register(0, 64 * 100, 0);
            p.register(64 * 100, 64 * 300, 1);
            c.set_placement(p);
            c.set_socket(socket);
            c
        };
        for socket in [0, 1] {
            let mut scalar = configure(socket);
            let mut batched = configure(socket);
            // Crosses both registered segments and the interleave tail.
            scalar.load_span(0, 64 * 64, 64 * 512);
            batched.batch().load_span(0, 64 * 64, 64 * 512);
            assert_same(&scalar, &batched, "numa span");
        }
    }

    #[test]
    fn guard_keeps_totals_when_interleaved_with_scalar_events() {
        let mut a = SimCpu::new(CpuConfig::tiny_test());
        let mut b = SimCpu::new(CpuConfig::tiny_test());
        a.load(0, 0, 4);
        b.load(0, 0, 4);
        {
            let mut g = b.batch();
            g.load(0, 64, 4);
            g.instr(7);
        }
        a.load(0, 64, 4);
        a.instr(7);
        a.load(0, 128, 4);
        b.load(0, 128, 4);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn empty_batch_is_free() {
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let before: Counters = cpu.counters();
        cpu.batch().finish();
        assert_eq!(cpu.counters(), before);
    }
}

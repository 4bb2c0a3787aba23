//! The progressive coordinator: the §4.4 loop generalized to N workers.
//!
//! Worker threads (one per [`CpuPool`] core) claim morsels from the
//! shared dispatcher and execute them on their private simulated cores.
//! The coordinator state behind one mutex holds the *master* target —
//! the single shared estimator model (selectivity beliefs, probe
//! clustering calibration, rejection memory) that all workers feed and
//! follow:
//!
//! * **Sampling** — every morsel executed under the currently accepted
//!   order accumulates into its worker's window; at each reoptimization
//!   point the per-worker windows are fused
//!   ([`SampledCounters::merged`]) into one pool-wide sample for a
//!   single Nelder–Mead estimate, so optimization cost is paid once per
//!   interval, not once per core.
//! * **Epoch publication** — an accepted order bumps the epoch; workers
//!   notice at their next morsel boundary and re-chain their
//!   pre-compiled primitives (the vectorized switch of §4.4, now
//!   concurrent). Morsels measured under a stale epoch still count
//!   toward the query result but are excluded from the sample window.
//! * **Trial leasing** — a proposed order (estimator-driven,
//!   exploratory, or a §5.5 measurement probe) becomes a *trial* leased
//!   to exactly one worker: that worker runs one morsel under the
//!   candidate order and resolves it against the accepted order's
//!   cycles-per-tuple. A bad trial order therefore never runs on more
//!   than one core, while the other workers keep streaming at full
//!   speed under the incumbent order.
//!
//! The coordination state itself is factored into `CoordState`, whose
//! methods are each a *locked step* of the protocol (the caller holds
//! whatever mutex guards the state; the expensive Nelder–Mead estimate
//! always runs between two locked steps, outside the lock). This module
//! drives one `CoordState` per query via [`run_parallel_program`]; the
//! serving layer (`crate::serve`) drives many concurrently — one per
//! admitted query — multiplexed over the same pool.

use std::sync::{Arc, Mutex};

use popt_cost::cycles::{fleet_speedup, fleet_wall_cycles};
use popt_cost::estimate::PlanGeometry;
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};
use popt_obs::{DriftObservatory, MetricsRegistry, TraceEvent, Tracer};
use popt_solver::{estimate_selectivities, EstimateResult, SampledCounters};

use crate::error::EngineError;
use crate::exec::program::{CompiledProgram, VectorStats};
use crate::observe::{front_stage_key, morsel_stage_parts, record_fit_drift, ExecObservers};
use crate::plan::Peo;

use crate::progressive::{CompiledTarget, ProgressiveConfig, SwitchEvent};

use super::morsel::{MorselConfig, MorselDispatcher};

/// Outcome of a morsel-driven parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Qualifying tuples (bit-identical to the single-core executor).
    pub qualified: u64,
    /// Aggregate sum (bit-identical to the single-core executor).
    pub sum: i64,
    /// Wall-clock cycles: the busiest worker, including the optimizer
    /// cycles charged to the cores that ran estimator rounds.
    pub wall_cycles: u64,
    /// Aggregate cycles across all workers (total work).
    pub total_cycles: u64,
    /// Wall-clock simulated milliseconds.
    pub millis: f64,
    /// Workers (= pool cores) that executed the run.
    pub workers: usize,
    /// Morsels executed.
    pub morsels: usize,
    /// Per-worker cycles (execution + that worker's optimizer rounds).
    pub per_worker_cycles: Vec<u64>,
    /// Order switches, in scheduling order (`vector` = morsel count at
    /// the time the trial was scheduled).
    pub switches: Vec<SwitchEvent>,
    /// Estimator invocations.
    pub estimates: usize,
    /// Total cycles attributed to the optimizer.
    pub optimizer_cycles: u64,
    /// The accepted order when the scan finished (socket 0's on a
    /// multi-socket pool).
    pub final_order: Peo,
    /// The accepted order of each socket when the scan finished — on a
    /// NUMA pool the sockets optimize independently and can converge to
    /// *different* orders (a dim homed locally ranks cheaper there).
    /// One entry (equal to `final_order`) on a single-socket pool.
    pub socket_orders: Vec<Peo>,
    /// Percentage of memory-served accesses that crossed to a remote
    /// socket (0 on a single-socket pool).
    pub remote_access_pct: f64,
    /// Counter totals across all cores.
    pub counters: CounterDelta,
}

impl ParallelReport {
    /// Wall-clock speedup over a reference single-worker run.
    pub fn speedup_over(&self, reference_wall_cycles: u64) -> f64 {
        fleet_speedup(reference_wall_cycles, &self.per_worker_cycles)
    }

    /// Feed the run's aggregates into a metrics registry (post-hoc; the
    /// registry never sits on the simulated-cost path).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("parallel.runs", 1);
        reg.inc("parallel.morsels", self.morsels as u64);
        reg.inc("parallel.estimates", self.estimates as u64);
        reg.inc("parallel.optimizer_cycles", self.optimizer_cycles);
        reg.inc("parallel.switches", self.switches.len() as u64);
        reg.inc(
            "parallel.switches_reverted",
            self.switches.iter().filter(|s| s.reverted).count() as u64,
        );
        reg.inc("parallel.cycles", self.total_cycles);
        reg.inc("parallel.llc_misses", self.counters.l3_misses);
        reg.inc("parallel.memory_accesses", self.counters.memory_accesses);
        reg.set_gauge("parallel.remote_access_pct", self.remote_access_pct);
        reg.set_gauge(
            "parallel.occupancy",
            if self.wall_cycles == 0 {
                0.0
            } else {
                self.total_cycles as f64 / (self.wall_cycles as f64 * self.workers as f64)
            },
        );
        reg.observe("parallel.wall_cycles", self.wall_cycles);
        for &c in &self.per_worker_cycles {
            reg.observe("parallel.worker_cycles", c);
        }
    }
}

/// A candidate order being tried on exactly one worker.
struct Trial {
    order: Peo,
    switch_idx: usize,
    /// Accepted-order cycles-per-tuple the trial must not regress from.
    prev_cpt: f64,
    leased: bool,
}

/// What a worker should do with the morsel it just claimed, decided at
/// the boundary sync ([`CoordState::begin_morsel`]).
pub(crate) enum BoundaryAction {
    /// A pending trial was leased to this worker: re-chain to the trial
    /// order and resolve it against this morsel's counters.
    Trial(Peo),
    /// The published order moved since the worker last synced: re-chain
    /// to it and record the new epoch.
    Adopt {
        /// The published order to adopt.
        order: Peo,
        /// The epoch the morsel will run under.
        epoch: u64,
    },
    /// The worker's chained order is still the published one.
    Keep {
        /// The epoch the morsel will run under.
        epoch: u64,
    },
}

/// Per-socket slice of the coordination state: the §4.4 loop's order
/// tracking, trial lease, rejection memory and epoch reference, one per
/// socket. Sockets optimize independently — a trial accepted on socket
/// 0 never re-chains socket 1's workers — which is what lets the two
/// halves of a NUMA pool converge to *different* accepted orders when
/// their placements price the same dims differently. A single-socket
/// pool has exactly one slice, making the state identical to the flat
/// pre-NUMA coordinator.
struct SocketCoord {
    /// Bumped on every accepted switch; this socket's workers resync
    /// when it moves.
    epoch: u64,
    /// The accepted evaluation order on this socket.
    published: Peo,
    trial: Option<Trial>,
    /// Recently reverted orders: (order, reopt round rejected at).
    rejected: Vec<(Peo, usize)>,
    reopt_round: usize,
    last_accept_round: usize,
    morsels_since_reopt: usize,
    /// Cycles and tuples accumulated under the current epoch's order —
    /// their ratio is the accepted order's cycles-per-tuple, the
    /// reference a trial must not regress from. An *average* over the
    /// whole epoch (not the most recent morsel) so the reference does
    /// not depend on which worker happened to report last, nor on one
    /// core's momentary cache state.
    epoch_cycles: u64,
    epoch_tuples: u64,
    /// Whether an estimator round snapshot is being fitted outside the
    /// lock; excludes concurrent reopt rounds like a pending trial does.
    estimate_in_flight: bool,
    /// Effective LLC capacity (bytes) this socket's morsels run against
    /// — the smallest member share under contention, the full LLC
    /// otherwise. Every estimator fit prices its geometry with this
    /// capacity, so the proposals it produces reflect what a co-runner
    /// left the query.
    llc_share_bytes: u64,
    /// Observed cycles of the window snapshot an in-flight estimator fit
    /// was taken over, captured in [`CoordState::begin_reoptimize`]
    /// before the windows are zeroed — the drift observatory's observed
    /// side for the round's cycles-per-tuple residual. Valid while
    /// `estimate_in_flight`.
    fit_window_cycles: u64,
}

impl SocketCoord {
    fn new(published: Peo, llc_share_bytes: u64) -> Self {
        Self {
            epoch: 0,
            published,
            trial: None,
            rejected: Vec::new(),
            reopt_round: 0,
            last_accept_round: 0,
            morsels_since_reopt: 0,
            epoch_cycles: 0,
            epoch_tuples: 0,
            estimate_in_flight: false,
            llc_share_bytes,
            fit_window_cycles: 0,
        }
    }
}

/// Per-query coordination state: the master target plus everything the
/// §4.4 loop tracks between morsels, sliced per socket. Methods are the
/// *locked steps* of the coordination protocol — the caller serializes
/// them behind its own mutex (one `Mutex<CoordState>` for a dedicated
/// pool; the server's scheduler lock for interleaved queries) and runs
/// the expensive estimator fits between steps, outside the lock.
///
/// The master target holds a single evaluation order, so every locked
/// step that derives geometry, calibrates, or proposes for socket `s`
/// first re-establishes `s`'s published (or trial) order on the target;
/// cross-socket interleaving between locked steps can therefore never
/// leak one socket's order into another's fit.
pub(crate) struct CoordState<'a, 't> {
    /// The master target: order tracking plus the shared estimator model
    /// (probe clustering, proposal logic). Never executes a morsel.
    pub(crate) target: &'a mut CompiledTarget<'t>,
    /// Per-socket coordination slices.
    sockets: Vec<SocketCoord>,
    /// Socket of each worker (contiguous blocks, `CpuPool::socket_of`).
    socket_of: Vec<usize>,
    /// The pool's memory map, for remote-fraction probe pricing.
    placement: NumaPlacement,
    /// Per-worker sample windows under the worker's socket epoch order.
    windows: Vec<VectorStats>,
    pub(crate) switches: Vec<SwitchEvent>,
    pub(crate) estimates: usize,
    /// Optimizer cycles charged per worker (to the core that ran the
    /// estimator round).
    pub(crate) optimizer_cycles: Vec<u64>,
    pub(crate) morsels_done: usize,
    /// Decision tracing: the sink hangs outside the simulated-cost path,
    /// so an attached tracer never changes a cycle count. `None` (or a
    /// disabled tracer) reduces every emission to one branch.
    trace: Option<(Arc<Tracer>, usize)>,
    /// Model-drift observatory: every estimator fit's predicted-vs-
    /// observed residuals land here, keyed by the literal-free key of
    /// the front stage of the order the sample ran under. Same
    /// non-invasive contract as the tracer.
    drift: Option<Arc<DriftObservatory>>,
    /// Literal-free per-stage keys of the master target (plan-indexed),
    /// cached at construction for drift attribution.
    stage_keys: Vec<u64>,
}

impl<'a, 't> CoordState<'a, 't> {
    /// Fresh single-socket coordination state over `target`'s current
    /// order, for a pool of `workers` workers whose cores give this
    /// query an effective LLC capacity of `llc_share_bytes`.
    pub(crate) fn new(
        target: &'a mut CompiledTarget<'t>,
        workers: usize,
        llc_share_bytes: u64,
    ) -> Self {
        Self::with_topology(
            target,
            vec![0; workers],
            vec![llc_share_bytes],
            NumaPlacement::single(),
        )
    }

    /// Coordination state over a socket topology: `socket_of` maps each
    /// worker to its socket, `llc_shares` carries one effective LLC
    /// capacity per socket, and `placement` prices remote probes. Every
    /// socket starts from the target's current order.
    pub(crate) fn with_topology(
        target: &'a mut CompiledTarget<'t>,
        socket_of: Vec<usize>,
        llc_shares: Vec<u64>,
        placement: NumaPlacement,
    ) -> Self {
        let published = target.order();
        let stage_keys = target.program().stage_keys();
        let workers = socket_of.len();
        Self {
            target,
            sockets: llc_shares
                .into_iter()
                .map(|share| SocketCoord::new(published.clone(), share))
                .collect(),
            socket_of,
            placement,
            windows: vec![VectorStats::zero(); workers],
            switches: Vec::new(),
            estimates: 0,
            optimizer_cycles: vec![0; workers],
            morsels_done: 0,
            trace: None,
            drift: None,
            stage_keys,
        }
    }

    /// Attach a tracer: decision events emitted from this state's locked
    /// steps are stamped on the calling worker's lane and tagged with
    /// `query`.
    pub(crate) fn set_trace(&mut self, tracer: Arc<Tracer>, query: usize) {
        self.trace = Some((tracer, query));
    }

    /// Attach a drift observatory: every fit this state closes records
    /// its predicted-vs-observed residuals there.
    pub(crate) fn set_drift(&mut self, drift: Arc<DriftObservatory>) {
        self.drift = Some(drift);
    }

    /// The accepted order on `socket`.
    pub(crate) fn published_order(&self, socket: usize) -> &Peo {
        &self.sockets[socket].published
    }

    /// The accepted order of every socket, in socket order.
    pub(crate) fn socket_orders(&self) -> Vec<Peo> {
        self.sockets.iter().map(|s| s.published.clone()).collect()
    }

    /// Geometry for socket `s`'s current target order: NUMA-priced when
    /// the pool has remote memory to price, the flat (PR 5) geometry
    /// otherwise — so a 1-socket run takes the exact legacy path.
    fn geometry(&self, s: usize, n_input: u64, cpu_cfg: &CpuConfig) -> PlanGeometry {
        let share = self.sockets[s].llc_share_bytes;
        if self.placement.sockets() > 1 {
            self.target
                .plan_geometry_numa(n_input, cpu_cfg, share, &self.placement, s)
        } else {
            self.target.plan_geometry(n_input, cpu_cfg, share)
        }
    }

    /// Boundary sync for worker `w`, which last chained its shard under
    /// `local_epoch`: lease a pending trial on `w`'s socket so the
    /// candidate runs on exactly this core, or tell the worker which
    /// published order to adopt. The caller applies the returned order
    /// to its shard *outside* this state's lock (the shard is
    /// worker-private).
    pub(crate) fn begin_morsel(&mut self, w: usize, local_epoch: u64) -> BoundaryAction {
        let s = self.socket_of[w];
        let sc = &mut self.sockets[s];
        let lease = match sc.trial.as_mut() {
            Some(trial) if !trial.leased => {
                trial.leased = true;
                Some(trial.order.clone())
            }
            _ => None,
        };
        if let Some(order) = lease {
            // Ground the comparison in this core's own recent rate under
            // the incumbent order when it has one — consecutive morsels
            // on one core control for cache state, like the serial
            // loop's vector-to-vector comparison. The socket-wide epoch
            // average (snapshot at scheduling) remains the fallback for
            // a cold core.
            if self.windows[w].tuples > 0 {
                let own_cpt = self.windows[w].cycles_per_tuple();
                if let Some(trial) = sc.trial.as_mut() {
                    trial.prev_cpt = own_cpt;
                }
            }
            let baseline_cpt = sc.trial.as_ref().map_or(0.0, |t| t.prev_cpt);
            if let Some((tracer, query)) = &self.trace {
                tracer.emit(w, *query, || TraceEvent::TrialLease {
                    socket: s,
                    order: order.clone(),
                    baseline_cpt,
                });
            }
            BoundaryAction::Trial(order)
        } else if local_epoch != sc.epoch {
            BoundaryAction::Adopt {
                order: sc.published.clone(),
                epoch: sc.epoch,
            }
        } else {
            BoundaryAction::Keep { epoch: sc.epoch }
        }
    }

    /// Locked step 1 of trial resolution for worker `w`: count the
    /// morsel and derive the trial-order geometry the sample must be
    /// fitted against — the master target moves to the trial order (it
    /// is re-established in [`CoordState::resolve_trial`] regardless).
    /// Returns the fit inputs for the estimate the caller runs outside
    /// the lock, or `None` when the target does not calibrate from
    /// trials.
    pub(crate) fn trial_fit_inputs(
        &mut self,
        w: usize,
        stats: &VectorStats,
        cpu_cfg: &CpuConfig,
    ) -> Result<Option<(PlanGeometry, SampledCounters)>, EngineError> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        let trial_order = self.sockets[s]
            .trial
            .as_ref()
            .expect("a leased trial to resolve")
            .order
            .clone();
        if self.target.calibrates() {
            let sampled = stats.sampled_counters();
            self.target.set_order(&trial_order)?;
            let geom = self.geometry(s, sampled.n_input, cpu_cfg);
            Ok(Some((geom, sampled)))
        } else {
            Ok(None)
        }
    }

    /// Locked step 2 of trial resolution: calibrate from the (externally
    /// computed) fit, then accept — publishing a new epoch — or revert
    /// into the rejection memory. Returns the published order and epoch
    /// after resolution so the resolving worker can resync its shard.
    pub(crate) fn resolve_trial(
        &mut self,
        w: usize,
        stats: &VectorStats,
        fitted: Option<(PlanGeometry, SampledCounters, EstimateResult)>,
        cfg: &ProgressiveConfig,
    ) -> Result<(Peo, u64), EngineError> {
        let s = self.socket_of[w];
        if let Some((geom, sampled, estimate)) = fitted {
            self.estimates += 1;
            self.optimizer_cycles[w] += estimate.evaluations as u64 * cfg.cycles_per_estimator_eval;
            // Another socket's locked step may have moved the master
            // order since the fit inputs were derived; the calibration
            // must run under the geometry's (trial) order.
            let trial_order = self.sockets[s]
                .trial
                .as_ref()
                .expect("a leased trial to resolve")
                .order
                .clone();
            self.target.set_order(&trial_order)?;
            if let Some(drift) = &self.drift {
                // The trial morsel is a one-morsel window under the
                // trial order; its fit residual scores the model at a
                // stage position the accepted order may never expose.
                record_fit_drift(
                    drift,
                    front_stage_key(&self.stage_keys, &trial_order),
                    &geom,
                    &sampled,
                    &estimate.survivors,
                    stats.cycles_per_tuple(),
                );
            }
            self.target.calibrate(&geom, &sampled, &estimate.survivors);
        }
        let trial = self.sockets[s]
            .trial
            .take()
            .expect("a leased trial to resolve");
        let cpt = stats.cycles_per_tuple();
        let regressed =
            cfg.revert_on_regression && cpt > trial.prev_cpt * (1.0 + cfg.regression_tolerance);
        let sc = &mut self.sockets[s];
        if regressed {
            let round = sc.reopt_round;
            self.switches[trial.switch_idx].reverted = true;
            if let Some((tracer, query)) = &self.trace {
                tracer.emit(w, *query, || TraceEvent::TrialRevert {
                    socket: s,
                    order: trial.order.clone(),
                    baseline_cpt: trial.prev_cpt,
                    trial_cpt: cpt,
                });
            }
            sc.rejected.push((trial.order, round));
            let published = sc.published.clone();
            self.target.set_order(&published)?;
        } else {
            self.target.set_order(&trial.order)?;
            sc.published = trial.order;
            sc.epoch += 1;
            sc.last_accept_round = sc.reopt_round;
            sc.morsels_since_reopt = 0;
            sc.epoch_cycles = stats.counters.cycles;
            sc.epoch_tuples = stats.tuples;
            if let Some((tracer, query)) = &self.trace {
                tracer.emit(w, *query, || TraceEvent::TrialAccept {
                    socket: s,
                    order: sc.published.clone(),
                    baseline_cpt: trial.prev_cpt,
                    trial_cpt: cpt,
                    epoch: sc.epoch,
                });
                tracer.emit(w, *query, || TraceEvent::OrderPublish {
                    socket: s,
                    order: sc.published.clone(),
                    epoch: sc.epoch,
                    warm_seed: false,
                });
            }
            // The socket's windows and epoch reference sampled the
            // superseded order; the trial morsel is the new epoch's
            // first observation. Other sockets' windows are untouched.
            for (wi, window) in self.windows.iter_mut().enumerate() {
                if self.socket_of[wi] == s {
                    *window = VectorStats::zero();
                }
            }
        }
        let sc = &self.sockets[s];
        Ok((sc.published.clone(), sc.epoch))
    }

    /// Locked step for a morsel executed under the accepted order:
    /// accumulate it into worker `w`'s sample window and, when the
    /// interval is due (and `work_remains` — a trial scheduled after the
    /// last morsel was claimed could never run), start one
    /// reoptimization round. A returned snapshot means the caller must
    /// run the estimate outside the lock and feed it back through
    /// [`CoordState::finish_reoptimize`].
    pub(crate) fn note_normal(
        &mut self,
        w: usize,
        epoch: u64,
        stats: &VectorStats,
        reopt: Option<&ProgressiveConfig>,
        cpu_cfg: &CpuConfig,
        work_remains: bool,
    ) -> Option<(PlanGeometry, SampledCounters)> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        if epoch != self.sockets[s].epoch {
            // Measured under a stale epoch: counts toward the result,
            // excluded from the sample window.
            return None;
        }
        self.windows[w].accumulate(stats);
        let sc = &mut self.sockets[s];
        sc.epoch_cycles += stats.counters.cycles;
        sc.epoch_tuples += stats.tuples;
        sc.morsels_since_reopt += 1;
        match reopt {
            Some(cfg)
                if sc.morsels_since_reopt >= cfg.reop_interval
                    && sc.trial.is_none()
                    && !sc.estimate_in_flight
                    && work_remains =>
            {
                self.begin_reoptimize(s, cfg, cpu_cfg)
            }
            _ => None,
        }
    }

    /// Locked step closing a reoptimization round whose estimate ran
    /// outside the lock: calibrate, propose, and schedule a trial if the
    /// proposal differs from the published order. No trial can have been
    /// scheduled nor the epoch moved since [`CoordState::note_normal`]
    /// returned the snapshot — both only happen inside reopt rounds, and
    /// `estimate_in_flight` excluded those.
    pub(crate) fn finish_reoptimize(
        &mut self,
        w: usize,
        geom: &PlanGeometry,
        merged: &SampledCounters,
        estimate: EstimateResult,
        cfg: &ProgressiveConfig,
    ) {
        let s = self.socket_of[w];
        self.sockets[s].estimate_in_flight = false;
        self.estimates += 1;
        self.optimizer_cycles[w] += estimate.evaluations as u64 * cfg.cycles_per_estimator_eval;
        // Another socket's locked step may have moved the master order
        // since the snapshot; re-establish this socket's published order
        // (which the geometry was built under, and which `s`'s pending
        // state guarantees is unchanged) before calibrating/proposing.
        if self.target.set_order(&self.sockets[s].published).is_err() {
            return;
        }
        if let Some(drift) = &self.drift {
            let observed_cpt = if merged.n_input > 0 {
                self.sockets[s].fit_window_cycles as f64 / merged.n_input as f64
            } else {
                0.0
            };
            record_fit_drift(
                drift,
                front_stage_key(&self.stage_keys, &self.sockets[s].published),
                geom,
                merged,
                &estimate.survivors,
                observed_cpt,
            );
        }
        self.target.calibrate(geom, merged, &estimate.survivors);
        let proposed = self.target.propose_order(geom, &estimate.selectivities);
        let differs = proposed != self.sockets[s].published;
        if let Some((tracer, query)) = &self.trace {
            let round = self.sockets[s].reopt_round;
            tracer.emit(w, *query, || TraceEvent::ReoptRound {
                socket: s,
                round,
                selectivities: estimate.selectivities.clone(),
                fit_error: estimate.objective,
                proposed: differs.then(|| proposed.clone()),
            });
        }
        if self.sockets[s]
            .rejected
            .iter()
            .any(|(order, _)| order == &proposed)
        {
            return;
        }
        if differs {
            self.schedule_trial(s, proposed, false);
        }
    }

    /// Start a reoptimization round on socket `s`: age out rejections,
    /// handle the cheap stall-exploration and measurement-probe paths
    /// directly, or snapshot the fused windows of `s`'s workers for an
    /// estimator round the caller runs outside the lock — the solver
    /// fits *per-socket* counter windows, so each socket's estimate sees
    /// only counters generated under its own order and placement.
    fn begin_reoptimize(
        &mut self,
        s: usize,
        cfg: &ProgressiveConfig,
        cpu_cfg: &CpuConfig,
    ) -> Option<(PlanGeometry, SampledCounters)> {
        self.sockets[s].reopt_round += 1;
        self.sockets[s].morsels_since_reopt = 0;
        let round = self.sockets[s].reopt_round;
        self.sockets[s]
            .rejected
            .retain(|(_, at)| round - at <= cfg.rejection_ttl);

        // Stall-triggered exploration (§4.5), same trigger as the serial
        // loop: no recently accepted switch AND an active disagreement.
        let stalled =
            round >= self.sockets[s].last_accept_round + 3 && !self.sockets[s].rejected.is_empty();
        if cfg.explore_correlation && stalled && round % 2 == 0 {
            let mut explored = self.sockets[s].published.clone();
            explored.rotate_right(1);
            if explored != self.sockets[s].published {
                self.schedule_trial(s, explored, true);
            }
            return None;
        }

        // Measurement probe: an order the target wants to observe once.
        if let Some(probe) = self.target.take_probe_order() {
            if probe != self.sockets[s].published {
                self.schedule_trial(s, probe, true);
                return None;
            }
        }

        // Fuse this socket's per-worker windows into one socket-wide
        // sample; one estimator round serves the socket.
        let samples: Vec<SampledCounters> = self
            .windows
            .iter()
            .enumerate()
            .filter(|(wi, window)| self.socket_of[*wi] == s && window.tuples > 0)
            .map(|(_, window)| window.sampled_counters())
            .collect();
        let merged = SampledCounters::merged(&samples)?;
        // The observed side of the round's cycles-per-tuple residual,
        // captured before the windows are zeroed below.
        self.sockets[s].fit_window_cycles = self
            .windows
            .iter()
            .enumerate()
            .filter(|(wi, _)| self.socket_of[*wi] == s)
            .map(|(_, window)| window.counters.cycles)
            .sum();
        // The geometry must describe the order the windows sampled.
        self.target.set_order(&self.sockets[s].published).ok()?;
        let geom = self.geometry(s, merged.n_input, cpu_cfg);
        // The windows feed this estimate; the next interval accumulates
        // fresh while the fit runs.
        for (wi, window) in self.windows.iter_mut().enumerate() {
            if self.socket_of[wi] == s {
                *window = VectorStats::zero();
            }
        }
        self.sockets[s].estimate_in_flight = true;
        Some((geom, merged))
    }

    fn schedule_trial(&mut self, s: usize, order: Peo, exploratory: bool) {
        let sc = &mut self.sockets[s];
        self.switches.push(SwitchEvent {
            vector: self.morsels_done,
            from: sc.published.clone(),
            to: order.clone(),
            reverted: false,
            exploratory,
        });
        // Trials are only scheduled after at least one full reopt
        // interval of in-epoch morsels, so the epoch average is always
        // populated.
        debug_assert!(sc.epoch_tuples > 0, "trial scheduled with no reference");
        sc.trial = Some(Trial {
            order,
            switch_idx: self.switches.len() - 1,
            prev_cpt: sc.epoch_cycles as f64 / sc.epoch_tuples.max(1) as f64,
            leased: false,
        });
    }

    /// Re-seed a query that has not yet executed any morsel from a cached
    /// template state: the order becomes the published one under a new
    /// epoch (every worker re-chains its shard at its first claim) and
    /// the calibration is restored into the master target. Only legal
    /// before the first morsel — there are no samples, no trials and no
    /// epoch history to invalidate. An order the target rejects degrades
    /// to keeping the cold start: a stale seed may cost performance,
    /// never correctness. Returns whether the seed was applied.
    pub(crate) fn reseed(
        &mut self,
        order: &[usize],
        calibration: Option<&popt_solver::CalibrationSnapshot>,
    ) -> bool {
        debug_assert_eq!(self.morsels_done, 0, "reseed after execution began");
        if self.target.set_order(order).is_err() {
            return false;
        }
        for sc in &mut self.sockets {
            sc.published = order.to_vec();
            sc.epoch += 1;
        }
        if let Some((tracer, query)) = &self.trace {
            for (s, sc) in self.sockets.iter().enumerate() {
                tracer.emit(tracer.coordinator_lane(), *query, || {
                    TraceEvent::OrderPublish {
                        socket: s,
                        order: sc.published.clone(),
                        epoch: sc.epoch,
                        warm_seed: true,
                    }
                });
            }
        }
        if let Some(snapshot) = calibration {
            self.target.restore_calibration(snapshot);
        }
        true
    }

    /// A trial scheduled after the last morsel was claimed never ran; it
    /// was never accepted either, so record it as reverted. Call once
    /// after the last morsel of the stream resolved.
    pub(crate) fn abandon_unleased_trial(&mut self) {
        for sc in &mut self.sockets {
            if let Some(trial) = sc.trial.take() {
                if !trial.leased {
                    self.switches[trial.switch_idx].reverted = true;
                } else {
                    // A leased trial is always resolved by the worker
                    // that ran it; putting it back preserves that
                    // invariant.
                    sc.trial = Some(trial);
                }
            }
        }
    }
}

/// Locked access to one query's [`CoordState`], abstracting over *which*
/// mutex guards it: the dedicated-pool executor wraps a single state in
/// its own mutex, while the serving layer keeps many queries behind one
/// server lock. The trial/reopt choreography is written once against
/// this trait ([`trial_round`] / [`normal_round`]) so the two executors
/// cannot drift apart.
pub(crate) trait WithCoord<'a, 't> {
    /// Run `f` with the coordination state locked.
    fn with<R>(&self, f: impl FnOnce(&mut CoordState<'a, 't>) -> R) -> R;
}

/// [`CoordState`] plus the error slot the workers of a dedicated-pool
/// run share (the serving layer keeps its error slot in the scheduler
/// state instead, one per server).
struct SharedState<'a, 't> {
    coord: CoordState<'a, 't>,
    error: Option<EngineError>,
}

impl<'a, 't> WithCoord<'a, 't> for Mutex<SharedState<'a, 't>> {
    fn with<R>(&self, f: impl FnOnce(&mut CoordState<'a, 't>) -> R) -> R {
        f(&mut self.lock().expect("coordinator lock").coord)
    }
}

/// The trial-resolution choreography: locked fit-input derivation,
/// unlocked estimate, locked resolution. Returns the published (order,
/// epoch) for the resolving worker to resync its shard, plus the
/// optimizer cycles the resolution charged to worker `w` (callers that
/// track a wall-clock position fold them in; the dedicated-pool
/// executor reads the per-worker totals from the state at the end and
/// discards the delta).
pub(crate) fn trial_round<'a, 't>(
    coord: &impl WithCoord<'a, 't>,
    w: usize,
    stats: &VectorStats,
    cfg: &ProgressiveConfig,
    cpu_cfg: &CpuConfig,
) -> Result<((Peo, u64), u64), EngineError> {
    let fit_inputs = coord.with(|c| c.trial_fit_inputs(w, stats, cpu_cfg))?;
    // Unlocked: the expensive estimate. The still-leased trial excludes
    // reopt rounds and double-leasing while the pool keeps streaming.
    let fitted = fit_inputs.map(|(geom, sampled)| {
        let estimate = estimate_selectivities(&geom, &sampled, &cfg.estimator);
        (geom, sampled, estimate)
    });
    coord.with(|c| {
        let before = c.optimizer_cycles[w];
        let resolved = c.resolve_trial(w, stats, fitted, cfg)?;
        Ok((resolved, c.optimizer_cycles[w] - before))
    })
}

/// The normal-morsel choreography: locked window accumulation (possibly
/// opening a reopt round), unlocked estimate, locked calibration +
/// proposal. Returns the optimizer cycles charged to worker `w` (zero
/// when no round ran).
pub(crate) fn normal_round<'a, 't>(
    coord: &impl WithCoord<'a, 't>,
    w: usize,
    epoch: u64,
    stats: &VectorStats,
    reopt: Option<&ProgressiveConfig>,
    cpu_cfg: &CpuConfig,
    work_remains: bool,
) -> u64 {
    let prepared = coord.with(|c| c.note_normal(w, epoch, stats, reopt, cpu_cfg, work_remains));
    let Some((geom, merged)) = prepared else {
        return 0;
    };
    let cfg = reopt.expect("a prepared reopt round implies a config");
    // Unlocked: the expensive pool-wide estimate.
    let estimate = estimate_selectivities(&geom, &merged, &cfg.estimator);
    coord.with(|c| {
        let before = c.optimizer_cycles[w];
        c.finish_reoptimize(w, &geom, &merged, estimate, cfg);
        c.optimizer_cycles[w] - before
    })
}

enum MorselMode {
    /// Executed under the accepted order of the recorded epoch.
    Normal { epoch: u64 },
    /// Executed under the leased trial order.
    Trial,
}

/// Execute a compiled program with morsel-driven parallelism, optionally
/// with shared progressive operator reordering. The program is left in
/// the final accepted order. The parallel generalization of
/// [`crate::progressive::run_progressive_program`].
pub fn run_parallel_program(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
) -> Result<ParallelReport, EngineError> {
    run_parallel_program_observed(
        program,
        initial_order,
        morsels,
        pool,
        reopt,
        &ExecObservers::none(),
    )
}

/// [`run_parallel_program`] with any combination of observers attached:
/// tracer, per-stage cycle profiler, model-drift observatory. All
/// non-invasive — the report is bit-identical to the unobserved run's,
/// and the profiler's attributed cycles sum bit-exactly to the pool's
/// per-worker wall cycles (stage + optimizer lanes per worker equal that
/// worker's entry in `per_worker_cycles`; idle pads to the fleet wall).
pub fn run_parallel_program_observed(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
    obs: &ExecObservers,
) -> Result<ParallelReport, EngineError> {
    program.reorder(initial_order)?;
    let mut target = CompiledTarget::new(program.clone());
    let report = run_parallel(&mut target, morsels, pool, reopt, obs)?;
    *program = target.into_program();
    Ok(report)
}

fn run_parallel(
    target: &mut CompiledTarget<'_>,
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
    obs: &ExecObservers,
) -> Result<ParallelReport, EngineError> {
    if let Some(cfg) = reopt {
        if cfg.reop_interval == 0 {
            return Err(EngineError::InvalidVectorConfig("reop_interval = 0".into()));
        }
    }
    let workers = pool.len();
    let sockets = pool.sockets();
    // Range affinity: each socket's workers claim from that socket's
    // contiguous morsel range (HyPer-style), via per-socket claim
    // counters that stay host-schedule-independent. One socket reduces
    // exactly to the flat round-robin interleave.
    let dispatcher = MorselDispatcher::with_affinity(
        target.program().rows(),
        morsels.morsel_tuples,
        workers,
        sockets,
    )?;
    let cpu_cfg = pool.config().clone();
    let freq = cpu_cfg.timing.frequency_ghz;

    // Socket boundary: declare this query's hot set on every core it is
    // about to occupy. On a shared-LLC pool the partition shrinks each
    // core's slice to its share — a pure function of the declared
    // footprints, so per-core cycles stay host-independent — and every
    // estimator fit below prices against the (conservative, per-socket
    // minimum) share instead of the configured socket capacity.
    pool.declare_footprints(&vec![target.program().hot_set_bytes(); workers]);
    let llc_shares: Vec<u64> = (0..sockets)
        .map(|s| pool.min_effective_llc_bytes_socket(s))
        .collect();
    let socket_of: Vec<usize> = (0..workers).map(|w| pool.socket_of(w)).collect();
    let placement = pool.cores()[0].placement().clone();

    if let Some((tracer, query)) = &obs.trace {
        let mode = match pool.llc_mode() {
            LlcMode::Shared => "shared",
            LlcMode::Private => "private",
        };
        let shares = llc_shares.clone();
        tracer.emit(tracer.coordinator_lane(), *query, || {
            TraceEvent::LlcRepartition {
                scope: "batch",
                mode,
                shares,
            }
        });
    }

    let shards = vec![target.program().clone(); workers];

    // Observation-only input the workers need outside the lock: the
    // plan-indexed profiling weights (order-independent by construction).
    let plan_weights = target.stage_profile_weights();

    let worker_socket = socket_of.clone();
    let mut coord = CoordState::with_topology(target, socket_of, llc_shares, placement);
    if let Some((tracer, query)) = &obs.trace {
        coord.set_trace(Arc::clone(tracer), *query);
    }
    if let Some(drift) = &obs.drift {
        coord.set_drift(Arc::clone(drift));
    }
    let state = Mutex::new(SharedState { coord, error: None });

    // Per-worker totals merge after the join in worker order, so the
    // result assembly is deterministic regardless of thread scheduling
    // (integer sums make it order-independent anyway — this keeps even
    // intermediate states reproducible).
    let mut worker_totals: Vec<(VectorStats, u64)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .cores_mut()
            .iter_mut()
            .zip(shards)
            .enumerate()
            .map(|(w, (core, mut shard))| {
                let dispatcher = &dispatcher;
                let state = &state;
                let cpu_cfg = &cpu_cfg;
                let socket = worker_socket[w];
                let plan_weights = &plan_weights;
                scope.spawn(move || {
                    worker_loop(
                        w,
                        socket,
                        core,
                        &mut shard,
                        dispatcher,
                        state,
                        reopt,
                        cpu_cfg,
                        obs,
                        plan_weights,
                    )
                })
            })
            .collect();
        for handle in handles {
            worker_totals.push(handle.join().expect("worker thread panicked"));
        }
    });

    let mut st = state.into_inner().expect("no worker held the lock");
    if let Some(err) = st.error.take() {
        return Err(err);
    }
    st.coord.abandon_unleased_trial();

    let mut total = VectorStats::zero();
    for (stats, _) in &worker_totals {
        total.accumulate(stats);
    }
    let per_worker_cycles: Vec<u64> = worker_totals
        .iter()
        .zip(&st.coord.optimizer_cycles)
        .map(|((_, exec_cycles), opt_cycles)| exec_cycles + opt_cycles)
        .collect();
    let wall_cycles = fleet_wall_cycles(&per_worker_cycles);
    if let Some(prof) = &obs.profiler {
        // Per-worker busy cycles are final; the profiler fills the idle
        // lanes up to the fleet wall and seals the conservation law.
        prof.finish(&per_worker_cycles);
    }
    let socket_orders = st.coord.socket_orders();
    // Leave the master target in socket 0's accepted order: callers read
    // one final order off the target, and socket 0 is the deterministic
    // representative (`final_order` carries the same choice).
    st.coord
        .target
        .set_order(&socket_orders[0])
        .expect("published order was accepted before");
    if let Some((tracer, query)) = &obs.trace {
        let morsels = st.coord.morsels_done;
        tracer.emit_at(tracer.coordinator_lane(), *query, wall_cycles, || {
            TraceEvent::Complete {
                qualified: total.qualified,
                sum: total.sum,
                morsels,
                wall_cycles,
            }
        });
    }
    Ok(ParallelReport {
        qualified: total.qualified,
        sum: total.sum,
        wall_cycles,
        total_cycles: per_worker_cycles.iter().sum(),
        millis: wall_cycles as f64 / (freq * 1e6),
        workers,
        morsels: st.coord.morsels_done,
        per_worker_cycles,
        switches: st.coord.switches,
        estimates: st.coord.estimates,
        optimizer_cycles: st.coord.optimizer_cycles.iter().sum(),
        final_order: socket_orders[0].clone(),
        socket_orders,
        remote_access_pct: pool.remote_access_pct(),
        counters: total.counters,
    })
}

/// One worker: claim morsels, sync order / lease trials at morsel
/// boundaries, execute on the private core, report to the coordinator.
/// Returns the worker's result total and its execution cycles.
///
/// Locking discipline: the coordinator mutex is held only for cheap
/// bookkeeping (order sync, window accumulation, proposal application).
/// The expensive multi-start Nelder–Mead estimate runs *outside* the
/// lock — `estimate_in_flight` (and, for trial fits, the still-leased
/// trial itself) keeps concurrent rounds exclusive — so one worker's
/// optimizer round never stalls the rest of the pool in host time.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    socket: usize,
    core: &mut SimCpu,
    shard: &mut CompiledProgram<'_>,
    dispatcher: &MorselDispatcher,
    state: &Mutex<SharedState<'_, '_>>,
    reopt: Option<&ProgressiveConfig>,
    cpu_cfg: &CpuConfig,
    obs: &ExecObservers,
    plan_weights: &[f64],
) -> (VectorStats, u64) {
    let cycles_before = core.counters().cycles;
    let mut total = VectorStats::zero();
    let mut local_epoch = 0u64;
    // This worker's simulated wall position: execution cycles plus the
    // optimizer cycles its own estimator rounds charged. Pure function
    // of the simulation — the tracer's lane clock follows it, so stamps
    // never depend on host time.
    let mut opt_total = 0u64;
    while let Some((start, end)) = dispatcher.next(w) {
        // Boundary sync: adopt the published order, or lease a pending
        // trial so the candidate runs on exactly this core.
        let action = {
            let mut st = state.lock().expect("coordinator lock");
            if st.error.is_some() {
                break;
            }
            st.coord.begin_morsel(w, local_epoch)
        };
        let mode = match action {
            BoundaryAction::Trial(order) => {
                if let Err(err) = shard.reorder(&order) {
                    state.lock().expect("coordinator lock").error = Some(err);
                    break;
                }
                MorselMode::Trial
            }
            BoundaryAction::Adopt { order, epoch } => {
                if let Err(err) = shard.reorder(&order) {
                    state.lock().expect("coordinator lock").error = Some(err);
                    break;
                }
                local_epoch = epoch;
                MorselMode::Normal { epoch }
            }
            BoundaryAction::Keep { epoch } => MorselMode::Normal { epoch },
        };

        let start_pos = (core.counters().cycles - cycles_before) + opt_total;
        let stats = shard.run_range(core, start, end);
        total.accumulate(&stats);

        if let Some(prof) = &obs.profiler {
            // The shard's own order: the coordinator's view can move
            // between this worker's boundaries.
            let parts = morsel_stage_parts(shard.order(), plan_weights, &stats);
            prof.record_morsel(w, socket, start_pos, &parts);
        }

        if let Some((tracer, query)) = &obs.trace {
            let query = *query;
            // Publish this lane's wall position at the morsel boundary so
            // the decision events the locked round below emits (accept /
            // revert / reopt) stamp at the morsel's end.
            tracer.set_clock(w, (core.counters().cycles - cycles_before) + opt_total);
            tracer.emit(w, query, || TraceEvent::MorselClaim {
                socket,
                start_row: start,
                rows: end - start,
                start_cycles: start_pos,
                cycles: stats.counters.cycles,
                trial: matches!(mode, MorselMode::Trial),
                epoch: local_epoch,
            });
        }

        // The lane position an optimizer round this boundary runs at:
        // the morsel's end (execution so far plus prior optimizer time).
        let round_pos = (core.counters().cycles - cycles_before) + opt_total;
        let outcome = match mode {
            MorselMode::Trial => {
                let cfg = reopt.expect("trials are only scheduled when reopt is on");
                trial_round(state, w, &stats, cfg, cpu_cfg).and_then(|((published, epoch), opt)| {
                    // Adopt whatever order the resolution left
                    // published (the trial order if accepted, the
                    // incumbent if not). Optimizer cycles are read
                    // from the state's per-worker totals at the end.
                    if let Some(prof) = &obs.profiler {
                        prof.record_optimizer(w, socket, round_pos, opt);
                    }
                    opt_total += opt;
                    shard.reorder(&published)?;
                    local_epoch = epoch;
                    Ok(())
                })
            }
            MorselMode::Normal { epoch } => {
                let opt = normal_round(
                    state,
                    w,
                    epoch,
                    &stats,
                    reopt,
                    cpu_cfg,
                    !dispatcher.exhausted(),
                );
                if let Some(prof) = &obs.profiler {
                    prof.record_optimizer(w, socket, round_pos, opt);
                }
                opt_total += opt;
                Ok(())
            }
        };
        if let Err(err) = outcome {
            state.lock().expect("coordinator lock").error = Some(err);
            break;
        }
    }
    (total, core.counters().cycles - cycles_before)
}

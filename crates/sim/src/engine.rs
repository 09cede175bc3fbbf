//! The trace-driven multi-process power-management simulator.
//!
//! One pass over each execution produces both evaluations the paper
//! reports:
//!
//! * **local** (Figure 6): every process's predictor classified against
//!   that process's own idle gaps, summed over processes;
//! * **global** (Figures 7–10): per-process standing votes combined by
//!   the [`GlobalPredictor`]; the disk shuts down at the latest
//!   vote-ready instant, with energy integrated per Table 2 and
//!   mispredictions attributed to the last-deciding predictor.
//!
//! Interpretation choices (see `DESIGN.md` §2): a shutdown is a *hit*
//! iff its device-off interval exceeds the breakeven time; trace time
//! is not stretched by spin-ups; the interval before a run's first disk
//! access is excluded; the terminal gap (last access → run end) is
//! included.
//!
//! There is exactly one per-access loop. It is generic over a gap
//! charger, the only part that differs between the two energy models:
//!
//! * the two-state charger (Table 2) uses the closed-form
//!   [`GapBreakdown::managed`], with the §7 wait-window substitution
//!   for managers that have a shallow window state;
//! * the ladder charger (the §7 extension taken to a full descent
//!   through [`MultiStateParams::states`]) charges each gap with a
//!   [`LadderPolicy`]-planned descent via [`descent_energy`], records
//!   where it bottomed out in [`LadderStats`], and reports that to the
//!   observer through [`DecisionObserver::on_ladder_bottom`].
//!
//! Gap verdicts and prediction counts are classified against the
//! two-state breakeven under both chargers: prediction quality is a
//! property of the predictor, not of the ladder. A single-state ladder
//! built with [`MultiStateParams::from_disk`] and driven by
//! [`PredictiveJump`](pcap_disk::PredictiveJump) replays the two-state
//! float operations in the same order, so its reports and decision
//! streams are byte-identical to the two-state charger's
//! (`tests/multistate.rs`).
//!
//! The simulation borrows a pre-built [`RunStreams`] (which carries the
//! run's accesses, gaps, lifetimes and lifecycle) and mutates only the
//! manager plus a reusable [`EngineScratch`], so one prepared stream
//! can be shared by the whole manager grid. [`evaluate`] drives every
//! evaluation of a [`PreparedTrace`].

use crate::audit::{DecisionObserver, DecisionRecord, GapEnergy};
use crate::factory::{Manager, PowerManagerKind};
use crate::metrics::{EnergyBreakdown, PredictionCounts};
use crate::prepared::{evaluate_prepared, PreparedTrace};
use crate::streams::{LifecycleEvent, LifecycleKind, RunStreams};
use crate::SimConfig;
use pcap_core::{ladder_target, GlobalDecision, GlobalPredictor, IdlePredictor, VoteSource};
use pcap_disk::{
    descent_energy, DescentStep, DiskParams, GapBreakdown, GapContext, LadderPolicy, LowPowerState,
    MultiStateParams,
};
use pcap_trace::ApplicationTrace;
use pcap_types::{Pid, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The simulator's verdict on one application × one power manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// Application name (shared with the source trace).
    pub app: Arc<str>,
    /// Power-manager label ("TP", "PCAPh", …).
    pub manager: String,
    /// Local (per-process) prediction counts, summed over processes and
    /// executions — Figure 6.
    pub local: PredictionCounts,
    /// Global prediction counts — Figures 7, 9, 10.
    pub global: PredictionCounts,
    /// Managed energy breakdown — Figure 8.
    pub energy: EnergyBreakdown,
    /// Unmanaged (always-spinning) energy breakdown — Figure 8 "Base".
    pub base_energy: EnergyBreakdown,
    /// Prediction-table entries after all executions — Table 3.
    pub table_entries: Option<usize>,
    /// Detected signature-aliasing events (distinct PC paths colliding
    /// on one signature) across all executions.
    pub table_aliases: Option<u64>,
}

impl AppReport {
    /// Fraction of base energy eliminated (the §6.3 headline numbers).
    pub fn savings(&self) -> f64 {
        self.energy.savings_vs(&self.base_energy)
    }
}

/// Evaluates one power manager over a full application trace (all
/// executions, shared prediction state per the manager's reuse policy).
///
/// Prepares the trace's [`RunStreams`] internally; callers evaluating
/// *several* managers over the same trace should build one
/// [`PreparedTrace`] and call [`evaluate_prepared`] per manager
/// instead, sharing the preparation.
pub fn evaluate_app(
    trace: &ApplicationTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
) -> AppReport {
    let prepared = PreparedTrace::build(trace, config);
    evaluate_prepared(&prepared, config, kind)
}

/// The verdict on one idle gap under a power manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapVerdict {
    /// Shutdown whose device-off interval exceeded breakeven.
    Hit,
    /// Shutdown that lost energy (off interval ≤ breakeven).
    Miss,
    /// Opportunity (gap > breakeven) with no shutdown.
    NotPredicted,
    /// Gap too short to matter; no shutdown was issued.
    Short,
}

/// Per-run simulation outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Local prediction counts.
    pub local: PredictionCounts,
    /// Global prediction counts.
    pub global: PredictionCounts,
    /// Managed energy.
    pub energy: EnergyBreakdown,
    /// Unmanaged energy.
    pub base_energy: EnergyBreakdown,
}

/// Where the ladder descents bottomed out, summed over gaps: the
/// observable behaviour of a policy beyond its energy bill.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LadderStats {
    /// Gaps the disk spent entirely spinning idle (no step fired).
    pub idle_gaps: u64,
    /// Gaps whose descent bottomed out in each ladder state,
    /// index-aligned with [`MultiStateParams::states`].
    pub bottom_counts: Vec<u64>,
}

impl LadderStats {
    /// Zeroed stats for a ladder with `states` states.
    pub fn new(states: usize) -> LadderStats {
        LadderStats {
            idle_gaps: 0,
            bottom_counts: vec![0; states],
        }
    }

    /// Records one gap's bottom-out state (`None` = stayed idle).
    pub fn record(&mut self, bottom: Option<usize>) {
        match bottom {
            Some(state) => self.bottom_counts[state] += 1,
            None => self.idle_gaps += 1,
        }
    }

    /// Total gaps observed.
    pub fn total_gaps(&self) -> u64 {
        self.idle_gaps + self.bottom_counts.iter().sum::<u64>()
    }
}

/// Reusable per-run engine state: dense per-process predictor and
/// pending-idle tables keyed by the compact pid index of the current
/// [`RunStreams`], plus the descent-plan buffer the ladder charger
/// fills per gap. Reusing one scratch across the runs of a trace (and
/// across managers) keeps the per-access path free of hashing and the
/// per-run path free of table reallocation.
#[derive(Default)]
pub struct EngineScratch {
    preds: Vec<Option<Box<dyn IdlePredictor>>>,
    pending_idle: Vec<Option<SimDuration>>,
    /// Per-run global predictor, cleared (capacity kept) between runs.
    global: GlobalPredictor,
    /// Retired per-process predictor boxes available for recycling; see
    /// [`EngineScratch::enable_predictor_pool`].
    pool: Vec<Box<dyn IdlePredictor>>,
    pool_enabled: bool,
    plan: Vec<DescentStep>,
}

impl EngineScratch {
    /// An empty scratch; tables grow to each run's process count.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// Recycles per-process predictor boxes across process lifetimes
    /// instead of allocating a fresh box per process: a process exit
    /// parks its predictor (after `on_run_end` fully resets it) and the
    /// next process start pops it back.
    ///
    /// Opt-in because it is only sound when the manager's per-process
    /// state resets completely at `on_run_end` — true for PCAP, whose
    /// signature/history/pending state all clear (the surviving
    /// match/learn counters are report-only) — and when one `Manager`
    /// is kept alive for every run fed through this scratch (pooled
    /// boxes hold handles to that manager's shared table). The
    /// streaming fleet pipeline satisfies both; the legacy paths never
    /// enable it.
    pub fn enable_predictor_pool(&mut self) {
        self.pool_enabled = true;
    }

    fn reset(&mut self, pid_count: usize) {
        self.preds.clear();
        self.preds.resize_with(pid_count, || None);
        self.pending_idle.clear();
        self.pending_idle.resize(pid_count, None);
        self.global.clear();
    }
}

/// Live per-run simulation state. Process-indexed tables are dense
/// (compact pid index); the pid itself is only materialized at the
/// `GlobalPredictor` boundary.
struct RunState<'a> {
    manager: &'a mut Manager,
    oracle: bool,
    global: &'a mut GlobalPredictor,
    preds: &'a mut [Option<Box<dyn IdlePredictor>>],
    /// Gap lengths awaiting `on_idle_end` at each process's next access
    /// (or exit).
    pending_idle: &'a mut [Option<SimDuration>],
    pool: &'a mut Vec<Box<dyn IdlePredictor>>,
    pool_enabled: bool,
    pids: &'a [Pid],
}

impl RunState<'_> {
    fn start_process(&mut self, pidx: usize, at: SimTime) {
        let pid = self.pids[pidx];
        self.global.process_started(pid, at);
        self.global
            .record_vote(pid, at, self.manager.initial_vote());
        // A pooled box was fully reset by `on_run_end` at retirement, so
        // it is behaviorally a fresh `for_process` product (the pool is
        // only enabled for managers where that holds).
        self.preds[pidx] = match self.pool.pop() {
            Some(recycled) => Some(recycled),
            None => Some(self.manager.for_process(pid)),
        };
    }

    fn end_process(&mut self, pidx: usize) {
        if let Some(mut pred) = self.preds[pidx].take() {
            if let Some(gap) = self.pending_idle[pidx].take() {
                pred.on_idle_end(gap);
            }
            pred.on_run_end();
            if self.pool_enabled {
                self.pool.push(pred);
            }
        }
        self.global.process_exited(self.pids[pidx]);
    }

    fn apply(&mut self, event: LifecycleEvent) {
        match event.kind {
            LifecycleKind::Start => self.start_process(event.pidx as usize, event.time),
            LifecycleKind::Exit => self.end_process(event.pidx as usize),
        }
    }
}

/// The energy side of the engine: charges one merged idle gap given the
/// voted shutdown. Everything else in the loop (lifecycle, votes,
/// verdicts, counts) is charger-independent.
trait GapCharger {
    /// The managed breakdown of a `gap` whose voted shutdown (if any)
    /// came `delay` after the gap start from `source`. `base` is the
    /// always-on breakdown of the same gap; `window` is the manager's
    /// shallow wait-window state (§7), if it has one; `plan` is scratch
    /// for a descent plan.
    fn charge(
        &mut self,
        disk: &DiskParams,
        window: Option<&LowPowerState>,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        base: GapBreakdown,
        plan: &mut Vec<DescentStep>,
    ) -> GapBreakdown;

    /// Delivers what the charger learned about the gap it last charged,
    /// after the observer received the gap's decision.
    fn report<O: DecisionObserver>(&self, observer: &mut O) {
        let _ = observer;
    }
}

/// The paper's two-state disk (Table 2) in closed form.
struct TwoState;

impl GapCharger for TwoState {
    #[inline(always)]
    fn charge(
        &mut self,
        disk: &DiskParams,
        window: Option<&LowPowerState>,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        base: GapBreakdown,
        _plan: &mut Vec<DescentStep>,
    ) -> GapBreakdown {
        match (shutdown, window) {
            // §7 extension: the wait-window is spent in a shallow
            // low-power state instead of spinning idle.
            (Some((delay, _)), Some(shallow)) => {
                GapBreakdown::managed_with_window_state(disk, gap, delay, shallow)
            }
            (Some((delay, _)), None) => GapBreakdown::managed(disk, gap, delay),
            (None, _) => base,
        }
    }
}

/// A multi-state ladder descended by a [`LadderPolicy`].
struct LadderCharger<'a> {
    ladder: &'a MultiStateParams,
    breakevens: Vec<SimDuration>,
    policy: &'a dyn LadderPolicy,
    stats: LadderStats,
    bottom: Option<usize>,
}

impl<'a> LadderCharger<'a> {
    fn new(ladder: &'a MultiStateParams, policy: &'a dyn LadderPolicy) -> LadderCharger<'a> {
        ladder.validate().expect("evaluate: invalid ladder");
        LadderCharger {
            ladder,
            breakevens: ladder.breakevens(),
            policy,
            stats: LadderStats::new(ladder.states.len()),
            bottom: None,
        }
    }
}

impl GapCharger for LadderCharger<'_> {
    #[inline(always)]
    fn charge(
        &mut self,
        _disk: &DiskParams,
        window: Option<&LowPowerState>,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        _base: GapBreakdown,
        plan: &mut Vec<DescentStep>,
    ) -> GapBreakdown {
        let ctx = GapContext {
            shutdown_at: shutdown.map(|(delay, _)| delay),
            target: shutdown.map_or(0, |(delay, source)| {
                ladder_target(source, delay, &self.breakevens)
            }),
            gap,
        };
        self.policy.plan(self.ladder, &ctx, plan);
        let (descent, bottom) = descent_energy(self.ladder, plan, gap);
        self.stats.record(bottom);
        self.bottom = bottom;
        // §7 wait-window substitution, as in the two-state charger: the
        // spin-idle prefix before the first step is spent in the
        // manager's shallow window state when it has one.
        match (window, plan.first()) {
            (Some(shallow), Some(first)) if first.at < gap => {
                descent.substitute_window(shallow, first.at)
            }
            _ => descent,
        }
    }

    fn report<O: DecisionObserver>(&self, observer: &mut O) {
        observer.on_ladder_bottom(self.bottom);
    }
}

/// Simulates one execution on the two-state disk, delivering every
/// idle-gap decision to `observer` (see [`DecisionObserver`]). With
/// [`NullObserver`](crate::NullObserver) the audit path compiles away
/// entirely. The per-run entry point of the streaming and serving
/// paths; [`evaluate`] covers whole prepared traces.
///
/// The caller is responsible for invoking
/// [`DecisionObserver::on_run_start`] if its sink distinguishes runs;
/// this function reports a single run's decisions with `run` left at 0.
pub fn simulate_run_observed<O: DecisionObserver>(
    streams: &RunStreams,
    config: &SimConfig,
    manager: &mut Manager,
    scratch: &mut EngineScratch,
    observer: &mut O,
) -> RunOutcome {
    simulate(streams, config, manager, scratch, &mut TwoState, observer)
}

/// The engine loop: one pass over a run's accesses, charging each gap
/// through `charger`.
fn simulate<C: GapCharger, O: DecisionObserver>(
    streams: &RunStreams,
    config: &SimConfig,
    manager: &mut Manager,
    scratch: &mut EngineScratch,
    charger: &mut C,
    observer: &mut O,
) -> RunOutcome {
    let be = config.disk.breakeven_time();
    let window_state = manager.window_state();
    let mut out = RunOutcome::default();

    scratch.reset(streams.pid_count());
    let mut state = RunState {
        oracle: manager.is_oracle(),
        manager,
        global: &mut scratch.global,
        preds: &mut scratch.preds,
        pending_idle: &mut scratch.pending_idle,
        pool: &mut scratch.pool,
        pool_enabled: scratch.pool_enabled,
        pids: streams.pids(),
    };
    let plan = &mut scratch.plan;

    // Pre-resolved start/exit events in time order (the root's start at
    // time zero is the first entry).
    let lifecycle = streams.lifecycle();
    let mut li = 0usize;

    let n = streams.accesses.len();
    for i in 0..n {
        let access = streams.accesses[i];
        let completion = streams.completions[i];
        let local_gap = streams.local_gaps[i];
        let global_gap = streams.global_gaps[i];

        // Lifecycle events that happened before this access (when i ==
        // 0 nothing was stepped yet; later gaps already consumed
        // everything up to this access's arrival).
        while li < lifecycle.len() && lifecycle[li].time <= access.time {
            state.apply(lifecycle[li]);
            li += 1;
        }

        // Busy energy (both managed and base).
        let busy = config.disk.busy_power * config.disk.service_time(access.pages);
        out.energy.busy += busy;
        out.base_energy.busy += busy;

        // Route the access: kernel write-backs attributed to an exited
        // process act on behalf of the application (the root, index 0).
        let apidx = streams.access_pid_index(i);
        let pidx = if state.preds[apidx].is_some() {
            apidx
        } else {
            0
        };
        let vote = if let Some(pred) = state.preds[pidx].as_mut() {
            if let Some(gap) = state.pending_idle[pidx].take() {
                pred.on_idle_end(gap);
            }
            let vote = pred.on_access(&access, local_gap);
            state.pending_idle[pidx] = Some(local_gap);
            Some(vote)
        } else {
            None
        };

        // Local classification.
        if local_gap > be {
            out.local.opportunities += 1;
        }
        let local_verdict = match vote {
            Some(vote) => match vote.delay {
                Some(delay) if delay < local_gap => {
                    if local_gap - delay > be {
                        out.local.record_hit(vote.source);
                        GapVerdict::Hit
                    } else {
                        out.local.record_miss(vote.source);
                        GapVerdict::Miss
                    }
                }
                _ if local_gap > be => {
                    out.local.not_predicted += 1;
                    GapVerdict::NotPredicted
                }
                _ => GapVerdict::Short,
            },
            None if local_gap > be => {
                out.local.not_predicted += 1;
                GapVerdict::NotPredicted
            }
            None => GapVerdict::Short,
        };
        if let Some(vote) = vote {
            if !state.oracle {
                state.global.record_vote(state.pids[pidx], completion, vote);
            }
        }

        // Predictor-side audit context, captured before gap resolution:
        // the deciding process may exit (dropping its predictor) inside
        // the gap.
        let (signature, table_len) = if O::ENABLED {
            match state.preds[pidx].as_ref() {
                Some(pred) => (pred.audit_signature(), pred.audit_table_len()),
                None => (None, None),
            }
        } else {
            (None, None)
        };

        // Resolve the merged gap that follows this access.
        let gap_end = completion + global_gap;
        let shutdown = if state.oracle {
            (global_gap > be).then_some((completion, VoteSource::Primary))
        } else {
            resolve_gap_voting(&mut state, lifecycle, &mut li, completion, gap_end)
        };

        // Global classification and energy. The always-on breakdown is
        // shared by the unmanaged case and the base-energy term.
        if global_gap > be {
            out.global.opportunities += 1;
        }
        let base_breakdown = GapBreakdown::unmanaged(&config.disk, global_gap);
        let verdict = match shutdown {
            Some((at, source)) => {
                if gap_end - at > be {
                    out.global.record_hit(source);
                    GapVerdict::Hit
                } else {
                    out.global.record_miss(source);
                    GapVerdict::Miss
                }
            }
            None if global_gap > be => {
                out.global.not_predicted += 1;
                GapVerdict::NotPredicted
            }
            None => GapVerdict::Short,
        };
        let managed_breakdown = charger.charge(
            &config.disk,
            window_state.as_ref(),
            global_gap,
            shutdown.map(|(at, source)| (at - completion, source)),
            base_breakdown,
            plan,
        );
        out.energy.add_gap(global_gap > be, managed_breakdown);
        out.base_energy.add_gap(global_gap > be, base_breakdown);

        if O::ENABLED {
            observer.on_decision(
                DecisionRecord {
                    run: 0,
                    access: i as u32,
                    at: completion,
                    pid: access.pid,
                    pc: access.pc,
                    signature,
                    table_len,
                    vote_delay: vote.and_then(|v| v.delay),
                    vote_source: vote.map(|v| v.source),
                    local_gap,
                    local_verdict,
                    global_gap,
                    shutdown_at: shutdown.map(|(at, _)| at),
                    shutdown_source: shutdown.map(|(_, source)| source),
                    verdict,
                    energy_delta_j: managed_breakdown.total().0 - base_breakdown.total().0,
                },
                &GapEnergy {
                    long: global_gap > be,
                    busy,
                    managed: managed_breakdown,
                    base: base_breakdown,
                },
            );
            charger.report(observer);
        }
    }

    // Remaining lifecycle (exits at/after the last access).
    while li < lifecycle.len() {
        state.apply(lifecycle[li]);
        li += 1;
    }

    // Park predictors whose processes never recorded an exit (traces are
    // not required to close every pid): `on_run_end` restores them to
    // constructed state, so the pool can hand them out as fresh boxes.
    if state.pool_enabled {
        for slot in state.preds.iter_mut() {
            if let Some(mut pred) = slot.take() {
                pred.on_run_end();
                state.pool.push(pred);
            }
        }
    }

    out
}

/// Steps through the lifecycle events inside one idle gap, returning
/// the first instant at which every live process's vote is ready (and
/// the source of the latest vote), or `None` if the disk must keep
/// spinning until the gap ends.
fn resolve_gap_voting(
    state: &mut RunState<'_>,
    lifecycle: &[LifecycleEvent],
    li: &mut usize,
    gap_start: SimTime,
    gap_end: SimTime,
) -> Option<(SimTime, VoteSource)> {
    let mut now = gap_start;
    let mut shutdown = None;
    loop {
        let boundary = if *li < lifecycle.len() && lifecycle[*li].time <= gap_end {
            lifecycle[*li].time
        } else {
            gap_end
        };
        if shutdown.is_none() {
            if let GlobalDecision::ShutdownAt(t, source) = state.global.decision() {
                let at = t.max(now);
                if at < boundary {
                    shutdown = Some((at, source));
                }
            }
        }
        if boundary == gap_end {
            // Consume lifecycle events exactly at the gap end belonging
            // to the gap (exits at run end); forks at the next access's
            // timestamp are handled by the access loop.
            break;
        }
        state.apply(lifecycle[*li]);
        *li += 1;
        // Events that arrived while the disk was still busy (before the
        // gap started) must not pull `now` backwards.
        now = now.max(boundary);
    }
    shutdown
}

/// Evaluates one power manager over a prepared trace — the one driver
/// behind every prepared-trace evaluation.
///
/// * `ladder`: `None` charges gaps on the two-state disk; `Some((params,
///   policy))` descends the ladder `params` under `policy` and returns
///   its [`LadderStats`] beside the report.
/// * `observer` receives every decision (in run order, after
///   [`DecisionObserver::on_run_start`]); with
///   [`NullObserver`](crate::NullObserver) the audit path compiles
///   away.
/// * `pipeline` gets one `eval:{app}×{manager}` span around the run
///   loop, an `eval_us` sample of its duration and a `runs` counter
///   increment per run; with [`pcap_obs::NullPipeline`] it compiles
///   away.
///
/// `config` may differ from the preparation config in predictor-only
/// parameters (the ablation-sweep use case).
///
/// # Panics
///
/// Panics if `config` disagrees with the preparation config on cache
/// or disk parameters (the streams would be stale), or if the ladder
/// fails [`MultiStateParams::validate`].
pub fn evaluate<O: DecisionObserver, P: pcap_obs::PipelineObserver>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    ladder: Option<(&MultiStateParams, &dyn LadderPolicy)>,
    observer: &mut O,
    pipeline: &P,
) -> (AppReport, Option<LadderStats>) {
    assert!(
        prepared.matches(config),
        "evaluate: config changes cache/disk parameters; rebuild the PreparedTrace"
    );
    let span = P::ENABLED.then(|| {
        let name = format!("eval:{}×{}", prepared.app(), kind.label());
        let started = std::time::Instant::now();
        pipeline.span_begin(&name);
        (name, started)
    });
    let evaluated = match ladder {
        None => (
            evaluate_runs(prepared, config, kind, &mut TwoState, observer),
            None,
        ),
        Some((params, policy)) => {
            let mut charger = LadderCharger::new(params, policy);
            let report = evaluate_runs(prepared, config, kind, &mut charger, observer);
            (report, Some(charger.stats))
        }
    };
    if let Some((name, started)) = span {
        pipeline.span_end(&name);
        pipeline.observe_us("eval_us", started.elapsed().as_micros() as u64);
        pipeline.counter_add("runs", prepared.len() as u64);
    }
    evaluated
}

fn evaluate_runs<C: GapCharger, O: DecisionObserver>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    charger: &mut C,
    observer: &mut O,
) -> AppReport {
    let mut manager = kind.manager(config);
    let mut report = AppReport {
        app: Arc::clone(prepared.app()),
        manager: kind.label(),
        local: PredictionCounts::default(),
        global: PredictionCounts::default(),
        energy: EnergyBreakdown::default(),
        base_energy: EnergyBreakdown::default(),
        table_entries: None,
        table_aliases: None,
    };
    let mut scratch = EngineScratch::new();
    for (run, streams) in prepared.streams().iter().enumerate() {
        observer.on_run_start(run as u32);
        let outcome = simulate(
            streams,
            config,
            &mut manager,
            &mut scratch,
            charger,
            observer,
        );
        report.local += outcome.local;
        report.global += outcome.global;
        report.energy += outcome.energy;
        report.base_energy += outcome.base_energy;
        manager.on_run_end();
    }
    report.table_entries = manager.table_entries();
    report.table_aliases = manager.table_aliases();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditCollector, NullObserver};
    use pcap_disk::{lambda_bounds, LambdaLadder, OracleLadder, PredictiveJump, SkiRental};
    use pcap_obs::NullPipeline;
    use pcap_trace::{TraceRun, TraceRunBuilder};
    use pcap_types::{Fd, FileId, IoKind, Pc};
    use pcap_workload::NoisyVotes;

    /// One execution on the two-state disk with a fresh scratch and no
    /// observer.
    fn simulate_fresh(
        streams: &RunStreams,
        config: &SimConfig,
        manager: &mut Manager,
    ) -> RunOutcome {
        simulate_run_observed(
            streams,
            config,
            manager,
            &mut EngineScratch::new(),
            &mut NullObserver,
        )
    }

    /// One process, fresh 1-page reads at the given seconds, exit at
    /// `end`.
    fn run_with_gaps(times: &[f64], end: f64) -> TraceRun {
        let mut b = TraceRunBuilder::new(Pid(1));
        for (i, &t) in times.iter().enumerate() {
            b.io(
                SimTime::from_secs_f64(t),
                Pid(1),
                Pc(0x100),
                IoKind::Read,
                Fd(3),
                FileId(1),
                (i as u64) * 4096,
                4096,
            );
        }
        b.exit(SimTime::from_secs_f64(end), Pid(1));
        b.finish().unwrap()
    }

    fn outcome(run: TraceRun, kind: PowerManagerKind) -> RunOutcome {
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = kind.manager(&config);
        simulate_fresh(&streams, &config, &mut manager)
    }

    #[test]
    fn oracle_hits_every_opportunity() {
        // Gaps ≈ 1 s, 20 s, 1 s, 40 s (terminal).
        let run = run_with_gaps(&[1.0, 2.0, 22.0, 23.0], 63.0);
        let out = outcome(run, PowerManagerKind::Oracle);
        assert_eq!(out.global.opportunities, 2);
        assert_eq!(out.global.hits(), 2);
        assert_eq!(out.global.misses(), 0);
        assert_eq!(out.global.not_predicted, 0);
        assert_eq!(out.local.hits(), 2);
    }

    #[test]
    fn timeout_covers_only_long_gaps() {
        // Gaps ≈ 20 s (hit: off ≈ 10 s), 8 s (not predicted: timer
        // never fires), 12 s terminal (miss: off ≈ 2 s < breakeven).
        let run = run_with_gaps(&[1.0, 21.0, 29.0], 41.0);
        let out = outcome(run, PowerManagerKind::Timeout);
        assert_eq!(out.global.opportunities, 3);
        assert_eq!(out.global.hits(), 1);
        assert_eq!(out.global.misses(), 1);
        assert_eq!(out.global.not_predicted, 1);
    }

    #[test]
    fn pcap_learns_across_executions() {
        let config = SimConfig::paper();
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        let execute = |manager: &mut Manager| {
            let run = run_with_gaps(&[1.0, 1.2, 1.4], 31.4);
            let streams = RunStreams::build(&run, &config);
            let out = simulate_fresh(&streams, &config, manager);
            manager.on_run_end();
            out
        };
        let first = execute(&mut manager);
        let second = execute(&mut manager);
        // First execution: the 30 s terminal gap trains; the backup
        // timeout makes the shutdown.
        assert_eq!(first.global.hits(), 1);
        assert_eq!(first.global.hit_backup, 1);
        // Second execution: the learned path predicts immediately.
        assert_eq!(second.global.hit_primary, 1);
    }

    #[test]
    fn energy_breakdown_accounts_every_gap() {
        let run = run_with_gaps(&[1.0, 2.0, 22.0], 62.0);
        let out = outcome(run, PowerManagerKind::Timeout);
        // Base energy has no power cycles and no saving.
        assert_eq!(out.base_energy.power_cycle.0, 0.0);
        assert!(out.energy.total().0 < out.base_energy.total().0);
        // Busy identical in both.
        assert_eq!(out.energy.busy, out.base_energy.busy);
    }

    #[test]
    fn fork_during_gap_blocks_shutdown() {
        // Root reads at 1 s then goes idle until 60 s. A helper forks at
        // 3 s and never performs I/O: its initial backup vote anchors at
        // 3 s, so the (TP) shutdown slides from 11 s to 13 s.
        let mut b = TraceRunBuilder::new(Pid(1));
        b.io(
            SimTime::from_secs(1),
            Pid(1),
            Pc(0x1),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.fork(SimTime::from_secs(3), Pid(1), Pid(2));
        b.exit(SimTime::from_secs(59), Pid(2));
        b.exit(SimTime::from_secs(60), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let out = simulate_fresh(&streams, &config, &mut manager);
        assert_eq!(out.global.hits(), 1);
        // Off interval = 59 s − 13 s = 46 s; energy must reflect a
        // 13−1−service ≈ 12 s spinning prefix. Compare with a no-fork
        // run: its shutdown at 11 s spins ~2 s less.
        let no_fork = outcome(run_with_gaps(&[1.0], 60.0), PowerManagerKind::Timeout);
        assert!(out.energy.idle_long.0 > no_fork.energy.idle_long.0 + 1.0);
    }

    #[test]
    fn exit_during_gap_unblocks_shutdown() {
        // A helper performs the last I/O then exits mid-gap; after its
        // exit only the root's vote matters.
        let mut b = TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(100), Pid(1), Pid(2));
        b.io(
            SimTime::from_secs(1),
            Pid(1),
            Pc(0x1),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.io(
            SimTime::from_secs(2),
            Pid(2),
            Pc(0x2),
            IoKind::Read,
            Fd(3),
            FileId(1),
            4096,
            4096,
        );
        // Helper exits at 5 s; root stays idle until 60 s.
        b.exit(SimTime::from_secs(5), Pid(2));
        b.exit(SimTime::from_secs(60), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let out = simulate_fresh(&streams, &config, &mut manager);
        // Shutdown at max(root: 1 s + 10 s, helper: gone) = 11 s.
        assert_eq!(out.global.hits(), 1);
    }

    #[test]
    fn evaluate_app_aggregates_runs() {
        let mut trace = ApplicationTrace::new("test");
        for _ in 0..3 {
            trace.runs.push(run_with_gaps(&[1.0, 1.2], 31.0));
        }
        let report = evaluate_app(&trace, &SimConfig::paper(), PowerManagerKind::PCAP);
        assert_eq!(&*report.app, "test");
        assert_eq!(report.manager, "PCAP");
        assert_eq!(report.global.opportunities, 3);
        // Run 1 trains (backup hit), runs 2–3 predict (primary hits).
        assert_eq!(report.global.hit_backup, 1);
        assert_eq!(report.global.hit_primary, 2);
        assert!(report.table_entries.unwrap() >= 1);
        assert!(report.savings() > 0.0);
    }

    #[test]
    fn report_app_shares_trace_allocation() {
        let mut trace = ApplicationTrace::new("shared");
        trace.runs.push(run_with_gaps(&[1.0], 31.0));
        let report = evaluate_app(&trace, &SimConfig::paper(), PowerManagerKind::Timeout);
        assert!(std::sync::Arc::ptr_eq(&trace.app, &report.app));
    }

    #[test]
    fn decision_stream_matches_counts() {
        let run = run_with_gaps(&[1.0, 21.0, 29.0], 41.0);
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let mut collector = AuditCollector::new();
        let out = simulate_run_observed(
            &streams,
            &config,
            &mut manager,
            &mut EngineScratch::new(),
            &mut collector,
        );
        let log = collector.records();
        assert_eq!(log.len(), streams.accesses.len());
        let count = |verdict| log.iter().filter(|g| g.verdict == verdict).count() as u64;
        assert_eq!(count(GapVerdict::Hit), out.global.hits());
        assert_eq!(count(GapVerdict::Miss), out.global.misses());
        assert_eq!(count(GapVerdict::NotPredicted), out.global.not_predicted);
        // The hit gap carries its shutdown instant and source.
        let hit = log.iter().find(|g| g.verdict == GapVerdict::Hit).unwrap();
        let at = hit.shutdown_at.expect("hit has a shutdown");
        assert_eq!(hit.shutdown_source, Some(VoteSource::Primary));
        assert!(at > hit.at);
    }

    #[test]
    fn kernel_writeback_after_helper_exit_routes_to_root() {
        // A helper dirties a page and exits; the flush daemon writes it
        // back ~30 s later, attributed to the (dead) helper pid. The
        // simulator must route that access to the application root
        // rather than panic or drop it.
        let mut b = pcap_trace::TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(10), Pid(1), Pid(2));
        b.io(
            SimTime::from_secs(1),
            Pid(2),
            Pc(0x2),
            IoKind::Write,
            Fd(4),
            FileId(9),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(2), Pid(2));
        // Root stays alive; its read at 120 s advances the cache clock
        // past the write-back expiry.
        b.io(
            SimTime::from_secs(120),
            Pid(1),
            Pc(0x1),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(150), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        // The write-back exists and lands after the helper's exit.
        let flush = streams
            .accesses
            .iter()
            .find(|a| a.is_kernel())
            .expect("flush access present");
        assert!(flush.time > SimTime::from_secs(2));
        assert_eq!(flush.pid, Pid(2), "attributed to the dirtier");
        // And the simulation completes with consistent counts.
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        let out = simulate_fresh(&streams, &config, &mut manager);
        assert!(out.global.opportunities >= 2);
        assert!(out.base_energy.total().0 > 0.0);
    }

    #[test]
    fn multistate_pcap_saves_at_least_as_much_as_pcap() {
        let mut trace = ApplicationTrace::new("ms");
        for _ in 0..4 {
            trace.runs.push(run_with_gaps(&[1.0, 1.2, 1.4], 61.4));
        }
        let config = SimConfig::paper();
        let plain = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
        let multi = evaluate_app(&trace, &config, PowerManagerKind::MultiStatePcap);
        // Identical predictions (same PCAP underneath)...
        assert_eq!(plain.global, multi.global);
        // ...but the shallow wait-window state saves extra energy.
        assert!(
            multi.energy.total().0 < plain.energy.total().0,
            "{} vs {}",
            multi.energy.total(),
            plain.energy.total()
        );
    }

    #[test]
    fn wait_window_filters_subwindow_gaps() {
        // A trained PCAP whose path recurs followed by an immediate
        // access (0.5 s < wait-window): the prediction is cancelled, no
        // miss recorded.
        let config = SimConfig::paper();
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        // Train: single access then long gap.
        let train = run_with_gaps(&[1.0], 31.0);
        let streams = RunStreams::build(&train, &config);
        simulate_fresh(&streams, &config, &mut manager);
        manager.on_run_end();
        // Replay: the same PC, but the next access comes 0.5 s later.
        let replay = run_with_gaps(&[1.0, 1.5], 3.0);
        let streams = RunStreams::build(&replay, &config);
        let out = simulate_fresh(&streams, &config, &mut manager);
        assert_eq!(out.global.misses(), 0, "wait-window must filter");
    }

    /// Five reads with 20 s and 30 s gaps, then a 40 s terminal gap.
    fn trace_with_gaps(runs: usize) -> ApplicationTrace {
        let mut trace = ApplicationTrace::new("ms-test");
        for r in 0..runs {
            let mut b = TraceRunBuilder::new(Pid(1));
            for (i, t) in [1.0, 1.2, 21.2, 22.0, 52.0].iter().enumerate() {
                b.io(
                    SimTime::from_secs_f64(t + r as f64 * 0.01),
                    Pid(1),
                    Pc(0x100 + (i as u32 % 3) * 0x10),
                    IoKind::Read,
                    Fd(3),
                    FileId(1),
                    (i as u64) * 4096,
                    4096,
                );
            }
            b.exit(SimTime::from_secs_f64(92.0), Pid(1));
            trace.runs.push(b.finish().unwrap());
        }
        trace
    }

    /// [`evaluate`] through the ladder charger, unobserved.
    fn ladder_eval(
        prepared: &PreparedTrace,
        config: &SimConfig,
        kind: PowerManagerKind,
        ladder: &MultiStateParams,
        policy: &dyn LadderPolicy,
    ) -> (AppReport, LadderStats) {
        let (report, stats) = evaluate(
            prepared,
            config,
            kind,
            Some((ladder, policy)),
            &mut NullObserver,
            &NullPipeline,
        );
        (
            report,
            stats.expect("a ladder evaluation returns its stats"),
        )
    }

    /// Gap energy: the part a descent policy can influence.
    fn gap(report: &AppReport) -> f64 {
        report.energy.total().0 - report.energy.busy.0
    }

    #[test]
    fn single_state_ladder_is_bitwise_identical_to_the_two_state_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::from_disk(&config.disk);
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::Oracle,
            PowerManagerKind::PCAP,
            PowerManagerKind::LT,
            PowerManagerKind::MultiStatePcap,
        ] {
            let legacy = evaluate_prepared(&prepared, &config, kind);
            let (multi, _) = ladder_eval(&prepared, &config, kind, &ladder, &PredictiveJump);
            let a = serde_json::to_string(&legacy).unwrap();
            let b = serde_json::to_string(&multi).unwrap();
            assert_eq!(a, b, "kind {kind:?} diverged");
        }
    }

    #[test]
    fn two_state_evaluation_returns_no_ladder_stats() {
        let config = SimConfig::paper();
        let prepared = PreparedTrace::build(&trace_with_gaps(1), &config);
        let (report, stats) = evaluate(
            &prepared,
            &config,
            PowerManagerKind::PCAP,
            None,
            &mut NullObserver,
            &NullPipeline,
        );
        assert_eq!(
            report,
            evaluate_prepared(&prepared, &config, PowerManagerKind::PCAP)
        );
        assert!(stats.is_none());
    }

    #[test]
    fn ladder_stats_account_every_gap() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(2);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let (_, stats) = ladder_eval(&prepared, &config, PowerManagerKind::PCAP, &ladder, &ski);
        let accesses: usize = prepared.streams().iter().map(|s| s.accesses.len()).sum();
        assert_eq!(stats.total_gaps(), accesses as u64);
        // The 20 s and 30 s gaps descend past the first rung.
        assert!(stats.bottom_counts.iter().sum::<u64>() > 0);
    }

    #[test]
    fn lambda_one_is_bitwise_ski_rental_through_the_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let one = LambdaLadder::new(&ladder, 1.0);
        for kind in [
            PowerManagerKind::PCAP,
            PowerManagerKind::Timeout,
            PowerManagerKind::MultiStatePcap,
        ] {
            let a = ladder_eval(&prepared, &config, kind, &ladder, &ski);
            let b = ladder_eval(&prepared, &config, kind, &ladder, &one);
            assert_eq!(
                serde_json::to_string(&a.0).unwrap(),
                serde_json::to_string(&b.0).unwrap(),
                "λ=1 diverged from ski-rental under {kind:?}"
            );
            assert_eq!(a.1.bottom_counts, b.1.bottom_counts);
            assert_eq!(a.1.idle_gaps, b.1.idle_gaps);
        }
    }

    #[test]
    fn lambda_ratio_respects_the_envelope_even_under_injected_errors() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(4);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let kind = PowerManagerKind::PCAP;
        let (oracle, _) = ladder_eval(&prepared, &config, kind, &ladder, &OracleLadder);
        let opt = gap(&oracle);
        for lambda in [0.0, 0.5, 1.0] {
            let policy = LambdaLadder::new(&ladder, lambda);
            let bound = lambda_bounds(&ladder, lambda).robustness;
            for rate in [0.0, 0.5, 1.0] {
                let noisy = NoisyVotes::new(&policy, rate, 0xC0FFEE);
                let (out, _) = ladder_eval(&prepared, &config, kind, &ladder, &noisy);
                let ratio = gap(&out) / opt;
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "λ={lambda} e={rate}: beat the clairvoyant oracle"
                );
                assert!(
                    ratio <= bound * (1.0 + 1e-9),
                    "λ={lambda} e={rate}: ratio {ratio} exceeds robustness {bound}"
                );
            }
        }
    }

    #[test]
    fn noisy_votes_evaluate_deterministically_through_the_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let policy = LambdaLadder::new(&ladder, 0.5);
        let kind = PowerManagerKind::PCAP;
        let eval = |seed: u64, rate: f64| {
            let noisy = NoisyVotes::new(&policy, rate, seed);
            let (out, _) = ladder_eval(&prepared, &config, kind, &ladder, &noisy);
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(eval(9, 0.5), eval(9, 0.5), "same seed must replay bitwise");
        // Rate 0 is transparent: bitwise the bare policy, any seed.
        let (bare, _) = ladder_eval(&prepared, &config, kind, &ladder, &policy);
        assert_eq!(eval(1, 0.0), serde_json::to_string(&bare).unwrap());
    }

    #[test]
    fn oracle_policy_never_costs_more_than_predictive_or_ski() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let kind = PowerManagerKind::PCAP;
        let (oracle, _) = ladder_eval(&prepared, &config, kind, &ladder, &OracleLadder);
        let (pred, _) = ladder_eval(&prepared, &config, kind, &ladder, &PredictiveJump);
        let (rental, _) = ladder_eval(&prepared, &config, kind, &ladder, &ski);
        assert!(gap(&oracle) <= gap(&pred) + 1e-9);
        assert!(gap(&oracle) <= gap(&rental) + 1e-9);
    }

    #[test]
    fn audit_multistate_reconciles_and_aligns_bottom_outs() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(2);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let kind = PowerManagerKind::PCAP;
        let mut collector = AuditCollector::new();
        let (report, stats) = evaluate(
            &prepared,
            &config,
            kind,
            Some((&ladder, &PredictiveJump)),
            &mut collector,
            &NullPipeline,
        );
        let stats = stats.expect("ladder stats");
        let audit = collector.finish(report);
        assert_eq!(audit.ladder_bottoms.len(), audit.records.len());
        assert_eq!(
            stats.total_gaps(),
            audit.ladder_bottoms.len() as u64,
            "stats cover every audited decision"
        );
        let (plain, plain_stats) = ladder_eval(&prepared, &config, kind, &ladder, &PredictiveJump);
        assert_eq!(audit.report, plain, "observer must not perturb");
        assert_eq!(audit.audit_energy.energy, plain.energy);
        assert_eq!(audit.audit_energy.base_energy, plain.base_energy);
        assert_eq!(stats, plain_stats);
    }
}

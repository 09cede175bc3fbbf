//! `fleet`: streaming evaluation of a jittered device population under
//! PCAP, runs capped at `QUICK_RUNS`, on one worker — what
//! `pcap sweep --devices N --quick` users wait on.
//!
//! Unlike `paper`, most of the time goes to trace generation and cache
//! filtering, and the engine runs a recycled `StreamWorker` with a
//! predictor pool and small tables. The untraced pass runs
//! `StreamWorker::evaluate_device` (`sweep_fleet`'s per-device step)
//! through the worker's public per-run steps, so each run is timed on
//! its own. The traced pass replays the same per-run sequence through
//! each layer's own call — `generate_run`, `RunStreams::rebuild`,
//! `simulate_run_observed`, `Manager::table_entries` — inside spans.
//! Every pass must fold to the same fleet aggregate, the first devices
//! must fold to what `sweep_fleet` reports for them, and cohort 0 must
//! equal the prepare-once `evaluate_prepared` reports.

use crate::trace::{self, Tracer};
use crate::{coverage, layer_allocs, layer_s, measure, median_items, Options, Outcome};
use pcap_cache::FileCache;
use pcap_report::profiling::QUICK_RUNS;
use pcap_sim::{
    evaluate_prepared, prepare_call_count, simulate_run_observed, sweep_fleet, DeviceOutcome,
    EnergyBreakdown, EngineScratch, FleetSlot, Manager, NullObserver, PowerManagerKind,
    PredictionCounts, PreparedTrace, RunOutcome, RunStreams, SimConfig, StreamWorker, SweepRunner,
};
use pcap_trace::ApplicationTrace;
use pcap_workload::population::APPS_PER_COHORT;
use pcap_workload::DevicePopulation;
use std::time::Instant;

/// Devices per pass: enough that the 95th-percentile device has ten
/// beyond it.
pub const DEVICES: u64 = trace::P95_MIN_SAMPLES as u64;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Passes per untraced run: each run's time is its median over these.
const MIN_PASSES: usize = 3;

/// Devices checked against `sweep_fleet` in every run.
const SWEEP_CHECK: u64 = 12;

const KIND: PowerManagerKind = PowerManagerKind::PCAP;

/// The per-layer state of a `StreamWorker`, held by the benchmark so
/// that each layer call can be timed on its own.
struct Layered {
    config: SimConfig,
    manager: Manager,
    cache: FileCache,
    streams: RunStreams,
    scratch: EngineScratch,
}

/// What a traced pass counted, for normalizing layer times.
#[derive(Default, Clone, Copy)]
struct Counts {
    runs: u64,
    events: u64,
    ios: u64,
    accesses: u64,
    stream_builds: u64,
    table_entries: u64,
    devices: u64,
}

impl Layered {
    fn new(config: &SimConfig) -> Layered {
        let mut scratch = EngineScratch::new();
        if KIND.recyclable_predictors() {
            scratch.enable_predictor_pool();
        }
        Layered {
            config: config.clone(),
            manager: KIND.manager(config),
            cache: FileCache::new(config.cache.clone()),
            streams: RunStreams::empty(),
            scratch,
        }
    }

    /// `StreamWorker::evaluate_device`, one span per layer call.
    fn device(
        &mut self,
        pop: &DevicePopulation,
        device: u64,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> DeviceOutcome {
        tracer.span("core", || self.manager.reset_shared());
        let runs = pop.runs(device).min(QUICK_RUNS);
        let mut out = empty_outcome(device);
        for run in 0..runs {
            let trace_run = tracer
                .span("generate", || pop.generate_run(device, run))
                .expect("fleet runs generate");
            let (streams, cache, config) = (&mut self.streams, &mut self.cache, &self.config);
            tracer.span("filter", || streams.rebuild(&trace_run, config, cache));
            let (manager, scratch) = (&mut self.manager, &mut self.scratch);
            let outcome = tracer.span("engine", || {
                let outcome =
                    simulate_run_observed(streams, config, manager, scratch, &mut NullObserver);
                manager.on_run_end();
                outcome
            });
            absorb(&mut out, &outcome, self.streams.accesses.len());
            counts.runs += 1;
            counts.events += trace_run.events.len() as u64;
            counts.ios += trace_run.io_count() as u64;
            counts.accesses += self.streams.accesses.len() as u64;
        }
        let manager = &self.manager;
        let (entries, aliases) = tracer.span("core", || {
            (manager.table_entries(), manager.table_aliases())
        });
        out.table_entries = entries;
        out.table_aliases = aliases;
        counts.table_entries += entries.unwrap_or(0) as u64;
        counts.devices += 1;
        out
    }
}

/// `StreamWorker::evaluate_device` through the worker's public per-run
/// steps, timing each run (generation plus evaluation) into `run_s`.
fn streamed_device(
    worker: &mut StreamWorker,
    pop: &DevicePopulation,
    device: u64,
    run_s: &mut Vec<f64>,
) -> DeviceOutcome {
    worker.begin_device();
    let mut out = empty_outcome(device);
    for run in 0..pop.runs(device).min(QUICK_RUNS) {
        let t = Instant::now();
        let trace_run = pop.generate_run(device, run).expect("fleet runs generate");
        let outcome = worker.evaluate_run(&trace_run);
        run_s.push(t.elapsed().as_secs_f64());
        absorb(&mut out, &outcome, worker.last_run_accesses());
    }
    (out.table_entries, out.table_aliases) = worker.finish_device();
    out
}

fn empty_outcome(device: u64) -> DeviceOutcome {
    DeviceOutcome {
        device,
        runs: 0,
        accesses: 0,
        local: PredictionCounts::default(),
        global: PredictionCounts::default(),
        energy: EnergyBreakdown::default(),
        base_energy: EnergyBreakdown::default(),
        table_entries: None,
        table_aliases: None,
    }
}

/// Adds one run to a device, in `StreamWorker::evaluate_device`'s order.
fn absorb(out: &mut DeviceOutcome, run: &RunOutcome, accesses: usize) {
    out.local += run.local;
    out.global += run.global;
    out.energy += run.energy;
    out.base_energy += run.base_energy;
    out.runs += 1;
    out.accesses += accesses as u64;
}

/// Folds device outcomes the way `sweep_fleet` does inside one chunk.
fn fold(slots: &mut [FleetSlot; 6], outcome: &DeviceOutcome) {
    slots[(outcome.device % APPS_PER_COHORT) as usize].absorb(outcome);
}

fn total(slots: &[FleetSlot; 6]) -> FleetSlot {
    let mut total = FleetSlot::default();
    for slot in slots {
        total.merge(slot);
    }
    total
}

/// Serialized form, so `-0.0` and `0.0` differ as they do in output.
fn bytes_of(slot: &FleetSlot) -> String {
    serde_json::to_string(slot).expect("slots serialize")
}

/// Cohort 0 streamed through `worker` must equal the prepare-once
/// reports of the same runs.
fn check_cohort0(pop: &DevicePopulation, warm: &[DeviceOutcome], outcome: &mut Outcome) {
    let config = SimConfig::paper();
    for streamed in warm {
        let device = pop.device(streamed.device);
        let mut app_trace = ApplicationTrace::new(device.app.name());
        for run in 0..pop.runs(device.index).min(QUICK_RUNS) {
            app_trace
                .runs
                .push(pop.generate_run(device.index, run).expect("runs generate"));
        }
        let prepared = PreparedTrace::build(&app_trace, &config);
        let reference = evaluate_prepared(&prepared, &config, KIND);
        let streamed = streamed.as_report(device.app.name(), KIND);
        if serde_json::to_string(&reference).ok() != serde_json::to_string(&streamed).ok() {
            outcome.fail(
                1,
                format!(
                    "fleet: device {} differs from evaluate_prepared",
                    device.index
                ),
            );
        }
    }
}

/// Runs the `fleet` workload.
pub fn run(options: &Options) -> Outcome {
    let config = SimConfig::paper();
    let devices = options.size.unwrap_or(DEVICES).max(APPS_PER_COHORT);
    let mut outcome = Outcome::default();

    // Set-up: the population, a worker, and a warm-up over cohort 0 so
    // every buffer has reached its steady-state size before timing.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let pop = DevicePopulation::new(devices, options.seed);
        let mut worker = StreamWorker::new(&config, KIND);
        let warm: Vec<DeviceOutcome> = (0..APPS_PER_COHORT)
            .map(|d| {
                worker
                    .evaluate_device(&pop, d, Some(QUICK_RUNS))
                    .expect("cohort 0 generates")
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((pop, worker, warm));
    }
    let (pop, mut worker, warm) = ready.expect("at least one set-up");
    check_cohort0(&pop, &warm, &mut outcome);
    // `sweep_fleet` over the first devices is the reference for the
    // benchmark's own loop; every later pass must repeat the first.
    let head = DevicePopulation::new(devices.min(SWEEP_CHECK), options.seed);
    let reference = sweep_fleet(&head, &config, KIND, &SweepRunner::new(1), Some(QUICK_RUNS))
        .expect("fleet generates");
    let mut head_slots = None;

    let mut layered = Layered::new(&config);
    if options.trace {
        let mut scratch = Counts::default();
        for d in 0..APPS_PER_COHORT {
            layered.device(&pop, d, &mut Tracer::new(false), &mut scratch);
        }
    }
    let mut run_s: Vec<Vec<f64>> = Vec::new();
    let mut counts = Counts::default();
    let mut totals = Vec::new();
    let passes = measure(options, MIN_PASSES, |tracer, _| {
        let mut slots = <[FleetSlot; 6]>::default();
        let builds = prepare_call_count();
        let t = Instant::now();
        if tracer.enabled() {
            for d in 0..devices {
                let out = layered.device(&pop, d, tracer, &mut counts);
                fold(&mut slots, &out);
            }
        } else {
            let mut times = Vec::new();
            for d in 0..devices {
                let out = streamed_device(&mut worker, &pop, d, &mut times);
                fold(&mut slots, &out);
                if d + 1 == SWEEP_CHECK.min(devices) && head_slots.is_none() {
                    head_slots = Some(total(&slots));
                }
            }
            run_s.push(times);
        }
        let wall = t.elapsed().as_secs_f64();
        if tracer.enabled() {
            counts.stream_builds += prepare_call_count() - builds;
        }
        totals.push(bytes_of(&total(&slots)));
        wall
    });
    outcome.attempted = totals.len() as u64 * devices;
    if head_slots.as_ref().map(bytes_of) != Some(bytes_of(&reference.total)) {
        outcome.fail(
            SWEEP_CHECK,
            "fleet: first devices differ from sweep_fleet".into(),
        );
    }
    for (k, got) in totals.iter().enumerate() {
        if *got != totals[0] {
            outcome.fail(
                devices,
                format!("fleet: pass {k} aggregate differs from pass 0"),
            );
        }
    }

    if options.trace {
        let traced = passes.traced.len() as f64;
        let per = |layer: &str, n: u64| layer_s(&passes.tracer, layer) * 1e9 / n as f64;
        let allocs = |layer: &str, n: u64| layer_allocs(&passes.tracer, layer) as f64 / n as f64;
        let l = &mut outcome.layers;
        l.insert(
            "workload.generate_ns_per_event".into(),
            per("generate", counts.events),
        );
        l.insert("workload.events".into(), counts.events as f64 / traced);
        l.insert(
            "workload.allocs_per_run".into(),
            allocs("generate", counts.runs),
        );
        l.insert("cache.filter_ns_per_io".into(), per("filter", counts.ios));
        l.insert(
            "cache.accesses_per_io".into(),
            counts.accesses as f64 / counts.ios as f64,
        );
        l.insert("cache.allocs_per_run".into(), allocs("filter", counts.runs));
        l.insert(
            "sim.stream_builds".into(),
            counts.stream_builds as f64 / traced,
        );
        l.insert(
            "sim.eval_ns_per_access".into(),
            per("engine", counts.accesses),
        );
        l.insert("sim.decisions".into(), counts.accesses as f64 / traced);
        l.insert(
            "sim.eval_allocs_per_run".into(),
            allocs("engine", counts.runs),
        );
        l.insert(
            "core.table_entries_mean".into(),
            counts.table_entries as f64 / counts.devices as f64,
        );
        coverage(&mut outcome, &passes);
        outcome.tracer = Some(passes.tracer);
    } else {
        // A device's latency is the sum of its runs' median times.
        let typical = median_items(&run_s);
        let mut device_ms = Vec::with_capacity(devices as usize);
        let mut k = 0;
        for d in 0..devices {
            let runs = pop.runs(d).min(QUICK_RUNS);
            device_ms.push(typical[k..k + runs].iter().sum::<f64>() * 1e3);
            k += runs;
        }
        let pass_s = device_ms.iter().sum::<f64>() / 1e3;
        outcome.set_end_to_end(passes.scale, &setup_s, pass_s, devices, &device_ms);
    }
    outcome
}

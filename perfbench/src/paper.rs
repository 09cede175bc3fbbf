//! `paper`: the full 79-file seed snapshot on one worker — what
//! `pcap all` and `pcap verify` users wait on.
//!
//! Each pass generates the six application traces (the set-up), then
//! prepares every trace, evaluates the 6 apps × `GRID_KINDS` grid, and
//! renders the snapshot through the program's own
//! `pcap_report::snapshot_files_observed`: every report, every
//! `Experiment::ALL` table and the audit section. A benchmark-side
//! observer stamps the end of each file. At the golden seed the files
//! must match `golden/` byte for byte; at any seed every pass, traced
//! or not, must produce the same digest.

use crate::trace::{self, Open, Tracer, FNV_BASIS};
use crate::{coverage, layer_allocs, layer_s, measure, Calibration, Options, Outcome};
use pcap_obs::PipelineObserver;
use pcap_report::{snapshot_files_observed, Experiment, Workbench, GOLDEN_SEED, GRID_KINDS};
use pcap_sim::{prepare_call_count, SimConfig};
use pcap_trace::ApplicationTrace;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The golden snapshot the `paper` workload is checked against at
/// seed 42.
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../golden");

/// Set-ups timed before the passes; every untraced pass adds one more.
/// `setup_s` is the median of them all.
const SETUPS: usize = 3;

/// Passes per untraced run, at least.
const MIN_PASSES: usize = 3;

/// Generates the workload's traces with one job inside a `generate`
/// span, returning the workbench and the seconds it took.
fn generate(seed: u64, config: &SimConfig, tracer: &mut Tracer) -> (Workbench, f64) {
    let t = Instant::now();
    let bench = tracer
        .span("generate", || {
            Workbench::generate_par(seed, config.clone(), 1)
        })
        .expect("paper traces generate");
    (bench, t.elapsed().as_secs_f64())
}

/// The layer a snapshot file is attributed to: `reports`, the
/// experiment's name, or `audit`.
fn layer_of(path: &str) -> &'static str {
    if path.starts_with("reports/") {
        return "reports";
    }
    if path.starts_with("audit/") {
        return "audit";
    }
    Experiment::ALL
        .into_iter()
        .map(Experiment::name)
        .find(|name| path.strip_prefix("tables/") == Some(&format!("{name}.csv")))
        .unwrap_or("render")
}

/// Observer on `snapshot_files_observed` that times every file it
/// renders. A file's item runs from the end of the previous file (or
/// the start of the snapshot) to the end of its own `render:{path}`
/// span, so the audit run the program makes before each audit file
/// counts towards that file. With an enabled tracer every item is also
/// a span of its layer. Calibrations run between items, outside them.
struct FileClock<'a> {
    state: Mutex<ClockState<'a>>,
}

struct ClockState<'a> {
    tracer: &'a mut Tracer,
    calibration: &'a mut Calibration,
    last: Instant,
    open: Option<Open>,
    item_s: Vec<f64>,
}

impl<'a> FileClock<'a> {
    fn new(tracer: &'a mut Tracer, calibration: &'a mut Calibration) -> FileClock<'a> {
        FileClock {
            state: Mutex::new(ClockState {
                tracer,
                calibration,
                last: Instant::now(),
                open: None,
                item_s: Vec::new(),
            }),
        }
    }

    fn item_s(self) -> Vec<f64> {
        self.state.into_inner().expect("clock lock").item_s
    }
}

impl PipelineObserver for FileClock<'_> {
    fn span_begin(&self, name: &str) {
        let s = &mut *self.state.lock().expect("clock lock");
        let path = name.strip_prefix("render:").unwrap_or(name);
        s.open = Some(s.tracer.begin_at(layer_of(path), s.last));
    }

    fn span_end(&self, _name: &str) {
        let s = &mut *self.state.lock().expect("clock lock");
        if let Some(open) = s.open.take() {
            s.tracer.end(open);
        }
        s.item_s.push(s.last.elapsed().as_secs_f64());
        s.calibration.tick();
        s.last = Instant::now();
    }
}

/// One pass's rendered files and the time of every item of the pass
/// (each prepare, the grid, each file) in a fixed order.
struct Pass {
    files: Vec<(String, String)>,
    item_s: Vec<f64>,
    stream_builds: u64,
}

/// Prepares, warms the grid and renders the snapshot for `bench`, with
/// one span per layer call when `tracer` is enabled.
fn run_pass(bench: &Workbench, tracer: &mut Tracer, calibration: &mut Calibration) -> Pass {
    let mut item_s = Vec::new();
    let builds = prepare_call_count();
    for i in 0..bench.traces().len() {
        let t = Instant::now();
        tracer.span("prepare", || {
            bench.prepared(i);
        });
        item_s.push(t.elapsed().as_secs_f64());
        calibration.tick();
    }
    let stream_builds = prepare_call_count() - builds;
    let t = Instant::now();
    tracer.span("grid", || bench.warm_up(&GRID_KINDS, 1));
    item_s.push(t.elapsed().as_secs_f64());
    calibration.tick();
    let clock = FileClock::new(tracer, calibration);
    let files = snapshot_files_observed(bench, &clock);
    item_s.extend(clock.item_s());
    Pass {
        files,
        item_s,
        stream_builds,
    }
}

fn digest(files: &[(String, String)]) -> u64 {
    files.iter().fold(FNV_BASIS, |h, (path, body)| {
        trace::fnv1a(trace::fnv1a(h, path.as_bytes()), body.as_bytes())
    })
}

/// Compares `files` with the golden directory: same file set, same
/// bytes. Returns the number of files that differ, are missing or are
/// unexpected, with a line for each.
fn golden_drift(files: &[(String, String)], dir: &Path, errors: &mut Vec<String>) -> u64 {
    let mut bad = 0;
    for (rel, body) in files {
        match std::fs::read_to_string(dir.join(rel)) {
            Ok(golden) if golden == *body => {}
            Ok(_) => {
                bad += 1;
                errors.push(format!("paper: {rel} differs from golden"));
            }
            Err(e) => {
                bad += 1;
                errors.push(format!("paper: golden {rel}: {e}"));
            }
        }
    }
    for sub in ["reports", "tables", "audit"] {
        let entries = match std::fs::read_dir(dir.join(sub)) {
            Ok(entries) => entries,
            Err(e) => {
                bad += 1;
                errors.push(format!("paper: golden {sub}/: {e}"));
                continue;
            }
        };
        for entry in entries.flatten() {
            let rel = format!("{sub}/{}", entry.file_name().to_string_lossy());
            if !files.iter().any(|(path, _)| *path == rel) {
                bad += 1;
                errors.push(format!("paper: golden {rel} is no longer produced"));
            }
        }
    }
    bad
}

/// Runs the `paper` workload.
pub fn run(options: &Options) -> Outcome {
    let config = SimConfig::paper();
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut gen = Tracer::new(options.trace);
    let mut bench = None;
    for _ in 0..SETUPS {
        trace::arm_allocs(options.trace);
        let (b, s) = generate(options.seed, &config, &mut gen);
        trace::arm_allocs(false);
        setup_s.push(s);
        bench = Some(b);
    }
    let traces = bench.expect("set-up ran").traces().to_vec();

    let mut digests = Vec::new();
    let mut item_s = Vec::new();
    let mut stream_builds = Vec::new();
    let mut first: Option<Vec<(String, String)>> = None;
    let mut grid_stats = None;
    let passes = measure(options, MIN_PASSES, |tracer, calibration| {
        // A fresh workbench per pass, so every pass prepares and
        // evaluates from scratch; its generation is one more set-up.
        let (bench, s) = generate(options.seed, &config, &mut Tracer::new(false));
        let (t, spent) = (Instant::now(), calibration.spent_s());
        let pass = run_pass(&bench, tracer, calibration);
        let wall = t.elapsed().as_secs_f64() - (calibration.spent_s() - spent);
        digests.push(digest(&pass.files));
        if tracer.enabled() {
            stream_builds.push(pass.stream_builds);
            grid_stats.get_or_insert_with(|| grid_counts(&bench));
        } else {
            setup_s.push(s);
            item_s.push(pass.item_s);
        }
        first.get_or_insert(pass.files);
        wall
    });
    let files = first.expect("at least one pass");
    let pass_count = digests.len() as u64;
    outcome.attempted = pass_count * files.len() as u64;
    if options.seed == GOLDEN_SEED {
        let bad = golden_drift(&files, Path::new(GOLDEN_DIR), &mut outcome.errors);
        outcome.failed += bad * pass_count;
    }
    if let Some(k) = digests.iter().position(|d| *d != digests[0]) {
        outcome.fail(
            files.len() as u64,
            format!(
                "paper: pass {k} digest {:016x} != pass 0 {:016x}",
                digests[k], digests[0]
            ),
        );
    }

    if options.trace {
        let grid = grid_stats.expect("traced pass ran");
        paper_layers(
            &mut outcome,
            &gen,
            &passes.tracer,
            &passes.traced,
            &traces,
            &stream_builds,
            &grid,
        );
        coverage(&mut outcome, &passes);
        outcome.tracer = Some(passes.tracer);
    } else {
        // One pass built from each item's mean time; a file is ready
        // when every item before it, and its own, has run. Other tenants
        // of a shared host slow whole passes by amounts that change from
        // pass to pass; ten runs spread less with the mean than with the
        // per-item median or minimum (README.md, "Noise").
        let items = item_s.iter().map(Vec::len).min().unwrap_or(0);
        let mut elapsed = 0.0;
        let ready_ms: Vec<f64> = (0..items)
            .map(|i| {
                elapsed += item_s.iter().map(|pass| pass[i]).sum::<f64>() / item_s.len() as f64;
                elapsed * 1e3
            })
            .collect();
        let files_ready = &ready_ms[ready_ms.len().saturating_sub(files.len())..];
        outcome.set_end_to_end(
            passes.scale,
            &setup_s,
            elapsed,
            files.len() as u64,
            files_ready,
        );
    }
    outcome
}

/// Counts the per-layer rates of the grid are normalized by.
struct GridCounts {
    runs: u64,
    ios: u64,
    accesses: u64,
    table_entries_mean: f64,
}

fn grid_counts(bench: &Workbench) -> GridCounts {
    let mut counts = GridCounts {
        runs: 0,
        ios: 0,
        accesses: 0,
        table_entries_mean: 0.0,
    };
    let mut tables = Vec::new();
    for i in 0..bench.traces().len() {
        let prepared = bench.prepared(i);
        counts.runs += prepared.len() as u64;
        counts.ios += prepared.total_ios() as u64;
        counts.accesses += prepared
            .streams()
            .iter()
            .map(|s| s.accesses.len() as u64)
            .sum::<u64>();
        for kind in GRID_KINDS {
            if let Some(entries) = bench.report(i, kind).table_entries {
                tables.push(entries as f64);
            }
        }
    }
    counts.table_entries_mean = tables.iter().sum::<f64>() / tables.len().max(1) as f64;
    counts
}

fn paper_layers(
    outcome: &mut Outcome,
    gen: &Tracer,
    tracer: &Tracer,
    traced: &[f64],
    traces: &[ApplicationTrace],
    stream_builds: &[u64],
    grid: &GridCounts,
) {
    let passes = traced.len() as f64;
    let setups = SETUPS as f64;
    let events: u64 = traces
        .iter()
        .flat_map(|t| &t.runs)
        .map(|r| r.events.len() as u64)
        .sum();
    let runs: u64 = traces.iter().map(|t| t.runs.len() as u64).sum();
    let cells = GRID_KINDS.len() as f64;
    let l = &mut outcome.layers;
    let gen_s = layer_s(gen, "generate");
    l.insert(
        "workload.generate_ns_per_event".into(),
        gen_s * 1e9 / (events as f64 * setups),
    );
    l.insert("workload.events".into(), events as f64);
    l.insert(
        "workload.allocs_per_run".into(),
        layer_allocs(gen, "generate") as f64 / (runs as f64 * setups),
    );
    let prepare_s = layer_s(tracer, "prepare");
    l.insert("sim.prepare_s".into(), prepare_s / passes);
    l.insert(
        "cache.filter_ns_per_io".into(),
        prepare_s * 1e9 / (grid.ios as f64 * passes),
    );
    l.insert(
        "cache.accesses_per_io".into(),
        grid.accesses as f64 / grid.ios as f64,
    );
    l.insert(
        "cache.allocs_per_run".into(),
        layer_allocs(tracer, "prepare") as f64 / (grid.runs as f64 * passes),
    );
    l.insert(
        "sim.stream_builds".into(),
        trace::median(&stream_builds.iter().map(|&b| b as f64).collect::<Vec<_>>()),
    );
    let grid_s = layer_s(tracer, "grid");
    l.insert("sim.grid_eval_s".into(), grid_s / passes);
    l.insert(
        "sim.eval_ns_per_access".into(),
        grid_s * 1e9 / (grid.accesses as f64 * cells * passes),
    );
    l.insert("sim.decisions".into(), grid.accesses as f64 * cells);
    l.insert(
        "sim.eval_allocs_per_run".into(),
        layer_allocs(tracer, "grid") as f64 / (grid.runs as f64 * cells * passes),
    );
    l.insert("core.table_entries_mean".into(), grid.table_entries_mean);
    for experiment in Experiment::ALL {
        l.insert(
            format!("report.{}_s", experiment.name()),
            layer_s(tracer, experiment.name()) / passes,
        );
    }
    l.insert("report.audit_s".into(), layer_s(tracer, "audit") / passes);
    l.insert(
        "report.reports_s".into(),
        layer_s(tracer, "reports") / passes,
    );
}

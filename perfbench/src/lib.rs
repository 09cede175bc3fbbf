//! End-to-end and per-layer benchmark of the PCAP reproduction.
//!
//! One process runs one workload (`paper`, `fleet`, `serve-burst` or
//! `serve-paced`) against the public API of `pcap-workload`,
//! `pcap-sim`, `pcap-report` and `pcap-serve`. An untraced run reports
//! the end-to-end metrics, with times scaled to a reference core speed
//! (see [`Calibration`]); a traced run reports the per-layer metrics
//! from spans the benchmark records around its own calls into each
//! layer. Every run checks the program's outputs. See `README.md`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod fleet;
pub mod paper;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads `BENCHMARK.json` declares, by command-line name.
pub const WORKLOADS: [&str; 2] = ["paper", "serve-burst"];

/// Workloads that run like the others but that `BENCHMARK.json` leaves
/// out: on a shared host their timings move far more than the largest
/// allowed bound (see README.md).
pub const UNGATED: [&str; 2] = ["fleet", "serve-paced"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.generate_ns_per_event", "ns"),
    ("workload.events", "count"),
    ("workload.allocs_per_run", "count"),
    ("cache.filter_ns_per_io", "ns"),
    ("cache.accesses_per_io", "ratio"),
    ("cache.allocs_per_run", "count"),
    ("sim.prepare_s", "s"),
    ("sim.stream_builds", "count"),
    ("sim.grid_eval_s", "s"),
    ("sim.eval_ns_per_access", "ns"),
    ("sim.decisions", "count"),
    ("sim.eval_allocs_per_run", "count"),
    ("core.table_entries_mean", "count"),
    ("report.table1_s", "s"),
    ("report.table2_s", "s"),
    ("report.fig6_s", "s"),
    ("report.fig7_s", "s"),
    ("report.fig8_s", "s"),
    ("report.fig9_s", "s"),
    ("report.fig10_s", "s"),
    ("report.table3_s", "s"),
    ("report.ablations_s", "s"),
    ("report.system_s", "s"),
    ("report.multistate_s", "s"),
    ("report.lambda_s", "s"),
    ("report.audit_s", "s"),
    ("report.reports_s", "s"),
    ("serve.decode_ns_per_frame", "ns"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.eval_us_per_run", "us"),
    ("serve.encode_ns_per_decision", "ns"),
    ("serve.client_write_s", "s"),
    ("serve.client_read_s", "s"),
    ("serve.bytes_in_per_event", "B"),
    ("serve.bytes_out_per_decision", "B"),
    ("serve.gen_late_p95_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// How one process runs its workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Self-test hook: busy-wait this long inside every span of a layer.
    pub inject: Option<(&'static str, Duration)>,
    /// Self-test hook: stall the serve generator once, this long.
    pub stall: Option<Duration>,
    /// Overrides the workload's default size (devices), for tests.
    pub size: Option<u64>,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: files (paper), devices (fleet) or runs
    /// (serve).
    pub attempted: u64,
    /// Operations that failed a check, were rejected or went missing.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// End-to-end metrics except `peak_rss_mb` (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Per-operation latency samples behind `op_p50_ms`/`op_p95_ms`.
    pub op_samples: usize,
    /// `wall_s` before scaling to the reference core speed.
    pub unscaled_wall_s: f64,
    /// The run's core-speed scale.
    pub scale: f64,
    /// The spans of the traced passes.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    /// Records the end-to-end metrics: the median set-up, one pass's
    /// wall time (`pass_s`), the `ops` it completes, and the pooled
    /// per-operation latencies, each time multiplied by the run's
    /// core-speed `scale` (see [`Calibration`]).
    pub fn set_end_to_end(
        &mut self,
        scale: f64,
        setup_s: &[f64],
        pass_s: f64,
        ops: u64,
        op_ms: &[f64],
    ) {
        self.end_to_end
            .insert("setup_s", trace::median(setup_s) * scale);
        self.end_to_end.insert("wall_s", pass_s * scale);
        self.end_to_end
            .insert("ops_per_s", ops as f64 / (pass_s * scale));
        self.end_to_end
            .insert("op_p50_ms", trace::quantile(op_ms, 0.5) * scale);
        self.end_to_end
            .insert("op_p95_ms", trace::quantile(op_ms, 0.95) * scale);
        self.op_samples = op_ms.len();
        self.unscaled_wall_s = pass_s;
        self.scale = scale;
    }
}

/// Time of one calibration (every kernel once) in the quiet phases of
/// the 2-vCPU Xeon VM the bounds were set on, roughly. A scaled second
/// is a second on a core that runs a calibration in this time.
pub const CALIBRATION_S: f64 = 0.016;

/// Table the calibration's lookup kernel reads: 1 MiB, so it lives in
/// the core's own cache.
static LOOKUP: OnceLock<Vec<u32>> = OnceLock::new();

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration's kernels: the kinds of work the workloads do
/// (independent arithmetic, table lookups behind unpredictable
/// branches, number formatting, sorting), written here so that no
/// change to the program can change them. None uses a randomly seeded
/// hash map, whose speed changes from one map to the next.
fn calibration_kernels() -> [fn(); 4] {
    [
        || {
            let mut h = [1u64, 2, 3, 4, 5, 6, 7, 8];
            for i in 0..1_000_000u64 {
                for x in &mut h {
                    *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) ^ (*x >> 29);
                }
            }
            std::hint::black_box(h);
        },
        || {
            let table = LOOKUP.get_or_init(|| {
                (0..1u32 << 18)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect()
            });
            let (mut x, mut acc) = (0x9876_5432u64, 0u64);
            for _ in 0..1_000_000 {
                let v = table[xorshift(&mut x) as usize & (table.len() - 1)];
                if v & 1 == 1 {
                    acc = acc.wrapping_add(u64::from(v) * 3);
                } else {
                    acc ^= u64::from(v);
                }
            }
            std::hint::black_box(acc);
        },
        || {
            let mut s = String::with_capacity(1 << 20);
            for i in 0..20_000 {
                let f = f64::from(i) * 0.37;
                writeln!(s, "{f:.4},{i}").expect("formatting into a String cannot fail");
            }
            std::hint::black_box(s);
        },
        || {
            let mut x = 7u64;
            let mut v: Vec<u64> = (0..100_000).map(|_| xorshift(&mut x)).collect();
            v.sort_unstable();
            std::hint::black_box(v);
        },
    ]
}

/// Calibrations of one run: each runs every kernel once, on this
/// thread, between timed items.
///
/// On a shared host the core's other hyperthread and its caches belong
/// partly to other tenants. When they are busy, both the kernels and
/// the workloads slow down, by up to 2×, in phases that last from
/// seconds to minutes (README.md, "Noise"). A run's scale is
/// [`CALIBRATION_S`] over its mean calibration time, so a workload's
/// times multiplied by it read about the same in a slow phase as in a
/// fast one.
pub struct Calibration {
    enabled: bool,
    total_s: f64,
    count: u32,
    last: Instant,
}

/// Least time between calibrations that [`Calibration::tick`] makes.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

impl Calibration {
    /// A run's calibrations, starting with one now. A disabled one
    /// (for traced passes) never calibrates.
    pub fn new(enabled: bool) -> Calibration {
        let mut c = Calibration {
            enabled,
            total_s: 0.0,
            count: 0,
            last: Instant::now(),
        };
        c.run();
        c
    }

    /// Calibrates now.
    pub fn run(&mut self) {
        if !self.enabled {
            return;
        }
        for kernel in calibration_kernels() {
            let t = Instant::now();
            kernel();
            self.total_s += t.elapsed().as_secs_f64();
        }
        self.count += 1;
        self.last = Instant::now();
    }

    /// Calibrates if the last calibration is at least
    /// `CALIBRATE_EVERY` old. Call it between timed items.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIBRATE_EVERY {
            self.run();
        }
    }

    /// Seconds spent calibrating so far.
    pub fn spent_s(&self) -> f64 {
        self.total_s
    }

    /// The run's core-speed scale so far.
    pub fn scale(&self) -> f64 {
        CALIBRATION_S * f64::from(self.count) / self.total_s
    }
}

/// What [`measure`] timed.
pub struct Passes {
    /// Wall time of each untraced pass.
    pub untraced: Vec<f64>,
    /// Wall time of each traced pass.
    pub traced: Vec<f64>,
    /// The spans of the traced passes.
    pub tracer: Tracer,
    /// Core-speed scale of the untraced passes (see [`Calibration`]).
    pub scale: f64,
}

/// Runs `pass` repeatedly for `seconds` (and at least `min_passes`
/// times), calibrating before the first pass and after every untraced
/// one; untraced passes may calibrate between their own items too. In
/// a traced run the passes alternate untraced and traced, so the
/// tracing overhead is measured in the same process; the traced
/// passes' spans accumulate in the returned tracer.
pub fn measure<F>(options: &Options, min_passes: usize, mut pass: F) -> Passes
where
    F: FnMut(&mut Tracer, &mut Calibration) -> f64,
{
    let mut tracer = Tracer::new(true);
    if let Some((layer, delay)) = options.inject {
        tracer.inject(layer, delay);
    }
    let mut plain = Tracer::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut calibration = Calibration::new(true);
    let started = Instant::now();
    loop {
        untraced.push(pass(&mut plain, &mut calibration));
        calibration.run();
        if options.trace {
            trace::arm_allocs(true);
            traced.push(pass(&mut tracer, &mut Calibration::new(false)));
            trace::arm_allocs(false);
        }
        // Traced runs report no end-to-end percentiles, so one pair of
        // passes is enough there.
        let enough = options.trace || untraced.len() >= min_passes;
        if enough && started.elapsed() >= options.seconds {
            break;
        }
    }
    Passes {
        untraced,
        traced,
        tracer,
        scale: calibration.scale(),
    }
}

/// Each item's median time across passes, for items timed in the same
/// order every pass. On a shared host, other tenants slow some stretches
/// of a run; the per-item median keeps the time most passes saw.
pub fn median_items(item_s_by_pass: &[Vec<f64>]) -> Vec<f64> {
    let items = item_s_by_pass.iter().map(Vec::len).min().unwrap_or(0);
    (0..items)
        .map(|i| trace::median(&item_s_by_pass.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Self time of `layer` summed over the tracer's spans, in seconds.
pub fn layer_s(tracer: &Tracer, layer: &str) -> f64 {
    tracer
        .layers()
        .get(layer)
        .map_or(0.0, trace::LayerTotal::self_s)
}

/// Self allocations of `layer` summed over the tracer's spans.
pub fn layer_allocs(tracer: &Tracer, layer: &str) -> u64 {
    tracer.layers().get(layer).map_or(0, |t| t.self_allocs)
}

/// Share of the traced passes' wall time that no span covers, and the
/// tracing overhead (median traced pass over median untraced pass,
/// minus one, both unscaled).
pub fn coverage(outcome: &mut Outcome, passes: &Passes) {
    let wall: f64 = passes.traced.iter().sum();
    let attributed: f64 = passes
        .tracer
        .layers()
        .values()
        .map(trace::LayerTotal::self_s)
        .sum();
    outcome
        .layers
        .insert("unattributed_frac".into(), 1.0 - attributed / wall);
    outcome.layers.insert(
        "trace_overhead_frac".into(),
        trace::median(&passes.traced) / trace::median(&passes.untraced) - 1.0,
    );
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

//! One experiment per table and figure of the paper's evaluation, plus
//! the ablations its prose discusses.

use crate::paper;
use crate::tables::{pct, Table};
use crate::workbench::Workbench;
use pcap_core::PcapVariant;
use pcap_disk::{LadderPolicy, MultiStateParams};
use pcap_sim::{
    evaluate, evaluate_prepared, AppReport, LadderStats, NullObserver, PowerManagerKind,
    PreparedTrace, SimConfig, WorkloadProfile,
};
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The regenerable experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Experiment {
    /// Table 1: applications and execution details.
    Table1,
    /// Table 2: disk states and transitions.
    Table2,
    /// Figure 6: local shutdown predictors.
    Fig6,
    /// Figure 7: global shutdown predictor.
    Fig7,
    /// Figure 8: energy distribution.
    Fig8,
    /// Figure 9: PCAP context optimizations (history, fd).
    Fig9,
    /// Figure 10: prediction-table reuse.
    Fig10,
    /// Table 3: prediction-table storage requirements.
    Table3,
    /// Ablations: TP timeout sweep, wait-window sweep, history-length
    /// sweep, classic dynamic predictors, capture-strategy overhead.
    Ablations,
    /// Extension: all six applications overlaid into whole-system
    /// sessions (the §5 multi-process scenario at full scale).
    System,
    /// Extension: the full §7 multi-state ladder engine — predictive
    /// vs ski-rental vs clairvoyant descent over the mobile-ATA
    /// ladder, with competitive ratios and bottom-out distributions.
    Multistate,
    /// Extension: the learning-augmented λ-ladder (Antoniadis et al.)
    /// — gap-energy competitive ratios vs clairvoyant across a
    /// λ × prediction-error-rate sweep, against the per-ladder
    /// consistency/robustness envelope, with a reading-guide
    /// narrative.
    Lambda,
}

impl Experiment {
    /// Every experiment, in paper order.
    pub const ALL: [Experiment; 12] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Table3,
        Experiment::Ablations,
        Experiment::System,
        Experiment::Multistate,
        Experiment::Lambda,
    ];

    /// CLI name ("table1", "fig6", …).
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Table3 => "table3",
            Experiment::Ablations => "ablations",
            Experiment::System => "system",
            Experiment::Multistate => "multistate",
            Experiment::Lambda => "lambda",
        }
    }

    /// Looks an experiment up by its CLI name.
    pub fn by_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Runs the experiment on a prepared workbench.
    pub fn run(self, bench: &Workbench) -> Vec<Table> {
        match self {
            Experiment::Table1 => vec![table1(bench)],
            Experiment::Table2 => vec![table2(bench.config())],
            Experiment::Fig6 => vec![fig6(bench)],
            Experiment::Fig7 => vec![fig7(bench)],
            Experiment::Fig8 => vec![fig8(bench)],
            Experiment::Fig9 => vec![fig9(bench)],
            Experiment::Fig10 => vec![fig10(bench)],
            Experiment::Table3 => vec![table3(bench)],
            Experiment::Ablations => ablations(bench),
            Experiment::System => vec![system(bench)],
            Experiment::Multistate => multistate(bench),
            Experiment::Lambda => lambda(bench),
        }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three predictors of Figures 6–8.
const HEADLINE: [PowerManagerKind; 3] = [
    PowerManagerKind::Timeout,
    PowerManagerKind::LT,
    PowerManagerKind::PCAP,
];

/// Table 1 with paper reference columns.
pub fn table1(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 1: applications and execution details (measured vs paper)",
        &[
            "app",
            "execs",
            "global idle",
            "(paper)",
            "local idle",
            "(paper)",
            "total I/Os",
            "(paper)",
            "disk accesses",
            "cache hit",
        ],
    );
    for (trace_idx, reference) in (0..bench.traces().len()).zip(paper::TABLE1) {
        let p = WorkloadProfile::of_prepared(bench.prepared(trace_idx), bench.config());
        t.row(vec![
            p.app.to_string(),
            p.executions.to_string(),
            p.global_idle_periods.to_string(),
            reference.global_idle.to_string(),
            p.local_idle_periods.to_string(),
            reference.local_idle.to_string(),
            p.total_ios.to_string(),
            reference.total_ios.to_string(),
            p.disk_accesses.to_string(),
            pct(p.cache_hit_rate),
        ]);
    }
    t
}

/// Table 2: the disk model (constants plus derived breakeven).
pub fn table2(config: &SimConfig) -> Table {
    let d = &config.disk;
    let mut t = Table::new(
        "Table 2: states and state transitions of the simulated disk",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("busy power", d.busy_power.to_string()),
        ("idle power", d.idle_power.to_string()),
        ("standby power", d.standby_power.to_string()),
        ("spin-up energy", d.spinup_energy.to_string()),
        ("shutdown energy", d.shutdown_energy.to_string()),
        (
            "spin-up time",
            format!("{:.2} s", d.spinup_time.as_secs_f64()),
        ),
        (
            "shutdown time",
            format!("{:.2} s", d.shutdown_time.as_secs_f64()),
        ),
        (
            "breakeven time",
            format!("{:.2} s", d.breakeven_time().as_secs_f64()),
        ),
        (
            "breakeven (derived)",
            format!("{:.2} s", d.derived_breakeven().as_secs_f64()),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_owned(), v]);
    }
    t
}

fn fraction_rows(t: &mut Table, report: &AppReport, local: bool) {
    let c = if local { &report.local } else { &report.global };
    t.row(vec![
        report.app.to_string(),
        report.manager.clone(),
        c.opportunities.to_string(),
        pct(c.coverage()),
        pct(c.not_predicted_rate()),
        pct(c.miss_rate()),
    ]);
}

fn average_row(t: &mut Table, label: &str, reports: &[&AppReport], local: bool) {
    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&AppReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n;
    let counts = |r: &AppReport| if local { r.local } else { r.global };
    t.row(vec![
        "AVERAGE".into(),
        label.to_owned(),
        String::new(),
        pct(mean(&|r| counts(r).coverage())),
        pct(mean(&|r| counts(r).not_predicted_rate())),
        pct(mean(&|r| counts(r).miss_rate())),
    ]);
}

fn predictor_figure(bench: &Workbench, title: &str, local: bool) -> Table {
    let mut t = Table::new(
        title,
        &[
            "app",
            "predictor",
            "idle periods",
            "hit",
            "not predicted",
            "miss",
        ],
    );
    for kind in HEADLINE {
        for trace_idx in 0..bench.traces().len() {
            let report = bench.report(trace_idx, kind);
            fraction_rows(&mut t, &report, local);
        }
    }
    for kind in HEADLINE {
        let reports: Vec<AppReport> = (0..bench.traces().len())
            .map(|i| bench.report(i, kind))
            .collect();
        let refs: Vec<&AppReport> = reports.iter().collect();
        average_row(&mut t, &kind.label(), &refs, local);
    }
    t
}

/// Figure 6: local shutdown predictors.
pub fn fig6(bench: &Workbench) -> Table {
    predictor_figure(
        bench,
        "Figure 6: local shutdown predictors (fractions of local idle periods)",
        true,
    )
}

/// Figure 7: the global shutdown predictor.
pub fn fig7(bench: &Workbench) -> Table {
    predictor_figure(
        bench,
        "Figure 7: global shutdown predictor (fractions of global idle periods)",
        false,
    )
}

/// Figure 8: energy distribution.
pub fn fig8(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Figure 8: energy distribution (% of unmanaged disk energy)",
        &[
            "app",
            "config",
            "busy I/O",
            "idle<breakeven",
            "idle>breakeven",
            "power cycle",
            "total",
            "savings",
        ],
    );
    let kinds = [
        None, // Base
        Some(PowerManagerKind::Oracle),
        Some(PowerManagerKind::Timeout),
        Some(PowerManagerKind::LT),
        Some(PowerManagerKind::PCAP),
    ];
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        for kind in kinds {
            let (label, energy, base_total) = match kind {
                None => {
                    let r = bench.report(trace_idx, PowerManagerKind::Timeout);
                    ("Base".to_owned(), r.base_energy, r.base_energy.total().0)
                }
                Some(k) => {
                    let r = bench.report(trace_idx, k);
                    (k.label(), r.energy, r.base_energy.total().0)
                }
            };
            let frac = |j: pcap_disk::Joules| pct(j.0 / base_total);
            t.row(vec![
                trace.app.to_string(),
                label,
                frac(energy.busy),
                frac(energy.idle_short),
                frac(energy.idle_long),
                frac(energy.power_cycle),
                frac(energy.total()),
                pct(1.0 - energy.total().0 / base_total),
            ]);
        }
    }
    // Averages over applications for the managed configurations.
    for kind in [
        PowerManagerKind::Oracle,
        PowerManagerKind::Timeout,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
    ] {
        let n = bench.traces().len() as f64;
        let savings: f64 = (0..bench.traces().len())
            .map(|i| bench.report(i, kind).savings())
            .sum::<f64>()
            / n;
        t.row(vec![
            "AVERAGE".into(),
            kind.label(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            pct(savings),
        ]);
    }
    t
}

fn split_figure(bench: &Workbench, title: &str, kinds: &[PowerManagerKind]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "app",
            "predictor",
            "idle periods",
            "hit primary",
            "hit backup",
            "miss primary",
            "miss backup",
            "not predicted",
        ],
    );
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        for &kind in kinds {
            let r = bench.report(trace_idx, kind);
            let c = r.global;
            let f = |n: u64| {
                if c.opportunities == 0 {
                    "0%".to_owned()
                } else {
                    pct(n as f64 / c.opportunities as f64)
                }
            };
            t.row(vec![
                trace.app.to_string(),
                kind.label(),
                c.opportunities.to_string(),
                f(c.hit_primary),
                f(c.hit_backup),
                f(c.miss_primary),
                f(c.miss_backup),
                f(c.not_predicted),
            ]);
        }
    }
    for &kind in kinds {
        let n = bench.traces().len() as f64;
        let mean = |f: &dyn Fn(&pcap_sim::PredictionCounts) -> f64| {
            (0..bench.traces().len())
                .map(|i| {
                    let c = bench.report(i, kind).global;
                    if c.opportunities == 0 {
                        0.0
                    } else {
                        f(&c)
                    }
                })
                .sum::<f64>()
                / n
        };
        let o = |c: &pcap_sim::PredictionCounts| c.opportunities as f64;
        t.row(vec![
            "AVERAGE".into(),
            kind.label(),
            String::new(),
            pct(mean(&|c| c.hit_primary as f64 / o(c))),
            pct(mean(&|c| c.hit_backup as f64 / o(c))),
            pct(mean(&|c| c.miss_primary as f64 / o(c))),
            pct(mean(&|c| c.miss_backup as f64 / o(c))),
            pct(mean(&|c| c.not_predicted as f64 / o(c))),
        ]);
    }
    t
}

/// Figure 9: PCAP variants with primary/backup attribution.
pub fn fig9(bench: &Workbench) -> Table {
    let kinds: Vec<PowerManagerKind> = [
        PcapVariant::Base,
        PcapVariant::History,
        PcapVariant::FileDescriptor,
        PcapVariant::FileDescriptorHistory,
    ]
    .into_iter()
    .map(|variant| PowerManagerKind::Pcap {
        variant,
        reuse: true,
    })
    .collect();
    split_figure(
        bench,
        "Figure 9: predictor optimizations (history and file descriptors)",
        &kinds,
    )
}

/// Figure 10: prediction-table reuse.
pub fn fig10(bench: &Workbench) -> Table {
    split_figure(
        bench,
        "Figure 10: predictor table reuse",
        &[
            PowerManagerKind::PCAP,
            PowerManagerKind::Pcap {
                variant: PcapVariant::Base,
                reuse: false,
            },
            PowerManagerKind::LT,
            PowerManagerKind::LearningTree { reuse: false },
        ],
    )
}

/// Table 3: prediction-table storage.
pub fn table3(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Table 3: storage requirements (prediction-table entries, measured vs paper)",
        &[
            "app",
            "PCAP",
            "(paper)",
            "PCAPh",
            "(paper)",
            "PCAPf",
            "(paper)",
            "PCAPfh",
            "(paper)",
            "bytes (PCAPfh)",
        ],
    );
    for (trace_idx, reference) in (0..bench.traces().len()).zip(paper::TABLE3) {
        let entries = |variant: PcapVariant| -> usize {
            bench
                .report(
                    trace_idx,
                    PowerManagerKind::Pcap {
                        variant,
                        reuse: true,
                    },
                )
                .table_entries
                .unwrap_or(0)
        };
        let fh = entries(PcapVariant::FileDescriptorHistory);
        t.row(vec![
            bench.traces()[trace_idx].app.to_string(),
            entries(PcapVariant::Base).to_string(),
            reference.pcap.to_string(),
            entries(PcapVariant::History).to_string(),
            reference.pcap_h.to_string(),
            entries(PcapVariant::FileDescriptor).to_string(),
            reference.pcap_f.to_string(),
            fh.to_string(),
            reference.pcap_fh.to_string(),
            (fh * 4).to_string(),
        ]);
    }
    t
}

/// Extension: the six applications overlaid into concurrent
/// whole-system sessions — the environment §5's Global Shutdown
/// Predictor actually targets ("in real systems, many processes are
/// running concurrently"). Idle periods are much rarer (every process
/// must be idle at once), so predictor quality matters more.
pub fn system(bench: &Workbench) -> Table {
    let system_trace = pcap_trace::merge::merge_traces(bench.traces(), SimDuration::from_secs(2))
        .expect("valid traces merge");
    // One preparation shared by the profile and all five managers.
    let prepared = PreparedTrace::build(&system_trace, bench.config());
    let profile = WorkloadProfile::of_prepared(&prepared, bench.config());
    let mut t = Table::new(
        format!(
            "Extension: whole-system sessions ({} sessions, {} I/Os, {} global idle periods)",
            profile.executions, profile.total_ios, profile.global_idle_periods
        ),
        &[
            "predictor",
            "idle periods",
            "hit",
            "not predicted",
            "miss",
            "savings",
        ],
    );
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
        PowerManagerKind::Pcap {
            variant: PcapVariant::History,
            reuse: true,
        },
        PowerManagerKind::Oracle,
    ] {
        let r = evaluate_prepared(&prepared, bench.config(), kind);
        t.row(vec![
            r.manager.clone(),
            r.global.opportunities.to_string(),
            pct(r.global.coverage()),
            pct(r.global.not_predicted_rate()),
            pct(r.global.miss_rate()),
            pct(r.savings()),
        ]);
    }
    t
}

/// The ablation suite discussed in the paper's prose.
pub fn ablations(bench: &Workbench) -> Vec<Table> {
    vec![
        ablation_timeout(bench),
        ablation_wait_window(bench),
        ablation_history(bench),
        ablation_table_capacity(bench),
        ablation_signature_scheme(bench),
        ablation_readahead(bench),
        ablation_classic(bench),
        ablation_multistate(bench),
        ablation_capture(bench),
    ]
}

fn averaged_suite(
    bench: &Workbench,
    config: &SimConfig,
    kind: PowerManagerKind,
) -> (f64, f64, f64) {
    let n = bench.traces().len() as f64;
    let mut coverage = 0.0;
    let mut miss = 0.0;
    let mut savings = 0.0;
    for trace_idx in 0..bench.traces().len() {
        // Predictor-only ablations share the workbench's prepared
        // streams; stream-relevant ones transparently rebuild.
        let r = bench.evaluate_with(trace_idx, config, kind);
        coverage += r.global.coverage();
        miss += r.global.miss_rate();
        savings += r.savings();
    }
    (coverage / n, miss / n, savings / n)
}

/// §6.3: "TP with timeout of 5.43 seconds eliminates on average 74% of
/// energy, however the global mispredictions increase to 12%."
fn ablation_timeout(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: TP timeout sweep (global averages)",
        &["timeout", "coverage", "miss", "savings"],
    );
    for secs in [2.0, 5.43, 10.0, 20.0, 30.0] {
        let mut config = bench.config().clone();
        config.timeout = SimDuration::from_secs_f64(secs);
        let (cov, miss, sav) = averaged_suite(bench, &config, PowerManagerKind::Timeout);
        t.row(vec![format!("{secs} s"), pct(cov), pct(miss), pct(sav)]);
    }
    t
}

fn ablation_wait_window(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: PCAP wait-window sweep (global averages)",
        &["wait window", "coverage", "miss", "savings"],
    );
    for secs in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut config = bench.config().clone();
        config.wait_window = SimDuration::from_secs_f64(secs);
        let (cov, miss, sav) = averaged_suite(bench, &config, PowerManagerKind::PCAP);
        t.row(vec![format!("{secs} s"), pct(cov), pct(miss), pct(sav)]);
    }
    t
}

/// §6.4.1: history length 6 "maximizes energy savings and minimizes
/// the number of mispredictions. Longer history does not reduce
/// mispredictions any further."
fn ablation_history(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: PCAPh history-length sweep (global averages)",
        &["history length", "coverage", "miss", "savings"],
    );
    for len in [1usize, 2, 4, 6, 8, 10] {
        let mut config = bench.config().clone();
        config.pcap_history_len = len;
        let (cov, miss, sav) = averaged_suite(
            bench,
            &config,
            PowerManagerKind::Pcap {
                variant: PcapVariant::History,
                reuse: true,
            },
        );
        t.row(vec![len.to_string(), pct(cov), pct(miss), pct(sav)]);
    }
    t
}

fn ablation_classic(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: classic dynamic predictors vs PCAP (global averages)",
        &["predictor", "coverage", "miss", "savings"],
    );
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::ExponentialAverage,
        PowerManagerKind::AdaptiveTimeout,
        PowerManagerKind::LastBusy,
        PowerManagerKind::Stochastic,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
        PowerManagerKind::Oracle,
    ] {
        let (cov, miss, sav) = averaged_suite(bench, bench.config(), kind);
        t.row(vec![kind.label(), pct(cov), pct(miss), pct(sav)]);
    }
    t
}

/// §6.4.2: "some storage limit can be imposed and an LRU replacement of
/// old signatures can be used" — how small can the prediction table get
/// before coverage degrades?
fn ablation_table_capacity(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Ablation: PCAP prediction-table LRU capacity (global averages)",
        &["capacity", "coverage", "miss", "savings"],
    );
    for capacity in [Some(4usize), Some(8), Some(16), Some(32), Some(64), None] {
        let mut config = bench.config().clone();
        config.pcap_table_capacity = capacity;
        let (cov, miss, sav) = averaged_suite(bench, &config, PowerManagerKind::PCAP);
        t.row(vec![
            capacity.map_or_else(|| "unbounded".into(), |c| c.to_string()),
            pct(cov),
            pct(miss),
            pct(sav),
        ]);
    }
    t
}

/// §7 future work, implemented: PC-based readahead in the file cache.
/// Streaming call sites learn their run lengths; the first access of a
/// recurring run pulls the predicted remainder in one disk access —
/// fewer accesses, less per-access overhead, longer undisturbed gaps.
fn ablation_readahead(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Extension: PC-based readahead (§7) — plain cache vs PC readahead (PCAP manager)",
        &[
            "app",
            "accesses",
            "accesses+ra",
            "prefetched pages",
            "savings",
            "savings+ra",
        ],
    );
    let mut ra_config = bench.config().clone();
    ra_config.cache.readahead = Some(pcap_cache::ReadaheadConfig::default());
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let plain_profile = WorkloadProfile::of_prepared(bench.prepared(trace_idx), bench.config());
        // One readahead preparation feeds the profile, the simulation,
        // and the prefetched-page totals — the trace is re-filtered
        // exactly once under the readahead cache.
        let ra_prepared = PreparedTrace::build(trace, &ra_config);
        let ra_profile = WorkloadProfile::of_prepared(&ra_prepared, &ra_config);
        let plain = bench.report(trace_idx, PowerManagerKind::PCAP);
        let ra = evaluate_prepared(&ra_prepared, &ra_config, PowerManagerKind::PCAP);
        let prefetched: u64 = ra_prepared
            .streams()
            .iter()
            .map(|s| s.cache_stats.prefetched_pages)
            .sum();
        t.row(vec![
            trace.app.to_string(),
            plain_profile.disk_accesses.to_string(),
            ra_profile.disk_accesses.to_string(),
            prefetched.to_string(),
            pct(plain.savings()),
            pct(ra.savings()),
        ]);
    }
    t
}

/// §3.2: "we do not explore alternative encodings" — so this repo does.
/// Compares the paper's additive path encoding against order-sensitive
/// alternatives, with measured aliasing (distinct paths colliding on a
/// signature) instead of the paper's assumption that it never happens.
fn ablation_signature_scheme(bench: &Workbench) -> Table {
    use pcap_core::SignatureScheme;
    let mut t = Table::new(
        "Ablation: signature encoding schemes (global averages + total aliases)",
        &[
            "scheme", "coverage", "miss", "savings", "entries", "aliases",
        ],
    );
    for scheme in [
        SignatureScheme::Additive,
        SignatureScheme::XorRotate,
        SignatureScheme::HashChain,
    ] {
        let mut config = bench.config().clone();
        config.signature_scheme = scheme;
        let n = bench.traces().len() as f64;
        let mut cov = 0.0;
        let mut miss = 0.0;
        let mut sav = 0.0;
        let mut entries = 0usize;
        let mut aliases = 0u64;
        for trace_idx in 0..bench.traces().len() {
            let r = bench.evaluate_with(trace_idx, &config, PowerManagerKind::PCAP);
            cov += r.global.coverage();
            miss += r.global.miss_rate();
            sav += r.savings();
            entries += r.table_entries.unwrap_or(0);
            aliases += r.table_aliases.unwrap_or(0);
        }
        t.row(vec![
            scheme.label().to_owned(),
            pct(cov / n),
            pct(miss / n),
            pct(sav / n),
            entries.to_string(),
            aliases.to_string(),
        ]);
    }
    t
}

/// §7's extension sketch, implemented as a real power manager
/// (`PCAP+ms`): the wait-window preceding every shutdown is spent in
/// the deepest shallow low-power state that pays off, instead of
/// spinning idle. Predictions are identical to PCAP; only the energy
/// differs.
fn ablation_multistate(bench: &Workbench) -> Table {
    let mut t = Table::new(
        "Extension: multi-state wait-windows (§7) — PCAP vs PCAP+ms",
        &[
            "app",
            "PCAP savings",
            "PCAP+ms savings",
            "extra energy saved",
        ],
    );
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let plain = bench.report(trace_idx, PowerManagerKind::PCAP);
        let multi = bench.report(trace_idx, PowerManagerKind::MultiStatePcap);
        t.row(vec![
            trace.app.to_string(),
            pct(plain.savings()),
            pct(multi.savings()),
            crate::tables::joules(plain.energy.total() - multi.energy.total()),
        ]);
    }
    t
}

/// One evaluation of `kind` through the ladder charger: the report and
/// where its descents bottomed out.
fn ladder_evaluation(
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
        &pcap_obs::NullPipeline,
    );
    (
        report,
        stats.expect("a ladder evaluation returns its stats"),
    )
}

/// §7 at full depth: the multi-state *engine* (as opposed to the
/// wait-window substitution of `PCAP+ms`) descends the mobile-ATA
/// ladder gap by gap under three policies — trust the prediction and
/// jump ([`pcap_disk::PredictiveJump`]), prediction-free ski-rental
/// descent along the cost envelope ([`pcap_disk::SkiRental`]), and the
/// clairvoyant static optimum ([`pcap_disk::OracleLadder`]).
/// Competitive ratios are computed on gap energy (total minus busy:
/// the part a policy can influence).
pub fn multistate(bench: &Workbench) -> Vec<Table> {
    use pcap_disk::{OracleLadder, PredictiveJump, SkiRental};

    let ladder = MultiStateParams::mobile_ata();
    let ski = SkiRental::new(&ladder);
    let kind = PowerManagerKind::PCAP;
    let mut t = Table::new(
        "Extension: multi-state ladder engine (§7) — descent policies on the mobile-ATA ladder (PCAP votes)",
        &[
            "app",
            "base",
            "predictive",
            "savings",
            "ski-rental",
            "savings",
            "oracle",
            "savings",
            "ratio pred",
            "ratio ski",
        ],
    );
    let mut dist = Table::new(
        "Extension: ladder bottom-out distribution (predictive descent, PCAP votes)",
        &[
            "app",
            "gaps",
            "spinning idle",
            "active-idle",
            "low-power-idle",
            "standby",
        ],
    );
    let gap_energy = |r: &AppReport| r.energy.total().0 - r.energy.busy.0;
    let n = bench.traces().len() as f64;
    let mut mean_savings = [0.0f64; 3];
    let mut worst_ratio = [0.0f64; 2];
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let prepared = bench.prepared(trace_idx);
        let config = bench.config();
        let (pred, stats) = ladder_evaluation(prepared, config, kind, &ladder, &PredictiveJump);
        let (rental, _) = ladder_evaluation(prepared, config, kind, &ladder, &ski);
        let (oracle, _) = ladder_evaluation(prepared, config, kind, &ladder, &OracleLadder);
        let base = pred.base_energy.total();
        let opt = gap_energy(&oracle);
        let ratios = [gap_energy(&pred) / opt, gap_energy(&rental) / opt];
        let savings = [pred.savings(), rental.savings(), oracle.savings()];
        for (acc, s) in mean_savings.iter_mut().zip(savings) {
            *acc += s / n;
        }
        for (acc, r) in worst_ratio.iter_mut().zip(ratios) {
            *acc = acc.max(r);
        }
        t.row(vec![
            trace.app.to_string(),
            crate::tables::joules(base),
            crate::tables::joules(pred.energy.total()),
            pct(savings[0]),
            crate::tables::joules(rental.energy.total()),
            pct(savings[1]),
            crate::tables::joules(oracle.energy.total()),
            pct(savings[2]),
            format!("{:.3}", ratios[0]),
            format!("{:.3}", ratios[1]),
        ]);
        dist.row(vec![
            trace.app.to_string(),
            stats.total_gaps().to_string(),
            stats.idle_gaps.to_string(),
            stats.bottom_counts[0].to_string(),
            stats.bottom_counts[1].to_string(),
            stats.bottom_counts[2].to_string(),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        String::new(),
        String::new(),
        pct(mean_savings[0]),
        String::new(),
        pct(mean_savings[1]),
        String::new(),
        pct(mean_savings[2]),
        format!("worst {:.3}", worst_ratio[0]),
        format!("worst {:.3}", worst_ratio[1]),
    ]);
    vec![t, dist]
}

/// Extension: the learning-augmented λ-ladder
/// ([`pcap_disk::LambdaLadder`]) swept over λ × prediction-error rate
/// on every app, with the per-ladder consistency/robustness envelope
/// from [`pcap_disk::lambda_bounds`] alongside the measured gap-energy
/// ratios, plus a `pcap explain`-style reading guide that also records
/// the λ = 1 ≡ ski-rental bitwise check and the adversarial straddle
/// search.
pub fn lambda(bench: &Workbench) -> Vec<Table> {
    use pcap_disk::{lambda_bounds, LambdaLadder, OracleLadder, SkiRental};
    use pcap_workload::{adversarial_gaps, worst_case_search, NoisyVotes};

    const LAMBDAS: [f64; 3] = [0.0, 0.5, 1.0];
    const ERROR_RATES: [f64; 4] = [0.0, 0.1, 0.5, 1.0];

    let ladder = MultiStateParams::mobile_ata();
    let ski = SkiRental::new(&ladder);
    let kind = PowerManagerKind::PCAP;
    let gap_energy = |r: &AppReport| r.energy.total().0 - r.energy.busy.0;
    // The robustness bound diverges as λ → 0 (an adversarial vote can
    // park the disk in standby for a microsecond gap), so large bounds
    // render in scientific notation.
    let fmt_bound = |b: f64| {
        if b < 100.0 {
            format!("{b:.3}")
        } else {
            format!("{b:.2e}")
        }
    };

    let mut t = Table::new(
        "Extension: learning-augmented λ-ladder — gap-energy ratio vs clairvoyant under injected vote errors (PCAP votes, mobile-ATA ladder)",
        &[
            "app",
            "lambda",
            "consistency",
            "robustness",
            "e=0",
            "e=0.1",
            "e=0.5",
            "e=1",
            "savings e=0",
        ],
    );
    let mut worst = [[0.0f64; ERROR_RATES.len()]; LAMBDAS.len()];
    let mut bitwise_ski = true;
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let prepared = bench.prepared(trace_idx);
        let config = bench.config();
        let (oracle, _) = ladder_evaluation(prepared, config, kind, &ladder, &OracleLadder);
        let opt = gap_energy(&oracle);
        let (rental, _) = ladder_evaluation(prepared, config, kind, &ladder, &ski);
        for (li, &lam) in LAMBDAS.iter().enumerate() {
            let policy = LambdaLadder::new(&ladder, lam);
            let bounds = lambda_bounds(&ladder, lam);
            let mut row = vec![
                trace.app.to_string(),
                format!("{lam:.2}"),
                fmt_bound(bounds.consistency),
                fmt_bound(bounds.robustness),
            ];
            let mut savings = String::new();
            for (ei, &rate) in ERROR_RATES.iter().enumerate() {
                let seed = 0x5EED ^ ((trace_idx as u64) << 16) ^ ((li as u64) << 8) ^ ei as u64;
                let noisy = NoisyVotes::new(&policy, rate, seed);
                let (out, _) = ladder_evaluation(prepared, config, kind, &ladder, &noisy);
                let ratio = gap_energy(&out) / opt;
                worst[li][ei] = worst[li][ei].max(ratio);
                row.push(format!("{ratio:.3}"));
                if ei == 0 {
                    savings = pct(out.savings());
                    if lam == 1.0 {
                        let a = serde_json::to_string(&out).expect("report serializes");
                        let b = serde_json::to_string(&rental).expect("report serializes");
                        bitwise_ski &= a == b;
                    }
                }
            }
            row.push(savings);
            t.row(row);
        }
    }
    for (li, &lam) in LAMBDAS.iter().enumerate() {
        let bounds = lambda_bounds(&ladder, lam);
        let mut row = vec![
            "WORST".into(),
            format!("{lam:.2}"),
            fmt_bound(bounds.consistency),
            fmt_bound(bounds.robustness),
        ];
        row.extend(worst[li].iter().map(|r| format!("{r:.3}")));
        row.push(String::new());
        t.row(row);
    }

    let mut guide = Table::new("Reading the λ-ladder sweep", &["observation", "value"]);
    guide.row(vec![
        "trust parameter λ".into(),
        "0 trusts the PCAP vote outright; 1 ignores it (prediction-free ski-rental descent)".into(),
    ]);
    guide.row(vec![
        "error rate e".into(),
        "fraction of votes dropped, retargeted or fabricated before the policy plans".into(),
    ]);
    guide.row(vec![
        "λ=1 vs ski-rental at e=0".into(),
        if bitwise_ski {
            "bit-identical reports on every app".into()
        } else {
            "DIVERGED — λ=1 must reproduce ski-rental".into()
        },
    ]);
    let envelope_holds = LAMBDAS.iter().enumerate().all(|(li, &lam)| {
        let bound = lambda_bounds(&ladder, lam).robustness;
        worst[li].iter().all(|&r| r <= bound * (1.0 + 1e-9))
    });
    guide.row(vec![
        "robustness envelope".into(),
        if envelope_holds {
            "holds: every measured ratio is at most its row's robustness bound".into()
        } else {
            "VIOLATED — a measured ratio exceeded its robustness bound".into()
        },
    ]);
    let adversary = worst_case_search(
        &ladder,
        &ski,
        &adversarial_gaps(&ladder, ski.switch_times()),
        false,
    )
    .expect("non-empty adversarial suite");
    guide.row(vec![
        "adversarial straddle search (λ=1)".into(),
        format!(
            "worst per-gap ratio {:.4} at a {:.3} s gap — attains the computed supremum, under the classical 2x bound",
            adversary.ratio,
            adversary.gap.as_secs_f64()
        ),
    ]);
    let grand_worst = worst.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    guide.row(vec![
        "worst measured ratio (whole sweep)".into(),
        format!("{grand_worst:.3}"),
    ]);
    guide.row(vec![
        "e=0 column".into(),
        "real PCAP votes are imperfect predictions, so even e=0 sits between the consistency and robustness bounds".into(),
    ]);
    vec![t, guide]
}

/// §3.2.1–3.2.2: the relative cost of the three PC capture strategies.
fn ablation_capture(bench: &Workbench) -> Table {
    use pcap_capture::{CallStack, CaptureStrategy, FrameKind};
    use pcap_types::Pc;
    let mut t = Table::new(
        "Ablation: PC-capture strategy overhead (memory accesses per I/O)",
        &[
            "app",
            "library depth",
            "library hook",
            "syscall interception",
            "kernel hook",
        ],
    );
    for (trace, app) in bench.traces().iter().zip(pcap_workload::PaperApp::ALL) {
        let depth = app.spec().io_library_depth;
        let mut stack = CallStack::new();
        stack.push(Pc(0x1000), FrameKind::Application);
        stack.push(Pc(0x1100), FrameKind::Application);
        for i in 0..depth {
            stack.push(Pc(0x7f00_0000 + i), FrameKind::Library);
        }
        stack.push(Pc(0xc000_0000), FrameKind::Kernel);
        let cost = |s: CaptureStrategy| s.capture(&stack).expect("app frame").cost.memory_accesses;
        t.row(vec![
            trace.app.to_string(),
            depth.to_string(),
            cost(CaptureStrategy::LibraryHook).to_string(),
            cost(CaptureStrategy::SyscallInterception).to_string(),
            cost(CaptureStrategy::KernelHook).to_string(),
        ]);
    }
    t
}

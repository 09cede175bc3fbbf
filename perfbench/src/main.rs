//! Benchmark entry point: runs one workload and prints every metric by name
//! with its unit, a machine fingerprint, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero if any output check failed.
//!
//! ```text
//! pcap-perfbench --workload <paper|fleet|serve-burst|serve-paced>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```

use pcap_perfbench::trace::{CountingAlloc, Tracer};
use pcap_perfbench::{
    fleet, paper, peak_rss_mb, serve, Options, Outcome, END_TO_END, PER_LAYER, UNGATED, WORKLOADS,
};
use serde::{Serialize, Value};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Output directory for result and span files, relative to the
/// checkout the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    options: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut options = Options {
        seed: 42,
        seconds: Duration::from_secs(10),
        trace: false,
        inject: None,
        stall: None,
        size: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                options.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNGATED).any(|w| *w == workload) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {UNGATED:?}"
        ));
    }
    Ok(Args { workload, options })
}

/// Output of a command, trimmed; `"unknown"` if it cannot run. Waits
/// for the command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine a result was measured on.
#[derive(Serialize)]
struct Fingerprint {
    nproc: usize,
    cpu: String,
    rustc: String,
    kernel: String,
    commit: String,
}

/// `nproc`, CPU model, `rustc -V`, kernel and git commit.
fn fingerprint() -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    Fingerprint {
        nproc,
        cpu,
        rustc: command_line("rustc", &["-V"]),
        kernel,
        commit: command_line("git", &["rev-parse", "HEAD"]),
    }
}

/// One line of a traced run's span file.
#[derive(Serialize)]
struct SpanLine {
    id: usize,
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
    allocs: u64,
}

/// The spans of a traced run, one JSON object per line.
fn spans_jsonl(tracer: &Tracer) -> String {
    let mut out = String::new();
    for (id, s) in tracer.spans().iter().enumerate() {
        let line = SpanLine {
            id,
            layer: s.layer,
            parent: s.parent,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            self_ns: s.self_ns(),
            allocs: s.allocs,
        };
        out.push_str(&serde_json::to_string(&line).expect("span lines serialize"));
        out.push('\n');
    }
    out
}

/// One metric of the result line.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pcap-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("pcap-perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let options = &args.options;
    let outcome: Outcome = match args.workload.as_str() {
        "paper" => paper::run(options),
        "fleet" => fleet::run(options),
        "serve-burst" => serve::run(options, serve::Mode::Burst),
        "serve-paced" => serve::run(options, serve::Mode::Paced),
        _ => unreachable!("workload validated by parse_args"),
    };

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if options.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, outcome.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = if name == "peak_rss_mb" {
                peak_rss_mb().unwrap_or(f64::NAN)
            } else {
                outcome.end_to_end.get(name).copied().unwrap_or(f64::NAN)
            };
            metrics.push((name, value, unit));
        }
    }
    let mut errors = outcome.errors.clone();
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }
    let correct = errors.is_empty() && outcome.failed == 0;
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }

    let print = fingerprint();
    let print_json = serde_json::to_string(&print).expect("fingerprint serializes");
    println!(
        "workload {} seed {} trace {} ({} op samples)",
        args.workload,
        options.seed,
        u8::from(options.trace),
        outcome.op_samples
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    if !options.trace {
        println!(
            "unscaled wall_s = {} s (core-speed scale {:.4})",
            outcome.unscaled_wall_s, outcome.scale
        );
    }
    if let Some(tracer) = &outcome.tracer {
        let mut layers: Vec<_> = tracer.layers().into_iter().collect();
        layers.sort_by_key(|l| std::cmp::Reverse(l.1.self_ns));
        for (layer, total) in layers {
            println!(
                "span {layer}: {} calls, {:.6} s self, {} allocs",
                total.calls,
                total.self_s(),
                total.self_allocs
            );
        }
    }
    println!("fingerprint {print_json}");

    let summary = Summary {
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed.max(u64::from(!correct)),
        metrics: Value::Object(
            metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let value = if value.is_finite() { value } else { 0.0 };
                    (name.to_owned(), Metric { value, unit }.to_value())
                })
                .collect(),
        ),
    };
    let json = serde_json::to_string(&summary).expect("result serializes");

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        options.seed,
        u8::from(options.trace)
    );
    let record = Value::Object(vec![
        ("fingerprint".into(), print.to_value()),
        ("result".into(), summary.to_value()),
    ]);
    let mut record = serde_json::to_string(&record).expect("record serializes");
    record.push('\n');
    if let Err(e) = std::fs::write(format!("{stem}.json"), record) {
        eprintln!("pcap-perfbench: cannot write {stem}.json: {e}");
    }
    if let Some(tracer) = &outcome.tracer {
        if let Err(e) = std::fs::write(format!("{stem}.spans.jsonl"), spans_jsonl(tracer)) {
            eprintln!("pcap-perfbench: cannot write {stem}.spans.jsonl: {e}");
        }
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Prometheus text-exposition export of the recorder's counter and
//! histogram registry, plus text-format validators and a sample
//! parser.
//!
//! Counters become `pcap_<name>_total`, histograms become cumulative
//! `le`-bucketed `pcap_<name>` series (reusing the [`LogHistogram`]
//! log₂ buckets, so `le` bounds are `2^k − 1` microseconds) with the
//! standard `_sum`/`_count` companions, and per-worker telemetry
//! becomes labelled gauges. Every family carries `# HELP` and
//! `# TYPE` metadata, checkable with [`validate_prometheus_strict`];
//! [`parse_prometheus_samples`] turns a scrape back into structured
//! samples for consumers like `pcap top`.

use crate::journal::JournalProgressSnapshot;
use crate::recorder::TraceRecorder;
use crate::LogHistogram;
use std::fmt::Write as _;

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends one histogram's series under `name`: the cumulative
/// `_bucket` lines (`le` bounds `2^k − 1`, then `+Inf`), `_sum` and
/// `_count`, with `labels` (e.g. `shard="3"`, or empty) on every line.
/// Family metadata is the caller's, so one `# HELP`/`# TYPE` pair can
/// cover every labelled instance of a family. This is the only
/// Prometheus histogram writer: the recorder export and the daemon's
/// `/metrics` both go through it.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    histogram: &LogHistogram,
    sum: u64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (k, count) in histogram.counts().iter().enumerate() {
        cumulative += count;
        let _ = match k {
            31 => writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
            ),
            _ => writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                LogHistogram::bucket_bounds(k).1 - 1
            ),
        };
    }
    let braced = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{braced} {sum}");
    let _ = writeln!(out, "{name}_count{braced} {cumulative}");
}

/// Renders the recorder's registry in Prometheus text exposition
/// format (version 0.0.4), with `# HELP`/`# TYPE` metadata on every
/// family. The output passes [`validate_prometheus_strict`].
pub fn render_prometheus(recorder: &TraceRecorder) -> String {
    let mut out = String::new();
    for (name, value) in recorder.counters() {
        let _ = writeln!(
            out,
            "# HELP pcap_{name}_total Monotonic pipeline counter `{name}`."
        );
        let _ = writeln!(out, "# TYPE pcap_{name}_total counter");
        let _ = writeln!(out, "pcap_{name}_total {value}");
    }
    for (name, (histogram, sum)) in recorder.histograms() {
        let _ = writeln!(
            out,
            "# HELP pcap_{name} Log2-bucketed microsecond histogram `{name}`."
        );
        let _ = writeln!(out, "# TYPE pcap_{name} histogram");
        write_histogram(&mut out, &format!("pcap_{name}"), "", &histogram, sum);
    }
    let workers = recorder.workers();
    if !workers.is_empty() {
        for (metric, help) in [
            ("pcap_worker_tasks", "Tasks completed by each sweep worker."),
            (
                "pcap_worker_busy_us",
                "Microseconds each worker spent inside tasks.",
            ),
            (
                "pcap_worker_wait_us",
                "Microseconds each worker spent off-task.",
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for w in &workers {
                let value = match metric {
                    "pcap_worker_tasks" => w.tasks,
                    "pcap_worker_busy_us" => w.busy_us,
                    _ => w.wait_us(),
                };
                let _ = writeln!(
                    out,
                    "{metric}{{scope=\"{}\",worker=\"{}\"}} {value}",
                    escape_label(&w.scope),
                    w.worker
                );
            }
        }
    }
    if let Some(slowest) = recorder.slowest() {
        let _ = writeln!(
            out,
            "# HELP pcap_slowest_task_us Duration of the slowest recorded task."
        );
        let _ = writeln!(out, "# TYPE pcap_slowest_task_us gauge");
        let _ = writeln!(
            out,
            "pcap_slowest_task_us{{task=\"{}\"}} {}",
            escape_label(&slowest.label),
            slowest.micros
        );
    }
    out
}

/// Renders journal resume/compute counters as a Prometheus scrape
/// (with metadata), so journaled sweeps are scrapeable rather than
/// stderr-only. Passes [`validate_prometheus_strict`].
pub fn render_journal_progress(progress: &JournalProgressSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in [
        (
            "pcap_journal_resumed_total",
            "Sweep cells reused from the journal instead of recomputed.",
            progress.resumed,
        ),
        (
            "pcap_journal_computed_total",
            "Sweep cells computed and appended to the journal.",
            progress.computed,
        ),
        (
            "pcap_journal_ceded_total",
            "Sweep cells ceded to a concurrent journal holder.",
            progress.ceded,
        ),
        (
            "pcap_journal_torn_bytes_total",
            "Bytes of torn tail records truncated during journal recovery.",
            progress.torn_bytes,
        ),
        (
            "pcap_journal_refreshes_total",
            "Journal re-reads triggered by ceded cells.",
            progress.refreshes,
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `name{labels}` into the metric name and the optional label
/// body, validating label syntax (`key="value"` pairs, escaped values).
fn split_series(series: &str) -> Result<(&str, Option<&str>), String> {
    match series.find('{') {
        None => Ok((series, None)),
        Some(open) => {
            let name = &series[..open];
            let rest = &series[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces in {series:?}"))?;
            if close != rest.len() - 1 {
                return Err(format!("trailing text after labels in {series:?}"));
            }
            Ok((name, Some(&rest[..close])))
        }
    }
}

fn unescape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a label body into `(key, unescaped value)` pairs in
/// declaration order.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    // Walk `key="value"` pairs; values may contain escaped quotes.
    let mut pairs = Vec::new();
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {body:?}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label {key:?} value is not quoted"));
        }
        let mut end = None;
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {body:?}"))?;
        pairs.push((key.to_owned(), unescape_label(&after[1..end])));
        rest = &after[end + 1..];
        if rest.is_empty() {
            return Ok(pairs);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("expected ',' between labels in {body:?}"))?;
    }
}

/// One parsed sample from a Prometheus text scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name (including any `_total`/`_bucket` suffix).
    pub name: String,
    /// Label pairs in declaration order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`/`-Inf`/`NaN` map to the float specials).
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_value(value: &str) -> Option<f64> {
    match value {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse::<f64>().ok(),
    }
}

/// Parses every sample line of a Prometheus text scrape into
/// structured [`PromSample`]s, skipping comments.
///
/// # Errors
///
/// Returns a description of the first malformed sample line.
pub fn parse_prometheus_samples(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let space = line
            .rfind(' ')
            .ok_or_else(|| format!("line {n}: no value separator in {line:?}"))?;
        let (series, value) = (&line[..space], &line[space + 1..]);
        let value =
            parse_value(value).ok_or_else(|| format!("line {n}: bad sample value {value:?}"))?;
        let (name, labels) = split_series(series).map_err(|e| format!("line {n}: {e}"))?;
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let labels = match labels {
            Some(body) => parse_labels(body).map_err(|e| format!("line {n}: {e}"))?,
            None => Vec::new(),
        };
        samples.push(PromSample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    Ok(samples)
}

/// The histogram-family key for a bucket or `_count` line: the base
/// metric name plus every label except `le`, so differently-labelled
/// histograms under one metric name (e.g. per-shard stage histograms)
/// are checked as independent cumulative families.
fn family_key(base: &str, labels: &[(String, String)]) -> String {
    let mut key = base.to_owned();
    for (k, v) in labels {
        if k != "le" {
            key.push_str(&format!("|{k}={v}"));
        }
    }
    key
}

/// Validates Prometheus text exposition format line by line, plus
/// histogram consistency: each `*_bucket` family (keyed by base name
/// *and* non-`le` labels) must be cumulative (nondecreasing), end with
/// `le="+Inf"`, and agree with its `_count`.
///
/// # Errors
///
/// Returns a description of the first malformed line or inconsistent
/// histogram family.
///
/// Returns the number of samples (non-comment lines) on success.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    validate_prometheus_inner(text, false)
}

/// [`validate_prometheus`] plus metadata strictness: every sample must
/// belong to a family announced by both a `# HELP` and a `# TYPE`
/// line (resolving `_bucket`/`_sum`/`_count` suffixes to their
/// histogram base). This is the contract `pcap serve`'s `/metrics`
/// endpoint is held to.
///
/// # Errors
///
/// Returns the first malformed line, inconsistent histogram family, or
/// sample whose family is missing `# HELP`/`# TYPE` metadata.
pub fn validate_prometheus_strict(text: &str) -> Result<usize, String> {
    validate_prometheus_inner(text, true)
}

fn validate_prometheus_inner(text: &str, strict: bool) -> Result<usize, String> {
    let mut samples = 0usize;
    // family key → (bucket cumulative counts in order, +Inf value)
    let mut families: Vec<(String, Vec<u64>, Option<u64>)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name {name:?}"));
                    }
                    match parts.next() {
                        Some(ty @ ("counter" | "gauge" | "histogram" | "summary" | "untyped")) => {
                            typed.push((name.to_owned(), ty.to_owned()));
                        }
                        other => return Err(format!("line {n}: bad TYPE {other:?}")),
                    }
                }
                Some("HELP") => {
                    if let Some(name) = parts.next() {
                        helped.push(name.to_owned());
                    }
                }
                Some("EOF") => {}
                _ => return Err(format!("line {n}: unrecognized comment {line:?}")),
            }
            continue;
        }
        let space = line
            .rfind(' ')
            .ok_or_else(|| format!("line {n}: no value separator in {line:?}"))?;
        let (series, value) = (&line[..space], &line[space + 1..]);
        if parse_value(value).is_none() {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        let (name, labels) = split_series(series).map_err(|e| format!("line {n}: {e}"))?;
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let labels = match labels {
            Some(body) => parse_labels(body).map_err(|e| format!("line {n}: {e}"))?,
            None => Vec::new(),
        };
        samples += 1;
        if strict {
            // Resolve the sample to the family name metadata is
            // declared under: histogram series use the base name.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    typed
                        .iter()
                        .any(|(t, ty)| t == base && ty == "histogram")
                        .then_some(base)
                })
                .unwrap_or(name);
            if !typed.iter().any(|(t, _)| t == family) {
                return Err(format!("line {n}: sample {name} has no # TYPE metadata"));
            }
            if !helped.iter().any(|h| h == family) {
                return Err(format!("line {n}: sample {name} has no # HELP metadata"));
            }
        }
        if let Some(base) = name.strip_suffix("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {n}: bucket without le label"))?;
            let cumulative = value
                .parse::<u64>()
                .map_err(|_| format!("line {n}: non-integer bucket count {value:?}"))?;
            let key = family_key(base, &labels);
            let idx = match families.iter().position(|(b, _, _)| *b == key) {
                Some(idx) => idx,
                None => {
                    families.push((key, Vec::new(), None));
                    families.len() - 1
                }
            };
            let family = &mut families[idx];
            if let Some(prev) = family.1.last() {
                if cumulative < *prev {
                    return Err(format!(
                        "line {n}: bucket counts for {base} not cumulative ({cumulative} < {prev})"
                    ));
                }
            }
            family.1.push(cumulative);
            if le == "+Inf" {
                family.2 = Some(cumulative);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Ok(total) = value.parse::<u64>() {
                counts.push((family_key(base, &labels), total));
            }
        }
    }
    for (key, _, inf) in &families {
        let inf = inf.ok_or_else(|| format!("histogram {key} missing le=\"+Inf\" bucket"))?;
        if let Some((_, total)) = counts.iter().find(|(b, _)| b == key) {
            if inf != *total {
                return Err(format!(
                    "histogram {key}: +Inf bucket {inf} != _count {total}"
                ));
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineObserver, WorkerStats};

    #[test]
    fn rendered_exposition_validates_strictly() {
        let recorder = TraceRecorder::new();
        recorder.counter_add("runs", 5);
        recorder.observe_us("prepare_us", 3);
        recorder.observe_us("prepare_us", 900);
        recorder.task_done("cell:mozilla×PCAP", 120);
        recorder.worker_done(WorkerStats {
            scope: "warm_up".to_owned(),
            worker: 0,
            tasks: 1,
            busy_us: 120,
            elapsed_us: 130,
        });
        let text = render_prometheus(&recorder);
        let samples = validate_prometheus_strict(&text).expect("valid exposition");
        assert!(samples > 40, "two histograms plus counters: {samples}");
        assert!(text.contains("pcap_runs_total 5"));
        assert!(text.contains("# HELP pcap_runs_total"));
        assert!(text.contains("# TYPE pcap_prepare_us histogram"));
        assert!(text.contains("pcap_prepare_us_count 2"));
        assert!(text.contains("pcap_prepare_us_sum 903"));
        assert!(text.contains("pcap_worker_wait_us{scope=\"warm_up\",worker=\"0\"} 10"));
        assert!(text.contains("pcap_slowest_task_us{task=\"cell:mozilla×PCAP\"} 120"));
    }

    /// Pins the one histogram writer byte for byte: an unlabelled
    /// series (as the recorder export writes it) and a `shard="1"`
    /// series (as the daemon's per-shard stage families write it),
    /// covering the zero bucket, interior buckets and the `+Inf` clamp.
    #[test]
    fn histogram_writer_output_is_pinned() {
        let mut plain = LogHistogram::new();
        for v in [0, 3, 900] {
            plain.record(v);
        }
        let mut shard = LogHistogram::new();
        for v in [12, 130, 2_000_000_000] {
            shard.record(v);
        }
        let mut out = String::new();
        write_histogram(&mut out, "pcap_prepare_us", "", &plain, 903);
        write_histogram(
            &mut out,
            "pcap_serve_stage_eval_us",
            "shard=\"1\"",
            &shard,
            2_000_000_142,
        );
        assert_eq!(
            out,
            "pcap_prepare_us_bucket{le=\"0\"} 1\n\
pcap_prepare_us_bucket{le=\"1\"} 1\n\
pcap_prepare_us_bucket{le=\"3\"} 2\n\
pcap_prepare_us_bucket{le=\"7\"} 2\n\
pcap_prepare_us_bucket{le=\"15\"} 2\n\
pcap_prepare_us_bucket{le=\"31\"} 2\n\
pcap_prepare_us_bucket{le=\"63\"} 2\n\
pcap_prepare_us_bucket{le=\"127\"} 2\n\
pcap_prepare_us_bucket{le=\"255\"} 2\n\
pcap_prepare_us_bucket{le=\"511\"} 2\n\
pcap_prepare_us_bucket{le=\"1023\"} 3\n\
pcap_prepare_us_bucket{le=\"2047\"} 3\n\
pcap_prepare_us_bucket{le=\"4095\"} 3\n\
pcap_prepare_us_bucket{le=\"8191\"} 3\n\
pcap_prepare_us_bucket{le=\"16383\"} 3\n\
pcap_prepare_us_bucket{le=\"32767\"} 3\n\
pcap_prepare_us_bucket{le=\"65535\"} 3\n\
pcap_prepare_us_bucket{le=\"131071\"} 3\n\
pcap_prepare_us_bucket{le=\"262143\"} 3\n\
pcap_prepare_us_bucket{le=\"524287\"} 3\n\
pcap_prepare_us_bucket{le=\"1048575\"} 3\n\
pcap_prepare_us_bucket{le=\"2097151\"} 3\n\
pcap_prepare_us_bucket{le=\"4194303\"} 3\n\
pcap_prepare_us_bucket{le=\"8388607\"} 3\n\
pcap_prepare_us_bucket{le=\"16777215\"} 3\n\
pcap_prepare_us_bucket{le=\"33554431\"} 3\n\
pcap_prepare_us_bucket{le=\"67108863\"} 3\n\
pcap_prepare_us_bucket{le=\"134217727\"} 3\n\
pcap_prepare_us_bucket{le=\"268435455\"} 3\n\
pcap_prepare_us_bucket{le=\"536870911\"} 3\n\
pcap_prepare_us_bucket{le=\"1073741823\"} 3\n\
pcap_prepare_us_bucket{le=\"+Inf\"} 3\n\
pcap_prepare_us_sum 903\n\
pcap_prepare_us_count 3\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"0\"} 0\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"1\"} 0\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"3\"} 0\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"7\"} 0\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"15\"} 1\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"31\"} 1\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"63\"} 1\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"127\"} 1\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"255\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"511\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"1023\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"2047\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"4095\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"8191\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"16383\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"32767\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"65535\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"131071\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"262143\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"524287\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"1048575\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"2097151\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"4194303\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"8388607\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"16777215\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"33554431\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"67108863\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"134217727\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"268435455\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"536870911\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"1073741823\"} 2\n\
pcap_serve_stage_eval_us_bucket{shard=\"1\",le=\"+Inf\"} 3\n\
pcap_serve_stage_eval_us_sum{shard=\"1\"} 2000000142\n\
pcap_serve_stage_eval_us_count{shard=\"1\"} 3\n"
        );
    }

    #[test]
    fn journal_progress_render_validates_strictly() {
        let progress = crate::JournalProgress::new();
        progress.add("resumed", 3);
        progress.add("computed", 2);
        progress.add("torn_bytes", 17);
        let text = render_journal_progress(&progress.snapshot());
        validate_prometheus_strict(&text).expect("journal scrape validates");
        assert!(text.contains("pcap_journal_resumed_total 3"));
        assert!(text.contains("pcap_journal_computed_total 2"));
        assert!(text.contains("pcap_journal_torn_bytes_total 17"));
        assert!(text.contains("pcap_journal_ceded_total 0"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("metric").is_err());
        assert!(validate_prometheus("1metric 2").is_err());
        assert!(validate_prometheus("metric notanumber").is_err());
        assert!(validate_prometheus("metric{le=\"unterminated} 1").is_err());
        assert!(validate_prometheus("# BOGUS comment").is_err());
        // Non-cumulative buckets.
        let text = "m_bucket{le=\"1\"} 5\nm_bucket{le=\"+Inf\"} 3\n";
        assert!(validate_prometheus(text)
            .unwrap_err()
            .contains("not cumulative"));
        // +Inf disagrees with _count.
        let text = "m_bucket{le=\"+Inf\"} 3\nm_count 4\n";
        assert!(validate_prometheus(text).unwrap_err().contains("!= _count"));
        // Missing +Inf bucket entirely.
        let text = "m_bucket{le=\"1\"} 3\n";
        assert!(validate_prometheus(text).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn per_label_histogram_families_are_checked_independently() {
        // Two shards interleaved under one metric name: cumulative
        // within each shard even though the raw sequence dips.
        let text = "\
m_bucket{shard=\"0\",le=\"1\"} 5
m_bucket{shard=\"0\",le=\"+Inf\"} 9
m_bucket{shard=\"1\",le=\"1\"} 2
m_bucket{shard=\"1\",le=\"+Inf\"} 3
m_count{shard=\"0\"} 9
m_count{shard=\"1\"} 3
";
        assert_eq!(validate_prometheus(text).expect("per-shard families"), 6);
        // A per-shard +Inf / _count mismatch is still caught.
        let bad = text.replace("m_count{shard=\"1\"} 3", "m_count{shard=\"1\"} 4");
        assert!(validate_prometheus(&bad).unwrap_err().contains("!= _count"));
    }

    #[test]
    fn strict_mode_requires_help_and_type() {
        let no_meta = "m_total 3\n";
        assert_eq!(validate_prometheus(no_meta), Ok(1), "lenient passes");
        assert!(validate_prometheus_strict(no_meta)
            .unwrap_err()
            .contains("# TYPE"));
        let type_only = "# TYPE m_total counter\nm_total 3\n";
        assert!(validate_prometheus_strict(type_only)
            .unwrap_err()
            .contains("# HELP"));
        let full = "# HELP m_total m.\n# TYPE m_total counter\nm_total 3\n";
        assert_eq!(validate_prometheus_strict(full), Ok(1));
        // Histogram series resolve through the base name.
        let hist = "\
# HELP h Latency.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 2
h_sum 9
h_count 2
";
        assert_eq!(validate_prometheus_strict(hist), Ok(3));
        // A counter whose name merely ends in _count must not resolve
        // to a nonexistent histogram base.
        let fake = "# HELP x_count X.\n# TYPE x_count counter\nx_count 1\n";
        assert_eq!(validate_prometheus_strict(fake), Ok(1));
    }

    #[test]
    fn samples_parse_with_labels_and_specials() {
        let text = "\
# HELP m M.
# TYPE m gauge
m{shard=\"3\",path=\"a\\\\b\\\"c\"} 4.5
m_inf +Inf
";
        let samples = parse_prometheus_samples(text).expect("parses");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "m");
        assert_eq!(samples[0].label("shard"), Some("3"));
        assert_eq!(samples[0].label("path"), Some("a\\b\"c"));
        assert_eq!(samples[0].label("missing"), None);
        assert_eq!(samples[0].value, 4.5);
        assert!(samples[1].value.is_infinite());
        assert!(parse_prometheus_samples("broken").is_err());
    }

    #[test]
    fn label_escaping_round_trips() {
        let recorder = TraceRecorder::new();
        recorder.task_done("cell:\"quoted\"\\path", 7);
        let text = render_prometheus(&recorder);
        validate_prometheus(&text).expect("escaped labels still validate");
        assert!(text.contains("task=\"cell:\\\"quoted\\\"\\\\path\""));
        let samples = parse_prometheus_samples(&text).expect("parses");
        let slowest = samples
            .iter()
            .find(|s| s.name == "pcap_slowest_task_us")
            .expect("slowest gauge");
        assert_eq!(slowest.label("task"), Some("cell:\"quoted\"\\path"));
    }
}

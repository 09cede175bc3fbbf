//! Self-test of the span instrument: a busy-wait injected around one
//! layer call must raise that layer's self time alone, by about the
//! injected amount.

use pcap_perfbench::trace::{median, Tracer};
use pcap_perfbench::{fleet, Options};
use std::time::Duration;

const DELAY: Duration = Duration::from_millis(20);

fn traced_fleet(inject: Option<(&'static str, Duration)>) -> Tracer {
    let options = Options {
        seed: 7,
        seconds: Duration::from_millis(1),
        trace: true,
        inject,
        stall: None,
        size: Some(6),
    };
    let outcome = fleet::run(&options);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
    outcome.tracer.expect("traced run keeps its spans")
}

/// Median self time of one call into `layer`, in seconds. Medians,
/// because other tenants of a shared host slow whole stretches of a
/// run.
fn per_call_s(tracer: &Tracer, layer: &str) -> f64 {
    let calls: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.self_ns() as f64 / 1e9)
        .collect();
    assert!(!calls.is_empty(), "no {layer} spans");
    median(&calls)
}

/// One test function: both runs time the same code, so they must not
/// share the machine with each other.
#[test]
fn injected_busy_wait_moves_only_its_layer() {
    let base = traced_fleet(None);
    let hit = traced_fleet(Some(("filter", DELAY)));
    let delay = DELAY.as_secs_f64();
    let rise = per_call_s(&hit, "filter") - per_call_s(&base, "filter");
    assert!(
        rise > 0.8 * delay && rise < 1.5 * delay,
        "filter rose {rise:.4} s per call for {delay:.4} s injected"
    );
    for layer in ["generate", "engine", "core"] {
        let moved = per_call_s(&hit, layer) - per_call_s(&base, layer);
        assert!(
            moved.abs() < 0.3 * delay,
            "{layer} moved {moved:.4} s per call while only filter was delayed"
        );
    }
}

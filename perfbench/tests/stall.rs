//! Guard against coordinated omission: a generator stall in the
//! open-loop workload must show up both as generator lateness and in
//! the run-latency tail, because latency counts from each run's due
//! time rather than from when the late generator got round to it.

use pcap_perfbench::serve::{self, Mode};
use pcap_perfbench::Options;
use std::time::Duration;

const STALL: Duration = Duration::from_millis(150);

fn paced(trace: bool, stall: Option<Duration>) -> pcap_perfbench::Outcome {
    let options = Options {
        seed: 3,
        seconds: Duration::from_millis(1),
        trace,
        inject: None,
        stall,
        size: Some(6),
    };
    let outcome = serve::run(&options, Mode::Paced);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.errors);
    outcome
}

#[test]
fn generator_stall_shows_in_lateness_and_latency_tail() {
    let stall_ms = STALL.as_secs_f64() * 1e3;
    let base = paced(false, None).end_to_end["op_p95_ms"];
    let stalled = paced(false, Some(STALL)).end_to_end["op_p95_ms"];
    assert!(
        stalled > base + stall_ms / 3.0,
        "run p95 {stalled:.1} ms with a {stall_ms} ms stall vs {base:.1} ms without"
    );
    let late = paced(true, Some(STALL)).layers["serve.gen_late_p95_ms"];
    assert!(
        late > stall_ms / 3.0,
        "generator late p95 {late:.1} ms after a {stall_ms} ms stall"
    );
    let calm = paced(true, None).layers["serve.gen_late_p95_ms"];
    assert!(
        calm < stall_ms / 3.0,
        "generator late p95 {calm:.1} ms without a stall"
    );
}

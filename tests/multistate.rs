//! Acceptance tests for the ladder charger: a single-state ladder equal
//! to the Table 2 disk must be **byte-identical** to the two-state
//! charger across the whole `app × manager` grid — reports, decision
//! streams and replayed audit energy — and the ski-rental descent must
//! stay within its 2× competitive bound against the clairvoyant oracle
//! on every application.

use pcap_disk::{LadderPolicy, MultiStateParams};
use pcap_dpm::prelude::*;
use pcap_obs::NullPipeline;
use pcap_report::{Workbench, GOLDEN_SEED, GRID_KINDS};
use pcap_sim::{
    audit_prepared, evaluate, records_to_jsonl, AuditCollector, NullObserver, PreparedTrace,
};

fn golden_bench() -> Workbench {
    Workbench::generate_par(GOLDEN_SEED, SimConfig::paper(), 0).expect("paper workloads generate")
}

/// One unobserved evaluation through the ladder charger.
fn ladder_report(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    ladder: &MultiStateParams,
    policy: &dyn LadderPolicy,
) -> AppReport {
    let ladder = Some((ladder, policy));
    evaluate(
        prepared,
        config,
        kind,
        ladder,
        &mut NullObserver,
        &NullPipeline,
    )
    .0
}

#[test]
fn single_state_ladder_is_byte_identical_across_the_grid() {
    let bench = golden_bench();
    bench.warm_up(&GRID_KINDS, 0);
    let ladder = MultiStateParams::from_disk(&bench.config().disk);
    for trace_idx in 0..bench.traces().len() {
        let prepared = bench.prepared(trace_idx);
        for kind in GRID_KINDS {
            let cell = format!("{} × {}", bench.traces()[trace_idx].app, kind.label());
            let legacy = bench.report(trace_idx, kind);
            let multi = ladder_report(
                prepared,
                bench.config(),
                kind,
                &ladder,
                &pcap_disk::PredictiveJump,
            );
            let a = serde_json::to_string(&legacy).expect("report serializes");
            let b = serde_json::to_string(&multi).expect("report serializes");
            assert_eq!(a, b, "{cell} diverged from the two-state engine");

            // The decision streams, not just their sums, must agree.
            let two_state = audit_prepared(prepared, bench.config(), kind);
            assert!(
                two_state.ladder_bottoms.is_empty(),
                "{cell}: the two-state path reported ladder bottoms"
            );
            let mut collector = AuditCollector::new();
            let (report, stats) = evaluate(
                prepared,
                bench.config(),
                kind,
                Some((&ladder, &pcap_disk::PredictiveJump)),
                &mut collector,
                &NullPipeline,
            );
            let audit = collector.finish(report);
            assert_eq!(
                audit.report, multi,
                "{cell}: the observer perturbed the ladder"
            );
            let ladder_jsonl = records_to_jsonl(&audit.records);
            let two_state_jsonl = records_to_jsonl(&two_state.records);
            let first_diff = ladder_jsonl
                .lines()
                .zip(two_state_jsonl.lines())
                .position(|(a, b)| a != b);
            assert!(
                ladder_jsonl == two_state_jsonl,
                "{cell}: decision streams diverged ({} vs {} records, first differing: {first_diff:?})",
                audit.records.len(),
                two_state.records.len()
            );
            assert_eq!(
                audit.audit_energy, two_state.audit_energy,
                "{cell}: replayed audit energy diverged"
            );
            let decisions = audit.records.len();
            assert_eq!(
                audit.ladder_bottoms.len(),
                decisions,
                "{cell}: one bottom per decision"
            );
            let stats = stats.expect("a ladder evaluation returns its stats");
            assert_eq!(stats.total_gaps(), decisions as u64, "{cell}");
        }
    }
}

#[test]
fn ski_rental_is_two_competitive_on_every_app() {
    let bench = golden_bench();
    let ladder = MultiStateParams::mobile_ata();
    let ski = pcap_disk::SkiRental::new(&ladder);
    let kind = PowerManagerKind::PCAP;
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let prepared = bench.prepared(trace_idx);
        let rental = ladder_report(prepared, bench.config(), kind, &ladder, &ski);
        let oracle = ladder_report(
            prepared,
            bench.config(),
            kind,
            &ladder,
            &pcap_disk::OracleLadder,
        );
        // Competitive ratio on gap energy: the part a descent policy
        // can influence (busy I/O energy is policy-independent).
        let gap = |r: &AppReport| r.energy.total().0 - r.energy.busy.0;
        let ratio = gap(&rental) / gap(&oracle);
        assert!(
            ratio <= 2.0,
            "{}: ski-rental ratio {ratio:.4} exceeds the 2x bound",
            trace.app
        );
        assert!(
            ratio >= 1.0 - 1e-9,
            "{}: oracle must lower-bound",
            trace.app
        );
    }
}

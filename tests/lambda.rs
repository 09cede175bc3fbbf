//! Competitive-ratio verification harness for the learning-augmented
//! λ-ladder policy.
//!
//! Pins the measured energy ratio of `LambdaLadder` against
//! `OracleLadder` to the consistency/robustness envelope computed by
//! `lambda_bounds`, on three progressively nastier input classes:
//!
//! (a) proptest-random gap sequences with random predictions, over
//!     arbitrary valid ladders — per-gap *and* aggregate ratios;
//! (b) adversarially searched gap sequences (straddling every switch
//!     time and breakeven) with the worst prediction per gap;
//! (c) the six paper applications through the full multi-state engine
//!     at prediction-error rates {0, 0.1, 0.5, 1.0}, where λ = 1 must
//!     also reproduce ski-rental byte-identically.

use pcap_disk::{
    descent_energy, lambda_bounds, GapContext, Joules, LadderPolicy, LambdaLadder, LowPowerState,
    MultiStateParams, OracleLadder, SkiRental, Watts,
};
use pcap_dpm::prelude::*;
use pcap_obs::NullPipeline;
use pcap_report::{Workbench, GOLDEN_SEED};
use pcap_sim::{evaluate, NullObserver, PreparedTrace};
use pcap_types::SimDuration;
use pcap_workload::{adversarial_gaps, worst_case_search, NoisyVotes};
use proptest::prelude::*;

/// Builds a ladder that passes `validate` from raw generated numbers:
/// powers decrease by construction, and each state's entry energy is
/// bumped until its breakeven clears the previous state's (the
/// breakeven grows without bound in transition energy, so the fix-up
/// terminates).
fn build_ladder(idle: f64, specs: Vec<(f64, f64, f64, f64, f64)>) -> MultiStateParams {
    let idle_power = Watts(idle);
    let mut states = Vec::new();
    let mut power = idle;
    let mut prev_be = SimDuration::ZERO;
    for (i, (frac, entry_e, exit_e, entry_s, exit_s)) in specs.into_iter().enumerate() {
        power *= frac;
        let mut entry_energy = entry_e;
        loop {
            let state = LowPowerState {
                name: format!("s{i}"),
                power: Watts(power),
                entry_energy: Joules(entry_energy),
                entry_time: SimDuration::from_secs_f64(entry_s),
                exit_energy: Joules(exit_e),
                exit_time: SimDuration::from_secs_f64(exit_s),
            };
            let be = state
                .breakeven_against(idle_power)
                .expect("power below idle");
            if be > prev_be {
                prev_be = be;
                states.push(state);
                break;
            }
            entry_energy = entry_energy * 1.7 + 0.05;
        }
    }
    MultiStateParams { idle_power, states }
}

fn arb_ladder() -> impl Strategy<Value = MultiStateParams> {
    (
        0.5f64..3.0,
        prop::collection::vec(
            (
                0.2f64..0.9,
                0.01f64..2.0,
                0.01f64..2.0,
                0.0f64..1.5,
                0.0f64..1.5,
            ),
            1..5,
        ),
    )
        .prop_map(|(idle, specs)| build_ladder(idle, specs))
}

/// Per-gap policy and oracle energies for one (gap, prediction) pair.
fn gap_costs(
    ladder: &MultiStateParams,
    policy: &LambdaLadder,
    gap: SimDuration,
    pred: Option<usize>,
) -> (f64, f64, Option<usize>) {
    let ctx = GapContext {
        shutdown_at: pred.map(|_| SimDuration::ZERO),
        target: pred.unwrap_or(0),
        gap,
    };
    let mut plan = Vec::new();
    policy.plan(ladder, &ctx, &mut plan);
    let alg = descent_energy(ladder, &plan, gap).0.total().0;
    OracleLadder.plan(
        ladder,
        &GapContext {
            shutdown_at: None,
            target: 0,
            gap,
        },
        &mut plan,
    );
    let opt = descent_energy(ladder, &plan, gap).0.total().0;
    (alg, opt, plan.first().map(|s| s.state))
}

proptest! {
    /// (a) Random gap sequences with random predictions on arbitrary
    /// ladders: every per-gap ratio obeys robustness, correct
    /// predictions obey consistency, and the whole-sequence aggregate
    /// ratio (the quantity whole-app simulations measure) obeys
    /// robustness too, by the mediant inequality.
    #[test]
    fn random_traces_respect_the_lambda_envelope(
        ladder in arb_ladder(),
        pct in 0u32..=100,
        gaps in prop::collection::vec((1u64..240_000_000, prop::option::of(0usize..4)), 1..40),
    ) {
        let lambda = f64::from(pct) / 100.0;
        let policy = LambdaLadder::new(&ladder, lambda);
        let bounds = lambda_bounds(&ladder, lambda);
        let (mut alg_total, mut opt_total) = (0.0f64, 0.0f64);
        for (gap_us, pred) in gaps {
            let gap = SimDuration::from_micros(gap_us);
            let pred = pred.map(|t| t.min(ladder.states.len() - 1));
            let (alg, opt, correct) = gap_costs(&ladder, &policy, gap, pred);
            alg_total += alg;
            opt_total += opt;
            if opt <= 0.0 {
                continue;
            }
            let ratio = alg / opt;
            prop_assert!(
                ratio <= bounds.robustness * (1.0 + 1e-9),
                "λ={lambda} gap={gap_us}µs pred={pred:?}: per-gap {ratio} > robustness {}",
                bounds.robustness
            );
            if pred == correct {
                prop_assert!(
                    ratio <= bounds.consistency * (1.0 + 1e-9),
                    "λ={lambda} gap={gap_us}µs: correct-pred {ratio} > consistency {}",
                    bounds.consistency
                );
            }
        }
        if opt_total > 0.0 {
            let aggregate = alg_total / opt_total;
            prop_assert!(
                aggregate <= bounds.robustness * (1.0 + 1e-9),
                "λ={lambda}: aggregate {aggregate} > robustness {}",
                bounds.robustness
            );
        }
    }

    /// (b) for arbitrary ladders: the adversarial straddle suite never
    /// outruns the computed envelope — if this fails, `lambda_bounds`
    /// missed a breakpoint.
    #[test]
    fn adversarial_search_never_beats_the_computed_bounds(
        ladder in arb_ladder(),
        pct in 0u32..=100,
    ) {
        let lambda = f64::from(pct) / 100.0;
        let policy = LambdaLadder::new(&ladder, lambda);
        let bounds = lambda_bounds(&ladder, lambda);
        let gaps = adversarial_gaps(&ladder, policy.switch_times());
        if let Some(worst) = worst_case_search(&ladder, &policy, &gaps, false) {
            prop_assert!(
                worst.ratio <= bounds.robustness * (1.0 + 1e-9),
                "λ={lambda}: {worst:?} > robustness {}",
                bounds.robustness
            );
        }
        if let Some(worst) = worst_case_search(&ladder, &policy, &gaps, true) {
            prop_assert!(
                worst.ratio <= bounds.consistency * (1.0 + 1e-9),
                "λ={lambda}: correct-pred {worst:?} > consistency {}",
                bounds.consistency
            );
        }
    }
}

/// (b) on the reference ladder: the straddle adversary has teeth — at
/// λ = 1 it attains the computed supremum exactly, which a uniform
/// sweep never finds.
#[test]
fn adversary_attains_the_supremum_on_the_reference_ladder() {
    let ladder = MultiStateParams::mobile_ata();
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let policy = LambdaLadder::new(&ladder, lambda);
        let bounds = lambda_bounds(&ladder, lambda);
        let gaps = adversarial_gaps(&ladder, policy.switch_times());
        let worst = worst_case_search(&ladder, &policy, &gaps, false).expect("non-empty suite");
        assert!(
            worst.ratio <= bounds.robustness * (1.0 + 1e-9),
            "λ={lambda}: {worst:?} vs {bounds:?}"
        );
        if lambda == 1.0 {
            assert!(
                (worst.ratio - bounds.robustness).abs() < 1e-12,
                "λ=1 adversary must attain the supremum: {worst:?} vs {bounds:?}"
            );
        }
    }
}

/// One PCAP evaluation of `prepared` through the ladder charger.
fn ladder_report(
    prepared: &PreparedTrace,
    config: &SimConfig,
    ladder: &MultiStateParams,
    policy: &dyn LadderPolicy,
) -> AppReport {
    let kind = PowerManagerKind::PCAP;
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

/// (c) The six paper applications through the full multi-state engine,
/// at every acceptance error rate: aggregate gap-energy ratios stay
/// inside the robustness envelope for every λ, and λ = 1 at e = 0
/// reproduces ski-rental byte-for-byte.
#[test]
fn six_apps_across_error_rates_respect_the_envelope() {
    let bench =
        Workbench::generate_par(GOLDEN_SEED, SimConfig::paper(), 0).expect("workloads generate");
    let ladder = MultiStateParams::mobile_ata();
    let ski = SkiRental::new(&ladder);
    let gap_energy = |r: &pcap_sim::AppReport| r.energy.total().0 - r.energy.busy.0;
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let prepared = bench.prepared(trace_idx);
        let config = bench.config();
        let oracle = ladder_report(prepared, config, &ladder, &OracleLadder);
        let opt = gap_energy(&oracle);
        let rental = ladder_report(prepared, config, &ladder, &ski);
        let ski_json = serde_json::to_string(&rental).expect("report serializes");
        for lambda in [0.0, 0.5, 1.0] {
            let policy = LambdaLadder::new(&ladder, lambda);
            let bound = lambda_bounds(&ladder, lambda).robustness;
            for rate in [0.0, 0.1, 0.5, 1.0] {
                let noisy = NoisyVotes::new(&policy, rate, 0xACCE55);
                let out = ladder_report(prepared, config, &ladder, &noisy);
                let ratio = gap_energy(&out) / opt;
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "{} λ={lambda} e={rate}: beat the clairvoyant oracle ({ratio})",
                    trace.app
                );
                assert!(
                    ratio <= bound * (1.0 + 1e-9),
                    "{} λ={lambda} e={rate}: ratio {ratio} exceeds robustness {bound}",
                    trace.app
                );
                if lambda == 1.0 && rate == 0.0 {
                    let json = serde_json::to_string(&out).expect("report serializes");
                    assert_eq!(
                        json, ski_json,
                        "{}: λ=1 must be bitwise ski-rental",
                        trace.app
                    );
                }
            }
        }
    }
}

/// The tradeoff the λ-knob is *for*, demonstrated end to end on real
/// app traces: with clean votes, trusting them (low λ) must not lose
/// to ignoring them at high error rates; with fully adversarial votes,
/// ski-rental (λ = 1) must beat full trust (λ = 0).
#[test]
fn lambda_trades_consistency_for_robustness_on_real_traces() {
    let bench =
        Workbench::generate_par(GOLDEN_SEED, SimConfig::paper(), 0).expect("workloads generate");
    let ladder = MultiStateParams::mobile_ata();
    let gap_energy = |r: &pcap_sim::AppReport| r.energy.total().0 - r.energy.busy.0;
    let full = LambdaLadder::new(&ladder, 0.0);
    let none = LambdaLadder::new(&ladder, 1.0);
    let (mut trusting_clean, mut ski_clean) = (0.0f64, 0.0f64);
    let (mut trusting_bad, mut ski_bad) = (0.0f64, 0.0f64);
    for trace_idx in 0..bench.traces().len() {
        let prepared = bench.prepared(trace_idx);
        let config = bench.config();
        let eval = |policy: &LambdaLadder, rate: f64| {
            let noisy = NoisyVotes::new(policy, rate, 0xBAD5EED);
            gap_energy(&ladder_report(prepared, config, &ladder, &noisy))
        };
        trusting_clean += eval(&full, 0.0);
        ski_clean += eval(&none, 0.0);
        trusting_bad += eval(&full, 1.0);
        ski_bad += eval(&none, 1.0);
    }
    assert!(
        trusting_clean < ski_clean,
        "with clean votes, trusting them must save energy: {trusting_clean} vs {ski_clean}"
    );
    assert!(
        ski_bad < trusting_bad,
        "with adversarial votes, ski-rental must win: {ski_bad} vs {trusting_bad}"
    );
}

//! Compare adaptive reconfiguration policies against static energy-mode
//! annotations on the adaptive-buffering tracker workload.
//!
//! Runs the standard policy lineup (`static`, `pin-small`, `pin-big`,
//! `reactive`, `ewma`) plus a per-scenario offline oracle over a grid of
//! harvest scenarios, and prints the completion matrix with deltas
//! against the static baseline. On the seeded square-wave trace no
//! static capacity tier wins both the strong and the weak phase, so the
//! adaptive policies come out ahead — and the oracle, replaying the best
//! recorded first pass, bounds everyone from above.
//!
//! Run with: `cargo run --release --example policy_compare`
//! (or `-- --smoke` for the quick single-scenario CI configuration).

use capy_units::Watts;
use capybara_suite::apps::adaptive::{compare_policies, TrackerScenario};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let mut square = TrackerScenario::benchmark(7);
    if smoke {
        // Two strong/weak alternations instead of four: a few seconds of
        // wall time, same qualitative ranking.
        square.cycles = 2;
    }
    let mut scenarios = vec![("square", square)];
    if !smoke {
        scenarios.push((
            "steady-strong",
            TrackerScenario::steady(Watts::from_milli(50.0)),
        ));
        scenarios.push((
            "steady-weak",
            TrackerScenario::steady(Watts::from_micro(200.0)),
        ));
    }

    let (cmp, oracle_reports) = compare_policies(&scenarios, 0);

    print!("{:<10}", "policy");
    for s in &cmp.scenarios {
        print!(" {s:>14}");
    }
    println!();
    for (p, label) in cmp.policies.iter().enumerate() {
        print!("{label:<10}");
        for s in 0..cmp.scenarios.len() {
            print!(" {:>14}", cmp.completions(p, s));
        }
        println!();
    }
    println!();

    for (s, scenario) in cmp.scenarios.iter().enumerate() {
        let best = cmp.best_policy(s);
        let d = cmp.delta(best, 0, s);
        println!(
            "{scenario}: best = {} ({:+} completions vs static annotations)",
            cmp.policies[best], d.completions
        );
    }
    for ((label, _), report) in scenarios.iter().zip(&oracle_reports) {
        println!(
            "oracle[{label}] replays the '{}' first pass",
            report.scores[report.winner].0
        );
    }

    // The smoke configuration doubles as a CI gate: the adaptive EWMA
    // policy must beat every static configuration on the square trace.
    let ewma = cmp
        .policies
        .iter()
        .position(|p| *p == "ewma")
        .expect("ewma in lineup");
    let oracle = cmp.policies.len() - 1;
    for p in 0..3 {
        assert!(
            cmp.completions(ewma, 0) > cmp.completions(p, 0),
            "ewma must beat the static policy '{}'",
            cmp.policies[p]
        );
    }
    for s in 0..cmp.scenarios.len() {
        for p in 0..cmp.policies.len() {
            assert!(
                cmp.completions(oracle, s) >= cmp.completions(p, s),
                "oracle must bound '{}' on '{}'",
                cmp.policies[p],
                cmp.scenarios[s]
            );
        }
    }
    println!();
    println!("ok: ewma beats every static configuration on the square trace,");
    println!("    and the oracle bounds every policy on every scenario.");
}

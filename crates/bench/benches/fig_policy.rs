//! Policy figure: adaptive reconfiguration policies vs static
//! annotations (the `capybara::policy` comparison harness).
//!
//! Runs the adaptive-buffering tracker workload over a {policy ×
//! scenario} grid: every policy of the standard lineup plus a
//! per-scenario offline [`Oracle`](capybara::policy::Oracle) computed
//! from recorded first passes. The matrix shows where adaptation pays:
//! on steady traces the best static tier ties the adaptive policies, but
//! on the seeded square-wave trace no static tier wins both phases —
//! `ewma` strictly beats every static configuration and the oracle
//! bounds every policy from above.

use capy_apps::adaptive::{compare_policies, TrackerScenario, STATIC_POLICIES};
use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_units::Watts;

fn main() {
    figure_header(
        "Policy",
        "adaptive reconfiguration policies vs static annotations",
    );

    let scenarios = [
        ("square", TrackerScenario::benchmark(FIGURE_SEED)),
        (
            "steady-strong",
            TrackerScenario::steady(Watts::from_milli(50.0)),
        ),
        (
            "steady-weak",
            TrackerScenario::steady(Watts::from_micro(200.0)),
        ),
    ];
    let (cmp, oracle_reports) = compare_policies(&scenarios, 0);

    // Completion matrix, one row per policy.
    print!("  {:<10}", "policy");
    for s in &cmp.scenarios {
        print!(" {s:>14}");
    }
    println!();
    for (p, label) in cmp.policies.iter().enumerate() {
        print!("  {label:<10}");
        for s in 0..cmp.scenarios.len() {
            print!(" {:>14}", cmp.completions(p, s));
        }
        println!();
    }
    println!();

    // Per-scenario winners and deltas against the static annotation
    // baseline (row 0).
    for (s, scenario) in cmp.scenarios.iter().enumerate() {
        let best = cmp.best_policy(s);
        println!(
            "  {scenario}: best = {} ({} completions)",
            cmp.policies[best],
            cmp.completions(best, s)
        );
        for p in 1..cmp.policies.len() {
            let d = cmp.delta(p, 0, s);
            println!(
                "    {:<10} vs static: {:+6} completions, {:+9.1} s charging, {:+7.3} s mean pause, {:+5} failures",
                cmp.policies[p], d.completions, d.charge_time, d.mean_charge_time, d.power_failures
            );
        }
    }
    println!();

    // Oracle provenance: which recorded first pass each oracle replays.
    for ((label, _), report) in scenarios.iter().zip(&oracle_reports) {
        let (winner, score) = &report.scores[report.winner];
        println!("  oracle[{label}] replays '{winner}' (first-pass score {score})");
    }
    println!();

    // The acceptance properties, computed from the matrix itself.
    let ewma = cmp
        .policies
        .iter()
        .position(|p| *p == "ewma")
        .expect("ewma in lineup");
    let oracle = cmp.policies.len() - 1;
    let square = 0;
    let adaptive_wins =
        (0..STATIC_POLICIES).all(|p| cmp.completions(ewma, square) > cmp.completions(p, square));
    let oracle_bounds = (0..cmp.scenarios.len()).all(|s| {
        (0..cmp.policies.len()).all(|p| cmp.completions(oracle, s) >= cmp.completions(p, s))
    });
    println!("  ewma beats every static configuration on 'square': {adaptive_wins}");
    println!("  oracle bounds every policy on every scenario:     {oracle_bounds}");
    sweep_footer(&cmp.report);
}

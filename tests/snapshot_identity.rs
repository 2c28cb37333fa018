//! Bit-identity gates for [`Simulator::snapshot`] / `restore`.
//!
//! The snapshot-based kill grid is only sound if restore-then-run is
//! *byte-for-byte* indistinguishable from an uninterrupted run: same
//! event log, same run summary, same clocks, same final rail-voltage
//! bits. These tests check that contract property-style — a seeded loop
//! of snapshot points per scenario — on the TA mission under Capy-R and
//! Capy-P and on every checked-in single-device manifest, after
//! `inject_power_failure`, and with an armed `FaultPlan` whose faults
//! strike after the snapshot.

use std::fs;
use std::path::Path;
use std::time::Duration;

use capy_units::rng::DetRng;
use capy_units::{SimDuration, SimTime};
use capybara_suite::apps::events::{fit_span, poisson_events};
use capybara_suite::apps::ta;
use capybara_suite::manifest::{compile, parse_manifest};
use capybara_suite::power::harvester::Harvester;
use capybara_suite::prelude::*;
use capybara_suite::sweep::RunSummary;

const SEED: u64 = 0x5AA9;

fn ta_events() -> Vec<SimTime> {
    let mut ev = poisson_events(
        &mut DetRng::seed_from_u64(SEED),
        SimDuration::from_secs(40),
        5,
        SimDuration::from_secs(30),
    );
    fit_span(&mut ev, SimDuration::from_secs(240));
    ev
}

/// Asserts two simulators are observationally identical, bit for bit.
fn assert_sims_identical<H: Harvester, C: SimContext>(
    a: &Simulator<H, C>,
    b: &Simulator<H, C>,
    label: &str,
) {
    assert_eq!(a.events(), b.events(), "{label}: event logs diverge");
    assert_eq!(
        RunSummary::from_sim(a, Duration::ZERO),
        RunSummary::from_sim(b, Duration::ZERO),
        "{label}: run summaries diverge"
    );
    assert_eq!(a.now(), b.now(), "{label}: simulated clocks diverge");
    assert_eq!(
        a.power().rail_voltage(a.now()).get().to_bits(),
        b.power().rail_voltage(b.now()).get().to_bits(),
        "{label}: final rail voltage diverges"
    );
}

/// The property: run the scenario uninterrupted to the horizon; then for
/// a seeded sample of snapshot instants, run to the instant, snapshot,
/// keep running, restore into a *fresh* simulator, and run the restored
/// copy to the horizon. Both the donor (which kept running past its
/// snapshot) and the restored copy must be bit-identical to the
/// uninterrupted run.
fn check_snapshot_identity<H, C>(build: impl Fn() -> Simulator<H, C>, horizon: SimTime, label: &str)
where
    H: Harvester + Clone,
    C: SimContext + Clone,
{
    let mut rng = DetRng::seed_from_u64(SEED);
    let mut straight = build();
    straight.run_until(horizon);

    for trial in 0..4 {
        let cut = SimTime::from_micros(rng.gen_range(1..horizon.as_micros()));
        let case = format!("{label}/trial{trial}@{cut}");

        let mut donor = build();
        donor.run_until(cut);
        let snap = donor.snapshot();
        assert_eq!(snap.now(), donor.now(), "{case}: snapshot clock");

        // Taking a snapshot must not perturb the donor.
        donor.run_until(horizon);
        assert_sims_identical(&donor, &straight, &format!("{case}/donor"));

        // Restoring into a fresh simulator resumes bit-identically.
        let mut restored = build();
        restored.restore(&snap);
        restored.run_until(horizon);
        assert_sims_identical(&restored, &straight, &format!("{case}/restored"));
    }
}

/// Snapshot identity on the plain TA mission, on Capy-R and on Capy-P,
/// whose burst and pre-burst path the kill grid resumes from snapshots.
#[test]
fn snapshot_restore_is_bit_identical_on_ta() {
    let events = ta_events();
    for variant in [Variant::CapyR, Variant::CapyP] {
        check_snapshot_identity(
            || ta::build(variant, events.clone(), SEED),
            SimTime::from_secs(300),
            &format!("ta/{variant:?}"),
        );
    }
}

/// Snapshot identity on every checked-in single-device manifest, as
/// `compile` builds it: the manifest context, policies, faults and
/// harvesters all survive a snapshot.
#[test]
fn snapshot_restore_is_bit_identical_on_checked_in_manifests() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("manifests");
    let mut paths: Vec<_> = fs::read_dir(&dir)
        .expect("manifests/ reads")
        .map(|entry| entry.expect("entry reads").path())
        .filter(|path| path.extension().is_some_and(|e| e == "capy"))
        .collect();
    paths.sort();
    let mut checked = 0;
    for path in paths {
        let text = fs::read_to_string(&path).expect("manifest reads");
        let manifest = parse_manifest(&text).expect("manifest parses");
        if manifest.fleet.is_some() {
            continue;
        }
        let horizon = compile(&manifest)
            .expect("manifest compiles")
            .limits
            .max_sim
            .expect("every manifest has a horizon");
        check_snapshot_identity(
            || compile(&manifest).expect("manifest compiles").sim,
            horizon,
            &path.display().to_string(),
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} single-device manifests found");
}

/// Snapshot identity when power failures are injected: the donor and
/// the restored copy are each killed at the same post-snapshot instant
/// and must recover identically (the restored RNG streams, policy
/// state, and NV state all line up).
#[test]
fn snapshot_restore_is_bit_identical_across_injected_kills() {
    let events = ta_events();
    let horizon = SimTime::from_secs(300);
    let build = || ta::build(Variant::CapyR, events.clone(), SEED);
    let mut rng = DetRng::seed_from_u64(SEED ^ 0xDEAD);
    for trial in 0..3 {
        let cut = SimTime::from_micros(rng.gen_range(1..horizon.as_micros() / 2));
        let kill = SimTime::from_micros(rng.gen_range(cut.as_micros()..horizon.as_micros()));
        let case = format!("kill/trial{trial}@{cut}->{kill}");

        let run_from = |sim: &mut Simulator<_, _>| {
            if sim.run_until(kill) == StepResult::Progress {
                sim.inject_power_failure();
                sim.run_until(horizon);
            }
        };

        let mut donor = build();
        donor.run_until(cut);
        let snap = donor.snapshot();
        run_from(&mut donor);

        let mut restored = build();
        restored.restore(&snap);
        run_from(&mut restored);

        assert_sims_identical(&restored, &donor, &case);
    }
}

/// Snapshot identity with an armed [`FaultPlan`]: faults scheduled as
/// simulated physics (a mid-mission stuck-closed switch, a weakened
/// latch, and a correlated rail surge) strike identically whether the
/// run was snapshotted before the strike or not.
#[test]
fn snapshot_restore_is_bit_identical_with_armed_fault_plans() {
    let events = ta_events();
    let plan = FaultPlan::new()
        .switch_stuck_closed(SimTime::from_secs(140), BankId(0))
        .weak_latch(SimTime::from_secs(170), BankId(1), 3.0)
        .rail_surge(
            SimTime::from_secs(200),
            &[BankId(0), BankId(1)],
            SurgeEffect::Derate {
                cap_derate: 0.6,
                esr_scale: 1.5,
            },
        );
    check_snapshot_identity(
        || {
            let mut sim = ta::build(Variant::CapyR, events.clone(), SEED);
            plan.arm(&mut sim);
            sim
        },
        SimTime::from_secs(300),
        "ta+faults",
    );
}

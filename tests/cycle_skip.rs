//! Skip-versus-step identity: a run that advances steady-state cycles
//! without stepping them (`Simulator::run_limited`) must leave exactly
//! what a run that steps every task boundary leaves, bit for bit.
//!
//! The reference, [`stepped`], loops over the public `Simulator::step`
//! and applies `run_limited`'s horizon, step-budget, energy-budget and
//! watchdog checks itself, so the library needs no switch. Each case
//! compiles one scenario twice, runs one copy each way and compares the
//! event log, the `RunSummary`, the execution statistics, the clock,
//! per-task completions, the final mode, every bank's voltage bits and
//! cycle count, the delivered-energy bits and the charge-segment count.

use std::fmt::Write as _;

use capy_manifest::{
    compile, parse_manifest, CompiledFleet, CompiledScenario, HarvesterSpec, ManifestCtx,
    ManifestHarvester, ScenarioManifest, TaskSpec,
};
use capy_power::bank::BankId;
use capy_power::harvester::Harvester;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::SimTime;
use capybara::sim::{
    RunLimits, RunOutcome, SimContext, SimEvent, Simulator, StepResult, STALL_STEP_BUDGET,
};
use capybara::sweep::RunSummary;
use capybara::Variant;

type Device = Simulator<ManifestHarvester, ManifestCtx>;

const HOUR_S: f64 = 3_600.0;

/// `run_limited` without cycle skipping: every boundary is stepped.
/// Returns the outcome and the number of steps taken.
fn stepped<H: Harvester, C: SimContext>(
    sim: &mut Simulator<H, C>,
    limits: &RunLimits,
) -> (RunOutcome, u64) {
    let watchdog = limits.no_progress_steps.unwrap_or(STALL_STEP_BUDGET);
    let mut no_advance = 0;
    let mut steps = 0;
    loop {
        if limits.max_sim.is_some_and(|end| sim.now() >= end) {
            return (RunOutcome::HorizonReached, steps);
        }
        let before = sim.now();
        match sim.step() {
            StepResult::Progress => {
                steps += 1;
                if sim.now() > before {
                    no_advance = 0;
                } else {
                    no_advance += 1;
                    if no_advance >= watchdog {
                        return (RunOutcome::NoProgress { steps: no_advance }, steps);
                    }
                }
                if limits.max_steps.is_some_and(|max| steps >= max) {
                    return (RunOutcome::StepBudget { steps }, steps);
                }
                let delivered = sim.power().energy_delivered();
                if limits.max_energy.is_some_and(|max| delivered > max) {
                    return (RunOutcome::EnergyBudget { delivered }, steps);
                }
            }
            StepResult::Stopped => return (RunOutcome::Stopped, steps),
            StepResult::Stalled { steps: s } => return (RunOutcome::Stalled { steps: s }, steps),
        }
    }
}

/// Everything a finished run leaves that a reader can see, in bits,
/// with its event log cut to `events` entries.
fn fingerprint<H: Harvester, C: SimContext>(
    sim: &Simulator<H, C>,
    outcome: RunOutcome,
    completions: &[u64],
    events: usize,
) -> String {
    let mut out = String::new();
    let power = sim.power();
    let events = &sim.events()[..events];
    let _ = writeln!(out, "outcome {outcome:?} now {}", sim.now().as_micros());
    let _ = writeln!(out, "stats {:?}", sim.exec_stats());
    // `RunSummary::from_sim` is this summary plus the lines around it.
    let _ = writeln!(out, "summary {:?}", RunSummary::from_events(events));
    let _ = writeln!(out, "completions {completions:?}");
    let _ = writeln!(out, "mode {:?}", sim.runtime_state().current_mode());
    let _ = writeln!(
        out,
        "energy {:#x} segments {}",
        power.energy_delivered().get().to_bits(),
        power.charge_segments()
    );
    for i in 0..power.bank_count() {
        let bank = power.bank(BankId(i)).expect("bank exists");
        let _ = writeln!(
            out,
            "bank {i} {:#x} cycles {}",
            bank.voltage().get().to_bits(),
            bank.cycles()
        );
    }
    for e in events {
        let _ = writeln!(out, "{e:?}");
    }
    out
}

fn completions(sim: &Device, tasks: usize) -> Vec<u64> {
    (0..tasks).map(|i| sim.ctx().completions(i)).collect()
}

/// Runs `compiled` skipping and a clone stepping; asserts identical
/// results and returns the skipping run's share of steps skipped.
fn assert_skip_matches_step(label: &str, compiled: &CompiledScenario, tasks: usize) -> f64 {
    let mut skip = compiled.sim.clone();
    let mut step = compiled.sim.clone();
    let skip_outcome = skip.run_limited(&compiled.limits);
    let (step_outcome, steps) = stepped(&mut step, &compiled.limits);
    let mut logged = skip.events().len();
    if matches!(skip_outcome, RunOutcome::NoProgress { .. }) {
        // `run_limited` logs the stall it declares; the reference cannot.
        assert!(
            matches!(skip.events().last(), Some(SimEvent::Stalled { .. })),
            "{label}: the watchdog logged no stall"
        );
        logged -= 1;
    }
    let skip_print = fingerprint(&skip, skip_outcome, &completions(&skip, tasks), logged);
    let step_print = fingerprint(
        &step,
        step_outcome,
        &completions(&step, tasks),
        step.events().len(),
    );
    if skip_print != step_print {
        let first = skip_print
            .lines()
            .zip(step_print.lines())
            .position(|(a, b)| a != b);
        panic!(
            "{label}: skipping diverged from stepping at line {first:?}\nskip: {:?}\nstep: {:?}",
            first.and_then(|i| skip_print.lines().nth(i)),
            first.and_then(|i| step_print.lines().nth(i)),
        );
    }
    assert_eq!(
        step.skip_stats().steps_skipped,
        0,
        "{label}: stepping skipped"
    );
    if steps == 0 {
        0.0
    } else {
        skip.skip_stats().steps_skipped as f64 / steps as f64
    }
}

fn manifest_at(text: &str, horizon_s: Option<f64>) -> ScenarioManifest {
    let mut m = parse_manifest(text).expect("manifest parses");
    if let Some(h) = horizon_s {
        m.limits.max_sim_seconds = h;
    }
    m
}

fn check_manifest(label: &str, m: &ScenarioManifest) -> f64 {
    let compiled = compile(m).expect("manifest compiles");
    assert_skip_matches_step(label, &compiled, m.tasks.len())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every checked-in single-device manifest and fixture, at its own
/// horizon and over an hour.
#[test]
fn checked_in_manifests_skip_bit_for_bit() {
    let mut files: Vec<String> = Vec::new();
    for dir in ["manifests", "tests/fixtures"] {
        for entry in std::fs::read_dir(dir).expect("directory lists") {
            let path = entry.expect("entry reads").path();
            if path.extension().is_some_and(|e| e == "capy") {
                files.push(path.to_string_lossy().into_owned());
            }
        }
    }
    files.sort();
    let mut checked = 0;
    for file in &files {
        let text = read(file);
        if parse_manifest(&text).expect("parses").fleet.is_some() {
            continue;
        }
        for horizon in [None, Some(HOUR_S)] {
            check_manifest(
                &format!("{file} @ {horizon:?}"),
                &manifest_at(&text, horizon),
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} single-device manifests found");
}

/// The `scenario_batch` draw `index`: `temperature_alarm.capy` with 2–8
/// mW of harvest, a 600–3600 s horizon, 4–12 samples per alert and a
/// 150–400 ms sampling sleep, the ranges of the benchmark's
/// `batch_manifest` (the same derivation, so draw `i` of seed 1 is the
/// benchmark's manifest `i`).
fn batch_draw(seed: u64, index: u64) -> ScenarioManifest {
    const TAG_BATCH: u64 = 4;
    let stream = derive_seed(derive_seed(seed, TAG_BATCH), index);
    let mut rng = DetRng::seed_from_u64(stream);
    let mut m = manifest_at(&read("manifests/temperature_alarm.capy"), None);
    m.seed = stream;
    m.harvester = HarvesterSpec::Constant {
        power_mw: rng.gen_range(200..801u64) as f64 / 100.0,
        voltage: 3.0,
    };
    m.limits.max_sim_seconds = rng.gen_range(600..3601u64) as f64;
    let sample: &mut TaskSpec = &mut m.tasks[0];
    sample.repeat = Some(rng.gen_range(4..13u64));
    sample.sleep_ms = Some(rng.gen_range(150..401u64) as f64);
    m
}

#[test]
fn seeded_batch_draws_skip_bit_for_bit_under_every_variant() {
    let mut compiled_variants = 0;
    let mut capy_p_shares = Vec::new();
    for index in 0..64 {
        for variant in Variant::ALL {
            let mut m = batch_draw(1, index);
            m.variant = variant;
            let Ok(compiled) = compile(&m) else {
                continue;
            };
            compiled_variants += 1;
            let label = format!("batch draw {index} under {variant:?}");
            let share = assert_skip_matches_step(&label, &compiled, m.tasks.len());
            if variant == Variant::CapyP {
                capy_p_shares.push(share);
            }
        }
    }
    assert!(compiled_variants >= 64 * 2, "{compiled_variants} runs");
    let mean = capy_p_shares.iter().sum::<f64>() / capy_p_shares.len() as f64;
    assert!(mean > 0.9, "batch draws skip only {mean:.3} of their steps");
}

/// A fleet manifest's compiled population over one hour.
fn hour_long_fleet(file: &str) -> (CompiledFleet, usize) {
    let m = manifest_at(&read(file), Some(HOUR_S));
    let fleet = CompiledFleet::new(&m, file).expect("fleet compiles");
    (fleet, m.tasks.len())
}

#[test]
fn stamped_fleet_devices_skip_bit_for_bit() {
    for file in ["manifests/fleet_smoke.capy", "manifests/fleet_trace.capy"] {
        let (fleet, tasks) = hour_long_fleet(file);
        let devices = fleet.spec().devices();
        let mut skipped = 0.0;
        for index in [0, 1, devices / 3, devices / 2, devices - 1] {
            let point = fleet.spec().device(index);
            let device = fleet.device(&point);
            skipped += assert_skip_matches_step(&format!("{file} device {index}"), &device, tasks);
        }
        assert!(skipped > 0.0, "{file}: no sampled device skipped");
    }
}

/// The alarm template over an hour, with its own limits replaced.
fn alarm_with(limits: impl FnOnce(&mut RunLimits)) -> CompiledScenario {
    let mut compiled = compile(&manifest_at(
        &read("manifests/temperature_alarm.capy"),
        Some(HOUR_S),
    ))
    .expect("compiles");
    limits(&mut compiled.limits);
    compiled
}

#[test]
fn limits_that_land_inside_a_skipped_stretch_trip_where_stepping_trips() {
    let full = alarm_with(|_| {});
    let mut reference = full.sim.clone();
    let (_, total_steps) = stepped(&mut reference, &full.limits);
    let total_energy = reference.power().energy_delivered();

    let cases: [(&str, CompiledScenario); 3] = [
        (
            "horizon",
            alarm_with(|l| l.max_sim = Some(SimTime::from_micros(1_234_567_891))),
        ),
        (
            "max_steps",
            alarm_with(|l| l.max_steps = Some(total_steps / 2 + 3)),
        ),
        (
            "max_energy",
            alarm_with(|l| l.max_energy = Some(total_energy * 0.6)),
        ),
    ];
    for (label, compiled) in cases {
        let share = assert_skip_matches_step(label, &compiled, 2);
        assert!(share > 0.5, "{label}: only {share:.3} of steps skipped");
    }
}

#[test]
fn faults_and_harvest_edges_inside_a_skipped_stretch_replay_exactly() {
    let base = read("manifests/temperature_alarm.capy");
    let fault = base.replace(
        "[limits]",
        "[faults]\nfault = degraded small 0.8 1.3 @ 1000.123457\n\n[limits]",
    );
    let edge = base.replace(
        "kind = constant\npower_mw = 4\nvoltage = 3",
        "kind = square-wave\npower_mw = 5\nvoltage = 3\non_ms = 700000\noff_ms = 20000\ncycles = 6",
    );
    assert_ne!(fault, base);
    assert_ne!(edge, base);
    for (label, text) in [("fault", fault), ("square-wave edge", edge)] {
        let share = check_manifest(label, &manifest_at(&text, Some(HOUR_S)));
        assert!(share > 0.5, "{label}: only {share:.3} of steps skipped");
    }
}

#[test]
fn a_zero_advance_loop_trips_the_watchdog_at_the_same_step() {
    let text = "schema = capy-scenario/v1\nname = spin\nvariant = pwr\n\n\
                [harvester]\nkind = constant\npower_mw = 4\nvoltage = 3\n\n\
                [bank small]\nparts = ceramic_x5r_400uf\nswitch = normally-closed\n\n\
                [mode only]\nbanks = small\n\n\
                [task spin]\nenergy = config only\ncompute_ms = 0\nthen = spin\n\n\
                [limits]\nmax_sim_seconds = 10\nno_progress_steps = 5000\n";
    let m = manifest_at(text, None);
    let compiled = compile(&m).expect("compiles");
    let mut sim = compiled.sim.clone();
    assert_eq!(
        sim.run_limited(&compiled.limits),
        RunOutcome::NoProgress { steps: 5000 }
    );
    assert_eq!(sim.skip_stats().steps_skipped, 0);
    check_manifest("zero-advance loop", &m);
}

#[test]
fn skipping_is_real_on_the_alarm_hour_and_absent_from_the_apps() {
    let share = check_manifest(
        "temperature_alarm.capy over an hour",
        &manifest_at(&read("manifests/temperature_alarm.capy"), Some(HOUR_S)),
    );
    assert!(share >= 0.9, "only {share:.3} of steps skipped");

    // The case-study apps declare no context key: they always step.
    let alarms = vec![SimTime::from_secs(150), SimTime::from_secs(400)];
    let horizon = SimTime::from_secs(600);
    for variant in [Variant::CapyR, Variant::CapyP] {
        let mut ta = capy_apps::ta::build(variant, alarms.clone(), 3);
        ta.run_until(horizon);
        assert_eq!(ta.skip_stats(), Default::default(), "TA {variant:?}");
        let mut csr = capy_apps::csr::build(variant, alarms.clone(), 3);
        csr.run_until(horizon);
        assert_eq!(csr.skip_stats(), Default::default(), "CSR {variant:?}");
        let mut grc =
            capy_apps::grc::build(variant, capy_apps::grc::GrcVariant::Fast, alarms.clone(), 3);
        grc.run_until(horizon);
        assert_eq!(grc.skip_stats(), Default::default(), "GRC {variant:?}");
    }
}

#[test]
fn snapshots_carry_the_skip_counters() {
    let compiled = alarm_with(|_| {});
    let mut sim = compiled.sim.clone();
    sim.run_limited(&compiled.limits);
    let stats = sim.skip_stats();
    assert!(stats.cycles_detected > 0 && stats.cycles_skipped > 0);
    assert!(stats.steps_skipped >= stats.cycles_skipped);
    let snap = sim.snapshot();
    let mut fresh = compiled.sim.clone();
    fresh.restore(&snap);
    assert_eq!(fresh.skip_stats(), stats);
}

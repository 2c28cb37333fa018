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
//! A TA run also compares its whole context: the sample and packet logs,
//! the non-volatile state and the generator. A run that records the
//! voltage trace also compares the trace's instants and voltage bits.
//! Orbit jumps, which advance whole periods of a periodic harvest, are
//! checked the same way, on orbital fleet devices and square waves.

use std::fmt::Write as _;

use capy_apps::ta::{self, TaCtx};
use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::{TaskId, Transition};
use capy_manifest::{
    compile, parse_manifest, CompiledFleet, CompiledScenario, HarvesterSpec, ManifestCtx,
    ManifestHarvester, ScenarioManifest, TaskSpec,
};
use capy_power::bank::{Bank, BankId};
use capy_power::harvester::{ConstantHarvester, Harvester, SolarPanel};
use capy_power::switch::SwitchKind;
use capy_power::system::PowerSystem;
use capy_power::technology::parts;
use capy_units::cycle::Cycle;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara::annotation::TaskEnergy;
use capybara::faults::FaultPlan;
use capybara::fleet::{FleetHarvester, SharedEnvironment};
use capybara::mode::EnergyMode;
use capybara::sim::{
    RunLimits, RunOutcome, SimContext, SimEvent, Simulator, SkipStats, StepResult,
    STALL_STEP_BUDGET,
};
use capybara::sweep::RunSummary;
use capybara::Variant;

type Device = Simulator<ManifestHarvester, ManifestCtx>;
type Ta = Simulator<SolarPanel, TaCtx>;

const HOUR_S: f64 = 3_600.0;
const DAY_S: f64 = 86_400.0;

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

/// What a skipping run skipped: its share of the steps the stepping run
/// took, and its counters.
struct Skipped {
    share: f64,
    stats: SkipStats,
}

/// Runs `compiled` skipping and a clone stepping; asserts identical
/// results and returns what the skipping run skipped.
fn assert_skip_matches_step(label: &str, compiled: &CompiledScenario, tasks: usize) -> Skipped {
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
    assert_same_print(label, &skip_print, &step_print);
    Skipped {
        share: skipped_share(label, &skip, &step, steps),
        stats: skip.skip_stats(),
    }
}

/// Panics at the first line where two fingerprints differ.
fn assert_same_print(label: &str, skip_print: &str, step_print: &str) {
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
}

/// The skipping run's share of the `steps` the stepping run took.
fn skipped_share<H: Harvester, C: SimContext>(
    label: &str,
    skip: &Simulator<H, C>,
    step: &Simulator<H, C>,
    steps: u64,
) -> f64 {
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

fn check_manifest(label: &str, m: &ScenarioManifest) -> Skipped {
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
            let share = assert_skip_matches_step(&label, &compiled, m.tasks.len()).share;
            if variant == Variant::CapyP {
                capy_p_shares.push(share);
            }
        }
    }
    assert!(compiled_variants >= 64 * 2, "{compiled_variants} runs");
    let mean = capy_p_shares.iter().sum::<f64>() / capy_p_shares.len() as f64;
    assert!(mean > 0.9, "batch draws skip only {mean:.3} of their steps");
}

/// A fleet manifest's compiled population over `horizon_s`, its text
/// edited by `edit`.
fn fleet_at(file: &str, horizon_s: f64, edit: impl Fn(String) -> String) -> (CompiledFleet, usize) {
    let m = manifest_at(&edit(read(file)), Some(horizon_s));
    let fleet = CompiledFleet::new(&m, file).expect("fleet compiles");
    (fleet, m.tasks.len())
}

/// Checks devices `indices` of `fleet` against stepping; returns the
/// orbits and steps they skipped, added up.
fn check_fleet(label: &str, (fleet, tasks): (CompiledFleet, usize), indices: &[u64]) -> SkipStats {
    let mut total = SkipStats::default();
    for &index in indices {
        let device = fleet.device(&fleet.spec().device(index));
        let stats =
            assert_skip_matches_step(&format!("{label} device {index}"), &device, tasks).stats;
        total.orbits_skipped += stats.orbits_skipped;
        total.steps_skipped += stats.steps_skipped;
    }
    total
}

#[test]
fn stamped_fleet_devices_skip_bit_for_bit() {
    for file in ["manifests/fleet_smoke.capy", "manifests/fleet_trace.capy"] {
        let fleet = fleet_at(file, HOUR_S, |text| text);
        let devices = fleet.0.spec().devices();
        let stats = check_fleet(file, fleet, &[0, 1, devices / 3, devices / 2, devices - 1]);
        assert!(stats.steps_skipped > 0, "{file}: no sampled device skipped");
    }
}

/// The orbital fleet's devices jump whole 60 s orbits between its dips,
/// over an hour and over a day. The trace-driven fleet, with no
/// eclipse, declares no period and jumps none.
#[test]
fn orbital_devices_jump_whole_orbits_bit_for_bit() {
    let smoke = "manifests/fleet_smoke.capy";
    for horizon in [HOUR_S, DAY_S] {
        let label = format!("{smoke} @ {horizon}");
        let stats = check_fleet(&label, fleet_at(smoke, horizon, |t| t), &[0, 5, 47]);
        assert!(stats.orbits_skipped > 20, "{label}: {stats:?}");
    }
    let trace_fleet = "manifests/fleet_trace.capy";
    let stats = check_fleet(
        trace_fleet,
        fleet_at(trace_fleet, HOUR_S, |t| t),
        &[2, 9_000],
    );
    assert!(
        stats.steps_skipped > 0 && stats.orbits_skipped == 0,
        "{trace_fleet}: {stats:?}"
    );
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
        let share = assert_skip_matches_step(label, &compiled, 2).share;
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
        let share = check_manifest(label, &manifest_at(&text, Some(HOUR_S))).share;
        assert!(share > 0.5, "{label}: only {share:.3} of steps skipped");
    }
}

/// The alarm device under a 40 s on, 20 s off square wave of 120
/// cycles: a harvest that repeats every minute for two hours.
fn square_wave_alarm() -> String {
    let base = read("manifests/temperature_alarm.capy");
    let wave = base.replace(
        "kind = constant\npower_mw = 4\nvoltage = 3",
        "kind = square-wave\npower_mw = 6\nvoltage = 3\non_ms = 40000\noff_ms = 20000\ncycles = 120",
    );
    assert_ne!(wave, base);
    wave
}

/// A square-wave device jumps whole periods of its harvest, and a
/// horizon, a step budget, an energy budget and a fault that land
/// inside a stretch it would jump stop it where stepping stops.
#[test]
fn square_wave_orbits_and_the_limits_inside_them_replay_exactly() {
    let wave = square_wave_alarm();
    let full = compile(&manifest_at(&wave, Some(HOUR_S))).expect("compiles");
    let skipped = assert_skip_matches_step("square wave", &full, 2);
    assert!(
        skipped.stats.orbits_skipped > 20,
        "square wave: {:?}",
        skipped.stats
    );
    let mut reference = full.sim.clone();
    let (_, total_steps) = stepped(&mut reference, &full.limits);
    let total_energy = reference.power().energy_delivered();
    let with = |limits: &dyn Fn(&mut RunLimits)| {
        let mut compiled = full.clone();
        limits(&mut compiled.limits);
        compiled
    };
    let fault = wave.replace(
        "[limits]",
        "[faults]\nfault = degraded small 0.8 1.3 @ 1800.123457\n\n[limits]",
    );
    let cases = [
        (
            "horizon",
            with(&|l| l.max_sim = Some(SimTime::from_micros(2_345_678_901))),
        ),
        (
            "max_steps",
            with(&|l| l.max_steps = Some(total_steps / 2 + 3)),
        ),
        (
            "max_energy",
            with(&|l| l.max_energy = Some(total_energy * 0.6)),
        ),
        (
            "fault",
            compile(&manifest_at(&fault, Some(HOUR_S))).expect("compiles"),
        ),
    ];
    for (label, compiled) in cases {
        let stats = assert_skip_matches_step(label, &compiled, 2).stats;
        assert!(stats.orbits_skipped > 5, "{label}: {stats:?}");
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

/// The TA mission the benchmark's kill grid runs.
const TA_HORIZON: SimTime = SimTime::from_secs(600);

/// The benchmark's kill-grid TA arguments for `seed`: three alarms, one
/// in each of 100–160 s, 270–330 s and 440–500 s, and the TA seed (the
/// derivation of `benchmark/`'s `ta_schedule`, so seed 1 is its input).
fn ta_bench_schedule(seed: u64) -> (Vec<SimTime>, u64) {
    const TAG_KILL_GRID: u64 = 3;
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, TAG_KILL_GRID));
    let alarms = [100, 270, 440]
        .iter()
        .map(|&start| SimTime::from_micros((start + rng.gen_range(0..60u64)) * 1_000_000))
        .collect();
    (alarms, rng.next_u64())
}

/// Asserts that two TA runs, one skipping and one stepping, left the
/// same device and the same context.
fn assert_same_ta(label: &str, skip: (&Ta, RunOutcome), step: (&Ta, RunOutcome)) {
    let print =
        |(sim, outcome): (&Ta, RunOutcome)| fingerprint(sim, outcome, &[], sim.events().len());
    assert_same_print(label, &print(skip), &print(step));
    let (a, b) = (skip.0.ctx(), step.0.ctx());
    let first = a
        .samples
        .times()
        .iter()
        .zip(b.samples.times())
        .position(|(x, y)| x != y);
    assert!(
        first.is_none() && a.samples.len() == b.samples.len(),
        "{label}: sample logs differ from sample {first:?} ({} vs {} samples)",
        a.samples.len(),
        b.samples.len()
    );
    assert_eq!(a.packets, b.packets, "{label}: packet logs differ");
    // What is left: the non-volatile state, the generator and the clock.
    assert!(a == b, "{label}: contexts differ");
}

/// Runs `sim` to `horizon` skipping and a clone stepping; asserts
/// identical results and returns the skipping run's share of steps
/// skipped.
fn assert_ta_skip_matches_step(label: &str, sim: &Ta, horizon: SimTime) -> f64 {
    let limits = RunLimits::until(horizon);
    let mut skip = sim.clone();
    let mut step = sim.clone();
    let skip_outcome = skip.run_limited(&limits);
    let (step_outcome, steps) = stepped(&mut step, &limits);
    assert_same_ta(label, (&skip, skip_outcome), (&step, step_outcome));
    skipped_share(label, &skip, &step, steps)
}

#[test]
fn ta_skips_bit_for_bit_under_every_variant() {
    let (alarms, seed) = ta_bench_schedule(1);
    let section_6_2 = capy_apps::events::ta_schedule(&mut DetRng::seed_from_u64(9));
    for variant in Variant::ALL {
        let bench = ta::build(variant, alarms.clone(), seed);
        assert_ta_skip_matches_step(&format!("TA {variant:?} 600 s"), &bench, TA_HORIZON);
        let long = ta::build(variant, section_6_2.clone(), 9);
        assert_ta_skip_matches_step(&format!("TA {variant:?} §6.2"), &long, ta::HORIZON);
    }
}

/// The `faults` example's degradation case: Capy-P whose alarm-bank
/// switch sticks open at 120 s, with the self-test on.
#[test]
fn ta_with_a_stuck_open_alarm_bank_skips_bit_for_bit() {
    let alarms = [100, 260, 430].map(SimTime::from_secs).to_vec();
    let mut sim = ta::build(Variant::CapyP, alarms, 0x417);
    sim.set_degradation(true);
    FaultPlan::new()
        .switch_stuck_open(SimTime::from_secs(120), BankId(1))
        .arm(&mut sim);
    let share = assert_ta_skip_matches_step("stuck-open alarm bank", &sim, TA_HORIZON);
    assert!(share > 0.5, "only {share:.3} of steps skipped");
}

/// Kill instants on the benchmark's seed-1 TA mission: quiet windows,
/// each alarm's ramp and hold, just after its burst, and each latch
/// deadline ±1 µs of a stepped run.
fn ta_kill_instants(alarms: &[SimTime], build: impl Fn() -> Ta) -> Vec<SimTime> {
    let s = SimDuration::from_secs;
    let ms = SimDuration::from_millis;
    let us = SimDuration::from_micros;
    let mut kills: Vec<SimTime> = [30, 200, 380, 550].map(SimTime::from_secs).to_vec();
    for (&a, into) in alarms.iter().zip([ms(1_000), ms(2_500), ms(4_900)]) {
        kills.push(a + into);
    }
    for (&a, into) in alarms.iter().zip([s(10), s(25), ms(39_900)]) {
        kills.push(a + into);
    }
    kills.push(alarms[0] + s(40) + us(1));
    let mut sim = build();
    let mut deadlines = Vec::new();
    while sim.now() < TA_HORIZON && sim.step() == StepResult::Progress {
        for i in 0..sim.power().bank_count() {
            let deadline = sim
                .power()
                .switch(BankId(i))
                .expect("bank")
                .decay_deadline();
            if deadline < TA_HORIZON && !deadlines.contains(&deadline) {
                deadlines.push(deadline);
            }
        }
    }
    for &d in deadlines.iter().take(2) {
        kills.push(d - us(1));
        kills.push(d + us(1));
    }
    let bursts = sim.events().iter().filter_map(|e| match e {
        SimEvent::BurstActivated { at, .. } => Some(*at),
        _ => None,
    });
    kills.extend(bursts.take(3).map(|at| at + ms(1)));
    kills
}

#[test]
fn ta_kill_points_skip_bit_for_bit() {
    let (alarms, seed) = ta_bench_schedule(1);
    let build = || ta::build(Variant::CapyP, alarms.clone(), seed);
    let kills = ta_kill_instants(&alarms, build);
    assert!(kills.len() >= 16, "only {} kill instants", kills.len());
    let mut skipped = 0;
    for kill in kills {
        let label = format!("kill at {kill}");
        let (mut skip, mut step) = (build(), build());
        let landed = skip.run_limited(&RunLimits::until(kill));
        assert_eq!(landed, stepped(&mut step, &RunLimits::until(kill)).0);
        skip.inject_power_failure();
        step.inject_power_failure();
        let limits = RunLimits::until(TA_HORIZON);
        let skip_outcome = skip.run_limited(&limits);
        let (step_outcome, _) = stepped(&mut step, &limits);
        assert_same_ta(&label, (&skip, skip_outcome), (&step, step_outcome));
        skipped += skip.skip_stats().steps_skipped;
    }
    assert!(skipped > 0, "no kill point skipped");
}

/// `stats` as `[detected, cycles, orbits, steps]`, added to `total`.
fn add_stats(total: &mut [u64; 4], stats: SkipStats) {
    let counts = [
        stats.cycles_detected,
        stats.cycles_skipped,
        stats.orbits_skipped,
        stats.steps_skipped,
    ];
    for (sum, n) in total.iter_mut().zip(counts) {
        *sum += n;
    }
}

/// The skip counters over fixed seeded inputs, added up per input:
/// stamped `fleet_smoke` devices over an hour, which jump orbits,
/// `scenario_batch` draws and TA kill points, which jump cycles only.
/// The bit-for-bit tests above pass for a run that skips less, or not
/// at all; these exact totals do not. Debug builds leave an orbit
/// jump's last period to stepping, so the fleet's totals are pinned per
/// build profile.
#[test]
fn skip_counts_on_fixed_inputs_are_pinned() {
    let (fleet, _) = fleet_at("manifests/fleet_smoke.capy", HOUR_S, |t| t);
    let mut orbital = [0; 4];
    for index in 0..8 {
        let device = fleet.device(&fleet.spec().device(index));
        let mut sim = device.sim.clone();
        sim.run_limited(&device.limits);
        add_stats(&mut orbital, sim.skip_stats());
    }
    let mut batch = [0; 4];
    for index in 0..32 {
        let compiled = compile(&batch_draw(1, index)).expect("the draw compiles");
        let mut sim = compiled.sim.clone();
        sim.run_limited(&compiled.limits);
        add_stats(&mut batch, sim.skip_stats());
    }
    let (alarms, seed) = ta_bench_schedule(1);
    let build = || ta::build(Variant::CapyP, alarms.clone(), seed);
    let mut kills = [0; 4];
    for kill in ta_kill_instants(&alarms, build) {
        let mut sim = build();
        sim.run_limited(&RunLimits::until(kill));
        sim.inject_power_failure();
        sim.run_limited(&RunLimits::until(TA_HORIZON));
        add_stats(&mut kills, sim.skip_stats());
    }
    let want_orbital = if cfg!(debug_assertions) {
        [270, 2_009, 284, 89_114]
    } else {
        [218, 1_808, 308, 90_338]
    };
    assert_eq!(
        [orbital, batch, kills],
        [
            want_orbital,
            [32, 32_804, 0, 273_374],
            [77, 1_548, 0, 264_708]
        ],
        "[detected, cycles, orbits, steps] for the orbital devices, the batch draws \
         and the TA kill points"
    );
}

#[test]
fn skipping_is_real_on_the_alarm_hour_and_ta_and_absent_from_csr_and_grc() {
    let share = check_manifest(
        "temperature_alarm.capy over an hour",
        &manifest_at(&read("manifests/temperature_alarm.capy"), Some(HOUR_S)),
    )
    .share;
    assert!(share >= 0.9, "only {share:.3} of steps skipped");

    // TA's steady stretches between alarms skip; CSR and GRC declare no
    // context key, so they always step.
    let alarms = vec![SimTime::from_secs(150), SimTime::from_secs(400)];
    let horizon = SimTime::from_secs(600);
    for variant in [Variant::CapyR, Variant::CapyP] {
        let ta = ta::build(variant, alarms.clone(), 3);
        let share = assert_ta_skip_matches_step(&format!("TA {variant:?}"), &ta, horizon);
        assert!(
            share >= 0.7,
            "TA {variant:?}: only {share:.3} of steps skipped"
        );
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

/// A sampler's context: the smallest one that declares a steady state,
/// its sample count as a counter.
#[derive(Clone, Default)]
struct Sampler {
    samples: NvVar<u64>,
}

impl NvState for Sampler {
    fn commit_all(&mut self) {
        self.samples.commit();
    }
    fn abort_all(&mut self) {
        self.samples.abort();
    }
}

impl SimContext for Sampler {
    fn set_now(&mut self, _now: SimTime) {}

    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        self.samples.cycle_counter(c);
        true
    }
}

/// A duty-cycled sampler on one ceramic bank under `harvester`, with its
/// voltage trace recorded if `trace`: each sample charges, computes for
/// 5 ms and sleeps for 200 ms.
fn sampler<H: Harvester>(harvester: H, trace: bool) -> Simulator<H, Sampler> {
    let power = PowerSystem::builder()
        .harvester(harvester)
        .bank(
            Bank::builder("small")
                .with_n(parts::ceramic_x5r_100uf(), 4)
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    Simulator::builder(Variant::CapyP, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .task(
            "sample",
            TaskEnergy::Config(EnergyMode(0)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
            |c: &mut Sampler| {
                c.samples.update(|n| n + 1);
                Transition::Sleep {
                    duration: SimDuration::from_millis(200),
                    then: TaskId(0),
                }
            },
        )
        .record_trace(trace)
        .build(Sampler::default())
}

#[test]
fn a_recorded_voltage_trace_skips_bit_for_bit() {
    let harvester = ConstantHarvester::new(Watts::from_milli(1.0), Volts::new(3.0));
    let sim = sampler(harvester, true);
    let limits = RunLimits::until(SimTime::from_secs(600));
    let (mut skip, mut step) = (sim.clone(), sim.clone());
    let skip_outcome = skip.run_limited(&limits);
    let (step_outcome, steps) = stepped(&mut step, &limits);
    let print = |sim: &Simulator<ConstantHarvester, Sampler>, outcome| {
        let samples = [*sim.ctx().samples.committed()];
        fingerprint(sim, outcome, &samples, sim.events().len())
    };
    assert_same_print(
        "traced sampler",
        &print(&skip, skip_outcome),
        &print(&step, step_outcome),
    );
    let bits = |sim: &Simulator<ConstantHarvester, Sampler>| -> Vec<(u64, u64)> {
        let trace = sim.trace().expect("the trace is recorded");
        trace
            .iter()
            .map(|&(t, v)| (t.as_micros(), v.get().to_bits()))
            .collect()
    };
    let (skip_trace, step_trace) = (bits(&skip), bits(&step));
    let first = skip_trace.iter().zip(&step_trace).position(|(a, b)| a != b);
    assert!(
        first.is_none() && skip_trace.len() == step_trace.len(),
        "traces differ from point {first:?} ({} vs {} points)",
        skip_trace.len(),
        step_trace.len()
    );
    let share = skipped_share("traced sampler", &skip, &step, steps);
    assert!(share > 0.5, "only {share:.3} of steps skipped");
}

/// The benchmark's fixed-capacity sleeper on the empty context `()`: a
/// 5 ms task, then a 1,000 s sleep that browns the bank out.
fn unit_sleeper() -> Simulator<ConstantHarvester, ()> {
    let power = PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(10.0),
            Volts::new(3.0),
        ))
        .bank(
            Bank::builder("sleeper")
                .with(parts::ceramic_x5r_400uf())
                .with(parts::tantalum_330uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
        .task(
            "duty-cycle",
            TaskEnergy::Unannotated,
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
            |_c: &mut ()| Transition::Sleep {
                duration: SimDuration::from_secs(1_000),
                then: TaskId(0),
            },
        )
        .build(())
}

/// The orbital fleet's sense/report device under `harvester`, on a
/// context `ctx` its bodies ignore: an 8 ms sense on the small bank, a
/// 200 ms sleep, and a 40 ms report on both banks.
fn sensor<H: Harvester, C: SimContext + 'static>(harvester: H, ctx: C) -> Simulator<H, C> {
    let power = PowerSystem::builder()
        .harvester(harvester)
        .bank(
            Bank::builder("small")
                .with(parts::ceramic_x5r_400uf())
                .with(parts::tantalum_330uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .bank(
            Bank::builder("big").with(parts::edlc_7_5mf()).build(),
            SwitchKind::NormallyOpen,
        )
        .build();
    Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("batch", &[BankId(0), BankId(1)])
        .task(
            "sense",
            TaskEnergy::Config(EnergyMode(0)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(8))),
            |_c: &mut C| Transition::Sleep {
                duration: SimDuration::from_millis(200),
                then: TaskId(1),
            },
        )
        .task(
            "report",
            TaskEnergy::Config(EnergyMode(1)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(40))),
            |_c: &mut C| Transition::To(TaskId(0)),
        )
        .build(ctx)
}

/// Runs `sim` to `horizon` skipping and a clone stepping; asserts
/// identical results and returns what the skipping run skipped.
fn assert_sim_skip_matches_step<H: Harvester + Clone, C: SimContext + Clone>(
    label: &str,
    sim: &Simulator<H, C>,
    horizon: SimTime,
) -> Skipped {
    let limits = RunLimits::until(horizon);
    let (mut skip, mut step) = (sim.clone(), sim.clone());
    let skip_outcome = skip.run_limited(&limits);
    let (step_outcome, steps) = stepped(&mut step, &limits);
    let print = |sim: &Simulator<H, C>, outcome| fingerprint(sim, outcome, &[], sim.events().len());
    assert_same_print(
        label,
        &print(&skip, skip_outcome),
        &print(&step, step_outcome),
    );
    Skipped {
        share: skipped_share(label, &skip, &step, steps),
        stats: skip.skip_stats(),
    }
}

/// The empty context declares an empty steady state, so a `()` device
/// skips: the benchmark's deep-discharge sleeper over ten hours, and a
/// sensor under a 45 s eclipse with dips, which jumps whole orbits, with
/// and without the recorded harvest trace (whose samples hold the
/// period off until its last one, at 600 s).
#[test]
fn a_unit_context_device_skips_bit_for_bit() {
    let sleeper = unit_sleeper();
    let skipped = assert_sim_skip_matches_step("() sleeper", &sleeper, SimTime::from_secs(36_000));
    assert!(skipped.share > 0.8, "() sleeper: {:?}", skipped.stats);

    let orbit = SharedEnvironment::orbital(SimDuration::from_secs(45), 0.6)
        .with_dips(
            5,
            2,
            SimDuration::from_secs(1_200),
            SimDuration::from_secs(3),
            0.2,
        )
        .shading(0.35)
        .expect("shading in range");
    let trace = capybara::fleet::parse_harvest_trace(&read("manifests/traces/cloudy_day.trace"))
        .expect("the checked-in trace parses");
    let traced = orbit.clone().with_trace(trace).expect("the trace is valid");
    let inner = ConstantHarvester::new(Watts::from_milli(4.0), Volts::new(3.0));
    for (label, env, orbits) in [("orbit", orbit, 40), ("traced orbit", traced, 20)] {
        let device = sensor(FleetHarvester::new(inner, 0.9, env, 0.4), ());
        let horizon = SimTime::from_secs(3_600);
        let skipped = assert_sim_skip_matches_step(label, &device, horizon);
        assert!(
            skipped.stats.orbits_skipped > orbits,
            "() sensor, {label}: {:?}",
            skipped.stats
        );
    }
}

/// A square wave cut into 1 s segments while lit: `lit` seconds at
/// 1 mW, then `dark` seconds dark, repeating from time zero. Each segment
/// end opens a steady window.
#[derive(Clone, Copy)]
struct SlicedWave {
    lit: u64,
    dark: u64,
}

impl SlicedWave {
    /// The whole second `t` lies in, and its phase in the period.
    fn second(&self, t: SimTime) -> (u64, u64) {
        let s = t.as_micros() / 1_000_000;
        (s, s % (self.lit + self.dark))
    }
}

impl Harvester for SlicedWave {
    fn power_at(&self, t: SimTime) -> Watts {
        if self.second(t).1 < self.lit {
            Watts::from_milli(1.0)
        } else {
            Watts::ZERO
        }
    }

    fn valid_until(&self, t: SimTime) -> SimTime {
        let (s, phase) = self.second(t);
        if phase < self.lit {
            SimTime::from_secs(s + 1)
        } else {
            SimTime::from_secs(s - phase + self.lit + self.dark)
        }
    }

    fn open_voltage(&self, t: SimTime) -> Volts {
        if self.second(t).1 < self.lit {
            Volts::new(3.0)
        } else {
            Volts::ZERO
        }
    }

    fn period(&self, _t: SimTime) -> Option<(SimDuration, SimTime)> {
        Some((SimDuration::from_secs(self.lit + self.dark), SimTime::MAX))
    }
}

/// A context that keys its clock's phase in `period`: inside a period
/// no state repeats, but a whole period can.
#[derive(Clone)]
struct Phase {
    period: SimDuration,
    now: SimTime,
}

impl NvState for Phase {
    fn commit_all(&mut self) {}
    fn abort_all(&mut self) {}
}

impl SimContext for Phase {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        c.word(self.now.as_micros() % self.period.as_micros());
        c.instant(&mut self.now);
        true
    }
}

/// A period with more window openings than the 64 the run keeps is
/// never jumped: under a 90 s square wave cut into 1 s segments while
/// lit, the sampler opens a window about every second of its 70 lit
/// seconds. Its 80 s twin, lit for 60, opens fewer and jumps whole
/// periods.
#[test]
fn a_period_with_more_openings_than_are_kept_is_stepped() {
    let horizon = SimTime::from_secs(3_600);
    let orbits = |lit| {
        let sim = sampler(SlicedWave { lit, dark: 20 }, false);
        let label = format!("sampler lit {lit} s of {}", lit + 20);
        assert_sim_skip_matches_step(&label, &sim, horizon)
            .stats
            .orbits_skipped
    };
    assert_eq!(orbits(70), 0);
    assert!(orbits(60) > 20);
}

/// A period that tapes more than the orbit tape's cap is never jumped:
/// a sensor whose context keys its phase in the eclipse period (so no
/// cycle repeats inside one) steps a whole 1,200 s orbit, which tapes
/// more than 32,768 entries. Its 300 s twin tapes less and jumps.
#[test]
fn a_period_that_outgrows_the_tape_is_stepped() {
    let horizon = SimTime::from_secs(7_200);
    let inner = ConstantHarvester::new(Watts::from_milli(4.0), Volts::new(3.0));
    let orbits = |period_s| {
        let period = SimDuration::from_secs(period_s);
        let env = SharedEnvironment::orbital(period, 0.6);
        let harvester = FleetHarvester::new(inner, 0.9, env, 0.4);
        let phase = Phase {
            period,
            now: SimTime::ZERO,
        };
        let label = format!("phase sensor, {period_s} s orbit");
        assert_sim_skip_matches_step(&label, &sensor(harvester, phase), horizon)
            .stats
            .orbits_skipped
    };
    assert_eq!(orbits(1_200), 0);
    assert!(orbits(300) > 10);
}

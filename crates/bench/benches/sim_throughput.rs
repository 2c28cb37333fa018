//! Performance benches for the simulator substrate itself: analytic
//! charging, ESR-aware discharge, full application minutes, and a sweep
//! throughput case — with a machine-readable perf trajectory.
//!
//! Besides the familiar per-case lines, this bench writes
//! `BENCH_sim_throughput.json` (path via `--out`, `--quick` for the CI
//! mode): ns/iter per micro case, steps/s per simulator case, and
//! points/s + worker utilization for the sweep case. CI runs the quick
//! mode on every change, so speedups (and regressions) accumulate as a
//! recorded trajectory.
//!
//! Self-contained timing harness (no external bench framework): each
//! case is warmed up, then run for a fixed wall-time budget. Mean and
//! min are both computed from the same summed per-iteration timings, so
//! the harness's own `Instant::now()` overhead biases neither.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use capy_apps::prelude::*;
use capy_apps::ta;
use capy_bench::FIGURE_SEED;
use capy_device::load::TaskLoad;
use capy_power::capacitor;
use capy_power::harvester::Harvester;
use capy_power::prelude::{Bank, ConstantHarvester, PowerSystem};
use capy_units::{Farads, Ohms, SimDuration, SimTime, Volts, Watts};
use capybara::faults::{explore_kill_grid, explore_kill_grid_replay, KillGridOptions};
use capybara::fleet::{
    parse_harvest_trace, run_fleet_on, DeviceOutcome, FleetSpec, SharedEnvironment,
};
use capybara::sweep::{run_sweep_on, SweepSpec};

// --- timing harness -----------------------------------------------------

#[derive(Clone, Copy)]
struct Timing {
    iters: u64,
    mean_ns: f64,
    min_ns: u64,
}

/// Times `f` for ~`budget` of wall time (after a warm-up) and prints a
/// stable one-line report.
fn bench_function<R>(name: &str, budget: Duration, mut f: impl FnMut() -> R) -> Timing {
    // Warm-up: let caches, branch predictors, and the allocator settle.
    let warmup_end = Instant::now() + budget / 10;
    while Instant::now() < warmup_end {
        black_box(f());
    }

    let mut iters: u64 = 0;
    let mut best = Duration::MAX;
    // Summed per-iteration time: the mean must exclude the harness's own
    // clock reads, exactly like the min does.
    let mut spent = Duration::ZERO;
    let started = Instant::now();
    while started.elapsed() < budget {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    let mean_ns = spent.as_nanos() as f64 / iters.max(1) as f64;
    println!(
        "{name:<40} {iters:>9} iters   mean {:>12.0} ns/iter   min {:>12} ns",
        mean_ns,
        best.as_nanos()
    );
    Timing {
        iters,
        mean_ns,
        min_ns: u64::try_from(best.as_nanos()).unwrap_or(u64::MAX),
    }
}

#[derive(Clone, Copy)]
struct SimStats {
    runs: u64,
    steps: u64,
    wall: Duration,
}

impl SimStats {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn ns_per_step(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.steps.max(1) as f64
    }
}

/// Builds and runs a simulator scenario to `horizon` repeatedly for
/// ~`budget` (after one warm-up run) and prints its step throughput.
fn bench_sim<H, C>(
    name: &str,
    budget: Duration,
    horizon: SimTime,
    build: impl Fn() -> Simulator<H, C>,
) -> SimStats
where
    H: Harvester,
    C: SimContext,
{
    let run_once = || {
        let mut sim = build();
        sim.run_until(horizon);
        sim.exec_stats().attempts
    };
    let _ = black_box(run_once()); // warm-up
    let mut stats = SimStats {
        runs: 0,
        steps: 0,
        wall: Duration::ZERO,
    };
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let steps = black_box(run_once());
        stats.wall += t0.elapsed();
        stats.steps += steps;
        stats.runs += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    println!(
        "{name:<40} {:>9} runs    {:>9} steps   {:>12.0} steps/s   {:>9.0} ns/step",
        stats.runs,
        stats.steps,
        stats.steps_per_sec(),
        stats.ns_per_step()
    );
    stats
}

// --- cases --------------------------------------------------------------

fn charge_bench_system() -> PowerSystem<ConstantHarvester> {
    let bank = Bank::builder("bench")
        .with(parts::ceramic_x5r_400uf())
        .with(parts::tantalum_330uf())
        .build();
    PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(10.0),
            Volts::new(3.0),
        ))
        .bank(bank, SwitchKind::NormallyClosed)
        .build()
}

fn bench_charge(budget: Duration) -> Timing {
    let sys = charge_bench_system();
    bench_function("power_system_charge_until_full", budget, || {
        let mut sys = sys.clone();
        let mut now = SimTime::ZERO;
        sys.charge_until_full(&mut now).expect("charges")
    })
}

fn bench_discharge(budget: Duration) -> (Timing, Timing) {
    let deep = bench_function("esr_discharge_deep", budget, || {
        capacitor::discharge(
            Farads::from_milli(11.0),
            Ohms::new(120.0),
            Volts::new(2.8),
            Watts::from_milli(4.0),
            Volts::new(0.9),
            SimDuration::from_secs(10),
        )
    });
    let shallow = bench_function("esr_discharge_shallow", budget, || {
        capacitor::discharge(
            Farads::from_milli(11.0),
            Ohms::new(120.0),
            Volts::new(2.8),
            Watts::from_milli(1.0),
            Volts::new(0.9),
            SimDuration::from_millis(10),
        )
    });
    (deep, shallow)
}

/// A fixed-capacity duty-cycle sleeper: a 5 ms task followed by a long
/// sleep whose quiescent drain browns the buffer out, forcing a recharge
/// every cycle. This is the charge-heavy shape the derived-rail cache
/// exists for: every charge and draw reads the same closed set. The `()`
/// context declares an empty steady state, but a timed run (about six
/// steps in 600 s) ends inside the skip engine's 32-boundary warm-up, so
/// every cycle is stepped, and each brown-out is a deep discharge the
/// ESR integrator resolves in full.
fn build_sleeper() -> Simulator<ConstantHarvester, ()> {
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

struct SweepStats {
    points: usize,
    workers: usize,
    wall: Duration,
    points_per_sec: f64,
    utilization: f64,
}

fn bench_sweep(horizon: SimTime) -> SweepStats {
    let events = vec![SimTime::from_secs(30)];
    let spec = SweepSpec::new("sim-throughput-ta", horizon)
        .base_seed(FIGURE_SEED)
        .axis("variant", &Variant::ALL);
    let (report, _) = run_sweep_on(
        &spec,
        0,
        |point| {
            let v = point.expect_axis::<Variant>("variant");
            ta::build(v, events.clone(), FIGURE_SEED)
        },
        |_, _| (),
    );
    let stats = SweepStats {
        points: report.runs.len(),
        workers: report.workers,
        wall: report.wall,
        points_per_sec: report.runs.len() as f64 / report.wall.as_secs_f64().max(1e-9),
        utilization: report.worker_utilization(),
    };
    println!(
        "{:<40} {:>9} points  {:>9} workers  {:>11.1} points/s   {:>8.0}% utilized",
        "ta_variant_sweep",
        stats.points,
        stats.workers,
        stats.points_per_sec,
        stats.utilization * 100.0
    );
    stats
}

struct KillGridStats {
    points: usize,
    wall: Duration,
    points_per_sec: f64,
    stepped_sim_s: f64,
}

/// A/B-runs the snapshot-based kill-grid explorer against the
/// replay-from-zero reference on a short TA mission: same report (the
/// explorers are gated bit-identical), very different cost. The
/// `kill_grid_points_per_s` series records the O(boundary-gap) win in
/// the perf trajectory.
fn bench_kill_grid(quick: bool) -> (KillGridStats, KillGridStats) {
    let horizon = SimTime::from_secs(600);
    let events: Vec<SimTime> = [100, 260, 430]
        .iter()
        .map(|&s| SimTime::from_secs(s))
        .collect();
    // A coarse checkpoint stride keeps the record pass cheap (capturing
    // at every boundary clones the growing event log O(boundaries)
    // times); kill points between checkpoints re-step the short gap.
    let options = KillGridOptions {
        snapshot_stride: 64,
        ..KillGridOptions::smoke(1, if quick { 16 } else { 48 })
    };
    let run = |snapshot: bool| {
        let build = || ta::build(Variant::CapyP, events.clone(), FIGURE_SEED);
        let t0 = Instant::now();
        let report = if snapshot {
            explore_kill_grid(horizon, &options, build, |_| Ok(()))
        } else {
            explore_kill_grid_replay(horizon, &options, build, |_| Ok(()))
        };
        let wall = t0.elapsed();
        assert!(report.is_clean(), "kill grid bench found violations");
        let stats = KillGridStats {
            points: report.outcomes.len(),
            wall,
            points_per_sec: report.outcomes.len() as f64 / wall.as_secs_f64().max(1e-9),
            stepped_sim_s: report.stats.stepped_sim().as_secs_f64(),
        };
        println!(
            "{:<40} {:>9} points  {:>9.0} sim-s stepped  {:>11.1} points/s",
            format!(
                "ta_kill_grid [{}]",
                if snapshot { "snapshot" } else { "replay" }
            ),
            stats.points,
            stats.stepped_sim_s,
            stats.points_per_sec
        );
        stats
    };
    let snap = run(true);
    let replay = run(false);
    println!(
        "{:<40} speedup {:.2}x points/s ({:.1}x fewer simulated seconds)",
        "ta_kill_grid",
        snap.points_per_sec / replay.points_per_sec.max(1e-9),
        replay.stepped_sim_s / snap.stepped_sim_s.max(1e-9)
    );
    (snap, replay)
}

struct FleetBenchStats {
    devices: u64,
    workers: usize,
    wall: Duration,
    devices_per_sec: f64,
    availability: f64,
    footprint_bytes: usize,
}

/// Runs a whole device population through the fleet engine: every device
/// is the duty-cycle sleeper perturbed by its derived panel scale and
/// placement under the shared environment `env`. The
/// `fleet_devices_per_s` series records population throughput; the
/// constant accumulator footprint is reported alongside (the O(workers)
/// memory claim).
fn bench_fleet(name: &'static str, quick: bool, env: SharedEnvironment) -> FleetBenchStats {
    let devices: u64 = if quick { 2_000 } else { 20_000 };
    let horizon = SimTime::from_secs(600);
    let spec = FleetSpec::new(name, devices, horizon)
        .fleet_seed(FIGURE_SEED)
        .panel_jitter(0.15)
        .rate_jitter(0.1)
        .environment(env);
    let t0 = Instant::now();
    let report = run_fleet_on(&spec, 0, |point| {
        let power = PowerSystem::builder()
            .harvester(spec.harvester_for(
                ConstantHarvester::new(Watts::from_milli(10.0), Volts::new(3.0)),
                point,
            ))
            .bank(
                Bank::builder("sleeper")
                    .with(parts::ceramic_x5r_400uf())
                    .with(parts::tantalum_330uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let sleep = SimDuration::from_secs_f64(1_000.0 / point.task_rate_scale);
        let mut sim = Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
            .task(
                "duty-cycle",
                TaskEnergy::Unannotated,
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
                move |_c: &mut ()| Transition::Sleep {
                    duration: sleep,
                    then: TaskId(0),
                },
            )
            .build(());
        sim.run_until(horizon);
        DeviceOutcome::from_sim(&sim)
    });
    let wall = t0.elapsed();
    assert_eq!(report.devices, devices, "every device must be folded");
    let stats = FleetBenchStats {
        devices,
        workers: report.workers,
        wall,
        devices_per_sec: devices as f64 / wall.as_secs_f64().max(1e-9),
        availability: report.availability(),
        footprint_bytes: report.acc.footprint_bytes(),
    };
    println!(
        "{:<40} {:>9} devices {:>9} workers  {:>11.1} devices/s   {:>8.1}% available",
        name,
        stats.devices,
        stats.workers,
        stats.devices_per_sec,
        stats.availability * 100.0
    );
    stats
}

// --- JSON emission ------------------------------------------------------

fn json_timing(t: &Timing) -> String {
    format!(
        "\"iters\": {}, \"mean_ns\": {:.1}, \"min_ns\": {}",
        t.iters, t.mean_ns, t.min_ns
    )
}

fn json_sim(s: &SimStats) -> String {
    format!(
        "\"runs\": {}, \"steps\": {}, \"wall_ms\": {:.2}, \"steps_per_sec\": {:.1}, \"ns_per_step\": {:.1}",
        s.runs,
        s.steps,
        s.wall.as_secs_f64() * 1e3,
        s.steps_per_sec(),
        s.ns_per_step()
    )
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_sim_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                if let Some(path) = args.next() {
                    out = path;
                }
            }
            // `cargo bench` forwards harness flags like `--bench`; ignore
            // anything unrecognized.
            _ => {}
        }
    }

    let micro_budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let sim_budget = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(700)
    };
    let ta_horizon = SimTime::from_secs(if quick { 30 } else { 60 });
    let sleeper_horizon = SimTime::from_secs(if quick { 600 } else { 1800 });
    let sweep_horizon = SimTime::from_secs(if quick { 30 } else { 60 });

    println!(
        "sim_throughput: substrate benchmarks ({} mode)",
        if quick { "quick" } else { "full" }
    );

    let charge = bench_charge(micro_budget);
    let (deep, shallow) = bench_discharge(micro_budget);
    let ta_events = vec![SimTime::from_secs(15)];
    let ta_minute = bench_sim("ta_minute_capy_p", sim_budget, ta_horizon, || {
        ta::build(Variant::CapyP, ta_events.clone(), 7)
    });
    let sleeper = bench_sim(
        "duty_cycle_sleeper",
        sim_budget,
        sleeper_horizon,
        build_sleeper,
    );
    let sweep = bench_sweep(sweep_horizon);
    let (kill_snap, kill_replay) = bench_kill_grid(quick);
    let orbital_env = SharedEnvironment::orbital(SimDuration::from_secs(90), 0.7)
        .shading(0.25)
        .expect("shading in range");
    let fleet = bench_fleet("fleet_population", quick, orbital_env);
    // The trace series drives the same population from the checked-in
    // recorded harvest trace instead of a synthetic day/night cycle.
    let trace = parse_harvest_trace(include_str!("../../../manifests/traces/cloudy_day.trace"))
        .expect("checked-in trace parses");
    let trace_env = SharedEnvironment::from_trace(trace)
        .expect("checked-in trace is valid")
        .shading(0.25)
        .expect("shading in range");
    let fleet_trace = bench_fleet("fleet_population_trace", quick, trace_env);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"capybara-sim-throughput/v1\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    json.push_str("  \"cases\": [\n");
    for (name, t) in [
        ("power_system_charge_until_full", &charge),
        ("esr_discharge_deep", &deep),
        ("esr_discharge_shallow", &shallow),
    ] {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"kind\": \"micro\", {}}},",
            json_timing(t)
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"ta_minute_capy_p\", \"kind\": \"sim\", \"horizon_s\": {}, {}}},",
        ta_horizon.as_secs_f64(),
        json_sim(&ta_minute)
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"duty_cycle_sleeper\", \"kind\": \"sim\", \"charge_heavy\": true, \
         \"horizon_s\": {}, {}}},",
        sleeper_horizon.as_secs_f64(),
        json_sim(&sleeper)
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"ta_variant_sweep\", \"kind\": \"sweep\", \"points\": {}, \
         \"workers\": {}, \"wall_ms\": {:.2}, \"points_per_sec\": {:.1}, \
         \"worker_utilization\": {:.3}}},",
        sweep.points,
        sweep.workers,
        sweep.wall.as_secs_f64() * 1e3,
        sweep.points_per_sec,
        sweep.utilization
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"ta_kill_grid\", \"kind\": \"kill_grid\", \"points\": {}, \
         \"snapshot\": {{\"wall_ms\": {:.2}, \"kill_grid_points_per_s\": {:.1}, \
         \"stepped_sim_s\": {:.1}}}, \
         \"replay\": {{\"wall_ms\": {:.2}, \"kill_grid_points_per_s\": {:.1}, \
         \"stepped_sim_s\": {:.1}}}, \
         \"speedup_points_per_s\": {:.2}, \"stepped_sim_ratio\": {:.2}}},",
        kill_snap.points,
        kill_snap.wall.as_secs_f64() * 1e3,
        kill_snap.points_per_sec,
        kill_snap.stepped_sim_s,
        kill_replay.wall.as_secs_f64() * 1e3,
        kill_replay.points_per_sec,
        kill_replay.stepped_sim_s,
        kill_snap.points_per_sec / kill_replay.points_per_sec.max(1e-9),
        kill_replay.stepped_sim_s / kill_snap.stepped_sim_s.max(1e-9)
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"fleet_population\", \"kind\": \"fleet\", \"trace\": false, \
         \"devices\": {}, \
         \"workers\": {}, \"wall_ms\": {:.2}, \"fleet_devices_per_s\": {:.1}, \
         \"availability\": {:.4}, \"accumulator_bytes\": {}}},",
        fleet.devices,
        fleet.workers,
        fleet.wall.as_secs_f64() * 1e3,
        fleet.devices_per_sec,
        fleet.availability,
        fleet.footprint_bytes
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"fleet_population_trace\", \"kind\": \"fleet\", \"trace\": true, \
         \"devices\": {}, \
         \"workers\": {}, \"wall_ms\": {:.2}, \"fleet_devices_per_s\": {:.1}, \
         \"availability\": {:.4}, \"accumulator_bytes\": {}}}",
        fleet_trace.devices,
        fleet_trace.workers,
        fleet_trace.wall.as_secs_f64() * 1e3,
        fleet_trace.devices_per_sec,
        fleet_trace.availability,
        fleet_trace.footprint_bytes
    );
    json.push_str("  ]\n}\n");

    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

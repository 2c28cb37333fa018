//! Fleet determinism and memory-bound gates, at the public-API level.
//!
//! The fleet contract has three load-bearing clauses:
//!
//! 1. **Bit-identity**: [`FleetReport`] is identical for any worker
//!    count, because devices are striped over a fixed shard partition
//!    and the all-integer [`FleetAccumulator`] merge is commutative and
//!    associative.
//! 2. **Derivation locality**: a device's perturbations depend on
//!    `(fleet_seed, index)` alone — never on the fleet's size, name, or
//!    horizon — so populations can be grown or resharded without
//!    disturbing existing members.
//! 3. **O(workers) memory**: the streaming accumulator's footprint is
//!    constant in the device count.

use capy_power::prelude::WearModel;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara_suite::prelude::*;
use capybara_suite::sweep::RunSummary;

fn shared_env() -> SharedEnvironment {
    SharedEnvironment::orbital(SimDuration::from_secs(40), 0.6)
        .with_dips(
            7,
            2,
            SimDuration::from_secs(30),
            SimDuration::from_secs(3),
            0.2,
        )
        .shading(0.35)
        .expect("shading in range")
}

/// A real simulated device: duty-cycle sensing on a two-part bank, the
/// harvester wrapped by the fleet's shared environment and per-device
/// panel scale.
fn simulate_device(spec: &FleetSpec, point: &DevicePoint) -> DeviceOutcome {
    let power = PowerSystem::builder()
        .harvester(spec.harvester_for(
            ConstantHarvester::new(Watts::from_milli(5.0), Volts::new(3.0)),
            point,
        ))
        .bank(
            Bank::builder("store")
                .with(parts::ceramic_x5r_400uf())
                .with(parts::tantalum_330uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build();
    let sleep = SimDuration::from_secs_f64(0.5 / point.task_rate_scale);
    let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
        .task(
            "sense",
            TaskEnergy::Unannotated,
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(6))),
            move |_c: &mut ()| Transition::Sleep {
                duration: sleep,
                then: TaskId(0),
            },
        )
        .build(());
    sim.run_until(spec.horizon());
    DeviceOutcome::from_sim(&sim)
}

fn real_spec(devices: u64) -> FleetSpec {
    FleetSpec::new("fleet-gate", devices, SimTime::from_secs(45))
        .fleet_seed(0xF1EE7)
        .panel_jitter(0.2)
        .rate_jitter(0.15)
        .environment(shared_env())
}

#[test]
fn real_fleet_report_is_bit_identical_for_any_worker_count() {
    let spec = real_spec(97);
    let serial = run_fleet_on(&spec, 1, |p| simulate_device(&spec, p));
    for workers in [2, 3, 8] {
        let parallel = run_fleet_on(&spec, workers, |p| simulate_device(&spec, p));
        assert_eq!(
            serial, parallel,
            "fleet report drifted between 1 and {workers} workers"
        );
    }
    // The run did real work: devices completed tasks and saw outages.
    assert_eq!(serial.acc.devices, 97);
    assert!(serial.acc.completions > 0);
    assert!(serial.acc.charges > 0);
    assert!(serial.availability() > 0.0 && serial.availability() <= 1.0);
}

#[test]
fn fresh_run_equals_a_leg_without_carry() {
    // The two public fleet entry points share one shard loop; a fresh
    // run must stay exactly a leg with no wear carried in.
    let spec = real_spec(97);
    for workers in [1, 3] {
        let fresh = run_fleet_on(&spec, workers, |p| simulate_device(&spec, p));
        let (leg, wear) = run_fleet_leg_on(&spec, workers, None, |p, _| {
            (simulate_device(&spec, p), DeviceWear::none())
        });
        assert_eq!(fresh, leg, "run and leg diverged on {workers} workers");
        assert_eq!(fresh.workers, leg.workers);
        assert_eq!(wear.devices(), spec.devices());
    }
}

/// A cheap deterministic stand-in for a simulated device, rich enough
/// to populate every accumulator field (including deaths).
fn synthetic_outcome(point: &DevicePoint) -> DeviceOutcome {
    let mut rng = DetRng::seed_from_u64(point.seed);
    let completions = rng.gen_range(3u64..40);
    let mut summary = RunSummary {
        boots: 1,
        charges: completions,
        completions,
        attempts: completions + 1,
        failures: 1,
        charge_time: SimDuration::from_millis(completions * 11),
        end: SimTime::from_secs(120),
        ..RunSummary::default()
    };
    let latencies: Vec<SimDuration> = (0..completions)
        .map(|_| SimDuration::from_micros(rng.gen_range(50u64..2_000_000)))
        .collect();
    let death = rng
        .gen_bool(0.3)
        .then(|| SimTime::from_secs(rng.gen_range(1u64..120)));
    if death.is_some() {
        summary.stalled = true;
    }
    DeviceOutcome {
        summary,
        latencies,
        death,
        task_completions: vec![completions, completions / 3],
    }
}

fn synthetic_spec(devices: u64) -> FleetSpec {
    FleetSpec::new("fleet-synthetic", devices, SimTime::from_secs(120)).fleet_seed(0xCA9B)
}

#[test]
fn streaming_equals_materialized_in_any_merge_order() {
    let spec = synthetic_spec(311);
    let horizon = spec.horizon();

    // Streamed: one accumulator folds every device in index order.
    let mut streamed = FleetAccumulator::new();
    for i in 0..spec.devices() {
        streamed.fold(horizon, &synthetic_outcome(&spec.device(i)));
    }

    // Materialized: one single-device accumulator per device, merged in
    // forward, reverse, and strided order — all must agree with the
    // streamed fold (merge is commutative and associative).
    let singles: Vec<FleetAccumulator> = (0..spec.devices())
        .map(|i| {
            let mut acc = FleetAccumulator::new();
            acc.fold(horizon, &synthetic_outcome(&spec.device(i)));
            acc
        })
        .collect();
    let merge_all = |order: &mut dyn Iterator<Item = usize>| {
        let mut merged = FleetAccumulator::new();
        for i in order {
            merged.merge(&singles[i]);
        }
        merged
    };
    let n = singles.len();
    assert_eq!(streamed, merge_all(&mut (0..n)));
    assert_eq!(streamed, merge_all(&mut (0..n).rev()));
    let mut strided = (0..7).flat_map(|s| (s..n).step_by(7));
    assert_eq!(streamed, merge_all(&mut strided));
}

#[test]
fn device_derivation_ignores_fleet_shape() {
    let small = synthetic_spec(8);
    let huge = FleetSpec::new("other-name", 4_000_000, SimTime::from_secs(1))
        .fleet_seed(0xCA9B)
        .environment(shared_env());
    for i in [0u64, 3, 7] {
        assert_eq!(small.device(i), huge.device(i));
        assert_eq!(small.device(i).seed, derive_seed(0xCA9B, i));
    }
    // Jitter knobs change the derived scales, not the seed or placement.
    let jittered = synthetic_spec(8).panel_jitter(0.5).rate_jitter(0.5);
    assert_eq!(small.device(2).seed, jittered.device(2).seed);
    assert_eq!(small.device(2).placement, jittered.device(2).placement);
    assert_ne!(small.device(2).panel_scale, jittered.device(2).panel_scale);
}

#[test]
fn accumulator_footprint_is_independent_of_device_count() {
    let footprint_after = |devices: u64| {
        let spec = synthetic_spec(devices);
        let report = run_fleet_on(&spec, 1, synthetic_outcome);
        assert_eq!(report.acc.devices, devices);
        report.acc.footprint_bytes()
    };
    let small = footprint_after(16);
    let large = footprint_after(4096);
    assert_eq!(
        small, large,
        "streaming accumulator must not grow with the population"
    );
    assert!(small < 64 * 1024, "accumulator footprint blew past 64 KiB");
}

#[test]
fn survival_curve_is_monotone_and_quantiles_are_ordered() {
    let spec = synthetic_spec(500);
    let report = run_fleet_on(&spec, 4, synthetic_outcome);

    let curve = report.survival_curve();
    assert_eq!(curve[0], curve[0].clamp(0.0, 1.0));
    for w in curve.windows(2) {
        assert!(w[1] <= w[0], "survival curve must be non-increasing");
    }
    let total_deaths: u64 = report.acc.survival.iter().sum();
    assert_eq!(total_deaths, report.acc.dead_devices);

    let p50 = report.latency_quantile(0.5).expect("latencies recorded");
    let p99 = report.latency_quantile(0.99).expect("latencies recorded");
    assert!(p50 <= p99, "quantiles must be ordered");
    // The sketch promises <= 3.2 % relative error: p50 of a stream
    // bounded by [50 us, 2 s) must land inside the (slightly widened)
    // same interval.
    assert!(p50 >= SimDuration::from_micros(48));
    assert!(p99 < SimDuration::from_micros(2_064_000));
}

/// A random but valid `capy-trace/v1` sample list: starts at zero,
/// strictly ascending, factors in `[0, 1.2]`, last factor pinned to 1
/// so an analytic charge across the trace always completes.
fn random_trace(rng: &mut DetRng) -> Vec<(SimTime, f64)> {
    let n = rng.gen_range(3u64..10);
    let mut at = 0u64;
    let mut samples = Vec::new();
    for _ in 0..n {
        samples.push((SimTime::from_micros(at), rng.gen_f64() * 1.2));
        at += rng.gen_range(2_000_000u64..20_000_000);
    }
    samples.last_mut().expect("n >= 3").1 = 1.0;
    samples
}

/// Seeded-loop property gate for the trace-driven environment: on
/// random traces (composed with correlated dips and spatial shading),
/// `factor_at` must hold exactly constant on every
/// `[t, valid_until(t))` window, and `charge_until` across the trace
/// must cost O(1) analytic segments per constant interval, never
/// O(duration).
#[test]
fn trace_env_is_piecewise_constant_and_charges_in_bounded_segments() {
    let mut rng = DetRng::seed_from_u64(0x7A5E);
    for case in 0u64..6 {
        let samples = random_trace(&mut rng);
        let placement = rng.gen_f64();
        let env = SharedEnvironment::from_trace(samples.clone())
            .expect("random trace is structurally valid")
            .with_dips(
                case,
                2,
                SimDuration::from_secs(15),
                SimDuration::from_secs(2),
                0.4,
            )
            .shading(0.3)
            .expect("shading in range");

        // Piecewise-constant contract: walk boundary to boundary well
        // past the last sample; the factor may not move strictly inside
        // any window the environment declares constant.
        let last = samples.last().expect("non-empty").0;
        let end = last.saturating_add(SimDuration::from_secs(30));
        let mut t = SimTime::ZERO;
        let mut hops = 0u32;
        while t < end {
            let f = env.factor_at(t, placement);
            let next = env.valid_until(t, placement);
            assert!(next > t, "valid_until must make progress at {t}");
            let span = next.min(end) - t;
            for _ in 0..4 {
                let probe =
                    t.saturating_add(SimDuration::from_micros(rng.gen_range(0..span.as_micros())));
                assert_eq!(
                    env.factor_at(probe, placement),
                    f,
                    "case {case}: factor moved inside [{t}, {next}) at {probe}"
                );
            }
            t = next;
            hops += 1;
            assert!(hops < 10_000, "case {case}: walk did not terminate");
        }

        // Exact boundaries: at each sample start the composed factor is
        // precisely shading × sample (dips stripped so the product has
        // one term per knob).
        let plain = SharedEnvironment::from_trace(samples.clone())
            .expect("random trace is structurally valid")
            .shading(0.3)
            .expect("shading in range");
        for &(at, factor) in &samples {
            assert_eq!(
                plain.factor_at(at, placement),
                (1.0 - 0.3 * placement).max(0.0) * factor,
                "case {case}: boundary factor wrong at {at}"
            );
        }

        // O(1) segments per constant interval.
        let mut sys = PowerSystem::builder()
            .harvester(FleetHarvester::new(
                ConstantHarvester::new(Watts::from_milli(1.0), Volts::new(3.0)),
                0.9,
                plain.clone(),
                placement,
            ))
            .bank(
                Bank::builder("store").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let mut now = SimTime::ZERO;
        let before = sys.charge_segments();
        sys.charge_until(Volts::new(2.7), &mut now)
            .expect("trace ends at full sun, so the charge completes");
        let used = sys.charge_segments() - before;
        let budget = 4 * samples.len() as u64 + 8;
        assert!(
            used <= budget,
            "case {case}: {used} segments for {} trace samples",
            samples.len()
        );
    }
}

/// One policy-steered fleet device: duty-cycle sensing over a
/// small/big capacity ladder, the harvester wrapped by the cell's
/// shared environment.
fn policy_device(
    point: &DevicePoint,
    spec: &FleetSpec,
    policy: Box<dyn ReconfigPolicy>,
) -> DeviceOutcome {
    let power = PowerSystem::builder()
        .harvester(spec.harvester_for(
            ConstantHarvester::new(Watts::from_milli(2.0), Volts::new(3.0)),
            point,
        ))
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
    let sleep = SimDuration::from_secs_f64(0.4 / point.task_rate_scale);
    let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
        .mode("small", &[BankId(0)])
        .mode("big", &[BankId(1)])
        .task(
            "sense",
            TaskEnergy::Config(EnergyMode(0)),
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
            move |_c: &mut ()| Transition::Sleep {
                duration: sleep,
                then: TaskId(0),
            },
        )
        .policy(policy)
        .build(());
    sim.run_until(spec.horizon());
    DeviceOutcome::from_sim(&sim)
}

/// The fleet-wide policy grid: three policies crossed with a steady and
/// a correlated-dip scenario, every cell a full deterministic fleet.
/// The ranking is all-integer, identical for any worker count, and the
/// winner under correlated dips is pinned.
#[test]
fn fleet_policy_sweep_ranks_policies_and_pins_the_winner() {
    let base = FleetSpec::new("policy-fleet", 24, SimTime::from_secs(40))
        .fleet_seed(0x90CF)
        .panel_jitter(0.2)
        .rate_jitter(0.2);
    let policies = [
        NamedPolicy::new("pin-small", |_| Box::new(Pinned::new(EnergyMode(0)))),
        NamedPolicy::new("pin-big", |_| Box::new(Pinned::new(EnergyMode(1)))),
        NamedPolicy::new("reactive", |_| {
            Box::new(ReactiveDownsize::new(
                vec![EnergyMode(0), EnergyMode(1)],
                SimDuration::from_secs(5),
            ))
        }),
    ];
    let scenarios = [
        Scenario::new("steady", SharedEnvironment::steady()),
        Scenario::new(
            "dips",
            SharedEnvironment::steady()
                .with_dips(
                    5,
                    3,
                    SimDuration::from_secs(9),
                    SimDuration::from_secs(3),
                    0.05,
                )
                .shading(0.2)
                .expect("shading in range"),
        ),
    ];

    let cmp = run_fleet_policy_sweep_on(&base, &policies, &scenarios, 4, policy_device);
    assert_eq!(cmp.policies, vec!["pin-small", "pin-big", "reactive"]);
    assert_eq!(cmp.scenarios, vec!["steady", "dips"]);
    assert_eq!(cmp.fleets.len(), 6);
    for s in 0..scenarios.len() {
        // Every cell ran the whole paired population.
        for p in 0..policies.len() {
            assert_eq!(cmp.fleet(p, s).acc.devices, 24);
        }
        // The ranking is a permutation consistent with the pairwise
        // all-integer comparison, and the winner heads it.
        let order = cmp.ranking(s);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(order[0], cmp.best_policy(s));
        for w in order.windows(2) {
            assert_ne!(
                cmp.compare(w[0], w[1], s),
                core::cmp::Ordering::Less,
                "ranking out of order on scenario {s}"
            );
        }
    }

    // Under correlated dips the small capacity tier keeps committing
    // through the troughs while the pinned big array sits in charge
    // debt, so pin-small wins the fleet verdict and pin-big loses to
    // both adaptive-or-small rows.
    let dips = 1;
    let winner = cmp.best_policy(dips);
    assert_eq!(
        cmp.policies[winner],
        "pin-small",
        "expected pin-small to win under correlated dips, ranking {:?}",
        cmp.ranking(dips)
    );
    assert!(
        cmp.fleet(winner, dips).acc.completions > cmp.fleet(1, dips).acc.completions,
        "the winner must out-commit the pinned big array under dips"
    );

    // The grid itself is worker-count independent, cell by cell.
    let serial = run_fleet_policy_sweep_on(&base, &policies, &scenarios, 1, policy_device);
    for (a, b) in cmp.fleets.iter().zip(&serial.fleets) {
        assert_eq!(a, b, "a sweep cell drifted between 4 and 1 workers");
    }
}

/// Back-to-back mission legs over real simulated devices: leg 2 seeds
/// every bank with leg 1's integer cycle counts (re-derated through the
/// installed wear model), wear accumulates monotonically, and the whole
/// carry round trip is bit-identical for any worker count.
#[test]
fn wear_carries_across_real_mission_legs() {
    let spec = real_spec(32).at_horizon(SimTime::from_secs(25));
    let device = |point: &DevicePoint, carry: &DeviceWear| {
        let power = PowerSystem::builder()
            .harvester(spec.harvester_for(
                ConstantHarvester::new(Watts::from_milli(5.0), Volts::new(3.0)),
                point,
            ))
            .bank(
                Bank::builder("store")
                    .with(parts::ceramic_x5r_400uf())
                    .with(parts::tantalum_330uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let sleep = SimDuration::from_secs_f64(0.5 / point.task_rate_scale);
        let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .task(
                "sense",
                TaskEnergy::Unannotated,
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(6))),
                move |_c: &mut ()| Transition::Sleep {
                    duration: sleep,
                    then: TaskId(0),
                },
            )
            .build(());
        sim.power_mut().set_wear_model(Some(WearModel::prototype()));
        carry.apply(&mut sim);
        sim.run_until(spec.horizon());
        (DeviceOutcome::from_sim(&sim), DeviceWear::from_sim(&sim))
    };

    let (leg1, wear1) = run_fleet_leg_on(&spec, 4, None, device);
    assert!(leg1.acc.completions > 0);
    assert!(
        wear1.total_cycles() > 0,
        "a real leg must record deep-discharge cycles"
    );
    let (leg2, wear2) = run_fleet_leg_on(&spec, 4, Some(&wear1), device);
    assert!(
        wear2.total_cycles() > wear1.total_cycles(),
        "wear must accumulate across legs"
    );
    // Every device's carried count is monotone, not just the total.
    for i in 0..wear1.devices() {
        for (a, b) in wear1
            .device(i)
            .bank_cycles
            .iter()
            .zip(&wear2.device(i).bank_cycles)
        {
            assert!(b >= a, "device {i} lost cycles between legs");
        }
    }
    // The resumed leg is deterministic for any worker count.
    let (leg2b, wear2b) = run_fleet_leg_on(&spec, 1, Some(&wear1), device);
    assert_eq!(leg2, leg2b);
    assert_eq!(wear2, wear2b);
}

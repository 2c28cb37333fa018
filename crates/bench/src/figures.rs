//! Library-side sweep drivers for the case-study benches.
//!
//! The `baseline_federated`, `char_area`, and `capysat_case_study`
//! targets used to run serially in their `main`s; their evaluation
//! logic now lives here, laid out as [`SweepSpec`]s with typed axes and
//! executed by [`run_sweep_tally_on`] — so they shard across cores,
//! emit uniform [`capybara::sweep::RunSummary`] totals, and are
//! unit-testable for 1-vs-N-worker bit-identity like every other
//! evaluation target. The bench binaries are thin printers over the
//! rows these functions return.

use std::time::Duration;

use capy_apps::federated::FederatedGrc;
use capy_apps::grc::{self, GrcVariant};
use capy_apps::metrics::accuracy_fractions;
use capy_capysat::area::BoardAreas;
use capy_capysat::{eligible_for_leo, splitter_area, switch_array_area, CapySat, LeoConstraints};
use capy_power::switch::{BankSwitch, SwitchKind, LATCH_CAPACITANCE};
use capy_power::technology::parts;
use capy_units::SimTime;
use capybara::sweep::{run_sweep_tally_on, AxisValue, RunSummary, SweepReport, SweepSpec};
use capybara::variant::Variant;

/// The two fixed-capacity panels of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig2Panel {
    /// 730 µF: reactive sampling, the radio packet never completes.
    Low,
    /// 8.9 mF: the packet completes, with long inactive charging spans.
    High,
}

impl Fig2Panel {
    /// Both panels, in figure order (left, right).
    pub const ALL: [Self; 2] = [Self::Low, Self::High];
}

impl AxisValue for Fig2Panel {
    fn axis_label(&self) -> String {
        match self {
            Self::Low => "Low capacity (730 uF): reactive sampling, packet never completes",
            Self::High => "High capacity (8.9 mF): packet completes, long inactive charging",
        }
        .to_string()
    }
}

/// The systems compared by the `baseline_federated` bench, in row
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineSystem {
    /// UFoP-style federated storage: one store per hardware unit.
    Federated,
    /// Capybara CB-P on the GestureFast decomposition.
    CapyP,
    /// A single fixed-capacity buffer.
    Fixed,
}

impl BaselineSystem {
    /// Every compared system, in printed row order.
    pub const ALL: [Self; 3] = [Self::Federated, Self::CapyP, Self::Fixed];
}

impl AxisValue for BaselineSystem {
    fn axis_label(&self) -> String {
        match self {
            Self::Federated => "Federated (UFoP-ish)",
            Self::CapyP => "Capybara (CB-P)",
            Self::Fixed => "Fixed",
        }
        .to_string()
    }
}

/// One printed row of the federated-baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Fraction of pendulum passes whose gesture was correctly
    /// classified and reported.
    pub correct: f64,
    /// Fraction of passes during which the device sampled at all.
    pub sampled: f64,
    /// MCU-store compute iterations — only the federated design keeps
    /// MCU work alive while peripheral stores recharge.
    pub mcu_work: Option<u64>,
}

/// Runs the federated-vs-Capybara-vs-Fixed comparison as one sweep over
/// a typed [`BaselineSystem`] axis. `events` is the pendulum pass
/// schedule shared by every system; the report is bit-identical for any
/// `workers`.
#[must_use]
pub fn baseline_federated_sweep(
    events: &[SimTime],
    seed: u64,
    horizon: SimTime,
    workers: usize,
) -> (SweepReport, Vec<BaselineRow>) {
    let spec = SweepSpec::new("baseline-federated", horizon)
        .base_seed(seed)
        .axis("system", &BaselineSystem::ALL);
    run_sweep_tally_on(&spec, workers, |point| {
        let n_events = events.len() as f64;
        match point.expect_axis::<BaselineSystem>("system") {
            BaselineSystem::Federated => {
                let mut dev = FederatedGrc::new();
                let rep = dev.run(events.to_vec(), seed, horizon);
                let correct =
                    rep.packets.packets().iter().filter(|p| p.correct).count() as f64 / n_events;
                let summary = RunSummary {
                    attempts: rep.attempts.len() as u64,
                    completions: rep.packets.len() as u64,
                    end: horizon,
                    ..RunSummary::default()
                };
                let row = BaselineRow {
                    correct,
                    sampled: rep.passes_sampled as f64 / n_events,
                    mcu_work: Some(rep.mcu_iterations),
                };
                (summary, row)
            }
            system @ (BaselineSystem::CapyP | BaselineSystem::Fixed) => {
                let variant = if system == BaselineSystem::CapyP {
                    Variant::CapyP
                } else {
                    Variant::Fixed
                };
                let mut sim = grc::build(variant, GrcVariant::Fast, events.to_vec(), seed);
                sim.run_until(horizon);
                let ctx = sim.ctx();
                let acc = accuracy_fractions(&grc::classify_run(
                    events.len(),
                    &ctx.packets,
                    &ctx.attempts,
                ));
                let row = BaselineRow {
                    correct: acc.correct,
                    sampled: 1.0 - acc.missed,
                    mcu_work: None,
                };
                (RunSummary::from_sim(&sim, Duration::ZERO), row)
            }
        }
    })
}

/// The two characterization blocks of §6.5, in printed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharItem {
    /// Board-area accounting on the 6×6 cm prototype.
    BoardArea,
    /// Switch-latch capacitance, retention, and decay defaults.
    LatchRetention,
}

impl CharItem {
    /// Every characterization block, in printed order.
    pub const ALL: [Self; 2] = [Self::BoardArea, Self::LatchRetention];
}

impl AxisValue for CharItem {
    fn axis_label(&self) -> String {
        match self {
            Self::BoardArea => "board-area",
            Self::LatchRetention => "latch-retention",
        }
        .to_string()
    }
}

/// Runs the §6.5 prototype characterization as one sweep over a typed
/// [`CharItem`] axis. The per-point extract is the block's printed
/// lines; the work is analytic, so the summaries carry only wall time.
#[must_use]
pub fn char_area_sweep(workers: usize) -> (SweepReport, Vec<Vec<String>>) {
    let spec = SweepSpec::new("char-area", SimTime::ZERO).axis("item", &CharItem::ALL);
    run_sweep_tally_on(&spec, workers, |point| {
        let lines = match point.expect_axis::<CharItem>("item") {
            CharItem::BoardArea => {
                let areas = BoardAreas::prototype();
                vec![
                    "board area (6x6 cm prototype = 3600 mm^2):".to_string(),
                    format!("  solar panels:        {:>6.0} mm^2", areas.solar.get()),
                    format!(
                        "  power system:        {:>6.0} mm^2",
                        areas.power_system.get()
                    ),
                    format!(
                        "  one switch module:   {:>6.0} mm^2",
                        areas.switch_module.get()
                    ),
                    format!(
                        "  five switch modules: {:>6.0} mm^2",
                        (areas.switch_module * 5.0).get()
                    ),
                ]
            }
            CharItem::LatchRetention => {
                let no = BankSwitch::new(SwitchKind::NormallyOpen);
                let nc = BankSwitch::new(SwitchKind::NormallyClosed);
                vec![
                    format!("latch capacitor: {:.1} uF", LATCH_CAPACITANCE.as_micro()),
                    format!(
                        "latch retention: {:.0} s (paper: approximately 3 minutes)",
                        BankSwitch::prototype_retention().as_secs_f64()
                    ),
                    format!(
                        "default on latch decay: NO -> {:?}, NC -> {:?}",
                        no.kind().default_state(),
                        nc.kind().default_state()
                    ),
                ]
            }
        };
        (RunSummary::default(), lines)
    })
}

/// The four sections of the §6.6 CapySat case study, in printed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseItem {
    /// LEO part-eligibility screening against the KickSat constraints.
    Eligibility,
    /// Flight-configuration storage volume and beacon feasibility.
    Flight,
    /// Splitter area vs the reconfiguration switch array.
    Area,
    /// The dual-MCU orbit loop.
    Orbits,
}

impl CaseItem {
    /// Every case-study section, in printed order.
    pub const ALL: [Self; 4] = [Self::Eligibility, Self::Flight, Self::Area, Self::Orbits];
}

impl AxisValue for CaseItem {
    fn axis_label(&self) -> String {
        match self {
            Self::Eligibility => "eligibility",
            Self::Flight => "flight-config",
            Self::Area => "area",
            Self::Orbits => "orbits",
        }
        .to_string()
    }
}

/// Runs the §6.6 CapySat case study as one sweep over a typed
/// [`CaseItem`] axis, simulating `orbits` orbits in the orbit-loop
/// point. The per-point extract is the section's printed lines; the
/// orbit point's summary carries the loop's sample/beacon tallies.
#[must_use]
pub fn capysat_sweep(orbits: u32, workers: usize) -> (SweepReport, Vec<Vec<String>>) {
    let orbit_horizon = SimTime::ZERO + (CapySat::SUNLIT + CapySat::ECLIPSE) * u64::from(orbits);
    let spec = SweepSpec::new("capysat-case-study", orbit_horizon).axis("item", &CaseItem::ALL);
    run_sweep_tally_on(&spec, workers, |point| {
        match point.expect_axis::<CaseItem>("item") {
            CaseItem::Eligibility => {
                let constraints = LeoConstraints::kicksat();
                let mut lines = vec![format!(
                    "storage budget: {:.0} mm^3 at -40C",
                    constraints.storage_budget_mm3()
                )];
                for part in [
                    parts::ceramic_x5r_100uf(),
                    parts::tantalum_1000uf(),
                    parts::edlc_cph3225a(),
                ] {
                    lines.push(format!(
                        "  {:<18} eligible={}",
                        part.name(),
                        eligible_for_leo(&part, &constraints)
                    ));
                }
                (RunSummary::default(), lines)
            }
            CaseItem::Flight => {
                let sat = CapySat::flight();
                let lines = vec![format!(
                    "flight banks: {:.0} mm^3; beacon feasible with boosters: {}; without: {}",
                    sat.storage_volume_mm3(),
                    sat.beacon_feasible(true),
                    sat.beacon_feasible(false)
                )];
                (RunSummary::default(), lines)
            }
            CaseItem::Area => {
                let lines = vec![format!(
                    "splitter area: {:.0} mm^2 vs switch array {:.0} mm^2 ({:.0}% — paper: 20%)",
                    splitter_area().get(),
                    switch_array_area(2).get(),
                    splitter_area() / switch_array_area(2) * 100.0
                )];
                (RunSummary::default(), lines)
            }
            CaseItem::Orbits => {
                let mut sat = CapySat::flight();
                let report = sat.run_orbits(orbits);
                let lines = vec![format!(
                    "{} orbits: samples={} beacons={} failed_beacons={}",
                    orbits, report.samples, report.beacons, report.failed_beacons
                )];
                let summary = RunSummary {
                    attempts: report.samples + report.beacons + report.failed_beacons,
                    completions: report.samples + report.beacons,
                    failures: report.failed_beacons,
                    end: orbit_horizon,
                    ..RunSummary::default()
                };
                (summary, lines)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_apps::events::grc_schedule;
    use capy_units::rng::DetRng;
    use capy_units::SimDuration;
    use capybara::sweep::available_workers;

    const SEED: u64 = 0xCA9B_2018;

    fn short_events() -> Vec<SimTime> {
        // The first few pendulum passes only, so the 1-vs-N identity
        // tests run in well under a second each.
        grc_schedule(&mut DetRng::seed_from_u64(SEED))
            .into_iter()
            .take(6)
            .collect()
    }

    #[test]
    fn fig2_panel_axis_round_trips() {
        let spec = SweepSpec::new("panels", SimTime::ZERO).axis("panel", &Fig2Panel::ALL);
        for (i, point) in spec.points().iter().enumerate() {
            assert_eq!(point.expect_axis::<Fig2Panel>("panel"), Fig2Panel::ALL[i]);
            assert_eq!(point.label, Fig2Panel::ALL[i].axis_label());
        }
    }

    #[test]
    fn baseline_system_axis_round_trips() {
        let spec = SweepSpec::new("systems", SimTime::ZERO).axis("system", &BaselineSystem::ALL);
        for (i, point) in spec.points().iter().enumerate() {
            assert_eq!(
                point.expect_axis::<BaselineSystem>("system"),
                BaselineSystem::ALL[i]
            );
        }
    }

    #[test]
    fn char_and_case_axes_round_trip() {
        let spec = SweepSpec::new("char", SimTime::ZERO).axis("item", &CharItem::ALL);
        for (i, point) in spec.points().iter().enumerate() {
            assert_eq!(point.expect_axis::<CharItem>("item"), CharItem::ALL[i]);
        }
        let spec = SweepSpec::new("case", SimTime::ZERO).axis("item", &CaseItem::ALL);
        for (i, point) in spec.points().iter().enumerate() {
            assert_eq!(point.expect_axis::<CaseItem>("item"), CaseItem::ALL[i]);
        }
        // A wrong-type lookup is a labeled error, not an index panic.
        let err = spec.points()[0].axis::<CharItem>("item").unwrap_err();
        assert!(err.to_string().contains("holds"), "{err}");
    }

    #[test]
    fn baseline_federated_report_is_identical_for_one_and_many_workers() {
        let events = short_events();
        let horizon = SimTime::ZERO + SimDuration::from_secs(60);
        let (serial, rows_serial) = baseline_federated_sweep(&events, SEED, horizon, 1);
        let n = available_workers().max(3);
        let (parallel, rows_parallel) = baseline_federated_sweep(&events, SEED, horizon, n);
        assert_eq!(serial, parallel);
        assert_eq!(rows_serial, rows_parallel);
        assert_eq!(serial.runs.len(), BaselineSystem::ALL.len());
        // The federated row is the only one reporting MCU-store work.
        assert!(rows_serial[0].mcu_work.is_some());
        assert!(rows_serial[1].mcu_work.is_none());
        for row in &rows_serial {
            assert!((0.0..=1.0).contains(&row.correct));
            assert!((0.0..=1.0).contains(&row.sampled));
        }
    }

    #[test]
    fn char_area_report_is_identical_for_one_and_many_workers() {
        let (serial, lines_serial) = char_area_sweep(1);
        let (parallel, lines_parallel) = char_area_sweep(available_workers().max(2));
        assert_eq!(serial, parallel);
        assert_eq!(lines_serial, lines_parallel);
        assert_eq!(lines_serial.len(), CharItem::ALL.len());
        assert!(lines_serial[0][1].contains("solar panels"));
        assert!(lines_serial[1][0].contains("latch capacitor"));
    }

    #[test]
    fn capysat_report_is_identical_for_one_and_many_workers() {
        let (serial, lines_serial) = capysat_sweep(1, 1);
        let (parallel, lines_parallel) = capysat_sweep(1, available_workers().max(4));
        assert_eq!(serial, parallel);
        assert_eq!(lines_serial, lines_parallel);
        assert_eq!(lines_serial.len(), CaseItem::ALL.len());
        // The orbit point's tallies land in the standard summary.
        let orbit_run = &serial.runs[3];
        assert_eq!(
            orbit_run.summary.completions + orbit_run.summary.failures,
            orbit_run.summary.attempts
        );
        assert!(orbit_run.summary.completions > 0);
    }
}

//! Capacity provisioning: the §6.1 methodology for sizing a bank to a
//! task.
//!
//! "Starting with a pessimistic energy estimate based on load current
//! specified in the datasheets, we ran the task while progressively
//! increasing the capacity on the board until the task completed." This
//! module automates exactly that loop against the analytic discharge
//! model, so application authors can size banks without trial deployments.

use capy_device::load::TaskLoad;
use capy_power::booster::OutputBooster;
use capy_power::capacitor::{self, CapacitorSpec, Discharge};
use capy_units::{Farads, Joules, Ohms, Volts};

/// The result of provisioning a bank for a task.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisioningReport {
    /// Number of parallel capacitor units required.
    pub units: usize,
    /// Total provisioned capacitance.
    pub capacitance: Farads,
    /// Energy the task demands at the regulated rail.
    pub load_energy: Joules,
    /// Energy the provisioned bank stores between full and the booster
    /// minimum (before conversion loss and ESR stranding).
    pub stored_energy: Joules,
}

/// Checks whether a bank of `n` parallel `unit` capacitors sustains `load`
/// from a full charge, through `booster`.
#[must_use]
pub fn bank_sustains(
    unit: &CapacitorSpec,
    n: usize,
    load: &TaskLoad,
    booster: &OutputBooster,
    full: Volts,
) -> bool {
    if n == 0 {
        return load.is_empty();
    }
    let c = unit.capacitance() * n as f64;
    let esr = if unit.esr().get() > 0.0 {
        Ohms::new(unit.esr().get() / n as f64)
    } else {
        Ohms::ZERO
    };
    sustains(c, esr, full.min(unit.rated_voltage()), load, booster)
}

/// Checks whether a store of capacitance `c` and series resistance `esr`,
/// starting at `v0`, runs every phase of `load` through `booster` without
/// its terminal voltage (after ESR droop) crossing the booster minimum.
pub(crate) fn sustains(
    c: Farads,
    esr: Ohms,
    v0: Volts,
    load: &TaskLoad,
    booster: &OutputBooster,
) -> bool {
    let mut v = v0;
    for phase in load.phases() {
        let p = booster.input_power_for(phase.power());
        match capacitor::discharge(
            c,
            esr,
            v,
            p,
            booster.min_operating_voltage(),
            phase.duration(),
        ) {
            Discharge::Sustained(v_end) => v = v_end,
            Discharge::Failed(..) => return false,
        }
    }
    true
}

/// Provisions the smallest bank of parallel `unit` capacitors (up to
/// `max_units`) that sustains `load` from a full charge of `full` volts,
/// mirroring the paper's progressive-increase methodology.
///
/// Returns `None` when even `max_units` units are insufficient — the task
/// is infeasible with this capacitor technology at this size budget (the
/// "infeasible" region left of the Figure 3 frontier).
#[must_use]
pub fn provision_bank_units(
    unit: &CapacitorSpec,
    load: &TaskLoad,
    booster: &OutputBooster,
    full: Volts,
    max_units: usize,
) -> Option<ProvisioningReport> {
    for n in 1..=max_units {
        if bank_sustains(unit, n, load, booster, full) {
            let c = unit.capacitance() * n as f64;
            let top = full.min(unit.rated_voltage());
            return Some(ProvisioningReport {
                units: n,
                capacitance: c,
                load_energy: load
                    .phases()
                    .iter()
                    .map(|p| booster.input_power_for(p.power()) * p.duration())
                    .sum(),
                stored_energy: c.energy_between(top, booster.min_operating_voltage()),
            });
        }
    }
    None
}

/// The §3 analytic methodology: "measure task energy consumption on
/// continuous power using a current sense amplifier and analytically
/// derive the required capacitance".
///
/// Given the measured energy a task draws at the regulated rail, returns
/// the capacitance that stores it between `full` and the booster's
/// operating minimum, including conversion loss and a derating `margin`.
#[must_use]
pub fn capacitance_for_energy(
    energy: Joules,
    booster: &OutputBooster,
    full: Volts,
    margin: f64,
) -> Farads {
    let from_bank = energy.get() / booster.efficiency();
    let window = full.squared() - booster.min_operating_voltage().squared();
    Farads::new(2.0 * from_bank * (1.0 + margin) / window)
}

/// Measures a task's energy as a current-sense amplifier on continuous
/// power would: the sum of the load's phase energies at the regulated
/// rail.
#[must_use]
pub fn measure_task_energy(load: &TaskLoad) -> Joules {
    load.energy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_device::load::LoadPhase;
    use capy_power::technology::parts;
    use capy_units::{SimDuration, Watts};

    fn radio_like_load() -> TaskLoad {
        TaskLoad::new()
            .then(LoadPhase::new(
                "init",
                SimDuration::from_millis(400),
                Watts::from_milli(10.0),
            ))
            .then(LoadPhase::new(
                "tx",
                SimDuration::from_millis(35),
                Watts::from_milli(31.0),
            ))
    }

    fn sample_like_load() -> TaskLoad {
        TaskLoad::new().then(LoadPhase::new(
            "sample",
            SimDuration::from_millis(8),
            Watts::from_milli(1.0),
        ))
    }

    #[test]
    fn small_task_fits_one_ceramic() {
        let report = provision_bank_units(
            &parts::ceramic_x5r_100uf(),
            &sample_like_load(),
            &OutputBooster::prototype(),
            Volts::new(2.8),
            16,
        )
        .expect("sample must be provisionable");
        assert_eq!(report.units, 1);
        assert!(report.stored_energy > report.load_energy);
    }

    #[test]
    fn radio_needs_many_more_units() {
        let booster = OutputBooster::prototype();
        let small = provision_bank_units(
            &parts::ceramic_x5r_100uf(),
            &sample_like_load(),
            &booster,
            Volts::new(2.8),
            4096,
        )
        .unwrap();
        let big = provision_bank_units(
            &parts::ceramic_x5r_100uf(),
            &radio_like_load(),
            &booster,
            Volts::new(2.8),
            4096,
        )
        .unwrap();
        assert!(
            big.units >= 10 * small.units,
            "radio {} vs sample {}",
            big.units,
            small.units
        );
    }

    #[test]
    fn infeasible_returns_none() {
        assert!(provision_bank_units(
            &parts::ceramic_x5r_100uf(),
            &radio_like_load(),
            &OutputBooster::prototype(),
            Volts::new(2.8),
            3,
        )
        .is_none());
    }

    #[test]
    fn high_esr_supercap_needs_parallel_units_for_power() {
        // One CPH3225A cannot deliver radio power through 60 Ω, no matter
        // the stored energy; parallel units divide the ESR.
        let unit = parts::edlc_cph3225a();
        let booster = OutputBooster::prototype();
        assert!(!bank_sustains(
            &unit,
            1,
            &radio_like_load(),
            &booster,
            Volts::new(2.8)
        ));
        let report = provision_bank_units(&unit, &radio_like_load(), &booster, Volts::new(2.8), 64)
            .expect("parallel supercaps eventually deliver");
        assert!(report.units > 1);
    }

    #[test]
    fn zero_units_only_sustains_empty_load() {
        let unit = parts::ceramic_x5r_100uf();
        let booster = OutputBooster::prototype();
        assert!(bank_sustains(
            &unit,
            0,
            &TaskLoad::new(),
            &booster,
            Volts::new(2.8)
        ));
        assert!(!bank_sustains(
            &unit,
            0,
            &sample_like_load(),
            &booster,
            Volts::new(2.8)
        ));
    }

    #[test]
    fn analytic_capacitance_agrees_with_iterative_provisioning() {
        // The two §3 methodologies (trial capacitors vs current-sense
        // measurement + analysis) should agree to within the derating
        // margin for a low-ESR bank.
        let booster = OutputBooster::prototype();
        let load = radio_like_load();
        let analytic =
            capacitance_for_energy(measure_task_energy(&load), &booster, Volts::new(2.8), 0.0);
        let iterative = provision_bank_units(
            &parts::ceramic_x5r_100uf(),
            &load,
            &booster,
            Volts::new(2.8),
            4096,
        )
        .unwrap()
        .capacitance;
        let ratio = iterative.get() / analytic.get();
        assert!((0.9..=1.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn analytic_capacitance_scales_with_margin_and_energy() {
        let booster = OutputBooster::prototype();
        let base = capacitance_for_energy(Joules::from_milli(10.0), &booster, Volts::new(2.8), 0.0);
        let derated =
            capacitance_for_energy(Joules::from_milli(10.0), &booster, Volts::new(2.8), 0.25);
        let double =
            capacitance_for_energy(Joules::from_milli(20.0), &booster, Volts::new(2.8), 0.0);
        assert!((derated.get() / base.get() - 1.25).abs() < 1e-9);
        assert!((double.get() / base.get() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn provisioning_is_monotone_in_load() {
        // Heavier load ⇒ at least as many units.
        let unit = parts::ceramic_x5r_100uf();
        let booster = OutputBooster::prototype();
        let light =
            provision_bank_units(&unit, &sample_like_load(), &booster, Volts::new(2.8), 4096)
                .unwrap();
        let heavy_load = sample_like_load()
            .chain(sample_like_load())
            .chain(radio_like_load());
        let heavy =
            provision_bank_units(&unit, &heavy_load, &booster, Volts::new(2.8), 4096).unwrap();
        assert!(heavy.units >= light.units);
    }
}

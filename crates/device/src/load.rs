//! The load vocabulary: constant-power phases and task load profiles.

use capy_units::{Joules, SimDuration, Volts, Watts};

/// A span of constant power draw at the regulated rail.
///
/// # Examples
///
/// ```
/// use capy_device::load::LoadPhase;
/// use capy_units::{SimDuration, Watts, Joules};
///
/// let tx = LoadPhase::new("ble-tx", SimDuration::from_millis(35), Watts::from_milli(30.0));
/// assert!((tx.energy().as_milli() - 1.05).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    label: &'static str,
    duration: SimDuration,
    power: Watts,
    /// Minimum regulated rail voltage this phase requires (e.g. 2.5 V for
    /// the gesture sensor, 2.0 V for the BLE radio; §5.1).
    min_voltage: Volts,
}

impl LoadPhase {
    /// Creates a phase with no minimum-voltage requirement.
    #[must_use]
    pub fn new(label: &'static str, duration: SimDuration, power: Watts) -> Self {
        Self {
            label,
            duration,
            power,
            min_voltage: Volts::ZERO,
        }
    }

    /// Creates a phase that additionally requires the regulated rail to be
    /// at least `min_voltage`.
    #[must_use]
    pub fn with_min_voltage(
        label: &'static str,
        duration: SimDuration,
        power: Watts,
        min_voltage: Volts,
    ) -> Self {
        Self {
            label,
            duration,
            power,
            min_voltage,
        }
    }

    /// Human-readable phase label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Phase duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Power drawn at the regulated rail during the phase.
    #[must_use]
    pub fn power(&self) -> Watts {
        self.power
    }

    /// Required minimum regulated voltage.
    #[must_use]
    pub fn min_voltage(&self) -> Volts {
        self.min_voltage
    }

    /// Energy this phase consumes at the regulated rail.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.power * self.duration
    }

    /// Returns this phase scaled to a different duration (same power).
    #[must_use]
    pub fn truncated(self, duration: SimDuration) -> Self {
        Self { duration, ..self }
    }
}

/// An ordered sequence of load phases making up one atomic operation.
///
/// A `TaskLoad` is the device-side description of what the paper calls an
/// *atomic task*: it must run to completion on buffered energy, or fail
/// and be retried from the beginning after a recharge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskLoad {
    phases: Vec<LoadPhase>,
}

impl TaskLoad {
    /// Creates an empty load (zero energy, zero duration).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: LoadPhase) {
        self.phases.push(phase);
    }

    /// Appends a phase, builder-style.
    #[must_use]
    pub fn then(mut self, phase: LoadPhase) -> Self {
        self.push(phase);
        self
    }

    /// Concatenates another load after this one.
    #[must_use]
    pub fn chain(mut self, other: TaskLoad) -> Self {
        self.phases.extend(other.phases);
        self
    }

    /// The phases in execution order.
    #[must_use]
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// Total wall-clock duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.phases.iter().map(LoadPhase::duration).sum()
    }

    /// Total energy at the regulated rail.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.phases.iter().map(LoadPhase::energy).sum()
    }

    /// Peak power across phases.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.phases
            .iter()
            .map(LoadPhase::power)
            .fold(Watts::ZERO, Watts::max)
    }

    /// The highest minimum-voltage requirement across phases.
    #[must_use]
    pub fn min_voltage(&self) -> Volts {
        self.phases
            .iter()
            .map(LoadPhase::min_voltage)
            .fold(Volts::ZERO, Volts::max)
    }

    /// `true` when the load has no phases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Returns this load with `extra` added to every phase's power —
    /// typically the MCU's active draw, which persists underneath every
    /// peripheral operation while a task runs.
    #[must_use]
    pub fn plus_power(mut self, extra: Watts) -> Self {
        for p in &mut self.phases {
            p.power += extra;
        }
        self
    }
}

impl FromIterator<LoadPhase> for TaskLoad {
    fn from_iter<I: IntoIterator<Item = LoadPhase>>(iter: I) -> Self {
        Self {
            phases: iter.into_iter().collect(),
        }
    }
}

impl Extend<LoadPhase> for TaskLoad {
    fn extend<I: IntoIterator<Item = LoadPhase>>(&mut self, iter: I) {
        self.phases.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_phase() -> LoadPhase {
        LoadPhase::new(
            "sample",
            SimDuration::from_millis(8),
            Watts::from_milli(1.0),
        )
    }

    fn tx_phase() -> LoadPhase {
        LoadPhase::with_min_voltage(
            "tx",
            SimDuration::from_millis(35),
            Watts::from_milli(30.0),
            Volts::new(2.0),
        )
    }

    #[test]
    fn phase_energy_is_power_times_duration() {
        assert!((sample_phase().energy().as_micro() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn task_load_aggregates() {
        let load = TaskLoad::new().then(sample_phase()).then(tx_phase());
        assert_eq!(load.duration(), SimDuration::from_millis(43));
        assert!((load.energy().as_micro() - (8.0 + 1050.0)).abs() < 1e-6);
        assert_eq!(load.peak_power(), Watts::from_milli(30.0));
        assert_eq!(load.min_voltage(), Volts::new(2.0));
    }

    #[test]
    fn empty_load_is_zero() {
        let load = TaskLoad::new();
        assert!(load.is_empty());
        assert_eq!(load.energy(), Joules::ZERO);
        assert_eq!(load.duration(), SimDuration::ZERO);
    }

    #[test]
    fn chain_concatenates_in_order() {
        let a = TaskLoad::new().then(sample_phase());
        let b = TaskLoad::new().then(tx_phase());
        let c = a.chain(b);
        assert_eq!(c.phases().len(), 2);
        assert_eq!(c.phases()[0].label(), "sample");
        assert_eq!(c.phases()[1].label(), "tx");
    }

    #[test]
    fn collect_from_iterator() {
        let load: TaskLoad = (0..3).map(|_| sample_phase()).collect();
        assert_eq!(load.phases().len(), 3);
        assert_eq!(load.duration(), SimDuration::from_millis(24));
    }

    #[test]
    fn truncated_preserves_power() {
        let t = tx_phase().truncated(SimDuration::from_millis(10));
        assert_eq!(t.duration(), SimDuration::from_millis(10));
        assert_eq!(t.power(), Watts::from_milli(30.0));
    }
}

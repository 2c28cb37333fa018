//! The Capybara runtime's planning logic: translating a task's energy
//! annotation (and the variant's capabilities) into the sequence of power
//! system actions to take before the task may execute (§4.3).
//!
//! The runtime state — the current configuration and which burst modes are
//! pre-charged — lives in non-volatile memory on real hardware so that it
//! survives power failures; the simulator models it as plain fields on
//! [`RuntimeState`] that are only mutated at commit-equivalent points.

use capy_power::bank::BankId;
use capy_units::Volts;

use crate::annotation::TaskEnergy;
use crate::mode::{EnergyMode, ModeTable};
use crate::variant::Variant;

/// One action the runtime performs before executing the pending task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Reconfigure the bank array to `mode` and pause until it is fully
    /// charged; the device powers down during the pause and reboots after.
    ConfigureAndCharge(EnergyMode),
    /// Reconfigure to `mode` and pause until it reaches the pre-charge
    /// ceiling (full minus the switch-circuit deficit, §6.4); marks the
    /// mode pre-charged.
    Precharge(EnergyMode),
    /// Reconfigure to `mode` and execute immediately on its stored energy
    /// — the burst path; no pause, no reboot.
    ActivateBurst(EnergyMode),
    /// Charge the current configuration back to full (recovery after a
    /// power failure, or the initial cold start).
    ChargeCurrent,
}

/// Persistent (conceptually non-volatile) runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeState {
    /// The mode the bank array is currently configured for (`None` until
    /// the first reconfiguration; `Fixed`/`Continuous` never set it).
    current: Option<EnergyMode>,
    /// Which modes hold a pre-charged burst.
    precharged: Vec<bool>,
    /// Pre-charge ceiling deficit: the switch circuit "can pre-charge a
    /// bank only to a strictly lower voltage than it can charge a bank to
    /// (by approximately 0.3 V)" (§6.4).
    precharge_deficit: Volts,
    /// Banks the degradation self-test has taken out of service, in
    /// ascending order. Non-volatile: a failed bank stays failed across
    /// reboots and long outages.
    failed: Vec<BankId>,
}

impl RuntimeState {
    /// Creates runtime state for a system with `mode_count` modes.
    #[must_use]
    pub fn new(mode_count: usize) -> Self {
        Self {
            current: None,
            precharged: vec![false; mode_count],
            precharge_deficit: Volts::new(0.3),
            failed: Vec::new(),
        }
    }

    /// Overrides the pre-charge ceiling deficit (for ablation studies).
    pub fn set_precharge_deficit(&mut self, deficit: Volts) {
        self.precharge_deficit = deficit;
    }

    /// The pre-charge ceiling deficit.
    #[must_use]
    pub fn precharge_deficit(&self) -> Volts {
        self.precharge_deficit
    }

    /// The currently configured mode.
    #[must_use]
    pub fn current_mode(&self) -> Option<EnergyMode> {
        self.current
    }

    /// Records that the array is now configured for `mode`.
    pub fn set_current_mode(&mut self, mode: EnergyMode) {
        self.current = Some(mode);
    }

    /// Whether `mode` holds a pre-charged burst.
    #[must_use]
    pub fn is_precharged(&self, mode: EnergyMode) -> bool {
        self.precharged.get(mode.0).copied().unwrap_or(false)
    }

    /// Marks `mode` pre-charged (after a completed `Precharge` step).
    pub fn mark_precharged(&mut self, mode: EnergyMode) {
        self.precharged[mode.0] = true;
    }

    /// Marks `mode` consumed (after a burst spends it, successfully or
    /// not).
    pub fn consume_precharge(&mut self, mode: EnergyMode) {
        self.precharged[mode.0] = false;
    }

    /// Clears all state, as after a long outage in which every latch
    /// decayed and the hardware reverted to switch defaults.
    pub fn reset_configuration(&mut self) {
        self.current = None;
    }

    /// Banks the runtime has marked failed, in ascending order.
    #[must_use]
    pub fn failed_banks(&self) -> &[BankId] {
        &self.failed
    }

    /// Whether `bank` has been marked failed.
    #[must_use]
    pub fn is_bank_failed(&self, bank: BankId) -> bool {
        self.failed.binary_search(&bank).is_ok()
    }

    /// Marks `bank` failed (idempotent). Failed banks never return to
    /// service: the marking models a fuse blown in non-volatile memory.
    pub fn mark_bank_failed(&mut self, bank: BankId) {
        if let Err(pos) = self.failed.binary_search(&bank) {
            self.failed.insert(pos, bank);
        }
    }
}

/// Plans the runtime steps to take before executing a task annotated
/// `energy`, given the executing `variant`, the persistent `state`, and
/// whether the previous attempt ended in a power failure (`needs_charge`).
///
/// The steps are executed in order, skipping `None`; the task body runs
/// after the last one. No plan has more than two steps (a burst
/// pre-charge, then the exec mode's charge), so the plan is a fixed-size
/// value and the hot step loop never allocates for it.
#[must_use]
pub fn plan(
    variant: Variant,
    energy: TaskEnergy,
    state: &RuntimeState,
    needs_charge: bool,
) -> [Option<Step>; 2] {
    let single = |mode| [configure(mode, state, needs_charge), None];
    match (variant, energy) {
        // The continuously-powered reference never touches the power
        // system.
        (Variant::Continuous, _) => [None, None],
        // Fixed capacity: annotations are ignored; recover from failures
        // by charging the (only) configuration.
        (Variant::Fixed, _) => single(None),
        // Capy-R treats every annotation as `config(exec_mode)`:
        // reconfigure and recharge on the critical path (§6: "Capy-R
        // excludes burst task support and requires recharging after
        // every energy mode reconfiguration").
        (Variant::CapyR, _) => single(energy.exec_mode()),
        // The pre-charged energy proved insufficient (provisioning is for
        // the average case, §6.3): recharge the burst mode on the
        // critical path and retry.
        (Variant::CapyP, TaskEnergy::Burst(mode)) if needs_charge => {
            [Some(Step::ConfigureAndCharge(mode)), None]
        }
        (Variant::CapyP, TaskEnergy::Burst(mode)) => [Some(Step::ActivateBurst(mode)), None],
        // After pre-charging, the array is configured for `burst`, so the
        // exec mode always needs reconfiguration.
        (Variant::CapyP, TaskEnergy::Preburst { burst, exec }) if !state.is_precharged(burst) => [
            Some(Step::Precharge(burst)),
            Some(Step::ConfigureAndCharge(exec)),
        ],
        (Variant::CapyP, _) => single(energy.exec_mode()),
    }
}

/// Reconfigures to `mode` and charges it unless the array already holds
/// it; otherwise charges the current configuration only to recover from
/// a failure.
fn configure(mode: Option<EnergyMode>, state: &RuntimeState, needs_charge: bool) -> Option<Step> {
    match mode {
        Some(mode) if state.current_mode() != Some(mode) => Some(Step::ConfigureAndCharge(mode)),
        _ => needs_charge.then_some(Step::ChargeCurrent),
    }
}

/// A task annotation referencing an energy mode missing from the mode
/// table (reported by [`validate_annotations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationError {
    /// Index of the offending task (registration order).
    pub task: usize,
    /// The unknown mode the annotation referenced.
    pub mode: EnergyMode,
}

impl core::fmt::Display for AnnotationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "task {} references unknown energy mode {}",
            self.task, self.mode
        )
    }
}

impl std::error::Error for AnnotationError {}

/// Validates a mode table against the annotations used by an application:
/// every referenced mode must exist.
///
/// # Errors
///
/// Returns an [`AnnotationError`] naming the first task whose annotation
/// references a mode absent from `modes`.
pub fn validate_annotations(
    modes: &ModeTable,
    annotations: impl IntoIterator<Item = TaskEnergy>,
) -> Result<(), AnnotationError> {
    for (task, a) in annotations.into_iter().enumerate() {
        for mode in [a.exec_mode(), a.precharge_mode()].into_iter().flatten() {
            if mode.0 >= modes.len() {
                return Err(AnnotationError { task, mode });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const M0: EnergyMode = EnergyMode(0);
    const M1: EnergyMode = EnergyMode(1);
    const NOTHING: [Option<Step>; 2] = [None, None];

    fn state2() -> RuntimeState {
        RuntimeState::new(2)
    }

    #[test]
    fn continuous_never_plans() {
        let s = state2();
        assert_eq!(
            plan(Variant::Continuous, TaskEnergy::Config(M0), &s, true),
            NOTHING
        );
    }

    #[test]
    fn fixed_charges_only_after_failure() {
        let s = state2();
        assert_eq!(
            plan(Variant::Fixed, TaskEnergy::Burst(M1), &s, false),
            NOTHING
        );
        assert_eq!(
            plan(Variant::Fixed, TaskEnergy::Burst(M1), &s, true),
            [Some(Step::ChargeCurrent), None]
        );
    }

    #[test]
    fn capy_r_reconfigures_on_mode_change() {
        let mut s = state2();
        assert_eq!(
            plan(Variant::CapyR, TaskEnergy::Config(M0), &s, false),
            [Some(Step::ConfigureAndCharge(M0)), None]
        );
        s.set_current_mode(M0);
        assert_eq!(
            plan(Variant::CapyR, TaskEnergy::Config(M0), &s, false),
            NOTHING
        );
        // Burst degrades to config-with-recharge under Capy-R.
        assert_eq!(
            plan(Variant::CapyR, TaskEnergy::Burst(M1), &s, false),
            [Some(Step::ConfigureAndCharge(M1)), None]
        );
    }

    #[test]
    fn capy_r_ignores_preburst_precharge() {
        let mut s = state2();
        s.set_current_mode(M0);
        // Preburst's exec mode is honoured, the burst pre-charge is not.
        assert_eq!(
            plan(
                Variant::CapyR,
                TaskEnergy::Preburst {
                    burst: M1,
                    exec: M0
                },
                &s,
                false
            ),
            NOTHING
        );
    }

    #[test]
    fn capy_p_burst_activates_without_charging() {
        let mut s = state2();
        s.set_current_mode(M0);
        s.mark_precharged(M1);
        assert_eq!(
            plan(Variant::CapyP, TaskEnergy::Burst(M1), &s, false),
            [Some(Step::ActivateBurst(M1)), None]
        );
    }

    #[test]
    fn capy_p_burst_recharges_on_retry() {
        let s = state2();
        assert_eq!(
            plan(Variant::CapyP, TaskEnergy::Burst(M1), &s, true),
            [Some(Step::ConfigureAndCharge(M1)), None]
        );
    }

    #[test]
    fn capy_p_preburst_charges_burst_then_exec() {
        let s = state2();
        assert_eq!(
            plan(
                Variant::CapyP,
                TaskEnergy::Preburst {
                    burst: M1,
                    exec: M0
                },
                &s,
                false
            ),
            [
                Some(Step::Precharge(M1)),
                Some(Step::ConfigureAndCharge(M0))
            ]
        );
    }

    #[test]
    fn capy_p_preburst_skips_when_already_precharged() {
        let mut s = state2();
        s.mark_precharged(M1);
        s.set_current_mode(M0);
        assert_eq!(
            plan(
                Variant::CapyP,
                TaskEnergy::Preburst {
                    burst: M1,
                    exec: M0
                },
                &s,
                false
            ),
            NOTHING
        );
    }

    #[test]
    fn failed_bank_marking_is_sorted_and_idempotent() {
        let mut s = state2();
        assert!(s.failed_banks().is_empty());
        s.mark_bank_failed(BankId(2));
        s.mark_bank_failed(BankId(0));
        s.mark_bank_failed(BankId(2));
        assert_eq!(s.failed_banks(), &[BankId(0), BankId(2)]);
        assert!(s.is_bank_failed(BankId(0)));
        assert!(!s.is_bank_failed(BankId(1)));
        // A configuration reset (long outage) does not forget failures.
        s.reset_configuration();
        assert_eq!(s.failed_banks().len(), 2);
    }

    #[test]
    fn precharge_consumption_round_trip() {
        let mut s = state2();
        assert!(!s.is_precharged(M1));
        s.mark_precharged(M1);
        assert!(s.is_precharged(M1));
        s.consume_precharge(M1);
        assert!(!s.is_precharged(M1));
    }

    #[test]
    fn unannotated_keeps_configuration() {
        let mut s = state2();
        s.set_current_mode(M1);
        assert_eq!(
            plan(Variant::CapyP, TaskEnergy::Unannotated, &s, false),
            NOTHING
        );
        assert_eq!(
            plan(Variant::CapyP, TaskEnergy::Unannotated, &s, true),
            [Some(Step::ChargeCurrent), None]
        );
    }

    #[test]
    fn validation_catches_bad_mode() {
        let table = ModeTable::new();
        let err = validate_annotations(&table, [TaskEnergy::Config(M0)])
            .expect_err("empty table cannot satisfy any annotation");
        assert_eq!(err, AnnotationError { task: 0, mode: M0 });
        assert!(err.to_string().contains("unknown energy mode"));
    }

    #[test]
    fn validation_accepts_registered_modes() {
        let mut table = ModeTable::new();
        table.add("only", &[capy_power::bank::BankId(0)]);
        assert_eq!(
            validate_annotations(&table, [TaskEnergy::Config(M0), TaskEnergy::Burst(M0)]),
            Ok(())
        );
    }

    /// Exhaustive sweep of the planner's input space, checking structural
    /// invariants rather than a golden table.
    #[test]
    fn exhaustive_plan_invariants() {
        let annotations = [
            TaskEnergy::Unannotated,
            TaskEnergy::Config(M0),
            TaskEnergy::Config(M1),
            TaskEnergy::Burst(M1),
            TaskEnergy::Preburst {
                burst: M1,
                exec: M0,
            },
        ];
        let current_modes = [None, Some(M0), Some(M1)];
        for variant in Variant::ALL {
            for &energy in &annotations {
                for &current in &current_modes {
                    for precharged in [false, true] {
                        for needs_charge in [false, true] {
                            let mut state = RuntimeState::new(2);
                            if let Some(m) = current {
                                state.set_current_mode(m);
                            }
                            if precharged {
                                state.mark_precharged(M1);
                            }
                            let steps: Vec<Step> = plan(variant, energy, &state, needs_charge)
                                .into_iter()
                                .flatten()
                                .collect();

                            // 1. The continuous reference never plans.
                            if variant == Variant::Continuous {
                                assert!(steps.is_empty());
                                continue;
                            }
                            // 2. Fixed charges only to recover from failure.
                            if variant == Variant::Fixed {
                                assert_eq!(!steps.is_empty(), needs_charge);
                                continue;
                            }
                            // 3. Burst activation appears only under Capy-P,
                            //    only for burst annotations, never alongside
                            //    charging, and never on the retry path.
                            let has_burst =
                                steps.iter().any(|s| matches!(s, Step::ActivateBurst(_)));
                            if has_burst {
                                assert_eq!(variant, Variant::CapyP);
                                assert!(energy.is_burst());
                                assert!(!needs_charge);
                                assert_eq!(steps.len(), 1);
                            }
                            // 4. Pre-charging appears only when the burst
                            //    mode lacks a reservation, and is always
                            //    followed by configuring the exec mode.
                            if let Some(pos) =
                                steps.iter().position(|s| matches!(s, Step::Precharge(_)))
                            {
                                assert_eq!(variant, Variant::CapyP);
                                assert!(!precharged);
                                assert!(matches!(
                                    steps.get(pos + 1),
                                    Some(Step::ConfigureAndCharge(_))
                                ));
                            }
                            // 5. After executing the plan against the state,
                            //    the configuration matches the task's exec
                            //    mode (when it names one).
                            let mut end_state = state.clone();
                            for step in &steps {
                                match step {
                                    Step::ConfigureAndCharge(m) | Step::Precharge(m) => {
                                        end_state.set_current_mode(*m);
                                    }
                                    Step::ActivateBurst(m) => end_state.set_current_mode(*m),
                                    Step::ChargeCurrent => {}
                                }
                            }
                            if let Some(exec) = energy.exec_mode() {
                                assert_eq!(
                                    end_state.current_mode(),
                                    Some(exec),
                                    "{variant:?} {energy:?} current={current:?} \
                                     precharged={precharged} needs={needs_charge} -> {steps:?}"
                                );
                            }
                            // 6. A failed attempt always triggers at least
                            //    one charging step before the retry.
                            if needs_charge {
                                assert!(
                                    steps.iter().any(|s| matches!(
                                        s,
                                        Step::ChargeCurrent
                                            | Step::ConfigureAndCharge(_)
                                            | Step::Precharge(_)
                                    )),
                                    "{variant:?} {energy:?} must recharge after failure"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

//! Automatic bank allocation — the paper's stated future work (§8):
//! "Future work should automate energy capacity estimation for
//! application tasks and find an allocation of capacitors to banks for a
//! set of task energy requirements."
//!
//! Given the measured [`TaskLoad`] of each task (the §3 measurement
//! methodology, automated here by [`crate::provision`]), the allocator:
//!
//! 1. sizes the capacitance each demand needs, with derating (§3);
//! 2. arranges banks as *increments* so that demand *k*'s mode activates
//!    banks `0..=k` — the nested arrangement sketched in Figure 5, which
//!    minimizes total capacitance across modes;
//! 3. realizes each increment in a concrete capacitor technology,
//!    applying the §5.2 wear-levelling rule: the base bank (cycled by
//!    every task) uses robust low-density parts, while dense but
//!    cycle-limited EDLC parts are "dedicated to a bank and used only
//!    when another bank with less dense but more robust capacitors is
//!    insufficient";
//! 4. verifies every mode against its demand through the ESR-aware
//!    discharge model, growing the top increment if charge-sharing or
//!    droop leaves a mode short.

use capy_device::load::TaskLoad;
use capy_power::bank::{Bank, BankId};
use capy_power::booster::OutputBooster;
use capy_power::capacitor::CapacitorSpec;
use capy_power::switch::SwitchKind;
use capy_power::technology::parts;
use capy_units::{Farads, Ohms, Volts};

use crate::provision::sustains;

/// One task's demand on the power system, as input to the allocator.
#[derive(Debug, Clone)]
pub struct TaskDemand {
    /// Task name (for diagnostics).
    pub name: &'static str,
    /// The measured atomic load of the task.
    pub load: TaskLoad,
}

impl TaskDemand {
    /// Creates a demand.
    #[must_use]
    pub fn new(name: &'static str, load: TaskLoad) -> Self {
        Self { name, load }
    }
}

/// Allocator tuning knobs.
#[derive(Debug, Clone)]
pub struct AllocationOptions {
    /// Full (charged) voltage of the array.
    pub full_voltage: Volts,
    /// Over-provisioning margin applied to each demand's capacitance
    /// ("the standard practice of derating", §3). 0.2 = 20% extra.
    pub derating_margin: f64,
    /// Apply the §5.2 wear-levelling placement rule.
    pub wear_levelling: bool,
    /// Upper bound on parallel units per bank (board-area sanity bound).
    pub max_units_per_bank: usize,
}

impl Default for AllocationOptions {
    fn default() -> Self {
        Self {
            full_voltage: Volts::new(2.8),
            derating_margin: 0.2,
            wear_levelling: true,
            max_units_per_bank: 64,
        }
    }
}

/// A bank the allocator decided to build.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBank {
    /// Generated bank name.
    pub name: &'static str,
    /// The capacitor part the bank is built from.
    pub unit: CapacitorSpec,
    /// Number of parallel units.
    pub units: usize,
    /// Recommended switch default: the base bank is normally-closed (the
    /// fast-cold-start default configuration); higher increments are
    /// normally-open.
    pub switch: SwitchKind,
}

impl PlannedBank {
    /// The bank's total capacitance.
    #[must_use]
    pub fn capacitance(&self) -> Farads {
        self.unit.capacitance() * self.units as f64
    }

    /// The bank's board volume.
    #[must_use]
    pub fn volume_mm3(&self) -> f64 {
        self.unit.volume_mm3() * self.units as f64
    }

    /// Materializes the bank.
    #[must_use]
    pub fn build(&self) -> Bank {
        Bank::builder(self.name)
            .with_n(self.unit.clone(), self.units)
            .build()
    }
}

/// The allocator's output: banks plus, per demand (input order), the bank
/// subset forming its energy mode.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationPlan {
    /// Banks to build, in activation order (base first).
    pub banks: Vec<PlannedBank>,
    /// For each input demand, the banks of its mode.
    pub modes: Vec<Vec<BankId>>,
}

impl AllocationPlan {
    /// Total capacitance across the array.
    #[must_use]
    pub fn total_capacitance(&self) -> Farads {
        self.banks.iter().map(PlannedBank::capacitance).sum()
    }

    /// Total board volume across the array, mm³.
    #[must_use]
    pub fn total_volume_mm3(&self) -> f64 {
        self.banks.iter().map(PlannedBank::volume_mm3).sum()
    }

    /// Materializes all banks.
    #[must_use]
    pub fn build_banks(&self) -> Vec<Bank> {
        self.banks.iter().map(PlannedBank::build).collect()
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocateError {
    /// No demands were given.
    NoDemands,
    /// A demand cannot be satisfied within the unit bound by any catalog
    /// technology.
    Infeasible {
        /// Name of the infeasible task.
        task: &'static str,
    },
}

impl core::fmt::Display for AllocateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocateError::NoDemands => write!(f, "no task demands given"),
            AllocateError::Infeasible { task } => {
                write!(f, "task '{task}' is infeasible within the unit bound")
            }
        }
    }
}

impl std::error::Error for AllocateError {}

/// Static names for generated banks (banks carry `&'static str` names).
const BANK_NAMES: [&str; 8] = [
    "alloc-bank-0",
    "alloc-bank-1",
    "alloc-bank-2",
    "alloc-bank-3",
    "alloc-bank-4",
    "alloc-bank-5",
    "alloc-bank-6",
    "alloc-bank-7",
];

/// The robust (unlimited-cycle) realization part for frequently-cycled
/// increments, and the dense realization for rarely-cycled bulk.
fn robust_unit() -> CapacitorSpec {
    parts::ceramic_x5r_100uf()
}
fn dense_unit() -> CapacitorSpec {
    parts::edlc_7_5mf()
}

/// Capacitance demand `load` places on a bank charged to `full`, through
/// `booster`, with `margin` derating.
fn required_capacitance(
    load: &TaskLoad,
    booster: &OutputBooster,
    full: Volts,
    margin: f64,
) -> Farads {
    let energy: f64 = load
        .phases()
        .iter()
        .map(|p| (booster.input_power_for(p.power()) * p.duration()).get())
        .sum();
    let window = full.squared() - booster.min_operating_voltage().squared();
    Farads::new(2.0 * energy * (1.0 + margin) / window)
}

fn parallel_esr(banks: &[PlannedBank]) -> Ohms {
    let mut inv = 0.0;
    for b in banks {
        let r = b.unit.esr().get() / b.units as f64;
        if r <= 0.0 {
            return Ohms::ZERO;
        }
        inv += 1.0 / r;
    }
    if inv == 0.0 {
        Ohms::ZERO
    } else {
        Ohms::new(1.0 / inv)
    }
}

/// Allocates banks and modes for a set of task demands.
///
/// The returned plan's `modes[i]` corresponds to `demands[i]`.
///
/// # Errors
///
/// Returns [`AllocateError::NoDemands`] for empty input and
/// [`AllocateError::Infeasible`] when a demand cannot be met within
/// `options.max_units_per_bank` of any catalog technology.
///
/// # Examples
///
/// ```
/// use capybara::allocate::{allocate, AllocationOptions, TaskDemand};
/// use capy_device::load::{LoadPhase, TaskLoad};
/// use capy_power::booster::OutputBooster;
/// use capy_units::{SimDuration, Watts};
///
/// let sample = TaskDemand::new(
///     "sample",
///     TaskLoad::new().then(LoadPhase::new("s", SimDuration::from_millis(10), Watts::from_milli(1.0))),
/// );
/// let radio = TaskDemand::new(
///     "radio",
///     TaskLoad::new().then(LoadPhase::new("tx", SimDuration::from_millis(500), Watts::from_milli(30.0))),
/// );
/// let plan = allocate(&[sample, radio], &OutputBooster::prototype(), &AllocationOptions::default())?;
/// assert_eq!(plan.modes.len(), 2);
/// // The radio's mode strictly contains the sample's (nested increments).
/// assert!(plan.modes[1].len() > plan.modes[0].len());
/// # Ok::<(), capybara::allocate::AllocateError>(())
/// ```
pub fn allocate(
    demands: &[TaskDemand],
    booster: &OutputBooster,
    options: &AllocationOptions,
) -> Result<AllocationPlan, AllocateError> {
    if demands.is_empty() {
        return Err(AllocateError::NoDemands);
    }
    assert!(
        demands.len() <= BANK_NAMES.len(),
        "allocator supports up to {} demands",
        BANK_NAMES.len()
    );
    let full = options.full_voltage;

    // 1. Size each demand, keeping the original index.
    let mut sized: Vec<(usize, Farads)> = demands
        .iter()
        .enumerate()
        .map(|(i, d)| {
            (
                i,
                required_capacitance(&d.load, booster, full, options.derating_margin),
            )
        })
        .collect();
    sized.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite capacitances"));

    // 2. Build increment banks; demand k's mode = banks 0..=k (merging
    //    increments too small to justify a switch into the previous bank).
    let mut banks: Vec<PlannedBank> = Vec::new();
    let mut modes: Vec<Vec<BankId>> = vec![Vec::new(); demands.len()];
    let mut covered = Farads::ZERO;
    for (rank, &(demand_idx, c_needed)) in sized.iter().enumerate() {
        let missing = c_needed - covered;
        // A new increment is worth a switch only if it adds ≥25% capacity.
        if missing.get() > covered.get() * 0.25 || banks.is_empty() {
            // Wear rule: the base increment cycles with every task — use
            // robust parts; higher increments cycle only when their big
            // modes run, so dense parts are acceptable there.
            let prefer_dense = options.wear_levelling && !banks.is_empty();
            let unit = pick_unit(missing, prefer_dense, options.max_units_per_bank).ok_or(
                AllocateError::Infeasible {
                    task: demands[demand_idx].name,
                },
            )?;
            let units = ((missing.get() / unit.capacitance().get()).ceil() as usize).max(1);
            if units > options.max_units_per_bank {
                return Err(AllocateError::Infeasible {
                    task: demands[demand_idx].name,
                });
            }
            let bank = PlannedBank {
                name: BANK_NAMES[banks.len()],
                unit,
                units,
                switch: if banks.is_empty() {
                    SwitchKind::NormallyClosed
                } else {
                    SwitchKind::NormallyOpen
                },
            };
            covered += bank.capacitance();
            banks.push(bank);
        }
        let _ = rank;
        modes[demand_idx] = (0..banks.len()).map(BankId).collect();
    }

    // 3. Verify each mode through the discharge model; grow the top bank
    //    of a failing mode until it sustains its demand.
    for (i, demand) in demands.iter().enumerate() {
        let mode_len = modes[i].len();
        loop {
            let slice = &banks[..mode_len];
            let c: Farads = slice.iter().map(PlannedBank::capacitance).sum();
            let esr = parallel_esr(slice);
            if sustains(c, esr, full, &demand.load, booster) {
                break;
            }
            let top = &mut banks[mode_len - 1];
            if top.units >= options.max_units_per_bank {
                return Err(AllocateError::Infeasible { task: demand.name });
            }
            top.units += 1;
        }
    }

    Ok(AllocationPlan { banks, modes })
}

/// Picks the realization part for an increment of `missing` capacitance.
fn pick_unit(missing: Farads, prefer_dense: bool, max_units: usize) -> Option<CapacitorSpec> {
    let candidates = if prefer_dense {
        [dense_unit(), robust_unit()]
    } else {
        [robust_unit(), dense_unit()]
    };
    candidates
        .into_iter()
        .find(|unit| (missing.get() / unit.capacitance().get()).ceil() as usize <= max_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_device::load::LoadPhase;
    use capy_power::technology::Technology;
    use capy_units::rng::DetRng;
    use capy_units::{SimDuration, Watts};

    fn load(ms: u64, mw: f64) -> TaskLoad {
        TaskLoad::new().then(LoadPhase::new(
            "l",
            SimDuration::from_millis(ms),
            Watts::from_milli(mw),
        ))
    }

    fn booster() -> OutputBooster {
        OutputBooster::prototype()
    }

    #[test]
    fn single_demand_yields_single_nc_bank() {
        let plan = allocate(
            &[TaskDemand::new("only", load(10, 1.0))],
            &booster(),
            &AllocationOptions::default(),
        )
        .unwrap();
        assert_eq!(plan.banks.len(), 1);
        assert_eq!(plan.banks[0].switch, SwitchKind::NormallyClosed);
        assert_eq!(plan.modes[0], vec![BankId(0)]);
    }

    #[test]
    fn modes_are_nested_by_demand_size() {
        let plan = allocate(
            &[
                TaskDemand::new("radio", load(500, 30.0)),
                TaskDemand::new("sample", load(10, 1.0)),
                TaskDemand::new("gesture", load(250, 25.0)),
            ],
            &booster(),
            &AllocationOptions::default(),
        )
        .unwrap();
        // Input order preserved; subset sizes follow energy order:
        // sample ⊂ gesture ⊆ radio.
        let sample = &plan.modes[1];
        let gesture = &plan.modes[2];
        let radio = &plan.modes[0];
        assert!(sample.len() <= gesture.len());
        assert!(gesture.len() <= radio.len());
        assert!(radio.iter().take(sample.len()).eq(sample.iter()));
    }

    #[test]
    fn wear_levelling_keeps_fragile_parts_out_of_the_base_bank() {
        let plan = allocate(
            &[
                TaskDemand::new("sample", load(10, 1.0)),
                TaskDemand::new("radio", load(1_000, 30.0)),
            ],
            &booster(),
            &AllocationOptions::default(),
        )
        .unwrap();
        assert!(plan.banks.len() >= 2);
        assert_ne!(plan.banks[0].unit.technology(), Technology::Edlc);
        // The bulk increment is realized densely.
        assert_eq!(
            plan.banks.last().unwrap().unit.technology(),
            Technology::Edlc
        );
    }

    #[test]
    fn every_mode_sustains_its_demand() {
        let demands = vec![
            TaskDemand::new("a", load(8, 1.0)),
            TaskDemand::new("b", load(250, 25.0)),
            TaskDemand::new("c", load(1_200, 12.0)),
        ];
        let opts = AllocationOptions::default();
        let b = booster();
        let plan = allocate(&demands, &b, &opts).unwrap();
        for (i, d) in demands.iter().enumerate() {
            let slice: Vec<&PlannedBank> =
                plan.modes[i].iter().map(|id| &plan.banks[id.0]).collect();
            let c: Farads = slice.iter().map(|p| p.capacitance()).sum();
            let owned: Vec<PlannedBank> = slice.into_iter().cloned().collect();
            let esr = parallel_esr(&owned);
            assert!(
                sustains(c, esr, opts.full_voltage, &d.load, &b),
                "mode {i} must sustain its demand"
            );
        }
    }

    #[test]
    fn derating_grows_the_allocation() {
        let demands = vec![TaskDemand::new("t", load(500, 10.0))];
        let b = booster();
        let lean = allocate(
            &demands,
            &b,
            &AllocationOptions {
                derating_margin: 0.0,
                ..AllocationOptions::default()
            },
        )
        .unwrap();
        let derated = allocate(
            &demands,
            &b,
            &AllocationOptions {
                derating_margin: 0.5,
                ..AllocationOptions::default()
            },
        )
        .unwrap();
        assert!(derated.total_capacitance() >= lean.total_capacitance());
    }

    #[test]
    fn empty_demands_error() {
        assert_eq!(
            allocate(&[], &booster(), &AllocationOptions::default()).unwrap_err(),
            AllocateError::NoDemands
        );
    }

    #[test]
    fn impossible_demand_errors() {
        let err = allocate(
            &[TaskDemand::new("monster", load(600_000, 50.0))],
            &booster(),
            &AllocationOptions {
                max_units_per_bank: 4,
                ..AllocationOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, AllocateError::Infeasible { task: "monster" });
    }

    #[test]
    fn built_banks_match_the_plan() {
        let plan = allocate(
            &[
                TaskDemand::new("small", load(10, 1.0)),
                TaskDemand::new("large", load(400, 30.0)),
            ],
            &booster(),
            &AllocationOptions::default(),
        )
        .unwrap();
        let banks = plan.build_banks();
        assert_eq!(banks.len(), plan.banks.len());
        for (bank, planned) in banks.iter().zip(&plan.banks) {
            assert!((bank.capacitance().get() - planned.capacitance().get()).abs() < 1e-12);
            assert_eq!(bank.name(), planned.name);
        }
        assert!(plan.total_volume_mm3() > 0.0);
    }

    /// For arbitrary feasible demand sets, every planned mode sustains
    /// its demand through the discharge model.
    #[test]
    fn prop_every_mode_sustains() {
        let mut rng = DetRng::seed_from_u64(0xa110c);
        for _ in 0..48 {
            let n = rng.gen_range(1usize..5);
            let demands: Vec<TaskDemand> = (0..n)
                .map(|i| {
                    let ms = rng.gen_range(5u64..2_000);
                    let mw = rng.gen_range(1u64..30);
                    TaskDemand::new(["a", "b", "c", "d", "e"][i], load(ms, mw as f64))
                })
                .collect();
            let opts = AllocationOptions::default();
            let b = booster();
            let plan = match allocate(&demands, &b, &opts) {
                Ok(p) => p,
                Err(AllocateError::Infeasible { .. }) => continue,
                Err(e) => panic!("{e}"),
            };
            for (i, d) in demands.iter().enumerate() {
                let slice: Vec<PlannedBank> = plan.modes[i]
                    .iter()
                    .map(|id| plan.banks[id.0].clone())
                    .collect();
                let c: Farads = slice.iter().map(PlannedBank::capacitance).sum();
                let esr = parallel_esr(&slice);
                assert!(
                    sustains(c, esr, opts.full_voltage, &d.load, &b),
                    "mode {i} under-provisioned"
                );
            }
        }
    }

    /// Modes form a nested chain: any two modes are subset-related.
    #[test]
    fn prop_modes_are_nested() {
        let mut rng = DetRng::seed_from_u64(0xa110d);
        for _ in 0..48 {
            let n = rng.gen_range(2usize..5);
            let demands: Vec<TaskDemand> = (0..n)
                .map(|i| {
                    let ms = rng.gen_range(5u64..2_000);
                    let mw = rng.gen_range(1u64..30);
                    TaskDemand::new(["a", "b", "c", "d", "e"][i], load(ms, mw as f64))
                })
                .collect();
            let Ok(plan) = allocate(&demands, &booster(), &AllocationOptions::default()) else {
                continue;
            };
            for m in &plan.modes {
                // Each mode is a prefix of the bank list.
                let expected: Vec<BankId> = (0..m.len()).map(BankId).collect();
                assert_eq!(m.clone(), expected);
            }
        }
    }
}

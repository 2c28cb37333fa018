//! Energy modes: the software-visible names for hardware bank
//! configurations (§4.1).
//!
//! "From the software perspective, Capybara abstracts the specific amount
//! of energy required by a task, instead allowing software to refer to a
//! task's *energy mode*: an identifier that corresponds to the specific
//! amount of capacitance required to execute the task" (§3). A
//! [`ModeTable`] is the design-time mapping from each mode to the subset of
//! banks that implements it.

use capy_power::bank::BankId;
use capy_units::cycle::Cycle;

/// A software-visible energy-mode identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnergyMode(pub usize);

impl core::fmt::Display for EnergyMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "mode{}", self.0)
    }
}

/// The design-time mapping from energy modes to bank subsets.
///
/// # Examples
///
/// ```
/// use capybara::mode::ModeTable;
/// use capy_power::bank::BankId;
///
/// let mut table = ModeTable::new();
/// let low = table.add("low", &[BankId(0)]);
/// let high = table.add("high", &[BankId(1), BankId(2)]);
/// assert_eq!(table.banks(low), &[BankId(0)]);
/// assert_eq!(table.name(high), "high");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModeTable {
    modes: Vec<ModeDef>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ModeDef {
    name: &'static str,
    banks: Vec<BankId>,
}

impl ModeTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a mode backed by the given banks, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is empty or contains duplicates.
    pub fn add(&mut self, name: &'static str, banks: &[BankId]) -> EnergyMode {
        assert!(!banks.is_empty(), "an energy mode needs at least one bank");
        let mut sorted = banks.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate bank in energy mode"
        );
        let id = EnergyMode(self.modes.len());
        self.modes.push(ModeDef {
            name,
            banks: banks.to_vec(),
        });
        id
    }

    /// Number of registered modes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// `true` when no modes are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// The banks backing `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not created by this table.
    #[must_use]
    pub fn banks(&self, mode: EnergyMode) -> &[BankId] {
        &self.modes[mode.0].banks
    }

    /// The design-time name of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not created by this table.
    #[must_use]
    pub fn name(&self, mode: EnergyMode) -> &'static str {
        self.modes[mode.0].name
    }

    /// Looks a mode up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<EnergyMode> {
        self.modes
            .iter()
            .position(|m| m.name == name)
            .map(EnergyMode)
    }

    /// `true` when `bank` participates in `mode`.
    #[must_use]
    pub fn contains(&self, mode: EnergyMode, bank: BankId) -> bool {
        self.modes[mode.0].banks.contains(&bank)
    }

    /// The highest bank index referenced by any mode, for validating the
    /// table against a power system's bank array.
    #[must_use]
    pub fn max_bank_index(&self) -> Option<usize> {
        self.modes
            .iter()
            .flat_map(|m| m.banks.iter().map(|b| b.0))
            .max()
    }

    /// Visits the table's steady state: each mode's bank set as words
    /// (a degradation remap changes it; names never change).
    pub fn steady_state(&self, c: &mut Cycle<'_>) {
        let Self { modes } = self;
        c.word(modes.len() as u64);
        for ModeDef { name: _, banks } in modes {
            c.word(banks.len() as u64);
            for bank in banks {
                c.word(bank.0 as u64);
            }
        }
    }

    /// Remaps every mode onto the banks that survive losing `failed`:
    /// failed banks are dropped from each mode's bank set, and a mode
    /// left with no banks at all inherits every surviving bank (the best
    /// capacity still available — a degraded stand-in, not an
    /// equivalent). Returns the modes whose bank sets changed, in id
    /// order.
    ///
    /// When *no* bank survives, every mode ends up empty; callers must
    /// treat the array as dead rather than configure an empty mode.
    pub fn remap_excluding(&mut self, failed: &[BankId]) -> Vec<EnergyMode> {
        let mut survivors: Vec<BankId> = self
            .modes
            .iter()
            .flat_map(|m| m.banks.iter().copied())
            .filter(|b| !failed.contains(b))
            .collect();
        survivors.sort_unstable();
        survivors.dedup();
        let mut changed = Vec::new();
        for (i, def) in self.modes.iter_mut().enumerate() {
            let before = def.banks.clone();
            def.banks.retain(|b| !failed.contains(b));
            if def.banks.is_empty() {
                def.banks.clone_from(&survivors);
            }
            if def.banks != before {
                changed.push(EnergyMode(i));
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut t = ModeTable::new();
        let a = t.add("a", &[BankId(0)]);
        let b = t.add("b", &[BankId(1), BankId(2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.find("b"), Some(b));
        assert_eq!(t.find("zzz"), None);
        assert!(t.contains(b, BankId(2)));
        assert!(!t.contains(a, BankId(2)));
        assert_eq!(t.max_bank_index(), Some(2));
    }

    #[test]
    fn empty_table() {
        let t = ModeTable::new();
        assert!(t.is_empty());
        assert_eq!(t.max_bank_index(), None);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn rejects_empty_mode() {
        let mut t = ModeTable::new();
        let _ = t.add("empty", &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate bank")]
    fn rejects_duplicate_banks() {
        let mut t = ModeTable::new();
        let _ = t.add("dup", &[BankId(1), BankId(1)]);
    }

    #[test]
    fn display_of_mode() {
        assert_eq!(EnergyMode(3).to_string(), "mode3");
    }

    #[test]
    fn remap_drops_failed_banks_and_refills_empty_modes() {
        let mut t = ModeTable::new();
        let small = t.add("small", &[BankId(0)]);
        let big = t.add("big", &[BankId(1)]);
        let both = t.add("both", &[BankId(0), BankId(1)]);
        let changed = t.remap_excluding(&[BankId(1)]);
        // "small" is untouched; "big" lost its only bank and inherits the
        // survivor; "both" shrinks to the survivor.
        assert_eq!(changed, vec![big, both]);
        assert_eq!(t.banks(small), &[BankId(0)]);
        assert_eq!(t.banks(big), &[BankId(0)]);
        assert_eq!(t.banks(both), &[BankId(0)]);
    }

    #[test]
    fn remap_with_no_survivors_empties_every_mode() {
        let mut t = ModeTable::new();
        let only = t.add("only", &[BankId(0)]);
        let changed = t.remap_excluding(&[BankId(0)]);
        assert_eq!(changed, vec![only]);
        assert!(t.banks(only).is_empty());
    }

    #[test]
    fn remap_is_idempotent() {
        let mut t = ModeTable::new();
        let _ = t.add("small", &[BankId(0)]);
        let _ = t.add("big", &[BankId(1)]);
        assert!(!t.remap_excluding(&[BankId(1)]).is_empty());
        assert!(
            t.remap_excluding(&[BankId(1)]).is_empty(),
            "second remap is a no-op"
        );
    }
}

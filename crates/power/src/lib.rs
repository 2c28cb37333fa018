//! Analog power-system substrate for the Capybara reproduction.
//!
//! The paper's hardware (§5) is a reconfigurable array of capacitor banks
//! behind a power-distribution circuit (voltage limiter, input booster with
//! cold-start bypass, output booster). This crate models each of those
//! circuits with enough fidelity to reproduce the paper's design-space and
//! end-to-end results:
//!
//! * [`capacitor`] — capacitance/ESR/leakage physics, with closed-form
//!   charge integration and ESR-droop-limited discharge.
//! * [`technology`] — a parts library of the capacitor technologies the
//!   paper evaluates (X5R ceramic, tantalum, CPH3225A EDLC supercapacitor).
//! * [`bank`] — parallel compositions of capacitors forming one switchable
//!   energy bank.
//! * [`switch`] — the latch-capacitor state-retaining switch, in both
//!   normally-open and normally-closed variants (§5.2).
//! * [`harvester`] — energy-source models (constant, regulated-resistor,
//!   solar, trace-driven).
//! * [`booster`] — input booster with cold-start threshold and keeper-diode
//!   bypass, output booster/regulator, voltage limiter (§5.1).
//! * [`system`] — the composed [`system::PowerSystem`]: reconfiguration,
//!   charging, load draw, leakage, and charge-sharing when banks connect.
//!
//! # Example: charging a bank and running a load
//!
//! ```
//! use capy_power::prelude::*;
//! use capy_units::{SimTime, SimDuration, Volts, Watts};
//!
//! let bank = Bank::builder("boot")
//!     .with(parts::ceramic_x5r_100uf())
//!     .with(parts::tantalum_330uf())
//!     .build();
//! let mut system = PowerSystem::builder()
//!     .harvester(ConstantHarvester::new(Watts::from_milli(10.0), Volts::new(3.0)))
//!     .bank(bank, SwitchKind::NormallyClosed)
//!     .build();
//!
//! let mut now = SimTime::ZERO;
//! let charged = system.charge_until_full(&mut now).expect("harvester supplies power");
//! assert!(charged > SimDuration::ZERO);
//!
//! // Draw a 5 mW load for 50 ms from the charged bank.
//! let outcome = system.draw(Watts::from_milli(5.0), SimDuration::from_millis(50), &mut now);
//! assert!(outcome.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod booster;
pub mod capacitor;
pub mod harvester;
pub mod lifetime;
pub mod mechanism;
pub mod mppt;
pub mod switch;
pub mod system;
pub mod technology;

mod error;

pub use error::PowerError;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::bank::{Bank, BankBuilder, BankId};
    pub use crate::booster::{Bypass, InputBooster, OutputBooster, VoltageLimiter};
    pub use crate::capacitor::{CapacitorSpec, CapacitorState};
    pub use crate::harvester::{
        ConstantHarvester, Harvester, RegulatedSupply, RfHarvester, SolarPanel, TraceHarvester,
    };
    pub use crate::lifetime::{bank_wear, typical_cycle_life, WearModel, WearReport};
    pub use crate::mechanism::Mechanism;
    pub use crate::mppt::{harvested_power, PvCurve, Tracking};
    pub use crate::switch::{BankSwitch, SwitchFault, SwitchKind, SwitchState};
    pub use crate::system::{
        ChargeOutcome, DrawOutcome, HardwareFault, PowerSystem, PowerSystemBuilder,
    };
    pub use crate::technology::{parts, Technology};
    pub use crate::PowerError;
}

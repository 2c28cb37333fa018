//! Physical-quantity newtypes for the Capybara energy-harvesting simulator.
//!
//! Every analog quantity in the simulator — capacitance, voltage, stored
//! energy, harvested power — is carried in a dedicated newtype rather than a
//! bare `f64`, so that the compiler rejects dimensionally nonsensical
//! expressions (adding volts to joules, passing a capacitance where a
//! resistance is expected, and so on). Arithmetic between quantities is
//! implemented only where the physics justifies it:
//!
//! * `Volts * Amps = Watts`
//! * `Watts * SimDuration = Joules`
//! * `Volts / Ohms = Amps`, `Amps * Ohms = Volts`
//! * `Joules / SimDuration = Watts`
//!
//! Simulated time is a `u64` count of microseconds ([`SimTime`]) with a
//! matching span type ([`SimDuration`]), giving deterministic, drift-free
//! arithmetic over multi-hour experiments.
//!
//! # Examples
//!
//! ```
//! use capy_units::{Farads, Volts, Joules, SimDuration, Watts};
//!
//! // Energy stored in a 100 µF capacitor charged from 0 V to 2.4 V.
//! let c = Farads::from_micro(100.0);
//! let e = c.energy_between(Volts::new(2.4), Volts::ZERO);
//! assert!((e.get() - 0.5 * 100e-6 * 2.4 * 2.4).abs() < 1e-12);
//!
//! // Power sustained for a duration yields energy.
//! let j: Joules = Watts::from_milli(10.0) * SimDuration::from_secs(3);
//! assert!((j.get() - 0.03).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod rng;
mod scalar;
pub mod sketch;
mod time;

pub use scalar::{Amps, Celsius, Farads, Joules, Ohms, SquareMm, Volts, Watts};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantities_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Volts>();
        assert_send_sync::<Farads>();
        assert_send_sync::<Joules>();
        assert_send_sync::<SimTime>();
        assert_send_sync::<SimDuration>();
    }
}

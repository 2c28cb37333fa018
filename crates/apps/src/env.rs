//! The experimental stimulus rigs as deterministic functions of simulated
//! time.
//!
//! * [`PendulumRig`] — the servo-driven pendulum of Figure 7 that swings a
//!   rigid arm (carrying a gesture target and, for CSR, a magnet) over the
//!   sensors. Each scheduled event is one tap-and-swipe pass.
//! * [`HeatsinkRig`] — the heater/Peltier rig of §6.1.2 that holds a metal
//!   heatsink within a temperature band and pushes it out of the band to
//!   generate alarm events.

use capy_units::{Celsius, SimDuration, SimTime};

/// Direction of a generated gesture motion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GestureDirection {
    /// Swipe towards the board's left edge.
    Left,
    /// Swipe towards the board's right edge.
    Right,
}

/// The servo-pendulum rig: one pass over the sensors per scheduled event.
///
/// A pass lasts [`PendulumRig::PASS_WINDOW`]; the gesture direction is
/// only decodable while the arm is still entering (the first
/// [`PendulumRig::DECODE_WINDOW`] of the pass) — §6.2: "gesture motions
/// are misclassified when the proximity detection occurs too late in the
/// pendulum's swing to distinguish the motion direction."
#[derive(Debug, Clone, PartialEq)]
pub struct PendulumRig {
    events: Vec<SimTime>,
}

impl PendulumRig {
    /// Time the arm spends over the sensors per pass.
    pub const PASS_WINDOW: SimDuration = SimDuration::from_millis(1_000);

    /// Portion of the pass during which a started gesture read decodes
    /// the direction correctly.
    pub const DECODE_WINDOW: SimDuration = SimDuration::from_millis(400);

    /// Creates a rig that performs one pass at each scheduled instant.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not strictly increasing.
    #[must_use]
    pub fn new(events: Vec<SimTime>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0] < w[1]),
            "event schedule must be strictly increasing"
        );
        Self { events }
    }

    /// The scheduled pass instants.
    #[must_use]
    pub fn events(&self) -> &[SimTime] {
        &self.events
    }

    /// The index of the pass in progress at `t`, if any.
    #[must_use]
    pub fn pass_at(&self, t: SimTime) -> Option<usize> {
        // Binary search for the last event at or before t.
        let idx = match self.events.binary_search(&t) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        (t - self.events[idx] <= Self::PASS_WINDOW).then_some(idx)
    }

    /// `true` when the arm is over the proximity sensor at `t`.
    #[must_use]
    pub fn proximity_at(&self, t: SimTime) -> bool {
        self.pass_at(t).is_some()
    }

    /// Whether a gesture read *started* at `t` can decode the direction:
    /// `Some((event, decodable))` during a pass, `None` outside one.
    #[must_use]
    pub fn gesture_read_at(&self, t: SimTime) -> Option<(usize, bool)> {
        self.pass_at(t).map(|idx| {
            let into_pass = t - self.events[idx];
            (idx, into_pass <= Self::DECODE_WINDOW)
        })
    }

    /// The most recent pass that *started* at or before `t` (whether or
    /// not it is still in progress) — used to attribute a late sensor read
    /// to the stimulus that triggered it.
    #[must_use]
    pub fn last_pass_before(&self, t: SimTime) -> Option<usize> {
        match self.events.binary_search(&t) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// The magnetic flux (normalized) at `t` for the magnet-on-pendulum
    /// CSR setup: 1.0 mid-pass, 0 outside.
    #[must_use]
    pub fn field_at(&self, t: SimTime) -> f64 {
        match self.pass_at(t) {
            None => 0.0,
            Some(idx) => {
                // Triangular profile peaking mid-pass.
                let x = (t - self.events[idx]).as_secs_f64() / Self::PASS_WINDOW.as_secs_f64();
                1.0 - (2.0 * x - 1.0).abs()
            }
        }
    }

    /// Distance (normalized, 0 = closest) from the sensor to the magnet at
    /// `t`; 1.0 when no pass is in progress.
    #[must_use]
    pub fn distance_at(&self, t: SimTime) -> f64 {
        1.0 - self.field_at(t)
    }

    /// The direction of pass `idx` (deterministic alternation, as the
    /// servo controller alternates swing direction).
    #[must_use]
    pub fn direction_of(&self, idx: usize) -> GestureDirection {
        if idx.is_multiple_of(2) {
            GestureDirection::Left
        } else {
            GestureDirection::Right
        }
    }
}

/// The heater/Peltier heatsink rig: temperature sits mid-band and is
/// pushed out of the band for a hold period at each scheduled event.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatsinkRig {
    events: Vec<SimTime>,
    band_low: Celsius,
    band_high: Celsius,
    excursion: Celsius,
    hold: SimDuration,
}

impl HeatsinkRig {
    /// The thermal ramp at the start of each excursion, from mid-band to
    /// the excursion temperature.
    const RAMP: SimDuration = SimDuration::from_secs(5);

    /// Creates a rig with the default band (30–40 °C), +8 °C excursions,
    /// and a 40 s hold per event.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not strictly increasing.
    #[must_use]
    pub fn new(events: Vec<SimTime>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0] < w[1]),
            "event schedule must be strictly increasing"
        );
        Self {
            events,
            band_low: Celsius::new(30.0),
            band_high: Celsius::new(40.0),
            excursion: Celsius::new(8.0),
            hold: SimDuration::from_secs(40),
        }
    }

    /// The monitored band the control loop maintains.
    #[must_use]
    pub fn band(&self) -> (Celsius, Celsius) {
        (self.band_low, self.band_high)
    }

    /// The scheduled excursion instants.
    #[must_use]
    pub fn events(&self) -> &[SimTime] {
        &self.events
    }

    /// The hold duration of each excursion.
    #[must_use]
    pub fn hold(&self) -> SimDuration {
        self.hold
    }

    /// The excursion in progress at `t`, if any.
    #[must_use]
    pub fn excursion_at(&self, t: SimTime) -> Option<usize> {
        let idx = match self.events.binary_search(&t) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        (t - self.events[idx] <= self.hold).then_some(idx)
    }

    /// The heatsink temperature at `t`: mid-band normally, above the band
    /// during an excursion (with a brief ramp).
    #[must_use]
    pub fn temperature_at(&self, t: SimTime) -> Celsius {
        let mid = (self.band_low + self.band_high) / 2.0;
        match self.excursion_at(t) {
            None => mid,
            Some(idx) => {
                let into = (t - self.events[idx]).as_secs_f64();
                let ramp = (into / Self::RAMP.as_secs_f64()).min(1.0);
                let target = self.band_high + self.excursion;
                mid + (target - mid) * ramp
            }
        }
    }

    /// `true` when the temperature is outside the monitored band at `t`.
    #[must_use]
    pub fn out_of_band_at(&self, t: SimTime) -> bool {
        let temp = self.temperature_at(t);
        temp < self.band_low || temp > self.band_high
    }

    /// The first instant at or after `t` at which a reading
    /// ([`HeatsinkRig::excursion_at`], [`HeatsinkRig::temperature_at`],
    /// [`HeatsinkRig::out_of_band_at`]) may differ from its value at
    /// `t`. In band that is the next excursion's start; during an
    /// excursion's ramp the temperature moves, so it is `t` itself; on
    /// the hold after the ramp it is the hold's last instant plus 1 µs,
    /// or the next excursion's start if that comes first.
    #[must_use]
    pub fn steady_until(&self, t: SimTime) -> SimTime {
        let upcoming = self.events.partition_point(|&a| a <= t);
        let next = self.events.get(upcoming).copied().unwrap_or(SimTime::MAX);
        match self.excursion_at(t) {
            None => next,
            Some(idx) => {
                let start = self.events[idx];
                if t - start < Self::RAMP {
                    t
                } else {
                    let hold_end = start
                        .saturating_add(self.hold)
                        .saturating_add(SimDuration::from_micros(1));
                    hold_end.min(next)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(secs: &[u64]) -> Vec<SimTime> {
        secs.iter().map(|&s| SimTime::from_secs(s)).collect()
    }

    #[test]
    fn pendulum_pass_window() {
        let rig = PendulumRig::new(times(&[10, 100]));
        assert!(!rig.proximity_at(SimTime::from_secs(5)));
        assert!(rig.proximity_at(SimTime::from_secs(10)));
        assert!(rig.proximity_at(SimTime::from_micros(10_900_000)));
        assert!(!rig.proximity_at(SimTime::from_secs(12)));
        assert_eq!(rig.pass_at(SimTime::from_secs(100)), Some(1));
    }

    #[test]
    fn gesture_decode_window_narrower_than_pass() {
        let rig = PendulumRig::new(times(&[10]));
        let early = SimTime::from_micros(10_200_000);
        let late = SimTime::from_micros(10_800_000);
        assert_eq!(rig.gesture_read_at(early), Some((0, true)));
        assert_eq!(rig.gesture_read_at(late), Some((0, false)));
        assert_eq!(rig.gesture_read_at(SimTime::from_secs(13)), None);
    }

    #[test]
    fn field_peaks_mid_pass() {
        let rig = PendulumRig::new(times(&[10]));
        let mid = rig.field_at(SimTime::from_micros(10_500_000));
        let edge = rig.field_at(SimTime::from_micros(10_050_000));
        assert!(mid > 0.9);
        assert!(edge < 0.2);
        assert_eq!(rig.field_at(SimTime::from_secs(20)), 0.0);
        assert!((rig.distance_at(SimTime::from_micros(10_500_000)) - (1.0 - mid)).abs() < 1e-12);
    }

    #[test]
    fn directions_alternate() {
        let rig = PendulumRig::new(times(&[1, 2, 3]));
        assert_eq!(rig.direction_of(0), GestureDirection::Left);
        assert_eq!(rig.direction_of(1), GestureDirection::Right);
        assert_eq!(rig.direction_of(2), GestureDirection::Left);
    }

    #[test]
    fn heatsink_excursions() {
        let rig = HeatsinkRig::new(times(&[100]));
        assert!(!rig.out_of_band_at(SimTime::from_secs(50)));
        // After the thermal ramp, temperature is out of band.
        assert!(rig.out_of_band_at(SimTime::from_secs(110)));
        // Back in band after the hold.
        assert!(!rig.out_of_band_at(SimTime::from_secs(150)));
        assert_eq!(rig.excursion_at(SimTime::from_secs(120)), Some(0));
        assert_eq!(rig.excursion_at(SimTime::from_secs(150)), None);
    }

    #[test]
    fn heatsink_temperature_is_mid_band_at_rest() {
        let rig = HeatsinkRig::new(times(&[1000]));
        let t = rig.temperature_at(SimTime::from_secs(10));
        assert!((t.get() - 35.0).abs() < 1e-9);
    }

    /// Every reading the TA bodies take, in bits.
    fn readings(rig: &HeatsinkRig, t: SimTime) -> (Option<usize>, u64, bool) {
        (
            rig.excursion_at(t),
            rig.temperature_at(t).get().to_bits(),
            rig.out_of_band_at(t),
        )
    }

    /// Checks that every reading holds on `[t, bound)` (at its ends and
    /// at 64 instants between, for a finite bound) and returns the bound.
    fn assert_steady(rig: &HeatsinkRig, t: SimTime) -> SimTime {
        let bound = rig.steady_until(t);
        assert!(bound >= t, "bound {bound} before {t}");
        if bound == t {
            return bound;
        }
        let at_t = readings(rig, t);
        let last = if bound == SimTime::MAX {
            t + SimDuration::from_secs(10_000)
        } else {
            SimTime::from_micros(bound.as_micros() - 1)
        };
        let span = last.as_micros() - t.as_micros();
        for i in 0..=64 {
            let u = SimTime::from_micros(t.as_micros() + span * i / 64);
            assert_eq!(readings(rig, u), at_t, "reading at {u} differs from {t}");
        }
        bound
    }

    #[test]
    fn heatsink_readings_hold_until_the_steady_bound() {
        let s = SimTime::from_secs;
        let us = SimTime::from_micros;
        let rig = HeatsinkRig::new(times(&[100, 300]));
        // In band: until the next excursion starts, where the reading
        // changes.
        assert_eq!(assert_steady(&rig, s(10)), s(100));
        assert_eq!(assert_steady(&rig, us(299_999_999)), s(300));
        assert_ne!(readings(&rig, s(300)), readings(&rig, us(299_999_999)));
        // On the ramp: no steady stretch at all.
        assert_eq!(assert_steady(&rig, s(102)), s(102));
        assert_eq!(assert_steady(&rig, us(104_999_999)), us(104_999_999));
        // From the ramp's end through the hold's last instant.
        assert_eq!(assert_steady(&rig, s(105)), us(140_000_001));
        assert_eq!(assert_steady(&rig, s(140)), us(140_000_001));
        assert_ne!(readings(&rig, us(140_000_001)), readings(&rig, s(140)));
        // Back in band just after the hold.
        assert_eq!(assert_steady(&rig, us(140_000_001)), s(300));
        // After the last excursion, nothing changes again.
        assert_eq!(assert_steady(&rig, s(400)), SimTime::MAX);
    }

    #[test]
    fn heatsink_steady_bound_stops_at_an_overlapping_excursion() {
        let s = SimTime::from_secs;
        let us = SimTime::from_micros;
        // The second excursion starts during the first one's hold.
        let rig = HeatsinkRig::new(times(&[100, 120]));
        assert_eq!(assert_steady(&rig, s(105)), s(120));
        assert_eq!(assert_steady(&rig, us(119_999_999)), s(120));
        assert_ne!(readings(&rig, s(120)), readings(&rig, us(119_999_999)));
        assert_eq!(assert_steady(&rig, s(121)), s(121));
        assert_eq!(assert_steady(&rig, s(125)), us(160_000_001));
        assert_eq!(assert_steady(&rig, us(160_000_001)), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn pendulum_rejects_unsorted_schedule() {
        let _ = PendulumRig::new(times(&[10, 10]));
    }
}

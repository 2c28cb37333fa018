//! Measurement instrumentation: the BLE sniffer and ground-truth logs the
//! experiments read after a run.
//!
//! These live *outside* the simulated device (they model the laptop
//! sniffer and reference instrumentation of §6.2–6.3), so they are plain
//! containers — not non-volatile, not rolled back on power failure. The
//! application bodies write into them only at the instant a real radio
//! packet would leave the antenna.

use capy_units::cycle::Cycle;
use capy_units::SimTime;

/// Outcome of one gesture-recognition attempt, as the APDS engine reports
/// it (§6.2's failure taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GestureOutcome {
    /// Direction decoded correctly.
    Correct,
    /// Decoded, but the direction was wrong (read started too late in the
    /// swing).
    Misclassified,
    /// The sensor was activated following a proximity detection but did
    /// not report a gesture.
    ProximityOnly,
}

/// One packet received by the sniffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Reception instant.
    pub at: SimTime,
    /// The stimulus event this packet reports, when the payload identifies
    /// one.
    pub event_id: Option<usize>,
    /// Whether the payload's decoded content was correct (e.g. the gesture
    /// direction matched the pendulum swing).
    pub correct: bool,
}

/// The BLE sniffer's packet log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PacketLog {
    packets: Vec<Packet>,
}

impl PacketLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a received packet.
    pub fn record(&mut self, at: SimTime, event_id: Option<usize>, correct: bool) {
        self.packets.push(Packet {
            at,
            event_id,
            correct,
        });
    }

    /// All received packets, in order.
    #[must_use]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of received packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when nothing was received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The first packet reporting `event_id`, if any.
    #[must_use]
    pub fn first_for_event(&self, event_id: usize) -> Option<&Packet> {
        self.packets.iter().find(|p| p.event_id == Some(event_id))
    }
}

/// A time-ordered log of sensor-sample instants (Figure 11's raw data).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleLog {
    times: Vec<SimTime>,
}

impl SampleLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample instant.
    pub fn record(&mut self, at: SimTime) {
        self.times.push(at);
    }

    /// All sample instants, in order.
    #[must_use]
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of samples taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Consecutive inter-sample intervals.
    #[must_use]
    pub fn intervals(&self) -> Vec<capy_units::SimDuration> {
        self.times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Visits the log's steady state as an output log: its length is a
    /// counter, and each skipped cycle appends the recorded cycle's
    /// samples, shifted.
    pub fn steady_state(&mut self, c: &mut Cycle<'_>) {
        c.log(&mut self.times, |t, d| t + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_units::SimDuration;

    #[test]
    fn packet_log_round_trip() {
        let mut log = PacketLog::new();
        assert!(log.is_empty());
        log.record(SimTime::from_secs(5), Some(0), true);
        log.record(SimTime::from_secs(9), Some(1), false);
        log.record(SimTime::from_secs(12), Some(1), true);
        assert_eq!(log.len(), 3);
        assert_eq!(log.first_for_event(1).unwrap().at, SimTime::from_secs(9));
        assert!(log.first_for_event(7).is_none());
    }

    #[test]
    fn sample_log_intervals() {
        let mut log = SampleLog::new();
        for s in [0u64, 1, 3, 10] {
            log.record(SimTime::from_secs(s));
        }
        assert_eq!(
            log.intervals(),
            vec![
                SimDuration::from_secs(1),
                SimDuration::from_secs(2),
                SimDuration::from_secs(7)
            ]
        );
    }
}

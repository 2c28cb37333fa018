//! What a run records of its timeline.
//!
//! Every event the simulator records goes through [`Timeline::record`].
//! Each run keeps what production reads of its events: the counts
//! [`RunSummary`] reads, the on-path pauses since the last policy
//! decision (the next [`PolicyObservation`] offers them) and the
//! instant the device died. On top of that it keeps exactly one sink:
//! the full event log, or every on-path pause as a `(pause, count)`
//! run, in no order, which is all a fleet's latency sketch reads. A
//! cycle jump advances either through the same steady-state visit: the
//! log by shifted copies of the cycle's events, the runs by each of the
//! cycle's runs once, its count times the cycles skipped.
//!
//! [`PolicyObservation`]: crate::policy::PolicyObservation

use capy_units::cycle::Cycle;
use capy_units::{SimDuration, SimTime};

use super::SimEvent;
use crate::sweep::RunSummary;

/// Events a log has room for before its first push: even short runs log
/// boots, charges and reconfigurations every cycle.
const EVENT_LOG_PRESIZE: usize = 256;

/// What a run records of its timeline: see the module docs.
#[derive(Clone)]
pub(super) struct Timeline {
    /// [`RunSummary::from_events`] of every event recorded.
    pub(super) counts: RunSummary,
    /// The on-path pauses recorded since the last committed decision.
    pub(super) pending: Vec<SimDuration>,
    /// The first bank failure or stall.
    pub(super) death: Option<SimTime>,
    sink: Sink,
}

#[derive(Clone)]
enum Sink {
    /// Every event, in order.
    Log(Vec<SimEvent>),
    /// Every on-path pause, as `(pause, count)` runs in no order.
    Pauses(Vec<(SimDuration, u64)>),
}

impl Timeline {
    /// An empty timeline that keeps the log when `keep_log`.
    pub(super) fn new(keep_log: bool) -> Self {
        Self {
            counts: RunSummary::default(),
            pending: Vec::new(),
            death: None,
            sink: if keep_log {
                Sink::Log(Vec::new())
            } else {
                Sink::Pauses(Vec::new())
            },
        }
    }

    /// Records one event in the counts and the sink.
    pub(super) fn record(&mut self, event: SimEvent) {
        self.counts.count(&event);
        let pause = event.on_path_pause();
        if let Some(pause) = pause {
            self.pending.push(pause);
        }
        if let SimEvent::BankFailed { at, .. } | SimEvent::Stalled { at } = event {
            self.death.get_or_insert(at);
        }
        match &mut self.sink {
            Sink::Log(log) => log.push(event),
            Sink::Pauses(runs) => runs.extend(pause.map(|p| (p, 1))),
        }
    }

    /// Gives an empty log its starting room. A built device and one
    /// stamped from a template both start with none, so both get the
    /// same.
    pub(super) fn presize(&mut self) {
        if let Sink::Log(log) = &mut self.sink {
            if log.capacity() == 0 {
                log.reserve_exact(EVENT_LOG_PRESIZE);
            }
        }
    }

    /// The log, or `None` when the pause runs are kept instead.
    pub(super) fn log(&self) -> Option<&[SimEvent]> {
        match &self.sink {
            Sink::Log(log) => Some(log),
            Sink::Pauses(_) => None,
        }
    }

    /// Every on-path pause as `(pause, count)` runs, from either sink.
    pub(super) fn pause_runs(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        let (log, runs): (&[SimEvent], &[(SimDuration, u64)]) = match &self.sink {
            Sink::Log(log) => (log, &[]),
            Sink::Pauses(runs) => (&[], runs),
        };
        log.iter()
            .filter_map(SimEvent::on_path_pause)
            .map(|pause| (pause, 1))
            .chain(runs.iter().copied())
    }

    /// Debug builds: the kept counts and death are those of the log,
    /// when there is one.
    pub(super) fn check(&self) {
        if let Sink::Log(log) = &self.sink {
            assert_eq!(
                self.counts,
                RunSummary::from_events(log),
                "the kept counts differ from a walk of the event log"
            );
            let death = log.iter().find_map(|e| match e {
                SimEvent::BankFailed { at, .. } | SimEvent::Stalled { at } => Some(*at),
                _ => None,
            });
            assert_eq!(self.death, death, "the kept death differs from the log's");
        }
    }

    /// Visits the timeline's steady state (see [`capy_units::cycle`]).
    /// The pending pauses are keyed, since the next decision reads them;
    /// the counts are counters, and the sink is an output log. The stall
    /// flag and the death instant are left out: a cycle that recorded a
    /// death changed a keyed word (the state's stalled flag or the
    /// runtime's failed banks), so no repeating cycle holds one. The
    /// counts' other fields are never counted from events; the debug
    /// [`Timeline::check`] catches an event count this visit misses.
    pub(super) fn steady_state(&mut self, c: &mut Cycle<'_>) {
        let Self {
            counts,
            pending,
            death: _,
            sink,
        } = self;
        c.word(pending.len() as u64);
        for &pause in pending.iter() {
            c.span(pause);
        }
        let RunSummary {
            boots,
            charges,
            precharges,
            reconfigurations,
            bursts,
            power_failures,
            bank_failures,
            mode_remaps,
            charge_time,
            ..
        } = counts;
        for count in [
            boots,
            charges,
            precharges,
            reconfigurations,
            bursts,
            power_failures,
            bank_failures,
            mode_remaps,
        ] {
            c.counter(count);
        }
        let mut micros = charge_time.as_micros();
        c.counter(&mut micros);
        *charge_time = SimDuration::from_micros(micros);
        match sink {
            Sink::Log(log) => c.log(log, SimEvent::shifted),
            Sink::Pauses(runs) => c.runs(runs),
        }
    }
}

//! The whole-device simulator: binds the power system, the MCU and
//! peripheral load models, the intermittent execution machine, and the
//! Capybara runtime into one intermittently-powered device.
//!
//! The simulator advances in *task-grain* steps. Each [`Simulator::step`]:
//!
//! 1. asks the runtime planner ([`crate::runtime::plan`]) what power-system
//!    actions the pending task's annotation requires (reconfigure, charge,
//!    pre-charge, activate burst);
//! 2. executes those actions, advancing simulated time through the
//!    analytic charging model — the device is off while charging and
//!    reboots when the buffer fills (the intermittent execution model of
//!    §2);
//! 3. draws the task's load phases from the capacitor rail; a brown-out
//!    mid-phase is an intermittent power failure: uncommitted state is
//!    discarded and the same task retries after a recharge;
//! 4. on completion, runs the task body (which observes the simulated
//!    clock via [`SimContext::set_now`]) and commits.
//!
//! Everything is deterministic: same inputs, same schedule.

use std::sync::Arc;

use capy_device::load::TaskLoad;
use capy_device::mcu::Mcu;
use capy_intermittent::machine::{ExecStats, ExecutionMachine};
use capy_intermittent::nv::NvState;
use capy_intermittent::task::{TaskGraph, TaskGraphBuilder, TaskId, Transition};
use capy_power::bank::BankId;
use capy_power::harvester::Harvester;
use capy_power::switch::SwitchState;
use capy_power::system::{ChargeOutcome, PowerSystem};
use capy_units::cycle::Cycle;
use capy_units::{Joules, SimDuration, SimTime, Volts};

use crate::annotation::TaskEnergy;
use crate::mode::{EnergyMode, ModeTable};
use crate::policy::{PolicyObservation, ReconfigPolicy, StaticAnnotation};
use crate::runtime::{plan, validate_annotations, RuntimeState, Step, PRECHARGE_DEFICIT};
use crate::sweep::RunSummary;
use crate::variant::Variant;

mod skip;
mod timeline;

pub use skip::SkipStats;
use timeline::Timeline;

/// Application context requirements: non-volatile commit/abort plus clock
/// observation, and optionally a steady-state key that lets a run skip
/// repeating cycles.
pub trait SimContext: NvState {
    /// Called with the current simulated time immediately before each task
    /// body runs, so sensor reads inside the body observe the environment
    /// at the right instant.
    fn set_now(&mut self, now: SimTime);

    /// Visits the context's steady state (see [`capy_units::cycle`]) and
    /// returns `true`: what decides a body's transition as words, what
    /// only accumulates as counters, each instant the context stores,
    /// and each output log the bodies append to. The one function both
    /// keys the context at a task boundary and advances it by whole
    /// cycles, so an instant moves and a log gets shifted copies of a
    /// skipped cycle's entries ([`Cycle::log`]). Whatever a body reads
    /// through the clock [`SimContext::set_now`] passes must stay
    /// constant until [`SimContext::steady_until`]. The default declares
    /// no steady state and returns `false`; a simulator whose context
    /// declares none never skips a cycle.
    fn steady_state(&mut self, c: &mut Cycle<'_>) -> bool {
        let _ = c;
        false
    }

    /// The first instant at or after `now` at which a body's reads of the
    /// clock could answer differently than at `now`: a skipped cycle
    /// ends before it. `now` itself means the answers may change at any
    /// instant, so nothing skips. The default, [`SimTime::MAX`], is right
    /// for a context whose bodies never read the clock.
    fn steady_until(&self, now: SimTime) -> SimTime {
        let _ = now;
        SimTime::MAX
    }
}

/// The empty context: it holds nothing, so its steady state is empty. A
/// body on `()` must decide its transition from nothing, since bodies
/// are `Fn` and the context gives them no state: a body that kept state
/// of its own outside the context (in an atomic, a cell or a mutex)
/// would change what it decides without changing the key, and a skipped
/// run would no longer be the stepped run. Such a body needs a context
/// of its own that declares that state.
impl SimContext for () {
    fn set_now(&mut self, _now: SimTime) {}

    fn steady_state(&mut self, _c: &mut Cycle<'_>) -> bool {
        true
    }
}

/// A timeline event recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// The device booted (buffer full, or continuously powered start).
    Boot {
        /// Boot instant.
        at: SimTime,
    },
    /// The runtime reconfigured the bank array.
    Reconfigure {
        /// Command instant.
        at: SimTime,
        /// The target energy mode.
        mode: EnergyMode,
    },
    /// A charging pause.
    Charge {
        /// Charging began (device powered down).
        start: SimTime,
        /// Buffer reached its target (device about to boot).
        end: SimTime,
        /// Rail voltage at start.
        from: Volts,
        /// Rail voltage at end.
        to: Volts,
        /// `true` when this was a burst pre-charge.
        precharge: bool,
    },
    /// A burst activation (no charging pause).
    BurstActivated {
        /// Activation instant.
        at: SimTime,
        /// The burst's energy mode.
        mode: EnergyMode,
    },
    /// An intermittent power failure mid-task.
    PowerFailure {
        /// Brown-out instant.
        at: SimTime,
        /// The task that was cut short.
        task: TaskId,
    },
    /// Charging stalled with no input power; the simulation cannot
    /// proceed.
    Stalled {
        /// Stall instant.
        at: SimTime,
    },
    /// The degradation self-test found a bank that no longer holds charge
    /// (or whose switch no longer actuates) and marked it failed in
    /// non-volatile state.
    BankFailed {
        /// Detection instant.
        at: SimTime,
        /// The bank taken out of service.
        bank: BankId,
    },
    /// The runtime remapped an energy mode onto the surviving banks after
    /// a bank failure.
    ModeRemapped {
        /// Remap instant.
        at: SimTime,
        /// The mode whose bank set changed.
        mode: EnergyMode,
    },
}

impl SimEvent {
    /// The instant the event is ordered by on the timeline (a charge is
    /// ordered by its end — the moment the device comes back).
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            Self::Boot { at }
            | Self::Reconfigure { at, .. }
            | Self::BurstActivated { at, .. }
            | Self::PowerFailure { at, .. }
            | Self::Stalled { at }
            | Self::BankFailed { at, .. }
            | Self::ModeRemapped { at, .. } => *at,
            Self::Charge { end, .. } => *end,
        }
    }

    /// The same event `by` later: every instant it carries moves.
    #[must_use]
    pub(crate) fn shifted(self, by: SimDuration) -> Self {
        match self {
            Self::Boot { at } => Self::Boot { at: at + by },
            Self::Reconfigure { at, mode } => Self::Reconfigure { at: at + by, mode },
            Self::Charge {
                start,
                end,
                from,
                to,
                precharge,
            } => Self::Charge {
                start: start + by,
                end: end + by,
                from,
                to,
                precharge,
            },
            Self::BurstActivated { at, mode } => Self::BurstActivated { at: at + by, mode },
            Self::PowerFailure { at, task } => Self::PowerFailure { at: at + by, task },
            Self::Stalled { at } => Self::Stalled { at: at + by },
            Self::BankFailed { at, bank } => Self::BankFailed { at: at + by, bank },
            Self::ModeRemapped { at, mode } => Self::ModeRemapped { at: at + by, mode },
        }
    }

    /// How long the device waited out an on-path charge pause: `Some`
    /// for a [`SimEvent::Charge`] that was not a burst pre-charge,
    /// `None` for every other event.
    #[must_use]
    pub fn on_path_pause(&self) -> Option<SimDuration> {
        match self {
            Self::Charge {
                start,
                end,
                precharge: false,
                ..
            } => Some(*end - *start),
            _ => None,
        }
    }
}

/// Checks the structural invariants of a recorded event log and returns a
/// description of the first violation, if any:
///
/// 1. events are time-ordered;
/// 2. every `Charge` is followed by a `Boot` (the device boots when the
///    buffer fills) unless the log ends or the run stalled;
/// 3. `BurstActivated` never comes straight out of an on-path `Charge`
///    ending at the same instant, even through the boot that charge
///    produced (bursts exist to avoid the on-path charge; pre-charges
///    are fine);
/// 4. at most one `Stalled`, and nothing after it.
///
/// Integration tests run this over every application's timeline.
#[must_use]
pub fn validate_event_log(events: &[SimEvent]) -> Option<String> {
    let mut prev = SimTime::ZERO;
    for (i, e) in events.iter().enumerate() {
        let t = e.at();
        if t < prev {
            return Some(format!("event {i} at {t} precedes {prev}"));
        }
        prev = t;
        match e {
            SimEvent::Charge { start, end, .. } => {
                if start > end {
                    return Some(format!("charge {i} ends before it starts"));
                }
                match events.get(i + 1) {
                    Some(SimEvent::Boot { .. }) | None => {}
                    Some(SimEvent::Stalled { .. }) => {}
                    Some(other) => {
                        return Some(format!(
                            "charge {i} followed by {other:?} instead of a boot"
                        ))
                    }
                }
            }
            SimEvent::BurstActivated { at, .. } => {
                // A charge directly before the burst is already flagged by
                // the charge-must-boot rule above, so look back through the
                // boot the charge legitimately produced: `Charge → Boot →
                // BurstActivated` with no time passing means the burst paid
                // an on-path charge it exists to avoid.
                let mut j = i;
                while j > 0 && matches!(events[j - 1], SimEvent::Boot { .. }) {
                    j -= 1;
                }
                if let Some(SimEvent::Charge {
                    end,
                    precharge: false,
                    ..
                }) = j.checked_sub(1).map(|k| &events[k])
                {
                    if end == at {
                        return Some(format!("burst at {at} immediately after an on-path charge"));
                    }
                }
            }
            SimEvent::Stalled { .. } if i + 1 != events.len() => {
                return Some(format!("events continue after stall at index {i}"));
            }
            _ => {}
        }
    }
    None
}

/// A structural mistake caught by [`SimulatorBuilder::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The builder holds no tasks; a simulator needs at least one.
    NoTasks,
    /// [`SimulatorBuilder::entry`] named a task that was never added.
    UnknownEntry {
        /// The name passed to `entry`.
        name: &'static str,
    },
    /// An energy mode references a bank index the power system lacks.
    BankOutOfRange {
        /// The out-of-range bank index.
        bank: usize,
        /// How many banks the power system actually has.
        banks: usize,
    },
    /// A task's energy annotation references a mode that was never
    /// registered with [`SimulatorBuilder::mode`].
    UnknownMode {
        /// Index of the offending task (registration order).
        task: usize,
        /// The unknown mode index the annotation referenced.
        mode: usize,
        /// How many modes the table actually has.
        modes: usize,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoTasks => write!(f, "a simulator needs at least one task"),
            Self::UnknownEntry { name } => write!(f, "unknown entry task '{name}'"),
            Self::BankOutOfRange { bank, banks } => write!(
                f,
                "energy mode references bank {bank} but the power system has {banks} banks"
            ),
            Self::UnknownMode { task, mode, modes } => write!(
                f,
                "task {task} references unknown energy mode mode{mode} \
                 (the mode table has {modes} modes)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The outcome of one simulator step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// A task attempt ran (it may have completed or failed).
    Progress,
    /// The application returned [`Transition::Stop`].
    Stopped,
    /// No further progress is possible: the harvester cannot charge the
    /// buffer, the cold-start supervisor refuses to boot, or the
    /// [`Simulator::run_until`] watchdog caught a livelock.
    Stalled {
        /// How many consecutive steps ran without the simulated clock
        /// advancing before the stall was declared (1 when the power
        /// system stalled outright).
        steps: u64,
    },
}

/// Consecutive zero-time-advance steps [`Simulator::run_until`] tolerates
/// before declaring a livelock (generous: real task schedules advance time
/// every step or two).
pub const STALL_STEP_BUDGET: u64 = 100_000;

/// First-class execution limits for [`Simulator::run_limited`]: every
/// field is optional, and an unset field simply never trips. The scenario
/// runner (`capy-run`) maps each tripped limit to its standardized exit
/// code; library callers get the same information as a typed
/// [`RunOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunLimits {
    /// Stop (successfully) once simulated time reaches this instant —
    /// the run's horizon.
    pub max_sim: Option<SimTime>,
    /// Trip after this many task-attempt steps.
    pub max_steps: Option<u64>,
    /// Livelock watchdog: trip after this many consecutive steps with no
    /// simulated-time advance (defaults to [`STALL_STEP_BUDGET`]).
    pub no_progress_steps: Option<u64>,
    /// Trip once the power system has delivered more than this much
    /// energy to the load.
    pub max_energy: Option<Joules>,
}

impl RunLimits {
    /// The limits [`Simulator::run_until`] runs under: a horizon and the
    /// default watchdog, nothing else.
    #[must_use]
    pub fn until(end: SimTime) -> Self {
        Self {
            max_sim: Some(end),
            ..Self::default()
        }
    }
}

/// Why [`Simulator::run_limited`] returned: either a terminal condition
/// of the simulation itself (the first three variants) or a tripped
/// [`RunLimits`] budget (the rest, for which [`RunOutcome::is_limit`] is
/// `true`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunOutcome {
    /// Simulated time reached [`RunLimits::max_sim`].
    HorizonReached,
    /// The application returned [`Transition::Stop`].
    Stopped,
    /// The power system stalled outright (no usable input power, or the
    /// cold-start supervisor refused to boot).
    Stalled {
        /// Mirror of [`StepResult::Stalled`]'s step count.
        steps: u64,
    },
    /// The [`RunLimits::no_progress_steps`] watchdog caught a livelock:
    /// this many consecutive steps ran without the clock advancing.
    NoProgress {
        /// Consecutive zero-advance steps when the watchdog fired.
        steps: u64,
    },
    /// [`RunLimits::max_steps`] was exhausted.
    StepBudget {
        /// Steps executed (equals the budget).
        steps: u64,
    },
    /// [`RunLimits::max_energy`] was exceeded.
    EnergyBudget {
        /// Energy actually delivered when the budget tripped.
        delivered: Joules,
    },
}

impl RunOutcome {
    /// `true` for outcomes that mean an explicit [`RunLimits`] budget
    /// tripped (`capy-run` exit code 2), as opposed to the simulation
    /// reaching a terminal condition of its own.
    #[must_use]
    pub fn is_limit(&self) -> bool {
        matches!(
            self,
            Self::NoProgress { .. } | Self::StepBudget { .. } | Self::EnergyBudget { .. }
        )
    }
}

/// Consecutive failed task attempts (without an intervening completion)
/// after which a degradation-enabled simulator runs the bank self-test.
const DEGRADATION_FAILURE_THRESHOLD: u32 = 3;

/// A probed bank contributing less than this fraction of its nominal
/// capacitance to the rail is declared failed.
const DEGRADATION_CAPACITANCE_FLOOR: f64 = 0.5;

/// The simulated time the runtime's GPIO traffic costs per
/// reconfiguration (paid at active power).
const RECONFIG_OVERHEAD: SimDuration = SimDuration::from_micros(500);

/// A task's load model: given the MCU, the phases the task draws. Loads
/// never read the context; only task bodies do.
type LoadFn = Box<dyn Fn(&Mcu) -> TaskLoad + Send + Sync>;

struct TaskMeta {
    energy: TaskEnergy,
    load: LoadFn,
}

/// What never changes after build: the variant, the MCU, the task graph
/// (names and bodies) with each task's energy annotation and load, and
/// whether harvesting continues during operation. Devices built from one
/// scenario share it.
struct Program<C> {
    variant: Variant,
    mcu: Mcu,
    graph: TaskGraph<C>,
    /// Per task, in [`TaskId`] order.
    tasks: Vec<TaskMeta>,
    harvest_during_operation: bool,
}

/// Everything a run mutates. Cloning it is a snapshot and assigning it is
/// a restore, so this field list is the only list of device state.
#[derive(Clone)]
struct State<H, C> {
    power: PowerSystem<H>,
    machine: ExecutionMachine,
    modes: ModeTable,
    runtime: RuntimeState,
    ctx: C,
    now: SimTime,
    on: bool,
    needs_charge: bool,
    stalled: bool,
    consecutive_failures: u32,
    /// The counts, pending pauses and death every run keeps, and either
    /// the event log or the pause runs.
    timeline: Timeline,
    trace: Option<Vec<(SimTime, Volts)>>,
    degradation: bool,
    /// The reconfiguration policy consulted at every task boundary.
    policy: Box<dyn ReconfigPolicy>,
    /// How much steady-state cycle skipping the runs did.
    skips: SkipStats,
}

/// The intermittently-powered device simulator: a shared, immutable
/// program plus the state a run mutates.
///
/// Construct with [`Simulator::builder`]; see the
/// [crate-level example](crate) for an end-to-end application. A clone
/// shares the program and copies the state, so many devices can start
/// from one built template.
#[derive(Clone)]
pub struct Simulator<H, C> {
    program: Arc<Program<C>>,
    state: State<H, C>,
}

/// Complete simulation state at one instant, captured by
/// [`Simulator::snapshot`] and replayed by [`Simulator::restore`].
///
/// A snapshot is a clone of everything a run mutates: the power system
/// (bank charge, switch latches, pending faults, wear, kernel caches),
/// the execution machine (task pointer, stop flag, statistics), the mode
/// table (remapped on degradation), the runtime state, the application
/// context (with its non-volatile cells and any [`DetRng`] streams it
/// owns), the timeline (its counts and its event log or pause runs, see
/// [`Simulator::keep_log`]) and voltage trace, and the reconfiguration policy
/// with its decision state. The program — task bodies, loads and
/// annotations — is not captured: it stays with the live simulator,
/// which is why restore targets a simulator built from the same scenario.
/// Task bodies are `Fn`, so no device state can hide in them.
///
/// The contract is **bit identity**: `restore` followed by `run_until(h)`
/// produces byte-for-byte the same events, summaries, and rail voltages
/// as an uninterrupted run to `h`. The kernel's rail cache is cloned with
/// the power system, and it is an exact cache, so a stale-free clone is
/// automatic.
///
/// [`DetRng`]: capy_units::rng::DetRng
#[derive(Clone)]
pub struct SimSnapshot<H, C>(State<H, C>);

impl<H, C> SimSnapshot<H, C> {
    /// The simulated instant the snapshot was captured at.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.0.now
    }
}

/// Builder assembling the task graph, annotations, loads, and mode table
/// in one place so task ids stay aligned (§C-BUILDER).
pub struct SimulatorBuilder<H, C> {
    variant: Variant,
    power: PowerSystem<H>,
    mcu: Mcu,
    modes: ModeTable,
    graph: TaskGraphBuilder<C>,
    tasks: Vec<TaskMeta>,
    entry: Option<&'static str>,
    record_trace: bool,
    harvest_during_operation: bool,
    degradation: bool,
    policy: Option<Box<dyn ReconfigPolicy>>,
}

impl<H: Harvester, C: SimContext> Simulator<H, C> {
    /// Starts building a simulator for `variant` over the given power
    /// system and MCU.
    #[must_use]
    pub fn builder(variant: Variant, power: PowerSystem<H>, mcu: Mcu) -> SimulatorBuilder<H, C> {
        SimulatorBuilder {
            variant,
            power,
            mcu,
            modes: ModeTable::new(),
            graph: TaskGraph::builder(),
            tasks: Vec::new(),
            entry: None,
            record_trace: false,
            harvest_during_operation: false,
            degradation: false,
            policy: None,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// The executing variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.program.variant
    }

    /// Shared access to the application context.
    #[must_use]
    pub fn ctx(&self) -> &C {
        &self.state.ctx
    }

    /// Mutable access to the application context (e.g. to install
    /// experiment stimuli between runs).
    pub fn ctx_mut(&mut self) -> &mut C {
        &mut self.state.ctx
    }

    /// The power system.
    #[must_use]
    pub fn power(&self) -> &PowerSystem<H> {
        &self.state.power
    }

    /// Mutable access to the power system (e.g. to vary irradiance).
    pub fn power_mut(&mut self) -> &mut PowerSystem<H> {
        &mut self.state.power
    }

    /// Execution statistics from the intermittent machine.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.state.machine.stats()
    }

    /// How much steady-state cycle skipping the runs have done so far
    /// (see [`Simulator::run_limited`]).
    #[must_use]
    pub fn skip_stats(&self) -> SkipStats {
        self.state.skips
    }

    /// Sets whether this simulator keeps its full event log: the one
    /// switch between the timeline's two sinks. A simulator keeps the log from
    /// [`Simulator::builder`] on, for [`Simulator::events`] and
    /// [`validate_event_log`]. Without it, it keeps its on-path pauses
    /// as `(pause, count)` runs ([`Simulator::pause_runs`]), which a
    /// cycle jump extends by one run per pause of the cycle however many
    /// cycles it skips, so their memory and the work a jump spends on
    /// them do not grow with the horizon. The counts
    /// [`RunSummary`] reads, the pauses a policy is offered and the death
    /// instant are kept either way, so every result but the log is the
    /// same.
    ///
    /// # Panics
    ///
    /// Panics once the simulator has recorded an event: a sink switched
    /// mid-run would miss the run's start.
    pub fn keep_log(&mut self, keep: bool) {
        assert!(
            self.state.timeline.counts == RunSummary::default(),
            "Simulator::keep_log is set before the simulator first steps"
        );
        self.state.timeline = Timeline::new(keep);
    }

    /// The recorded timeline events.
    ///
    /// # Panics
    ///
    /// Panics when the simulator keeps no log: see
    /// [`Simulator::keep_log`].
    #[must_use]
    pub fn events(&self) -> &[SimEvent] {
        self.state.timeline.log().unwrap_or_else(|| {
            panic!(
                "this simulator keeps no event log: call Simulator::keep_log(true) \
                 before it first steps"
            )
        })
    }

    /// Every on-path charge pause ([`SimEvent::on_path_pause`]) of the
    /// run as `(pause, count)` runs, in no particular order, whether or
    /// not the simulator keeps its log ([`Simulator::keep_log`]).
    pub fn pause_runs(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        self.state.timeline.pause_runs()
    }

    /// The instant the device died, its first [`SimEvent::BankFailed`]
    /// or [`SimEvent::Stalled`], if it did.
    #[must_use]
    pub fn death(&self) -> Option<SimTime> {
        self.state.timeline.death
    }

    /// [`RunSummary::from_events`] of everything the run recorded, kept
    /// as it records.
    pub(crate) fn event_counts(&self) -> &RunSummary {
        &self.state.timeline.counts
    }

    /// The recorded `(time, rail voltage)` trace, when enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&[(SimTime, Volts)]> {
        self.state.trace.as_deref()
    }

    /// The runtime's persistent state (current mode, pre-charge flags).
    #[must_use]
    pub fn runtime_state(&self) -> &RuntimeState {
        &self.state.runtime
    }

    /// The mode table.
    #[must_use]
    pub fn modes(&self) -> &ModeTable {
        &self.state.modes
    }

    /// The installed reconfiguration policy
    /// ([`StaticAnnotation`] unless overridden with
    /// [`SimulatorBuilder::policy`]).
    #[must_use]
    pub fn policy(&self) -> &dyn ReconfigPolicy {
        &*self.state.policy
    }

    /// Enables or disables the graceful-degradation runtime (normally set
    /// at build time via [`SimulatorBuilder::degradation`]; fault-injection
    /// harnesses flip it on when arming an already-built scenario).
    pub fn set_degradation(&mut self, enable: bool) {
        self.state.degradation = enable;
    }

    /// Captures the complete simulation state as a [`SimSnapshot`]: a
    /// clone of everything a run mutates. See [`SimSnapshot`] for the
    /// bit-identity contract.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot<H, C>
    where
        H: Clone,
        C: Clone,
    {
        SimSnapshot(self.state.clone())
    }

    /// Rewinds (or fast-forwards) this simulator to `snap`.
    ///
    /// The snapshot must come from a simulator built from the same
    /// scenario: the program — task bodies and load models — is not part
    /// of the snapshot, so restoring onto a different application pairs
    /// the wrong closures with the captured state.
    ///
    /// After `restore`, stepping is byte-for-byte identical to the
    /// captured run continuing uninterrupted.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's task pointer does not exist in this
    /// simulator's task graph (the snapshot came from a different
    /// application).
    pub fn restore(&mut self, snap: &SimSnapshot<H, C>)
    where
        H: Clone,
        C: Clone,
    {
        let current = snap.0.machine.current();
        assert!(
            current.0 < self.program.graph.len(),
            "snapshot task pointer {} outside this graph ({} tasks)",
            current.0,
            self.program.graph.len()
        );
        self.state = snap.0.clone();
    }

    /// Runs steps until `end` (simulated), the application stops, or the
    /// harvester stalls. Returns the terminal condition.
    ///
    /// A step-budget watchdog guards against livelock: a task set that
    /// keeps completing without ever advancing the simulated clock (for
    /// example a zero-duration task after the harvester dies, so no charge
    /// pause ever happens) would otherwise spin forever. After
    /// [`STALL_STEP_BUDGET`] consecutive steps with no time advance the
    /// run is declared stalled and a typed
    /// [`StepResult::Stalled`] is returned instead of hanging.
    pub fn run_until(&mut self, end: SimTime) -> StepResult {
        match self.run_limited(&RunLimits::until(end)) {
            RunOutcome::HorizonReached => StepResult::Progress,
            RunOutcome::Stopped => StepResult::Stopped,
            RunOutcome::Stalled { steps } | RunOutcome::NoProgress { steps } => {
                StepResult::Stalled { steps }
            }
            // `RunLimits::until` sets neither a step nor an energy budget.
            RunOutcome::StepBudget { .. } | RunOutcome::EnergyBudget { .. } => {
                unreachable!("run_until sets no step or energy budget")
            }
        }
    }

    /// Runs steps until a [`RunLimits`] budget trips or the simulation
    /// reaches a terminal condition, whichever is first, and reports
    /// which as a typed [`RunOutcome`].
    ///
    /// This is the engine under [`Simulator::run_until`] (which is
    /// exactly `run_limited(&RunLimits::until(end))`) and the service
    /// surface the `capy-run` scenario runner drives: each limit maps to
    /// a distinct outcome, so a tripped budget is distinguishable from a
    /// harvester stall or a clean stop. Limit checks run between steps —
    /// a step is never cut short mid-attempt, so `max_steps` and
    /// `max_energy` are exceeded by at most one step's worth of work
    /// before they trip.
    ///
    /// When the context and the policy both declare a steady state
    /// ([`SimContext::steady_state`], [`ReconfigPolicy::steady_state`]),
    /// the run advances whole repeating cycles at once instead of
    /// stepping them, with results identical bit for bit to stepping
    /// (see [`Simulator::skip_stats`]).
    pub fn run_limited(&mut self, limits: &RunLimits) -> RunOutcome {
        self.state.run_limited(&self.program, limits)
    }

    /// Executes one task attempt (with whatever runtime actions precede
    /// it).
    pub fn step(&mut self) -> StepResult {
        self.state.step(&self.program)
    }

    /// Forces a hard power failure at the current instant — the
    /// fault-injection engine's kill primitive (see [`crate::faults`]).
    ///
    /// Every bank connected to the rail is drained to zero
    /// ([`PowerSystem::blackout`]); disconnected banks keep their charge,
    /// exactly like a real outage with latched switches. Uncommitted
    /// application and policy state is discarded and the device must
    /// recharge before the next attempt. A [`SimEvent::PowerFailure`]
    /// naming the pending task is recorded. Calling this on a stopped or
    /// stalled simulator is a no-op.
    pub fn inject_power_failure(&mut self) {
        self.state.inject_power_failure();
    }
}

/// The engine: one task attempt and everything it triggers, on the
/// state, against the program `p`.
impl<H: Harvester, C: SimContext> State<H, C> {
    fn run_limited(&mut self, p: &Program<C>, limits: &RunLimits) -> RunOutcome {
        self.timeline.presize();
        let mut skipper = skip::Skipper::new();
        let outcome = self.run_steps(p, limits, &mut skipper);
        skipper.finish(&mut self.power);
        if cfg!(debug_assertions) {
            self.timeline.check();
        }
        outcome
    }

    fn run_steps(
        &mut self,
        p: &Program<C>,
        limits: &RunLimits,
        skipper: &mut skip::Skipper,
    ) -> RunOutcome {
        let watchdog = limits.no_progress_steps.unwrap_or(STALL_STEP_BUDGET);
        let mut no_advance: u64 = 0;
        let mut steps: u64 = 0;
        loop {
            if let Some(end) = limits.max_sim {
                if self.now >= end {
                    return RunOutcome::HorizonReached;
                }
            }
            let before = self.now;
            match self.step(p) {
                StepResult::Progress => {
                    steps += 1;
                    if self.now > before {
                        no_advance = 0;
                    } else {
                        no_advance += 1;
                        if no_advance >= watchdog {
                            self.stall();
                            return RunOutcome::NoProgress { steps: no_advance };
                        }
                    }
                    if let Some(max) = limits.max_steps {
                        if steps >= max {
                            return RunOutcome::StepBudget { steps };
                        }
                    }
                    if let Some(max) = limits.max_energy {
                        let delivered = self.power.energy_delivered();
                        if delivered > max {
                            return RunOutcome::EnergyBudget { delivered };
                        }
                    }
                    if steps >= skipper.from {
                        steps += self.cycle_boundary(skipper, limits, steps);
                    }
                }
                StepResult::Stopped => return RunOutcome::Stopped,
                StepResult::Stalled { steps } => return RunOutcome::Stalled { steps },
            }
        }
    }

    fn step(&mut self, p: &Program<C>) -> StepResult {
        if self.machine.is_stopped() {
            return StepResult::Stopped;
        }
        if self.stalled {
            return StepResult::Stalled { steps: 1 };
        }
        if p.variant == Variant::Continuous {
            return self.step_continuous(p);
        }

        let task = self.machine.current();
        let energy = self.decide_energy(task, p.tasks[task.0].energy);
        let steps = plan(p.variant, energy, &self.runtime, self.needs_charge);
        for step in steps.into_iter().flatten() {
            let ok = match step {
                Step::ConfigureAndCharge(mode) => self.configure_and_charge(p, mode, false),
                Step::Precharge(mode) => {
                    let ok = self.configure_and_charge(p, mode, true);
                    if ok {
                        self.runtime.mark_precharged(mode);
                    }
                    ok
                }
                Step::ActivateBurst(mode) => {
                    self.reconfigure(p, mode);
                    self.timeline
                        .record(SimEvent::BurstActivated { at: self.now, mode });
                    true
                }
                Step::ChargeCurrent => self.charge_current(p),
            };
            if !ok {
                return StepResult::Stalled { steps: 1 };
            }
        }

        if !self.on && !self.ensure_on(p) {
            return StepResult::Stalled { steps: 1 };
        }

        // Execute the task's load phases against the rail.
        self.machine.begin();
        let load = (p.tasks[task.0].load)(&p.mcu);
        let regulated = self.power.output_booster().output_voltage();
        for phase in load.phases() {
            assert!(
                phase.min_voltage() <= regulated,
                "task '{}' phase '{}' needs {} but the output booster regulates {}",
                p.graph.name(task),
                phase.label(),
                phase.min_voltage(),
                regulated
            );
            let outcome = if p.harvest_during_operation {
                self.power
                    .draw_with_harvesting(phase.power(), phase.duration(), &mut self.now)
            } else {
                self.power
                    .draw(phase.power(), phase.duration(), &mut self.now)
            };
            if !outcome.is_complete() {
                self.power_failed(p, task, energy);
                return StepResult::Progress;
            }
        }
        self.trace_point();

        // The task completed on buffered energy: run its logic and commit.
        self.ctx.set_now(self.now);
        let transition = self.machine.peek_body(&p.graph, &mut self.ctx);
        self.machine.complete(&p.graph, &mut self.ctx, transition);
        self.consecutive_failures = 0;
        if let (TaskEnergy::Burst(mode), true) = (energy, p.variant.supports_burst()) {
            // The burst's stored energy is spent; the next preburst task
            // must refill it.
            self.runtime.consume_precharge(mode);
        }
        if let Transition::Sleep { duration, .. } = transition {
            // The processor sleeps but the power system stays on; its
            // quiescent overhead keeps draining the buffer (§6.4: "it will
            // discharge during sampling despite the sleep mode, due to the
            // power overhead of the power system that remains on").
            let outcome = self
                .power
                .draw(p.mcu.sleep_power(), duration, &mut self.now);
            if !outcome.is_complete() {
                self.sleep_brownout();
            }
        }
        StepResult::Progress
    }

    fn step_continuous(&mut self, p: &Program<C>) -> StepResult {
        if !self.on {
            self.on = true;
            self.timeline.record(SimEvent::Boot { at: self.now });
        }
        let task = self.machine.current();
        self.machine.begin();
        let load = (p.tasks[task.0].load)(&p.mcu);
        self.now = self.now.saturating_add(load.duration());
        self.ctx.set_now(self.now);
        let transition = self.machine.peek_body(&p.graph, &mut self.ctx);
        self.machine.complete(&p.graph, &mut self.ctx, transition);
        if let Transition::Sleep { duration, .. } = transition {
            self.now = self.now.saturating_add(duration);
        }
        StepResult::Progress
    }

    /// Charges the current configuration to full and boots. Returns
    /// `false` on harvester stall.
    fn charge_current(&mut self, p: &Program<C>) -> bool {
        self.on = false;
        let start = self.now;
        let from = self.power.rail_voltage(self.now);
        match self.power.charge_until_full(&mut self.now) {
            Ok(_) => {
                self.timeline.record(SimEvent::Charge {
                    start,
                    end: self.now,
                    from,
                    to: self.power.rail_voltage(self.now),
                    precharge: false,
                });
                if !self.boot(p) {
                    return false;
                }
                self.needs_charge = false;
                true
            }
            Err(_) => {
                // No bank is connectable (e.g. a stuck-open switch on the
                // only configured bank): the self-test may recover a
                // degraded configuration worth retrying.
                if self.try_degrade() {
                    return self.charge_current(p);
                }
                self.stall();
                false
            }
        }
    }

    /// Reconfigures to `mode` and charges it (to the pre-charge ceiling
    /// when `precharge`), then boots. Returns `false` on harvester stall.
    fn configure_and_charge(&mut self, p: &Program<C>, mode: EnergyMode, precharge: bool) -> bool {
        if !self.ensure_on(p) {
            return false;
        }
        self.reconfigure(p, mode);
        self.on = false;
        let start = self.now;
        let from = self.power.rail_voltage(self.now);
        let mut target = self.power.full_voltage(self.now);
        if precharge {
            target = (target - PRECHARGE_DEFICIT).max(Volts::ZERO);
        }
        match self.power.charge_until(target, &mut self.now) {
            Ok(ChargeOutcome::Reached(_)) => {
                self.timeline.record(SimEvent::Charge {
                    start,
                    end: self.now,
                    from,
                    to: self.power.rail_voltage(self.now),
                    precharge,
                });
                if !self.boot(p) {
                    return false;
                }
                self.needs_charge = false;
                true
            }
            Ok(ChargeOutcome::Stalled(_)) | Err(_) => {
                if self.try_degrade() {
                    // The mode table was remapped onto surviving banks;
                    // retry the same mode id against its new bank set.
                    return self.configure_and_charge(p, mode, precharge);
                }
                self.stall();
                false
            }
        }
    }

    /// Issues the switch commands for `mode`: non-members open first, then
    /// members close (avoiding spurious charge-sharing through the rail).
    fn reconfigure(&mut self, p: &Program<C>, mode: EnergyMode) {
        // The runtime's GPIO traffic costs a sliver of active time.
        let _ = self
            .power
            .draw(p.mcu.active_power(), RECONFIG_OVERHEAD, &mut self.now);
        for i in 0..self.power.bank_count() {
            if !self.modes.contains(mode, BankId(i)) {
                let _ = self
                    .power
                    .command_switch(BankId(i), SwitchState::Open, self.now);
            }
        }
        for i in 0..self.power.bank_count() {
            if self.modes.contains(mode, BankId(i)) {
                let _ = self
                    .power
                    .command_switch(BankId(i), SwitchState::Closed, self.now);
            }
        }
        self.runtime.set_current_mode(mode);
        self.timeline
            .record(SimEvent::Reconfigure { at: self.now, mode });
        self.trace_point();
    }

    /// Boots the device from a charged rail: pays the boot load, records
    /// the boot, refreshes switch latches.
    ///
    /// Returns `false` when the cold-start supervisor refuses to start
    /// the output booster ([`PowerSystem::can_boot`], which includes any
    /// injected brownout startup margin): the buffer is already at its
    /// charge target, so more charging cannot help and the run stalls.
    fn boot(&mut self, p: &Program<C>) -> bool {
        if !self.power.can_boot(self.now) {
            self.stall();
            return false;
        }
        let boot = p.mcu.boot_load();
        let _ = self
            .power
            .draw(boot.power(), boot.duration(), &mut self.now);
        self.power.refresh_switches(self.now);
        self.machine.reboot();
        self.on = true;
        self.timeline.record(SimEvent::Boot { at: self.now });
        self.trace_point();
        true
    }

    /// Brings the device on-line if it is off, charging the *current*
    /// configuration first (a cold boot must run on the default/previous
    /// configuration before the runtime can issue any switch commands).
    fn ensure_on(&mut self, p: &Program<C>) -> bool {
        if self.on {
            return true;
        }
        self.charge_current(p)
    }

    /// Consults the reconfiguration policy at the task boundary: the
    /// policy sees the runtime state and the charge pauses since its last
    /// decision and may override the static annotation. The decision
    /// point is commit-equivalent (like [`RuntimeState`] mutations), so
    /// the policy's non-volatile state commits as soon as the decision is
    /// taken, and the next observation starts from here.
    fn decide_energy(&mut self, task: TaskId, annotation: TaskEnergy) -> TaskEnergy {
        // The observation borrows the fields the policy reads, disjoint
        // from the policy itself; the power readings are computed only if
        // the policy asks for them.
        let obs = PolicyObservation {
            now: self.now,
            task,
            needs_charge: self.needs_charge,
            state: &self.runtime,
            pauses: &self.timeline.pending,
            rail: &self.power,
            mode_count: self.modes.len(),
            failed_banks: self.runtime.failed_banks().len(),
        };
        let decided = self.policy.decide(&obs, annotation);
        self.policy.commit();
        self.timeline.pending.clear();
        for mode in [decided.exec_mode(), decided.precharge_mode()]
            .into_iter()
            .flatten()
        {
            assert!(
                mode.0 < self.modes.len(),
                "policy '{}' chose unknown energy mode {mode} for task {}",
                self.policy.name(),
                task.0
            );
        }
        decided
    }

    /// Bookkeeping shared by every power-failure path: discards staged
    /// policy state, marks the device off and due for a recharge, records
    /// the event, and feeds the consecutive-failure counter that arms the
    /// degradation self-test.
    fn power_failure_common(&mut self, task: TaskId) {
        // The device lost power: any policy state staged since the last
        // commit-equivalent point is discarded, exactly like application
        // NV state. (The engine commits decisions immediately, so this
        // matters for policies that stage across calls.)
        self.policy.abort();
        self.on = false;
        self.needs_charge = true;
        self.timeline
            .record(SimEvent::PowerFailure { at: self.now, task });
        self.trace_point();
        self.consecutive_failures += 1;
        if self.degradation && self.consecutive_failures >= DEGRADATION_FAILURE_THRESHOLD {
            // Repeated failures without a completion suggest the
            // configured capacity is no longer what the mode table
            // promises: run the self-test (whether or not it finds a
            // culprit, the counter restarts so the test is not rerun on
            // every subsequent failure).
            self.consecutive_failures = 0;
            let _ = self.diagnose_and_remap();
        }
    }

    /// A mid-task brown-out: the attempt is charged against the executing
    /// task, whose uncommitted work is rolled back for a retry.
    fn power_failed(&mut self, p: &Program<C>, task: TaskId, energy: TaskEnergy) {
        self.machine.fail(&mut self.ctx);
        if let (TaskEnergy::Burst(mode), true) = (energy, p.variant.supports_burst()) {
            self.runtime.consume_precharge(mode);
        }
        self.power_failure_common(task);
    }

    /// A brown-out during the post-task sleep drain. This goes through the
    /// same accounting as a mid-task failure ([`power_failure_common`]:
    /// policy abort, failure event, consecutive-failure/degradation
    /// bookkeeping) with one intentional asymmetry: the task already
    /// committed before sleeping, so the state machine is *not* failed —
    /// committed work is never retried — and no burst precharge is
    /// consumed. The recorded [`SimEvent::PowerFailure`] names the *next*
    /// pending task, which is the one the reboot will resume into.
    ///
    /// [`power_failure_common`]: State::power_failure_common
    fn sleep_brownout(&mut self) {
        let task = self.machine.current();
        self.power_failure_common(task);
    }

    /// See [`Simulator::inject_power_failure`].
    fn inject_power_failure(&mut self) {
        if self.machine.is_stopped() || self.stalled {
            return;
        }
        self.policy.abort();
        self.ctx.abort_all();
        self.power.blackout(self.now);
        self.on = false;
        self.needs_charge = true;
        self.timeline.record(SimEvent::PowerFailure {
            at: self.now,
            task: self.machine.current(),
        });
        self.trace_point();
    }

    /// Runs the degradation self-test if enabled. Returns `true` when at
    /// least one bank was newly marked failed (so a retry against the
    /// remapped mode table is worthwhile).
    fn try_degrade(&mut self) -> bool {
        self.degradation && self.diagnose_and_remap()
    }

    /// The bank self-test: measures each bank's contribution to the rail
    /// and takes banks that no longer hold charge out of service.
    ///
    /// §5.2's latch switches cannot report their state to the MCU
    /// (sensing would drain the latch), so the runtime probes *charge
    /// behavior* instead of reading status: it opens every switch,
    /// records the residual rail capacitance (stuck-closed banks), then
    /// closes each candidate alone and checks how much capacitance it
    /// actually contributes. A bank contributing less than half its
    /// nominal capacitance — a stuck-open switch contributes none, a
    /// worn-out capacitor a fraction — is marked failed in non-volatile
    /// state ([`SimEvent::BankFailed`]) and every mode is remapped onto
    /// the survivors ([`SimEvent::ModeRemapped`]).
    ///
    /// Returns `true` when at least one bank was newly marked failed.
    /// The probe scrambles the switch array, so the runtime always
    /// forgets its configuration and recharges afterwards.
    fn diagnose_and_remap(&mut self) -> bool {
        let n = self.power.bank_count();
        // Baseline: everything commanded open; whatever capacitance
        // remains belongs to stuck-closed switches and must be
        // subtracted from each probe.
        for i in 0..n {
            let _ = self
                .power
                .command_switch(BankId(i), SwitchState::Open, self.now);
        }
        let residual = self.power.rail_capacitance(self.now);
        let mut newly_failed: Vec<BankId> = Vec::new();
        for i in 0..n {
            let id = BankId(i);
            if self.runtime.is_bank_failed(id) {
                continue;
            }
            let _ = self.power.command_switch(id, SwitchState::Closed, self.now);
            let contributed = self.power.rail_capacitance(self.now) - residual;
            let _ = self.power.command_switch(id, SwitchState::Open, self.now);
            let Ok(bank) = self.power.bank(id) else {
                continue;
            };
            let nominal = bank.nominal_capacitance();
            if contributed.get() < DEGRADATION_CAPACITANCE_FLOOR * nominal.get() {
                newly_failed.push(id);
            }
        }
        let found_new = !newly_failed.is_empty();
        for &id in &newly_failed {
            self.runtime.mark_bank_failed(id);
            self.timeline.record(SimEvent::BankFailed {
                at: self.now,
                bank: id,
            });
        }
        if found_new {
            let failed = self.runtime.failed_banks().to_vec();
            for mode in self.modes.remap_excluding(&failed) {
                self.timeline
                    .record(SimEvent::ModeRemapped { at: self.now, mode });
            }
        }
        // The probe left every switch commanded open; end in a
        // safe-harbor configuration (all surviving banks connected) so
        // the recovery charge has a rail to work with, and make the
        // runtime reconfigure and recharge from scratch.
        for i in 0..n {
            let id = BankId(i);
            if !self.runtime.is_bank_failed(id) {
                let _ = self.power.command_switch(id, SwitchState::Closed, self.now);
            }
        }
        self.runtime.reset_configuration();
        self.needs_charge = true;
        found_new
    }

    fn stall(&mut self) {
        self.stalled = true;
        self.timeline.record(SimEvent::Stalled { at: self.now });
    }

    fn trace_point(&mut self) {
        if let Some(trace) = &mut self.trace {
            trace.push((self.now, self.power.rail_voltage(self.now)));
        }
    }
}

impl<H: Harvester, C: SimContext + 'static> SimulatorBuilder<H, C> {
    /// Registers an energy mode backed by `banks`; ids are assigned in
    /// registration order (`EnergyMode(0)`, `EnergyMode(1)`, …).
    #[must_use]
    pub fn mode(mut self, name: &'static str, banks: &[BankId]) -> Self {
        let _ = self.modes.add(name, banks);
        self
    }

    /// Adds a task: its name, energy annotation, load model, and body.
    /// Task ids are assigned in insertion order.
    ///
    /// The load sees only the MCU; it is evaluated before every attempt.
    /// The body is `Fn`: it keeps every piece of mutable device state in
    /// the context `C`, where commit, abort, snapshots and the context's
    /// steady-state key see it.
    #[must_use]
    pub fn task(
        mut self,
        name: &'static str,
        energy: TaskEnergy,
        load: impl Fn(&Mcu) -> TaskLoad + Send + Sync + 'static,
        body: impl Fn(&mut C) -> Transition + Send + Sync + 'static,
    ) -> Self {
        self.graph = self.graph.task(name, body);
        self.tasks.push(TaskMeta {
            energy,
            load: Box::new(load),
        });
        self
    }

    /// Sets the entry task by name (defaults to the first task).
    #[must_use]
    pub fn entry(mut self, name: &'static str) -> Self {
        self.entry = Some(name);
        self
    }

    /// Enables `(time, rail voltage)` trace recording (Figure 2).
    #[must_use]
    pub fn record_trace(mut self, enable: bool) -> Self {
        self.record_trace = enable;
        self
    }

    /// Models harvesting that continues while tasks run, relaxing the
    /// intermittent model's "charging is negligible during operation"
    /// simplification (§2). Off by default, matching the paper.
    #[must_use]
    pub fn harvest_during_operation(mut self, enable: bool) -> Self {
        self.harvest_during_operation = enable;
        self
    }

    /// Installs an adaptive reconfiguration policy
    /// (see [`crate::policy`]). The default, [`StaticAnnotation`],
    /// passes every annotation through untouched — the paper's behavior.
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn ReconfigPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enables graceful degradation: when charging fails outright or
    /// several task attempts fail in a row, the runtime runs a bank
    /// self-test, marks banks that no longer hold charge as failed in
    /// non-volatile state, and remaps every energy mode onto the
    /// surviving banks instead of wedging
    /// (see [`Simulator::step`] and [`SimEvent::BankFailed`]).
    /// Off by default, matching the paper's fault-free prototype.
    #[must_use]
    pub fn degradation(mut self, enable: bool) -> Self {
        self.degradation = enable;
        self
    }

    /// Finishes the simulator around the initial application context.
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`]; see [`SimulatorBuilder::try_build`]
    /// for the non-panicking form.
    #[must_use]
    pub fn build(self, ctx: C) -> Simulator<H, C> {
        self.try_build(ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finishes the simulator, reporting structural mistakes as a typed
    /// [`BuildError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NoTasks`] for an empty task graph,
    /// [`BuildError::UnknownEntry`] when [`SimulatorBuilder::entry`]
    /// named no registered task, [`BuildError::BankOutOfRange`] when a
    /// mode references a bank the power system does not have, and
    /// [`BuildError::UnknownMode`] when a task annotation references a
    /// mode missing from the table (see [`validate_annotations`]).
    pub fn try_build(self, ctx: C) -> Result<Simulator<H, C>, BuildError> {
        if self.tasks.is_empty() {
            return Err(BuildError::NoTasks);
        }
        if let Some(max) = self.modes.max_bank_index() {
            if max >= self.power.bank_count() {
                return Err(BuildError::BankOutOfRange {
                    bank: max,
                    banks: self.power.bank_count(),
                });
            }
        }
        if let Err(e) = validate_annotations(&self.modes, self.tasks.iter().map(|t| t.energy)) {
            return Err(BuildError::UnknownMode {
                task: e.task,
                mode: e.mode.0,
                modes: self.modes.len(),
            });
        }

        let entry = match self.entry {
            Some(name) => self
                .graph
                .find(name)
                .ok_or(BuildError::UnknownEntry { name })?,
            None => TaskId(0),
        };
        let graph = self.graph.build(entry);
        let machine = ExecutionMachine::new(&graph);
        let runtime = RuntimeState::new(self.modes.len());
        Ok(Simulator {
            program: Arc::new(Program {
                variant: self.variant,
                mcu: self.mcu,
                graph,
                tasks: self.tasks,
                harvest_during_operation: self.harvest_during_operation,
            }),
            state: State {
                power: self.power,
                machine,
                modes: self.modes,
                runtime,
                ctx,
                now: SimTime::ZERO,
                on: false,
                needs_charge: true,
                stalled: false,
                consecutive_failures: 0,
                timeline: Timeline::new(true),
                trace: self.record_trace.then(Vec::new),
                degradation: self.degradation,
                policy: self.policy.unwrap_or_else(|| Box::new(StaticAnnotation)),
                skips: SkipStats::default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_device::load::TaskLoad;
    use capy_intermittent::nv::NvVar;
    use capy_power::harvester::{ConstantHarvester, TraceHarvester};
    use capy_power::prelude::Bank;
    use capy_power::switch::SwitchKind;
    use capy_power::technology::parts;
    use capy_units::Watts;

    #[derive(Clone)]
    struct Counter {
        n: NvVar<u64>,
        last_seen: SimTime,
    }

    impl NvState for Counter {
        fn commit_all(&mut self) {
            self.n.commit();
        }
        fn abort_all(&mut self) {
            self.n.abort();
        }
    }

    impl SimContext for Counter {
        fn set_now(&mut self, now: SimTime) {
            self.last_seen = now;
        }
    }

    fn counter() -> Counter {
        Counter {
            n: NvVar::new(0),
            last_seen: SimTime::ZERO,
        }
    }

    fn bench_power() -> PowerSystem<ConstantHarvester> {
        PowerSystem::builder()
            .harvester(ConstantHarvester::new(
                Watts::from_milli(10.0),
                Volts::new(3.0),
            ))
            .bank(
                Bank::builder("small")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("big").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyOpen,
            )
            .build()
    }

    fn sampling_sim(variant: Variant) -> Simulator<ConstantHarvester, Counter> {
        Simulator::builder(variant, bench_power(), Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                |c: &mut Counter| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            )
            .build(counter())
    }

    #[test]
    fn continuous_runs_without_charging() {
        let mut sim = sampling_sim(Variant::Continuous);
        sim.run_until(SimTime::from_secs(1));
        // 20 ms per iteration → ~50 completions per second, no failures.
        let n = sim.ctx().n.get();
        assert!((48..=52).contains(&n), "n = {n}");
        assert_eq!(sim.exec_stats().failures, 0);
        assert!(!sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Charge { .. })));
    }

    #[test]
    fn intermittent_sampler_cycles_charge_and_run() {
        let mut sim = sampling_sim(Variant::CapyR);
        sim.run_until(SimTime::from_secs(30));
        let stats = sim.exec_stats();
        assert!(
            stats.completions > 50,
            "completions = {}",
            stats.completions
        );
        assert!(
            stats.failures > 0,
            "an intermittent device must fail sometimes"
        );
        assert!(stats.reboots > 1);
        // Charges happened, all on the small bank (mode never changes).
        let charges = sim
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::Charge { .. }))
            .count();
        assert!(charges > 1);
        // Clock observed by the body advances.
        assert!(sim.ctx().last_seen > SimTime::ZERO);
    }

    #[test]
    fn failed_attempts_do_not_leak_counter_increments() {
        let mut sim = sampling_sim(Variant::CapyR);
        sim.run_until(SimTime::from_secs(30));
        // Every committed increment corresponds to a completion.
        assert_eq!(sim.ctx().n.get(), sim.exec_stats().completions);
    }

    #[test]
    fn burst_task_runs_without_critical_path_charge() {
        // preburst charges the big bank ahead of time; the burst then
        // activates instantly.
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyP, bench_power(), Mcu::msp430fr5969())
                .mode("small", &[BankId(0)])
                .mode("big", &[BankId(1)])
                .task(
                    "prep",
                    TaskEnergy::Preburst {
                        burst: EnergyMode(1),
                        exec: EnergyMode(0),
                    },
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
                    |_c: &mut Counter| Transition::To(TaskId(1)),
                )
                .task(
                    "burst",
                    TaskEnergy::Burst(EnergyMode(1)),
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(100))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Stop
                    },
                )
                .build(counter());
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.ctx().n.get(), 1);
        // Exactly one pre-charge, one burst activation, and no Charge
        // event between the burst activation and completion.
        let events = sim.events();
        assert!(events.iter().any(|e| matches!(
            e,
            SimEvent::Charge {
                precharge: true,
                ..
            }
        )));
        let burst_at = events
            .iter()
            .find_map(|e| match e {
                SimEvent::BurstActivated { at, .. } => Some(*at),
                _ => None,
            })
            .expect("burst must activate");
        assert!(!events.iter().any(|e| matches!(
            e,
            SimEvent::Charge { start, .. } if *start >= burst_at
        )));
    }

    #[test]
    fn precharge_tops_out_below_full() {
        // §6.4: pre-charge reaches a strictly lower voltage (≈0.3 V) than
        // a normal charge.
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyP, bench_power(), Mcu::msp430fr5969())
                .mode("small", &[BankId(0)])
                .mode("big", &[BankId(1)])
                .task(
                    "prep",
                    TaskEnergy::Preburst {
                        burst: EnergyMode(1),
                        exec: EnergyMode(0),
                    },
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
                    |_c: &mut Counter| Transition::Stop,
                )
                .build(counter());
        sim.run_until(SimTime::from_secs(300));
        let precharge_to = sim
            .events()
            .iter()
            .find_map(|e| match e {
                SimEvent::Charge {
                    precharge: true,
                    to,
                    ..
                } => Some(*to),
                _ => None,
            })
            .expect("pre-charge must occur");
        assert!(
            (precharge_to.get() - 2.5).abs() < 0.01,
            "pre-charge ceiling = {precharge_to}"
        );
    }

    #[test]
    fn capy_r_charges_burst_mode_on_critical_path() {
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyR, bench_power(), Mcu::msp430fr5969())
                .mode("small", &[BankId(0)])
                .mode("big", &[BankId(1)])
                .task(
                    "burst",
                    TaskEnergy::Burst(EnergyMode(1)),
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(100))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Stop
                    },
                )
                .build(counter());
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.ctx().n.get(), 1);
        // No burst activation events under Capy-R; a full charge of the
        // big mode happened instead.
        assert!(!sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::BurstActivated { .. })));
    }

    #[test]
    fn stalls_cleanly_in_the_dark() {
        let power = PowerSystem::builder()
            .harvester(ConstantHarvester::dark())
            .bank(
                Bank::builder("only")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
                .task(
                    "sample",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                    |_c: &mut Counter| Transition::Stay,
                )
                .build(counter());
        assert_eq!(
            sim.run_until(SimTime::from_secs(10)),
            StepResult::Stalled { steps: 1 }
        );
        assert_eq!(sim.ctx().n.get(), 0);
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Stalled { .. })));
    }

    #[test]
    fn watchdog_catches_zero_duration_livelock() {
        // An all-zero harvest trace and a task with no load phases: time
        // never advances and no charge pause can intervene, so without
        // the step-budget watchdog `run_until` would spin forever.
        let power = PowerSystem::builder()
            .harvester(TraceHarvester::new(vec![(
                SimTime::ZERO,
                Watts::ZERO,
                Volts::ZERO,
            )]))
            .bank(
                Bank::builder("only")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let mut sim: Simulator<TraceHarvester, Counter> =
            Simulator::builder(Variant::Continuous, power, Mcu::msp430fr5969())
                .task(
                    "spin",
                    TaskEnergy::Unannotated,
                    |_| TaskLoad::new(),
                    |_c: &mut Counter| Transition::Stay,
                )
                .build(counter());
        let result = sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            result,
            StepResult::Stalled {
                steps: STALL_STEP_BUDGET
            }
        );
        // The stall is recorded on the timeline and the log stays valid.
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Stalled { .. })));
        assert_eq!(validate_event_log(sim.events()), None);
        // Subsequent calls return immediately instead of re-counting.
        assert_eq!(sim.step(), StepResult::Stalled { steps: 1 });
    }

    #[test]
    fn step_budget_limit_trips_with_typed_outcome() {
        let mut sim = sampling_sim(Variant::CapyR);
        let limits = RunLimits {
            max_steps: Some(5),
            ..RunLimits::default()
        };
        assert_eq!(
            sim.run_limited(&limits),
            RunOutcome::StepBudget { steps: 5 }
        );
        assert!(RunOutcome::StepBudget { steps: 5 }.is_limit());
    }

    #[test]
    fn energy_budget_limit_trips_with_typed_outcome() {
        let mut sim = sampling_sim(Variant::CapyR);
        let limits = RunLimits {
            max_sim: Some(SimTime::from_secs(30)),
            max_energy: Some(Joules::from_micro(500.0)),
            ..RunLimits::default()
        };
        let outcome = sim.run_limited(&limits);
        match outcome {
            RunOutcome::EnergyBudget { delivered } => {
                assert!(delivered > Joules::from_micro(500.0));
                assert!(outcome.is_limit());
            }
            other => panic!("expected an energy-budget trip, got {other:?}"),
        }
    }

    #[test]
    fn no_progress_limit_overrides_default_watchdog() {
        // Same zero-duration livelock as the watchdog test, but with a
        // small explicit budget: the typed NoProgress outcome fires at
        // the configured count instead of STALL_STEP_BUDGET.
        let power = PowerSystem::builder()
            .harvester(TraceHarvester::new(vec![(
                SimTime::ZERO,
                Watts::ZERO,
                Volts::ZERO,
            )]))
            .bank(
                Bank::builder("only")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let mut sim: Simulator<TraceHarvester, Counter> =
            Simulator::builder(Variant::Continuous, power, Mcu::msp430fr5969())
                .task(
                    "spin",
                    TaskEnergy::Unannotated,
                    |_| TaskLoad::new(),
                    |_c: &mut Counter| Transition::Stay,
                )
                .build(counter());
        let limits = RunLimits {
            max_sim: Some(SimTime::from_secs(1)),
            no_progress_steps: Some(64),
            ..RunLimits::default()
        };
        assert_eq!(
            sim.run_limited(&limits),
            RunOutcome::NoProgress { steps: 64 }
        );
        // The livelock is recorded as a stall on the timeline, like the
        // default watchdog's.
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Stalled { .. })));
    }

    #[test]
    fn run_limited_horizon_matches_run_until() {
        let mut a = sampling_sim(Variant::CapyR);
        let mut b = sampling_sim(Variant::CapyR);
        assert_eq!(a.run_until(SimTime::from_secs(10)), StepResult::Progress);
        assert_eq!(
            b.run_limited(&RunLimits::until(SimTime::from_secs(10))),
            RunOutcome::HorizonReached
        );
        assert_eq!(a.events(), b.events());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.ctx().n.get(), b.ctx().n.get());
    }

    #[test]
    fn brownout_margin_blocks_boot_and_stalls() {
        // A cold-start brownout fault: the supervisor demands far more
        // headroom than the buffer can ever reach, so the charge
        // completes but the boot is refused and the run stalls cleanly.
        let mut power = bench_power();
        power.set_startup_margin(Volts::new(2.0));
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, power, Mcu::msp430fr5969())
                .task(
                    "sample",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                    |_c: &mut Counter| Transition::Stay,
                )
                .build(counter());
        let result = sim.run_until(SimTime::from_secs(60));
        assert!(matches!(result, StepResult::Stalled { .. }), "{result:?}");
        assert_eq!(sim.exec_stats().reboots, 0, "the boot must be refused");
        assert_eq!(validate_event_log(sim.events()), None);
    }

    #[test]
    fn degradation_remaps_mode_onto_survivors() {
        use capy_power::prelude::{HardwareFault, SwitchFault};

        // The big bank's switch is stuck open from the start: a task
        // annotated for the big mode can never charge it. With
        // degradation enabled the runtime must detect the dead bank,
        // remap the mode onto the small bank, and keep completing tasks.
        let mut power = bench_power();
        power
            .inject_fault(
                HardwareFault::Switch {
                    bank: BankId(1),
                    fault: SwitchFault::StuckOpen,
                },
                SimTime::ZERO,
            )
            .expect("bank exists");
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
                .mode("small", &[BankId(0)])
                .mode("big", &[BankId(1)])
                .task(
                    "sense",
                    TaskEnergy::Config(EnergyMode(1)),
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Stay
                    },
                )
                .degradation(true)
                .build(counter());
        sim.run_until(SimTime::from_secs(30));
        assert!(sim.ctx().n.get() > 0, "mission must continue degraded");
        assert!(sim.events().iter().any(|e| matches!(
            e,
            SimEvent::BankFailed {
                bank: BankId(1),
                ..
            }
        )));
        assert!(sim.events().iter().any(|e| matches!(
            e,
            SimEvent::ModeRemapped {
                mode: EnergyMode(1),
                ..
            }
        )));
        assert_eq!(sim.runtime_state().failed_banks(), &[BankId(1)]);
        assert_eq!(sim.modes().banks(EnergyMode(1)), &[BankId(0)]);
        assert_eq!(validate_event_log(sim.events()), None);
    }

    #[test]
    fn degradation_stalls_when_every_bank_is_dead() {
        use capy_power::prelude::{HardwareFault, SwitchFault};

        let mut power = bench_power();
        for bank in [BankId(0), BankId(1)] {
            power
                .inject_fault(
                    HardwareFault::Switch {
                        bank,
                        fault: SwitchFault::StuckOpen,
                    },
                    SimTime::ZERO,
                )
                .expect("bank exists");
        }
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
                .mode("small", &[BankId(0)])
                .mode("big", &[BankId(1)])
                .task(
                    "sense",
                    TaskEnergy::Config(EnergyMode(1)),
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                    |_c: &mut Counter| Transition::Stay,
                )
                .degradation(true)
                .build(counter());
        let result = sim.run_until(SimTime::from_secs(30));
        assert!(matches!(result, StepResult::Stalled { .. }), "{result:?}");
        assert_eq!(sim.runtime_state().failed_banks().len(), 2);
        assert_eq!(validate_event_log(sim.events()), None);
    }

    #[test]
    fn injected_power_failure_drains_rail_and_recovers() {
        let mut sim = sampling_sim(Variant::CapyR);
        sim.run_until(SimTime::from_secs(5));
        let completions_before = sim.exec_stats().completions;
        assert!(completions_before > 0);
        sim.inject_power_failure();
        assert_eq!(sim.power().rail_voltage(sim.now()), Volts::ZERO);
        let failures = sim
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::PowerFailure { .. }))
            .count();
        assert!(failures >= 1);
        // The device recovers: it recharges and keeps completing tasks.
        sim.run_until(SimTime::from_secs(15));
        assert!(sim.exec_stats().completions > completions_before);
        assert_eq!(validate_event_log(sim.events()), None);
    }

    #[test]
    fn trace_recording_captures_voltage_motion() {
        let mut sim = sampling_sim(Variant::Fixed);
        let mut sim_traced: Simulator<ConstantHarvester, Counter> = {
            // Rebuild with tracing on.
            let _ = &mut sim;
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .task(
                    "sample",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                    |_c: &mut Counter| Transition::Stay,
                )
                .record_trace(true)
                .build(counter())
        };
        sim_traced.run_until(SimTime::from_secs(5));
        let trace = sim_traced.trace().expect("tracing enabled");
        assert!(trace.len() > 4);
        // Voltage moves between near-full and near-empty.
        let max = trace.iter().map(|(_, v)| v.get()).fold(0.0, f64::max);
        let min = trace.iter().map(|(_, v)| v.get()).fold(f64::MAX, f64::min);
        assert!(max > 2.5, "max = {max}");
        assert!(min < 1.2, "min = {min}");
    }

    #[test]
    #[should_panic(expected = "references bank")]
    fn builder_rejects_mode_with_unknown_bank() {
        let _: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::CapyP, bench_power(), Mcu::msp430fr5969())
                .mode("bad", &[BankId(9)])
                .task(
                    "t",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(1))),
                    |_c: &mut Counter| Transition::Stop,
                )
                .build(counter());
    }

    #[test]
    #[should_panic(expected = "unknown entry task")]
    fn builder_rejects_unknown_entry() {
        let _: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .task(
                    "t",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(1))),
                    |_c: &mut Counter| Transition::Stop,
                )
                .entry("nope")
                .build(counter());
    }

    fn one_task_builder() -> SimulatorBuilder<ConstantHarvester, Counter> {
        Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969()).task(
            "t",
            TaskEnergy::Unannotated,
            |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(1))),
            |_c: &mut Counter| Transition::Stop,
        )
    }

    fn build_err<H: Harvester, C: SimContext>(
        result: Result<Simulator<H, C>, BuildError>,
    ) -> BuildError {
        match result {
            Ok(_) => panic!("builder unexpectedly succeeded"),
            Err(e) => e,
        }
    }

    #[test]
    fn try_build_reports_unknown_entry_as_typed_error() {
        let err = build_err(one_task_builder().entry("nope").try_build(counter()));
        assert_eq!(err, BuildError::UnknownEntry { name: "nope" });
        assert_eq!(err.to_string(), "unknown entry task 'nope'");
    }

    #[test]
    fn try_build_reports_missing_tasks_and_bad_banks() {
        let no_tasks: Result<Simulator<ConstantHarvester, Counter>, _> =
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .try_build(counter());
        assert_eq!(build_err(no_tasks), BuildError::NoTasks);

        let err = build_err(
            one_task_builder()
                .mode("bad", &[BankId(9)])
                .try_build(counter()),
        );
        assert_eq!(err, BuildError::BankOutOfRange { bank: 9, banks: 2 });
        assert!(err.to_string().contains("references bank 9"));
    }

    #[test]
    fn try_build_accepts_a_valid_graph() {
        let sim = one_task_builder().entry("t").try_build(counter());
        assert!(sim.is_ok());
    }

    #[test]
    #[should_panic(expected = "outside this graph")]
    fn restore_rejects_snapshots_from_a_larger_program() {
        let mut two_tasks: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Continuous, bench_power(), Mcu::msp430fr5969())
                .task(
                    "first",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(1))),
                    |_c: &mut Counter| Transition::To(TaskId(1)),
                )
                .task(
                    "second",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(1))),
                    |_c: &mut Counter| Transition::Stay,
                )
                .build(counter());
        two_tasks.step();
        let snap = two_tasks.snapshot();
        one_task_builder().build(counter()).restore(&snap);
    }

    mod event_log_validation {
        use super::*;

        fn boot(s: u64) -> SimEvent {
            SimEvent::Boot {
                at: SimTime::from_secs(s),
            }
        }

        fn charge(start: u64, end: u64) -> SimEvent {
            SimEvent::Charge {
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(end),
                from: Volts::ZERO,
                to: Volts::new(2.8),
                precharge: false,
            }
        }

        #[test]
        fn accepts_a_well_formed_log() {
            let log = [
                charge(0, 2),
                boot(2),
                SimEvent::Reconfigure {
                    at: SimTime::from_secs(3),
                    mode: EnergyMode(1),
                },
                SimEvent::BurstActivated {
                    at: SimTime::from_secs(4),
                    mode: EnergyMode(1),
                },
                SimEvent::PowerFailure {
                    at: SimTime::from_secs(5),
                    task: TaskId(0),
                },
                charge(5, 7),
                boot(7),
                SimEvent::Stalled {
                    at: SimTime::from_secs(8),
                },
            ];
            assert_eq!(validate_event_log(&log), None);
        }

        #[test]
        fn rejects_out_of_order_events() {
            let log = [boot(5), boot(1)];
            let err = validate_event_log(&log).expect("must flag regression in time");
            assert!(err.contains("precedes"), "err = {err}");
        }

        #[test]
        fn rejects_charge_ending_before_it_starts() {
            let log = [charge(4, 1)];
            let err = validate_event_log(&log).expect("must flag inverted charge");
            assert!(err.contains("ends before it starts"), "err = {err}");
        }

        #[test]
        fn rejects_charge_not_followed_by_boot() {
            let log = [
                charge(0, 2),
                SimEvent::Reconfigure {
                    at: SimTime::from_secs(3),
                    mode: EnergyMode(0),
                },
            ];
            let err = validate_event_log(&log).expect("must flag missing boot");
            assert!(err.contains("instead of a boot"), "err = {err}");
        }

        #[test]
        fn rejects_burst_immediately_after_on_path_charge() {
            let log = [
                charge(0, 2),
                boot(2),
                SimEvent::BurstActivated {
                    at: SimTime::from_secs(2),
                    mode: EnergyMode(1),
                },
            ];
            let err = validate_event_log(&log).expect("must flag on-path burst");
            assert!(err.contains("immediately after"), "err = {err}");

            // A burst after time has passed since boot is fine.
            let ok = [
                charge(0, 2),
                boot(2),
                SimEvent::BurstActivated {
                    at: SimTime::from_secs(3),
                    mode: EnergyMode(1),
                },
            ];
            assert_eq!(validate_event_log(&ok), None);

            // A pre-charge right before the burst is the intended pattern.
            let precharged = [
                SimEvent::Charge {
                    start: SimTime::from_secs(0),
                    end: SimTime::from_secs(2),
                    from: Volts::ZERO,
                    to: Volts::new(2.5),
                    precharge: true,
                },
                boot(2),
                SimEvent::BurstActivated {
                    at: SimTime::from_secs(2),
                    mode: EnergyMode(1),
                },
            ];
            assert_eq!(validate_event_log(&precharged), None);
        }

        #[test]
        fn rejects_events_after_a_stall() {
            let log = [
                SimEvent::Stalled {
                    at: SimTime::from_secs(1),
                },
                boot(2),
            ];
            let err = validate_event_log(&log).expect("must flag post-stall events");
            assert!(err.contains("after stall"), "err = {err}");
        }
    }

    #[test]
    fn continuous_variant_records_a_boot() {
        let mut sim = sampling_sim(Variant::Continuous);
        sim.run_until(SimTime::from_micros(100_000));
        assert!(matches!(sim.events().first(), Some(SimEvent::Boot { .. })));
    }

    #[test]
    fn accessors_expose_configuration() {
        let sim = sampling_sim(Variant::CapyP);
        assert_eq!(sim.variant(), Variant::CapyP);
        assert_eq!(sim.modes().len(), 2);
        assert_eq!(sim.modes().name(EnergyMode(0)), "small");
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.runtime_state().current_mode().is_none());
    }

    #[test]
    fn dimming_harvester_slows_progress() {
        // Exercise power_mut/harvester_mut: halve the input power mid-run
        // and observe the completion rate drop.
        let mut sim = sampling_sim(Variant::CapyR);
        sim.run_until(SimTime::from_secs(20));
        let first = sim.exec_stats().completions;
        *sim.power_mut().harvester_mut() =
            ConstantHarvester::new(Watts::from_micro(500.0), Volts::new(3.0));
        sim.run_until(SimTime::from_secs(40));
        let second = sim.exec_stats().completions - first;
        assert!(
            second * 2 < first,
            "dim phase {second} should complete far less than bright {first}"
        );
    }

    #[test]
    fn sleep_transition_paces_without_powering_down() {
        // A sampler that sleeps 1 s between samples: the device stays on
        // (sleep power + quiescent only) and time advances by the sleep.
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .task(
                    "paced",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Sleep {
                            duration: SimDuration::from_secs(1),
                            then: TaskId(0),
                        }
                    },
                )
                .build(counter());
        sim.run_until(SimTime::from_secs(30));
        let n = sim.ctx().n.get();
        // ~1 sample per second of pacing.
        assert!((25..=32).contains(&n), "n = {n}");
        // No power failures: sleep draw is tiny relative to the 730 µF
        // bank over 30 s (≈21 µW × 30 s ≈ 0.6 mJ of ~2.6 mJ usable).
        assert_eq!(sim.exec_stats().failures, 0);
    }

    #[test]
    fn long_sleep_eventually_browns_out() {
        // Sleeping does not stop the power system's quiescent drain: a
        // sleep far longer than the buffer sustains ends in a brown-out
        // and a recharge (the §6.4 argument).
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .task(
                    "oversleep",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Sleep {
                            duration: SimDuration::from_secs(1_000),
                            then: TaskId(0),
                        }
                    },
                )
                .build(counter());
        sim.run_until(SimTime::from_secs(600));
        assert!(sim
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::PowerFailure { .. })));
        assert!(sim.ctx().n.get() >= 2, "recovers and continues");
    }

    #[test]
    fn sleep_brownout_shares_failure_accounting_but_never_retries_the_task() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        // Probe policy: passes annotations through but counts aborts, so
        // the test can observe that a sleep-phase brown-out consults the
        // policy's failure path like any other power failure.
        struct AbortProbe(Arc<AtomicU32>);
        impl ReconfigPolicy for AbortProbe {
            fn name(&self) -> &'static str {
                "abort-probe"
            }
            fn decide(
                &mut self,
                _obs: &PolicyObservation<'_>,
                annotation: TaskEnergy,
            ) -> TaskEnergy {
                annotation
            }
            fn commit(&mut self) {}
            fn abort(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
                Box::new(AbortProbe(Arc::clone(&self.0)))
            }
        }

        let aborts = Arc::new(AtomicU32::new(0));
        let mut sim: Simulator<ConstantHarvester, Counter> =
            Simulator::builder(Variant::Fixed, bench_power(), Mcu::msp430fr5969())
                .task(
                    "oversleep",
                    TaskEnergy::Unannotated,
                    |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(5))),
                    |c: &mut Counter| {
                        c.n.update(|x| x + 1);
                        Transition::Sleep {
                            duration: SimDuration::from_secs(1_000),
                            then: TaskId(0),
                        }
                    },
                )
                .policy(Box::new(AbortProbe(aborts.clone())))
                .build(counter());
        sim.run_until(SimTime::from_secs(600));
        let brownouts = sim
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::PowerFailure { .. }))
            .count();
        assert!(brownouts >= 1, "the oversleep must brown out");
        // The intentional asymmetry with mid-task failures: the task body
        // committed before sleeping, so no attempt is ever failed/retried…
        assert_eq!(sim.exec_stats().failures, 0);
        // …while the policy still hears about every brown-out.
        assert!(
            aborts.load(Ordering::Relaxed) as usize >= brownouts,
            "policy.abort must run on each sleep brown-out"
        );
    }

    #[test]
    fn observation_readings_match_the_power_system_at_the_decision_instant() {
        use crate::fleet::{FleetHarvester, SharedEnvironment};
        use std::sync::{Arc, Mutex};

        type Reading = (SimTime, Volts, Volts, Watts);

        /// Passes annotations through, recording what the three lazy
        /// readings return at each decision.
        struct ReadingRecorder(Arc<Mutex<Vec<Reading>>>);

        impl ReconfigPolicy for ReadingRecorder {
            fn name(&self) -> &'static str {
                "reading-recorder"
            }
            fn decide(
                &mut self,
                obs: &PolicyObservation<'_>,
                annotation: TaskEnergy,
            ) -> TaskEnergy {
                self.0.lock().unwrap().push((
                    obs.now,
                    obs.rail_voltage(),
                    obs.full_voltage(),
                    obs.harvest_power(),
                ));
                annotation
            }
            fn commit(&mut self) {}
            fn abort(&mut self) {}
            fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
                Box::new(ReadingRecorder(Arc::clone(&self.0)))
            }
        }

        // A one-minute orbit, 60% lit, with correlated 30% harvest dips.
        let env = SharedEnvironment::orbital(SimDuration::from_secs(60), 0.6).with_dips(
            3,
            8,
            SimDuration::from_secs(30),
            SimDuration::from_secs(10),
            0.3,
        );
        let full_sun = Watts::from_milli(10.0);
        let harvester = FleetHarvester::new(
            ConstantHarvester::new(full_sun, Volts::new(3.0)),
            1.0,
            env,
            0.25,
        );
        let power = PowerSystem::builder()
            .harvester(harvester)
            .bank(
                Bank::builder("small")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .bank(
                Bank::builder("big").with(parts::edlc_7_5mf()).build(),
                SwitchKind::NormallyOpen,
            )
            .build();
        let readings = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                |c: &mut Counter| {
                    c.n.update(|x| x + 1);
                    Transition::To(TaskId(1))
                },
            )
            .task(
                "send",
                TaskEnergy::Config(EnergyMode(1)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(50))),
                |_| Transition::To(TaskId(0)),
            )
            .policy(Box::new(ReadingRecorder(Arc::clone(&readings))))
            .build(counter());

        // The decision is the first thing a step does, so the power
        // system just before `step` is the one the policy observes.
        let mut expected = Vec::new();
        while sim.now() < SimTime::from_secs(300) {
            let (now, power) = (sim.now(), sim.power());
            expected.push((
                now,
                power.rail_voltage(now),
                power.full_voltage(now),
                power.harvester().power_at(now),
            ));
            assert_eq!(sim.step(), StepResult::Progress);
        }
        let readings = readings.lock().unwrap();
        assert_eq!(readings.len(), expected.len(), "one reading per decision");
        let bits = |r: &Reading| {
            (
                r.0,
                r.1.get().to_bits(),
                r.2.get().to_bits(),
                r.3.get().to_bits(),
            )
        };
        for (got, want) in readings.iter().zip(&expected) {
            assert_eq!(bits(got), bits(want), "reading at {}", want.0);
        }
        // The decisions saw eclipse, a dip and full sun.
        let harvest = |pred: fn(Watts, Watts) -> bool| expected.iter().any(|r| pred(r.3, full_sun));
        assert!(harvest(|w, _| w == Watts::ZERO), "no decision in eclipse");
        assert!(
            harvest(|w, sun| w > Watts::ZERO && w < sun),
            "no decision in a dip"
        );
        assert!(harvest(|w, sun| w == sun), "no decision in full sun");
    }
}

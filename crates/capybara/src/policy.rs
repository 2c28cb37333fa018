//! Adaptive reconfiguration policies: online overrides of the static
//! energy annotations.
//!
//! Capybara's interface is declarative — the programmer fixes each task's
//! `config`/`burst` mode at compile time — and the paper itself notes
//! that a wrong annotation strands energy or starves bursts. Follow-on
//! work (Williams & Hicks, "Energy-adaptive Buffering for Efficient,
//! Responsive, and Persistent Batteryless Systems") shows that *online*
//! capacity adaptation driven by observed harvesting conditions beats any
//! single static configuration across environments.
//!
//! A [`ReconfigPolicy`] observes the runtime at every task boundary of an
//! intermittent variant ([`PolicyObservation`]: the on-path charge pauses
//! that ended since its last decision, the persistent [`RuntimeState`],
//! and on request the charge level and harvest power) and may override
//! the task's static annotation before the planner runs. The pauses and
//! the three power readings — [`PolicyObservation::charge_pauses`],
//! [`PolicyObservation::rail_voltage`],
//! [`PolicyObservation::full_voltage`] and
//! [`PolicyObservation::harvest_power`] — are methods computed when a
//! policy calls them, so a policy that reads none of them (the default
//! [`StaticAnnotation`] among them) adds no work to a step. The
//! simulator keeps the pauses since the last decision for the
//! observation, whether or not it keeps its event log
//! ([`Simulator::keep_log`]); no policy reads the log.
//! Policy-internal state lives in non-volatile cells
//! ([`NvVar`]) with the same commit/abort discipline as application
//! state: the simulator commits the policy immediately after a decision
//! is taken (a commit-equivalent point, like [`RuntimeState`] mutations)
//! and aborts it on power failure, so decisions survive power failures
//! and a half-made decision is never observable after a crash.
//!
//! Shipped policies:
//!
//! * [`StaticAnnotation`] — the paper's behavior: every annotation passes
//!   through untouched. The default; bit-for-bit identical to a simulator
//!   without a policy installed.
//! * [`Pinned`] — holds one energy mode regardless of annotation; the
//!   "static configuration" baselines of the policy comparison.
//! * [`ReactiveDownsize`] — sheds capacity after on-path charge pauses
//!   exceed a timeout, and grows back after a streak of fast charges.
//! * [`EwmaAdaptive`] — an exponentially-weighted moving average of the
//!   harvested power picks the capacity tier from a mode ladder.
//! * [`Oracle`] — replays the decision sequence of the best candidate
//!   from a recorded first pass ([`oracle_offline`]); by determinism the
//!   replay reproduces the winning run exactly, so the oracle bounds
//!   every candidate from above *by construction* on that trace.
//!
//! The policy-comparison harness ([`run_policy_sweep_on`]) runs a
//! {policy × scenario} grid on the parallel sweep engine and exposes
//! per-policy [`RunSummary`] deltas (event completions, charge time,
//! reactivity) against any baseline. Each [`Scenario`] column carries a
//! typed value that the grid hands to the build function, and each
//! [`NamedPolicy`] factory receives the column's index.
//! [`run_fleet_policy_sweep_on`] runs the same grid with a whole fleet
//! per cell and a `Scenario<SharedEnvironment>` per column.

use std::fmt;
use std::sync::{Arc, Mutex};

use capy_intermittent::nv::NvVar;
use capy_intermittent::task::TaskId;
use capy_power::harvester::Harvester;
use capy_power::system::PowerSystem;
use capy_units::cycle::Cycle;
use capy_units::{SimDuration, SimTime, Volts, Watts};

use crate::annotation::TaskEnergy;
use crate::fleet::{
    run_fleet_on, DeviceOutcome, DevicePoint, FleetReport, FleetSpec, SharedEnvironment,
};
use crate::mode::EnergyMode;
use crate::runtime::RuntimeState;
use crate::sim::{SimContext, Simulator};
use crate::sweep::{run_sweep_on, AxisValue, RunSummary, SweepReport, SweepSpec};

/// The power-system readings behind [`PolicyObservation`]'s methods,
/// taken at the decision instant. The simulator lends its own
/// [`PowerSystem`].
pub(crate) trait RailProbe {
    fn rail_voltage(&self, now: SimTime) -> Volts;
    fn full_voltage(&self, now: SimTime) -> Volts;
    fn harvest_power(&self, now: SimTime) -> Watts;
}

impl<H: Harvester> RailProbe for PowerSystem<H> {
    fn rail_voltage(&self, now: SimTime) -> Volts {
        PowerSystem::rail_voltage(self, now)
    }
    fn full_voltage(&self, now: SimTime) -> Volts {
        PowerSystem::full_voltage(self, now)
    }
    fn harvest_power(&self, now: SimTime) -> Watts {
        self.harvester().power_at(now)
    }
}

/// What a policy sees at a task boundary, immediately before the runtime
/// plans the pending task.
///
/// The fields are cheap copies or borrows. The power readings are
/// methods, computed from the power system as it stands at the decision
/// instant each time a policy calls one.
pub struct PolicyObservation<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The pending task.
    pub task: TaskId,
    /// `true` when the previous attempt ended in a power failure.
    pub needs_charge: bool,
    /// The runtime's persistent state (current mode, pre-charge flags).
    pub state: &'a RuntimeState,
    /// The on-path pauses recorded since the last committed decision,
    /// which [`Self::charge_pauses`] reads.
    pub(crate) pauses: &'a [SimDuration],
    /// The power system the readings come from.
    pub(crate) rail: &'a dyn RailProbe,
    /// Number of registered energy modes.
    pub mode_count: usize,
    /// How many banks the degradation self-test has taken out of service
    /// (see [`RuntimeState::failed_banks`]): a non-zero count tells the
    /// policy the mode table has been remapped and every tier offers less
    /// capacity than its design-time spec.
    pub failed_banks: usize,
}

impl PolicyObservation<'_> {
    /// The on-path charge pauses ([`SimEvent::on_path_pause`]) that ended
    /// since the last committed decision, oldest first. Burst pre-charges
    /// are off the critical path and not offered.
    ///
    /// [`SimEvent::on_path_pause`]: crate::sim::SimEvent::on_path_pause
    pub fn charge_pauses(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.pauses.iter().copied()
    }

    /// Rail voltage right now (the charge level).
    #[must_use]
    pub fn rail_voltage(&self) -> Volts {
        self.rail.rail_voltage(self.now)
    }

    /// The voltage a full charge of the current configuration reaches.
    #[must_use]
    pub fn full_voltage(&self) -> Volts {
        self.rail.full_voltage(self.now)
    }

    /// Instantaneous harvested power (the measurement an ADC on the
    /// harvesting front-end would provide).
    #[must_use]
    pub fn harvest_power(&self) -> Watts {
        self.rail.harvest_power(self.now)
    }
}

impl fmt::Debug for PolicyObservation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyObservation")
            .field("now", &self.now)
            .field("task", &self.task)
            .field("needs_charge", &self.needs_charge)
            .field("state", &self.state)
            .field("charge_pauses", &self.charge_pauses().collect::<Vec<_>>())
            .field("mode_count", &self.mode_count)
            .field("failed_banks", &self.failed_banks)
            .finish_non_exhaustive()
    }
}

/// An online reconfiguration policy.
///
/// The simulator calls [`ReconfigPolicy::decide`] at every task boundary
/// of an intermittent variant, then immediately calls
/// [`ReconfigPolicy::commit`] — the decision point is commit-equivalent,
/// exactly like the [`RuntimeState`] mutations the planner performs.
/// [`ReconfigPolicy::abort`] is called on power failure, discarding any
/// staged writes. Implementations keep all decision state in [`NvVar`]
/// cells and only stage (never publish) inside `decide`, so a power
/// failure between `decide` and `commit` rolls the policy back to a
/// consistent pre-decision state.
///
/// Policies are `Send + Sync` and cloneable through
/// [`ReconfigPolicy::clone_box`] so a whole simulator — policy state
/// included — can be checkpointed ([`Simulator::snapshot`]) and the
/// snapshots shared across sweep worker threads.
pub trait ReconfigPolicy: Send + Sync {
    /// A short stable name for reports and labels.
    fn name(&self) -> &'static str;

    /// Decides the effective annotation for the pending task. Stage any
    /// internal state changes in non-volatile cells; do not publish.
    fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy;

    /// Publishes state staged by the last [`ReconfigPolicy::decide`].
    fn commit(&mut self);

    /// Discards state staged by the last [`ReconfigPolicy::decide`] (the
    /// device lost power before the decision took effect).
    fn abort(&mut self);

    /// An independent copy of this policy with its full decision state
    /// (the object-safe `Clone`). [`Simulator::snapshot`] uses this to
    /// capture policy state; restoring the clone must reproduce the
    /// original's future decisions bit for bit.
    fn clone_box(&self) -> Box<dyn ReconfigPolicy>;

    /// Visits the decision state's steady state (see
    /// [`capy_units::cycle`]) as words only, and returns `true`. A policy
    /// may declare a steady state only if its decisions depend on nothing
    /// but that state, the annotation and the observation's readings
    /// other than [`PolicyObservation::now`]. The default declares none
    /// and returns `false`; a simulator whose policy declares no steady
    /// state never skips a cycle.
    fn steady_state(&self, c: &mut Cycle<'_>) -> bool {
        let _ = c;
        false
    }
}

/// A boxed policy clones through [`ReconfigPolicy::clone_box`], so the
/// simulator's state — policy included — derives `Clone`.
impl Clone for Box<dyn ReconfigPolicy> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

impl<P: ReconfigPolicy + ?Sized> ReconfigPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        (**self).decide(obs, annotation)
    }
    fn commit(&mut self) {
        (**self).commit();
    }
    fn abort(&mut self) {
        (**self).abort();
    }
    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        (**self).clone_box()
    }
    fn steady_state(&self, c: &mut Cycle<'_>) -> bool {
        (**self).steady_state(c)
    }
}

/// Replaces a capacity-only annotation (`Config`/`Unannotated`) with
/// `Config(mode)`; burst and preburst annotations pass through untouched
/// so the pre-charge contract between paired tasks stays intact.
fn override_capacity(annotation: TaskEnergy, mode: EnergyMode) -> TaskEnergy {
    match annotation {
        TaskEnergy::Unannotated | TaskEnergy::Config(_) => TaskEnergy::Config(mode),
        burstlike => burstlike,
    }
}

/// The paper's behavior: the static annotation is final. This is the
/// default policy of every simulator and produces bit-for-bit the event
/// log of a simulator without a policy layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticAnnotation;

impl ReconfigPolicy for StaticAnnotation {
    fn name(&self) -> &'static str {
        "static"
    }
    fn decide(&mut self, _obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        annotation
    }
    fn commit(&mut self) {}
    fn abort(&mut self) {}
    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(*self)
    }
    fn steady_state(&self, _c: &mut Cycle<'_>) -> bool {
        true
    }
}

/// Pins every capacity-constrained task to one energy mode — the "what if
/// the programmer had annotated everything with tier X" baseline the
/// policy comparison measures adaptive policies against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    mode: EnergyMode,
}

impl Pinned {
    /// Pins capacity decisions to `mode`.
    #[must_use]
    pub fn new(mode: EnergyMode) -> Self {
        Self { mode }
    }
}

impl ReconfigPolicy for Pinned {
    fn name(&self) -> &'static str {
        "pinned"
    }
    fn decide(&mut self, _obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        override_capacity(annotation, self.mode)
    }
    fn commit(&mut self) {}
    fn abort(&mut self) {}
    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(*self)
    }
    fn steady_state(&self, _c: &mut Cycle<'_>) -> bool {
        // The pinned mode is fixed at construction.
        true
    }
}

/// Sheds capacity when on-path charges run long, regrows it after a
/// streak of fast charges.
///
/// At each decision the policy reads the on-path charge pauses that
/// ended since its last one ([`PolicyObservation::charge_pauses`]). A
/// pause longer than the timeout is a *charge-timeout miss*: the
/// configured buffer is too large for current conditions, so the policy
/// steps one tier down the mode ladder. A run of 8 consecutive
/// within-timeout charges steps one tier back up. Tier and streak are
/// non-volatile.
#[derive(Debug, Clone)]
pub struct ReactiveDownsize {
    ladder: Vec<EnergyMode>,
    timeout: SimDuration,
    tier: NvVar<usize>,
    fast_streak: NvVar<u32>,
}

impl ReactiveDownsize {
    /// Consecutive fast charges that regrow one tier.
    const RECOVER_AFTER: u32 = 8;

    /// A policy over `ladder` (smallest mode first) that sheds a tier
    /// whenever an on-path charge exceeds `timeout`. Starts at the top
    /// tier and regrows after 8 consecutive fast charges.
    ///
    /// # Panics
    ///
    /// Panics when `ladder` is empty.
    #[must_use]
    pub fn new(ladder: Vec<EnergyMode>, timeout: SimDuration) -> Self {
        assert!(
            !ladder.is_empty(),
            "the mode ladder needs at least one tier"
        );
        let top = ladder.len() - 1;
        Self {
            ladder,
            timeout,
            tier: NvVar::new(top),
            fast_streak: NvVar::new(0),
        }
    }

    /// The committed tier index (0 = smallest).
    #[must_use]
    pub fn tier(&self) -> usize {
        *self.tier.committed()
    }
}

impl ReconfigPolicy for ReactiveDownsize {
    fn name(&self) -> &'static str {
        "reactive-downsize"
    }

    fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        let mut tier = self.tier.get();
        let mut streak = self.fast_streak.get();
        for pause in obs.charge_pauses() {
            if pause > self.timeout {
                tier = tier.saturating_sub(1);
                streak = 0;
            } else {
                streak += 1;
                if streak >= Self::RECOVER_AFTER {
                    tier = (tier + 1).min(self.ladder.len() - 1);
                    streak = 0;
                }
            }
        }
        self.tier.set(tier);
        self.fast_streak.set(streak);
        override_capacity(annotation, self.ladder[tier])
    }

    fn commit(&mut self) {
        self.tier.commit();
        self.fast_streak.commit();
    }

    fn abort(&mut self) {
        self.tier.abort();
        self.fast_streak.abort();
    }

    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(self.clone())
    }

    fn steady_state(&self, c: &mut Cycle<'_>) -> bool {
        let Self {
            ladder: _,
            timeout: _,
            tier,
            fast_streak,
        } = self;
        tier.cycle_words(c, |&t, c| c.word(t as u64));
        fast_streak.cycle_words(c, |&s, c| c.word(u64::from(s)));
        true
    }
}

/// Picks the capacity tier from an EWMA of the harvested input power.
///
/// Each decision folds the instantaneous harvest measurement into a
/// non-volatile exponentially-weighted moving average and selects the
/// highest ladder tier whose threshold the average clears: strong harvest
/// affords a large buffer (amortizing per-cycle boot overhead), weak
/// harvest demands a small one (a large buffer's leakage and charge time
/// would swallow the input).
#[derive(Debug, Clone)]
pub struct EwmaAdaptive {
    ladder: Vec<EnergyMode>,
    thresholds: Vec<Watts>,
    alpha: f64,
    ewma: NvVar<Option<f64>>,
}

impl EwmaAdaptive {
    /// A policy over `ladder` (smallest first): tier `i + 1` is chosen
    /// once the EWMA reaches `thresholds[i]`. `alpha` is the smoothing
    /// weight of the newest sample.
    ///
    /// # Panics
    ///
    /// Panics unless `ladder.len() == thresholds.len() + 1`, thresholds
    /// ascend, and `alpha` is in `(0, 1]`.
    #[must_use]
    pub fn new(ladder: Vec<EnergyMode>, thresholds: Vec<Watts>, alpha: f64) -> Self {
        assert_eq!(
            ladder.len(),
            thresholds.len() + 1,
            "need one ladder tier more than thresholds"
        );
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must ascend"
        );
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            ladder,
            thresholds,
            alpha,
            ewma: NvVar::new(None),
        }
    }

    /// The committed average harvest power, if a sample has been folded
    /// in.
    #[must_use]
    pub fn average(&self) -> Option<Watts> {
        self.ewma.committed().map(Watts::new)
    }
}

impl ReconfigPolicy for EwmaAdaptive {
    fn name(&self) -> &'static str {
        "ewma-adaptive"
    }

    fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        let sample = obs.harvest_power().get();
        let ewma = match self.ewma.get() {
            Some(prev) => self.alpha * sample + (1.0 - self.alpha) * prev,
            None => sample,
        };
        self.ewma.set(Some(ewma));
        let mut tier = 0;
        for (i, threshold) in self.thresholds.iter().enumerate() {
            if ewma >= threshold.get() {
                tier = i + 1;
            }
        }
        override_capacity(annotation, self.ladder[tier])
    }

    fn commit(&mut self) {
        self.ewma.commit();
    }

    fn abort(&mut self) {
        self.ewma.abort();
    }

    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(self.clone())
    }

    fn steady_state(&self, c: &mut Cycle<'_>) -> bool {
        let Self {
            ladder: _,
            thresholds: _,
            alpha: _,
            ewma,
        } = self;
        ewma.cycle_words(c, |&e, c| match e {
            Some(avg) => {
                c.word(1);
                c.bits(avg);
            }
            None => c.word(0),
        });
        true
    }
}

/// Replays a recorded decision sequence — the per-trace upper bound.
///
/// Computed offline by [`oracle_offline`]: every candidate policy runs
/// once over the same trace with its decisions recorded; the oracle
/// replays the winner's sequence through a non-volatile cursor. Because
/// the simulator is deterministic, the replay reproduces the winning run
/// exactly, so on the recorded trace the oracle's score equals the best
/// candidate's — an upper bound on all of them by construction. Past the
/// recorded sequence (or on any other trace) it degrades to the static
/// annotation.
#[derive(Debug, Clone)]
pub struct Oracle {
    decisions: Arc<[TaskEnergy]>,
    cursor: NvVar<usize>,
    source: Arc<str>,
}

impl Oracle {
    /// An oracle replaying `decisions`; `source` names the recorded
    /// candidate (for reports).
    #[must_use]
    pub fn new(decisions: Vec<TaskEnergy>, source: impl Into<String>) -> Self {
        Self {
            decisions: decisions.into(),
            cursor: NvVar::new(0),
            source: source.into().into(),
        }
    }

    /// The label of the candidate whose decisions are being replayed.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// How many recorded decisions the oracle holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when no decisions were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

impl ReconfigPolicy for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, _obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        let i = self.cursor.get();
        self.cursor.set(i + 1);
        self.decisions.get(i).copied().unwrap_or(annotation)
    }

    fn commit(&mut self) {
        self.cursor.commit();
    }

    fn abort(&mut self) {
        self.cursor.abort();
    }

    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(self.clone())
    }
}

/// Wraps a policy and records every *committed* decision — the first
/// pass of the oracle computation. Staged decisions dropped by an abort
/// are not recorded, mirroring the non-volatile discipline.
pub struct Recorder<P> {
    inner: P,
    staged: Vec<TaskEnergy>,
    log: Arc<Mutex<Vec<TaskEnergy>>>,
}

/// A handle onto a [`Recorder`]'s committed-decision log that outlives
/// the simulator owning the recorder.
#[derive(Debug, Clone)]
pub struct DecisionLog(Arc<Mutex<Vec<TaskEnergy>>>);

impl DecisionLog {
    /// A copy of the committed decisions so far, in decision order.
    #[must_use]
    pub fn decisions(&self) -> Vec<TaskEnergy> {
        self.0.lock().expect("no panics while recording").clone()
    }
}

impl<P: ReconfigPolicy> Recorder<P> {
    /// Wraps `inner`, returning the recorder and the log handle.
    #[must_use]
    pub fn new(inner: P) -> (Self, DecisionLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                staged: Vec::new(),
                log: Arc::clone(&log),
            },
            DecisionLog(log),
        )
    }
}

impl<P: ReconfigPolicy> ReconfigPolicy for Recorder<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &PolicyObservation<'_>, annotation: TaskEnergy) -> TaskEnergy {
        let decision = self.inner.decide(obs, annotation);
        self.staged.push(decision);
        decision
    }

    fn commit(&mut self) {
        self.inner.commit();
        self.log
            .lock()
            .expect("no panics while recording")
            .append(&mut self.staged);
    }

    fn abort(&mut self) {
        self.inner.abort();
        self.staged.clear();
    }

    /// The clone keeps writing into the *same* [`DecisionLog`] as the
    /// original: the log is an observer channel that never feeds back
    /// into decisions, so sharing it cannot perturb determinism, and a
    /// restored snapshot keeps recording where the original would have.
    fn clone_box(&self) -> Box<dyn ReconfigPolicy> {
        Box::new(Recorder {
            inner: self.inner.clone_box(),
            staged: self.staged.clone(),
            log: Arc::clone(&self.log),
        })
    }
}

/// The outcome of the oracle's offline first pass.
#[derive(Debug)]
pub struct OracleReport {
    /// The oracle replaying the winning candidate's decisions.
    pub oracle: Oracle,
    /// Index of the winning candidate.
    pub winner: usize,
    /// Every candidate's `(label, score)`, in candidate order.
    pub scores: Vec<(String, f64)>,
}

/// Computes an [`Oracle`] offline: runs every candidate policy once over
/// the same deterministic setup (`build` must construct an identical
/// simulator each call, differing only in the installed policy), scores
/// each finished run, and returns an oracle replaying the decisions of
/// the highest-scoring candidate (ties favor the earlier candidate).
///
/// # Panics
///
/// Panics when `candidates` is empty.
pub fn oracle_offline<H, C, B, S>(
    candidates: Vec<(String, Box<dyn ReconfigPolicy>)>,
    horizon: SimTime,
    build: B,
    score: S,
) -> OracleReport
where
    H: Harvester,
    C: SimContext,
    B: Fn(Box<dyn ReconfigPolicy>) -> Simulator<H, C>,
    S: Fn(&Simulator<H, C>) -> f64,
{
    assert!(
        !candidates.is_empty(),
        "oracle needs at least one candidate"
    );
    let mut scores = Vec::new();
    let mut best: Option<(usize, f64, DecisionLog)> = None;
    for (i, (label, policy)) in candidates.into_iter().enumerate() {
        let (recorder, log) = Recorder::new(policy);
        let mut sim = build(Box::new(recorder));
        sim.run_until(horizon);
        let s = score(&sim);
        scores.push((label, s));
        if best.as_ref().is_none_or(|(_, top, _)| s > *top) {
            best = Some((i, s, log));
        }
    }
    let (winner, _, log) = best.expect("candidates is non-empty");
    OracleReport {
        oracle: Oracle::new(log.decisions(), scores[winner].0.clone()),
        winner,
        scores,
    }
}

/// A policy factory usable from sweep worker threads: builds a fresh
/// policy for one run of the grid, given the run's scenario index (so
/// per-scenario policies such as a precomputed oracle can select the
/// right instance).
pub type PolicyFactory = Arc<dyn Fn(usize) -> Box<dyn ReconfigPolicy> + Send + Sync>;

/// A labeled policy column of the comparison grid.
#[derive(Clone)]
pub struct NamedPolicy {
    /// Row label in reports.
    pub label: &'static str,
    factory: PolicyFactory,
}

impl NamedPolicy {
    /// Names a policy built fresh for every run by `factory`, which
    /// receives the run's scenario index.
    #[must_use]
    pub fn new(
        label: &'static str,
        factory: impl Fn(usize) -> Box<dyn ReconfigPolicy> + Send + Sync + 'static,
    ) -> Self {
        Self {
            label,
            factory: Arc::new(factory),
        }
    }

    /// Builds a fresh policy instance for a run on scenario `scenario`.
    #[must_use]
    pub fn instantiate(&self, scenario: usize) -> Box<dyn ReconfigPolicy> {
        (self.factory)(scenario)
    }
}

impl core::fmt::Debug for NamedPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NamedPolicy")
            .field("label", &self.label)
            .finish()
    }
}

impl AxisValue for NamedPolicy {
    fn axis_label(&self) -> String {
        self.label.to_string()
    }
}

/// A labeled column of a comparison grid: the typed value the runner
/// hands to every cell of the column — an input-power level, a tracker
/// trace, a fleet's [`SharedEnvironment`] — plus an optional horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario<T> {
    /// Column label in reports.
    pub label: String,
    /// The scenario itself, passed to the grid's build function.
    pub value: T,
    /// Per-scenario horizon for every run of this column. `None` runs
    /// the column to the grid-wide horizon.
    pub horizon: Option<SimTime>,
}

impl<T> Scenario<T> {
    /// Names a scenario carrying `value`.
    #[must_use]
    pub fn new(label: impl Into<String>, value: T) -> Self {
        Self {
            label: label.into(),
            value,
            horizon: None,
        }
    }

    /// Runs this scenario's column to its own horizon instead of the
    /// sweep-wide one — for grids whose scenarios have different
    /// mission lengths (e.g. jittered harvest traces).
    #[must_use]
    pub fn at_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }
}

impl<T: Clone + Send + Sync + 'static> AxisValue for Scenario<T> {
    fn axis_label(&self) -> String {
        self.label.clone()
    }
}

/// Per-policy deltas of the observability record against a baseline
/// policy on the same scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDelta {
    /// Event completions gained (positive = policy beats baseline).
    pub completions: i64,
    /// Additional simulated seconds spent charging.
    pub charge_time: f64,
    /// Change in mean charge-pause duration (seconds) — the reactivity
    /// delta: shorter pauses mean the device is back sooner.
    pub mean_charge_time: f64,
    /// Additional power failures.
    pub power_failures: i64,
}

/// The result of a {policy × scenario} comparison sweep: the underlying
/// [`SweepReport`] (policy-major point order) plus typed accessors.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// The sweep report; point `p * scenarios + s` holds policy `p` on
    /// scenario `s`.
    pub report: SweepReport,
    /// Policy labels, in row order.
    pub policies: Vec<&'static str>,
    /// Scenario labels, in column order.
    pub scenarios: Vec<String>,
}

impl PolicyComparison {
    fn idx(&self, policy: usize, scenario: usize) -> usize {
        policy * self.scenarios.len() + scenario
    }

    /// The run summary of `policy` on `scenario`.
    #[must_use]
    pub fn summary(&self, policy: usize, scenario: usize) -> &RunSummary {
        &self.report.runs[self.idx(policy, scenario)].summary
    }

    /// Event completions of `policy` on `scenario`.
    #[must_use]
    pub fn completions(&self, policy: usize, scenario: usize) -> u64 {
        self.summary(policy, scenario).completions
    }

    /// The policy with the most completions on `scenario` (ties favor
    /// the earlier row).
    #[must_use]
    pub fn best_policy(&self, scenario: usize) -> usize {
        (0..self.policies.len())
            .max_by(|&a, &b| {
                self.completions(a, scenario)
                    .cmp(&self.completions(b, scenario))
                    .then(b.cmp(&a))
            })
            .unwrap_or(0)
    }

    /// [`RunSummary`] deltas of `policy` against `baseline` on
    /// `scenario`.
    #[must_use]
    pub fn delta(&self, policy: usize, baseline: usize, scenario: usize) -> PolicyDelta {
        let p = self.summary(policy, scenario);
        let b = self.summary(baseline, scenario);
        #[allow(clippy::cast_possible_wrap)]
        PolicyDelta {
            completions: p.completions as i64 - b.completions as i64,
            charge_time: p.charge_time.as_secs_f64() - b.charge_time.as_secs_f64(),
            mean_charge_time: p.mean_charge_time().as_secs_f64()
                - b.mean_charge_time().as_secs_f64(),
            power_failures: p.power_failures as i64 - b.power_failures as i64,
        }
    }
}

/// Runs the {policy × scenario} grid on the parallel sweep engine with
/// `workers` threads (`0` = every core). `build` receives the
/// scenario's value and a fresh policy instance and returns the
/// simulator; the engine runs it to the scenario's horizon when set
/// ([`Scenario::at_horizon`]), else to `horizon`.
pub fn run_policy_sweep_on<T, H, C, F>(
    name: &'static str,
    horizon: SimTime,
    base_seed: u64,
    policies: &[NamedPolicy],
    scenarios: &[Scenario<T>],
    workers: usize,
    build: F,
) -> PolicyComparison
where
    T: Clone + Send + Sync + 'static,
    H: Harvester,
    C: SimContext,
    F: Fn(&T, Box<dyn ReconfigPolicy>) -> Simulator<H, C> + Sync,
{
    // The grid needs custom "{policy}/{scenario}" labels and
    // per-scenario horizons, so the points are laid out explicitly on
    // axes declared on the side.
    let mut spec = SweepSpec::new(name, horizon)
        .base_seed(base_seed)
        .declare_axis("policy", policies)
        .declare_axis("scenario", scenarios);
    for (pi, policy) in policies.iter().enumerate() {
        for (si, scenario) in scenarios.iter().enumerate() {
            let indices = [("policy", pi), ("scenario", si)];
            let label = format!("{}/{}", policy.label, scenario.label);
            spec = match scenario.horizon {
                Some(h) => spec.point_at(label, &indices, h),
                None => spec.point(label, &indices),
            };
        }
    }
    let (report, _) = run_sweep_on(
        &spec,
        workers,
        |point| {
            let policy = &policies[point.expect_axis_index("policy")];
            let si = point.expect_axis_index("scenario");
            build(&scenarios[si].value, policy.instantiate(si))
        },
        |_, _| (),
    );
    PolicyComparison {
        report,
        policies: policies.iter().map(|p| p.label).collect(),
        scenarios: scenarios.iter().map(|s| s.label.clone()).collect(),
    }
}

/// The result of a fleet-wide {policy × scenario} comparison: one full
/// [`FleetReport`] per grid cell (policy-major), ranked by **fleet**
/// metrics — dead devices, committed completions, availability — not
/// per-device summaries.
#[derive(Debug, Clone)]
pub struct FleetPolicyComparison {
    /// Cell `p * scenarios + s` holds policy `p` on scenario `s`.
    pub fleets: Vec<FleetReport>,
    /// Policy labels, in row order.
    pub policies: Vec<&'static str>,
    /// Scenario labels, in column order.
    pub scenarios: Vec<String>,
}

impl FleetPolicyComparison {
    fn idx(&self, policy: usize, scenario: usize) -> usize {
        policy * self.scenarios.len() + scenario
    }

    /// The fleet report of `policy` on `scenario`.
    #[must_use]
    pub fn fleet(&self, policy: usize, scenario: usize) -> &FleetReport {
        &self.fleets[self.idx(policy, scenario)]
    }

    /// Fleet-wide ordering of two policies on `scenario` — all-integer
    /// so the verdict is exact: fewer dead devices wins, then more
    /// committed completions, then higher availability (compared by
    /// cross-multiplied integer µs totals, in 256 bits so no fleet size
    /// or horizon overflows them).
    #[must_use]
    pub fn compare(&self, a: usize, b: usize, scenario: usize) -> core::cmp::Ordering {
        let x = &self.fleet(a, scenario).acc;
        let y = &self.fleet(b, scenario).acc;
        y.dead_devices
            .cmp(&x.dead_devices)
            .then(x.completions.cmp(&y.completions))
            .then(
                // availability(x) > availability(y)
                //   ⇔ charge_x/end_x < charge_y/end_y
                //   ⇔ charge_y·end_x > charge_x·end_y
                wide_mul(y.charge_micros, x.end_micros)
                    .cmp(&wide_mul(x.charge_micros, y.end_micros)),
            )
    }

    /// The policy that wins fleet-wide on `scenario` (ties favor the
    /// earlier row).
    #[must_use]
    pub fn best_policy(&self, scenario: usize) -> usize {
        (0..self.policies.len())
            .max_by(|&a, &b| self.compare(a, b, scenario).then(b.cmp(&a)))
            .unwrap_or(0)
    }

    /// Every policy index, best first, on `scenario`.
    #[must_use]
    pub fn ranking(&self, scenario: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.policies.len()).collect();
        order.sort_by(|&a, &b| self.compare(a, b, scenario).reverse().then(a.cmp(&b)));
        order
    }
}

/// The exact 256-bit product `a·b` as its `(high, low)` 128-bit halves,
/// built from 64-bit halves, so two products compare as their tuples.
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LOW);
    let (b1, b0) = (b >> 64, b & LOW);
    let (p00, p01, p10, p11) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    // The 64-bit column: under 3·2⁶⁴, so it carries at most 2 upward.
    let mid = (p00 >> 64) + (p01 & LOW) + (p10 & LOW);
    let low = (mid << 64) | (p00 & LOW);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

/// Runs the fleet-wide {policy × scenario} grid: every cell installs
/// one scenario's [`SharedEnvironment`] on `base` and runs the **whole
/// fleet** under one policy, sharded on the sweep engine with `workers`
/// threads, `0` = every core ([`run_fleet_on`] — each cell's report is
/// bit-identical for any worker count, so the comparison is too). The
/// cells themselves run serially; parallelism lives inside each fleet.
///
/// `device_fn` simulates one device: it receives the device point, the
/// cell's fully-resolved [`FleetSpec`] (environment and horizon already
/// installed), and a fresh policy instance.
///
/// Every cell derives its devices from the same `base` seed, so the
/// comparison is paired: policy A and policy B meet exactly the same
/// device population under exactly the same environment.
pub fn run_fleet_policy_sweep_on<F>(
    base: &FleetSpec,
    policies: &[NamedPolicy],
    scenarios: &[Scenario<SharedEnvironment>],
    workers: usize,
    device_fn: F,
) -> FleetPolicyComparison
where
    F: Fn(&DevicePoint, &FleetSpec, Box<dyn ReconfigPolicy>) -> DeviceOutcome + Sync,
{
    let mut fleets = Vec::with_capacity(policies.len() * scenarios.len());
    for policy in policies {
        for (si, scenario) in scenarios.iter().enumerate() {
            let spec = base
                .clone()
                .environment(scenario.value.clone())
                .at_horizon(scenario.horizon.unwrap_or_else(|| base.horizon()));
            fleets.push(run_fleet_on(&spec, workers, |point| {
                device_fn(point, &spec, policy.instantiate(si))
            }));
        }
    }
    FleetPolicyComparison {
        fleets,
        policies: policies.iter().map(|p| p.label).collect(),
        scenarios: scenarios.iter().map(|s| s.label.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimEvent;
    use crate::variant::Variant;
    use capy_device::load::TaskLoad;
    use capy_device::mcu::Mcu;
    use capy_intermittent::nv::NvState;
    use capy_intermittent::task::Transition;
    use capy_power::bank::{Bank, BankId};
    use capy_power::harvester::ConstantHarvester;
    use capy_power::switch::SwitchKind;
    use capy_power::system::PowerSystem;
    use capy_power::technology::parts;

    const M0: EnergyMode = EnergyMode(0);
    const M1: EnergyMode = EnergyMode(1);

    /// Fixed readings: a 2.0 V rail under a 2.8 V ceiling, harvesting
    /// the given power.
    struct FixedRail(Watts);

    /// A weak 100 µW source.
    const WEAK: FixedRail = FixedRail(Watts::new(100e-6));

    impl RailProbe for FixedRail {
        fn rail_voltage(&self, _now: SimTime) -> Volts {
            Volts::new(2.0)
        }
        fn full_voltage(&self, _now: SimTime) -> Volts {
            Volts::new(2.8)
        }
        fn harvest_power(&self, _now: SimTime) -> Watts {
            self.0
        }
    }

    fn obs<'a>(
        state: &'a RuntimeState,
        pauses: &'a [SimDuration],
        rail: &'a FixedRail,
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            now: SimTime::from_secs(1),
            task: TaskId(0),
            needs_charge: false,
            state,
            pauses,
            rail,
            mode_count: 2,
            failed_banks: state.failed_banks().len(),
        }
    }

    fn pause(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn static_annotation_is_identity() {
        let state = RuntimeState::new(2);
        let mut p = StaticAnnotation;
        for a in [
            TaskEnergy::Unannotated,
            TaskEnergy::Config(M1),
            TaskEnergy::Burst(M1),
            TaskEnergy::Preburst {
                burst: M1,
                exec: M0,
            },
        ] {
            assert_eq!(p.decide(&obs(&state, &[], &WEAK), a), a);
        }
        p.commit();
        p.abort();
    }

    #[test]
    fn pinned_overrides_capacity_annotations_only() {
        let state = RuntimeState::new(2);
        let mut p = Pinned::new(M1);
        let o = obs(&state, &[], &WEAK);
        assert_eq!(
            p.decide(&o, TaskEnergy::Unannotated),
            TaskEnergy::Config(M1)
        );
        assert_eq!(p.decide(&o, TaskEnergy::Config(M0)), TaskEnergy::Config(M1));
        assert_eq!(p.decide(&o, TaskEnergy::Burst(M0)), TaskEnergy::Burst(M0));
        assert_eq!(
            p.decide(
                &o,
                TaskEnergy::Preburst {
                    burst: M1,
                    exec: M0
                }
            ),
            TaskEnergy::Preburst {
                burst: M1,
                exec: M0
            }
        );
    }

    #[test]
    fn reactive_downsizes_on_slow_charge_and_recovers() {
        let state = RuntimeState::new(2);
        let mut p = ReactiveDownsize::new(vec![M0, M1], SimDuration::from_secs(10));
        assert_eq!(p.tier(), 1, "starts at the top tier");

        // A slow on-path charge sheds a tier.
        let d = p.decide(&obs(&state, &[pause(60)], &WEAK), TaskEnergy::Config(M1));
        p.commit();
        assert_eq!(d, TaskEnergy::Config(M0));
        assert_eq!(p.tier(), 0);

        // Seven fast charges hold the tier; the eighth regrows it.
        let fast = [pause(1); 8];
        let d = p.decide(&obs(&state, &fast[..7], &WEAK), TaskEnergy::Config(M1));
        p.commit();
        assert_eq!(d, TaskEnergy::Config(M0));
        let d = p.decide(&obs(&state, &fast[7..], &WEAK), TaskEnergy::Config(M1));
        p.commit();
        assert_eq!(d, TaskEnergy::Config(M1));
        assert_eq!(p.tier(), 1);
    }

    #[test]
    fn reactive_abort_rolls_the_decision_back() {
        let state = RuntimeState::new(2);
        let mut p = ReactiveDownsize::new(vec![M0, M1], SimDuration::from_secs(10));
        let pauses = [pause(60)];
        let first = p.decide(&obs(&state, &pauses, &WEAK), TaskEnergy::Config(M1));
        p.abort(); // power failed before the decision took effect
        assert_eq!(p.tier(), 1, "aborted decision must not publish");
        // Re-deciding from the same observation reproduces the decision.
        let second = p.decide(&obs(&state, &pauses, &WEAK), TaskEnergy::Config(M1));
        assert_eq!(first, second);
    }

    #[test]
    fn ewma_tracks_harvest_and_picks_tier() {
        let state = RuntimeState::new(2);
        let mut p = EwmaAdaptive::new(vec![M0, M1], vec![Watts::from_micro(1_000.0)], 0.5);
        // Weak harvest: smallest tier.
        let d = p.decide(&obs(&state, &[], &WEAK), TaskEnergy::Unannotated);
        p.commit();
        assert_eq!(d, TaskEnergy::Config(M0));
        // Strong harvest pulls the average over the threshold.
        let mut last = d;
        for _ in 0..8 {
            last = p.decide(
                &obs(&state, &[], &FixedRail(Watts::from_micro(10_000.0))),
                TaskEnergy::Unannotated,
            );
            p.commit();
        }
        assert_eq!(last, TaskEnergy::Config(M1));
        assert!(p.average().expect("seeded").get() > 1e-3);
    }

    #[test]
    fn ewma_abort_discards_the_sample() {
        let state = RuntimeState::new(2);
        let mut p = EwmaAdaptive::new(vec![M0, M1], vec![Watts::from_micro(1_000.0)], 0.5);
        let _ = p.decide(
            &obs(&state, &[], &FixedRail(Watts::from_micro(50_000.0))),
            TaskEnergy::Unannotated,
        );
        p.abort();
        assert_eq!(p.average(), None, "aborted sample must not publish");
    }

    #[test]
    fn oracle_replays_then_falls_back() {
        let state = RuntimeState::new(2);
        let mut o = Oracle::new(vec![TaskEnergy::Config(M1), TaskEnergy::Config(M0)], "best");
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
        assert_eq!(o.source(), "best");
        let ob = obs(&state, &[], &WEAK);
        assert_eq!(
            o.decide(&ob, TaskEnergy::Unannotated),
            TaskEnergy::Config(M1)
        );
        o.commit();
        assert_eq!(
            o.decide(&ob, TaskEnergy::Unannotated),
            TaskEnergy::Config(M0)
        );
        o.commit();
        // Replay exhausted: the static annotation is final again.
        assert_eq!(
            o.decide(&ob, TaskEnergy::Unannotated),
            TaskEnergy::Unannotated
        );
    }

    #[test]
    fn oracle_cursor_survives_abort() {
        let state = RuntimeState::new(2);
        let mut o = Oracle::new(vec![TaskEnergy::Config(M1), TaskEnergy::Config(M0)], "best");
        let ob = obs(&state, &[], &WEAK);
        let first = o.decide(&ob, TaskEnergy::Unannotated);
        o.abort();
        // The un-committed cursor advance rolls back: same decision again.
        assert_eq!(o.decide(&ob, TaskEnergy::Unannotated), first);
    }

    #[test]
    fn recorder_logs_committed_decisions_only() {
        let state = RuntimeState::new(2);
        let (mut r, log) = Recorder::new(Pinned::new(M1));
        let ob = obs(&state, &[], &WEAK);
        let _ = r.decide(&ob, TaskEnergy::Unannotated);
        r.abort();
        assert!(
            log.decisions().is_empty(),
            "aborted decisions are not recorded"
        );
        let _ = r.decide(&ob, TaskEnergy::Unannotated);
        r.commit();
        assert_eq!(log.decisions(), vec![TaskEnergy::Config(M1)]);
        assert_eq!(r.name(), "pinned");
    }

    // --- end-to-end fixtures -------------------------------------------

    struct Ctx {
        n: NvVar<u64>,
    }

    impl NvState for Ctx {
        fn commit_all(&mut self) {
            self.n.commit();
        }
        fn abort_all(&mut self) {
            self.n.abort();
        }
    }

    impl SimContext for Ctx {
        fn set_now(&mut self, _now: SimTime) {}
    }

    fn sampler(
        harvest_uw: f64,
        policy: Option<Box<dyn ReconfigPolicy>>,
    ) -> Simulator<ConstantHarvester, Ctx> {
        let power = PowerSystem::builder()
            .harvester(ConstantHarvester::new(
                Watts::from_micro(harvest_uw),
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
            .build();
        let builder = Simulator::builder(Variant::CapyP, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(M0),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                |c: &mut Ctx| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            );
        let builder = match policy {
            Some(p) => builder.policy(p),
            None => builder,
        };
        builder.build(Ctx { n: NvVar::new(0) })
    }

    #[test]
    fn static_policy_reproduces_the_default_event_log_bit_for_bit() {
        let mut plain = sampler(2_000.0, None);
        let mut explicit = sampler(2_000.0, Some(Box::new(StaticAnnotation)));
        plain.run_until(SimTime::from_secs(30));
        explicit.run_until(SimTime::from_secs(30));
        assert_eq!(plain.events(), explicit.events());
        assert_eq!(plain.ctx().n.get(), explicit.ctx().n.get());
        assert_eq!(plain.exec_stats(), explicit.exec_stats());
    }

    #[test]
    fn pinned_policy_changes_the_executed_mode() {
        let mut pinned = sampler(2_000.0, Some(Box::new(Pinned::new(M1))));
        pinned.run_until(SimTime::from_secs(30));
        assert!(
            pinned.events().iter().any(|e| matches!(
                e,
                SimEvent::Reconfigure { mode, .. } if *mode == M1
            )),
            "pinned policy must steer the array to the big mode"
        );
        assert!(pinned.ctx().n.get() > 0);
    }

    /// A fleet of a million devices over a year that spent
    /// `charge_micros` µs charging in all.
    fn year_long_fleet(charge_micros: u128) -> FleetReport {
        const DEVICES: u64 = 1_000_000;
        let year = SimTime::from_secs(365 * 24 * 3600);
        let mut acc = crate::fleet::FleetAccumulator::new();
        acc.devices = DEVICES;
        acc.end_micros = u128::from(DEVICES) * u128::from(year.as_micros());
        acc.charge_micros = charge_micros;
        FleetReport {
            name: "year",
            devices: DEVICES,
            horizon: year,
            acc,
            workers: 1,
            wall: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn fleet_availability_verdict_is_exact_at_a_million_devices_over_a_year() {
        // ~3.15e19 µs in all; charging half of it, the cross product is
        // ~5.0e38, past u128::MAX.
        let end = year_long_fleet(0).acc.end_micros;
        let half = end / 2;
        assert!(half.checked_mul(end).is_none());
        let cmp = FleetPolicyComparison {
            fleets: [half, half - 1, half].map(year_long_fleet).to_vec(),
            policies: vec!["half", "one µs less", "half again"],
            scenarios: vec!["year".to_string()],
        };
        assert_eq!(cmp.compare(1, 0, 0), core::cmp::Ordering::Greater);
        assert_eq!(cmp.compare(0, 1, 0), core::cmp::Ordering::Less);
        assert_eq!(cmp.compare(0, 2, 0), core::cmp::Ordering::Equal);
        assert_eq!(cmp.best_policy(0), 1);
        assert_eq!(cmp.ranking(0), [1, 0, 2]);
    }

    #[test]
    fn wide_mul_is_the_exact_256_bit_product() {
        let max = u128::MAX;
        // (2¹²⁸ − 1)² = 2²⁵⁶ − 2¹²⁹ + 1.
        assert_eq!(wide_mul(max, max), (max - 1, 1));
        assert_eq!(wide_mul(max, 2), (1, max - 1));
        assert_eq!(wide_mul(1 << 64, 1 << 64), (1, 0));
        assert_eq!(wide_mul(12_345, 67_890), (0, 12_345 * 67_890));
        assert_eq!(wide_mul(0, max), (0, 0));
    }

    #[test]
    fn policy_sweep_is_identical_for_one_and_many_workers() {
        let policies = [
            NamedPolicy::new("static", |_| Box::new(StaticAnnotation)),
            NamedPolicy::new("pin-big", |_| Box::new(Pinned::new(M1))),
            NamedPolicy::new("reactive", |_| {
                Box::new(ReactiveDownsize::new(
                    vec![M0, M1],
                    SimDuration::from_secs(5),
                ))
            }),
            NamedPolicy::new("ewma", |_| {
                Box::new(EwmaAdaptive::new(
                    vec![M0, M1],
                    vec![Watts::from_micro(1_000.0)],
                    0.3,
                ))
            }),
        ];
        let scenarios = [
            Scenario::new("weak", 600.0),
            Scenario::new("strong", 8_000.0),
        ];
        let build =
            |&harvest_uw: &f64, policy: Box<dyn ReconfigPolicy>| sampler(harvest_uw, Some(policy));
        let horizon = SimTime::from_secs(20);
        let serial = run_policy_sweep_on("policy-det", horizon, 7, &policies, &scenarios, 1, build);
        let parallel =
            run_policy_sweep_on("policy-det", horizon, 7, &policies, &scenarios, 4, build);
        assert_eq!(serial.report, parallel.report);
        assert_eq!(serial.policies, parallel.policies);
        assert_eq!(serial.scenarios, parallel.scenarios);
        // Typed accessors address the policy-major grid.
        assert_eq!(serial.report.runs.len(), 8);
        let best = serial.best_policy(1);
        assert!(best < 4);
        let d = serial.delta(1, 0, 0);
        let direct = serial.completions(1, 0) as i64 - serial.completions(0, 0) as i64;
        assert_eq!(d.completions, direct);
    }

    #[test]
    fn oracle_offline_bounds_every_candidate_on_the_recorded_trace() {
        let horizon = SimTime::from_secs(25);
        let harvest = 2_000.0;
        let candidates: Vec<(String, Box<dyn ReconfigPolicy>)> = vec![
            ("pin-small".into(), Box::new(Pinned::new(M0))),
            ("pin-big".into(), Box::new(Pinned::new(M1))),
            (
                "ewma".into(),
                Box::new(EwmaAdaptive::new(
                    vec![M0, M1],
                    vec![Watts::from_micro(1_000.0)],
                    0.3,
                )),
            ),
        ];
        let report = oracle_offline(
            candidates,
            horizon,
            |p| sampler(harvest, Some(p)),
            |sim| sim.exec_stats().completions as f64,
        );
        assert_eq!(report.scores.len(), 3);
        let best = report
            .scores
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::MIN, f64::max);
        assert_eq!(report.scores[report.winner].1, best);
        assert_eq!(report.oracle.source(), report.scores[report.winner].0);

        // Replaying the oracle reproduces the winner's score exactly and
        // therefore bounds every candidate from above.
        let mut sim = sampler(harvest, Some(Box::new(report.oracle.clone())));
        sim.run_until(horizon);
        let oracle_score = sim.exec_stats().completions as f64;
        assert_eq!(oracle_score, best);
        for (label, s) in &report.scores {
            assert!(
                oracle_score >= *s,
                "oracle {oracle_score} must bound {label} ({s})"
            );
        }
    }
}

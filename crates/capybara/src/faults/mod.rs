//! Systematic fault injection: exhaustive power-kill exploration,
//! hardware fault models, and crash-consistency checking.
//!
//! Intermittent systems earn their correctness claims the hard way: a
//! power failure can land *anywhere*, and every landing must leave the
//! non-volatile state consistent (§4.3's commit-on-complete contract)
//! and the device able to make forward progress. This module turns that
//! obligation into a mechanical procedure with two pillars:
//!
//! * **[`FaultPlan`]** — a declarative schedule of hardware faults
//!   (stuck switches, premature latch decay, capacitor wear, cold-start
//!   brownout margins) armed onto a `PowerSystem` as first-class
//!   simulated physics, so experiments can ask "what does the mission
//!   look like when the big bank's switch dies at minute 30?".
//! * **[`explore_kill_grid`]** — the exhaustive kill-point explorer. A
//!   *record pass* runs the scenario once, collecting every task
//!   boundary plus every switch-latch decay deadline (±ε, the instants
//!   where reconfiguration state is most fragile) **and a
//!   [`SimSnapshot`] checkpoint at each boundary**. The *kill pass* then
//!   handles each grid point by restoring the nearest prior snapshot and
//!   stepping only the boundary gap to the kill instant — O(points ×
//!   boundary-gap) instead of the O(points × horizon) of replaying every
//!   prefix from t = 0 — before force-killing power with
//!   [`Simulator::inject_power_failure`] and letting the scenario
//!   recover to its horizon. Every resumed run is checked for a clean
//!   event log ([`validate_event_log`]), a caller-supplied application
//!   invariant, execution-statistics conservation, and Zeno-style
//!   livelock (reboot cycles that never complete a task). The
//!   replay-from-zero explorer survives as
//!   [`explore_kill_grid_replay`], the reference implementation the
//!   snapshot rebuild is gated against: both must produce bit-identical
//!   [`KillReport`]s (equality excludes the measured
//!   [`ExplorationStats`], exactly like `RunSummary::wall`).
//! * **[`fuzz`]** — seeded randomized kill/fault schedules beyond the
//!   exhaustive grid, including correlated multi-bank rail surges
//!   ([`FaultPlan::rail_surge`]); every case re-derives from
//!   `(master_seed, case_index)` alone, so any violation replays
//!   deterministically.
//!
//! # Kill granularity
//!
//! The simulator executes at *task grain*: one [`Simulator::step`] is
//! one task attempt with its surrounding runtime actions. A kill
//! requested at time `t` therefore lands at the first task boundary at
//! or after `t` — the same observable outcomes as a sub-task-grain kill,
//! because the execution model already charges a mid-task failure to the
//! whole attempt (the attempt aborts, non-volatile working state is
//! discarded). The grid is exhaustive over the *distinct observable kill
//! states*, not over continuous time.
//!
//! # Determinism
//!
//! The kill pass shards its grid across worker threads with
//! [`map_on`]; each kill re-simulates independently from the
//! scenario builder, so a [`KillReport`] is bit-identical for any worker
//! count.

use capy_power::bank::BankId;
use capy_power::harvester::Harvester;
use capy_power::lifetime::WearModel;
use capy_power::switch::SwitchFault;
use capy_power::system::{HardwareFault, PowerSystem};
use capy_units::{SimDuration, SimTime, Volts};

use crate::sim::{validate_event_log, SimContext, SimSnapshot, Simulator, StepResult};
use crate::sweep::{map_on, RunSummary};

pub mod fuzz;

/// A declarative schedule of hardware faults plus ambient degradation
/// models, armed onto a power system in one call.
///
/// # Examples
///
/// ```
/// use capybara::faults::FaultPlan;
/// use capy_power::bank::BankId;
/// use capy_power::lifetime::WearModel;
/// use capy_units::{SimTime, Volts};
///
/// let plan = FaultPlan::new()
///     .switch_stuck_open(SimTime::from_secs(1800), BankId(1))
///     .wear(WearModel::prototype())
///     .startup_margin(Volts::new(0.1));
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(SimTime, HardwareFault)>,
    wear: Option<WearModel>,
    startup_margin: Option<Volts>,
}

impl FaultPlan {
    /// An empty plan: no faults, no wear, no brownout margin.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` to strike at `at` (applied by the first power
    /// operation whose physics reach that instant).
    #[must_use]
    pub fn fault_at(mut self, at: SimTime, fault: HardwareFault) -> Self {
        self.faults.push((at, fault));
        self
    }

    /// Schedules `bank`'s switch channel to stop conducting at `at`: the
    /// bank is disconnected permanently, regardless of commands.
    #[must_use]
    pub fn switch_stuck_open(self, at: SimTime, bank: BankId) -> Self {
        self.fault_at(
            at,
            HardwareFault::Switch {
                bank,
                fault: SwitchFault::StuckOpen,
            },
        )
    }

    /// Schedules `bank`'s switch channel to short at `at`: the bank is
    /// connected permanently, regardless of commands.
    #[must_use]
    pub fn switch_stuck_closed(self, at: SimTime, bank: BankId) -> Self {
        self.fault_at(
            at,
            HardwareFault::Switch {
                bank,
                fault: SwitchFault::StuckClosed,
            },
        )
    }

    /// Schedules `bank`'s latch capacitor to start leaking `factor`×
    /// faster than rated at `at` (premature latch decay).
    #[must_use]
    pub fn weak_latch(self, at: SimTime, bank: BankId, factor: f64) -> Self {
        self.fault_at(
            at,
            HardwareFault::Switch {
                bank,
                fault: SwitchFault::WeakLatch { factor },
            },
        )
    }

    /// Schedules `bank`'s capacitors to degrade at `at`: capacitance
    /// drops to `cap_derate ×` nominal and ESR grows by `esr_scale ×`
    /// (a dead bank is `cap_derate = 0.0`).
    #[must_use]
    pub fn bank_degraded(self, at: SimTime, bank: BankId, cap_derate: f64, esr_scale: f64) -> Self {
        self.fault_at(
            at,
            HardwareFault::BankDegraded {
                bank,
                cap_derate,
                esr_scale,
            },
        )
    }

    /// Schedules a correlated shared-rail surge at `at`: one transient
    /// strikes every bank in `banks` at the same instant, applying
    /// `effect` to each. Models the common-cause failures a per-bank
    /// fault schedule cannot express — a voltage spike on the shared
    /// power rail welds several latch switches shut (or burns them
    /// open), or an over-voltage event derates several banks' capacitors
    /// at once.
    #[must_use]
    pub fn rail_surge(mut self, at: SimTime, banks: &[BankId], effect: SurgeEffect) -> Self {
        for &bank in banks {
            let fault = match effect {
                SurgeEffect::StickClosed => HardwareFault::Switch {
                    bank,
                    fault: SwitchFault::StuckClosed,
                },
                SurgeEffect::StickOpen => HardwareFault::Switch {
                    bank,
                    fault: SwitchFault::StuckOpen,
                },
                SurgeEffect::Derate {
                    cap_derate,
                    esr_scale,
                } => HardwareFault::BankDegraded {
                    bank,
                    cap_derate,
                    esr_scale,
                },
            };
            self.faults.push((at, fault));
        }
        self
    }

    /// Installs a wear model: every bank continuously derates with its
    /// accumulated deep cycles (ESR drift and capacitance fade from the
    /// [`capy_power::lifetime`] accounting).
    #[must_use]
    pub fn wear(mut self, model: WearModel) -> Self {
        self.wear = Some(model);
        self
    }

    /// Raises the cold-start supervisor's required margin above the
    /// booster's startup voltage — a brownout-prone supply that refuses
    /// marginal boots.
    #[must_use]
    pub fn startup_margin(mut self, margin: Volts) -> Self {
        self.startup_margin = Some(margin);
        self
    }

    /// Number of scheduled discrete faults (wear and margin excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the plan schedules no discrete faults and installs
    /// neither wear nor a startup margin.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.wear.is_none() && self.startup_margin.is_none()
    }

    /// Arms the whole plan onto `power`: discrete faults are scheduled
    /// as simulated physics, the wear model and startup margin are
    /// installed immediately.
    pub fn apply<H: Harvester>(&self, power: &mut PowerSystem<H>) {
        for &(at, fault) in &self.faults {
            power.schedule_fault(at, fault);
        }
        if let Some(model) = self.wear {
            power.set_wear_model(Some(model));
        }
        if let Some(margin) = self.startup_margin {
            power.set_startup_margin(margin);
        }
    }

    /// [`FaultPlan::apply`] for an already-built simulator.
    pub fn arm<H: Harvester, C: SimContext>(&self, sim: &mut Simulator<H, C>) {
        self.apply(sim.power_mut());
    }
}

/// What one shared-rail surge does to every bank it strikes (see
/// [`FaultPlan::rail_surge`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurgeEffect {
    /// Every struck switch latches permanently closed (welded contacts).
    StickClosed,
    /// Every struck switch latches permanently open (burned-out driver).
    StickOpen,
    /// Every struck bank's capacitors degrade in one step.
    Derate {
        /// Remaining capacitance as a fraction of nominal.
        cap_derate: f64,
        /// ESR growth factor.
        esr_scale: f64,
    },
}

/// Tuning knobs of the kill-grid explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillGridOptions {
    /// Take every `stride`-th point of the recorded grid (subsampling
    /// for smoke runs; `1` = exhaustive).
    pub stride: usize,
    /// Cap the subsampled grid at this many points, spread evenly over
    /// the recorded range.
    pub max_points: Option<usize>,
    /// Extra kill instants straddling each switch-latch decay deadline:
    /// the grid gains `deadline − ε` and `deadline + ε`.
    pub epsilon: SimDuration,
    /// Livelock threshold: a resumed run that reboots at least this many
    /// times after the kill without completing a single task is flagged
    /// as a Zeno violation.
    pub zeno_boot_limit: u64,
    /// Worker threads for the kill pass; `0` = every core, resolved by
    /// the sweep engine ([`map_on`]).
    pub workers: usize,
    /// Checkpoint every `snapshot_stride`-th task boundary during the
    /// record pass (`1` = every boundary). Larger strides bound snapshot
    /// memory on very long scenarios; a kill point between checkpoints
    /// simply re-steps the skipped boundaries from the nearest prior
    /// snapshot, so the report is identical for any stride.
    pub snapshot_stride: usize,
}

impl Default for KillGridOptions {
    fn default() -> Self {
        Self {
            stride: 1,
            max_points: None,
            epsilon: SimDuration::from_millis(1),
            zeno_boot_limit: 64,
            workers: 0,
            snapshot_stride: 1,
        }
    }
}

impl KillGridOptions {
    /// Subsampled options for CI smoke runs: every `stride`-th point,
    /// capped at `max_points`.
    #[must_use]
    pub fn smoke(stride: usize, max_points: usize) -> Self {
        Self {
            stride: stride.max(1),
            max_points: Some(max_points),
            ..Self::default()
        }
    }
}

/// One kill experiment: where the power died and what the resumed run
/// looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct KillOutcome {
    /// The requested kill instant (the effective kill lands at the first
    /// task boundary at or after it).
    pub kill_at: SimTime,
    /// The resumed run's full observability record.
    pub summary: RunSummary,
    /// The first violated check, if any: an event-log inconsistency, a
    /// broken application invariant, a stall, or a Zeno livelock.
    pub violation: Option<String>,
}

/// Simulated-time cost accounting for one exploration pass — how many
/// simulated seconds the explorer actually had to step. Measured
/// telemetry, **excluded from [`KillReport`] equality** (exactly like
/// `RunSummary::wall`): the snapshot-based and replay-based explorers
/// produce equal reports with very different stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorationStats {
    /// Simulated time stepped by the record pass (one full scenario).
    pub record_sim: SimDuration,
    /// Simulated time stepped to *reach* each kill point — the prefix
    /// cost. Replay-from-zero pays the full `Σ kill_at`; snapshot resume
    /// pays only the boundary gaps.
    pub prefix_sim: SimDuration,
    /// Simulated time stepped from each kill to the horizon (the
    /// recovery suffix — identical work for both explorers).
    pub resumed_sim: SimDuration,
    /// Snapshots captured by the record pass.
    pub snapshots: usize,
}

impl ExplorationStats {
    /// The stepping the snapshot rebuild optimizes: record pass plus
    /// every kill-point prefix (the recovery suffix is excluded — both
    /// explorers must simulate it in full).
    #[must_use]
    pub fn stepped_sim(&self) -> SimDuration {
        self.record_sim.saturating_add(self.prefix_sim)
    }
}

/// The result of one [`explore_kill_grid`] exploration.
#[derive(Debug, Clone)]
pub struct KillReport {
    /// The fault-free run's record (the record pass).
    pub baseline: RunSummary,
    /// A violation in the *baseline* run (before any kill) — the
    /// scenario itself is broken when this is set.
    pub baseline_violation: Option<String>,
    /// Size of the full recorded grid before subsampling.
    pub grid_points: usize,
    /// Grid points the [`KillGridOptions`] stride/cap subsampling
    /// dropped without exploring. Always `grid_points - outcomes.len()`;
    /// recorded explicitly (and printed by [`KillReport::digest`]) so
    /// truncation is never silent — strict callers gate on
    /// [`KillReport::is_clean_strict`].
    pub dropped_points: usize,
    /// One outcome per explored kill point, in kill-time order.
    pub outcomes: Vec<KillOutcome>,
    /// Measured stepping cost of this exploration (excluded from
    /// equality).
    pub stats: ExplorationStats,
}

impl PartialEq for KillReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `stats`, which measures how the exploration
        // was executed rather than what it found.
        self.baseline == other.baseline
            && self.baseline_violation == other.baseline_violation
            && self.grid_points == other.grid_points
            && self.dropped_points == other.dropped_points
            && self.outcomes == other.outcomes
    }
}

impl KillReport {
    /// The outcomes whose post-kill checks failed.
    #[must_use]
    pub fn violations(&self) -> Vec<&KillOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.violation.is_some())
            .collect()
    }

    /// `true` when the baseline and every explored kill passed all
    /// checks.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.baseline_violation.is_none() && self.outcomes.iter().all(|o| o.violation.is_none())
    }

    /// Strict-mode cleanliness: [`KillReport::is_clean`] *and* no grid
    /// point was dropped by subsampling. Exhaustive gates (release CI,
    /// certification runs) use this so a silently truncated grid cannot
    /// masquerade as full coverage.
    #[must_use]
    pub fn is_clean_strict(&self) -> bool {
        self.is_clean() && self.dropped_points == 0
    }

    /// The strict-mode truncation complaint, if any: `Some` when
    /// subsampling dropped grid points, describing how many. Callers of
    /// [`KillReport::violations`] opt into strict mode by also failing
    /// on this.
    #[must_use]
    pub fn strict_violation(&self) -> Option<String> {
        (self.dropped_points > 0).then(|| {
            format!(
                "{} of {} grid points dropped by subsampling (stride/max_points)",
                self.dropped_points, self.grid_points
            )
        })
    }

    /// A one-line digest for logs: explored/dropped/total points and
    /// violation count.
    #[must_use]
    pub fn digest(&self) -> String {
        format!(
            "{} of {} kill points explored ({} dropped by subsampling), {} violations{}",
            self.outcomes.len(),
            self.grid_points,
            self.dropped_points,
            self.violations().len(),
            if self.baseline_violation.is_some() {
                " (baseline broken)"
            } else {
                ""
            }
        )
    }
}

/// Runs the record pass: steps `sim` to `horizon` collecting every task
/// boundary plus every finite switch-latch decay deadline ±`epsilon`,
/// clamped to `(0, horizon)`. Returns the sorted, deduplicated grid
/// plus — when `capture` is set — a [`SimSnapshot`] at t = 0 and after
/// every [`KillGridOptions::snapshot_stride`]-th task boundary, in time
/// order, for the kill pass to resume from.
fn record_timeline<H, C>(
    sim: &mut Simulator<H, C>,
    horizon: SimTime,
    options: &KillGridOptions,
    capture: bool,
) -> (Vec<SimTime>, Vec<SimSnapshot<H, C>>)
where
    H: Harvester + Clone,
    C: SimContext + Clone,
{
    let epsilon = options.epsilon;
    let stride = options.snapshot_stride.max(1);
    let mut snapshots = Vec::new();
    if capture {
        snapshots.push(sim.snapshot());
    }
    let mut grid = Vec::new();
    let mut push = |t: SimTime| {
        if t > SimTime::ZERO && t < horizon {
            grid.push(t);
        }
    };
    let mut boundaries = 0usize;
    while sim.now() < horizon {
        match sim.step() {
            StepResult::Progress => {}
            StepResult::Stopped | StepResult::Stalled { .. } => break,
        }
        push(sim.now());
        for i in 0..sim.power().bank_count() {
            let Ok(switch) = sim.power().switch(BankId(i)) else {
                continue;
            };
            let deadline = switch.decay_deadline();
            if deadline == SimTime::MAX {
                continue;
            }
            push(deadline.saturating_sub(epsilon));
            push(deadline.saturating_add(epsilon));
        }
        boundaries += 1;
        if capture && boundaries.is_multiple_of(stride) {
            snapshots.push(sim.snapshot());
        }
    }
    grid.sort_unstable();
    grid.dedup();
    (grid, snapshots)
}

/// Subsamples `grid` per `options`: every `stride`-th point, then an
/// even spread capped at `max_points`.
fn subsample(grid: &[SimTime], options: &KillGridOptions) -> Vec<SimTime> {
    let strided: Vec<SimTime> = grid
        .iter()
        .step_by(options.stride.max(1))
        .copied()
        .collect();
    match options.max_points {
        Some(cap) if cap > 0 && strided.len() > cap => {
            (0..cap).map(|i| strided[i * strided.len() / cap]).collect()
        }
        _ => strided,
    }
}

/// Exhaustively explores power kills over one deterministic scenario.
///
/// `build` constructs the scenario from scratch (same seed every time —
/// determinism is the caller's obligation and the explorer's leverage);
/// `invariant` checks application-level consistency on each resumed
/// simulator (return `Err` with a description to flag a violation).
///
/// The explorer:
///
/// 1. records the fault-free run's task boundaries and latch-decay
///    deadlines (±ε) as the kill grid, checking the baseline itself;
/// 2. re-runs the scenario once per (subsampled) grid point, killing
///    power at that instant and resuming to `horizon`;
/// 3. checks every resumed run: no stall, ordered and consistent event
///    log, `attempts == completions + failures` conservation, the
///    caller's invariant, and no Zeno livelock (≥
///    [`KillGridOptions::zeno_boot_limit`] post-kill reboots with zero
///    post-kill completions).
///
/// Work is sharded across `options.workers` threads; the report is
/// bit-identical for any worker count.
///
/// Each kill resumes from the nearest recorded snapshot *strictly
/// before* the kill instant (stepping only the boundary gap), so the
/// whole grid costs O(points × boundary-gap) simulated time. The
/// produced report is bit-identical to [`explore_kill_grid_replay`]'s —
/// only the measured [`KillReport::stats`] differ.
pub fn explore_kill_grid<H, C, B, V>(
    horizon: SimTime,
    options: &KillGridOptions,
    build: B,
    invariant: V,
) -> KillReport
where
    H: Harvester + Clone + Sync,
    C: SimContext + Clone + Sync,
    B: Fn() -> Simulator<H, C> + Sync,
    V: Fn(&Simulator<H, C>) -> Result<(), String> + Sync,
{
    explore(horizon, options, &build, &invariant, true)
}

/// The replay-from-zero reference explorer: identical record pass and
/// checks, but every kill point re-simulates its whole prefix from
/// t = 0 — O(points × horizon). Kept as the ground truth
/// [`explore_kill_grid`] is gated against; use it when auditing the
/// snapshot path itself, never for routine exploration.
pub fn explore_kill_grid_replay<H, C, B, V>(
    horizon: SimTime,
    options: &KillGridOptions,
    build: B,
    invariant: V,
) -> KillReport
where
    H: Harvester + Clone + Sync,
    C: SimContext + Clone + Sync,
    B: Fn() -> Simulator<H, C> + Sync,
    V: Fn(&Simulator<H, C>) -> Result<(), String> + Sync,
{
    explore(horizon, options, &build, &invariant, false)
}

fn explore<H, C, B, V>(
    horizon: SimTime,
    options: &KillGridOptions,
    build: &B,
    invariant: &V,
    use_snapshots: bool,
) -> KillReport
where
    H: Harvester + Clone + Sync,
    C: SimContext + Clone + Sync,
    B: Fn() -> Simulator<H, C> + Sync,
    V: Fn(&Simulator<H, C>) -> Result<(), String> + Sync,
{
    // Record pass: the fault-free timeline defines the kill grid and
    // must itself be clean.
    let mut recorder = build();
    let (grid, snapshots) = record_timeline(&mut recorder, horizon, options, use_snapshots);
    let record_sim = recorder.now().saturating_since(SimTime::ZERO);
    let baseline = RunSummary::from_sim(&recorder, std::time::Duration::ZERO);
    let baseline_violation = validate_event_log(recorder.events())
        .or_else(|| invariant(&recorder).err())
        .or_else(|| conservation_violation(&baseline));

    let selected = subsample(&grid, options);
    let dropped_points = grid.len() - selected.len();
    let results = map_on(&selected, options.workers, |&kill_at| {
        // The resume point is the last snapshot strictly before the
        // kill: a replay from zero passes through every boundary
        // < kill_at, so resuming from the latest of them (and stepping
        // the rest of the gap) reproduces the identical pre-kill state.
        // Strictness matters when a snapshot sits exactly at kill_at —
        // `run_until` stops at its first check with now >= kill_at, and
        // resuming *at* the kill would skip that check's side ordering.
        let resume = use_snapshots.then(|| {
            let idx = snapshots.partition_point(|s| s.now() < kill_at);
            &snapshots[idx - 1] // idx >= 1: the t=0 snapshot precedes every grid point
        });
        run_one_kill(build, invariant, kill_at, horizon, options, resume)
    });
    let mut stats = ExplorationStats {
        record_sim,
        snapshots: snapshots.len(),
        ..ExplorationStats::default()
    };
    let mut outcomes = Vec::with_capacity(results.len());
    for (outcome, prefix, resumed) in results {
        stats.prefix_sim = stats.prefix_sim.saturating_add(prefix);
        stats.resumed_sim = stats.resumed_sim.saturating_add(resumed);
        outcomes.push(outcome);
    }
    KillReport {
        baseline,
        baseline_violation,
        grid_points: grid.len(),
        dropped_points,
        outcomes,
        stats,
    }
}

/// One kill experiment: reach the kill point (from `resume` when given,
/// from scratch otherwise), cut power, resume to the horizon, check
/// everything. Also returns the simulated prefix (start → kill) and
/// suffix (kill → end) spans this experiment stepped.
fn run_one_kill<H, C, B, V>(
    build: &B,
    invariant: &V,
    kill_at: SimTime,
    horizon: SimTime,
    options: &KillGridOptions,
    resume: Option<&SimSnapshot<H, C>>,
) -> (KillOutcome, SimDuration, SimDuration)
where
    H: Harvester + Clone,
    C: SimContext + Clone,
    B: Fn() -> Simulator<H, C>,
    V: Fn(&Simulator<H, C>) -> Result<(), String>,
{
    let mut sim = build();
    if let Some(snap) = resume {
        sim.restore(snap);
    }
    let start = sim.now();
    let pre = sim.run_until(kill_at);
    let landed = sim.now();
    let mut violation = match pre {
        StepResult::Stalled { steps } => Some(format!(
            "stalled before the kill at {kill_at} ({steps} stuck steps)"
        )),
        StepResult::Progress | StepResult::Stopped => None,
    };
    let stats_at_kill = sim.exec_stats();
    if violation.is_none() && pre == StepResult::Progress {
        sim.inject_power_failure();
        let resumed = sim.run_until(horizon);
        if let StepResult::Stalled { steps } = resumed {
            violation = Some(format!(
                "stalled after the kill at {kill_at} ({steps} stuck steps)"
            ));
        }
    }
    let summary = RunSummary::from_sim(&sim, std::time::Duration::ZERO);
    let violation = violation
        .or_else(|| validate_event_log(sim.events()))
        .or_else(|| conservation_violation(&summary))
        .or_else(|| invariant(&sim).err())
        .or_else(|| {
            let reboots = summary.reboots - stats_at_kill.reboots;
            let completions = summary.completions - stats_at_kill.completions;
            (reboots >= options.zeno_boot_limit && completions == 0).then(|| {
                format!(
                    "Zeno livelock after the kill at {kill_at}: \
                     {reboots} reboots with zero completions"
                )
            })
        });
    let outcome = KillOutcome {
        kill_at,
        summary,
        violation,
    };
    let prefix = landed.saturating_since(start);
    let resumed_sim = sim.now().saturating_since(landed);
    (outcome, prefix, resumed_sim)
}

/// The execution machine's conservation law, checked from a summary.
fn conservation_violation(s: &RunSummary) -> Option<String> {
    (s.attempts != s.completions + s.failures).then(|| {
        format!(
            "execution accounting broken: {} attempts != {} completions + {} failures",
            s.attempts, s.completions, s.failures
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::TaskEnergy;
    use crate::mode::EnergyMode;
    use crate::sim::SimEvent;
    use crate::variant::Variant;
    use capy_device::load::TaskLoad;
    use capy_device::mcu::Mcu;
    use capy_intermittent::nv::{NvState, NvVar};
    use capy_intermittent::task::Transition;
    use capy_power::bank::Bank;
    use capy_power::harvester::{ConstantHarvester, TraceHarvester};
    use capy_power::switch::SwitchKind;
    use capy_power::technology::parts;
    use capy_units::Watts;

    #[derive(Clone)]
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

    fn two_bank_power<H: Harvester>(harvester: H) -> PowerSystem<H> {
        PowerSystem::builder()
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
            .build()
    }

    fn sampler<H: Harvester>(power: PowerSystem<H>) -> Simulator<H, Ctx> {
        Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(10))),
                |c: &mut Ctx| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            )
            .build(Ctx { n: NvVar::new(0) })
    }

    fn steady() -> Simulator<ConstantHarvester, Ctx> {
        sampler(two_bank_power(ConstantHarvester::new(
            Watts::from_milli(2.0),
            Volts::new(3.0),
        )))
    }

    const HORIZON: SimTime = SimTime::from_secs(5);

    fn counter_invariant(sim: &Simulator<impl Harvester, Ctx>) -> Result<(), String> {
        let committed = sim.ctx().n.get();
        let completed = sim.exec_stats().completions;
        if committed == completed {
            Ok(())
        } else {
            Err(format!(
                "committed counter {committed} != completions {completed}"
            ))
        }
    }

    #[test]
    fn fault_plan_arms_scheduled_faults_wear_and_margin() {
        let plan = FaultPlan::new()
            .switch_stuck_open(SimTime::from_secs(1), BankId(1))
            .bank_degraded(SimTime::from_secs(2), BankId(0), 0.3, 2.0)
            .wear(WearModel::prototype())
            .startup_margin(Volts::new(0.25));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());

        let mut sim = steady();
        plan.arm(&mut sim);
        sim.run_until(SimTime::from_secs(3));
        // The scheduled degradation struck as simulated physics.
        let small = sim.power().bank(BankId(0)).expect("bank 0 exists");
        assert_eq!(small.derating().0, 0.3);
    }

    #[test]
    fn kill_grid_is_clean_and_deterministic_on_a_healthy_scenario() {
        let options = KillGridOptions {
            max_points: Some(12),
            workers: 1,
            ..KillGridOptions::default()
        };
        let serial = explore_kill_grid(HORIZON, &options, steady, counter_invariant);
        assert!(serial.is_clean(), "violations: {:?}", serial.violations());
        assert!(!serial.outcomes.is_empty());
        assert!(serial.grid_points >= serial.outcomes.len());
        // Every resumed run recovered: it saw the injected failure and
        // still made forward progress to the horizon.
        for o in &serial.outcomes {
            assert!(o.summary.power_failures >= 1, "kill at {}", o.kill_at);
            assert!(o.summary.end >= HORIZON);
            assert!(o.summary.completions > 0);
        }
        let parallel = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                workers: 4,
                ..options
            },
            steady,
            counter_invariant,
        );
        assert_eq!(serial, parallel, "worker count must be invisible");
    }

    #[test]
    fn kill_grid_flags_a_scenario_that_cannot_recover() {
        // Harvest dies at t=2s: any kill after that leaves the scenario
        // unable to recharge, so the resumed run stalls — which the
        // explorer must report as a violation, not hide.
        let build = || {
            sampler(two_bank_power(TraceHarvester::new(vec![
                (SimTime::ZERO, Watts::from_milli(2.0), Volts::new(3.0)),
                (SimTime::from_secs(2), Watts::ZERO, Volts::ZERO),
            ])))
        };
        let report = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                workers: 2,
                ..KillGridOptions::default()
            },
            build,
            counter_invariant,
        );
        assert!(!report.is_clean());
        let violations = report.violations();
        assert!(!violations.is_empty());
        assert!(violations
            .iter()
            .all(|o| o.violation.as_deref().unwrap().contains("stalled")));
        assert!(report.digest().contains("violations"));
    }

    #[test]
    fn subsampling_bounds_the_explored_grid() {
        let full = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                workers: 2,
                ..KillGridOptions::default()
            },
            steady,
            |_| Ok(()),
        );
        let smoke = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                workers: 2,
                ..KillGridOptions::smoke(3, 8)
            },
            steady,
            |_| Ok(()),
        );
        assert_eq!(full.grid_points, smoke.grid_points);
        assert!(smoke.outcomes.len() <= 8);
        assert!(smoke.outcomes.len() < full.outcomes.len());
        assert!(smoke.is_clean());
        // Truncation is never silent: the drop count is recorded, shown
        // in the digest, and fails the strict gate.
        assert_eq!(
            smoke.dropped_points,
            smoke.grid_points - smoke.outcomes.len()
        );
        assert!(smoke.dropped_points > 0);
        assert!(smoke.digest().contains("dropped by subsampling"));
        assert!(!smoke.is_clean_strict());
        assert!(smoke
            .strict_violation()
            .expect("subsampled grid must complain in strict mode")
            .contains("dropped"));
        // The exhaustive run is strict-clean.
        assert_eq!(full.dropped_points, 0);
        assert!(full.is_clean_strict());
        assert_eq!(full.strict_violation(), None);
        // The subsample is a subset of the full grid.
        let full_times: Vec<SimTime> = full.outcomes.iter().map(|o| o.kill_at).collect();
        assert!(smoke
            .outcomes
            .iter()
            .all(|o| full_times.contains(&o.kill_at)));
    }

    #[test]
    fn snapshot_explorer_matches_replay_and_steps_far_less() {
        let options = KillGridOptions {
            workers: 2,
            ..KillGridOptions::default()
        };
        let snap = explore_kill_grid(HORIZON, &options, steady, counter_invariant);
        let replay = explore_kill_grid_replay(HORIZON, &options, steady, counter_invariant);
        // Same report, bit for bit (equality excludes the stats).
        assert_eq!(snap, replay);
        assert_eq!(snap.digest(), replay.digest());
        assert!(
            snap.is_clean_strict(),
            "violations: {:?}",
            snap.violations()
        );
        // Same recovery work, radically less prefix work.
        assert!(snap.stats.snapshots > 0);
        assert_eq!(replay.stats.snapshots, 0);
        assert_eq!(snap.stats.record_sim, replay.stats.record_sim);
        assert_eq!(snap.stats.resumed_sim, replay.stats.resumed_sim);
        assert!(
            replay.stats.stepped_sim().as_micros() >= 5 * snap.stats.stepped_sim().as_micros(),
            "snapshot resume must step >= 5x fewer simulated seconds: \
             replay {:?} vs snapshot {:?}",
            replay.stats,
            snap.stats
        );
    }

    #[test]
    fn snapshot_stride_changes_memory_but_not_the_report() {
        let options = KillGridOptions {
            workers: 2,
            ..KillGridOptions::default()
        };
        let dense = explore_kill_grid(HORIZON, &options, steady, counter_invariant);
        let sparse = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                snapshot_stride: 7,
                ..options
            },
            steady,
            counter_invariant,
        );
        assert_eq!(dense, sparse);
        assert!(sparse.stats.snapshots < dense.stats.snapshots);
        // The sparse pass re-steps skipped boundaries but still beats
        // replay-from-zero asymptotics by a wide margin.
        assert!(sparse.stats.prefix_sim >= dense.stats.prefix_sim);
    }

    #[test]
    fn rail_surge_strikes_every_listed_bank_at_one_instant() {
        let surge_at = SimTime::from_secs(2);
        let plan = FaultPlan::new().rail_surge(
            surge_at,
            &[BankId(0), BankId(1)],
            SurgeEffect::Derate {
                cap_derate: 0.5,
                esr_scale: 2.0,
            },
        );
        assert_eq!(plan.len(), 2, "one discrete fault per struck bank");
        let mut sim = steady();
        plan.arm(&mut sim);
        sim.run_until(SimTime::from_secs(3));
        for i in 0..2 {
            let bank = sim.power().bank(BankId(i)).expect("bank exists");
            assert_eq!(bank.derating().0, 0.5, "bank {i} missed the surge");
        }
        // Stick variants expand to the matching switch faults.
        let stick = FaultPlan::new().rail_surge(surge_at, &[BankId(1)], SurgeEffect::StickClosed);
        assert_eq!(
            stick,
            FaultPlan::new().switch_stuck_closed(surge_at, BankId(1))
        );
        let open = FaultPlan::new().rail_surge(surge_at, &[BankId(0)], SurgeEffect::StickOpen);
        assert_eq!(
            open,
            FaultPlan::new().switch_stuck_open(surge_at, BankId(0))
        );
    }

    #[test]
    fn stuck_open_bank_mid_mission_degrades_gracefully() {
        let build = || {
            let mut sim = steady();
            sim.set_degradation(true);
            FaultPlan::new()
                .switch_stuck_open(SimTime::from_secs(2), BankId(0))
                .arm(&mut sim);
            sim
        };
        let mut sim = build();
        let result = sim.run_until(HORIZON);
        assert_eq!(result, StepResult::Progress);
        let events = sim.events();
        assert!(events.iter().any(|e| matches!(
            e,
            SimEvent::BankFailed {
                bank: BankId(0),
                ..
            }
        )));
        let failed_at = events
            .iter()
            .find_map(|e| match e {
                SimEvent::BankFailed { at, .. } => Some(*at),
                _ => None,
            })
            .expect("bank failure recorded");
        // The mission kept completing tasks after the failure.
        assert!(sim.now() >= HORIZON);
        let post_failure = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Boot { .. }) && e.at() > failed_at)
            .count();
        assert!(post_failure > 0, "no boots after bank failure");
        assert_eq!(validate_event_log(events), None);
        // And the kill grid stays clean under the same fault plan.
        let report = explore_kill_grid(
            HORIZON,
            &KillGridOptions {
                max_points: Some(8),
                workers: 2,
                ..KillGridOptions::default()
            },
            build,
            counter_invariant,
        );
        assert!(report.is_clean(), "violations: {:?}", report.violations());
        assert!(report.baseline.bank_failures >= 1);
    }
}

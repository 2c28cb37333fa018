//! Deterministic parallel parameter sweeps over independent simulations.
//!
//! Every figure of the evaluation is an embarrassingly-parallel
//! exploration of a parameter grid: the same device simulated over many
//! capacitances, harvester strengths, event densities, and system
//! variants (§6). This module gives that workload a first-class engine:
//!
//! * [`SweepSpec`] names a grid of labeled points, each owning
//!   a deterministic seed derived from the spec's base seed and the
//!   point's index;
//! * [`run_sweep_on`] builds one simulator per point, runs it to the
//!   point's horizon, and extracts from the finished run;
//!   [`run_sweep_tally_on`] does the same for non-simulator jobs; both
//!   sit on [`map_on`], the one parallel loop of the workspace, which
//!   shards any work list across [`std::thread::scope`] OS threads (no
//!   dependencies, no runtime) and keeps results in item order. Every
//!   runner takes its worker count explicitly, and `0` means one worker
//!   per core ([`available_workers`]);
//! * [`RunSummary`] condenses each run's [`SimEvent`] log and execution
//!   statistics into the repo's standard observability record;
//! * **typed axes** ([`AxisValue`], [`SweepSpec::axis`]) are the one way
//!   a point carries a parameter: the spec stores each axis's values once,
//!   every point stores only its integer index on each axis (so seed
//!   derivation and report identity never depend on the values), and
//!   [`SweepPoint::axis`] recovers the value itself, with a labeled
//!   [`AxisError`] instead of a raw slice-index panic on mistakes.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of worker count**. Each
//! point's simulation depends only on the point itself (its axis values
//! and its own seed — never on a shared generator), and aggregation is
//! order-stable by point index. Wall-clock fields are carried for
//! reporting but excluded from equality, so a [`SweepReport`] compares
//! equal across runs with different parallelism:
//!
//! ```
//! # use capybara::sweep::SweepSpec;
//! # use capy_units::SimTime;
//! let spec = SweepSpec::new("example", SimTime::from_secs(1))
//!     .axis("c_uf", &[100.0, 330.0])
//!     .axis("p_mw", &[1.0, 10.0]);
//! assert_eq!(spec.points().len(), 4);
//! assert_ne!(spec.points()[0].seed, spec.points()[1].seed);
//! assert_eq!(spec.points()[3].expect_axis::<f64>("p_mw"), 10.0);
//! ```

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use capy_power::harvester::Harvester;
use capy_power::mechanism::Mechanism;
use capy_power::switch::SwitchKind;
use capy_units::rng::derive_seed;
use capy_units::{Joules, SimDuration, SimTime};

use crate::sim::{SimContext, SimEvent, Simulator};
use crate::variant::Variant;

/// A value that can ride a typed sweep axis.
///
/// Implementors are the quantities the evaluation varies — system
/// [`Variant`]s, reconfiguration [`Mechanism`]s, policies, scenario
/// descriptors, and the plain numbers of the figure grids. The value is
/// stored once on the [`SweepSpec`]'s axis registry; each point carries
/// only its *index*, so the values affect neither seed derivation nor
/// report identity.
pub trait AxisValue: Clone + Send + Sync + 'static {
    /// The label fragment this value contributes to a point's label.
    fn axis_label(&self) -> String;
}

macro_rules! display_axis_value {
    ($($t:ty),*) => {$(
        impl AxisValue for $t {
            fn axis_label(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

display_axis_value!(bool, u64, usize, f64);

impl AxisValue for Variant {
    fn axis_label(&self) -> String {
        self.label().to_string()
    }
}

impl AxisValue for Mechanism {
    fn axis_label(&self) -> String {
        self.label().to_string()
    }
}

impl AxisValue for SwitchKind {
    fn axis_label(&self) -> String {
        match self {
            SwitchKind::NormallyOpen => "normally-open".to_string(),
            SwitchKind::NormallyClosed => "normally-closed".to_string(),
        }
    }
}

/// The spec-level registry entry for one typed axis: the axis name, the
/// declared values (type-erased behind [`Any`]), and their labels.
#[derive(Clone)]
pub struct AxisTable {
    name: &'static str,
    labels: Vec<String>,
    type_name: &'static str,
    values: Arc<dyn Any + Send + Sync>,
}

impl AxisTable {
    fn new<T: AxisValue>(name: &'static str, values: &[T]) -> Self {
        Self {
            name,
            labels: values.iter().map(AxisValue::axis_label).collect(),
            type_name: std::any::type_name::<T>(),
            values: Arc::new(values.to_vec()),
        }
    }

    /// The axis name (the key each point stores its index under).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of declared values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the axis declares no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

impl fmt::Debug for AxisTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AxisTable")
            .field("name", &self.name)
            .field("type", &self.type_name)
            .field("labels", &self.labels)
            .finish()
    }
}

impl PartialEq for AxisTable {
    fn eq(&self, other: &Self) -> bool {
        // The type-erased values are excluded: two tables declaring the
        // same name, type, and labels describe the same axis.
        self.name == other.name && self.type_name == other.type_name && self.labels == other.labels
    }
}

/// Why a typed-axis lookup on a [`SweepPoint`] failed. Every variant
/// names the point and the axis, so a typo'd or miswired axis is
/// diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisError {
    /// No axis of that name is declared on the point's spec.
    UnknownAxis {
        /// Label of the point the lookup ran against.
        point: String,
        /// The requested axis name.
        axis: String,
        /// Every axis the spec does declare.
        declared: Vec<&'static str>,
    },
    /// The axis is declared but the point carries no index on it (a
    /// [`SweepSpec::point`] laid out without one).
    MissingIndex {
        /// Label of the point the lookup ran against.
        point: String,
        /// The requested axis name.
        axis: String,
    },
    /// The index is past the end of the declared values.
    OutOfRange {
        /// Label of the point the lookup ran against.
        point: String,
        /// The requested axis name.
        axis: String,
        /// The out-of-range index the point carried.
        index: usize,
        /// How many values the axis declares.
        len: usize,
    },
    /// The axis holds values of a different type than requested.
    TypeMismatch {
        /// Label of the point the lookup ran against.
        point: String,
        /// The requested axis name.
        axis: String,
        /// Type the axis was declared with.
        declared: &'static str,
        /// Type the caller asked for.
        requested: &'static str,
    },
}

impl fmt::Display for AxisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAxis {
                point,
                axis,
                declared,
            } => write!(
                f,
                "sweep point '{point}' has no typed axis '{axis}' (declared axes: {declared:?})"
            ),
            Self::MissingIndex { point, axis } => write!(
                f,
                "sweep point '{point}' carries no index on declared axis '{axis}'"
            ),
            Self::OutOfRange {
                point,
                axis,
                index,
                len,
            } => write!(
                f,
                "sweep point '{point}': axis '{axis}' index {index} out of range \
                 (axis declares {len} values)"
            ),
            Self::TypeMismatch {
                point,
                axis,
                declared,
                requested,
            } => write!(
                f,
                "sweep point '{point}': axis '{axis}' holds {declared}, not {requested}"
            ),
        }
    }
}

impl std::error::Error for AxisError {}

/// One labeled point of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the spec (also the aggregation order).
    pub index: usize,
    /// Human-readable label, e.g. `"CB-P 330"`.
    pub label: String,
    /// The point's own deterministic seed, derived from the spec's base
    /// seed and the point index. Thread this into every stochastic model
    /// the run uses.
    pub seed: u64,
    /// Optional per-point horizon override. When set, the engine runs
    /// this point's simulation to this time instead of the spec's
    /// horizon — for grids whose points represent differently-sized
    /// missions (e.g. kill grids, scenario suites).
    pub horizon: Option<SimTime>,
    /// The point's index on each typed axis, in crossing order.
    indices: Vec<(&'static str, usize)>,
    /// The spec's typed-axis registry, shared by every point.
    axes: Arc<Vec<AxisTable>>,
}

impl PartialEq for SweepPoint {
    fn eq(&self, other: &Self) -> bool {
        // The axis registry is spec-level metadata — a lookup table for
        // recovering typed values from the indices — and is excluded, so
        // report identity is index, label, axis indices, seed, horizon.
        self.index == other.index
            && self.label == other.label
            && self.indices == other.indices
            && self.seed == other.seed
            && self.horizon == other.horizon
    }
}

impl SweepPoint {
    /// The value this point takes on typed axis `name`.
    ///
    /// The point stores only the value's index; this recovers the value
    /// itself from the spec's axis registry.
    ///
    /// # Errors
    ///
    /// [`AxisError`] when the axis is undeclared, the point carries no
    /// index for it, the index is out of range, or `T` is not the type
    /// the axis was declared with.
    pub fn axis<T: AxisValue>(&self, name: &str) -> Result<T, AxisError> {
        let (idx, table) = self.axis_entry(name)?;
        let values =
            table
                .values
                .downcast_ref::<Vec<T>>()
                .ok_or_else(|| AxisError::TypeMismatch {
                    point: self.label.clone(),
                    axis: name.to_string(),
                    declared: table.type_name,
                    requested: std::any::type_name::<T>(),
                })?;
        Ok(values[idx].clone())
    }

    /// Like [`SweepPoint::axis`] but panicking with the [`AxisError`]'s
    /// message — for sweep closures where a bad axis is a programming
    /// error.
    #[must_use]
    pub fn expect_axis<T: AxisValue>(&self, name: &str) -> T {
        self.axis(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The index this point takes on typed axis `name` — for callers
    /// that index their own parallel tables rather than needing the
    /// value itself.
    ///
    /// # Errors
    ///
    /// [`AxisError`] as for [`SweepPoint::axis`] (type mismatch
    /// excepted: the index is type-agnostic).
    pub fn axis_index(&self, name: &str) -> Result<usize, AxisError> {
        self.axis_entry(name).map(|(idx, _)| idx)
    }

    /// Panicking form of [`SweepPoint::axis_index`].
    #[must_use]
    pub fn expect_axis_index(&self, name: &str) -> usize {
        self.axis_index(name).unwrap_or_else(|e| panic!("{e}"))
    }

    fn axis_entry(&self, name: &str) -> Result<(usize, &AxisTable), AxisError> {
        let Some(table) = self.axes.iter().find(|t| t.name == name) else {
            return Err(AxisError::UnknownAxis {
                point: self.label.clone(),
                axis: name.to_string(),
                declared: self.axes.iter().map(AxisTable::name).collect(),
            });
        };
        let Some(&(_, idx)) = self.indices.iter().find(|(n, _)| *n == name) else {
            return Err(AxisError::MissingIndex {
                point: self.label.clone(),
                axis: name.to_string(),
            });
        };
        if idx >= table.len() {
            return Err(AxisError::OutOfRange {
                point: self.label.clone(),
                axis: name.to_string(),
                index: idx,
                len: table.len(),
            });
        }
        Ok((idx, table))
    }

    /// The horizon this point's run executes to: the point's own
    /// override when set, else the spec-wide `default`.
    #[must_use]
    pub fn horizon_or(&self, default: SimTime) -> SimTime {
        self.horizon.unwrap_or(default)
    }
}

/// A named grid of points over typed axes plus the horizon each run
/// simulates to.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    name: &'static str,
    horizon: SimTime,
    base_seed: u64,
    points: Vec<SweepPoint>,
    axes: Arc<Vec<AxisTable>>,
}

/// Default base seed (shared with the figure benches).
pub const DEFAULT_BASE_SEED: u64 = 0xCA9B_2018;

impl SweepSpec {
    /// Starts an empty spec; add points with [`SweepSpec::axis`] or
    /// [`SweepSpec::point`].
    #[must_use]
    pub fn new(name: &'static str, horizon: SimTime) -> Self {
        Self {
            name,
            horizon,
            base_seed: DEFAULT_BASE_SEED,
            points: Vec::new(),
            axes: Arc::new(Vec::new()),
        }
    }

    /// Replaces the base seed (and re-derives every point's seed).
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        for p in &mut self.points {
            p.seed = derive_seed(seed, p.index as u64);
        }
        self
    }

    /// Appends one explicit point carrying `(axis, index)` pairs on axes
    /// declared with [`SweepSpec::declare_axis`].
    #[must_use]
    pub fn point(self, label: impl Into<String>, indices: &[(&'static str, usize)]) -> Self {
        self.push(label.into(), indices.to_vec(), None)
    }

    /// Appends one explicit point that runs to its own horizon instead
    /// of the spec's.
    #[must_use]
    pub fn point_at(
        self,
        label: impl Into<String>,
        indices: &[(&'static str, usize)],
        horizon: SimTime,
    ) -> Self {
        self.push(label.into(), indices.to_vec(), Some(horizon))
    }

    fn push(
        mut self,
        label: String,
        indices: Vec<(&'static str, usize)>,
        horizon: Option<SimTime>,
    ) -> Self {
        let index = self.points.len();
        self.points.push(SweepPoint {
            index,
            label,
            seed: derive_seed(self.base_seed, index as u64),
            horizon,
            indices,
            axes: Arc::clone(&self.axes),
        });
        self
    }

    /// Crosses the existing points with a typed axis: every current
    /// point is replicated once per value (on an empty spec, one point
    /// per value), keeping its horizon. The values live on the spec's
    /// axis registry and each point stores only its value's index under
    /// `name`. Labels compose the values' [`AxisValue::axis_label`]s,
    /// space-separated; seeds derive from the final indices, so a typed
    /// axis equals the hand-indexed [`SweepSpec::point`] layout.
    ///
    /// # Panics
    ///
    /// When an axis of the same name is already declared.
    #[must_use]
    pub fn axis<T: AxisValue>(mut self, name: &'static str, values: &[T]) -> Self {
        let table = AxisTable::new(name, values);
        let labels = table.labels.clone();
        self.register_axis(table);
        let base = std::mem::take(&mut self.points);
        if base.is_empty() {
            for (i, label) in labels.iter().enumerate() {
                self = self.push(label.clone(), vec![(name, i)], None);
            }
        }
        for p in &base {
            for (i, label) in labels.iter().enumerate() {
                let mut indices = p.indices.clone();
                indices.push((name, i));
                self = self.push(format!("{} {label}", p.label), indices, p.horizon);
            }
        }
        self
    }

    /// Registers a typed axis **without** crossing it into the points —
    /// for specs that lay out their grid with explicit
    /// [`SweepSpec::point`] calls (custom labels, per-point horizons)
    /// and give each point its index on the axis themselves.
    ///
    /// # Panics
    ///
    /// When an axis of the same name is already declared.
    #[must_use]
    pub fn declare_axis<T: AxisValue>(mut self, name: &'static str, values: &[T]) -> Self {
        self.register_axis(AxisTable::new(name, values));
        self
    }

    fn register_axis(&mut self, table: AxisTable) {
        assert!(
            self.axes.iter().all(|t| t.name != table.name),
            "axis '{}' declared twice on sweep spec '{}'",
            table.name,
            self.name
        );
        let mut axes = (*self.axes).clone();
        axes.push(table);
        self.axes = Arc::new(axes);
        // Every point shares the registry, including ones added before
        // this declaration.
        for p in &mut self.points {
            p.axes = Arc::clone(&self.axes);
        }
    }

    /// The typed axes declared on this spec, in declaration order.
    #[must_use]
    pub fn axes(&self) -> &[AxisTable] {
        &self.axes
    }

    /// The spec's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The simulated horizon each run executes to.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The grid points, in aggregation order.
    #[must_use]
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }
}

/// The condensed observability record of one simulation run, extracted
/// from the [`SimEvent`] log plus the execution machine's statistics.
///
/// `wall` is measured, not simulated, and is therefore **excluded from
/// equality** — two summaries of the same deterministic run compare
/// equal no matter how long the host took.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Device boots (buffer full, or continuous start).
    pub boots: u64,
    /// On-path charge pauses (excludes pre-charges).
    pub charges: u64,
    /// Burst pre-charges (off the critical path).
    pub precharges: u64,
    /// Bank-array reconfigurations.
    pub reconfigurations: u64,
    /// Burst activations.
    pub bursts: u64,
    /// Intermittent power failures.
    pub power_failures: u64,
    /// Banks diagnosed as failed and retired by the degradation runtime.
    pub bank_failures: u64,
    /// Energy modes remapped onto surviving banks after a bank failure.
    pub mode_remaps: u64,
    /// `true` when the run ended in a harvester stall.
    pub stalled: bool,
    /// Total simulated time spent charging (device off).
    pub charge_time: SimDuration,
    /// Task attempts (completions + failures).
    pub attempts: u64,
    /// Events completed: task executions that ran to completion and
    /// committed.
    pub completions: u64,
    /// Attempts cut short by power failure.
    pub failures: u64,
    /// Power-on reboots observed by the execution machine.
    pub reboots: u64,
    /// Energy the power system delivered to the load over the run.
    pub delivered_energy: Joules,
    /// Simulated time at the end of the run.
    pub end: SimTime,
    /// Host wall-clock time the run took (excluded from equality).
    pub wall: Duration,
}

impl PartialEq for RunSummary {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `wall`, which is nondeterministic.
        self.boots == other.boots
            && self.charges == other.charges
            && self.precharges == other.precharges
            && self.reconfigurations == other.reconfigurations
            && self.bursts == other.bursts
            && self.power_failures == other.power_failures
            && self.bank_failures == other.bank_failures
            && self.mode_remaps == other.mode_remaps
            && self.stalled == other.stalled
            && self.charge_time == other.charge_time
            && self.attempts == other.attempts
            && self.completions == other.completions
            && self.failures == other.failures
            && self.reboots == other.reboots
            && self.delivered_energy == other.delivered_energy
            && self.end == other.end
    }
}

impl RunSummary {
    /// Tallies the event-log-derived fields from a recorded timeline.
    /// (Execution statistics and energy accounting stay zero; use
    /// [`RunSummary::from_sim`] for the full record.)
    #[must_use]
    pub fn from_events(events: &[SimEvent]) -> Self {
        let mut s = Self::default();
        for e in events {
            match e {
                SimEvent::Boot { .. } => s.boots += 1,
                SimEvent::Reconfigure { .. } => s.reconfigurations += 1,
                SimEvent::BurstActivated { .. } => s.bursts += 1,
                SimEvent::PowerFailure { .. } => s.power_failures += 1,
                SimEvent::BankFailed { .. } => s.bank_failures += 1,
                SimEvent::ModeRemapped { .. } => s.mode_remaps += 1,
                SimEvent::Stalled { .. } => s.stalled = true,
                SimEvent::Charge {
                    start,
                    end,
                    precharge,
                    ..
                } => {
                    if *precharge {
                        s.precharges += 1;
                    } else {
                        s.charges += 1;
                    }
                    s.charge_time = s.charge_time.saturating_add(*end - *start);
                }
            }
        }
        s
    }

    /// The full record for a finished simulator, with `wall` as measured
    /// by the caller.
    #[must_use]
    pub fn from_sim<H: Harvester, C: SimContext>(sim: &Simulator<H, C>, wall: Duration) -> Self {
        let mut s = Self::from_events(sim.events());
        let stats = sim.exec_stats();
        s.attempts = stats.attempts;
        s.completions = stats.completions;
        s.failures = stats.failures;
        s.reboots = stats.reboots;
        s.delivered_energy = sim.power().energy_delivered();
        s.end = sim.now();
        s.wall = wall;
        s
    }

    /// Mean duration of a charge pause (on-path and pre-charges).
    #[must_use]
    pub fn mean_charge_time(&self) -> SimDuration {
        self.charge_time
            .as_micros()
            .checked_div(self.charges + self.precharges)
            .map_or(SimDuration::ZERO, SimDuration::from_micros)
    }

    /// Fraction of simulated time the device spent charging.
    #[must_use]
    pub fn charge_fraction(&self) -> f64 {
        if self.end == SimTime::ZERO {
            0.0
        } else {
            self.charge_time.as_secs_f64() / self.end.as_secs_f64()
        }
    }
}

/// Telemetry for one worker thread of a sweep — how many points it
/// claimed and how long it spent executing them (idle waits excluded).
/// Measured, not simulated, so it is **excluded from report equality**
/// exactly like wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the sweep (0-based).
    pub worker: usize,
    /// Points this worker executed.
    pub points: u64,
    /// Host wall-clock time spent inside point closures.
    pub busy: Duration,
}

/// One run of a sweep: the point that parameterized it and its summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The parameter point.
    pub point: SweepPoint,
    /// The run's observability record.
    pub summary: RunSummary,
}

/// The order-stable result of a sweep. Equality ignores wall-clock and
/// worker count, so reports from runs with different parallelism compare
/// equal.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The spec's name.
    pub name: &'static str,
    /// One run per spec point, in point-index order.
    pub runs: Vec<SweepRun>,
    /// Samples the producing bench deliberately left out of its analysis
    /// (subsampled points, truncated series). The engine initializes it
    /// to 0; benches that drop anything must stamp the tally so
    /// [`sweep_footer`](https://docs.rs/capy-bench) prints it —
    /// silent truncation is a bug class this field exists to surface.
    /// **Included in equality**, unlike the wall-clock telemetry.
    pub dropped: u64,
    /// Samples that fell outside every histogram range the producing
    /// bench binned into (the fig11 class of tally). Engine-initialized
    /// to 0, stamped by the bench, printed by the footer, and
    /// **included in equality**.
    pub out_of_range: u64,
    /// Number of worker threads used: the requested count (`0` resolved
    /// to [`available_workers`]) clamped to the number of points
    /// (excluded from equality).
    pub workers: usize,
    /// Total host wall-clock time (excluded from equality).
    pub wall: Duration,
    /// Per-worker telemetry, in worker order (excluded from equality).
    pub worker_stats: Vec<WorkerStats>,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.runs == other.runs
            && self.dropped == other.dropped
            && self.out_of_range == other.out_of_range
    }
}

impl SweepReport {
    /// The run for the point labeled `label`, if present.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<&SweepRun> {
        self.runs.iter().find(|r| r.point.label == label)
    }

    /// Total completed events across every run.
    #[must_use]
    pub fn total_completions(&self) -> u64 {
        self.runs.iter().map(|r| r.summary.completions).sum()
    }

    /// Total power failures across every run.
    #[must_use]
    pub fn total_power_failures(&self) -> u64 {
        self.runs.iter().map(|r| r.summary.power_failures).sum()
    }

    /// Total simulated charge time across every run.
    #[must_use]
    pub fn total_charge_time(&self) -> SimDuration {
        self.runs.iter().fold(SimDuration::ZERO, |acc, r| {
            acc.saturating_add(r.summary.charge_time)
        })
    }

    /// Mean worker utilization: busy time summed over workers divided by
    /// `workers × wall`. 1.0 means every worker computed for the whole
    /// sweep; low values mean workers idled at the tail of the queue.
    ///
    /// The raw ratio can never legitimately exceed 1 + ε (busy time is
    /// measured strictly inside the wall interval), so a larger value
    /// means busy time was double-counted somewhere — asserted in debug
    /// builds rather than silently clamped away.
    ///
    /// Zero-wall edge: when the sweep finished faster than the host
    /// clock resolves, `wall` is zero and the ratio is undefined. A
    /// report that nevertheless recorded busy work returns 1.0 (the
    /// workers were busy the whole — unmeasurably short — sweep), while
    /// a genuinely idle report (no busy time either) returns 0.0, so
    /// the two cases stay distinguishable.
    #[must_use]
    pub fn worker_utilization(&self) -> f64 {
        let busy: f64 = self.worker_stats.iter().map(|w| w.busy.as_secs_f64()).sum();
        let denom = self.wall.as_secs_f64() * self.workers as f64;
        if denom <= 0.0 {
            return if busy > 0.0 { 1.0 } else { 0.0 };
        }
        let raw = busy / denom;
        debug_assert!(
            raw <= 1.0 + 1e-3,
            "worker busy time exceeds workers x wall ({busy:.6} s busy over {denom:.6} s \
             capacity) — busy intervals are being double-counted"
        );
        raw.min(1.0)
    }
}

/// The engine's default worker count: one per available core. Every
/// runner takes `workers` explicitly and reads `0` as this count;
/// [`map_on`] resolves it, and nothing else does.
#[must_use]
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item across `workers` scoped threads and
/// returns the results **in item order**. `workers == 0` means
/// [`available_workers`], and the count is clamped to the number of
/// items. The closure sees only its item, so the output is identical
/// for any worker count; items are claimed dynamically, so uneven run
/// times still load-balance.
///
/// This is the workspace's one parallel loop: sweeps pass
/// `spec.points()`, while fleets, kill grids, fuzz campaigns and
/// manifest batches pass their own work lists (shard indices, kill
/// instants, case indices, paths).
pub fn map_on<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_stats(items, workers, f).0
}

/// The engine behind [`map_on`]: additionally reports per-worker
/// telemetry (items claimed, busy time) gathered on the workers
/// themselves, one entry per thread actually used.
pub(crate) fn map_stats<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = match workers {
        0 => available_workers(),
        w => w,
    }
    .min(n);
    if workers == 1 {
        let t0 = Instant::now();
        let results = items.iter().map(f).collect();
        let stats = WorkerStats {
            worker: 0,
            points: n as u64,
            busy: t0.elapsed(),
        };
        return (results, vec![stats]);
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let stats = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let f = &f;
                let next = &next;
                let slots = &slots;
                scope.spawn(move || {
                    let mut stats = WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        let r = f(&items[i]);
                        stats.points += 1;
                        stats.busy += t0.elapsed();
                        *slots[i].lock().expect("no panics while holding the slot") = Some(r);
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics propagate out of the scope"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panics propagate out of the scope")
                .expect("every slot filled")
        })
        .collect();
    (results, stats)
}

/// Runs one simulator per point of `spec` on `workers` threads (`0` =
/// every core): `build` constructs the point's simulator, the engine
/// runs it to the point's horizon (the spec's unless overridden via
/// [`SweepPoint::horizon`]), and `extract` reads what the caller needs
/// from the **finished** simulator — application context, trace tails,
/// power telemetry — next to the standard [`RunSummary`]. Pass
/// `|_, _| ()` when the summaries suffice.
///
/// `run_until` is monotone, so a `build` that already ran its simulator
/// to or past the horizon (a point whose mission length depends on its
/// own event schedule) is left untouched by the engine.
pub fn run_sweep_on<H, C, R, B, X>(
    spec: &SweepSpec,
    workers: usize,
    build: B,
    extract: X,
) -> (SweepReport, Vec<R>)
where
    H: Harvester,
    C: SimContext,
    R: Send,
    B: Fn(&SweepPoint) -> Simulator<H, C> + Sync,
    X: Fn(&Simulator<H, C>, &SweepPoint) -> R + Sync,
{
    // The tally engine stamps each summary's wall time around the whole
    // closure, so the placeholder Duration here is never observed.
    run_sweep_tally_on(spec, workers, |point| {
        let mut sim = build(point);
        sim.run_until(point.horizon_or(spec.horizon()));
        let extract = extract(&sim, point);
        (RunSummary::from_sim(&sim, Duration::ZERO), extract)
    })
}

/// Runs one **non-simulator** job per point on `workers` threads (`0` =
/// every core) — for evaluation targets whose per-point work is a
/// custom loop or an analytic calculation rather than a [`Simulator`]
/// (the federated-GRC cascade, the CapySat orbit loop, board-area
/// characterization). The closure returns the point's [`RunSummary`]
/// plus a caller-chosen extract; the engine stamps the summary's wall
/// time and assembles the standard [`SweepReport`], so these targets
/// share footers, worker telemetry, and 1-vs-N bit-identity with the
/// simulator sweeps ([`run_sweep_on`] is built on it).
pub fn run_sweep_tally_on<R, F>(spec: &SweepSpec, workers: usize, run: F) -> (SweepReport, Vec<R>)
where
    R: Send,
    F: Fn(&SweepPoint) -> (RunSummary, R) + Sync,
{
    let started = Instant::now();
    let (outcomes, worker_stats) = map_stats(spec.points(), workers, |point| {
        let t0 = Instant::now();
        let (mut summary, extract) = run(point);
        summary.wall = t0.elapsed();
        (summary, extract)
    });
    let mut runs = Vec::with_capacity(outcomes.len());
    let mut extracts = Vec::with_capacity(outcomes.len());
    for (point, (summary, extract)) in spec.points().iter().zip(outcomes) {
        runs.push(SweepRun {
            point: point.clone(),
            summary,
        });
        extracts.push(extract);
    }
    let report = SweepReport {
        name: spec.name(),
        runs,
        dropped: 0,
        out_of_range: 0,
        workers: worker_stats.len(),
        wall: started.elapsed(),
        worker_stats,
    };
    (report, extracts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::TaskEnergy;
    use crate::mode::EnergyMode;
    use crate::variant::Variant;
    use capy_device::load::TaskLoad;
    use capy_device::mcu::Mcu;
    use capy_intermittent::nv::{NvState, NvVar};
    use capy_intermittent::task::Transition;
    use capy_power::bank::{Bank, BankId};
    use capy_power::harvester::ConstantHarvester;
    use capy_power::switch::SwitchKind;
    use capy_power::system::PowerSystem;
    use capy_power::technology::parts;
    use capy_units::{Volts, Watts};

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

    fn sampler(harvest_uw: f64, task_ms: u64) -> Simulator<ConstantHarvester, Ctx> {
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
        Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .mode("big", &[BankId(1)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                move |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(task_ms))),
                |c: &mut Ctx| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            )
            .build(Ctx { n: NvVar::new(0) })
    }

    fn demo_spec() -> SweepSpec {
        SweepSpec::new("demo", SimTime::from_secs(10))
            .axis("harvest_uw", &[500.0, 2_000.0, 10_000.0])
            .axis("task_ms", &[5_u64, 20, 80])
    }

    fn build(point: &SweepPoint) -> Simulator<ConstantHarvester, Ctx> {
        sampler(
            point.expect_axis("harvest_uw"),
            point.expect_axis("task_ms"),
        )
    }

    /// A spec of hand-laid points over `demo_spec`'s axes.
    fn hand_spec(name: &'static str) -> SweepSpec {
        SweepSpec::new(name, SimTime::from_secs(5))
            .declare_axis("harvest_uw", &[500.0, 2_000.0, 10_000.0])
            .declare_axis("task_ms", &[10_u64])
    }

    /// The summaries-only sweep of `spec` with [`build`].
    fn summaries(spec: &SweepSpec, workers: usize) -> SweepReport {
        run_sweep_on(spec, workers, build, |_, _| ()).0
    }

    #[test]
    fn axes_cross_and_label_points() {
        let spec = demo_spec();
        assert_eq!(spec.points().len(), 9);
        assert_eq!(spec.points()[0].label, "500 5");
        assert_eq!(spec.points()[8].label, "10000 80");
        assert_eq!(spec.points()[4].expect_axis::<u64>("task_ms"), 20);
        assert_eq!(spec.points()[4].expect_axis::<f64>("harvest_uw"), 2_000.0);
        for (i, p) in spec.points().iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn point_seeds_are_unique_and_stable() {
        let a = demo_spec();
        let b = demo_spec();
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.seed, pb.seed);
        }
        let mut seeds: Vec<u64> = a.points().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 9, "seeds must be pairwise distinct");
        let reseeded = demo_spec().base_seed(7);
        assert_ne!(reseeded.points()[0].seed, a.points()[0].seed);
    }

    #[test]
    fn report_is_identical_for_one_and_many_workers() {
        let spec = demo_spec();
        let serial = summaries(&spec, 1);
        let parallel = summaries(&spec, available_workers().max(4));
        assert_eq!(serial, parallel);
        // Point order is preserved, not completion order.
        for (run, point) in serial.runs.iter().zip(spec.points()) {
            assert_eq!(run.point, *point);
        }
    }

    #[test]
    fn summaries_reflect_simulation_activity() {
        let spec = SweepSpec::new("one", SimTime::from_secs(30)).axis("harvest_uw", &[2_000.0]);
        let report = run_sweep_on(
            &spec,
            0,
            |p| sampler(p.expect_axis("harvest_uw"), 20),
            |_, _| (),
        )
        .0;
        let s = &report.runs[0].summary;
        assert!(s.completions > 0);
        assert_eq!(s.attempts, s.completions + s.failures);
        assert!(s.charges > 0);
        assert!(s.charge_time > SimDuration::ZERO);
        assert!(s.boots > 0);
        assert!(!s.stalled);
        assert!(s.delivered_energy > Joules::ZERO);
        assert!(s.end >= SimTime::from_secs(30));
        assert!(s.charge_fraction() > 0.0 && s.charge_fraction() < 1.0);
        assert!(s.mean_charge_time() > SimDuration::ZERO);
        assert_eq!(report.total_completions(), s.completions);
    }

    #[test]
    fn run_summary_from_events_tallies_every_kind() {
        let t = SimTime::from_secs;
        let events = [
            SimEvent::Charge {
                start: t(0),
                end: t(2),
                from: Volts::ZERO,
                to: Volts::new(2.8),
                precharge: false,
            },
            SimEvent::Boot { at: t(2) },
            SimEvent::Reconfigure {
                at: t(3),
                mode: EnergyMode(1),
            },
            SimEvent::Charge {
                start: t(3),
                end: t(4),
                from: Volts::new(1.0),
                to: Volts::new(2.5),
                precharge: true,
            },
            SimEvent::Boot { at: t(4) },
            SimEvent::BurstActivated {
                at: t(5),
                mode: EnergyMode(1),
            },
            SimEvent::PowerFailure {
                at: t(6),
                task: capy_intermittent::task::TaskId(0),
            },
            SimEvent::BankFailed {
                at: t(6),
                bank: BankId(1),
            },
            SimEvent::ModeRemapped {
                at: t(6),
                mode: EnergyMode(1),
            },
            SimEvent::Stalled { at: t(7) },
        ];
        let s = RunSummary::from_events(&events);
        assert_eq!(s.boots, 2);
        assert_eq!(s.charges, 1);
        assert_eq!(s.precharges, 1);
        assert_eq!(s.reconfigurations, 1);
        assert_eq!(s.bursts, 1);
        assert_eq!(s.power_failures, 1);
        assert_eq!(s.bank_failures, 1);
        assert_eq!(s.mode_remaps, 1);
        assert!(s.stalled);
        assert_eq!(s.charge_time, SimDuration::from_secs(3));
    }

    #[test]
    fn wall_time_does_not_affect_equality() {
        let mut a = RunSummary::from_events(&[]);
        let mut b = a.clone();
        a.wall = Duration::from_secs(1);
        b.wall = Duration::from_secs(9);
        assert_eq!(a, b);
        b.boots = 1;
        assert_ne!(a, b);
    }

    #[test]
    fn empty_spec_yields_empty_report() {
        let spec = SweepSpec::new("empty", SimTime::from_secs(1));
        let report = summaries(&spec, 0);
        assert!(report.runs.is_empty());
        assert_eq!(report.total_completions(), 0);
    }

    #[test]
    fn report_lookup_by_label() {
        let spec = hand_spec("lookup")
            .point("weak", &[("harvest_uw", 0), ("task_ms", 0)])
            .point("strong", &[("harvest_uw", 2), ("task_ms", 0)]);
        let report = summaries(&spec, 0);
        assert!(report.get("weak").is_some());
        assert!(report.get("missing").is_none());
        let weak = &report.get("weak").unwrap().summary;
        let strong = &report.get("strong").unwrap().summary;
        assert!(strong.completions >= weak.completions);
    }

    #[test]
    fn worker_stats_account_for_every_point() {
        let spec = demo_spec();
        let serial = summaries(&spec, 1);
        assert_eq!(serial.worker_stats.len(), 1);
        assert_eq!(serial.worker_stats[0].points, 9);
        let parallel = summaries(&spec, 3);
        assert_eq!(parallel.worker_stats.len(), 3);
        // `0` resolves to every core, and any count is clamped to the
        // number of points.
        let all = summaries(&spec, 0);
        assert_eq!(all.workers, available_workers().min(9));
        assert_eq!(all.worker_stats.len(), all.workers);
        assert_eq!(summaries(&spec, 64).workers, 9);
        let claimed: u64 = parallel.worker_stats.iter().map(|w| w.points).sum();
        assert_eq!(claimed, 9, "every point is claimed exactly once");
        for (i, w) in parallel.worker_stats.iter().enumerate() {
            assert_eq!(w.worker, i);
        }
        // Telemetry is measured, not simulated: excluded from equality
        // exactly like wall time.
        assert_eq!(serial, parallel);
        let u = parallel.worker_utilization();
        assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn utilization_distinguishes_zero_wall_from_idle() {
        let spec = demo_spec();
        let mut report = summaries(&spec, 2);
        // Sub-resolution wall clock but real busy time: full utilization,
        // not a silent 0.0.
        report.wall = Duration::ZERO;
        assert!(report.worker_stats.iter().any(|w| w.busy > Duration::ZERO));
        assert_eq!(report.worker_utilization(), 1.0);
        // Truly idle (no busy time either) stays 0.0.
        for w in &mut report.worker_stats {
            w.busy = Duration::ZERO;
        }
        assert_eq!(report.worker_utilization(), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double-counted")]
    fn utilization_rejects_double_counted_busy_time() {
        let spec = demo_spec();
        let mut report = summaries(&spec, 1);
        report.wall = Duration::from_millis(1);
        report.worker_stats = vec![WorkerStats {
            worker: 0,
            points: 9,
            busy: Duration::from_millis(10),
        }];
        let _ = report.worker_utilization();
    }

    #[test]
    fn dropped_and_out_of_range_tallies_break_equality() {
        let spec = demo_spec();
        let clean = summaries(&spec, 1);
        let mut truncated = clean.clone();
        assert_eq!(clean, truncated);
        truncated.dropped = 3;
        assert_ne!(clean, truncated, "a dropped tally is part of the result");
        truncated.dropped = 0;
        truncated.out_of_range = 1;
        assert_ne!(
            clean, truncated,
            "an out-of-range tally is part of the result"
        );
    }

    #[test]
    fn per_point_horizon_overrides_the_spec() {
        let spec = hand_spec("horizons")
            .point("default", &[("harvest_uw", 1), ("task_ms", 0)])
            .point_at(
                "long",
                &[("harvest_uw", 1), ("task_ms", 0)],
                SimTime::from_secs(20),
            );
        assert_eq!(spec.points()[0].horizon, None);
        assert_eq!(
            spec.points()[1].horizon_or(spec.horizon()),
            SimTime::from_secs(20)
        );
        let report = summaries(&spec, 0);
        let default = &report.get("default").unwrap().summary;
        let long = &report.get("long").unwrap().summary;
        assert!(default.end >= SimTime::from_secs(5) && default.end < SimTime::from_secs(20));
        assert!(long.end >= SimTime::from_secs(20));
        assert!(long.completions > default.completions);
    }

    #[test]
    fn extract_observes_the_finished_simulator() {
        let spec = SweepSpec::new("extract", SimTime::from_secs(10))
            .axis("harvest_uw", &[2_000.0, 10_000.0]);
        let (report, counts) = run_sweep_on(
            &spec,
            0,
            |p| sampler(p.expect_axis("harvest_uw"), 10),
            |sim, _point| sim.ctx().n.get(),
        );
        // The extract ran after the engine advanced to the horizon, so it
        // sees the final committed count — which matches the summary.
        for (run, n) in report.runs.iter().zip(&counts) {
            assert_eq!(run.summary.completions, *n);
            assert!(*n > 0);
        }
        let serial = run_sweep_on(
            &spec,
            1,
            |p| sampler(p.expect_axis("harvest_uw"), 10),
            |sim, _point| sim.ctx().n.get(),
        );
        assert_eq!(serial.0, report);
        assert_eq!(serial.1, counts);
    }

    #[test]
    fn map_on_parallelism_is_invisible() {
        // Uneven costs: early items are the slowest, so with several
        // workers they finish last — the output must still be in item
        // order, not completion order.
        let items: Vec<u64> = (0..24).collect();
        let cost = |&i: &u64| {
            let mut x = i;
            for _ in 0..(24 - i) * 20_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ i);
            }
            (i, x)
        };
        let expected: Vec<(u64, u64)> = items.iter().map(cost).collect();
        for workers in [0, 1, 8] {
            assert_eq!(map_on(&items, workers, cost), expected, "{workers} workers");
        }
        assert!(map_on(&[] as &[u64], 0, cost).is_empty());
    }

    #[test]
    fn typed_axis_round_trips_every_standard_enum() {
        use capy_power::mechanism::Mechanism;

        let spec = SweepSpec::new("axes", SimTime::ZERO)
            .axis("variant", &Variant::ALL)
            .axis("mechanism", &Mechanism::ALL)
            .axis(
                "kind",
                &[SwitchKind::NormallyOpen, SwitchKind::NormallyClosed],
            );
        assert_eq!(
            spec.points().len(),
            Variant::ALL.len() * Mechanism::ALL.len() * 2
        );
        for point in spec.points() {
            let v: Variant = point.axis("variant").unwrap();
            let m: Mechanism = point.axis("mechanism").unwrap();
            let k: SwitchKind = point.axis("kind").unwrap();
            assert_eq!(v, Variant::ALL[point.axis_index("variant").unwrap()]);
            assert_eq!(m, Mechanism::ALL[point.axis_index("mechanism").unwrap()]);
            // The label is the composition of the three fragments.
            assert_eq!(
                point.label,
                format!("{} {} {}", v.axis_label(), m.axis_label(), k.axis_label())
            );
        }
    }

    #[test]
    fn typed_axis_is_bit_compatible_with_hand_indexed_points() {
        // The typed construction must produce the same labels, indices,
        // and seeds as the hand-indexed `.point(label, [(name, i)])`
        // layout.
        let typed = SweepSpec::new("compat", SimTime::from_secs(1)).axis("variant", &Variant::ALL);
        let mut hand =
            SweepSpec::new("compat", SimTime::from_secs(1)).declare_axis("variant", &Variant::ALL);
        for (vi, v) in Variant::ALL.iter().enumerate() {
            hand = hand.point(v.label(), &[("variant", vi)]);
        }
        assert_eq!(typed.points(), hand.points());
    }

    #[test]
    fn axis_errors_name_the_point_and_the_declared_axes() {
        let spec = SweepSpec::new("errs", SimTime::ZERO).axis("variant", &Variant::ALL);
        let point = &spec.points()[0];

        let unknown = point.axis::<Variant>("varient").unwrap_err();
        let msg = unknown.to_string();
        assert!(
            msg.contains("'varient'") && msg.contains("variant"),
            "{msg}"
        );
        assert_eq!(
            unknown,
            AxisError::UnknownAxis {
                point: point.label.clone(),
                axis: "varient".into(),
                declared: vec!["variant"],
            }
        );

        let mismatch = point.axis::<SwitchKind>("variant").unwrap_err();
        assert!(
            matches!(mismatch, AxisError::TypeMismatch { .. }),
            "{mismatch}"
        );

        // A hand-built point can carry an out-of-range index or none at
        // all; both must be labeled errors, not slice panics.
        let bad = SweepSpec::new("errs", SimTime::ZERO)
            .declare_axis("variant", &Variant::ALL)
            .point("bad", &[("variant", 99)])
            .point("none", &[]);
        assert_eq!(
            bad.points()[0].axis::<Variant>("variant").unwrap_err(),
            AxisError::OutOfRange {
                point: "bad".into(),
                axis: "variant".into(),
                index: 99,
                len: Variant::ALL.len(),
            }
        );
        assert!(matches!(
            bad.points()[1].axis::<Variant>("variant").unwrap_err(),
            AxisError::MissingIndex { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "axis 'variant' index 99 out of range")]
    fn expect_axis_panics_with_the_labeled_error() {
        let spec = SweepSpec::new("panic", SimTime::ZERO)
            .declare_axis("variant", &Variant::ALL)
            .point("bad", &[("variant", 99)]);
        let _ = spec.points()[0].expect_axis::<Variant>("variant");
    }

    #[test]
    #[should_panic(expected = "axis 'variant' declared twice")]
    fn duplicate_axis_declaration_panics() {
        let _ = SweepSpec::new("dup", SimTime::ZERO)
            .axis("variant", &Variant::ALL)
            .declare_axis("variant", &Variant::ALL);
    }

    #[test]
    fn declared_axis_reaches_points_added_before_the_declaration() {
        let spec = SweepSpec::new("late", SimTime::ZERO)
            .point("first", &[("variant", 1)])
            .declare_axis("variant", &Variant::ALL);
        assert_eq!(
            spec.points()[0].axis::<Variant>("variant").unwrap(),
            Variant::ALL[1]
        );
        assert_eq!(spec.axes().len(), 1);
        assert_eq!(spec.axes()[0].name(), "variant");
        assert_eq!(spec.axes()[0].len(), Variant::ALL.len());
    }

    #[test]
    fn tally_report_is_identical_for_one_and_many_workers() {
        let spec = demo_spec();
        let tally = |point: &SweepPoint| {
            let summary = RunSummary {
                completions: point.index as u64 + 1,
                attempts: point.index as u64 + 1,
                end: SimTime::from_secs(1),
                ..RunSummary::default()
            };
            (summary, point.seed)
        };
        let (serial, seeds_serial) = run_sweep_tally_on(&spec, 1, tally);
        let (parallel, seeds_parallel) = run_sweep_tally_on(&spec, 8, tally);
        assert_eq!(serial, parallel);
        assert_eq!(seeds_serial, seeds_parallel);
        assert_eq!(serial.runs.len(), 9);
        assert_eq!(serial.total_completions(), (1..=9).sum::<u64>());
        // Wall time is stamped by the engine on every summary.
        let claimed: u64 = parallel.worker_stats.iter().map(|w| w.points).sum();
        assert_eq!(claimed, 9);
    }
}

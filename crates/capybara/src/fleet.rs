//! Fleet-scale population simulation with streaming aggregation.
//!
//! The sweep engine ([`crate::sweep`]) shards *independent* parameter
//! points; this module scales the same machinery to a **population of
//! devices** — a CapySat constellation sharing one orbital eclipse
//! trace, or a city-block sensor fleet under one solar/weather
//! environment — while keeping peak memory `O(shards)`, never
//! `O(devices)`:
//!
//! * [`FleetSpec`] describes `N` devices drawn from a **mix** of one or
//!   more [`TemplateSpec`] templates (device counts partition the index
//!   space) plus per-device perturbations (seed-derived placement,
//!   panel scale, task-rate jitter), every one reproducible from
//!   `(fleet_seed, device_index)` alone;
//! * [`SharedEnvironment`] is the correlated part: one eclipse/day-night
//!   cycle sampled per device position, fleet-wide harvest dips
//!   (weather fronts, RF outages) striking every device at the same
//!   instants, spatial shading, and optionally a **recorded harvest
//!   trace** ([`SharedEnvironment::from_trace`]) — piecewise-constant
//!   factor samples every device sees at the same instants, honoring
//!   the same `factor_at`/`valid_until` skip-ahead contract as the
//!   analytic cycle;
//! * [`run_fleet_on`] executes the population sharded on the sweep
//!   engine. Each shard **folds** its devices into a mergeable
//!   [`FleetAccumulator`] as they finish — per-device results are
//!   dropped immediately — and the shard accumulators merge into one
//!   [`FleetReport`];
//! * [`run_fleet_leg_on`] is the multi-leg variant: it additionally
//!   returns the [`FleetWear`] (all-integer per-device, per-bank deep
//!   cycle counts, assembled by device index and therefore independent
//!   of worker count and merge order) that a back-to-back second
//!   mission leg resumes from. Wear carryover is the one deliberate
//!   exception to the `O(shards)` memory bound: it stores a few words
//!   per device, opt-in, only on the leg API.
//!
//! # Determinism and the merge laws
//!
//! The report is **bit-identical for any worker count**, by two
//! reinforcing mechanisms:
//!
//! 1. The device→shard partition is a fixed striping over
//!    [`FLEET_SHARDS`] shards, independent of the worker count; workers
//!    claim whole shards dynamically, and shard accumulators merge in
//!    shard order.
//! 2. Every accumulator field is an *integer* quantity (counters,
//!    microsecond totals, nanojoule totals, sketch buckets), so
//!    [`FleetAccumulator::merge`] is a commutative, associative monoid
//!    action — the merged result is independent of how the devices were
//!    partitioned in the first place. (The streaming-vs-materialized
//!    and fold-order tests pin this stronger property directly.)
//!
//! Cross-device latency quantiles come from a [`QuantileSketch`]
//! (≤ 3.2 % relative error, constant footprint); wear-out is tracked as
//! a [`SURVIVAL_BUCKETS`]-bucket death histogram over the horizon.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capy_power::bank::{Bank, BankId};
use capy_power::harvester::Harvester;
use capy_units::rng::{derive_seed, DetRng};
use capy_units::sketch::QuantileSketch;
use capy_units::{SimDuration, SimTime, Volts, Watts};

use crate::sim::{SimContext, SimEvent, Simulator};
use crate::sweep::{map_stats, RunSummary, DEFAULT_BASE_SEED};

/// Number of shards a fleet is striped over — fixed (not derived from
/// the worker count) so the shard partition, and therefore the report,
/// is identical for any parallelism. Workers claim shards dynamically;
/// 64 shards keep every realistic core count load-balanced while peak
/// accumulator memory stays `O(64)` regardless of fleet size.
pub const FLEET_SHARDS: u64 = 64;

/// Buckets of the wear-out survival histogram: device deaths are
/// tallied into equal slices of the fleet horizon.
pub const SURVIVAL_BUCKETS: usize = 16;

/// Why a [`SharedEnvironment`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// The spatial shading strength is outside `[0, 1]`.
    ShadingOutOfRange {
        /// The rejected value.
        shading: f64,
    },
    /// A harvest trace needs at least one sample.
    EmptyTrace,
    /// The first trace sample must be at `t = 0` so the factor is
    /// defined for every instant.
    TraceMustStartAtZero {
        /// Where the first sample actually starts.
        first: SimTime,
    },
    /// Trace sample times must be strictly ascending.
    TraceNotAscending {
        /// Index of the offending sample.
        index: usize,
    },
    /// A trace factor must be finite and non-negative.
    TraceFactorOutOfRange {
        /// Index of the offending sample.
        index: usize,
        /// The rejected factor.
        factor: f64,
    },
    /// A trace file line did not parse as `<seconds> <factor>`.
    TraceSyntax {
        /// 1-based line number in the trace text.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShadingOutOfRange { shading } => {
                write!(f, "shading {shading} outside [0, 1]")
            }
            Self::EmptyTrace => write!(f, "harvest trace has no samples"),
            Self::TraceMustStartAtZero { first } => {
                write!(
                    f,
                    "harvest trace must start at t = 0 (first sample at {first:?})"
                )
            }
            Self::TraceNotAscending { index } => {
                write!(
                    f,
                    "harvest trace sample {index} is not after its predecessor"
                )
            }
            Self::TraceFactorOutOfRange { index, factor } => {
                write!(
                    f,
                    "harvest trace sample {index} factor {factor} is not finite and >= 0"
                )
            }
            Self::TraceSyntax { line, message } => {
                write!(f, "harvest trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for EnvError {}

/// Parses the `capy-trace/v1` text format: one `<seconds> <factor>`
/// pair per line, `#` comments and blank lines ignored. Returns the
/// samples as `(time, factor)` pairs ready for
/// [`SharedEnvironment::from_trace`], which performs the structural
/// validation (ordering, range, coverage of `t = 0`).
///
/// # Errors
///
/// [`EnvError::TraceSyntax`] with the 1-based line number when a line
/// is not a pair of numbers or the time is negative or non-finite.
pub fn parse_harvest_trace(text: &str) -> Result<Vec<(SimTime, f64)>, EnvError> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut parts = body.split_whitespace();
        let (Some(secs), Some(factor), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(EnvError::TraceSyntax {
                line,
                message: format!("expected `<seconds> <factor>`, got `{body}`"),
            });
        };
        let secs: f64 = secs.parse().map_err(|_| EnvError::TraceSyntax {
            line,
            message: format!("bad seconds value `{secs}`"),
        })?;
        let factor: f64 = factor.parse().map_err(|_| EnvError::TraceSyntax {
            line,
            message: format!("bad factor value `{factor}`"),
        })?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(EnvError::TraceSyntax {
                line,
                message: format!("seconds {secs} must be finite and >= 0"),
            });
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at = SimTime::from_micros((secs * 1e6).round() as u64);
        samples.push((at, factor));
    }
    Ok(samples)
}

/// The correlated environment every device of a fleet shares: one
/// eclipse/day-night cycle (phase-shifted by device placement),
/// fleet-wide harvest dips striking all devices at the same instants,
/// and spatial shading. All sampling is a pure function of
/// `(time, placement)`, so devices can be simulated in any order on any
/// worker.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedEnvironment {
    /// Eclipse/day-night period; `ZERO` disables the cycle.
    period: SimDuration,
    /// Sunlit span of the period in **integer microseconds**, computed
    /// once at construction — `factor_at` and `valid_until` share this
    /// exact boundary instead of re-deriving it from the float fraction
    /// per call (which could misplace the eclipse edge by a microsecond
    /// for long periods).
    lit_micros: u64,
    /// Fleet-wide dip onsets, sorted ascending (shared, not cloned per
    /// device).
    dips: Arc<Vec<SimTime>>,
    /// How long each dip lasts.
    dip_hold: SimDuration,
    /// Harvest multiplier while a dip is active, in `[0, 1]`.
    dip_factor: f64,
    /// Spatial shading strength in `[0, 1]`: a device at placement `p`
    /// harvests `1 − shading · p` of nominal.
    shading: f64,
    /// Recorded harvest trace: piecewise-constant `(start, factor)`
    /// samples, strictly ascending from `t = 0`, shared by every device
    /// (empty = no trace). Each sample's factor holds until the next
    /// sample's start; the last holds forever.
    trace: Arc<Vec<(SimTime, f64)>>,
}

/// Quantizes a `[0, 1]` fraction to parts-per-billion: the single
/// float→integer conversion the environment performs, so every later
/// boundary computation is pure integer arithmetic.
fn fraction_ppb(fraction: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ppb = (fraction * 1e9).round().clamp(0.0, 1e9) as u64;
    ppb
}

/// `micros × ppb / 1e9` in 128-bit integer arithmetic (exact, no float
/// round-trip).
fn scale_micros(micros: u64, ppb: u64) -> u64 {
    #[allow(clippy::cast_possible_truncation)]
    let scaled = ((u128::from(micros) * u128::from(ppb)) / 1_000_000_000) as u64;
    scaled
}

impl SharedEnvironment {
    /// A featureless environment: full sun, no cycle, no dips.
    #[must_use]
    pub fn steady() -> Self {
        Self {
            period: SimDuration::ZERO,
            lit_micros: 0,
            dips: Arc::new(Vec::new()),
            dip_hold: SimDuration::ZERO,
            dip_factor: 1.0,
            shading: 0.0,
            trace: Arc::new(Vec::new()),
        }
    }

    /// An orbital (or diurnal) cycle: each device sees `sunlit`
    /// fraction of `period` lit and the rest dark, phase-shifted by its
    /// placement (devices at different positions enter eclipse at
    /// different instants, but the *trace* is the one shared cycle).
    ///
    /// The lit window is fixed here, once, in integer microseconds
    /// (`sunlit` quantized to parts-per-billion) — the boundary-
    /// exactness test pins that `factor_at` flips exactly at it.
    ///
    /// # Panics
    ///
    /// When `sunlit` is outside `[0, 1]`.
    #[must_use]
    pub fn orbital(period: SimDuration, sunlit: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sunlit),
            "sunlit {sunlit} outside [0, 1]"
        );
        Self {
            period,
            lit_micros: scale_micros(period.as_micros(), fraction_ppb(sunlit)),
            ..Self::steady()
        }
    }

    /// An environment driven by a recorded harvest trace: every device
    /// sees `factor` from each sample's start until the next sample's
    /// start (the last sample holds forever). Composes with
    /// [`Self::with_dips`] and [`Self::shading`]; the trace is the
    /// correlated "weather" every device shares, like the dip stream.
    ///
    /// # Errors
    ///
    /// [`EnvError::EmptyTrace`], [`EnvError::TraceMustStartAtZero`],
    /// [`EnvError::TraceNotAscending`], or
    /// [`EnvError::TraceFactorOutOfRange`] when the samples do not form
    /// a valid piecewise-constant trace.
    pub fn from_trace(samples: Vec<(SimTime, f64)>) -> Result<Self, EnvError> {
        Self::steady().with_trace(samples)
    }

    /// Installs a recorded harvest trace on this environment (see
    /// [`Self::from_trace`]).
    ///
    /// # Errors
    ///
    /// As [`Self::from_trace`].
    pub fn with_trace(mut self, samples: Vec<(SimTime, f64)>) -> Result<Self, EnvError> {
        let Some(&(first, _)) = samples.first() else {
            return Err(EnvError::EmptyTrace);
        };
        if first != SimTime::ZERO {
            return Err(EnvError::TraceMustStartAtZero { first });
        }
        for (index, window) in samples.windows(2).enumerate() {
            if window[1].0 <= window[0].0 {
                return Err(EnvError::TraceNotAscending { index: index + 1 });
            }
        }
        for (index, &(_, factor)) in samples.iter().enumerate() {
            if !factor.is_finite() || factor < 0.0 {
                return Err(EnvError::TraceFactorOutOfRange { index, factor });
            }
        }
        self.trace = Arc::new(samples);
        Ok(self)
    }

    /// Adds `count` correlated fleet-wide harvest dips (weather fronts,
    /// interference bursts): onsets are derived from `seed` with mean
    /// spacing `mean_gap`, each holding for `hold` at `factor`× nominal
    /// harvest. Every device sees the same dip instants — the
    /// correlated-event-stream half of the shared environment.
    ///
    /// # Panics
    ///
    /// When `factor` is outside `[0, 1]` or `mean_gap` is zero with a
    /// nonzero `count`.
    #[must_use]
    pub fn with_dips(
        mut self,
        seed: u64,
        count: usize,
        mean_gap: SimDuration,
        hold: SimDuration,
        factor: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&factor),
            "dip factor {factor} outside [0, 1]"
        );
        assert!(
            count == 0 || mean_gap > SimDuration::ZERO,
            "mean_gap must be positive"
        );
        let mut rng = DetRng::seed_from_u64(seed);
        let mut at = SimTime::ZERO;
        let mut dips = Vec::with_capacity(count);
        let gap_us = mean_gap.as_micros();
        for _ in 0..count {
            // Uniform gap in [gap/2, 3·gap/2): mean `mean_gap`, and the
            // half-gap floor keeps dips from overlapping for any
            // hold <= mean_gap/2.
            let gap = rng.gen_range((gap_us / 2).max(1)..(gap_us + gap_us / 2).max(2));
            at = at.saturating_add(SimDuration::from_micros(gap).saturating_add(hold));
            dips.push(at);
        }
        self.dips = Arc::new(dips);
        self.dip_hold = hold;
        self.dip_factor = factor;
        self
    }

    /// Sets the spatial shading strength (`[0, 1]`): a device at
    /// placement `p` harvests `1 − shading · p` of nominal.
    ///
    /// # Errors
    ///
    /// [`EnvError::ShadingOutOfRange`] when `shading` is outside
    /// `[0, 1]`.
    pub fn shading(mut self, shading: f64) -> Result<Self, EnvError> {
        if !(0.0..=1.0).contains(&shading) {
            return Err(EnvError::ShadingOutOfRange { shading });
        }
        self.shading = shading;
        Ok(self)
    }

    /// This device's phase offset into the shared cycle, from its
    /// placement — the same ppb quantization as the lit window, so the
    /// offset is exact for every placement.
    fn phase_offset(&self, placement: f64) -> u64 {
        scale_micros(self.period.as_micros(), fraction_ppb(placement))
    }

    /// The dip active at `t`, if any: the last dip with onset `<= t`
    /// that is still holding.
    fn active_dip(&self, t: SimTime) -> Option<SimTime> {
        let i = self.dips.partition_point(|&d| d <= t);
        let onset = *self.dips.get(i.checked_sub(1)?)?;
        (t < onset.saturating_add(self.dip_hold)).then_some(onset)
    }

    /// Index of the trace sample in effect at `t` (callers guarantee a
    /// non-empty trace; the first sample starts at `t = 0`).
    fn trace_index(&self, t: SimTime) -> usize {
        self.trace.partition_point(|&(at, _)| at <= t) - 1
    }

    /// The harvest multiplier a device at `placement` sees at `t`:
    /// `0` in eclipse, otherwise spatial shading × recorded trace ×
    /// any active dip.
    #[must_use]
    pub fn factor_at(&self, t: SimTime, placement: f64) -> f64 {
        if self.period > SimDuration::ZERO {
            let phase = (t.as_micros() + self.phase_offset(placement)) % self.period.as_micros();
            if phase >= self.lit_micros {
                return 0.0;
            }
        }
        // Shading strength is validated to [0, 1], but placements may
        // legitimately reach 1.0 and floats accumulate — never let a
        // negative multiplier escape to the harvester.
        let mut f = (1.0 - self.shading * placement).max(0.0);
        if !self.trace.is_empty() {
            f *= self.trace[self.trace_index(t)].1;
        }
        if self.active_dip(t).is_some() {
            f *= self.dip_factor;
        }
        f
    }

    /// The earliest instant after `t` at which [`Self::factor_at`] may
    /// change for a device at `placement` — the piecewise-constant
    /// contract the [`Harvester`] trait needs for analytic charging.
    /// With a recorded trace installed, the factor is constant between
    /// consecutive sample starts, so a long constant trace interval
    /// still charges in O(1) analytic segments.
    #[must_use]
    pub fn valid_until(&self, t: SimTime, placement: f64) -> SimTime {
        let mut next = SimTime::MAX;
        if self.period > SimDuration::ZERO {
            let p = self.period.as_micros();
            let phase = (t.as_micros() + self.phase_offset(placement)) % p;
            let lit = self.lit_micros;
            let to_boundary = if phase < lit { lit - phase } else { p - phase };
            next = next.min(t.saturating_add(SimDuration::from_micros(to_boundary.max(1))));
        }
        if !self.trace.is_empty() {
            if let Some(&(upcoming, _)) = self.trace.get(self.trace_index(t) + 1) {
                next = next.min(upcoming);
            }
        }
        if let Some(onset) = self.active_dip(t) {
            next = next.min(onset.saturating_add(self.dip_hold));
        } else {
            let i = self.dips.partition_point(|&d| d <= t);
            if let Some(&upcoming) = self.dips.get(i) {
                next = next.min(upcoming);
            }
        }
        next
    }

    /// The eclipse period, if this environment repeats it around `t` for
    /// a device at `placement` (see [`Harvester::period`]): `Some((p,
    /// until))` when no dip starts or ends and no trace sample begins in
    /// `(t − p, t]`. The harvest then repeats until the last eclipse edge
    /// at or before the next such event (`SimTime::MAX` when there is
    /// none): up to there the dips and the trace hold still, and every
    /// segment edge is an eclipse edge. With no eclipse cycle, `None`.
    #[must_use]
    pub fn period(&self, t: SimTime, placement: f64) -> Option<(SimDuration, SimTime)> {
        if self.period == SimDuration::ZERO {
            return None;
        }
        // The first dip onset, dip end or trace sample after `t − p`.
        let from = t.saturating_sub(self.period);
        let onset = self.dips.partition_point(|&d| d <= from);
        let end = self
            .dips
            .partition_point(|&d| d.saturating_add(self.dip_hold) <= from);
        let sample = self.trace.partition_point(|&(at, _)| at <= from);
        let next = [
            self.dips.get(onset).copied(),
            self.dips.get(end).map(|&d| d.saturating_add(self.dip_hold)),
            self.trace.get(sample).map(|&(at, _)| at),
        ]
        .into_iter()
        .flatten()
        .min();
        let until = next.map_or(SimTime::MAX, |next| {
            // Back from `next` to the eclipse edge at or before it.
            let phase = (next.as_micros() + self.phase_offset(placement)) % self.period.as_micros();
            let back = if phase >= self.lit_micros {
                phase - self.lit_micros
            } else {
                phase
            };
            next.saturating_sub(SimDuration::from_micros(back))
        });
        (until > t).then_some((self.period, until))
    }
}

/// Wraps any harvester with a device's panel scale and the fleet's
/// shared environment: the inner source modulated by
/// `panel_scale × factor_at(t, placement)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHarvester<H> {
    inner: H,
    panel_scale: f64,
    env: SharedEnvironment,
    placement: f64,
}

impl<H: Harvester> FleetHarvester<H> {
    /// Wraps `inner` for the device at `placement` with `panel_scale`.
    #[must_use]
    pub fn new(inner: H, panel_scale: f64, env: SharedEnvironment, placement: f64) -> Self {
        Self {
            inner,
            panel_scale,
            env,
            placement,
        }
    }
}

impl<H: Harvester> Harvester for FleetHarvester<H> {
    fn power_at(&self, t: SimTime) -> Watts {
        self.inner.power_at(t) * (self.panel_scale * self.env.factor_at(t, self.placement))
    }

    fn valid_until(&self, t: SimTime) -> SimTime {
        self.inner
            .valid_until(t)
            .min(self.env.valid_until(t, self.placement))
    }

    fn open_voltage(&self, t: SimTime) -> Volts {
        // In eclipse (or a total dip), or with a dead panel
        // (`panel_scale == 0`), the panel floats at zero: the bypass
        // path must not see the inner source's voltage. The darkness
        // test is the same product the power path uses.
        if self.panel_scale * self.env.factor_at(t, self.placement) <= 0.0 {
            Volts::ZERO
        } else {
            self.inner.open_voltage(t)
        }
    }

    /// The environment's eclipse period, while the inner source holds
    /// still across all it covers.
    fn period(&self, t: SimTime) -> Option<(SimDuration, SimTime)> {
        let (p, until) = self.env.period(t, self.placement)?;
        (self.inner.valid_until(t.saturating_sub(p)) >= until).then_some((p, until))
    }
}

/// One device of the fleet, fully derived from
/// `(fleet_seed, device_index)` — the seeded-loop property test pins
/// that nothing else (fleet size, horizon, name) leaks in.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePoint {
    /// The device's index in `0..devices`.
    pub index: u64,
    /// The device's own deterministic seed,
    /// `derive_seed(fleet_seed, index)`.
    pub seed: u64,
    /// Which [`TemplateSpec`] of the fleet's mix this device is drawn
    /// from (index into [`FleetSpec::templates`]; `0` for homogeneous
    /// fleets).
    pub template: usize,
    /// Position in the shared environment, in `[0, 1)`: phase into the
    /// eclipse cycle and shading coordinate.
    pub placement: f64,
    /// Panel/harvester scale, `1 ± panel_jitter`.
    pub panel_scale: f64,
    /// Task-rate scale, `1 ± rate_jitter`: `> 1` means the device runs
    /// its workload faster (shorter sleeps).
    pub task_rate_scale: f64,
}

/// One template of a fleet mix: a named device class and its count.
/// The caller's device closure dispatches on [`DevicePoint::template`]
/// to give each class its own mode table, tasks, and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateSpec {
    name: &'static str,
    count: u64,
}

impl TemplateSpec {
    /// A template named `name` contributing `count` devices.
    #[must_use]
    pub fn new(name: &'static str, count: u64) -> Self {
        Self { name, count }
    }

    /// The template's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Devices this template contributes to the fleet.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// A population of devices drawn from a mix of perturbed templates
/// under a [`SharedEnvironment`]. Template counts partition the device
/// index space in declaration order — indices `[0, c₀)` belong to
/// template 0, `[c₀, c₀+c₁)` to template 1, and so on — so appending a
/// template never reshuffles the devices already in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    name: &'static str,
    fleet_seed: u64,
    horizon: SimTime,
    env: SharedEnvironment,
    mix: Vec<TemplateSpec>,
    panel_jitter: f64,
    rate_jitter: f64,
}

impl FleetSpec {
    /// A homogeneous fleet of `devices` devices named `name`, simulated
    /// to `horizon`, with no jitter and a steady environment.
    #[must_use]
    pub fn new(name: &'static str, devices: u64, horizon: SimTime) -> Self {
        Self::mixed(name, horizon, vec![TemplateSpec::new(name, devices)])
    }

    /// A heterogeneous fleet drawn from `templates` (device counts in
    /// declaration order), named `name`, simulated to `horizon`.
    ///
    /// # Panics
    ///
    /// When `templates` is empty.
    #[must_use]
    pub fn mixed(name: &'static str, horizon: SimTime, templates: Vec<TemplateSpec>) -> Self {
        assert!(!templates.is_empty(), "a fleet needs at least one template");
        Self {
            name,
            fleet_seed: DEFAULT_BASE_SEED,
            horizon,
            env: SharedEnvironment::steady(),
            mix: templates,
            panel_jitter: 0.0,
            rate_jitter: 0.0,
        }
    }

    /// Sets the fleet seed every per-device stream derives from.
    #[must_use]
    pub fn fleet_seed(mut self, seed: u64) -> Self {
        self.fleet_seed = seed;
        self
    }

    /// Sets the fleet's relative panel-scale jitter (`0.1` → scales
    /// uniform in `[0.9, 1.1)`).
    ///
    /// # Panics
    ///
    /// When `jitter` is outside `[0, 1]`.
    #[must_use]
    pub fn panel_jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "panel jitter {jitter} outside [0, 1]"
        );
        self.panel_jitter = jitter;
        self
    }

    /// Sets the fleet's relative task-rate jitter (`0.1` → rate scales
    /// uniform in `[0.9, 1.1)`).
    ///
    /// # Panics
    ///
    /// When `jitter` is outside `[0, 1]`.
    #[must_use]
    pub fn rate_jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "rate jitter {jitter} outside [0, 1]"
        );
        self.rate_jitter = jitter;
        self
    }

    /// Sets the shared environment.
    #[must_use]
    pub fn environment(mut self, env: SharedEnvironment) -> Self {
        self.env = env;
        self
    }

    /// Replaces the horizon (the fleet policy sweep runs the same fleet
    /// to per-scenario horizons).
    #[must_use]
    pub fn at_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// The fleet's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total number of devices across the mix.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.mix.iter().map(TemplateSpec::count).sum()
    }

    /// The fleet seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.fleet_seed
    }

    /// The simulation horizon every device runs to.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The shared environment.
    #[must_use]
    pub fn env(&self) -> &SharedEnvironment {
        &self.env
    }

    /// The template mix, in device-index order.
    #[must_use]
    pub fn templates(&self) -> &[TemplateSpec] {
        &self.mix
    }

    /// Which template owns device `index` (cumulative-count partition
    /// of the index space).
    ///
    /// # Panics
    ///
    /// When `index` is outside the fleet.
    #[must_use]
    pub fn template_of(&self, index: u64) -> usize {
        let mut start = 0u64;
        for (ti, t) in self.mix.iter().enumerate() {
            if index < start + t.count {
                return ti;
            }
            start += t.count;
        }
        panic!("device index {index} outside fleet of {}", self.devices());
    }

    /// Derives device `index` — a pure function of
    /// `(fleet_seed, index)` plus the fleet's jitter amplitudes;
    /// independent of the fleet's total size, horizon, and name, so
    /// growing a fleet (or appending templates) never reshuffles the
    /// devices already in it.
    #[must_use]
    pub fn device(&self, index: u64) -> DevicePoint {
        let template = self.template_of(index);
        let seed = derive_seed(self.fleet_seed, index);
        let mut rng = DetRng::seed_from_u64(seed);
        // Draw order is part of the protocol: placement, panel, rate.
        let placement = rng.gen_f64();
        let panel_scale = 1.0 + self.panel_jitter * (2.0 * rng.gen_f64() - 1.0);
        let task_rate_scale = 1.0 + self.rate_jitter * (2.0 * rng.gen_f64() - 1.0);
        DevicePoint {
            index,
            seed,
            template,
            placement,
            panel_scale,
            task_rate_scale,
        }
    }

    /// Wraps a template harvester for device `point`.
    #[must_use]
    pub fn harvester_for<H: Harvester>(&self, inner: H, point: &DevicePoint) -> FleetHarvester<H> {
        FleetHarvester::new(inner, point.panel_scale, self.env.clone(), point.placement)
    }
}

/// What one device's run contributes to the fleet aggregate. Built by
/// the caller's device closure (usually via [`DeviceOutcome::from_sim`])
/// and folded into a [`FleetAccumulator`] immediately — never stored
/// per device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// The run's standard observability record.
    pub summary: RunSummary,
    /// Per-event latencies (for the cross-device quantile sketch). The
    /// [`DeviceOutcome::from_sim`] convention records each on-path
    /// charge pause — the outage a device-side event waits out.
    pub latencies: Vec<SimDuration>,
    /// The instant the device died (first bank failure or stall), if it
    /// did — feeds the wear-out survival histogram.
    pub death: Option<SimTime>,
    /// Per-task committed completions, template task order (may be
    /// empty when the caller does not track tasks).
    pub task_completions: Vec<u64>,
}

impl DeviceOutcome {
    /// Extracts the standard outcome from a finished simulator: the
    /// run summary, one latency per on-path charge pause, and the first
    /// bank-failure/stall instant as the death time.
    #[must_use]
    pub fn from_sim<H: Harvester, C: SimContext>(sim: &Simulator<H, C>) -> Self {
        let summary = RunSummary::from_sim(sim, Duration::ZERO);
        let mut latencies = Vec::new();
        let mut death = None;
        for e in sim.events() {
            if let Some(pause) = e.on_path_pause() {
                latencies.push(pause);
            } else if let SimEvent::BankFailed { at, .. } | SimEvent::Stalled { at } = e {
                death = death.or(Some(*at));
            }
        }
        Self {
            summary,
            latencies,
            death,
            task_completions: Vec::new(),
        }
    }

    /// Attaches per-task completion counts (template task order).
    #[must_use]
    pub fn with_task_completions(mut self, completions: Vec<u64>) -> Self {
        self.task_completions = completions;
        self
    }
}

/// The all-integer wear one device carries between mission legs: its
/// per-bank deep-discharge cycle counts, in [`BankId`] order. Integer
/// counts (not float deratings) are the carried state so the round trip
/// is exact: leg 2 seeds the counts and re-derives the electrical
/// derating from the installed wear model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceWear {
    /// Deep-discharge cycles per bank, `BankId` order.
    pub bank_cycles: Vec<u64>,
}

impl DeviceWear {
    /// No wear (a fresh device, or a caller that does not track wear).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when every bank is fresh.
    #[must_use]
    pub fn is_fresh(&self) -> bool {
        self.bank_cycles.iter().all(|&c| c == 0)
    }

    /// Reads the wear out of a finished simulator.
    #[must_use]
    pub fn from_sim<H: Harvester, C: SimContext>(sim: &Simulator<H, C>) -> Self {
        let power = sim.power();
        let bank_cycles = (0..power.bank_count())
            .map(|i| power.bank(BankId(i)).map_or(0, Bank::cycles))
            .collect();
        Self { bank_cycles }
    }

    /// Seeds a freshly-built simulator's banks with this wear before
    /// the leg starts (see
    /// [`seed_wear`](capy_power::system::PowerSystem::seed_wear)).
    pub fn apply<H: Harvester, C: SimContext>(&self, sim: &mut Simulator<H, C>) {
        sim.power_mut().seed_wear(&self.bank_cycles);
    }
}

/// Per-device wear for a whole fleet, indexed by global device index —
/// what one mission leg hands the next. Assembly scatters each shard's
/// entries to their index positions, so the structure is bit-identical
/// for any worker count and independent of merge order (pinned by
/// test). This is the one deliberate `O(devices)` structure in the
/// module: a few words per device, produced only by the opt-in leg API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWear {
    devices: Vec<DeviceWear>,
}

impl FleetWear {
    /// Wear for `devices` fresh devices (the implicit carry-in of a
    /// first leg).
    #[must_use]
    pub fn fresh(devices: u64) -> Self {
        Self {
            devices: vec![DeviceWear::none(); usize::try_from(devices).unwrap_or(usize::MAX)],
        }
    }

    /// Number of devices tracked.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.devices.len() as u64
    }

    /// The wear of device `index`.
    ///
    /// # Panics
    ///
    /// When `index` is outside the fleet.
    #[must_use]
    pub fn device(&self, index: u64) -> &DeviceWear {
        &self.devices[usize::try_from(index).expect("device index fits usize")]
    }

    /// Total deep-discharge cycles across the fleet (telemetry).
    #[must_use]
    pub fn total_cycles(&self) -> u128 {
        self.devices
            .iter()
            .flat_map(|d| d.bank_cycles.iter())
            .map(|&c| u128::from(c))
            .sum()
    }
}

/// The streaming fleet aggregate: every field is an **integer**
/// quantity, so [`FleetAccumulator::merge`] is commutative and
/// associative and the merged result is independent of how devices were
/// partitioned across workers. Footprint is constant in the device
/// count (the memory-bound test pins [`Self::footprint_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAccumulator {
    /// Devices folded in.
    pub devices: u64,
    /// Summed [`RunSummary::boots`].
    pub boots: u64,
    /// Summed on-path charge pauses.
    pub charges: u64,
    /// Summed burst pre-charges.
    pub precharges: u64,
    /// Summed reconfigurations.
    pub reconfigurations: u64,
    /// Summed burst activations.
    pub bursts: u64,
    /// Summed intermittent power failures.
    pub power_failures: u64,
    /// Summed retired banks.
    pub bank_failures: u64,
    /// Summed mode remaps.
    pub mode_remaps: u64,
    /// Summed task attempts.
    pub attempts: u64,
    /// Summed committed completions.
    pub completions: u64,
    /// Summed power-failure-truncated attempts.
    pub failures: u64,
    /// Summed reboots.
    pub reboots: u64,
    /// Devices whose run ended in a harvester stall.
    pub stalled_devices: u64,
    /// Devices that died (bank failure or stall) before the horizon.
    pub dead_devices: u64,
    /// Total simulated charging time, integer microseconds.
    pub charge_micros: u128,
    /// Total simulated device time, integer microseconds.
    pub end_micros: u128,
    /// Total delivered energy, integer nanojoules (rounded once per
    /// device, then summed exactly).
    pub delivered_nanojoules: u128,
    /// Cross-device event-latency sketch (integer microseconds).
    pub latency: QuantileSketch,
    /// Wear-out deaths per horizon bucket.
    pub survival: [u64; SURVIVAL_BUCKETS],
    /// Per-task completions, template task order (grown to the longest
    /// outcome seen; absent tasks count 0).
    pub task_completions: Vec<u64>,
    /// Fewest completions any single device committed (`u64::MAX` when
    /// empty).
    pub min_device_completions: u64,
    /// Most completions any single device committed.
    pub max_device_completions: u64,
}

impl Default for FleetAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetAccumulator {
    /// An empty accumulator (the monoid identity: merging it changes
    /// nothing).
    #[must_use]
    pub fn new() -> Self {
        Self {
            devices: 0,
            boots: 0,
            charges: 0,
            precharges: 0,
            reconfigurations: 0,
            bursts: 0,
            power_failures: 0,
            bank_failures: 0,
            mode_remaps: 0,
            attempts: 0,
            completions: 0,
            failures: 0,
            reboots: 0,
            stalled_devices: 0,
            dead_devices: 0,
            charge_micros: 0,
            end_micros: 0,
            delivered_nanojoules: 0,
            latency: QuantileSketch::new(),
            survival: [0; SURVIVAL_BUCKETS],
            task_completions: Vec::new(),
            min_device_completions: u64::MAX,
            max_device_completions: 0,
        }
    }

    /// Folds one device's outcome in. `horizon` scales the survival
    /// histogram's buckets.
    pub fn fold(&mut self, horizon: SimTime, outcome: &DeviceOutcome) {
        let s = &outcome.summary;
        self.devices += 1;
        self.boots += s.boots;
        self.charges += s.charges;
        self.precharges += s.precharges;
        self.reconfigurations += s.reconfigurations;
        self.bursts += s.bursts;
        self.power_failures += s.power_failures;
        self.bank_failures += s.bank_failures;
        self.mode_remaps += s.mode_remaps;
        self.attempts += s.attempts;
        self.completions += s.completions;
        self.failures += s.failures;
        self.reboots += s.reboots;
        self.stalled_devices += u64::from(s.stalled);
        self.charge_micros += u128::from(s.charge_time.as_micros());
        self.end_micros += u128::from(s.end.as_micros());
        // Round once per device, sum exactly: integer addition keeps
        // the total independent of fold order.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let nj = (s.delivered_energy.get() * 1e9).round().max(0.0) as u128;
        self.delivered_nanojoules += nj;
        for l in &outcome.latencies {
            self.latency.record(l.as_micros());
        }
        if let Some(death) = outcome.death {
            self.dead_devices += 1;
            let h = horizon.as_micros().max(1);
            let bucket = ((death.as_micros().min(h - 1) as u128 * SURVIVAL_BUCKETS as u128)
                / u128::from(h)) as usize;
            self.survival[bucket.min(SURVIVAL_BUCKETS - 1)] += 1;
        }
        if self.task_completions.len() < outcome.task_completions.len() {
            self.task_completions
                .resize(outcome.task_completions.len(), 0);
        }
        for (acc, n) in self
            .task_completions
            .iter_mut()
            .zip(&outcome.task_completions)
        {
            *acc += n;
        }
        self.min_device_completions = self.min_device_completions.min(s.completions);
        self.max_device_completions = self.max_device_completions.max(s.completions);
    }

    /// Merges another accumulator in: elementwise integer addition plus
    /// `min`/`max` — commutative and associative, so any partition of
    /// the fleet merges to the same result.
    pub fn merge(&mut self, other: &Self) {
        self.devices += other.devices;
        self.boots += other.boots;
        self.charges += other.charges;
        self.precharges += other.precharges;
        self.reconfigurations += other.reconfigurations;
        self.bursts += other.bursts;
        self.power_failures += other.power_failures;
        self.mode_remaps += other.mode_remaps;
        self.bank_failures += other.bank_failures;
        self.attempts += other.attempts;
        self.completions += other.completions;
        self.failures += other.failures;
        self.reboots += other.reboots;
        self.stalled_devices += other.stalled_devices;
        self.dead_devices += other.dead_devices;
        self.charge_micros += other.charge_micros;
        self.end_micros += other.end_micros;
        self.delivered_nanojoules += other.delivered_nanojoules;
        self.latency.merge(&other.latency);
        for (a, b) in self.survival.iter_mut().zip(&other.survival) {
            *a += b;
        }
        if self.task_completions.len() < other.task_completions.len() {
            self.task_completions
                .resize(other.task_completions.len(), 0);
        }
        for (a, b) in self
            .task_completions
            .iter_mut()
            .zip(&other.task_completions)
        {
            *a += b;
        }
        self.min_device_completions = self
            .min_device_completions
            .min(other.min_device_completions);
        self.max_device_completions = self
            .max_device_completions
            .max(other.max_device_completions);
    }

    /// Fleet availability: the fraction of total simulated device time
    /// not spent charging, computed from the exact integer totals.
    /// `1.0` when nothing has been simulated.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.end_micros == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let frac = self.charge_micros as f64 / self.end_micros as f64;
        1.0 - frac
    }

    /// The accumulator's total footprint in bytes — constant in the
    /// number of devices folded (the `O(workers)`-memory claim, pinned
    /// by test).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.latency.footprint_bytes()
            + self.task_completions.capacity() * std::mem::size_of::<u64>()
    }
}

/// The merged result of a fleet run. Equality covers the aggregate and
/// the fleet identity; worker count and wall time are telemetry,
/// excluded exactly as in [`crate::sweep::SweepReport`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The fleet's name.
    pub name: &'static str,
    /// Devices simulated.
    pub devices: u64,
    /// The horizon every device ran to.
    pub horizon: SimTime,
    /// The merged aggregate.
    pub acc: FleetAccumulator,
    /// Worker threads actually used: the requested count (`0` resolved
    /// to [`available_workers`](crate::sweep::available_workers))
    /// clamped to the number of shards (excluded from equality).
    pub workers: usize,
    /// Host wall-clock time (excluded from equality).
    pub wall: Duration,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.devices == other.devices
            && self.horizon == other.horizon
            && self.acc == other.acc
    }
}

impl FleetReport {
    /// Fleet availability (see [`FleetAccumulator::availability`]).
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.acc.availability()
    }

    /// The cross-device `q`-quantile event latency, within the sketch's
    /// 3.2 % relative error bound. `None` when no latencies were
    /// recorded.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<SimDuration> {
        self.acc.latency.quantile(q).map(SimDuration::from_micros)
    }

    /// The wear-out survival curve: the fraction of the fleet still
    /// alive at the *end* of each of the [`SURVIVAL_BUCKETS`] horizon
    /// slices.
    #[must_use]
    pub fn survival_curve(&self) -> [f64; SURVIVAL_BUCKETS] {
        let mut curve = [1.0; SURVIVAL_BUCKETS];
        if self.devices == 0 {
            return curve;
        }
        let mut dead = 0u64;
        for (i, &deaths) in self.acc.survival.iter().enumerate() {
            dead += deaths;
            #[allow(clippy::cast_precision_loss)]
            let alive = (self.devices - dead) as f64 / self.devices as f64;
            curve[i] = alive;
        }
        curve
    }
}

/// Runs the fleet on `workers` threads (`0` = every core): devices are
/// striped over [`FLEET_SHARDS`] fixed shards, each shard folds its
/// devices into a [`FleetAccumulator`] as they finish, and the shard
/// accumulators merge in shard order — see the module docs for why the
/// result is bit-identical for any worker count.
///
/// `device_fn` simulates one device and returns its outcome; it sees
/// only the [`DevicePoint`] (and whatever template it captured), never
/// shared mutable state.
pub fn run_fleet_on<F>(spec: &FleetSpec, workers: usize, device_fn: F) -> FleetReport
where
    F: Fn(&DevicePoint) -> DeviceOutcome + Sync,
{
    run_shards(spec, workers, |device| (device_fn(device), ())).0
}

/// One leg of a multi-leg mission: like [`run_fleet_on`], but the
/// device closure additionally receives the wear its device carried out
/// of the previous leg (`carry`; fresh devices when `None`) and returns
/// the wear its device carries out of this one (usually
/// [`DeviceWear::from_sim`]) beside its outcome. The run returns the
/// [`FleetWear`] the *next* leg resumes from, assembled from those by
/// device index.
///
/// Both the report and the wear are bit-identical for any worker count:
/// the wear entries are scattered to their global index positions, so
/// no ordering from the dynamic shard claiming survives into the
/// result.
///
/// # Panics
///
/// When `carry` tracks a different device count than `spec`.
pub fn run_fleet_leg_on<F>(
    spec: &FleetSpec,
    workers: usize,
    carry: Option<&FleetWear>,
    device_fn: F,
) -> (FleetReport, FleetWear)
where
    F: Fn(&DevicePoint, &DeviceWear) -> (DeviceOutcome, DeviceWear) + Sync,
{
    if let Some(carry) = carry {
        assert_eq!(
            carry.devices(),
            spec.devices(),
            "wear carry-in tracks a different fleet size"
        );
    }
    let fresh = DeviceWear::none();
    let (report, shards) = run_shards(spec, workers, |device| {
        let carried = carry.map_or(&fresh, |w| w.device(device.index));
        let (outcome, wear) = device_fn(device, carried);
        (outcome, (device.index, wear))
    });
    let mut wear_out = FleetWear::fresh(spec.devices());
    for (index, wear) in shards.into_iter().flatten() {
        wear_out.devices[usize::try_from(index).expect("device index fits usize")] = wear;
    }
    (report, wear_out)
}

/// The shard loop behind both fleet runners. Devices are striped over
/// [`FLEET_SHARDS`] fixed shards on the sweep engine; each shard folds
/// every outcome into its accumulator and keeps the per-device value
/// `device_fn` returns beside it (`()` for a fresh run, so nothing is
/// held per device), and the accumulators merge in shard order. The
/// report's `workers` is the thread count the engine actually used.
fn run_shards<K, F>(spec: &FleetSpec, workers: usize, device_fn: F) -> (FleetReport, Vec<Vec<K>>)
where
    K: Send,
    F: Fn(&DevicePoint) -> (DeviceOutcome, K) + Sync,
{
    let started = Instant::now();
    let devices = spec.devices();
    let shards = FLEET_SHARDS.min(devices).max(1);
    let shard_ids: Vec<u64> = (0..shards).collect();
    let (results, worker_stats) = map_stats(&shard_ids, workers, |&shard| {
        let mut acc = FleetAccumulator::new();
        let mut kept = Vec::new();
        let mut index = shard;
        while index < devices {
            let (outcome, keep) = device_fn(&spec.device(index));
            acc.fold(spec.horizon, &outcome);
            kept.push(keep);
            index += shards;
        }
        (acc, kept)
    });
    let mut merged = FleetAccumulator::new();
    let mut kept = Vec::with_capacity(results.len());
    for (acc, shard_kept) in results {
        merged.merge(&acc);
        kept.push(shard_kept);
    }
    let report = FleetReport {
        name: spec.name,
        devices,
        horizon: spec.horizon,
        acc: merged,
        workers: worker_stats.len(),
        wall: started.elapsed(),
    };
    (report, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_power::harvester::ConstantHarvester;

    fn env_with_everything() -> SharedEnvironment {
        SharedEnvironment::orbital(SimDuration::from_secs(5400), 0.62)
            .with_dips(
                9,
                4,
                SimDuration::from_secs(3000),
                SimDuration::from_secs(120),
                0.3,
            )
            .shading(0.4)
            .unwrap()
    }

    #[test]
    fn steady_environment_is_transparent() {
        let env = SharedEnvironment::steady();
        assert_eq!(env.factor_at(SimTime::from_secs(100), 0.7), 1.0);
        assert_eq!(env.valid_until(SimTime::from_secs(100), 0.7), SimTime::MAX);
    }

    #[test]
    fn eclipse_cycle_alternates_and_is_phase_shifted() {
        let env = SharedEnvironment::orbital(SimDuration::from_secs(100), 0.5);
        // Device at placement 0: lit for the first 50 s of each period.
        assert!(env.factor_at(SimTime::from_secs(10), 0.0) > 0.0);
        assert_eq!(env.factor_at(SimTime::from_secs(60), 0.0), 0.0);
        // A device half a period away sees the opposite.
        assert_eq!(env.factor_at(SimTime::from_secs(10), 0.5), 0.0);
        assert!(env.factor_at(SimTime::from_secs(60), 0.5) > 0.0);
    }

    #[test]
    fn valid_until_is_piecewise_constant() {
        let env = env_with_everything();
        // Walk boundary to boundary for a while: the factor must be
        // constant strictly inside each segment.
        let placement = 0.37;
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            let until = env.valid_until(t, placement);
            assert!(until > t);
            if until == SimTime::MAX {
                break;
            }
            let f = env.factor_at(t, placement);
            let span = until - t;
            let mid = t.saturating_add(span / 2);
            let probe = env.factor_at(mid, placement);
            assert!(
                (f - probe).abs() < 1e-12,
                "factor changed inside [{t:?}, {until:?}): {f} -> {probe}"
            );
            t = until;
        }
    }

    #[test]
    fn dips_strike_every_placement_at_the_same_instants() {
        let env = SharedEnvironment::steady().with_dips(
            3,
            5,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            0.5,
        );
        let onset = env.dips[0];
        for placement in [0.0, 0.3, 0.9] {
            let during = env.factor_at(onset, placement);
            let before = env.factor_at(onset.saturating_sub(SimDuration::from_secs(1)), placement);
            assert!((during - before * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn fleet_harvester_scales_and_gates_voltage() {
        let inner = ConstantHarvester::new(Watts::from_milli(10.0), Volts::new(3.0));
        let env = SharedEnvironment::orbital(SimDuration::from_secs(100), 0.5);
        let h = FleetHarvester::new(inner, 0.8, env, 0.0);
        let lit = SimTime::from_secs(10);
        let dark = SimTime::from_secs(60);
        assert!((h.power_at(lit).get() - 0.008).abs() < 1e-12);
        assert_eq!(h.power_at(dark), Watts::ZERO);
        assert_eq!(h.open_voltage(lit), Volts::new(3.0));
        assert_eq!(h.open_voltage(dark), Volts::ZERO);
        assert!(h.valid_until(lit) <= SimTime::from_secs(50));
    }

    #[test]
    fn device_points_derive_from_seed_and_index_alone() {
        let a = FleetSpec::new("a", 10, SimTime::from_secs(60))
            .fleet_seed(42)
            .panel_jitter(0.2)
            .rate_jitter(0.1);
        let b = FleetSpec::new(
            "completely-different-name",
            1_000_000,
            SimTime::from_secs(9),
        )
        .fleet_seed(42)
        .panel_jitter(0.2)
        .rate_jitter(0.1)
        .environment(env_with_everything());
        for i in [0u64, 1, 7, 9] {
            assert_eq!(a.device(i), b.device(i));
        }
        let reseeded = FleetSpec::new("a", 10, SimTime::from_secs(60)).fleet_seed(43);
        assert_ne!(a.device(0).seed, reseeded.device(0).seed);
        let d = a.device(3);
        assert_eq!(d.seed, derive_seed(42, 3));
        assert!((0.0..1.0).contains(&d.placement));
        assert!((0.8..1.2).contains(&d.panel_scale));
        assert!((0.9..1.1).contains(&d.task_rate_scale));
    }

    fn synthetic_outcome(point: &DevicePoint) -> DeviceOutcome {
        // A cheap deterministic stand-in for a simulated device, rich
        // enough to exercise every accumulator field.
        let mut rng = DetRng::seed_from_u64(point.seed);
        let completions = rng.gen_range(5u64..50);
        let mut summary = RunSummary {
            boots: 1,
            charges: completions,
            completions,
            attempts: completions + 1,
            failures: 1,
            charge_time: SimDuration::from_millis(completions * 7),
            end: SimTime::from_secs(60),
            ..RunSummary::default()
        };
        let latencies: Vec<SimDuration> = (0..completions)
            .map(|_| SimDuration::from_micros(rng.gen_range(100u64..1_000_000)))
            .collect();
        let death = rng
            .gen_bool(0.25)
            .then(|| SimTime::from_secs(rng.gen_range(1u64..60)));
        if death.is_some() {
            summary.stalled = true;
        }
        DeviceOutcome {
            summary,
            latencies,
            death,
            task_completions: vec![completions, completions / 2],
        }
    }

    #[test]
    fn report_is_identical_for_one_and_many_workers() {
        let spec = FleetSpec::new("identity", 257, SimTime::from_secs(60))
            .fleet_seed(7)
            .panel_jitter(0.1);
        let one = run_fleet_on(&spec, 1, synthetic_outcome);
        let many = run_fleet_on(&spec, 8, synthetic_outcome);
        assert_eq!(one, many);
        assert_eq!(one.acc.devices, 257);
    }

    #[test]
    fn report_workers_counts_the_threads_actually_used() {
        // Four devices make four shards, so at most four threads run.
        let tiny = FleetSpec::new("tiny", 4, SimTime::from_secs(60)).fleet_seed(1);
        assert_eq!(run_fleet_on(&tiny, 8, synthetic_outcome).workers, 4);
        let (leg, _) = run_fleet_leg_on(&tiny, 8, None, synthetic_leg);
        assert_eq!(leg.workers, 4);
        // `0` resolves to every core, still clamped to the shard count.
        let spec = FleetSpec::new("wide", 1_000, SimTime::from_secs(60)).fleet_seed(1);
        let shards = usize::try_from(FLEET_SHARDS).unwrap();
        let expected = crate::sweep::available_workers().min(shards);
        assert_eq!(run_fleet_on(&spec, 0, synthetic_outcome).workers, expected);
        assert_eq!(run_fleet_on(&spec, 1, synthetic_outcome).workers, 1);
    }

    #[test]
    fn streaming_equals_materialized_aggregation() {
        let spec = FleetSpec::new("stream", 64, SimTime::from_secs(60)).fleet_seed(11);
        let streamed = run_fleet_on(&spec, 4, synthetic_outcome);

        // Materialize every outcome, fold serially — and in reverse —
        // into one accumulator.
        let outcomes: Vec<DeviceOutcome> = (0..spec.devices())
            .map(|i| synthetic_outcome(&spec.device(i)))
            .collect();
        let mut forward = FleetAccumulator::new();
        for o in &outcomes {
            forward.fold(spec.horizon(), o);
        }
        let mut reverse = FleetAccumulator::new();
        for o in outcomes.iter().rev() {
            reverse.fold(spec.horizon(), o);
        }
        assert_eq!(streamed.acc, forward);
        assert_eq!(streamed.acc, reverse);
    }

    #[test]
    fn accumulator_footprint_is_independent_of_devices() {
        let small_spec = FleetSpec::new("small", 8, SimTime::from_secs(60)).fleet_seed(5);
        let big_spec = FleetSpec::new("big", 4096, SimTime::from_secs(60)).fleet_seed(5);
        let small = run_fleet_on(&small_spec, 2, synthetic_outcome);
        let big = run_fleet_on(&big_spec, 2, synthetic_outcome);
        assert_eq!(small.acc.footprint_bytes(), big.acc.footprint_bytes());
        assert_eq!(big.acc.devices, 4096);
    }

    #[test]
    fn survival_curve_is_monotone_and_counts_deaths() {
        let spec = FleetSpec::new("wear", 512, SimTime::from_secs(60)).fleet_seed(3);
        let report = run_fleet_on(&spec, 4, synthetic_outcome);
        assert!(
            report.acc.dead_devices > 0,
            "the synthetic fleet must lose devices"
        );
        assert_eq!(
            report.acc.survival.iter().sum::<u64>(),
            report.acc.dead_devices
        );
        let curve = report.survival_curve();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0], "survival can only decrease");
        }
        #[allow(clippy::cast_precision_loss)]
        let final_alive = (report.devices - report.acc.dead_devices) as f64 / report.devices as f64;
        assert!((curve[SURVIVAL_BUCKETS - 1] - final_alive).abs() < 1e-12);
    }

    #[test]
    fn availability_and_quantiles_come_from_integer_totals() {
        let spec = FleetSpec::new("metrics", 100, SimTime::from_secs(60)).fleet_seed(2);
        let report = run_fleet_on(&spec, 3, synthetic_outcome);
        let a = report.availability();
        assert!(a > 0.0 && a < 1.0, "availability = {a}");
        let p50 = report.latency_quantile(0.5).unwrap();
        let p99 = report.latency_quantile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(report.acc.min_device_completions <= report.acc.max_device_completions);
        assert_eq!(report.acc.task_completions.len(), 2);
        assert_eq!(report.acc.task_completions[0], report.acc.completions);
    }

    #[test]
    fn outcome_from_sim_extracts_charge_latencies() {
        // A real (tiny) simulator: weak harvest forces charge pauses.
        use crate::annotation::TaskEnergy;
        use crate::mode::EnergyMode;
        use crate::sim::Simulator;
        use crate::variant::Variant;
        use capy_device::load::TaskLoad;
        use capy_device::mcu::Mcu;
        use capy_intermittent::nv::{NvState, NvVar};
        use capy_intermittent::task::Transition;
        use capy_power::bank::{Bank, BankId};
        use capy_power::switch::SwitchKind;
        use capy_power::system::PowerSystem;
        use capy_power::technology::parts;

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

        let power = PowerSystem::builder()
            .harvester(ConstantHarvester::new(
                Watts::from_micro(500.0),
                Volts::new(3.0),
            ))
            .bank(
                Bank::builder("small")
                    .with(parts::ceramic_x5r_400uf())
                    .build(),
                SwitchKind::NormallyClosed,
            )
            .build();
        let mut sim = Simulator::builder(Variant::CapyR, power, Mcu::msp430fr5969())
            .mode("small", &[BankId(0)])
            .task(
                "sample",
                TaskEnergy::Config(EnergyMode(0)),
                |mcu| TaskLoad::new().then(mcu.compute_for(SimDuration::from_millis(20))),
                |c: &mut Ctx| {
                    c.n.update(|x| x + 1);
                    Transition::Stay
                },
            )
            .build(Ctx { n: NvVar::new(0) });
        sim.run_until(SimTime::from_secs(30));
        let outcome = DeviceOutcome::from_sim(&sim);
        assert_eq!(outcome.summary.charges as usize, outcome.latencies.len());
        assert!(!outcome.latencies.is_empty());
        assert!(outcome.death.is_none());
        // Every deep cycle the weak harvest forced is visible as wear.
        let wear = DeviceWear::from_sim(&sim);
        assert_eq!(wear.bank_cycles.len(), 1);
        assert!(!wear.is_fresh());
    }

    #[test]
    fn eclipse_boundary_is_exact_for_long_periods() {
        // The lit window is fixed in integer micros at construction; at
        // `lit − 1 µs` the device harvests, at `lit` it is dark —
        // for periods long enough that the old per-call float
        // round-trip could land a microsecond off.
        for (period_s, sunlit) in [
            (5_400u64, 0.62),
            (86_400, 1.0 / 3.0),
            (7 * 86_400, 0.123_456_789),
            (90, 0.7),
        ] {
            let period = SimDuration::from_secs(period_s);
            let env = SharedEnvironment::orbital(period, sunlit);
            let lit = scale_micros(period.as_micros(), fraction_ppb(sunlit));
            assert!(lit > 0 && lit < period.as_micros());
            let last_lit = SimTime::from_micros(lit - 1);
            let first_dark = SimTime::from_micros(lit);
            assert!(
                env.factor_at(last_lit, 0.0) > 0.0,
                "period {period_s}s sunlit {sunlit}: dark one micro early"
            );
            assert_eq!(
                env.factor_at(first_dark, 0.0),
                0.0,
                "period {period_s}s sunlit {sunlit}: lit one micro late"
            );
            // valid_until agrees with the same integer boundary.
            assert_eq!(env.valid_until(SimTime::ZERO, 0.0), first_dark);
        }
        // A fully-sunlit period has no boundary at all.
        let full = SharedEnvironment::orbital(SimDuration::from_secs(86_400), 1.0);
        assert!(full.factor_at(SimTime::from_secs(86_399), 0.0) > 0.0);
        assert!(full.factor_at(SimTime::from_secs(86_400), 0.0) > 0.0);
    }

    #[test]
    fn shading_out_of_range_is_a_typed_error() {
        let err = SharedEnvironment::steady().shading(1.5).unwrap_err();
        assert_eq!(err, EnvError::ShadingOutOfRange { shading: 1.5 });
        let err = SharedEnvironment::steady().shading(-0.1).unwrap_err();
        assert_eq!(err, EnvError::ShadingOutOfRange { shading: -0.1 });
        assert!(SharedEnvironment::steady().shading(1.0).is_ok());
    }

    #[test]
    fn shading_term_never_goes_negative() {
        // Full shading at placement 1.0 is exactly zero harvest, and
        // float dust can never push the multiplier below it.
        let env = SharedEnvironment::steady().shading(1.0).unwrap();
        assert_eq!(env.factor_at(SimTime::from_secs(1), 1.0), 0.0);
        let almost = SharedEnvironment::steady().shading(0.999_999).unwrap();
        assert!(almost.factor_at(SimTime::from_secs(1), 1.0) >= 0.0);
    }

    #[test]
    fn dead_panel_gates_open_voltage() {
        let inner = ConstantHarvester::new(Watts::from_milli(10.0), Volts::new(3.0));
        let env = SharedEnvironment::steady();
        let t = SimTime::from_secs(5);
        // Healthy panel in full sun: inner voltage passes through.
        let healthy = FleetHarvester::new(inner, 1.0, env.clone(), 0.0);
        assert_eq!(healthy.open_voltage(t), Volts::new(3.0));
        // A panel_scale == 0 device is dark even in full sun: the
        // bypass path must not see the inner source.
        let dead = FleetHarvester::new(inner, 0.0, env, 0.0);
        assert_eq!(dead.open_voltage(t), Volts::ZERO);
        assert_eq!(dead.power_at(t), Watts::ZERO);
    }

    #[test]
    fn trace_validation_is_typed() {
        assert_eq!(
            SharedEnvironment::from_trace(Vec::new()).unwrap_err(),
            EnvError::EmptyTrace
        );
        assert_eq!(
            SharedEnvironment::from_trace(vec![(SimTime::from_secs(1), 0.5)]).unwrap_err(),
            EnvError::TraceMustStartAtZero {
                first: SimTime::from_secs(1)
            }
        );
        assert_eq!(
            SharedEnvironment::from_trace(vec![
                (SimTime::ZERO, 0.5),
                (SimTime::from_secs(2), 0.7),
                (SimTime::from_secs(2), 0.9),
            ])
            .unwrap_err(),
            EnvError::TraceNotAscending { index: 2 }
        );
        let err = SharedEnvironment::from_trace(vec![
            (SimTime::ZERO, 0.5),
            (SimTime::from_secs(2), -0.25),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            EnvError::TraceFactorOutOfRange {
                index: 1,
                factor: -0.25
            }
        );
    }

    #[test]
    fn trace_factor_is_piecewise_constant_with_exact_boundaries() {
        let env = SharedEnvironment::from_trace(vec![
            (SimTime::ZERO, 0.25),
            (SimTime::from_secs(100), 1.0),
            (SimTime::from_secs(250), 0.0),
            (SimTime::from_secs(400), 0.6),
        ])
        .unwrap();
        let p = 0.0;
        assert_eq!(env.factor_at(SimTime::ZERO, p), 0.25);
        assert_eq!(env.factor_at(SimTime::from_secs(99), p), 0.25);
        assert_eq!(env.factor_at(SimTime::from_secs(100), p), 1.0);
        assert_eq!(env.factor_at(SimTime::from_secs(250), p), 0.0);
        assert_eq!(env.factor_at(SimTime::from_secs(1_000_000), p), 0.6);
        // valid_until lands exactly on the next sample start, and the
        // final sample holds forever.
        assert_eq!(env.valid_until(SimTime::ZERO, p), SimTime::from_secs(100));
        assert_eq!(
            env.valid_until(SimTime::from_secs(150), p),
            SimTime::from_secs(250)
        );
        assert_eq!(env.valid_until(SimTime::from_secs(400), p), SimTime::MAX);
        // Every device sees the same trace at the same instants.
        for placement in [0.0, 0.4, 0.99] {
            assert_eq!(env.factor_at(SimTime::from_secs(150), placement), 1.0);
        }
    }

    #[test]
    fn parse_harvest_trace_reads_the_text_format() {
        let text = "# capy-trace/v1 — seconds factor\n\n0 0.1\n600 0.85  # morning\n1200\t0.3\n";
        let samples = parse_harvest_trace(text).unwrap();
        assert_eq!(
            samples,
            vec![
                (SimTime::ZERO, 0.1),
                (SimTime::from_secs(600), 0.85),
                (SimTime::from_secs(1200), 0.3),
            ]
        );
        let err = parse_harvest_trace("0 0.1\nnonsense\n").unwrap_err();
        assert!(matches!(err, EnvError::TraceSyntax { line: 2, .. }));
        let err = parse_harvest_trace("0 0.1 extra\n").unwrap_err();
        assert!(matches!(err, EnvError::TraceSyntax { line: 1, .. }));
    }

    #[test]
    fn mix_partitions_the_index_space_in_declaration_order() {
        let spec = FleetSpec::mixed(
            "mixed",
            SimTime::from_secs(60),
            vec![
                TemplateSpec::new("sensor", 3),
                TemplateSpec::new("relay", 2),
            ],
        )
        .fleet_seed(42)
        .panel_jitter(0.2);
        assert_eq!(spec.devices(), 5);
        assert_eq!(spec.templates().len(), 2);
        for i in 0..3 {
            assert_eq!(spec.device(i).template, 0);
        }
        for i in 3..5 {
            assert_eq!(spec.device(i).template, 1);
        }
        // The fleet has panel jitter only, and every template draws it.
        for i in [1, 4] {
            assert_ne!(spec.device(i).panel_scale, 1.0);
            assert_eq!(spec.device(i).task_rate_scale, 1.0);
        }
        // Appending a template never reshuffles existing devices.
        let grown = FleetSpec::mixed(
            "mixed-grown",
            SimTime::from_secs(600),
            vec![
                TemplateSpec::new("sensor", 3),
                TemplateSpec::new("relay", 2),
                TemplateSpec::new("camera", 100),
            ],
        )
        .fleet_seed(42)
        .panel_jitter(0.2);
        for i in 0..5 {
            assert_eq!(spec.device(i), grown.device(i));
        }
        assert_eq!(grown.device(5).template, 2);
    }

    fn synthetic_leg(point: &DevicePoint, carry: &DeviceWear) -> (DeviceOutcome, DeviceWear) {
        // Wear grows deterministically from the carried state.
        let mut out = synthetic_outcome(point);
        let carried = carry.bank_cycles.first().copied().unwrap_or(0);
        let wear = DeviceWear {
            bank_cycles: vec![carried + out.summary.completions],
        };
        // Carried wear visibly changes the leg's outcome.
        out.summary.completions += carried / 2;
        (out, wear)
    }

    #[test]
    fn fleet_wear_is_identical_for_any_worker_count() {
        let spec = FleetSpec::new("legs", 131, SimTime::from_secs(60)).fleet_seed(13);
        let (r1, w1) = run_fleet_leg_on(&spec, 1, None, synthetic_leg);
        let (r8, w8) = run_fleet_leg_on(&spec, 8, None, synthetic_leg);
        assert_eq!(r1, r8);
        assert_eq!(w1, w8);
        assert_eq!(w1.devices(), 131);
        assert!(w1.total_cycles() > 0);
    }

    #[test]
    fn second_leg_resumes_from_carried_wear() {
        let spec = FleetSpec::new("legs", 64, SimTime::from_secs(60)).fleet_seed(21);
        let (leg1, wear1) = run_fleet_leg_on(&spec, 4, None, synthetic_leg);
        let (leg2, wear2) = run_fleet_leg_on(&spec, 4, Some(&wear1), synthetic_leg);
        // Same spec, but the carried wear changed the outcomes…
        assert!(leg2.acc.completions > leg1.acc.completions);
        // …and wear keeps accumulating monotonically.
        assert!(wear2.total_cycles() > wear1.total_cycles());
        // Resuming is deterministic for any worker count too.
        let (leg2b, wear2b) = run_fleet_leg_on(&spec, 1, Some(&wear1), synthetic_leg);
        assert_eq!(leg2, leg2b);
        assert_eq!(wear2, wear2b);
    }

    /// Checks `h`'s declaration at `t`, if it makes one, at `samples`
    /// instants `s` of what it covers, `[t − p, until − p)`, among them
    /// both ends, against the harvest one period later; returns whether
    /// it declared one.
    fn holds_its_period(h: &impl Harvester, t: SimTime, rng: &mut DetRng, samples: u32) -> bool {
        let Some((p, until)) = h.period(t) else {
            return false;
        };
        assert!(p > SimDuration::ZERO && until > t, "{t}: ({p}, {until})");
        let lo = t.saturating_sub(p).as_micros();
        let hi = until
            .saturating_sub(p)
            .as_micros()
            .min(lo + 40 * p.as_micros());
        if hi <= lo {
            return true;
        }
        let ends = [lo, hi - 1];
        let drawn = (0..samples).map(|_| rng.gen_range(lo..hi));
        for s in ends.into_iter().chain(drawn).map(SimTime::from_micros) {
            let later = s + p;
            let what = format!("declared at {t} ({p}, {until}), at {s}");
            assert_eq!(
                h.power_at(later).get().to_bits(),
                h.power_at(s).get().to_bits(),
                "power {what}"
            );
            assert_eq!(
                h.open_voltage(later).get().to_bits(),
                h.open_voltage(s).get().to_bits(),
                "voltage {what}"
            );
            assert_eq!(
                h.valid_until(later),
                h.valid_until(s).saturating_add(p),
                "edge {what}"
            );
        }
        true
    }

    /// The period contract ([`Harvester::period`]), property-tested:
    /// each case, derived from `(seed, case)` as the fault fuzzer
    /// derives its cases, draws an eclipse period, a sunlit share, a
    /// placement, a panel scale, dips (overlapping ones too), shading,
    /// maybe a trace, and a constant or square-wave panel, and checks
    /// every period a fleet device declares at sampled instants. A
    /// trace-driven environment with no eclipse declares none, nor do
    /// the sources that never change.
    #[test]
    fn declared_periods_repeat_the_harvest_one_period_later() {
        use capy_power::harvester::{RegulatedSupply, SolarPanel, TraceHarvester};
        const SEED: u64 = 0x0_4B17;
        let constant = ConstantHarvester::new(Watts::from_milli(4.0), Volts::new(3.0));
        let (solar, bench) = (
            SolarPanel::trisolx_pair_halogen(),
            RegulatedSupply::grc_bench(),
        );
        let steady: [&dyn Harvester; 3] = [&constant, &solar, &bench];
        let (mut declared, mut bounded) = (0, 0);
        for case in 0..192 {
            let mut rng = DetRng::seed_from_u64(derive_seed(SEED, case));
            let period = SimDuration::from_micros(rng.gen_range(1_000_000..200_000_000u64));
            let horizon = period.as_micros() * rng.gen_range(2..40u64);
            let sunlit = [0.0, 1.0, rng.gen_f64()][rng.gen_range(0..3usize)];
            let placement = rng.gen_f64();
            let panel = rng.gen_f64() * 2.0;
            let trace = rng.gen_bool(0.3).then(|| {
                let mut at = 0;
                let mut samples = vec![(SimTime::ZERO, rng.gen_f64())];
                for _ in 0..rng.gen_range(1..6usize) {
                    at += rng.gen_range(1..horizon / 4);
                    samples.push((SimTime::from_micros(at), rng.gen_f64()));
                }
                samples
            });
            let (p, v) = (Watts::from_milli(4.0), Volts::new(3.0));
            let inner = if rng.gen_bool(0.2) {
                let on = SimDuration::from_micros(rng.gen_range(1..horizon / 8));
                let cycles = rng.gen_range(1..8u32);
                TraceHarvester::square_wave(p, v, on, on * 2, cycles)
            } else {
                TraceHarvester::new(vec![(SimTime::ZERO, p, v)])
            };
            let dips = rng.gen_range(0..6usize);
            let gap = horizon / (dips as u64 + 1);
            let hold = rng.gen_range(0..gap + 1);
            let mut env = SharedEnvironment::orbital(period, sunlit)
                .with_dips(
                    rng.next_u64(),
                    dips,
                    SimDuration::from_micros(gap.max(1)),
                    SimDuration::from_micros(hold),
                    rng.gen_f64(),
                )
                .shading(rng.gen_f64())
                .unwrap();
            if let Some(samples) = trace.clone() {
                env = env.with_trace(samples).unwrap();
            }
            let device = FleetHarvester::new(inner.clone(), panel, env.clone(), placement);
            let traced = trace.map(|samples| SharedEnvironment::from_trace(samples).unwrap());
            for _ in 0..24 {
                let t = SimTime::from_micros(rng.gen_range(0..horizon));
                if holds_its_period(&device, t, &mut rng, 24) {
                    declared += 1;
                    bounded += u32::from(device.period(t).is_some_and(|(_, u)| u < SimTime::MAX));
                }
                if let Some(traced) = &traced {
                    let alone = FleetHarvester::new(&inner, panel, traced.clone(), placement);
                    assert_eq!(alone.period(t), None, "case {case}: a trace at {t}");
                }
                assert!(steady.iter().all(|h| h.period(t).is_none()), "{t}");
            }
        }
        assert!(
            declared > 1_000 && bounded > 100,
            "{declared} declared, {bounded} bounded"
        );
    }
}

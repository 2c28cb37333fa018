//! The `capy-scenario/v1` data model: everything a headless scenario
//! needs — device, harvester, bank array, task graph with annotations,
//! fault plan, reconfiguration policy, limits, and assertions — as plain
//! data, decoupled from the simulator types it compiles into.
//!
//! [`ScenarioManifest::emit`] renders the canonical text form; the
//! parser ([`crate::parse::parse_manifest`]) accepts it back, and
//! `parse(emit(parse(text)))` equals `parse(text)` for every valid
//! manifest (the round-trip test of the protocol suite).

use std::fmt::Write as _;

use capy_power::switch::SwitchKind;
use capybara::Variant;

/// The schema identifier every v1 manifest must declare on its first
/// key: `schema = capy-scenario/v1`.
pub const SCHEMA: &str = "capy-scenario/v1";

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioManifest {
    /// Scenario name (reported in `result.json`).
    pub name: String,
    /// Deterministic seed recorded with the run (default 0).
    pub seed: u64,
    /// Which power-system variant executes the application.
    pub variant: Variant,
    /// The MCU model.
    pub mcu: McuKind,
    /// Enable the graceful-degradation runtime.
    pub degradation: bool,
    /// Model harvesting that continues while tasks run.
    pub harvest_during_operation: bool,
    /// The energy source.
    pub harvester: HarvesterSpec,
    /// The reconfigurable bank array, in [`capy_power::bank::BankId`]
    /// order.
    pub banks: Vec<BankSpec>,
    /// Energy modes, in [`capybara::EnergyMode`] order.
    pub modes: Vec<ModeSpec>,
    /// The task graph, in [`capy_intermittent::task::TaskId`] order; the
    /// first task is the entry.
    pub tasks: Vec<TaskSpec>,
    /// The reconfiguration policy.
    pub policy: PolicySpec,
    /// Scheduled hardware faults.
    pub faults: Vec<FaultSpec>,
    /// Cold-start supervisor margin above the booster's startup voltage,
    /// in volts.
    pub startup_margin_v: Option<f64>,
    /// Optional fleet population: run `devices` perturbed copies of this
    /// scenario under a shared environment instead of one device.
    pub fleet: Option<FleetStanza>,
    /// Execution limits.
    pub limits: LimitsSpec,
    /// Pass/fail assertions evaluated after the run.
    pub assertions: Vec<AssertionSpec>,
}

/// The MCU models the device crate provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McuKind {
    /// TI MSP430FR5969 at the paper's operating point.
    Msp430fr5969,
    /// MSP430FR5969 at full clock.
    Msp430fr5969FullSpeed,
    /// TI CC2650 (the BLE radio MCU).
    Cc2650,
}

impl Keyword for McuKind {
    const ALL: &'static [Self] = &[
        Self::Msp430fr5969,
        Self::Msp430fr5969FullSpeed,
        Self::Cc2650,
    ];

    fn keyword(self) -> &'static str {
        match self {
            Self::Msp430fr5969 => "msp430fr5969",
            Self::Msp430fr5969FullSpeed => "msp430fr5969-full-speed",
            Self::Cc2650 => "cc2650",
        }
    }
}

/// The energy source driving the power system.
#[derive(Debug, Clone, PartialEq)]
pub enum HarvesterSpec {
    /// No incoming energy at all.
    Dark,
    /// A constant source: `power_mw` at open-circuit `voltage`.
    Constant {
        /// Harvested power, milliwatts.
        power_mw: f64,
        /// Open-circuit voltage, volts.
        voltage: f64,
    },
    /// A regulated bench supply capped at `max_power_mw`.
    Regulated {
        /// Power cap, milliwatts.
        max_power_mw: f64,
        /// Output voltage, volts.
        voltage: f64,
    },
    /// A square wave alternating `power_mw` for `on_ms` and darkness for
    /// `off_ms`, `cycles` times — duty-cycled illumination or an orbit's
    /// day/night alternation.
    SquareWave {
        /// On-phase power, milliwatts.
        power_mw: f64,
        /// On-phase open-circuit voltage, volts.
        voltage: f64,
        /// On-phase length, milliseconds.
        on_ms: f64,
        /// Off-phase length, milliseconds.
        off_ms: f64,
        /// Number of on/off cycles.
        cycles: u32,
    },
    /// The §6.1.2 rig: two TrisolX panels under the halogen bulb.
    SolarTrisolx,
}

/// The capacitor parts catalog ([`capy_power::technology::parts`]),
/// addressable by manifest keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are the catalog part names
pub enum PartKind {
    CeramicX5r22uf,
    CeramicX5r100uf,
    CeramicX5r300uf,
    CeramicX5r400uf,
    Tantalum100uf,
    Tantalum330uf,
    Tantalum1000uf,
    EdlcCph3225a,
    Edlc7_5mf,
    Edlc22_5mf,
}

/// The keyword is the `parts::` constructor name, listed in catalog order.
impl Keyword for PartKind {
    const ALL: &'static [Self] = &[
        Self::CeramicX5r22uf,
        Self::CeramicX5r100uf,
        Self::CeramicX5r300uf,
        Self::CeramicX5r400uf,
        Self::Tantalum100uf,
        Self::Tantalum330uf,
        Self::Tantalum1000uf,
        Self::EdlcCph3225a,
        Self::Edlc7_5mf,
        Self::Edlc22_5mf,
    ];

    fn keyword(self) -> &'static str {
        match self {
            Self::CeramicX5r22uf => "ceramic_x5r_22uf",
            Self::CeramicX5r100uf => "ceramic_x5r_100uf",
            Self::CeramicX5r300uf => "ceramic_x5r_300uf",
            Self::CeramicX5r400uf => "ceramic_x5r_400uf",
            Self::Tantalum100uf => "tantalum_100uf",
            Self::Tantalum330uf => "tantalum_330uf",
            Self::Tantalum1000uf => "tantalum_1000uf",
            Self::EdlcCph3225a => "edlc_cph3225a",
            Self::Edlc7_5mf => "edlc_7_5mf",
            Self::Edlc22_5mf => "edlc_22_5mf",
        }
    }
}

/// One bank of the reconfigurable array.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSpec {
    /// Bank name (referenced by modes and faults).
    pub name: String,
    /// The capacitors ganged on this bank.
    pub parts: Vec<PartKind>,
    /// The bank switch's unpowered default.
    pub switch: SwitchKind,
}

/// One energy mode: a named subset of the bank array.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSpec {
    /// Mode name (referenced by task annotations and assertions).
    pub name: String,
    /// Names of the banks this mode connects.
    pub banks: Vec<String>,
}

/// A task's energy annotation, with modes referenced by name.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergySpec {
    /// No annotation.
    Unannotated,
    /// `config <mode>`.
    Config(String),
    /// `burst <mode>`.
    Burst(String),
    /// `preburst <burst> <exec>`.
    Preburst {
        /// The mode pre-charged for a later burst task.
        burst: String,
        /// The mode this task itself executes under.
        exec: String,
    },
}

/// Where control flows after a task completes.
#[derive(Debug, Clone, PartialEq)]
pub enum ThenSpec {
    /// Re-execute the same task.
    Stay,
    /// The application is finished.
    Stop,
    /// Continue at the named task.
    To(String),
}

/// One task of the graph. The body is synthetic: it increments the
/// task's non-volatile completion counter (the quantity assertions check)
/// and takes the declared transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task name.
    pub name: String,
    /// Energy annotation.
    pub energy: EnergySpec,
    /// Active compute time per attempt, milliseconds.
    pub compute_ms: f64,
    /// Optional low-power sleep between this task and its successor,
    /// milliseconds (the §6.4 sleep-pacing alternative).
    pub sleep_ms: Option<f64>,
    /// Take the `then` transition only every `repeat`-th completion,
    /// staying on this task otherwise (a counted loop).
    pub repeat: Option<u64>,
    /// The transition after completion.
    pub then: ThenSpec,
}

/// The reconfiguration policy consulted at task boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Pass annotations through untouched (the paper's behavior).
    Static,
    /// Ignore annotations; always run the named mode.
    Pinned {
        /// The pinned mode's name.
        mode: String,
    },
    /// Downsize along the ladder when charges take too long.
    Reactive {
        /// Mode ladder, smallest first.
        ladder: Vec<String>,
        /// Charge-time threshold that triggers a downsize, milliseconds.
        timeout_ms: f64,
    },
    /// EWMA-of-harvest-power adaptive ladder policy.
    Ewma {
        /// Mode ladder, smallest first.
        ladder: Vec<String>,
        /// Harvest-power thresholds between ladder rungs, milliwatts
        /// (one fewer than ladder entries).
        thresholds_mw: Vec<f64>,
        /// EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

/// One scheduled hardware fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The bank's switch channel stops conducting at `at_s`.
    StuckOpen {
        /// Bank name.
        bank: String,
        /// Strike time, seconds.
        at_s: f64,
    },
    /// The bank's switch shorts closed at `at_s`.
    StuckClosed {
        /// Bank name.
        bank: String,
        /// Strike time, seconds.
        at_s: f64,
    },
    /// The bank's latch leaks `factor`× faster than rated from `at_s`.
    WeakLatch {
        /// Bank name.
        bank: String,
        /// Leak acceleration factor.
        factor: f64,
        /// Strike time, seconds.
        at_s: f64,
    },
    /// The bank's capacitors degrade at `at_s`.
    Degraded {
        /// Bank name.
        bank: String,
        /// Remaining capacitance fraction, `[0, 1]`.
        cap_derate: f64,
        /// ESR growth factor, `>= 1`.
        esr_scale: f64,
        /// Strike time, seconds.
        at_s: f64,
    },
}

/// The `[fleet]` stanza: this scenario becomes the *template* for a
/// population of `devices` perturbed copies run under one shared
/// environment ([`capybara::fleet`]); the result aggregates the whole
/// population instead of reporting one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStanza {
    /// Population size. With a `mix` this is the sum of the template
    /// counts (the parser derives it); otherwise it comes straight from
    /// the required `devices` key.
    pub devices: u64,
    /// Heterogeneous population: `(task name, count)` per template, in
    /// declaration order. Each template's devices boot into the named
    /// task instead of the manifest's first task. Empty = homogeneous.
    pub mix: Vec<(String, u64)>,
    /// Recorded harvest trace driving the shared environment, as a path
    /// relative to the manifest file (`capy-trace/v1` text). Mutually
    /// exclusive with `eclipse_period_s`.
    pub trace: Option<String>,
    /// Relative panel-scale jitter, percent (default 0).
    pub panel_jitter_pct: f64,
    /// Relative task-rate jitter, percent (default 0): sleeps scale by
    /// the reciprocal of each device's rate.
    pub rate_jitter_pct: f64,
    /// Shared eclipse/day-night period, seconds (absent = no cycle).
    pub eclipse_period_s: Option<f64>,
    /// Sunlit fraction of the eclipse period (default 0.5; only
    /// meaningful with `eclipse_period_s`).
    pub eclipse_sunlit: f64,
    /// Number of correlated fleet-wide harvest dips (default 0).
    pub dips: u32,
    /// How long each dip holds, seconds (default 0).
    pub dip_hold_s: f64,
    /// Harvest multiplier during a dip (default 1).
    pub dip_factor: f64,
    /// Spatial shading strength in `[0, 1]` (default 0).
    pub shading: f64,
}

impl FleetStanza {
    /// A fleet of `devices` with every perturbation disabled.
    #[must_use]
    pub fn new(devices: u64) -> Self {
        Self {
            devices,
            mix: Vec::new(),
            trace: None,
            panel_jitter_pct: 0.0,
            rate_jitter_pct: 0.0,
            eclipse_period_s: None,
            eclipse_sunlit: 0.5,
            dips: 0,
            dip_hold_s: 0.0,
            dip_factor: 1.0,
            shading: 0.0,
        }
    }
}

/// Execution limits ([`capybara::sim::RunLimits`] in manifest clothing).
#[derive(Debug, Clone, PartialEq)]
pub struct LimitsSpec {
    /// The run's horizon, simulated seconds (required).
    pub max_sim_seconds: f64,
    /// Optional task-attempt step budget.
    pub max_steps: Option<u64>,
    /// Optional livelock watchdog override.
    pub no_progress_steps: Option<u64>,
    /// Optional delivered-energy budget, joules.
    pub max_energy_joules: Option<f64>,
}

/// Comparison operator of a count assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>=`.
    Ge,
    /// `<=`.
    Le,
    /// `==`.
    Eq,
}

impl Keyword for CmpOp {
    const ALL: &'static [Self] = &[Self::Ge, Self::Le, Self::Eq];

    fn keyword(self) -> &'static str {
        match self {
            Self::Ge => ">=",
            Self::Le => "<=",
            Self::Eq => "==",
        }
    }
}

impl CmpOp {
    /// Applies the comparison.
    #[must_use]
    pub fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            Self::Ge => lhs >= rhs,
            Self::Le => lhs <= rhs,
            Self::Eq => lhs == rhs,
        }
    }
}

/// A [`capybara::sim::SimEvent`] kind addressable from an assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants mirror SimEvent's
pub enum EventKind {
    Boot,
    Charge,
    Precharge,
    Reconfigure,
    Burst,
    PowerFailure,
    BankFailed,
    ModeRemapped,
    Stalled,
}

impl Keyword for EventKind {
    const ALL: &'static [Self] = &[
        Self::Boot,
        Self::Charge,
        Self::Precharge,
        Self::Reconfigure,
        Self::Burst,
        Self::PowerFailure,
        Self::BankFailed,
        Self::ModeRemapped,
        Self::Stalled,
    ];

    fn keyword(self) -> &'static str {
        match self {
            Self::Boot => "boot",
            Self::Charge => "charge",
            Self::Precharge => "precharge",
            Self::Reconfigure => "reconfigure",
            Self::Burst => "burst",
            Self::PowerFailure => "power-failure",
            Self::BankFailed => "bank-failed",
            Self::ModeRemapped => "mode-remapped",
            Self::Stalled => "stalled",
        }
    }
}

/// One pass/fail check evaluated over the finished run.
#[derive(Debug, Clone, PartialEq)]
pub enum AssertionSpec {
    /// Committed completions of the named task compare as stated.
    TaskCompletions {
        /// Task name.
        task: String,
        /// Comparison.
        op: CmpOp,
        /// Right-hand count.
        count: u64,
    },
    /// Total committed completions across every task compare as stated.
    TotalCompletions {
        /// Comparison.
        op: CmpOp,
        /// Right-hand count.
        count: u64,
    },
    /// Power-failure-truncated attempts compare as stated.
    Failures {
        /// Comparison.
        op: CmpOp,
        /// Right-hand count.
        count: u64,
    },
    /// At least one event of the kind must appear on the timeline.
    RequireEvent(EventKind),
    /// No event of the kind may appear on the timeline.
    ForbidEvent(EventKind),
    /// The runtime's final energy mode must be the named one.
    FinalMode(String),
    /// Fraction of simulated time *not* spent charging must be at least
    /// this.
    MinAvailability(f64),
}

/// Formats an `f64` exactly as both the emitter and `result.json` do:
/// integral values without a fraction, everything else via Rust's
/// shortest round-trip representation.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// A closed set of manifest keywords: `ALL` lists every value once and
/// `keyword` spells it. The parser looks a keyword up in `ALL`, `emit`
/// prints `keyword`, and a bad value's diagnostic lists all of them.
pub trait Keyword: Copy + 'static {
    /// Every value, in the order a diagnostic lists them.
    const ALL: &'static [Self];

    /// The manifest spelling.
    fn keyword(self) -> &'static str;
}

/// The keyword is the lower-cased paper label.
impl Keyword for Variant {
    const ALL: &'static [Self] = &Variant::ALL;

    fn keyword(self) -> &'static str {
        match self {
            Variant::Continuous => "pwr",
            Variant::Fixed => "fixed",
            Variant::CapyR => "cb-r",
            Variant::CapyP => "cb-p",
        }
    }
}

impl Keyword for SwitchKind {
    const ALL: &'static [Self] = &[SwitchKind::NormallyOpen, SwitchKind::NormallyClosed];

    fn keyword(self) -> &'static str {
        match self {
            SwitchKind::NormallyOpen => "normally-open",
            SwitchKind::NormallyClosed => "normally-closed",
        }
    }
}

impl Keyword for bool {
    const ALL: &'static [Self] = &[true, false];

    fn keyword(self) -> &'static str {
        if self {
            "true"
        } else {
            "false"
        }
    }
}

/// The `[harvester] kind` of a [`HarvesterSpec`].
#[derive(Clone, Copy)]
pub(crate) enum HarvesterKind {
    Dark,
    Constant,
    Regulated,
    SquareWave,
    SolarTrisolx,
}

impl Keyword for HarvesterKind {
    const ALL: &'static [Self] = &[
        Self::Dark,
        Self::Constant,
        Self::Regulated,
        Self::SquareWave,
        Self::SolarTrisolx,
    ];

    fn keyword(self) -> &'static str {
        match self {
            Self::Dark => "dark",
            Self::Constant => "constant",
            Self::Regulated => "regulated",
            Self::SquareWave => "square-wave",
            Self::SolarTrisolx => "solar-trisolx",
        }
    }
}

/// The `[policy] kind` of a [`PolicySpec`].
#[derive(Clone, Copy)]
pub(crate) enum PolicyKind {
    Static,
    Pinned,
    Reactive,
    Ewma,
}

impl Keyword for PolicyKind {
    const ALL: &'static [Self] = &[Self::Static, Self::Pinned, Self::Reactive, Self::Ewma];

    fn keyword(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Pinned => "pinned",
            Self::Reactive => "reactive",
            Self::Ewma => "ewma",
        }
    }
}

impl ScenarioManifest {
    /// Renders the canonical text form: fixed section order, one key per
    /// line, `#`-comments stripped. Parsing the output yields a manifest
    /// equal to `self`.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "schema = {SCHEMA}");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "variant = {}", self.variant.keyword());
        let _ = writeln!(out, "mcu = {}", self.mcu.keyword());
        if self.degradation {
            out.push_str("degradation = true\n");
        }
        if self.harvest_during_operation {
            out.push_str("harvest_during_operation = true\n");
        }

        out.push_str("\n[harvester]\n");
        match &self.harvester {
            HarvesterSpec::Dark => {
                let _ = writeln!(out, "kind = {}", HarvesterKind::Dark.keyword());
            }
            HarvesterSpec::Constant { power_mw, voltage } => {
                let _ = writeln!(out, "kind = {}", HarvesterKind::Constant.keyword());
                let _ = writeln!(out, "power_mw = {}", fmt_f64(*power_mw));
                let _ = writeln!(out, "voltage = {}", fmt_f64(*voltage));
            }
            HarvesterSpec::Regulated {
                max_power_mw,
                voltage,
            } => {
                let _ = writeln!(out, "kind = {}", HarvesterKind::Regulated.keyword());
                let _ = writeln!(out, "max_power_mw = {}", fmt_f64(*max_power_mw));
                let _ = writeln!(out, "voltage = {}", fmt_f64(*voltage));
            }
            HarvesterSpec::SquareWave {
                power_mw,
                voltage,
                on_ms,
                off_ms,
                cycles,
            } => {
                let _ = writeln!(out, "kind = {}", HarvesterKind::SquareWave.keyword());
                let _ = writeln!(out, "power_mw = {}", fmt_f64(*power_mw));
                let _ = writeln!(out, "voltage = {}", fmt_f64(*voltage));
                let _ = writeln!(out, "on_ms = {}", fmt_f64(*on_ms));
                let _ = writeln!(out, "off_ms = {}", fmt_f64(*off_ms));
                let _ = writeln!(out, "cycles = {cycles}");
            }
            HarvesterSpec::SolarTrisolx => {
                let _ = writeln!(out, "kind = {}", HarvesterKind::SolarTrisolx.keyword());
            }
        }

        for bank in &self.banks {
            let _ = writeln!(out, "\n[bank {}]", bank.name);
            let parts: Vec<&str> = bank.parts.iter().map(|p| p.keyword()).collect();
            let _ = writeln!(out, "parts = {}", parts.join(", "));
            let _ = writeln!(out, "switch = {}", bank.switch.keyword());
        }

        for mode in &self.modes {
            let _ = writeln!(out, "\n[mode {}]", mode.name);
            let _ = writeln!(out, "banks = {}", mode.banks.join(", "));
        }

        for task in &self.tasks {
            let _ = writeln!(out, "\n[task {}]", task.name);
            let energy = match &task.energy {
                EnergySpec::Unannotated => "unannotated".to_string(),
                EnergySpec::Config(m) => format!("config {m}"),
                EnergySpec::Burst(m) => format!("burst {m}"),
                EnergySpec::Preburst { burst, exec } => format!("preburst {burst} {exec}"),
            };
            let _ = writeln!(out, "energy = {energy}");
            let _ = writeln!(out, "compute_ms = {}", fmt_f64(task.compute_ms));
            if let Some(sleep) = task.sleep_ms {
                let _ = writeln!(out, "sleep_ms = {}", fmt_f64(sleep));
            }
            if let Some(repeat) = task.repeat {
                let _ = writeln!(out, "repeat = {repeat}");
            }
            let then = match &task.then {
                ThenSpec::Stay => "stay".to_string(),
                ThenSpec::Stop => "stop".to_string(),
                ThenSpec::To(name) => name.clone(),
            };
            let _ = writeln!(out, "then = {then}");
        }

        out.push_str("\n[policy]\n");
        match &self.policy {
            PolicySpec::Static => {
                let _ = writeln!(out, "kind = {}", PolicyKind::Static.keyword());
            }
            PolicySpec::Pinned { mode } => {
                let _ = writeln!(out, "kind = {}", PolicyKind::Pinned.keyword());
                let _ = writeln!(out, "mode = {mode}");
            }
            PolicySpec::Reactive { ladder, timeout_ms } => {
                let _ = writeln!(out, "kind = {}", PolicyKind::Reactive.keyword());
                let _ = writeln!(out, "ladder = {}", ladder.join(", "));
                let _ = writeln!(out, "timeout_ms = {}", fmt_f64(*timeout_ms));
            }
            PolicySpec::Ewma {
                ladder,
                thresholds_mw,
                alpha,
            } => {
                let _ = writeln!(out, "kind = {}", PolicyKind::Ewma.keyword());
                let _ = writeln!(out, "ladder = {}", ladder.join(", "));
                let thresholds: Vec<String> = thresholds_mw.iter().map(|t| fmt_f64(*t)).collect();
                let _ = writeln!(out, "thresholds_mw = {}", thresholds.join(", "));
                let _ = writeln!(out, "alpha = {}", fmt_f64(*alpha));
            }
        }

        if !self.faults.is_empty() || self.startup_margin_v.is_some() {
            out.push_str("\n[faults]\n");
            for fault in &self.faults {
                let line = match fault {
                    FaultSpec::StuckOpen { bank, at_s } => {
                        format!("stuck-open {bank} @ {}", fmt_f64(*at_s))
                    }
                    FaultSpec::StuckClosed { bank, at_s } => {
                        format!("stuck-closed {bank} @ {}", fmt_f64(*at_s))
                    }
                    FaultSpec::WeakLatch { bank, factor, at_s } => {
                        format!(
                            "weak-latch {bank} {} @ {}",
                            fmt_f64(*factor),
                            fmt_f64(*at_s)
                        )
                    }
                    FaultSpec::Degraded {
                        bank,
                        cap_derate,
                        esr_scale,
                        at_s,
                    } => format!(
                        "degraded {bank} {} {} @ {}",
                        fmt_f64(*cap_derate),
                        fmt_f64(*esr_scale),
                        fmt_f64(*at_s)
                    ),
                };
                let _ = writeln!(out, "fault = {line}");
            }
            if let Some(margin) = self.startup_margin_v {
                let _ = writeln!(out, "startup_margin_v = {}", fmt_f64(margin));
            }
        }

        if let Some(fleet) = &self.fleet {
            out.push_str("\n[fleet]\n");
            if fleet.mix.is_empty() {
                let _ = writeln!(out, "devices = {}", fleet.devices);
            } else {
                // `devices` is derived from the mix; emitting only the
                // mix keeps parse(emit(m)) == m.
                let templates: Vec<String> = fleet
                    .mix
                    .iter()
                    .map(|(name, count)| format!("{name}:{count}"))
                    .collect();
                let _ = writeln!(out, "mix = {}", templates.join(", "));
            }
            if let Some(trace) = &fleet.trace {
                let _ = writeln!(out, "trace = {trace}");
            }
            if fleet.panel_jitter_pct != 0.0 {
                let _ = writeln!(
                    out,
                    "panel_jitter_pct = {}",
                    fmt_f64(fleet.panel_jitter_pct)
                );
            }
            if fleet.rate_jitter_pct != 0.0 {
                let _ = writeln!(out, "rate_jitter_pct = {}", fmt_f64(fleet.rate_jitter_pct));
            }
            if let Some(period) = fleet.eclipse_period_s {
                let _ = writeln!(out, "eclipse_period_s = {}", fmt_f64(period));
                let _ = writeln!(out, "eclipse_sunlit = {}", fmt_f64(fleet.eclipse_sunlit));
            }
            if fleet.dips > 0 {
                let _ = writeln!(out, "dips = {}", fleet.dips);
                let _ = writeln!(out, "dip_hold_s = {}", fmt_f64(fleet.dip_hold_s));
                let _ = writeln!(out, "dip_factor = {}", fmt_f64(fleet.dip_factor));
            }
            if fleet.shading != 0.0 {
                let _ = writeln!(out, "shading = {}", fmt_f64(fleet.shading));
            }
        }

        out.push_str("\n[limits]\n");
        let _ = writeln!(
            out,
            "max_sim_seconds = {}",
            fmt_f64(self.limits.max_sim_seconds)
        );
        if let Some(steps) = self.limits.max_steps {
            let _ = writeln!(out, "max_steps = {steps}");
        }
        if let Some(steps) = self.limits.no_progress_steps {
            let _ = writeln!(out, "no_progress_steps = {steps}");
        }
        if let Some(joules) = self.limits.max_energy_joules {
            let _ = writeln!(out, "max_energy_joules = {}", fmt_f64(joules));
        }

        if !self.assertions.is_empty() {
            out.push_str("\n[assert]\n");
            for a in &self.assertions {
                let line = match a {
                    AssertionSpec::TaskCompletions { task, op, count } => {
                        format!("completions = {task} {} {count}", op.keyword())
                    }
                    AssertionSpec::TotalCompletions { op, count } => {
                        format!("total_completions = {} {count}", op.keyword())
                    }
                    AssertionSpec::Failures { op, count } => {
                        format!("failures = {} {count}", op.keyword())
                    }
                    AssertionSpec::RequireEvent(kind) => {
                        format!("require_event = {}", kind.keyword())
                    }
                    AssertionSpec::ForbidEvent(kind) => {
                        format!("forbid_event = {}", kind.keyword())
                    }
                    AssertionSpec::FinalMode(mode) => format!("final_mode = {mode}"),
                    AssertionSpec::MinAvailability(frac) => {
                        format!("min_availability = {}", fmt_f64(*frac))
                    }
                };
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }
}

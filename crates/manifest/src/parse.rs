//! The `capy-scenario/v1` text parser.
//!
//! The format is line-oriented: `key = value` pairs grouped under
//! `[section]` headers, `#` comments, blank lines ignored. The first
//! significant line must declare the schema
//! (`schema = capy-scenario/v1`). Every diagnostic is a typed
//! [`ManifestError`] carrying the offending line and field so a failing
//! manifest is fixable without reading this source.

use std::fmt;
use std::ops::RangeBounds;

use capy_power::switch::SwitchKind;
use capybara::Variant;

use crate::model::{
    AssertionSpec, BankSpec, CmpOp, EnergySpec, EventKind, FaultSpec, FleetStanza, HarvesterSpec,
    LimitsSpec, McuKind, ModeSpec, PartKind, PolicySpec, ScenarioManifest, TaskSpec, ThenSpec,
    SCHEMA,
};
use crate::run::dip_mean_gap;

/// Everything that can be wrong with a manifest, with enough location
/// detail to fix it. Parse-side variants carry 1-based line numbers;
/// [`ManifestError::MissingField`] names the section a required key never
/// appeared in; [`ManifestError::Build`] wraps the simulator builder's
/// rejection of a structurally valid but semantically impossible
/// scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The schema declaration is absent or names a schema this parser
    /// does not speak.
    UnsupportedSchema {
        /// Line of the declaration.
        line: usize,
        /// The declared schema string.
        found: String,
    },
    /// The line is not `key = value`, not a well-formed `[section]`
    /// header, or a value's shape is wrong.
    Syntax {
        /// Offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `[section]` header this schema does not define.
    UnknownSection {
        /// Offending line.
        line: usize,
        /// The header's section word.
        section: String,
    },
    /// A key the enclosing section does not define.
    UnknownKey {
        /// Offending line.
        line: usize,
        /// The enclosing section.
        section: String,
        /// The unrecognized key.
        key: String,
    },
    /// A value that does not parse as the key's type.
    BadValue {
        /// Offending line.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// The literal value text.
        value: String,
        /// What the key accepts.
        expected: String,
    },
    /// A name or singleton declared twice.
    Duplicate {
        /// Line of the second declaration.
        line: usize,
        /// What is duplicated: `"bank"`, `"mode"`, `"task"`,
        /// `"section"`, or `"key"`.
        kind: &'static str,
        /// The duplicated name.
        name: String,
    },
    /// A reference to a bank, mode, or task that is never declared.
    UnknownName {
        /// Line of the dangling reference.
        line: usize,
        /// The referencing key.
        field: &'static str,
        /// The undeclared name.
        name: String,
    },
    /// A required key (or section) never appeared.
    MissingField {
        /// The section that lacks it (`"(document)"` for a whole
        /// missing section).
        section: String,
        /// The absent key or section.
        field: String,
    },
    /// The simulator builder rejected the compiled scenario (for
    /// example, a burst annotation under the continuously-powered
    /// variant).
    Build {
        /// The builder's diagnostic.
        message: String,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedSchema { line, found } => write!(
                f,
                "line {line}: unsupported schema `{found}` (this tool speaks {SCHEMA})"
            ),
            Self::Syntax { line, message } => write!(f, "line {line}: {message}"),
            Self::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section `[{section}]`")
            }
            Self::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key `{key}` in section `{section}`")
            }
            Self::BadValue {
                line,
                key,
                value,
                expected,
            } => write!(
                f,
                "line {line}: bad value `{value}` for `{key}` (expected {expected})"
            ),
            Self::Duplicate { line, kind, name } => {
                write!(f, "line {line}: duplicate {kind} `{name}`")
            }
            Self::UnknownName { line, field, name } => {
                write!(
                    f,
                    "line {line}: `{field}` references undeclared name `{name}`"
                )
            }
            Self::MissingField { section, field } => {
                write!(f, "section `{section}`: missing required `{field}`")
            }
            Self::Build { message } => write!(f, "scenario does not build: {message}"),
        }
    }
}

impl std::error::Error for ManifestError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Top,
    Harvester,
    Bank(usize),
    Mode(usize),
    Task(usize),
    Policy,
    Faults,
    Fleet,
    Limits,
    Assert,
}

#[derive(Default)]
struct HarvesterDraft {
    kind: Option<(usize, String)>,
    power_mw: Option<f64>,
    voltage: Option<f64>,
    max_power_mw: Option<f64>,
    on_ms: Option<f64>,
    off_ms: Option<f64>,
    cycles: Option<u32>,
}

struct BankDraft {
    name: String,
    parts: Option<Vec<PartKind>>,
    switch: Option<SwitchKind>,
}

struct ModeDraft {
    name: String,
    banks: Option<Vec<String>>,
}

struct TaskDraft {
    name: String,
    energy: Option<EnergySpec>,
    compute_ms: Option<f64>,
    sleep_ms: Option<f64>,
    repeat: Option<u64>,
    then: Option<ThenSpec>,
}

#[derive(Default)]
struct PolicyDraft {
    kind: Option<(usize, String)>,
    mode: Option<String>,
    ladder: Option<Vec<String>>,
    timeout_ms: Option<f64>,
    thresholds_mw: Option<(usize, Vec<f64>)>,
    alpha: Option<(usize, f64)>,
}

/// The largest `[fleet]` population, whether given as `devices` or as a
/// `mix` total: about 4,000× the largest fleet the repository runs, so
/// no manifest can queue work without bound.
const MAX_FLEET_DEVICES: u64 = 1 << 32;

/// The most correlated harvest dips a `[fleet]` may ask for: 8 MiB of
/// onsets, or a dip every 30 s for a year.
const MAX_FLEET_DIPS: u32 = 1 << 20;

#[derive(Default)]
struct FleetDraft {
    devices: Option<(usize, u64)>,
    mix: Option<(usize, Vec<(String, u64)>)>,
    trace: Option<(usize, String)>,
    panel_jitter_pct: Option<f64>,
    rate_jitter_pct: Option<f64>,
    eclipse_period_s: Option<f64>,
    eclipse_sunlit: Option<f64>,
    dips: Option<(usize, u32)>,
    dip_hold_s: Option<f64>,
    dip_factor: Option<f64>,
    shading: Option<f64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RefKind {
    Bank,
    Mode,
    Task,
}

/// A deferred cross-reference: resolved against the declared names once
/// the whole document is read, so forward references work.
struct NameRef {
    line: usize,
    field: &'static str,
    name: String,
    kind: RefKind,
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    line: usize,
    key: &str,
) -> Result<(), ManifestError> {
    if slot.is_some() {
        return Err(ManifestError::Duplicate {
            line,
            kind: "key",
            name: key.to_string(),
        });
    }
    *slot = Some(value);
    Ok(())
}

fn bad_value(line: usize, key: &str, value: &str, expected: &str) -> ManifestError {
    ManifestError::BadValue {
        line,
        key: key.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

fn parse_f64(line: usize, key: &str, value: &str) -> Result<f64, ManifestError> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(bad_value(line, key, value, "a finite number")),
    }
}

fn parse_u64(line: usize, key: &str, value: &str) -> Result<u64, ManifestError> {
    value
        .parse::<u64>()
        .map_err(|_| bad_value(line, key, value, "a non-negative integer"))
}

fn parse_u32(line: usize, key: &str, value: &str) -> Result<u32, ManifestError> {
    value
        .parse::<u32>()
        .map_err(|_| bad_value(line, key, value, "a non-negative integer"))
}

fn parse_bool(line: usize, key: &str, value: &str) -> Result<bool, ManifestError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(bad_value(line, key, value, "`true` or `false`")),
    }
}

fn parse_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_part(line: usize, value: &str) -> Result<PartKind, ManifestError> {
    PartKind::ALL
        .into_iter()
        .find(|p| p.keyword() == value)
        .ok_or_else(|| bad_value(line, "parts", value, "a catalog part name"))
}

fn parse_event_kind(line: usize, key: &str, value: &str) -> Result<EventKind, ManifestError> {
    EventKind::ALL
        .into_iter()
        .find(|k| k.keyword() == value)
        .ok_or_else(|| bad_value(line, key, value, "a sim-event kind"))
}

fn parse_cmp_op(line: usize, key: &str, value: &str) -> Result<CmpOp, ManifestError> {
    match value {
        ">=" => Ok(CmpOp::Ge),
        "<=" => Ok(CmpOp::Le),
        "==" => Ok(CmpOp::Eq),
        _ => Err(bad_value(line, key, value, "`>=`, `<=`, or `==`")),
    }
}

fn missing(section: &str, field: &str) -> ManifestError {
    ManifestError::MissingField {
        section: section.to_string(),
        field: field.to_string(),
    }
}

/// Parses a `capy-scenario/v1` document into its data model.
///
/// # Errors
///
/// Returns the first [`ManifestError`] encountered, in document order;
/// cross-reference errors surface after the whole document reads
/// cleanly.
pub fn parse_manifest(text: &str) -> Result<ScenarioManifest, ManifestError> {
    let mut section = Section::Top;
    let mut saw_schema = false;

    let mut name: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut variant: Option<Variant> = None;
    let mut mcu: Option<McuKind> = None;
    let mut degradation: Option<bool> = None;
    let mut harvest_during_operation: Option<bool> = None;

    let mut harvester: Option<HarvesterDraft> = None;
    let mut banks: Vec<BankDraft> = Vec::new();
    let mut modes: Vec<ModeDraft> = Vec::new();
    let mut tasks: Vec<TaskDraft> = Vec::new();
    let mut policy: Option<PolicyDraft> = None;
    let mut saw_faults = false;
    let mut faults: Vec<FaultSpec> = Vec::new();
    let mut startup_margin_v: Option<f64> = None;
    let mut fleet: Option<FleetDraft> = None;
    let mut saw_limits = false;
    let mut max_sim_seconds: Option<f64> = None;
    let mut max_steps: Option<u64> = None;
    let mut no_progress_steps: Option<u64> = None;
    let mut max_energy_joules: Option<f64> = None;
    let mut saw_assert = false;
    let mut assertions: Vec<AssertionSpec> = Vec::new();

    let mut refs: Vec<NameRef> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }

        if !saw_schema {
            // The schema declaration gates everything else: it must be
            // the first significant line.
            match content.split_once('=') {
                Some((key, value)) if key.trim() == "schema" => {
                    let value = value.trim();
                    if value != SCHEMA {
                        return Err(ManifestError::UnsupportedSchema {
                            line,
                            found: value.to_string(),
                        });
                    }
                    saw_schema = true;
                    continue;
                }
                _ => return Err(missing("(document)", "schema")),
            }
        }

        if let Some(header) = content.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return Err(ManifestError::Syntax {
                    line,
                    message: "section header is missing its closing `]`".to_string(),
                });
            };
            let mut words = header.split_whitespace();
            let kind = words.next().unwrap_or("");
            let arg = words.next();
            if words.next().is_some() {
                return Err(ManifestError::Syntax {
                    line,
                    message: format!("section `[{kind}]` header has too many words"),
                });
            }
            section = match (kind, arg) {
                ("harvester", None) => {
                    if harvester.is_some() {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "harvester".to_string(),
                        });
                    }
                    harvester = Some(HarvesterDraft::default());
                    Section::Harvester
                }
                ("bank", Some(bank_name)) => {
                    if banks.iter().any(|b| b.name == bank_name) {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "bank",
                            name: bank_name.to_string(),
                        });
                    }
                    banks.push(BankDraft {
                        name: bank_name.to_string(),
                        parts: None,
                        switch: None,
                    });
                    Section::Bank(banks.len() - 1)
                }
                ("mode", Some(mode_name)) => {
                    if modes.iter().any(|m| m.name == mode_name) {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "mode",
                            name: mode_name.to_string(),
                        });
                    }
                    modes.push(ModeDraft {
                        name: mode_name.to_string(),
                        banks: None,
                    });
                    Section::Mode(modes.len() - 1)
                }
                ("task", Some(task_name)) => {
                    if tasks.iter().any(|t| t.name == task_name) {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "task",
                            name: task_name.to_string(),
                        });
                    }
                    tasks.push(TaskDraft {
                        name: task_name.to_string(),
                        energy: None,
                        compute_ms: None,
                        sleep_ms: None,
                        repeat: None,
                        then: None,
                    });
                    Section::Task(tasks.len() - 1)
                }
                ("policy", None) => {
                    if policy.is_some() {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "policy".to_string(),
                        });
                    }
                    policy = Some(PolicyDraft::default());
                    Section::Policy
                }
                ("faults", None) => {
                    if saw_faults {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "faults".to_string(),
                        });
                    }
                    saw_faults = true;
                    Section::Faults
                }
                ("fleet", None) => {
                    if fleet.is_some() {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "fleet".to_string(),
                        });
                    }
                    fleet = Some(FleetDraft::default());
                    Section::Fleet
                }
                ("limits", None) => {
                    if saw_limits {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "limits".to_string(),
                        });
                    }
                    saw_limits = true;
                    Section::Limits
                }
                ("assert", None) => {
                    if saw_assert {
                        return Err(ManifestError::Duplicate {
                            line,
                            kind: "section",
                            name: "assert".to_string(),
                        });
                    }
                    saw_assert = true;
                    Section::Assert
                }
                ("bank" | "mode" | "task", None) => {
                    return Err(ManifestError::Syntax {
                        line,
                        message: format!("section `[{kind}]` requires a name: `[{kind} <name>]`"),
                    });
                }
                ("harvester" | "policy" | "faults" | "fleet" | "limits" | "assert", Some(_)) => {
                    return Err(ManifestError::Syntax {
                        line,
                        message: format!("section `[{kind}]` takes no name"),
                    });
                }
                _ => {
                    return Err(ManifestError::UnknownSection {
                        line,
                        section: header.to_string(),
                    });
                }
            };
            continue;
        }

        let Some((key, value)) = content.split_once('=') else {
            return Err(ManifestError::Syntax {
                line,
                message: "expected `key = value` or a `[section]` header".to_string(),
            });
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() || value.is_empty() {
            return Err(ManifestError::Syntax {
                line,
                message: "expected `key = value` with both sides non-empty".to_string(),
            });
        }

        match section {
            Section::Top => match key {
                "schema" => {
                    return Err(ManifestError::Duplicate {
                        line,
                        kind: "key",
                        name: "schema".to_string(),
                    });
                }
                "name" => set_once(&mut name, value.to_string(), line, key)?,
                "seed" => {
                    let v = parse_u64(line, key, value)?;
                    set_once(&mut seed, v, line, key)?;
                }
                "variant" => {
                    let v = match value {
                        "pwr" => Variant::Continuous,
                        "fixed" => Variant::Fixed,
                        "cb-r" => Variant::CapyR,
                        "cb-p" => Variant::CapyP,
                        _ => {
                            return Err(bad_value(
                                line,
                                key,
                                value,
                                "`pwr`, `fixed`, `cb-r`, or `cb-p`",
                            ));
                        }
                    };
                    set_once(&mut variant, v, line, key)?;
                }
                "mcu" => {
                    let v = match value {
                        "msp430fr5969" => McuKind::Msp430fr5969,
                        "msp430fr5969-full-speed" => McuKind::Msp430fr5969FullSpeed,
                        "cc2650" => McuKind::Cc2650,
                        _ => {
                            return Err(bad_value(
                                line,
                                key,
                                value,
                                "`msp430fr5969`, `msp430fr5969-full-speed`, or `cc2650`",
                            ));
                        }
                    };
                    set_once(&mut mcu, v, line, key)?;
                }
                "degradation" => {
                    let v = parse_bool(line, key, value)?;
                    set_once(&mut degradation, v, line, key)?;
                }
                "harvest_during_operation" => {
                    let v = parse_bool(line, key, value)?;
                    set_once(&mut harvest_during_operation, v, line, key)?;
                }
                _ => {
                    return Err(ManifestError::UnknownKey {
                        line,
                        section: "(top level)".to_string(),
                        key: key.to_string(),
                    });
                }
            },
            Section::Harvester => {
                let draft = harvester.as_mut().expect("in [harvester] section");
                match key {
                    "kind" => set_once(&mut draft.kind, (line, value.to_string()), line, key)?,
                    "power_mw" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.power_mw, v, line, key)?;
                    }
                    "voltage" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.voltage, v, line, key)?;
                    }
                    "max_power_mw" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.max_power_mw, v, line, key)?;
                    }
                    "on_ms" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.on_ms, v, line, key)?;
                    }
                    "off_ms" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.off_ms, v, line, key)?;
                    }
                    "cycles" => {
                        let v = parse_u32(line, key, value)?;
                        set_once(&mut draft.cycles, v, line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: "harvester".to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Bank(i) => {
                let draft = &mut banks[i];
                match key {
                    "parts" => {
                        let mut parts = Vec::new();
                        for word in parse_list(value) {
                            parts.push(parse_part(line, &word)?);
                        }
                        if parts.is_empty() {
                            return Err(bad_value(line, key, value, "at least one part name"));
                        }
                        set_once(&mut draft.parts, parts, line, key)?;
                    }
                    "switch" => {
                        let v = match value {
                            "normally-open" => SwitchKind::NormallyOpen,
                            "normally-closed" => SwitchKind::NormallyClosed,
                            _ => {
                                return Err(bad_value(
                                    line,
                                    key,
                                    value,
                                    "`normally-open` or `normally-closed`",
                                ));
                            }
                        };
                        set_once(&mut draft.switch, v, line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: format!("bank {}", draft.name),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Mode(i) => {
                let draft = &mut modes[i];
                match key {
                    "banks" => {
                        let names = parse_list(value);
                        if names.is_empty() {
                            return Err(bad_value(line, key, value, "at least one bank name"));
                        }
                        for n in &names {
                            refs.push(NameRef {
                                line,
                                field: "banks",
                                name: n.clone(),
                                kind: RefKind::Bank,
                            });
                        }
                        set_once(&mut draft.banks, names, line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: format!("mode {}", draft.name),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Task(i) => {
                let draft = &mut tasks[i];
                match key {
                    "energy" => {
                        let words: Vec<&str> = value.split_whitespace().collect();
                        let spec = match words.as_slice() {
                            ["unannotated"] => EnergySpec::Unannotated,
                            ["config", mode] => {
                                refs.push(NameRef {
                                    line,
                                    field: "energy",
                                    name: (*mode).to_string(),
                                    kind: RefKind::Mode,
                                });
                                EnergySpec::Config((*mode).to_string())
                            }
                            ["burst", mode] => {
                                refs.push(NameRef {
                                    line,
                                    field: "energy",
                                    name: (*mode).to_string(),
                                    kind: RefKind::Mode,
                                });
                                EnergySpec::Burst((*mode).to_string())
                            }
                            ["preburst", burst, exec] => {
                                for m in [burst, exec] {
                                    refs.push(NameRef {
                                        line,
                                        field: "energy",
                                        name: (*m).to_string(),
                                        kind: RefKind::Mode,
                                    });
                                }
                                EnergySpec::Preburst {
                                    burst: (*burst).to_string(),
                                    exec: (*exec).to_string(),
                                }
                            }
                            _ => {
                                return Err(bad_value(
                                    line,
                                    key,
                                    value,
                                    "`unannotated`, `config <mode>`, `burst <mode>`, \
                                     or `preburst <burst> <exec>`",
                                ));
                            }
                        };
                        set_once(&mut draft.energy, spec, line, key)?;
                    }
                    "compute_ms" => {
                        let v = parse_f64(line, key, value)?;
                        if v < 0.0 {
                            return Err(bad_value(line, key, value, "a non-negative duration"));
                        }
                        set_once(&mut draft.compute_ms, v, line, key)?;
                    }
                    "sleep_ms" => {
                        let v = parse_f64(line, key, value)?;
                        if v < 0.0 {
                            return Err(bad_value(line, key, value, "a non-negative duration"));
                        }
                        set_once(&mut draft.sleep_ms, v, line, key)?;
                    }
                    "repeat" => {
                        let v = parse_u64(line, key, value)?;
                        if v == 0 {
                            return Err(bad_value(line, key, value, "a positive count"));
                        }
                        set_once(&mut draft.repeat, v, line, key)?;
                    }
                    "then" => {
                        let spec = match value {
                            "stay" => ThenSpec::Stay,
                            "stop" => ThenSpec::Stop,
                            other => {
                                refs.push(NameRef {
                                    line,
                                    field: "then",
                                    name: other.to_string(),
                                    kind: RefKind::Task,
                                });
                                ThenSpec::To(other.to_string())
                            }
                        };
                        set_once(&mut draft.then, spec, line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: format!("task {}", draft.name),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Policy => {
                let draft = policy.as_mut().expect("in [policy] section");
                match key {
                    "kind" => set_once(&mut draft.kind, (line, value.to_string()), line, key)?,
                    "mode" => {
                        refs.push(NameRef {
                            line,
                            field: "mode",
                            name: value.to_string(),
                            kind: RefKind::Mode,
                        });
                        set_once(&mut draft.mode, value.to_string(), line, key)?;
                    }
                    "ladder" => {
                        let names = parse_list(value);
                        if names.is_empty() {
                            return Err(bad_value(line, key, value, "at least one mode name"));
                        }
                        for n in &names {
                            refs.push(NameRef {
                                line,
                                field: "ladder",
                                name: n.clone(),
                                kind: RefKind::Mode,
                            });
                        }
                        set_once(&mut draft.ladder, names, line, key)?;
                    }
                    "timeout_ms" => {
                        let v = parse_f64(line, key, value)?;
                        set_once(&mut draft.timeout_ms, v, line, key)?;
                    }
                    "thresholds_mw" => {
                        let mut thresholds = Vec::new();
                        for word in parse_list(value) {
                            thresholds.push(parse_f64(line, key, &word)?);
                        }
                        set_once(&mut draft.thresholds_mw, (line, thresholds), line, key)?;
                    }
                    "alpha" => {
                        let v = parse_f64(line, key, value)?;
                        if !(v > 0.0 && v <= 1.0) {
                            return Err(bad_value(line, key, value, "a factor in (0, 1]"));
                        }
                        set_once(&mut draft.alpha, (line, v), line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: "policy".to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Faults => match key {
                "fault" => {
                    let fault = parse_fault(line, value, &mut refs)?;
                    faults.push(fault);
                }
                "startup_margin_v" => {
                    let v = parse_f64(line, key, value)?;
                    set_once(&mut startup_margin_v, v, line, key)?;
                }
                _ => {
                    return Err(ManifestError::UnknownKey {
                        line,
                        section: "faults".to_string(),
                        key: key.to_string(),
                    });
                }
            },
            Section::Fleet => {
                let draft = fleet.as_mut().expect("fleet section implies a draft");
                match key {
                    "devices" => {
                        let v = parse_u64(line, key, value)?;
                        if v == 0 || v > MAX_FLEET_DEVICES {
                            return Err(bad_value(
                                line,
                                key,
                                value,
                                &format!("a device count from 1 to {MAX_FLEET_DEVICES}"),
                            ));
                        }
                        set_once(&mut draft.devices, (line, v), line, key)?;
                    }
                    "mix" => {
                        let mut templates: Vec<(String, u64)> = Vec::new();
                        let mut total = 0u64;
                        for word in parse_list(value) {
                            let Some((task, count)) = word.split_once(':') else {
                                return Err(bad_value(
                                    line,
                                    key,
                                    &word,
                                    "`<task>:<count>` template entries",
                                ));
                            };
                            let task = task.trim();
                            let count = parse_u64(line, key, count.trim())?;
                            if task.is_empty() || count == 0 {
                                return Err(bad_value(
                                    line,
                                    key,
                                    &word,
                                    "a task name and a positive count",
                                ));
                            }
                            if templates.iter().any(|(t, _)| t == task) {
                                return Err(ManifestError::Duplicate {
                                    line,
                                    kind: "mix template",
                                    name: task.to_string(),
                                });
                            }
                            total = total.saturating_add(count);
                            if total > MAX_FLEET_DEVICES {
                                return Err(bad_value(
                                    line,
                                    key,
                                    value,
                                    &format!(
                                        "template counts totalling at most {MAX_FLEET_DEVICES}"
                                    ),
                                ));
                            }
                            refs.push(NameRef {
                                line,
                                field: "mix",
                                name: task.to_string(),
                                kind: RefKind::Task,
                            });
                            templates.push((task.to_string(), count));
                        }
                        if templates.is_empty() {
                            return Err(bad_value(
                                line,
                                key,
                                value,
                                "at least one `<task>:<count>` template",
                            ));
                        }
                        set_once(&mut draft.mix, (line, templates), line, key)?;
                    }
                    "trace" => {
                        set_once(&mut draft.trace, (line, value.to_string()), line, key)?;
                    }
                    "panel_jitter_pct" | "rate_jitter_pct" => {
                        let v = parse_f64(line, key, value)?;
                        if !(0.0..=100.0).contains(&v) {
                            return Err(bad_value(line, key, value, "a percentage in [0, 100]"));
                        }
                        let slot = if key == "panel_jitter_pct" {
                            &mut draft.panel_jitter_pct
                        } else {
                            &mut draft.rate_jitter_pct
                        };
                        set_once(slot, v, line, key)?;
                    }
                    "eclipse_period_s" => {
                        let v = parse_f64(line, key, value)?;
                        if v <= 0.0 {
                            return Err(bad_value(line, key, value, "a positive duration"));
                        }
                        set_once(&mut draft.eclipse_period_s, v, line, key)?;
                    }
                    "eclipse_sunlit" | "dip_factor" | "shading" => {
                        let v = parse_f64(line, key, value)?;
                        if !(0.0..=1.0).contains(&v) {
                            return Err(bad_value(line, key, value, "a fraction in [0, 1]"));
                        }
                        let slot = match key {
                            "eclipse_sunlit" => &mut draft.eclipse_sunlit,
                            "dip_factor" => &mut draft.dip_factor,
                            _ => &mut draft.shading,
                        };
                        set_once(slot, v, line, key)?;
                    }
                    "dips" => {
                        let v = parse_u32(line, key, value)?;
                        set_once(&mut draft.dips, (line, v), line, key)?;
                    }
                    "dip_hold_s" => {
                        let v = parse_f64(line, key, value)?;
                        if v < 0.0 {
                            return Err(bad_value(line, key, value, "a non-negative duration"));
                        }
                        set_once(&mut draft.dip_hold_s, v, line, key)?;
                    }
                    _ => {
                        return Err(ManifestError::UnknownKey {
                            line,
                            section: "fleet".to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            Section::Limits => match key {
                "max_sim_seconds" => {
                    let v = parse_f64(line, key, value)?;
                    if v <= 0.0 {
                        return Err(bad_value(line, key, value, "a positive duration"));
                    }
                    set_once(&mut max_sim_seconds, v, line, key)?;
                }
                "max_steps" => {
                    let v = parse_u64(line, key, value)?;
                    set_once(&mut max_steps, v, line, key)?;
                }
                "no_progress_steps" => {
                    let v = parse_u64(line, key, value)?;
                    if v == 0 {
                        return Err(bad_value(line, key, value, "a positive step count"));
                    }
                    set_once(&mut no_progress_steps, v, line, key)?;
                }
                "max_energy_joules" => {
                    let v = parse_f64(line, key, value)?;
                    if v <= 0.0 {
                        return Err(bad_value(line, key, value, "a positive energy"));
                    }
                    set_once(&mut max_energy_joules, v, line, key)?;
                }
                _ => {
                    return Err(ManifestError::UnknownKey {
                        line,
                        section: "limits".to_string(),
                        key: key.to_string(),
                    });
                }
            },
            Section::Assert => match key {
                "completions" => {
                    let words: Vec<&str> = value.split_whitespace().collect();
                    let [task, op, count] = words.as_slice() else {
                        return Err(bad_value(line, key, value, "`<task> <op> <count>`"));
                    };
                    refs.push(NameRef {
                        line,
                        field: "completions",
                        name: (*task).to_string(),
                        kind: RefKind::Task,
                    });
                    assertions.push(AssertionSpec::TaskCompletions {
                        task: (*task).to_string(),
                        op: parse_cmp_op(line, key, op)?,
                        count: parse_u64(line, key, count)?,
                    });
                }
                "total_completions" | "failures" => {
                    let words: Vec<&str> = value.split_whitespace().collect();
                    let [op, count] = words.as_slice() else {
                        return Err(bad_value(line, key, value, "`<op> <count>`"));
                    };
                    let op = parse_cmp_op(line, key, op)?;
                    let count = parse_u64(line, key, count)?;
                    assertions.push(if key == "failures" {
                        AssertionSpec::Failures { op, count }
                    } else {
                        AssertionSpec::TotalCompletions { op, count }
                    });
                }
                "require_event" => {
                    assertions.push(AssertionSpec::RequireEvent(parse_event_kind(
                        line, key, value,
                    )?));
                }
                "forbid_event" => {
                    assertions.push(AssertionSpec::ForbidEvent(parse_event_kind(
                        line, key, value,
                    )?));
                }
                "final_mode" => {
                    refs.push(NameRef {
                        line,
                        field: "final_mode",
                        name: value.to_string(),
                        kind: RefKind::Mode,
                    });
                    assertions.push(AssertionSpec::FinalMode(value.to_string()));
                }
                "min_availability" => {
                    let v = parse_f64(line, key, value)?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(bad_value(line, key, value, "a fraction in [0, 1]"));
                    }
                    assertions.push(AssertionSpec::MinAvailability(v));
                }
                _ => {
                    return Err(ManifestError::UnknownKey {
                        line,
                        section: "assert".to_string(),
                        key: key.to_string(),
                    });
                }
            },
        }
    }

    if !saw_schema {
        return Err(missing("(document)", "schema"));
    }

    // --- assemble, enforcing required fields ---

    let name = name.ok_or_else(|| missing("(top level)", "name"))?;
    let variant = variant.ok_or_else(|| missing("(top level)", "variant"))?;

    let harvester = harvester.ok_or_else(|| missing("(document)", "[harvester]"))?;
    let harvester = build_harvester(harvester)?;

    if banks.is_empty() {
        return Err(missing("(document)", "[bank]"));
    }
    let banks: Vec<BankSpec> = banks
        .into_iter()
        .map(|d| {
            let section = format!("bank {}", d.name);
            Ok(BankSpec {
                parts: d.parts.ok_or_else(|| missing(&section, "parts"))?,
                switch: d.switch.ok_or_else(|| missing(&section, "switch"))?,
                name: d.name,
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    let modes: Vec<ModeSpec> = modes
        .into_iter()
        .map(|d| {
            let section = format!("mode {}", d.name);
            Ok(ModeSpec {
                banks: d.banks.ok_or_else(|| missing(&section, "banks"))?,
                name: d.name,
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    if tasks.is_empty() {
        return Err(missing("(document)", "[task]"));
    }
    let tasks: Vec<TaskSpec> = tasks
        .into_iter()
        .map(|d| {
            let section = format!("task {}", d.name);
            Ok(TaskSpec {
                energy: d.energy.ok_or_else(|| missing(&section, "energy"))?,
                compute_ms: d
                    .compute_ms
                    .ok_or_else(|| missing(&section, "compute_ms"))?,
                sleep_ms: d.sleep_ms,
                repeat: d.repeat,
                then: d.then.ok_or_else(|| missing(&section, "then"))?,
                name: d.name,
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    let policy = match policy {
        None => PolicySpec::Static,
        Some(draft) => build_policy(draft)?,
    };

    let fleet = match fleet {
        None => None,
        Some(draft) => {
            // `devices` and `mix` both size the population; exactly one
            // may appear. A trace and an eclipse period both drive the
            // shared light cycle; at most one may appear.
            let (devices, mix) = match (draft.devices, draft.mix) {
                (Some((line, _)), Some(_)) => {
                    return Err(bad_value(
                        line,
                        "devices",
                        "devices",
                        "either `devices` or `mix`, not both",
                    ));
                }
                (Some((_, devices)), None) => (devices, Vec::new()),
                // The parser checked that the counts sum to at most
                // MAX_FLEET_DEVICES.
                (None, Some((_, mix))) => (mix.iter().map(|(_, n)| n).sum(), mix),
                (None, None) => return Err(missing("fleet", "devices (or mix)")),
            };
            if let (Some((line, trace)), Some(_)) = (&draft.trace, draft.eclipse_period_s) {
                return Err(bad_value(
                    *line,
                    "trace",
                    trace,
                    "no `eclipse_period_s` alongside a trace (both drive the shared light cycle)",
                ));
            }
            // The dip onsets spread across the horizon; a count whose mean
            // gap rounds to zero microseconds has no schedule.
            if let Some((line, dips)) = draft.dips {
                let zero_gap = max_sim_seconds.is_some_and(|h| dip_mean_gap(h, dips).is_zero());
                if dips > MAX_FLEET_DIPS || zero_gap {
                    return Err(bad_value(
                        line,
                        "dips",
                        &dips.to_string(),
                        &format!(
                            "at most {MAX_FLEET_DIPS} dips, with a mean gap across \
                             `max_sim_seconds` of at least 1 µs"
                        ),
                    ));
                }
            }
            Some(FleetStanza {
                devices,
                mix,
                trace: draft.trace.map(|(_, file)| file),
                panel_jitter_pct: draft.panel_jitter_pct.unwrap_or(0.0),
                rate_jitter_pct: draft.rate_jitter_pct.unwrap_or(0.0),
                eclipse_period_s: draft.eclipse_period_s,
                eclipse_sunlit: draft.eclipse_sunlit.unwrap_or(0.5),
                dips: draft.dips.map_or(0, |(_, n)| n),
                dip_hold_s: draft.dip_hold_s.unwrap_or(0.0),
                dip_factor: draft.dip_factor.unwrap_or(1.0),
                shading: draft.shading.unwrap_or(0.0),
            })
        }
    };

    if !saw_limits {
        return Err(missing("(document)", "[limits]"));
    }
    let limits = LimitsSpec {
        max_sim_seconds: max_sim_seconds.ok_or_else(|| missing("limits", "max_sim_seconds"))?,
        max_steps,
        no_progress_steps,
        max_energy_joules,
    };

    // --- resolve deferred cross-references ---
    for r in &refs {
        let declared = match r.kind {
            RefKind::Bank => banks.iter().any(|b| b.name == r.name),
            RefKind::Mode => modes.iter().any(|m| m.name == r.name),
            RefKind::Task => tasks.iter().any(|t| t.name == r.name),
        };
        if !declared {
            return Err(ManifestError::UnknownName {
                line: r.line,
                field: r.field,
                name: r.name.clone(),
            });
        }
    }

    Ok(ScenarioManifest {
        name,
        seed: seed.unwrap_or(0),
        variant,
        mcu: mcu.unwrap_or(McuKind::Msp430fr5969),
        degradation: degradation.unwrap_or(false),
        harvest_during_operation: harvest_during_operation.unwrap_or(false),
        harvester,
        banks,
        modes,
        tasks,
        policy,
        faults,
        startup_margin_v,
        fleet,
        limits,
        assertions,
    })
}

fn build_harvester(draft: HarvesterDraft) -> Result<HarvesterSpec, ManifestError> {
    let (kind_line, kind) = draft.kind.ok_or_else(|| missing("harvester", "kind"))?;
    let need = |slot: Option<f64>, field: &str| slot.ok_or_else(|| missing("harvester", field));
    match kind.as_str() {
        "dark" => Ok(HarvesterSpec::Dark),
        "constant" => Ok(HarvesterSpec::Constant {
            power_mw: need(draft.power_mw, "power_mw")?,
            voltage: need(draft.voltage, "voltage")?,
        }),
        "regulated" => Ok(HarvesterSpec::Regulated {
            max_power_mw: need(draft.max_power_mw, "max_power_mw")?,
            voltage: need(draft.voltage, "voltage")?,
        }),
        "square-wave" => Ok(HarvesterSpec::SquareWave {
            power_mw: need(draft.power_mw, "power_mw")?,
            voltage: need(draft.voltage, "voltage")?,
            on_ms: need(draft.on_ms, "on_ms")?,
            off_ms: need(draft.off_ms, "off_ms")?,
            cycles: draft.cycles.ok_or_else(|| missing("harvester", "cycles"))?,
        }),
        "solar-trisolx" => Ok(HarvesterSpec::SolarTrisolx),
        _ => Err(bad_value(
            kind_line,
            "kind",
            &kind,
            "`dark`, `constant`, `regulated`, `square-wave`, or `solar-trisolx`",
        )),
    }
}

fn build_policy(draft: PolicyDraft) -> Result<PolicySpec, ManifestError> {
    let (kind_line, kind) = draft.kind.ok_or_else(|| missing("policy", "kind"))?;
    match kind.as_str() {
        "static" => Ok(PolicySpec::Static),
        "pinned" => Ok(PolicySpec::Pinned {
            mode: draft.mode.ok_or_else(|| missing("policy", "mode"))?,
        }),
        "reactive" => Ok(PolicySpec::Reactive {
            ladder: draft.ladder.ok_or_else(|| missing("policy", "ladder"))?,
            timeout_ms: draft
                .timeout_ms
                .ok_or_else(|| missing("policy", "timeout_ms"))?,
        }),
        "ewma" => {
            let ladder = draft.ladder.ok_or_else(|| missing("policy", "ladder"))?;
            let (t_line, thresholds_mw) = draft
                .thresholds_mw
                .ok_or_else(|| missing("policy", "thresholds_mw"))?;
            if thresholds_mw.len() + 1 != ladder.len() {
                return Err(bad_value(
                    t_line,
                    "thresholds_mw",
                    &format!("{} thresholds", thresholds_mw.len()),
                    &format!("one threshold per ladder gap ({})", ladder.len() - 1),
                ));
            }
            let (_, alpha) = draft.alpha.ok_or_else(|| missing("policy", "alpha"))?;
            Ok(PolicySpec::Ewma {
                ladder,
                thresholds_mw,
                alpha,
            })
        }
        _ => Err(bad_value(
            kind_line,
            "kind",
            &kind,
            "`static`, `pinned`, `reactive`, or `ewma`",
        )),
    }
}

fn parse_fault(
    line: usize,
    value: &str,
    refs: &mut Vec<NameRef>,
) -> Result<FaultSpec, ManifestError> {
    let expected = "`stuck-open <bank> @ <s>`, `stuck-closed <bank> @ <s>`, \
                    `weak-latch <bank> <factor> @ <s>`, \
                    or `degraded <bank> <cap_derate> <esr_scale> @ <s>`";
    let Some((head, at)) = value.split_once('@') else {
        return Err(bad_value(line, "fault", value, expected));
    };
    let at_s = parse_f64(line, "fault", at.trim())?;
    if at_s < 0.0 {
        return Err(bad_value(line, "fault", at.trim(), "a non-negative time"));
    }
    let words: Vec<&str> = head.split_whitespace().collect();
    let mut bank_ref = |bank: &str| {
        refs.push(NameRef {
            line,
            field: "fault",
            name: bank.to_string(),
            kind: RefKind::Bank,
        });
        bank.to_string()
    };
    match words.as_slice() {
        ["stuck-open", bank] => Ok(FaultSpec::StuckOpen {
            bank: bank_ref(bank),
            at_s,
        }),
        ["stuck-closed", bank] => Ok(FaultSpec::StuckClosed {
            bank: bank_ref(bank),
            at_s,
        }),
        ["weak-latch", bank, factor] => Ok(FaultSpec::WeakLatch {
            bank: bank_ref(bank),
            factor: fault_number(line, factor, 1.0.., "a `weak-latch` factor of at least 1")?,
            at_s,
        }),
        ["degraded", bank, cap, esr] => Ok(FaultSpec::Degraded {
            bank: bank_ref(bank),
            cap_derate: fault_number(line, cap, 0.0..=1.0, "a `degraded` cap_derate in [0, 1]")?,
            esr_scale: fault_number(line, esr, 1.0.., "a `degraded` esr_scale of at least 1")?,
            at_s,
        }),
        _ => Err(bad_value(line, "fault", value, expected)),
    }
}

/// A `[faults]` number, checked against the range the kernel honours:
/// outside it the kernel would clamp or ignore the value and run a
/// different fault.
fn fault_number(
    line: usize,
    value: &str,
    range: impl RangeBounds<f64>,
    expected: &str,
) -> Result<f64, ManifestError> {
    let v = parse_f64(line, "fault", value)?;
    if !range.contains(&v) {
        return Err(bad_value(line, "fault", value, expected));
    }
    Ok(v)
}

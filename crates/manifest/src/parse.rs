//! The `capy-scenario/v1` text parser.
//!
//! The format is line-oriented: `key = value` pairs grouped under
//! `[section]` headers, `#` comments, blank lines ignored. The first
//! significant line must declare the schema
//! (`schema = capy-scenario/v1`). Every diagnostic is a typed
//! [`ManifestError`] carrying the offending line and field so a failing
//! manifest is fixable without reading this source.
//!
//! Each key is declared once, in the `TOP` and `SECTIONS` tables,
//! with its value type and that type's range or cap. One generic path
//! finds a line's key among its section's entries, parses and checks
//! the value, rejects a repeat, records the names the value references,
//! and stores it; assembly then reads the typed values back out.

use std::fmt;

use capy_power::switch::SwitchKind;
use capybara::Variant;

use crate::compile::duration_ms;
use crate::model::{
    AssertionSpec, BankSpec, CmpOp, EnergySpec, EventKind, FaultSpec, FleetStanza, HarvesterKind,
    HarvesterSpec, Keyword, LimitsSpec, McuKind, ModeSpec, Num, PartKind, PolicyKind, PolicySpec,
    ScenarioManifest, TaskSpec, ThenSpec, SCHEMA,
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

/// The largest `[fleet]` population, whether given as `devices` or as a
/// `mix` total: about 4,000× the largest fleet the repository runs, so
/// no manifest can queue work without bound.
const MAX_FLEET_DEVICES: u64 = 1 << 32;

/// The most correlated harvest dips a `[fleet]` may ask for: 8 MiB of
/// onsets, or a dip every 30 s for a year.
const MAX_FLEET_DIPS: u64 = 1 << 20;

/// The longest time any key may give, in seconds: a year-long horizon
/// fits 30 times over, and sums of capped times stay far below the
/// `u64` microseconds the kernel counts in.
const MAX_TIME_S: f64 = 1e9;

/// The most on/off cycles a `square-wave` harvester may ask for: 48 MiB
/// of breakpoints.
const MAX_SQUARE_WAVE_CYCLES: u64 = 1 << 20;

/// The largest harvest power, or power threshold, in milliwatts: 1 kW,
/// five orders of magnitude above the paper's harvesters.
const MAX_POWER_MW: f64 = 1e6;

/// The largest voltage a key may give: far above any part's rating.
const MAX_VOLTS: f64 = 1e3;

/// A finite number's accepted interval and unit.
#[derive(Clone, Copy)]
struct Range {
    lo: f64,
    lo_open: bool,
    hi: f64,
    unit: &'static str,
}

impl Range {
    fn parse(self, at: &At<'_, '_>, value: &str) -> Result<f64, ManifestError> {
        value
            .parse::<f64>()
            .ok()
            .filter(|&v| {
                v.is_finite() && (v > self.lo || (!self.lo_open && v == self.lo)) && v <= self.hi
            })
            .ok_or_else(|| at.bad(value, self))
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, unit) = (Num(self.lo), self.unit);
        if self.hi.is_infinite() {
            write!(f, "a number of at least {lo}{unit}")
        } else {
            let open = if self.lo_open { '(' } else { '[' };
            write!(f, "a number in {open}{lo}, {}]{unit}", Num(self.hi))
        }
    }
}

/// A key's value type, with its range where it has one.
#[derive(Clone, Copy)]
enum Ty {
    /// A finite number.
    Num(Range),
    /// A comma-list of finite numbers.
    Nums(Range),
    /// An integer in `[lo, hi]`.
    Int(u64, u64),
    /// One of a [`Keyword`] set: [`lookup`] for that set.
    Kw(fn(&str) -> Result<usize, String>),
    /// Free text.
    Text,
    /// The name of a declared bank, mode, or task.
    Ref(RefKind),
    /// A non-empty comma-list of such names.
    Refs(RefKind),
    /// A structured value with a small parser of its own.
    Form(Form),
}

type Form = for<'a> fn(&mut At<'_, 'a>, &'a str) -> Result<Value<'a>, ManifestError>;

/// One key of a section: its name, its value type, and whether it may
/// repeat.
struct Key {
    name: &'static str,
    ty: Ty,
    many: bool,
}

/// One kind of section: its header word, whether the header takes a
/// name (a named section repeats under distinct names, an unnamed one
/// appears at most once), and its keys.
struct Section {
    word: &'static str,
    named: bool,
    keys: &'static [Key],
}

const fn key(name: &'static str, ty: Ty) -> Key {
    Key {
        name,
        ty,
        many: false,
    }
}

const fn many(name: &'static str, ty: Ty) -> Key {
    Key {
        many: true,
        ..key(name, ty)
    }
}

const fn range(lo: f64, hi: f64, unit: &'static str) -> Range {
    Range {
        lo,
        lo_open: false,
        hi,
        unit,
    }
}

const fn num(lo: f64, hi: f64, unit: &'static str) -> Ty {
    Ty::Num(range(lo, hi, unit))
}

/// A number above `lo`, up to `hi`.
const fn above(lo: f64, hi: f64, unit: &'static str) -> Ty {
    Ty::Num(Range {
        lo_open: true,
        ..range(lo, hi, unit)
    })
}

/// Milliseconds from `lo` up to the time cap.
const fn ms(lo: f64) -> Ty {
    num(lo, MAX_TIME_S * 1e3, " ms")
}

/// Seconds from `lo` up to the time cap.
const fn secs(lo: f64) -> Ty {
    num(lo, MAX_TIME_S, " s")
}

/// The keys before the first `[section]` header.
static TOP: Section = Section {
    word: "(top level)",
    named: false,
    keys: &[
        key("schema", Ty::Text),
        key("name", Ty::Text),
        key("seed", Ty::Int(0, u64::MAX)),
        key("variant", Ty::Kw(lookup::<Variant>)),
        key("mcu", Ty::Kw(lookup::<McuKind>)),
        key("degradation", Ty::Kw(lookup::<bool>)),
        key("harvest_during_operation", Ty::Kw(lookup::<bool>)),
    ],
};

/// Every `[section]`, in canonical emit order. A duration the kernel
/// rounds to whole microseconds starts at 1 µs wherever zero is invalid.
static SECTIONS: [Section; 9] = [
    Section {
        word: "harvester",
        named: false,
        keys: &[
            key("kind", Ty::Kw(lookup::<HarvesterKind>)),
            key("power_mw", num(0.0, MAX_POWER_MW, " mW")),
            key("voltage", num(0.0, MAX_VOLTS, " V")),
            key("max_power_mw", num(0.0, MAX_POWER_MW, " mW")),
            key("on_ms", ms(0.001)),
            key("off_ms", ms(0.001)),
            key("cycles", Ty::Int(1, MAX_SQUARE_WAVE_CYCLES)),
        ],
    },
    Section {
        word: "bank",
        named: true,
        keys: &[
            key("parts", Ty::Form(parts)),
            key("switch", Ty::Kw(lookup::<SwitchKind>)),
        ],
    },
    Section {
        word: "mode",
        named: true,
        keys: &[key("banks", Ty::Refs(RefKind::Bank))],
    },
    Section {
        word: "task",
        named: true,
        keys: &[
            key("energy", Ty::Form(energy)),
            key("compute_ms", ms(0.0)),
            key("sleep_ms", ms(0.0)),
            key("repeat", Ty::Int(1, u64::MAX)),
            key("then", Ty::Form(then)),
        ],
    },
    Section {
        word: "policy",
        named: false,
        keys: &[
            key("kind", Ty::Kw(lookup::<PolicyKind>)),
            key("mode", Ty::Ref(RefKind::Mode)),
            key("ladder", Ty::Refs(RefKind::Mode)),
            key("timeout_ms", ms(0.0)),
            key("thresholds_mw", Ty::Nums(range(0.0, MAX_POWER_MW, " mW"))),
            key("alpha", above(0.0, 1.0, "")),
        ],
    },
    Section {
        word: "faults",
        named: false,
        keys: &[
            many("fault", Ty::Form(fault)),
            key("startup_margin_v", num(0.0, MAX_VOLTS, " V")),
        ],
    },
    Section {
        word: "fleet",
        named: false,
        keys: &[
            key("devices", Ty::Int(1, MAX_FLEET_DEVICES)),
            key("mix", Ty::Form(mix)),
            key("trace", Ty::Text),
            key("panel_jitter_pct", num(0.0, 100.0, "%")),
            key("rate_jitter_pct", num(0.0, 100.0, "%")),
            key("eclipse_period_s", secs(1e-6)),
            key("eclipse_sunlit", num(0.0, 1.0, "")),
            key("dips", Ty::Int(0, MAX_FLEET_DIPS)),
            key("dip_hold_s", secs(0.0)),
            key("dip_factor", num(0.0, 1.0, "")),
            key("shading", num(0.0, 1.0, "")),
        ],
    },
    Section {
        word: "limits",
        named: false,
        keys: &[
            key("max_sim_seconds", secs(1e-6)),
            key("max_steps", Ty::Int(0, u64::MAX)),
            key("no_progress_steps", Ty::Int(1, u64::MAX)),
            // No budget above what the largest harvester delivers over
            // the longest horizon.
            key(
                "max_energy_joules",
                above(0.0, MAX_POWER_MW / 1e3 * MAX_TIME_S, " J"),
            ),
        ],
    },
    Section {
        word: "assert",
        named: false,
        keys: &[
            many("completions", Ty::Form(completions)),
            many("total_completions", Ty::Form(total_completions)),
            many("failures", Ty::Form(failures)),
            many("require_event", Ty::Kw(lookup::<EventKind>)),
            many("forbid_event", Ty::Kw(lookup::<EventKind>)),
            many("final_mode", Ty::Ref(RefKind::Mode)),
            many("min_availability", num(0.0, 1.0, "")),
        ],
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum RefKind {
    Bank,
    Mode,
    Task,
}

/// A deferred cross-reference: resolved against the declared names once
/// the whole document is read, so forward references work.
struct NameRef<'a> {
    line: usize,
    field: &'static str,
    name: &'a str,
    kind: RefKind,
}

/// The line a value sits on: where its diagnostics point, and where the
/// names it references are recorded.
struct At<'r, 'a> {
    line: usize,
    key: &'static str,
    refs: &'r mut Vec<NameRef<'a>>,
}

impl<'a> At<'_, 'a> {
    fn bad(&self, value: &str, expected: impl fmt::Display) -> ManifestError {
        bad_value(self.line, self.key, value, expected)
    }

    fn refer(&mut self, kind: RefKind, name: &'a str) -> &'a str {
        self.refs.push(NameRef {
            line: self.line,
            field: self.key,
            name,
            kind,
        });
        name
    }
}

/// A parsed value, borrowing from the manifest text until assembly needs
/// an owned one.
enum Value<'a> {
    Num(f64),
    Nums(Vec<f64>),
    Int(u64),
    Kw(usize),
    Text(&'a str),
    Names(Vec<&'a str>),
    Parts(Vec<PartKind>),
    Energy(EnergySpec),
    Then(ThenSpec),
    Mix(Vec<(String, u64)>),
    Fault(FaultSpec),
    Assert(AssertionSpec),
}

impl Ty {
    fn parse<'a>(self, at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
        Ok(match self {
            Ty::Num(range) => Value::Num(range.parse(at, value)?),
            Ty::Nums(range) => Value::Nums(
                list(value)
                    .map(|v| range.parse(at, v))
                    .collect::<Result<_, _>>()?,
            ),
            Ty::Int(lo, hi) => Value::Int(int(at, value, lo, hi)?),
            Ty::Kw(lookup) => Value::Kw(lookup(value).map_err(|expected| at.bad(value, expected))?),
            Ty::Text => Value::Text(value),
            Ty::Ref(kind) => Value::Text(at.refer(kind, value)),
            Ty::Refs(kind) => {
                let names: Vec<&str> = list(value).collect();
                if names.is_empty() {
                    let noun = match kind {
                        RefKind::Bank => "bank",
                        RefKind::Mode => "mode",
                        RefKind::Task => "task",
                    };
                    return Err(at.bad(value, format_args!("at least one {noun} name")));
                }
                for name in &names {
                    at.refer(kind, name);
                }
                Value::Names(names)
            }
            Ty::Form(form) => form(at, value)?,
        })
    }
}

/// Typed readers for assembly, one per value type that reads back as
/// stored: each is `None` when the value has another type.
macro_rules! readers {
    ($($reader:ident: $variant:ident -> $ty:ty),* $(,)?) => {
        impl Value<'_> {
            $(fn $reader(self) -> Option<$ty> {
                match self {
                    Value::$variant(v) => Some(v),
                    _ => None,
                }
            })*
        }
    };
}

readers! {
    num: Num -> f64,
    nums: Nums -> Vec<f64>,
    parts: Parts -> Vec<PartKind>,
    energy: Energy -> EnergySpec,
    then: Then -> ThenSpec,
    mix: Mix -> Vec<(String, u64)>,
    fault: Fault -> FaultSpec,
}

/// The readers that convert as they read.
impl Value<'_> {
    fn int<T: TryFrom<u64>>(self) -> Option<T> {
        match self {
            Value::Int(n) => T::try_from(n).ok(),
            _ => None,
        }
    }

    fn kw<K: Keyword>(self) -> Option<K> {
        match self {
            Value::Kw(i) => K::ALL.get(i).copied(),
            _ => None,
        }
    }

    fn text(self) -> Option<String> {
        match self {
            Value::Text(text) => Some(text.to_string()),
            _ => None,
        }
    }

    fn names(self) -> Option<Vec<String>> {
        match self {
            Value::Names(names) => Some(names.into_iter().map(String::from).collect()),
            _ => None,
        }
    }
}

/// A parser invariant, not an input check: each key's value is parsed
/// as the type its table entry declares, so reading it back as another
/// is a bug in this file, whatever the input.
fn mistyped(key: &str) -> ! {
    unreachable!("`{key}` is read back as a type its table entry does not declare")
}

struct Slot<'a> {
    key: &'static str,
    line: usize,
    value: Value<'a>,
}

/// One section as written: its values in document order.
struct Stanza<'a> {
    section: &'static Section,
    name: &'a str,
    slots: Vec<Slot<'a>>,
}

impl<'a> Stanza<'a> {
    fn new(section: &'static Section, name: &'a str) -> Self {
        Self {
            section,
            name,
            slots: Vec::with_capacity(section.keys.len()),
        }
    }

    /// The section as diagnostics name it: `harvester`, `bank small`.
    fn label(&self) -> String {
        if self.name.is_empty() {
            self.section.word.to_string()
        } else {
            format!("{} {}", self.section.word, self.name)
        }
    }

    fn set_once(
        &mut self,
        key: &'static Key,
        line: usize,
        value: Value<'a>,
    ) -> Result<(), ManifestError> {
        if !key.many && self.slots.iter().any(|s| s.key == key.name) {
            return Err(ManifestError::Duplicate {
                line,
                kind: "key",
                name: key.name.to_string(),
            });
        }
        self.slots.push(Slot {
            key: key.name,
            line,
            value,
        });
        Ok(())
    }

    /// Takes `key`'s value, and the line it was set on, out of the section.
    fn get_at<T>(
        &mut self,
        key: &str,
        pick: impl FnOnce(Value<'a>) -> Option<T>,
    ) -> Option<(usize, T)> {
        let i = self.slots.iter().position(|s| s.key == key)?;
        let slot = self.slots.remove(i);
        Some((slot.line, pick(slot.value).unwrap_or_else(|| mistyped(key))))
    }

    fn get<T>(&mut self, key: &str, pick: impl FnOnce(Value<'a>) -> Option<T>) -> Option<T> {
        self.get_at(key, pick).map(|(_, v)| v)
    }

    /// [`Self::get`] for a key the section requires.
    fn req<T>(
        &mut self,
        key: &str,
        pick: impl FnOnce(Value<'a>) -> Option<T>,
    ) -> Result<T, ManifestError> {
        self.get(key, pick)
            .ok_or_else(|| missing(&self.label(), key))
    }
}

fn bad_value(line: usize, key: &str, value: &str, expected: impl fmt::Display) -> ManifestError {
    ManifestError::BadValue {
        line,
        key: key.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

fn missing(section: &str, field: &str) -> ManifestError {
    ManifestError::MissingField {
        section: section.to_string(),
        field: field.to_string(),
    }
}

fn list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn int(at: &At<'_, '_>, value: &str, lo: u64, hi: u64) -> Result<u64, ManifestError> {
    value
        .parse::<u64>()
        .ok()
        .filter(|n| (lo..=hi).contains(n))
        .ok_or_else(|| at.bad(value, format_args!("an integer in [{lo}, {hi}]")))
}

/// The index of `word` in `K::ALL`, or else the list of `K`'s keywords.
fn lookup<K: Keyword>(word: &str) -> Result<usize, String> {
    K::ALL
        .iter()
        .position(|k| k.keyword() == word)
        .ok_or_else(|| {
            let n = K::ALL.len();
            K::ALL
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let sep = if i == 0 {
                        ""
                    } else if i + 1 < n {
                        ", "
                    } else if n == 2 {
                        " or "
                    } else {
                        ", or "
                    };
                    format!("{sep}`{}`", k.keyword())
                })
                .collect()
        })
}

fn keyword<K: Keyword>(at: &At<'_, '_>, word: &str) -> Result<K, ManifestError> {
    lookup::<K>(word)
        .map(|i| K::ALL[i])
        .map_err(|expected| at.bad(word, expected))
}

/// Parses a `capy-scenario/v1` document into its data model.
///
/// # Errors
///
/// Returns the first [`ManifestError`] encountered, in document order;
/// cross-reference errors surface after the whole document reads
/// cleanly.
pub fn parse_manifest(text: &str) -> Result<ScenarioManifest, ManifestError> {
    let mut saw_schema = false;
    let mut top = Stanza::new(&TOP, "");
    let mut sections: [Vec<Stanza>; 9] = Default::default();
    // The section the following keys belong to: an index into
    // `sections`, or `None` for the top level.
    let mut current: Option<(usize, usize)> = None;
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
            let word = words.next().unwrap_or("");
            let arg = words.next();
            if words.next().is_some() {
                return Err(ManifestError::Syntax {
                    line,
                    message: format!("section `[{word}]` header has too many words"),
                });
            }
            let Some(s) = SECTIONS.iter().position(|s| s.word == word) else {
                return Err(ManifestError::UnknownSection {
                    line,
                    section: header.to_string(),
                });
            };
            let section = &SECTIONS[s];
            if section.named != arg.is_some() {
                let message = if section.named {
                    format!("section `[{word}]` requires a name: `[{word} <name>]`")
                } else {
                    format!("section `[{word}]` takes no name")
                };
                return Err(ManifestError::Syntax { line, message });
            }
            let name = arg.unwrap_or("");
            if sections[s].iter().any(|stanza| stanza.name == name) {
                let (kind, name) = if section.named {
                    (section.word, name)
                } else {
                    ("section", section.word)
                };
                return Err(ManifestError::Duplicate {
                    line,
                    kind,
                    name: name.to_string(),
                });
            }
            sections[s].push(Stanza::new(section, name));
            current = Some((s, sections[s].len() - 1));
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

        let stanza = match current {
            Some((s, i)) => &mut sections[s][i],
            None => &mut top,
        };
        let Some(entry) = stanza.section.keys.iter().find(|k| k.name == key) else {
            return Err(ManifestError::UnknownKey {
                line,
                section: stanza.label(),
                key: key.to_string(),
            });
        };
        let mut at = At {
            line,
            key: entry.name,
            refs: &mut refs,
        };
        let value = entry.ty.parse(&mut at, value)?;
        stanza.set_once(entry, line, value)?;
    }

    if !saw_schema {
        return Err(missing("(document)", "schema"));
    }

    // --- assemble, enforcing required fields ---

    let [harvester, banks, modes, tasks, policy, faults, fleet, limits, assert] = sections;
    let name = top.req("name", Value::text)?;
    let variant = top.req("variant", Value::kw)?;

    let harvester = match harvester.into_iter().next() {
        Some(stanza) => build_harvester(stanza)?,
        None => return Err(missing("(document)", "[harvester]")),
    };

    if banks.is_empty() {
        return Err(missing("(document)", "[bank]"));
    }
    let banks: Vec<BankSpec> = banks
        .into_iter()
        .map(|mut b| {
            Ok(BankSpec {
                parts: b.req("parts", Value::parts)?,
                switch: b.req("switch", Value::kw)?,
                name: b.name.to_string(),
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    let modes: Vec<ModeSpec> = modes
        .into_iter()
        .map(|mut m| {
            Ok(ModeSpec {
                banks: m.req("banks", Value::names)?,
                name: m.name.to_string(),
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    if tasks.is_empty() {
        return Err(missing("(document)", "[task]"));
    }
    let tasks: Vec<TaskSpec> = tasks
        .into_iter()
        .map(|mut t| {
            Ok(TaskSpec {
                energy: t.req("energy", Value::energy)?,
                compute_ms: t.req("compute_ms", Value::num)?,
                sleep_ms: t.get("sleep_ms", Value::num),
                repeat: t.get("repeat", Value::int),
                then: t.req("then", Value::then)?,
                name: t.name.to_string(),
            })
        })
        .collect::<Result<_, ManifestError>>()?;

    let policy = match policy.into_iter().next() {
        None => PolicySpec::Static,
        Some(stanza) => build_policy(stanza)?,
    };

    let (faults, startup_margin_v) = match faults.into_iter().next() {
        None => (Vec::new(), None),
        Some(mut stanza) => {
            let margin = stanza.get("startup_margin_v", Value::num);
            // Every other value of the section is a `fault`.
            let faults = stanza.slots.into_iter();
            (faults.filter_map(|s| s.value.fault()).collect(), margin)
        }
    };

    // The fleet's dip schedule spreads across the horizon, but a missing
    // `[limits]` is reported after the fleet's own errors.
    let limits = match limits.into_iter().next() {
        Some(mut l) => l
            .req("max_sim_seconds", Value::num)
            .map(|max_sim_seconds| LimitsSpec {
                max_sim_seconds,
                max_steps: l.get("max_steps", Value::int),
                no_progress_steps: l.get("no_progress_steps", Value::int),
                max_energy_joules: l.get("max_energy_joules", Value::num),
            }),
        None => Err(missing("(document)", "[limits]")),
    };
    let horizon_s = limits.as_ref().ok().map(|l| l.max_sim_seconds);
    let fleet = match fleet.into_iter().next() {
        None => None,
        Some(stanza) => Some(build_fleet(stanza, horizon_s)?),
    };
    let limits = limits?;

    let assertions = assert
        .into_iter()
        .flat_map(|stanza| stanza.slots)
        .map(|slot| match slot.value {
            Value::Assert(spec) => spec,
            Value::Kw(i) if slot.key == "require_event" => {
                AssertionSpec::RequireEvent(EventKind::ALL[i])
            }
            Value::Kw(i) => AssertionSpec::ForbidEvent(EventKind::ALL[i]),
            Value::Text(mode) => AssertionSpec::FinalMode(mode.to_string()),
            Value::Num(frac) => AssertionSpec::MinAvailability(frac),
            _ => mistyped(slot.key),
        })
        .collect();

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
                name: r.name.to_string(),
            });
        }
    }

    Ok(ScenarioManifest {
        name,
        seed: top.get("seed", Value::int).unwrap_or(0),
        variant,
        mcu: top.get("mcu", Value::kw).unwrap_or(McuKind::Msp430fr5969),
        degradation: top.get("degradation", Value::kw).unwrap_or(false),
        harvest_during_operation: top
            .get("harvest_during_operation", Value::kw)
            .unwrap_or(false),
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

fn build_harvester(mut h: Stanza) -> Result<HarvesterSpec, ManifestError> {
    Ok(match h.req("kind", Value::kw)? {
        HarvesterKind::Dark => HarvesterSpec::Dark,
        HarvesterKind::Constant => HarvesterSpec::Constant {
            power_mw: h.req("power_mw", Value::num)?,
            voltage: h.req("voltage", Value::num)?,
        },
        HarvesterKind::Regulated => HarvesterSpec::Regulated {
            max_power_mw: h.req("max_power_mw", Value::num)?,
            voltage: h.req("voltage", Value::num)?,
        },
        HarvesterKind::SquareWave => {
            let power_mw = h.req("power_mw", Value::num)?;
            let voltage = h.req("voltage", Value::num)?;
            let on_ms = h.req("on_ms", Value::num)?;
            let off_ms = h.req("off_ms", Value::num)?;
            let Some((line, cycles)) = h.get_at("cycles", Value::int::<u32>) else {
                return Err(missing("harvester", "cycles"));
            };
            // The kernel lays the wave out in whole microseconds, and
            // all of it must fit under the time cap.
            let period = duration_ms(on_ms) + duration_ms(off_ms);
            if u128::from(cycles) * u128::from(period.as_micros()) > (MAX_TIME_S * 1e6) as u128 {
                return Err(bad_value(
                    line,
                    "cycles",
                    &cycles.to_string(),
                    format_args!("a wave of at most {MAX_TIME_S} s: cycles × (on_ms + off_ms)"),
                ));
            }
            HarvesterSpec::SquareWave {
                power_mw,
                voltage,
                on_ms,
                off_ms,
                cycles,
            }
        }
        HarvesterKind::SolarTrisolx => HarvesterSpec::SolarTrisolx,
    })
}

fn build_policy(mut p: Stanza) -> Result<PolicySpec, ManifestError> {
    Ok(match p.req("kind", Value::kw)? {
        PolicyKind::Static => PolicySpec::Static,
        PolicyKind::Pinned => PolicySpec::Pinned {
            mode: p.req("mode", Value::text)?,
        },
        PolicyKind::Reactive => PolicySpec::Reactive {
            ladder: p.req("ladder", Value::names)?,
            timeout_ms: p.req("timeout_ms", Value::num)?,
        },
        PolicyKind::Ewma => {
            let ladder = p.req("ladder", Value::names)?;
            let Some((line, thresholds_mw)) = p.get_at("thresholds_mw", Value::nums) else {
                return Err(missing("policy", "thresholds_mw"));
            };
            if thresholds_mw.len() + 1 != ladder.len() {
                return Err(bad_value(
                    line,
                    "thresholds_mw",
                    &format!("{} thresholds", thresholds_mw.len()),
                    format_args!("one threshold per ladder gap ({})", ladder.len() - 1),
                ));
            }
            PolicySpec::Ewma {
                ladder,
                thresholds_mw,
                alpha: p.req("alpha", Value::num)?,
            }
        }
    })
}

fn build_fleet(mut f: Stanza, horizon_s: Option<f64>) -> Result<FleetStanza, ManifestError> {
    // `devices` and `mix` both size the population; exactly one may
    // appear. A trace and an eclipse period both drive the shared light
    // cycle; at most one may appear.
    let (devices, mix) = match (f.get_at("devices", Value::int), f.get("mix", Value::mix)) {
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
        (None, Some(mix)) => (mix.iter().map(|(_, n)| n).sum(), mix),
        (None, None) => return Err(missing("fleet", "devices (or mix)")),
    };
    let trace = f.get_at("trace", Value::text);
    let eclipse_period_s = f.get("eclipse_period_s", Value::num);
    if let (Some((line, trace)), Some(_)) = (&trace, eclipse_period_s) {
        return Err(bad_value(
            *line,
            "trace",
            trace,
            "no `eclipse_period_s` alongside a trace (both drive the shared light cycle)",
        ));
    }
    // The dip onsets spread across the horizon; a count whose mean gap
    // rounds to zero microseconds has no schedule.
    let dips = f.get_at("dips", Value::int);
    if let (Some((line, dips)), Some(horizon_s)) = (dips, horizon_s) {
        if dip_mean_gap(horizon_s, dips).is_zero() {
            return Err(bad_value(
                line,
                "dips",
                &dips.to_string(),
                "a mean gap across `max_sim_seconds` of at least 1 µs",
            ));
        }
    }
    let mut num = |key, default| f.get(key, Value::num).unwrap_or(default);
    Ok(FleetStanza {
        devices,
        mix,
        trace: trace.map(|(_, file)| file),
        panel_jitter_pct: num("panel_jitter_pct", 0.0),
        rate_jitter_pct: num("rate_jitter_pct", 0.0),
        eclipse_period_s,
        eclipse_sunlit: num("eclipse_sunlit", 0.5),
        dips: dips.map_or(0, |(_, n)| n),
        dip_hold_s: num("dip_hold_s", 0.0),
        dip_factor: num("dip_factor", 1.0),
        shading: num("shading", 0.0),
    })
}

// --- the structured forms ---

fn parts<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let parts = list(value)
        .map(|word| keyword::<PartKind>(at, word))
        .collect::<Result<Vec<_>, _>>()?;
    if parts.is_empty() {
        return Err(at.bad(value, "at least one part name"));
    }
    Ok(Value::Parts(parts))
}

fn energy<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let spec = match words[..] {
        ["unannotated"] => EnergySpec::Unannotated,
        ["config", mode] => EnergySpec::Config(at.refer(RefKind::Mode, mode).to_string()),
        ["burst", mode] => EnergySpec::Burst(at.refer(RefKind::Mode, mode).to_string()),
        ["preburst", burst, exec] => EnergySpec::Preburst {
            burst: at.refer(RefKind::Mode, burst).to_string(),
            exec: at.refer(RefKind::Mode, exec).to_string(),
        },
        _ => {
            return Err(at.bad(
                value,
                "`unannotated`, `config <mode>`, `burst <mode>`, or `preburst <burst> <exec>`",
            ));
        }
    };
    Ok(Value::Energy(spec))
}

fn then<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    Ok(Value::Then(match value {
        "stay" => ThenSpec::Stay,
        "stop" => ThenSpec::Stop,
        task => ThenSpec::To(at.refer(RefKind::Task, task).to_string()),
    }))
}

/// A `[faults]` entry. Its numbers are checked against the ranges the
/// kernel honours: outside them the kernel would clamp or ignore the
/// value and run a different fault.
fn fault<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let expected = "`stuck-open <bank> @ <s>`, `stuck-closed <bank> @ <s>`, \
                    `weak-latch <bank> <factor> @ <s>`, \
                    or `degraded <bank> <cap_derate> <esr_scale> @ <s>`";
    let Some((head, when)) = value.split_once('@') else {
        return Err(at.bad(value, expected));
    };
    let at_s = range(0.0, MAX_TIME_S, " s").parse(at, when.trim())?;
    let at_least_one = range(1.0, f64::INFINITY, "");
    let words: Vec<&str> = head.split_whitespace().collect();
    let spec = match words[..] {
        ["stuck-open", bank] => FaultSpec::StuckOpen {
            bank: at.refer(RefKind::Bank, bank).to_string(),
            at_s,
        },
        ["stuck-closed", bank] => FaultSpec::StuckClosed {
            bank: at.refer(RefKind::Bank, bank).to_string(),
            at_s,
        },
        ["weak-latch", bank, factor] => FaultSpec::WeakLatch {
            bank: at.refer(RefKind::Bank, bank).to_string(),
            factor: at_least_one.parse(at, factor)?,
            at_s,
        },
        ["degraded", bank, cap, esr] => FaultSpec::Degraded {
            bank: at.refer(RefKind::Bank, bank).to_string(),
            cap_derate: range(0.0, 1.0, "").parse(at, cap)?,
            esr_scale: at_least_one.parse(at, esr)?,
            at_s,
        },
        _ => return Err(at.bad(value, expected)),
    };
    Ok(Value::Fault(spec))
}

fn mix<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let mut templates: Vec<(String, u64)> = Vec::new();
    let mut total = 0u64;
    for word in list(value) {
        let Some((task, count)) = word.split_once(':') else {
            return Err(at.bad(word, "`<task>:<count>` template entries"));
        };
        let task = task.trim();
        let count = int(at, count.trim(), 0, u64::MAX)?;
        if task.is_empty() || count == 0 {
            return Err(at.bad(word, "a task name and a positive count"));
        }
        if templates.iter().any(|(t, _)| t == task) {
            return Err(ManifestError::Duplicate {
                line: at.line,
                kind: "mix template",
                name: task.to_string(),
            });
        }
        total = total.saturating_add(count);
        if total > MAX_FLEET_DEVICES {
            return Err(at.bad(
                value,
                format_args!("template counts totalling at most {MAX_FLEET_DEVICES}"),
            ));
        }
        templates.push((at.refer(RefKind::Task, task).to_string(), count));
    }
    if templates.is_empty() {
        return Err(at.bad(value, "at least one `<task>:<count>` template"));
    }
    Ok(Value::Mix(templates))
}

fn completions<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let [task, op, count] = words[..] else {
        return Err(at.bad(value, "`<task> <op> <count>`"));
    };
    Ok(Value::Assert(AssertionSpec::TaskCompletions {
        task: at.refer(RefKind::Task, task).to_string(),
        op: keyword(at, op)?,
        count: int(at, count, 0, u64::MAX)?,
    }))
}

fn total_completions<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let (op, count) = op_count(at, value)?;
    Ok(Value::Assert(AssertionSpec::TotalCompletions { op, count }))
}

fn failures<'a>(at: &mut At<'_, 'a>, value: &'a str) -> Result<Value<'a>, ManifestError> {
    let (op, count) = op_count(at, value)?;
    Ok(Value::Assert(AssertionSpec::Failures { op, count }))
}

fn op_count(at: &At<'_, '_>, value: &str) -> Result<(CmpOp, u64), ManifestError> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let [op, count] = words[..] else {
        return Err(at.bad(value, "`<op> <count>`"));
    };
    Ok((keyword(at, op)?, int(at, count, 0, u64::MAX)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every declared key with its section's word, in table order.
    fn declared() -> impl Iterator<Item = (&'static str, &'static Key)> {
        std::iter::once(&TOP)
            .chain(&SECTIONS)
            .flat_map(|s| s.keys.iter().map(move |k| (s.word, k)))
    }

    fn check(key: &'static Key, value: &str) -> Result<(), ManifestError> {
        let mut refs = Vec::new();
        let mut at = At {
            line: 1,
            key: key.name,
            refs: &mut refs,
        };
        key.ty.parse(&mut at, value).map(drop)
    }

    #[test]
    fn every_numeric_key_accepts_its_bounds_and_refuses_the_nearest_value_outside() {
        for (section, key) in declared() {
            let name = format!("[{section}] {}", key.name);
            let (inside, outside) = match key.ty {
                Ty::Num(r) | Ty::Nums(r) => {
                    assert!(r.lo.is_finite() && r.hi.is_finite(), "{name} has no range");
                    let (lo_in, lo_out) = if r.lo_open {
                        (r.lo.next_up(), r.lo)
                    } else {
                        (r.lo, r.lo.next_down())
                    };
                    let text = |v: f64| format!("{v:?}");
                    (
                        [text(lo_in), text(r.hi)],
                        [text(lo_out), text(r.hi.next_up())],
                    )
                }
                Ty::Int(lo, hi) => (
                    [lo.to_string(), hi.to_string()],
                    [
                        (i128::from(lo) - 1).to_string(),
                        (i128::from(hi) + 1).to_string(),
                    ],
                ),
                _ => continue,
            };
            for value in inside {
                assert_eq!(check(key, &value), Ok(()), "{name} = {value}");
            }
            for value in outside {
                match check(key, &value) {
                    Err(ManifestError::BadValue { key: named, .. }) if named == key.name => {}
                    other => panic!("{name} = {value}: expected a BadValue, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_key_round_trips_through_a_fixture() {
        let mut seen: Vec<(String, String)> = Vec::new();
        for text in [
            include_str!("../../../manifests/quickstart.capy"),
            include_str!("../../../manifests/temperature_alarm.capy"),
            include_str!("../../../manifests/fleet_smoke.capy"),
            include_str!("../../../manifests/fleet_trace.capy"),
            include_str!("../../../manifests/adaptive_faults.capy"),
            include_str!("../../../tests/fixtures/kitchen_sink.capy"),
            include_str!("../../../tests/fixtures/regulated_pinned.capy"),
        ] {
            let parsed = parse_manifest(text).expect("fixture parses");
            let emitted = parsed.emit();
            assert_eq!(parse_manifest(&emitted), Ok(parsed));
            let mut section = TOP.word;
            for line in emitted.lines() {
                if let Some(header) = line.strip_prefix('[') {
                    section = header.split([' ', ']']).next().unwrap_or_default();
                } else if let Some((key, _)) = line.split_once(" = ") {
                    seen.push((section.to_string(), key.to_string()));
                }
            }
        }
        for (section, key) in declared() {
            assert!(
                seen.contains(&(section.to_string(), key.name.to_string())),
                "[{section}] {} is never round-tripped",
                key.name
            );
        }
    }

    #[test]
    fn design_grammar_table_lists_exactly_the_declared_keys() {
        let design = include_str!("../../../DESIGN.md");
        let grammar = &design[design.find("## 6f.").expect("DESIGN has §6f")..];
        let mut section = "";
        let mut documented = Vec::new();
        for row in grammar
            .lines()
            .skip_while(|l| !l.starts_with("| section | key |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
        {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            if cells[1].contains("(top)") {
                section = TOP.word;
            } else if !cells[1].is_empty() {
                let header = cells[1].trim_start_matches(['`', '[']);
                section = header.split([' ', ']']).next().unwrap_or_default();
            }
            documented.push((section, cells[2].trim_matches('`')));
        }
        let declared: Vec<(&str, &str)> = declared().map(|(s, k)| (s, k.name)).collect();
        assert_eq!(documented, declared);
    }
}

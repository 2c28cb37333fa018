//! **capy-manifest**: the headless scenario-manifest protocol of the
//! Capybara reproduction.
//!
//! A *manifest* is a versioned text file (schema `capy-scenario/v1`)
//! that describes a complete intermittent-computing scenario — device,
//! harvester, reconfigurable bank array, annotated task graph, fault
//! plan, reconfiguration policy, execution limits, and pass/fail
//! assertions — without writing any Rust. The `capy-run` binary (and
//! this crate's library API) compiles a manifest into a
//! [`capybara::sim::Simulator`], runs it to its limits, evaluates the
//! assertions, and emits a deterministic `capy-result/v1` JSON artifact
//! plus a protocol exit code, so whole scenario suites run headlessly
//! in CI and batch experiments.
//!
//! The pipeline:
//!
//! ```text
//! .capy text ── parse ──▶ ScenarioManifest ── compile ──▶ Simulator + RunLimits
//!                  │                                            │
//!            ManifestError                              run_limited + assertions
//!          (line/field diagnostics)                             │
//!                                                        ScenarioResult ──▶ result.json
//! ```
//!
//! Everything is hand-rolled on `std` — the manifest grammar, the JSON
//! reader and writer — keeping the workspace's zero-dependency stance.
//!
//! # Example
//!
//! ```
//! use capy_manifest::{parse_manifest, run_manifest_on};
//!
//! let text = "\
//! schema = capy-scenario/v1
//! name = smoke
//! variant = cb-p
//!
//! [harvester]
//! kind = constant
//! power_mw = 5
//! voltage = 3
//!
//! [bank small]
//! parts = ceramic_x5r_400uf, tantalum_330uf
//! switch = normally-closed
//!
//! [bank big]
//! parts = edlc_7_5mf
//! switch = normally-open
//!
//! [mode sense-mode]
//! banks = small
//!
//! [mode alert-mode]
//! banks = big
//!
//! [task sense]
//! energy = preburst alert-mode sense-mode
//! compute_ms = 10
//! then = alert
//!
//! [task alert]
//! energy = burst alert-mode
//! compute_ms = 50
//! then = stop
//!
//! [limits]
//! max_sim_seconds = 600
//!
//! [assert]
//! completions = alert == 1
//! require_event = burst
//! ";
//! let manifest = parse_manifest(text).expect("parses");
//! // `0` workers = every core; only a `[fleet]` population uses them.
//! let result = run_manifest_on(&manifest, "smoke.capy", 0).expect("compiles");
//! assert!(result.passed, "{:?}", result.assertions);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod json;
pub mod model;
pub mod parse;
pub mod run;

pub use compile::{
    compile, compile_with, CompiledScenario, DeviceTweak, LeakedNames, ManifestCtx,
    ManifestHarvester,
};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use model::{
    AssertionSpec, BankSpec, CmpOp, EnergySpec, EventKind, FaultSpec, FleetStanza, HarvesterSpec,
    Keyword, LimitsSpec, McuKind, ModeSpec, PartKind, PolicySpec, ScenarioManifest, TaskSpec,
    ThenSpec, SCHEMA,
};
pub use parse::{parse_manifest, ManifestError};
pub use run::{
    error_result_json, result_path_for, run_batch, run_file, run_manifest_on, validate_json,
    AssertionResult, BatchEntry, BatchOutcome, CompiledFleet, FleetResult, ScenarioResult,
    EXIT_ASSERT, EXIT_INTERNAL, EXIT_LIMIT, EXIT_MANIFEST, EXIT_PASS, RESULT_SCHEMA,
};

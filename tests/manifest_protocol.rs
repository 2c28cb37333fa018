//! The `capy-scenario/v1` protocol contract:
//!
//! * parse → emit → parse round-trips to an equal manifest;
//! * `result.json` artifacts are bit-identical across reruns and for
//!   any batch worker count (golden determinism);
//! * every [`ManifestError`] variant surfaces with its line/field
//!   diagnostic;
//! * exit codes follow the protocol table.

use std::fs;
use std::path::{Path, PathBuf};

use capybara_suite::core::sim::SimEvent;
use capybara_suite::fleet::{DeviceOutcome, FleetHarvester};
use capybara_suite::manifest::{
    compile, compile_with, parse_manifest, run_batch, run_file, run_manifest_on, validate_json,
    CompiledFleet, CompiledScenario, DeviceTweak, EnergySpec, LeakedNames, ManifestError,
    ManifestHarvester, ScenarioManifest, ThenSpec, EXIT_ASSERT, EXIT_INTERNAL, EXIT_LIMIT,
    EXIT_PASS, RESULT_SCHEMA,
};

/// A scenario exercising nearly every grammar production: every
/// harvester field in use, multiple banks/modes/tasks, sleep + repeat,
/// a policy ladder, faults with margin, all limit kinds, and one of
/// each assertion form.
const KITCHEN_SINK: &str = include_str!("fixtures/kitchen_sink.capy");

/// A minimal valid manifest, used as the base for error-injection
/// tests.
fn minimal(mutate: impl Fn(&mut String)) -> String {
    let mut text = String::from(
        "\
schema = capy-scenario/v1
name = minimal
variant = cb-p

[harvester]
kind = constant
power_mw = 5
voltage = 3

[bank small]
parts = ceramic_x5r_400uf, tantalum_330uf
switch = normally-closed

[bank big]
parts = edlc_7_5mf
switch = normally-open

[mode sense-mode]
banks = small

[mode alert-mode]
banks = big

[task sense]
energy = preburst alert-mode sense-mode
compute_ms = 10
then = alert

[task alert]
energy = burst alert-mode
compute_ms = 50
then = stop

[limits]
max_sim_seconds = 600
",
    );
    mutate(&mut text);
    text
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

// --- round-trip ---

#[test]
fn parse_emit_parse_round_trips_kitchen_sink() {
    let parsed = parse_manifest(KITCHEN_SINK).expect("kitchen sink parses");
    let emitted = parsed.emit();
    let reparsed = parse_manifest(&emitted).expect("canonical emit parses");
    assert_eq!(parsed, reparsed, "round-trip must be lossless");
    // The canonical form is a fixed point: emitting again is identical.
    assert_eq!(emitted, reparsed.emit());
}

#[test]
fn parse_emit_parse_round_trips_checked_in_manifests() {
    for rel in [
        "manifests/quickstart.capy",
        "manifests/temperature_alarm.capy",
        "manifests/fleet_smoke.capy",
        "manifests/fleet_trace.capy",
        "manifests/adaptive_faults.capy",
    ] {
        let text = fs::read_to_string(repo_path(rel)).expect("checked-in manifest reads");
        let parsed = parse_manifest(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let reparsed = parse_manifest(&parsed.emit()).expect("canonical emit parses");
        assert_eq!(parsed, reparsed, "{rel} round-trip must be lossless");
    }
}

// --- golden determinism ---

#[test]
fn same_manifest_twice_is_bit_identical() {
    let manifest = parse_manifest(KITCHEN_SINK).expect("parses");
    let a = run_manifest_on(&manifest, "kitchen-sink.capy", 0).expect("runs");
    let b = run_manifest_on(&manifest, "kitchen-sink.capy", 0).expect("runs");
    assert_eq!(a, b, "reruns must agree exactly");
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

/// A fresh directory for one test's batch files (tests run in
/// parallel, so each names its own).
fn batch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capy-{test}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Copies checked-in manifests into `dir`, returning the copies' paths.
fn copy_manifests(dir: &Path, rels: &[&str]) -> Vec<PathBuf> {
    rels.iter()
        .map(|rel| {
            let dst = dir.join(PathBuf::from(rel).file_name().unwrap());
            fs::copy(repo_path(rel), &dst).expect("copy manifest");
            dst
        })
        .collect()
}

/// The artifact `path` gets when it runs alone, rendered in memory.
fn fresh_artifact(path: &Path) -> String {
    run_file(path, 1).expect("runs").to_json().pretty()
}

/// Every batch artifact is bit-identical for any worker count, and is
/// written whole over whatever a previous run left at its path: junk
/// longer than the artifact (no stale tail survives) or shorter.
#[test]
fn batch_artifacts_identical_for_any_worker_count() {
    let dir = batch_dir("batch");
    let src = copy_manifests(
        &dir,
        &[
            "manifests/quickstart.capy",
            "manifests/temperature_alarm.capy",
            "manifests/fleet_smoke.capy",
            "manifests/adaptive_faults.capy",
        ],
    );

    let serial = run_batch(&src, 1, None);
    assert_eq!(serial.exit_code, EXIT_PASS);
    let artifacts: Vec<String> = serial
        .entries
        .iter()
        .map(|e| fs::read_to_string(&e.result_path).expect("artifact written"))
        .collect();

    for workers in [1, 2, 8] {
        for stale in ["longer", "shorter"] {
            for (entry, artifact) in serial.entries.iter().zip(&artifacts) {
                let len = if stale == "longer" {
                    artifact.len() + 4096
                } else {
                    artifact.len() / 2
                };
                fs::write(&entry.result_path, "#".repeat(len)).expect("stale artifact");
            }
            let parallel = run_batch(&src, workers, None);
            assert_eq!(parallel.exit_code, EXIT_PASS);
            for (entry, expected) in parallel.entries.iter().zip(&artifacts) {
                let got = fs::read_to_string(&entry.result_path).expect("artifact written");
                assert_eq!(
                    &got,
                    expected,
                    "artifact for {} over a {stale} stale one must be bit-identical \
                     at {workers} workers",
                    entry.path.display()
                );
                validate_json(&got, Some(RESULT_SCHEMA))
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.result_path.display()));
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Inputs whose result paths name one file leave the last input's
/// artifact there, for any worker count: two manifests with one stem
/// in two directories sharing an `out_dir`, and one manifest named
/// through two spellings of its directory.
#[test]
fn inputs_sharing_a_result_path_leave_the_last_inputs_artifact() {
    let dir = batch_dir("shared-stem");
    let (a, b, out) = (dir.join("a"), dir.join("b"), dir.join("out"));
    for d in [&a, &b, &out] {
        fs::create_dir_all(d).expect("dir");
    }
    let in_a = a.join("probe.capy");
    let in_b = b.join("probe.capy");
    fs::copy(repo_path("manifests/quickstart.capy"), &in_a).expect("copy");
    fs::copy(repo_path("manifests/temperature_alarm.capy"), &in_b).expect("copy");
    let via_b = b.join("..").join("a").join("probe.capy");

    for workers in [1, 2, 8] {
        for (inputs, out_dir) in [
            (vec![in_a.clone(), in_b.clone()], Some(out.as_path())),
            (vec![in_b.clone(), in_a.clone()], Some(out.as_path())),
            (vec![in_a.clone(), via_b.clone()], None),
            (vec![via_b.clone(), in_a.clone()], None),
        ] {
            let last = inputs.last().unwrap();
            let batch = run_batch(&inputs, workers, out_dir);
            assert_eq!(batch.exit_code, EXIT_PASS);
            let result_path = &batch.entries[1].result_path;
            let got = fs::read_to_string(result_path).expect("artifact written");
            assert_eq!(
                got,
                fresh_artifact(last),
                "{} must hold {}'s artifact at {workers} workers",
                result_path.display(),
                last.display()
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A result path that cannot be written (a directory stands there)
/// fails the entries naming it and the batch with exit 4; every other
/// artifact is still written.
#[test]
fn an_unwritable_result_path_fails_its_entries_and_spares_the_rest() {
    let dir = batch_dir("unwritable");
    let mut src = copy_manifests(
        &dir,
        &[
            "manifests/temperature_alarm.capy",
            "manifests/quickstart.capy",
            "manifests/adaptive_faults.capy",
        ],
    );
    // A second input with the blocked path's stem shares its failed write.
    fs::create_dir_all(dir.join("again")).expect("dir");
    src.extend(copy_manifests(
        &dir.join("again"),
        &["manifests/quickstart.capy"],
    ));
    let out = dir.join("out");
    fs::create_dir_all(out.join("quickstart.result.json")).expect("blocking dir");
    for workers in [1, 2, 8] {
        for stem in ["temperature_alarm", "adaptive_faults"] {
            fs::remove_file(out.join(format!("{stem}.result.json"))).ok();
        }
        let batch = run_batch(&src, workers, Some(&out));
        assert_eq!(batch.exit_code, EXIT_INTERNAL, "at {workers} workers");
        let codes: Vec<i32> = batch.entries.iter().map(|e| e.exit_code).collect();
        assert_eq!(
            codes,
            [EXIT_PASS, EXIT_INTERNAL, EXIT_PASS, EXIT_INTERNAL],
            "at {workers} workers"
        );
        for (entry, input) in batch.entries.iter().zip(&src) {
            if entry.exit_code == EXIT_PASS {
                let got = fs::read_to_string(&entry.result_path).expect("artifact written");
                assert_eq!(got, fresh_artifact(input), "at {workers} workers");
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn checked_in_artifacts_match_fresh_runs() {
    // The result.json files committed next to the manifests are the
    // golden outputs; a fresh in-process run must reproduce them bit
    // for bit (catches accidental protocol drift in either direction).
    for rel in [
        "manifests/quickstart",
        "manifests/temperature_alarm",
        "manifests/fleet_smoke",
        "manifests/fleet_trace",
        "manifests/adaptive_faults",
    ] {
        let manifest_path = repo_path(&format!("{rel}.capy"));
        let text = fs::read_to_string(&manifest_path).expect("manifest reads");
        let manifest = parse_manifest(&text).expect("parses");
        // The checked-in artifacts are produced by `capy-run manifests/`,
        // which records the path as given on its command line.
        let file_label = format!(
            "manifests/{}.capy",
            manifest_path.file_stem().unwrap().to_string_lossy()
        );
        let fresh = run_manifest_on(&manifest, &file_label, 0).expect("runs");
        let golden =
            fs::read_to_string(repo_path(&format!("{rel}.result.json"))).expect("golden artifact");
        assert_eq!(
            fresh.to_json().pretty(),
            golden,
            "{rel}.result.json has drifted; regenerate with `capy-run manifests/`"
        );
    }
}

/// The alarm manifest over a year of simulated time reproduces its
/// golden artifact. A run keeps counts, not its event log, so the year
/// costs what its stepped boundaries cost; a log of its ~124M task
/// completions would take gigabytes. It lives in `tests/horizons/`,
/// outside the directories `tests/cycle_skip.rs` walks, because that
/// suite's stepping reference would step all of it.
#[test]
fn a_year_long_manifest_matches_its_golden_artifact() {
    let rel = "tests/horizons/temperature_alarm_year";
    let text = fs::read_to_string(repo_path(&format!("{rel}.capy"))).expect("manifest reads");
    let manifest = parse_manifest(&text).expect("parses");
    let fresh = run_manifest_on(&manifest, &format!("{rel}.capy"), 1).expect("runs");
    let golden =
        fs::read_to_string(repo_path(&format!("{rel}.result.json"))).expect("golden artifact");
    assert_eq!(
        fresh.to_json().pretty(),
        golden,
        "{rel}.result.json has drifted; regenerate with `capy-run {rel}.capy`"
    );
}

/// The orbital fleet's artifact is byte-identical for any worker count,
/// at its own 180 s horizon, where no device jumps an orbit, and at
/// 1,200 s, where the stamped devices do.
#[test]
fn fleet_artifact_identical_for_any_worker_count() {
    let text = fs::read_to_string(repo_path("manifests/fleet_smoke.capy")).expect("manifest reads");
    for horizon_s in [None, Some(1_200.0)] {
        let mut manifest = parse_manifest(&text).expect("parses");
        if let Some(h) = horizon_s {
            manifest.limits.max_sim_seconds = h;
        }
        let serial = run_manifest_on(&manifest, "fleet_smoke.capy", 1).expect("runs");
        assert!(serial.fleet.is_some(), "fleet stanza must aggregate");
        for workers in [2, 8] {
            let parallel = run_manifest_on(&manifest, "fleet_smoke.capy", workers).expect("runs");
            assert_eq!(
                serial, parallel,
                "fleet result must not depend on workers ({horizon_s:?} s)"
            );
            assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
        }
        if horizon_s.is_some() {
            let fleet = CompiledFleet::new(&manifest, "fleet_smoke.capy").expect("compiles");
            let spec = fleet.spec();
            let orbits: u64 = (0..spec.devices())
                .map(|index| {
                    let CompiledScenario { mut sim, limits } = fleet.device(&spec.device(index));
                    let _ = sim.run_limited(&limits);
                    sim.skip_stats().orbits_skipped
                })
                .sum();
            assert!(orbits > 0, "no stamped device jumped an orbit");
        }
    }
}

#[test]
fn trace_fleet_artifact_identical_for_any_worker_count() {
    // The 10k-device heterogeneous, trace-driven population: the fleet
    // v2 acceptance gate. The label is absolute so the trace file
    // resolves regardless of the test harness's working directory.
    let path = repo_path("manifests/fleet_trace.capy");
    let text = fs::read_to_string(&path).expect("manifest reads");
    let manifest = parse_manifest(&text).expect("parses");
    let label = path.display().to_string();
    let serial = run_manifest_on(&manifest, &label, 1).expect("runs");
    let fleet = serial.fleet.as_ref().expect("fleet stanza aggregates");
    assert_eq!(fleet.devices, 10_240);
    assert_eq!(
        fleet.mix,
        vec![("sense".to_string(), 7_168), ("relay".to_string(), 3_072)]
    );
    assert_eq!(fleet.trace.as_deref(), Some("traces/cloudy_day.trace"));
    // `then = stay` means a device only ever runs its entry task, so
    // relay completions prove the mix's per-template entry points took.
    let relay = serial
        .task_completions
        .iter()
        .find(|(name, _)| name == "relay")
        .expect("relay counted");
    assert!(relay.1 > 0, "relay devices must boot into `relay`");
    for workers in [2, 8] {
        let parallel = run_manifest_on(&manifest, &label, workers).expect("runs");
        assert_eq!(
            serial.to_json().pretty(),
            parallel.to_json().pretty(),
            "trace fleet artifact must be byte-identical on {workers} workers"
        );
    }
}

/// Runs one compiled device to its limits, keeping its event log, and
/// returns what a fleet keeps of it, plus the whole log.
fn run_device(device: CompiledScenario, tasks: usize) -> (DeviceOutcome, Vec<SimEvent>) {
    let CompiledScenario { mut sim, limits } = device;
    sim.keep_log(true);
    let _ = sim.run_limited(&limits);
    let completions = (0..tasks).map(|i| sim.ctx().completions(i)).collect();
    let outcome = DeviceOutcome::from_sim(&sim).with_task_completions(completions);
    (outcome, sim.events().to_vec())
}

/// Every device of `text`'s fleet, stamped from one shared template in
/// reverse index order, equals the same device compiled alone by
/// `compile_with`: the events, the `DeviceOutcome` and the per-task
/// completions, bit for bit.
///
/// The stamp itself is checked against its definition too, since
/// `compile_with` stamps the same way: the device's harvester is the
/// manifest's, wrapped for the device's panel scale, environment and
/// placement, and its context carries the device's task-rate scale.
fn assert_stamped_devices_match_compiled_alone(text: &str, label: &str) {
    let manifest = parse_manifest(text).expect("parses");
    let fleet = CompiledFleet::new(&manifest, label).expect("compiles");
    let names = LeakedNames::from_manifest(&manifest);
    let unstamped = compile(&manifest).expect("compiles").sim;
    let mixed = manifest.fleet.as_ref().is_some_and(|f| !f.mix.is_empty());
    let spec = fleet.spec();
    for index in (0..spec.devices()).rev() {
        let point = spec.device(index);
        let case = format!("{label} device {index}");
        let stamped = fleet.device(&point);
        let harvester = ManifestHarvester::Fleet(Box::new(FleetHarvester::new(
            unstamped.power().harvester().clone(),
            point.panel_scale,
            spec.env().clone(),
            point.placement,
        )));
        assert!(
            *stamped.sim.power().harvester() == harvester,
            "{case}: harvester not stamped"
        );
        assert_eq!(
            stamped.sim.ctx().rate_scale().to_bits(),
            point.task_rate_scale.to_bits(),
            "{case}: rate scale not stamped"
        );

        let tweak = DeviceTweak {
            env: spec.env(),
            point: &point,
            entry: mixed.then(|| spec.templates()[point.template].name()),
        };
        let alone = compile_with(&manifest, &names, Some(&tweak)).expect("compiles alone");
        let tasks = manifest.tasks.len();
        let (stamped_outcome, stamped_events) = run_device(stamped, tasks);
        let (alone_outcome, alone_events) = run_device(alone, tasks);
        assert_eq!(stamped_events, alone_events, "{case}: events diverge");
        assert_eq!(stamped_outcome, alone_outcome, "{case}: outcomes diverge");
        assert_eq!(
            stamped_outcome.summary.delivered_energy.get().to_bits(),
            alone_outcome.summary.delivered_energy.get().to_bits(),
            "{case}: delivered energy bits diverge"
        );
    }
}

/// `manifest`'s text with its `[assert]` section (the last one) replaced
/// by a `[fleet]` stanza.
fn spliced_fleet(manifest: &str, devices: u64) -> String {
    let text = fs::read_to_string(repo_path(manifest)).expect("manifest reads");
    let (head, _) = text.split_once("[assert]").expect("the manifest asserts");
    format!(
        "{head}[fleet]\ndevices = {devices}\npanel_jitter_pct = 20\nrate_jitter_pct = 30\n\
         dips = 2\ndip_hold_s = 5\ndip_factor = 0.3\nshading = 0.2\n"
    )
}

#[test]
fn stamped_fleet_devices_equal_devices_compiled_alone() {
    // One template, an eclipse and dips.
    let path = repo_path("manifests/fleet_smoke.capy");
    let text = fs::read_to_string(&path).expect("manifest reads");
    assert_stamped_devices_match_compiled_alone(&text, &path.display().to_string());

    // Two mix templates and a recorded trace, cut to 512 devices.
    let path = repo_path("manifests/fleet_trace.capy");
    let text = fs::read_to_string(&path)
        .expect("manifest reads")
        .replace("mix = sense:7168, relay:3072", "mix = sense:358, relay:154");
    assert!(
        text.contains("relay:154"),
        "fleet_trace.capy changed its mix"
    );
    assert_stamped_devices_match_compiled_alone(&text, &path.display().to_string());

    // Faults, EWMA state, degradation remaps, a square-wave harvester,
    // harvest during operation, and `repeat`.
    for manifest in [
        "manifests/adaptive_faults.capy",
        "manifests/temperature_alarm.capy",
    ] {
        let text = spliced_fleet(manifest, 24);
        assert_stamped_devices_match_compiled_alone(&text, manifest);
    }
}

#[test]
fn fleet_mix_and_devices_are_mutually_exclusive() {
    let text = fs::read_to_string(repo_path("manifests/fleet_trace.capy")).expect("reads");
    let text = text.replace("[fleet]", "[fleet]\ndevices = 10");
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "devices");
            assert!(expected.contains("not both"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_trace_and_eclipse_are_mutually_exclusive() {
    let text = fs::read_to_string(repo_path("manifests/fleet_trace.capy")).expect("reads");
    let text = text.replace("[fleet]", "[fleet]\neclipse_period_s = 60");
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "trace");
            assert!(expected.contains("eclipse_period_s"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_mix_rejects_bad_templates() {
    // Malformed entry: no count.
    let make = |mix: &str| {
        minimal(|t| {
            t.push_str(&format!("\n[fleet]\nmix = {mix}\n"));
        })
    };
    match parse_manifest(&make("sense")).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "mix");
            assert!(expected.contains("<task>:<count>"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
    // Zero count.
    assert!(matches!(
        parse_manifest(&make("sense:0")).unwrap_err(),
        ManifestError::BadValue { .. }
    ));
    // The same template twice.
    match parse_manifest(&make("sense:3, sense:4")).unwrap_err() {
        ManifestError::Duplicate { kind, name, .. } => {
            assert_eq!(kind, "mix template");
            assert_eq!(name, "sense");
        }
        other => panic!("expected Duplicate, got {other:?}"),
    }
    // A template task that is never declared.
    match parse_manifest(&make("sense:3, transmit:4")).unwrap_err() {
        ManifestError::UnknownName { field, name, .. } => {
            assert_eq!(field, "mix");
            assert_eq!(name, "transmit");
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn fleet_mix_total_overflow_is_a_bad_value() {
    // The counts sum past u64::MAX: the device total must not wrap to a
    // small fleet (3,071 devices here) and run.
    let text =
        fs::read_to_string(repo_path("tests/inputs/mix_overflow.capy")).expect("manifest reads");
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue { key, value, .. } => {
            assert_eq!(key, "mix");
            assert!(value.contains("18446744073709551615"), "{value}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_population_past_the_cap_is_a_bad_value() {
    // fleet_smoke.capy with 2^64 - 1 devices, or a mix summing to
    // 2^64 - 2 without overflowing: both would run without bound.
    for (file, field) in [
        ("tests/inputs/devices_over_cap.capy", "devices"),
        ("tests/inputs/mix_over_cap.capy", "mix"),
    ] {
        let text = fs::read_to_string(repo_path(file)).expect("manifest reads");
        match parse_manifest(&text).unwrap_err() {
            ManifestError::BadValue { key, expected, .. } => {
                assert_eq!(key, field, "{file}");
                assert!(expected.contains("4294967296"), "{file}: {expected}");
            }
            other => panic!("{file}: expected BadValue, got {other:?}"),
        }
    }
}

#[test]
fn fleet_population_cap_is_two_to_the_32_devices() {
    let fleet = |stanza: &str| minimal(|t| t.push_str(&format!("\n[fleet]\n{stanza}\n")));
    let rejected_key = |stanza: &str| match parse_manifest(&fleet(stanza)).unwrap_err() {
        ManifestError::BadValue { key, .. } => key,
        other => panic!("{stanza}: expected BadValue, got {other:?}"),
    };
    for accepted in ["devices = 4294967296", "mix = sense:4294967295, alert:1"] {
        let manifest = parse_manifest(&fleet(accepted)).expect(accepted);
        assert_eq!(manifest.fleet.expect("fleet stanza").devices, 1 << 32);
    }
    assert_eq!(rejected_key("devices = 4294967297"), "devices");
    assert_eq!(rejected_key("mix = sense:4294967295, alert:2"), "mix");
}

#[test]
fn fleet_dips_cap_is_two_to_the_20() {
    let fleet = |dips: &str| minimal(|t| t.push_str(&format!("\n[fleet]\ndevices = 4\n{dips}\n")));
    let manifest = parse_manifest(&fleet("dips = 1048576")).expect("2^20 dips are accepted");
    assert_eq!(manifest.fleet.expect("fleet stanza").dips, 1 << 20);
    match parse_manifest(&fleet("dips = 1048577")).unwrap_err() {
        ManifestError::BadValue { key, expected, .. } => {
            assert_eq!(key, "dips");
            assert!(expected.contains("1048576"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn fleet_dips_past_the_cap_or_with_a_zero_gap_are_bad_values() {
    // fleet_smoke.capy with 2^32 - 1 dips (the count + 1 wrapped to 0
    // and the onset schedule asked for 32 GiB), and with 300,000 dips
    // over 0.1 s (the mean gap rounded to 0 µs and the run panicked).
    for (file, fragment) in [
        ("tests/inputs/dips_over_cap.capy", "1048576"),
        ("tests/inputs/dips_zero_gap.capy", "1 µs"),
    ] {
        let text = fs::read_to_string(repo_path(file)).expect("manifest reads");
        match parse_manifest(&text).unwrap_err() {
            ManifestError::BadValue { key, expected, .. } => {
                assert_eq!(key, "dips", "{file}");
                assert!(expected.contains(fragment), "{file}: {expected}");
            }
            other => panic!("{file}: expected BadValue, got {other:?}"),
        }
    }
    // 100,000 dips over 0.1 s leave a mean gap that rounds to 1 µs.
    let text = fs::read_to_string(repo_path("tests/inputs/dips_zero_gap.capy")).expect("reads");
    let text = text.replace("dips = 300000", "dips = 100000");
    assert_eq!(
        parse_manifest(&text)
            .expect("a 1 µs gap")
            .fleet
            .unwrap()
            .dips,
        100_000
    );
}

#[test]
fn fleet_missing_population_names_both_keys() {
    let text = minimal(|t| t.push_str("\n[fleet]\npanel_jitter_pct = 5\n"));
    assert_eq!(
        parse_manifest(&text).unwrap_err(),
        ManifestError::MissingField {
            section: "fleet".to_string(),
            field: "devices (or mix)".to_string()
        }
    );
}

#[test]
fn unreadable_trace_is_a_build_error() {
    let text = minimal(|t| {
        t.push_str("\n[fleet]\ndevices = 4\ntrace = does/not/exist.trace\n");
    });
    let manifest = parse_manifest(&text).expect("parses");
    match run_manifest_on(&manifest, "m.capy", 0).unwrap_err() {
        ManifestError::Build { message } => {
            assert!(message.contains("cannot read trace"), "{message}");
        }
        other => panic!("expected Build, got {other:?}"),
    }
}

#[test]
fn fleet_rejects_per_device_assertions() {
    let text = fs::read_to_string(repo_path("manifests/fleet_smoke.capy")).expect("manifest reads");
    for assertion in [
        "require_event = boot",
        "forbid_event = stalled",
        "final_mode = sense-mode",
    ] {
        let text = text.replace("min_availability = 0.2", assertion);
        let manifest = parse_manifest(&text).expect("parses");
        match run_manifest_on(&manifest, "m.capy", 0).unwrap_err() {
            ManifestError::Build { message } => {
                assert!(message.contains("per-device"), "{assertion}: {message}");
            }
            other => panic!("{assertion}: expected Build, got {other:?}"),
        }
    }
}

// --- fault ranges ---

#[test]
fn out_of_range_fault_values_are_bad_values() {
    let with_fault =
        |fault: &str| minimal(|t| t.push_str(&format!("\n[faults]\nfault = {fault}\n")));
    // Each would have run a different scenario: the kernel ignores a
    // weak-latch factor below 1, clamps cap_derate into [0, 1] and
    // raises an esr_scale below 1 to 1.
    for (fault, bad, range) in [
        ("weak-latch big 0 @ 30", "0", "at least 1"),
        ("weak-latch big -5 @ 30", "-5", "at least 1"),
        ("weak-latch big 0.99 @ 30", "0.99", "at least 1"),
        ("degraded big -1 2 @ 60", "-1", "[0, 1]"),
        ("degraded big 1.01 2 @ 60", "1.01", "[0, 1]"),
        ("degraded big 0.5 -3 @ 60", "-3", "at least 1"),
        ("degraded big 0.5 0.99 @ 60", "0.99", "at least 1"),
    ] {
        match parse_manifest(&with_fault(fault)).unwrap_err() {
            ManifestError::BadValue {
                key,
                value,
                expected,
                ..
            } => {
                assert_eq!(key, "fault", "{fault}");
                assert_eq!(value, bad, "{fault}");
                assert!(expected.contains(range), "{fault}: {expected}");
            }
            other => panic!("{fault}: expected BadValue, got {other:?}"),
        }
    }
    // The boundaries are in range.
    for fault in [
        "weak-latch big 1 @ 30",
        "degraded big 0 1 @ 60",
        "degraded big 1 1 @ 60",
    ] {
        let manifest = parse_manifest(&with_fault(fault)).expect(fault);
        assert_eq!(manifest.faults.len(), 1, "{fault}");
    }
    let text = fs::read_to_string(repo_path("tests/inputs/fault_out_of_range.capy"))
        .expect("manifest reads");
    assert!(matches!(
        parse_manifest(&text).unwrap_err(),
        ManifestError::BadValue { key, .. } if key == "fault"
    ));
}

// --- value ranges ---

#[test]
fn out_of_range_harvester_policy_and_time_values_are_bad_values() {
    // Each of these panicked, aborted, overflowed, or ran a different
    // scenario with exit 0: the kernel would clamp a negative value or
    // round a sub-microsecond duration, and a zero or huge duration broke
    // its microsecond arithmetic. First the checked-in inputs, then
    // values spliced into a base manifest.
    let rejected_key = |what: &str, text: &str| match parse_manifest(text).unwrap_err() {
        ManifestError::BadValue { key, .. } => key,
        other => panic!("{what}: expected BadValue, got {other:?}"),
    };
    for (input, key) in [
        ("square_wave_zero_on", "on_ms"),
        ("square_wave_cycles_over_cap", "cycles"),
        ("harvester_negative_voltage", "voltage"),
        ("eclipse_under_a_microsecond", "eclipse_period_s"),
        ("eclipse_period_over_cap", "eclipse_period_s"),
        ("fleet_horizon_over_cap", "max_sim_seconds"),
    ] {
        let file = format!("tests/inputs/{input}.capy");
        let text = fs::read_to_string(repo_path(&file)).expect("manifest reads");
        assert_eq!(rejected_key(&file, &text), key, "{file}");
    }
    let faults = "manifests/adaptive_faults.capy";
    let alarm = "manifests/temperature_alarm.capy";
    let sink = "tests/fixtures/kitchen_sink.capy";
    for (base, from, to, key) in [
        (faults, "off_ms = 3000", "off_ms = 0", "off_ms"),
        (faults, "on_ms = 2000", "on_ms = -100", "on_ms"),
        (faults, "on_ms = 2000", "on_ms = 0.0004", "on_ms"),
        (faults, "on_ms = 2000", "on_ms = 1e300", "on_ms"),
        (faults, "cycles = 1000", "cycles = 0", "cycles"),
        // Each phase fits under the time cap; 1,000 cycles of them do not.
        (faults, "on_ms = 2000", "on_ms = 1000000000000", "cycles"),
        (alarm, "power_mw = 4", "power_mw = -4", "power_mw"),
        (
            faults,
            "[faults]",
            "[faults]\nstartup_margin_v = -5",
            "startup_margin_v",
        ),
        (sink, "timeout_ms = 5000", "timeout_ms = -500", "timeout_ms"),
    ] {
        let text = fs::read_to_string(repo_path(base)).expect("manifest reads");
        assert!(text.contains(from), "{base} has `{from}`");
        let what = format!("{base} with `{to}`");
        let key_named = rejected_key(&what, &text.replacen(from, to, 1));
        assert_eq!(key_named, key, "{what}");
    }
}

// --- exit codes ---

#[test]
fn failing_assertion_exits_one() {
    let text = minimal(|t| t.push_str("\n[assert]\ncompletions = alert >= 999\n"));
    let manifest = parse_manifest(&text).expect("parses");
    let result = run_manifest_on(&manifest, "m.capy", 0).expect("runs");
    assert_eq!(result.exit_code, EXIT_ASSERT);
    assert!(!result.passed);
    assert!(!result.assertions[0].passed);
}

#[test]
fn tripped_limit_exits_two() {
    let text = minimal(|t| {
        *t = t.replace(
            "max_sim_seconds = 600",
            "max_sim_seconds = 600\nmax_steps = 1",
        );
    });
    let manifest = parse_manifest(&text).expect("parses");
    let result = run_manifest_on(&manifest, "m.capy", 0).expect("runs");
    assert_eq!(result.exit_code, EXIT_LIMIT);
    assert_eq!(result.outcome, "step-budget");
}

// --- one test per ManifestError variant, each checking the diagnostic ---

#[test]
fn unsupported_schema_reports_line_and_schema() {
    let err = parse_manifest("schema = capy-scenario/v9\n").unwrap_err();
    assert_eq!(
        err,
        ManifestError::UnsupportedSchema {
            line: 1,
            found: "capy-scenario/v9".to_string()
        }
    );
    assert!(err.to_string().contains("line 1"), "{err}");
}

#[test]
fn syntax_error_reports_line() {
    let text = minimal(|t| t.push_str("\nthis line is not a key value pair\n"));
    let line = text.lines().count();
    match parse_manifest(&text).unwrap_err() {
        ManifestError::Syntax { line: l, message } => {
            assert_eq!(l, line);
            assert!(message.contains("key = value"), "{message}");
        }
        other => panic!("expected Syntax, got {other:?}"),
    }
}

#[test]
fn unknown_section_reports_line_and_name() {
    let text = minimal(|t| t.push_str("\n[thermals]\nq = 1\n"));
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownSection { line, section } => {
            assert_eq!(section, "thermals");
            assert!(line > 1);
        }
        other => panic!("expected UnknownSection, got {other:?}"),
    }
}

#[test]
fn unknown_key_reports_section_and_key() {
    let text = minimal(|t| {
        *t = t.replace(
            "switch = normally-closed",
            "switch = normally-closed\ncolour = red",
        );
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownKey { section, key, .. } => {
            assert_eq!(section, "bank small");
            assert_eq!(key, "colour");
        }
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn bad_value_reports_key_value_and_expectation() {
    let text = minimal(|t| {
        *t = t.replace("variant = cb-p", "variant = hyperdrive");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::BadValue {
            line,
            key,
            value,
            expected,
        } => {
            assert_eq!(line, 3);
            assert_eq!(key, "variant");
            assert_eq!(value, "hyperdrive");
            assert!(expected.contains("cb-p"), "{expected}");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn duplicate_reports_kind_and_name() {
    let text = minimal(|t| {
        t.push_str("\n[task sense]\nenergy = unannotated\ncompute_ms = 1\nthen = stop\n");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::Duplicate { kind, name, .. } => {
            assert_eq!(kind, "task");
            assert_eq!(name, "sense");
        }
        other => panic!("expected Duplicate, got {other:?}"),
    }
}

#[test]
fn unknown_name_reports_field_and_name() {
    let text = minimal(|t| {
        *t = t.replace("then = alert", "then = transmit");
    });
    match parse_manifest(&text).unwrap_err() {
        ManifestError::UnknownName { field, name, line } => {
            assert_eq!(field, "then");
            assert_eq!(name, "transmit");
            assert!(line > 1);
        }
        other => panic!("expected UnknownName, got {other:?}"),
    }
}

#[test]
fn missing_field_reports_section_and_field() {
    let text = minimal(|t| {
        *t = t.replace("max_sim_seconds = 600\n", "");
    });
    assert_eq!(
        parse_manifest(&text).unwrap_err(),
        ManifestError::MissingField {
            section: "limits".to_string(),
            field: "max_sim_seconds".to_string()
        }
    );
}

#[test]
fn build_rejection_surfaces_as_manifest_error() {
    // Structurally valid text but an impossible scenario: an EWMA
    // ladder whose thresholds do not ascend cannot be constructed, and
    // the compiler reports that as the exit-3 Build variant instead of
    // panicking inside the policy constructor.
    let text = minimal(|t| {
        // Three rungs need two thresholds, and they must ascend; these
        // descend.
        t.push_str(
            "\n[policy]\nkind = ewma\nladder = sense-mode, alert-mode, sense-mode\n\
             thresholds_mw = 9, 2\nalpha = 0.5\n",
        );
    });
    let manifest = parse_manifest(&text).expect("parses");
    match run_manifest_on(&manifest, "m.capy", 0).unwrap_err() {
        ManifestError::Build { message } => {
            assert!(message.contains("ascend"), "{message}");
        }
        other => panic!("expected Build, got {other:?}"),
    }
}

/// The `Build` error compiling `m` gives, edited by `edit` after it
/// parsed: the parser checks every reference of the text it reads, but
/// a manifest's fields are public, so code can point one at nothing.
fn dangling_reference(edit: impl FnOnce(&mut ScenarioManifest)) -> String {
    let mut m = parse_manifest(&minimal(|_| {})).expect("parses");
    edit(&mut m);
    match compile(&m) {
        Err(ManifestError::Build { message }) => message,
        Err(other) => panic!("expected Build, got {other:?}"),
        Ok(_) => panic!("a dangling reference compiled"),
    }
}

#[test]
fn a_task_naming_an_undeclared_mode_is_a_build_error() {
    let message = dangling_reference(|m| m.tasks[1].energy = EnergySpec::Burst("gone".into()));
    assert!(message.contains("mode `gone`"), "{message}");
}

#[test]
fn a_mode_naming_an_undeclared_bank_is_a_build_error() {
    let message = dangling_reference(|m| m.modes[0].banks.push("gone".into()));
    assert!(message.contains("bank `gone`"), "{message}");
}

#[test]
fn a_transition_to_an_undeclared_task_is_a_build_error() {
    let message = dangling_reference(|m| m.tasks[0].then = ThenSpec::To("gone".into()));
    assert!(message.contains("task `gone`"), "{message}");
}

#[test]
fn a_fleet_mix_naming_an_undeclared_task_is_a_build_error() {
    let file = "manifests/fleet_trace.capy";
    let mut m =
        parse_manifest(&fs::read_to_string(repo_path(file)).expect("reads")).expect("parses");
    m.fleet.as_mut().expect("a fleet").mix[1].0 = "gone".into();
    match CompiledFleet::new(&m, &repo_path(file).to_string_lossy()) {
        Err(ManifestError::Build { message }) => {
            assert!(message.contains("task `gone`"), "{message}")
        }
        Err(other) => panic!("expected Build, got {other:?}"),
        Ok(_) => panic!("a dangling mix entry compiled"),
    }
}

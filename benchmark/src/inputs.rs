//! Seeded input generators. Every workload input is a pure function of
//! the benchmark seed: manifests are the checked-in templates with
//! fields redrawn or rescaled, then rendered with
//! [`ScenarioManifest::emit`], so the program sees ordinary manifest
//! text.

use capy_manifest::{parse_manifest, AssertionSpec, CmpOp, HarvesterSpec, ScenarioManifest};
use capy_units::rng::{derive_seed, DetRng};
use capy_units::SimTime;

/// `manifests/fleet_trace.capy`: the trace-driven sense/relay fleet.
pub const FLEET_TRACE: &str = include_str!("../../manifests/fleet_trace.capy");
/// `manifests/fleet_trace.result.json`: its golden artifact.
pub const FLEET_TRACE_GOLDEN: &str = include_str!("../../manifests/fleet_trace.result.json");
/// The `file` string the golden artifact records.
pub const FLEET_TRACE_FILE: &str = "manifests/fleet_trace.capy";
/// `manifests/fleet_smoke.capy`: the orbital sense/report fleet.
pub const FLEET_SMOKE: &str = include_str!("../../manifests/fleet_smoke.capy");
/// `manifests/temperature_alarm.capy`: the burst/pre-burst alarm device.
pub const TEMPERATURE_ALARM: &str = include_str!("../../manifests/temperature_alarm.capy");
/// `manifests/traces/cloudy_day.trace`: the recorded harvest trace.
pub const CLOUDY_DAY_TRACE: &str = include_str!("../../manifests/traces/cloudy_day.trace");
/// Where the fleet manifests reference the trace from.
pub const CLOUDY_DAY_TRACE_PATH: &str = "traces/cloudy_day.trace";

/// Stream tags, so each generator draws from its own seed.
const TAG_SHORT_LEG: u64 = 1;
const TAG_ORBITAL: u64 = 2;
const TAG_KILL_GRID: u64 = 3;
const TAG_BATCH: u64 = 4;

fn template(text: &str) -> ScenarioManifest {
    parse_manifest(text).expect("checked-in manifest templates parse")
}

/// The manifest seed a workload's fleet uses under benchmark seed `seed`.
#[must_use]
pub fn fleet_seed(seed: u64, orbital: bool) -> u64 {
    derive_seed(seed, if orbital { TAG_ORBITAL } else { TAG_SHORT_LEG })
}

/// `fleet_trace.capy` with manifest seed `manifest_seed`, `devices`
/// devices split 7:3 between the sense and relay templates, and a
/// `horizon_s` horizon. Seed 17, 10,240 devices and 75 s give the
/// checked-in manifest back.
#[must_use]
pub fn short_leg_manifest(manifest_seed: u64, devices: u64, horizon_s: f64) -> String {
    let mut m = resized(FLEET_TRACE, manifest_seed, devices, horizon_s);
    let fleet = m.fleet.as_mut().expect("fleet_trace.capy has a [fleet]");
    let sense = devices * 7 / 10;
    fleet.mix[0].1 = sense;
    fleet.mix[1].1 = devices - sense;
    m.emit()
}

/// `fleet_smoke.capy` with manifest seed `manifest_seed`, `devices`
/// devices and a `horizon_s` horizon (its 60 s eclipse, 3 dips and
/// shading unchanged).
#[must_use]
pub fn orbital_manifest(manifest_seed: u64, devices: u64, horizon_s: f64) -> String {
    resized(FLEET_SMOKE, manifest_seed, devices, horizon_s).emit()
}

/// A fleet template with a new seed, population and horizon. Its
/// completion-count floors scale with devices × horizon, so they hold
/// exactly as often as they did for the template.
fn resized(text: &str, manifest_seed: u64, devices: u64, horizon_s: f64) -> ScenarioManifest {
    let mut m = template(text);
    let fleet = m.fleet.as_mut().expect("fleet templates have a [fleet]");
    let scale = devices as f64 / fleet.devices as f64 * horizon_s / m.limits.max_sim_seconds;
    fleet.devices = devices;
    m.seed = manifest_seed;
    m.limits.max_sim_seconds = horizon_s;
    for a in &mut m.assertions {
        if let AssertionSpec::TaskCompletions {
            op: CmpOp::Ge,
            count,
            ..
        }
        | AssertionSpec::TotalCompletions {
            op: CmpOp::Ge,
            count,
        } = a
        {
            *count = (*count as f64 * scale).floor() as u64;
        }
    }
    m
}

/// The kill grid's TA arguments: three alarm instants, one in each of
/// the windows 100–160 s, 270–330 s and 440–500 s, plus the TA seed.
#[must_use]
pub fn ta_schedule(seed: u64) -> (Vec<SimTime>, u64) {
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, TAG_KILL_GRID));
    let alarms = [100, 270, 440]
        .iter()
        .map(|&start| SimTime::from_micros((start + rng.gen_range(0..60u64)) * 1_000_000))
        .collect();
    (alarms, rng.next_u64())
}

/// Batch manifest `index`: `temperature_alarm.capy` with harvester power
/// in 2–8 mW, a 600–3600 s horizon, 4–12 samples per alert and a
/// 150–400 ms sampling sleep, all drawn from `(seed, index)`. The
/// template's assertions hold across these ranges.
#[must_use]
pub fn batch_manifest(seed: u64, index: u64) -> String {
    let stream = derive_seed(derive_seed(seed, TAG_BATCH), index);
    let mut rng = DetRng::seed_from_u64(stream);
    let mut m = template(TEMPERATURE_ALARM);
    m.name = format!("alarm-{index:04}");
    m.seed = stream;
    m.harvester = HarvesterSpec::Constant {
        power_mw: rng.gen_range(200..801u64) as f64 / 100.0,
        voltage: 3.0,
    };
    m.limits.max_sim_seconds = rng.gen_range(600..3601u64) as f64;
    let sample = &mut m.tasks[0];
    sample.repeat = Some(rng.gen_range(4..13u64));
    sample.sleep_ms = Some(rng.gen_range(150..401u64) as f64);
    m.emit()
}

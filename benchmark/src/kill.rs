//! `kill_grid_ta`: `explore_kill_grid` over the TA application, and its
//! replica.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use capy_apps::ta::{self, TaCtx};
use capy_power::bank::BankId;
use capy_power::harvester::SolarPanel;
use capy_units::{SimDuration, SimTime};
use capybara::faults::{explore_kill_grid, KillGridOptions, KillReport};
use capybara::sim::{validate_event_log, SimEvent, SimSnapshot, Simulator, StepResult};
use capybara::sweep::RunSummary;
use capybara::Variant;

use crate::inputs;
use crate::trace::{Layer, Trace, Tracer};
use crate::{Bench, Config, Counts, WORKERS};

/// The scenario horizon.
const HORIZON: SimTime = SimTime::from_secs(600);

/// Checkpoint every this many task boundaries in the record pass.
const SNAPSHOT_STRIDE: usize = 64;

type TaSim = Simulator<SolarPanel, TaCtx>;

/// The kill-grid workload, set up.
pub(crate) struct KillGrid {
    alarms: Vec<SimTime>,
    ta_seed: u64,
    options: KillGridOptions,
}

impl KillGrid {
    fn build(&self) -> TaSim {
        ta::build(Variant::CapyP, self.alarms.clone(), self.ta_seed)
    }
}

/// One replayed kill point.
struct Point {
    kill_at: SimTime,
    summary: RunSummary,
    violated: bool,
    prefix: SimDuration,
    resumed: SimDuration,
    counts: Counts,
}

impl Bench for KillGrid {
    type Raw = KillReport;
    type Output = KillReport;
    const OP: &'static str = "point";
    const SPANS_PER_OP: u64 = 6;

    fn setup(config: &Config) -> Result<KillGrid, String> {
        let (alarms, ta_seed) = inputs::ta_schedule(config.seed);
        let grid = KillGrid {
            alarms,
            ta_seed,
            options: KillGridOptions {
                max_points: Some(if config.smoke { 16 } else { 1024 }),
                workers: WORKERS,
                snapshot_stride: SNAPSHOT_STRIDE,
                ..KillGridOptions::default()
            },
        };
        // The builder arguments are the kill grid's input: build once to
        // check they make a simulator.
        drop(grid.build());
        Ok(grid)
    }

    fn trial(&self) -> Result<KillReport, String> {
        Ok(explore_kill_grid(
            HORIZON,
            &self.options,
            || self.build(),
            |_| Ok(()),
        ))
    }

    fn observe(&self, report: KillReport) -> Result<KillReport, String> {
        Ok(report)
    }

    fn ops(&self, report: &KillReport) -> u64 {
        report.outcomes.len() as u64
    }

    fn failed(&self, report: &KillReport) -> u64 {
        report.violations().len() as u64 + u64::from(report.baseline_violation.is_some())
    }

    fn checks(&self, report: &KillReport) -> Vec<String> {
        let mut failures = Vec::new();
        let cap = self.options.max_points.unwrap_or(usize::MAX);
        if report.outcomes.len() != cap.min(report.grid_points) {
            failures.push(format!(
                "explored {} of {} grid points, expected {}",
                report.outcomes.len(),
                report.grid_points,
                cap.min(report.grid_points)
            ));
        }
        failures
    }

    fn traced(&self, report: &KillReport, trace: &Trace) -> Result<Counts, String> {
        let mut main = trace.tracer(WORKERS);
        let (recorder, grid, snapshots) = main.time(Layer::FaultsRecord, 0, |t| self.record(t));
        main.finish();
        let baseline = RunSummary::from_sim(&recorder, Duration::ZERO);
        if baseline != report.baseline {
            return Err("replica baseline differs from the report's".to_string());
        }
        if grid.len() != report.grid_points {
            return Err(format!(
                "replica grid has {} points, the report {}",
                grid.len(),
                report.grid_points
            ));
        }
        let selected = subsample(&grid, &self.options);
        if selected.len() != report.outcomes.len() {
            return Err(format!(
                "replica explores {} points, the report {}",
                selected.len(),
                report.outcomes.len()
            ));
        }

        let points = self.kill_points(trace, &selected, &snapshots);
        let mut counts = Counts {
            snapshots: snapshots.len() as u64,
            points: points.len() as u64,
            grid_points: grid.len() as u64,
            ..Counts::default()
        };
        let (mut prefix, mut resumed) = (SimDuration::ZERO, SimDuration::ZERO);
        for (i, (point, expected)) in points.iter().zip(&report.outcomes).enumerate() {
            if point.kill_at != expected.kill_at || point.summary != expected.summary {
                return Err(format!("replayed point {i} differs from the report's"));
            }
            if point.violated != expected.violation.is_some() {
                return Err(format!("replayed point {i} disagrees on its violation"));
            }
            prefix = prefix.saturating_add(point.prefix);
            resumed = resumed.saturating_add(point.resumed);
            counts.absorb(&point.counts);
        }
        let stats = &report.stats;
        if (prefix, resumed, snapshots.len())
            != (stats.prefix_sim, stats.resumed_sim, stats.snapshots)
        {
            return Err("replica stepping differs from the report's exploration stats".to_string());
        }
        counts.prefix_sim_us = prefix.as_micros();
        counts.resumed_sim_us = resumed.as_micros();
        Ok(counts)
    }
}

impl KillGrid {
    /// The record pass: steps the fault-free run to the horizon,
    /// collecting every task boundary and latch-decay deadline ±ε, and
    /// snapshots at t = 0 and every [`SNAPSHOT_STRIDE`]-th boundary.
    fn record(
        &self,
        t: &mut Tracer<'_>,
    ) -> (TaSim, Vec<SimTime>, Vec<SimSnapshot<SolarPanel, TaCtx>>) {
        let epsilon = self.options.epsilon;
        let mut sim = self.build();
        let mut snapshots = vec![t.time(Layer::SimSnapshot, 0, |_| sim.snapshot())];
        let mut grid = Vec::new();
        let mut push = |at: SimTime| {
            if at > SimTime::ZERO && at < HORIZON {
                grid.push(at);
            }
        };
        let mut boundaries = 0usize;
        while sim.now() < HORIZON {
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
                if deadline != SimTime::MAX {
                    push(deadline.saturating_sub(epsilon));
                    push(deadline.saturating_add(epsilon));
                }
            }
            boundaries += 1;
            if boundaries.is_multiple_of(SNAPSHOT_STRIDE) {
                let n = snapshots.len() as u64;
                snapshots.push(t.time(Layer::SimSnapshot, n, |_| sim.snapshot()));
            }
        }
        grid.sort_unstable();
        grid.dedup();
        (sim, grid, snapshots)
    }

    /// The kill pass on [`WORKERS`] threads, claiming points in order;
    /// returns the points in kill-time order.
    fn kill_points(
        &self,
        trace: &Trace,
        selected: &[SimTime],
        snapshots: &[SimSnapshot<SolarPanel, TaCtx>],
    ) -> Vec<Point> {
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Point)>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for worker in 0..WORKERS {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut t = trace.tracer(worker);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&kill_at) = selected.get(i) else {
                            break;
                        };
                        let point = t.op(i as u64, |t| self.kill(t, i as u64, kill_at, snapshots));
                        done.lock()
                            .expect("no kill worker panicked holding the results")
                            .push((i, point));
                    }
                    t.finish();
                });
            }
        });
        let mut done = done.into_inner().expect("kill workers finished");
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, point)| point).collect()
    }

    /// One kill point: resume from the last snapshot strictly before
    /// `kill_at`, cut power there, run to the horizon, check.
    fn kill(
        &self,
        t: &mut Tracer<'_>,
        index: u64,
        kill_at: SimTime,
        snapshots: &[SimSnapshot<SolarPanel, TaCtx>],
    ) -> Point {
        let mut sim = t.time(Layer::SimBuild, index, |_| self.build());
        let resume = &snapshots[snapshots.partition_point(|s| s.now() < kill_at) - 1];
        t.time(Layer::SimRestore, index, |_| sim.restore(resume));
        let restored_events = sim.events().len();
        let restored_attempts = sim.exec_stats().attempts;
        let restored_segments = sim.power().charge_segments();
        let start = sim.now();

        let pre = t.time(Layer::SimRunPrefix, index, |_| sim.run_until(kill_at));
        let landed = sim.now();
        let at_kill = sim.exec_stats();
        let mut violated = matches!(pre, StepResult::Stalled { .. });
        if pre == StepResult::Progress {
            let resumed = t.time(Layer::SimRunSuffix, index, |_| {
                sim.inject_power_failure();
                sim.run_until(HORIZON)
            });
            violated |= matches!(resumed, StepResult::Stalled { .. });
        }
        let summary = t.time(Layer::SimSummary, index, |_| {
            RunSummary::from_sim(&sim, Duration::ZERO)
        });
        let log = t.time(Layer::SimValidate, index, |_| {
            validate_event_log(sim.events())
        });
        let zeno = summary.reboots - at_kill.reboots >= self.options.zeno_boot_limit
            && summary.completions == at_kill.completions;
        violated |=
            log.is_some() || summary.attempts != summary.completions + summary.failures || zeno;

        let mut counts = Counts::default();
        counts.add_summary(&summary);
        counts.stepped_attempts = summary.attempts - restored_attempts;
        counts.stepped_sim_us = sim.now().saturating_since(start).as_micros();
        counts.charge_segments = sim.power().charge_segments() - restored_segments;
        counts.stepped_charges = sim.events()[restored_events..]
            .iter()
            .filter(|e| matches!(e, SimEvent::Charge { .. }))
            .count() as u64;
        Point {
            kill_at,
            summary,
            violated,
            prefix: landed.saturating_since(start),
            resumed: sim.now().saturating_since(landed),
            counts,
        }
    }
}

/// Every `stride`-th grid point, then an even spread capped at
/// `max_points` (the explorer's subsampling).
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

//! Ablation (§7): restart-at-task (Chain/Alpaca class) vs
//! dynamic-checkpointing (Hibernus/QuickRecall class) recovery on an
//! under-provisioned buffer.
//!
//! Task-based systems pair naturally with Capybara because a task is an
//! atomicity contract: it either completes on buffered energy or retries
//! whole. A checkpointing system can finish a long *divisible* computation
//! on a too-small buffer — but it cannot checkpoint through an *atomic*
//! operation (a radio packet does not resume mid-transmission), which is
//! why Capybara sizes modes for atomic tasks instead.

use capy_bench::{figure_header, sweep_footer, FIGURE_SEED};
use capy_intermittent::checkpoint::CheckpointedMachine;
use capy_intermittent::machine::ExecutionMachine;
use capy_intermittent::nv::{NvState, NvVar};
use capy_intermittent::task::{TaskGraph, TaskId, Transition};
use capy_power::prelude::*;
use capy_units::{SimDuration, SimTime, Volts, Watts};
use capybara::sweep::{run_sweep_tally_on, AxisValue, RunSummary, SweepSpec};

/// Units of compute in the long task; each unit is 100 ms at ~1 mW.
const TASK_UNITS: usize = 100;
const UNIT: SimDuration = SimDuration::from_millis(100);
const UNIT_POWER: Watts = Watts::new(1.0e-3);

fn power_system() -> PowerSystem<ConstantHarvester> {
    // A buffer sustaining only ~18 units per charge: far too small for the
    // whole 100-unit task.
    PowerSystem::builder()
        .harvester(ConstantHarvester::new(
            Watts::from_milli(5.0),
            Volts::new(3.0),
        ))
        .bank(
            Bank::builder("small")
                .with(parts::tantalum_1000uf())
                .build(),
            SwitchKind::NormallyClosed,
        )
        .build()
}

/// The two recovery disciplines compared by this ablation.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RestartPolicy {
    /// Chain/Alpaca class: the whole task re-executes on power failure.
    TaskRestart,
    /// Hibernus/QuickRecall class: progress persists at unit boundaries.
    Checkpointing,
}

impl AxisValue for RestartPolicy {
    fn axis_label(&self) -> String {
        match self {
            RestartPolicy::TaskRestart => "task-restart (Chain)".to_string(),
            RestartPolicy::Checkpointing => "checkpointing".to_string(),
        }
    }
}

struct Done(NvVar<u32>);

impl NvState for Done {
    fn commit_all(&mut self) {
        self.0.commit();
    }
    fn abort_all(&mut self) {
        self.0.abort();
    }
}

fn graph() -> TaskGraph<Done> {
    TaskGraph::builder()
        .task("long-compute", |done: &mut Done| {
            done.0.update(|n| n + 1);
            Transition::Stop
        })
        .build(TaskId(0))
}

/// Chain-style: the task must run all units on one charge or restart.
fn run_task_based(horizon: SimTime) -> (u32, u64, SimTime) {
    let mut power = power_system();
    let mut machine = ExecutionMachine::new(graph());
    let mut ctx = Done(NvVar::new(0));
    let mut now = SimTime::ZERO;
    while now < horizon && !machine.is_stopped() {
        if power.charge_until_full(&mut now).is_err() {
            break;
        }
        machine.begin();
        let mut completed_units = 0;
        while completed_units < TASK_UNITS {
            if !power.draw(UNIT_POWER, UNIT, &mut now).is_complete() {
                break;
            }
            completed_units += 1;
        }
        if completed_units == TASK_UNITS {
            let t = machine.peek_body(&mut ctx);
            machine.complete(&mut ctx, t);
        } else {
            machine.fail(&mut ctx);
        }
    }
    (ctx.0.get(), machine.stats().attempts, now)
}

/// Checkpointing: progress persists at unit boundaries.
fn run_checkpointed(horizon: SimTime) -> (u32, u64, SimTime) {
    let mut power = power_system();
    let mut machine = CheckpointedMachine::new(graph());
    let mut ctx = Done(NvVar::new(0));
    let mut now = SimTime::ZERO;
    while now < horizon && !machine.is_stopped() {
        if power.charge_until_full(&mut now).is_err() {
            break;
        }
        machine.begin(TASK_UNITS);
        while machine.remaining_units() > 0 {
            if !power.draw(UNIT_POWER, UNIT, &mut now).is_complete() {
                machine.fail();
                break;
            }
            machine.advance(1);
            machine.checkpoint();
        }
        if machine.remaining_units() == 0 && !machine.is_stopped() {
            machine.complete(&mut ctx);
        }
    }
    (ctx.0.get(), machine.stats().attempts, now)
}

fn main() {
    figure_header(
        "Ablation (7)",
        "restart-at-task vs dynamic checkpointing on an undersized buffer",
    );
    let horizon = SimTime::from_secs(300);
    // These recovery models drive the power substrate directly (no
    // `Simulator`), so the runs shard with [`run_sweep_tally_on`], which
    // assembles the standard sweep record from what each run reports.
    let spec = SweepSpec::new("ablation-restart-policy", horizon)
        .base_seed(FIGURE_SEED)
        .axis(
            "policy",
            &[RestartPolicy::TaskRestart, RestartPolicy::Checkpointing],
        );
    let (report, ends) = run_sweep_tally_on(&spec, 0, |point| {
        let (done, attempts, end) = match point.expect_axis::<RestartPolicy>("policy") {
            RestartPolicy::TaskRestart => run_task_based(horizon),
            RestartPolicy::Checkpointing => run_checkpointed(horizon),
        };
        let summary = RunSummary {
            attempts,
            completions: u64::from(done),
            failures: attempts.saturating_sub(u64::from(done)),
            end,
            ..RunSummary::default()
        };
        (summary, end)
    });
    println!(
        "{:<22} {:>10} {:>10} {:>14}",
        "policy", "completed", "attempts", "finished at"
    );
    for (run, end) in report.runs.iter().zip(&ends) {
        println!(
            "{:<22} {:>10} {:>10} {:>14}",
            run.point.label,
            run.summary.completions,
            run.summary.attempts,
            format!("{:.0}s", end.as_secs_f64())
        );
    }
    sweep_footer(&report);
    println!();
    println!("Expected shape: the task-restart policy livelocks on the");
    println!("undersized buffer (0 completions; every attempt re-executes");
    println!("from the start), while checkpointing finishes the divisible");
    println!("task across several charges. The paper's answer is different:");
    println!("size a mode for the atomic task (checkpoints cannot span a");
    println!("radio packet), which is what Capybara's reconfiguration does.");
}

//! The intermittent execution machine: tracks the current task across
//! power failures and applies commit/abort at task boundaries.
//!
//! On real hardware, the current-task index lives in FRAM and is updated
//! atomically when a task completes (the "non-volatile state machine" of
//! §4.3). The machine here mirrors that: [`ExecutionMachine::complete`]
//! commits application state and advances the task pointer in one step;
//! [`ExecutionMachine::fail`] models a power failure, discarding
//! uncommitted writes and leaving the task pointer unchanged, so the next
//! boot retries the same task.

use crate::nv::NvState;
use crate::task::{TaskGraph, TaskId, Transition};

/// Execution statistics maintained by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Task executions attempted (including retried ones).
    pub attempts: u64,
    /// Task executions that ran to completion and committed.
    pub completions: u64,
    /// Attempts cut short by power failure.
    pub failures: u64,
    /// Power-on boots observed.
    pub reboots: u64,
}

impl ExecStats {
    /// Fraction of attempts wasted on failed executions.
    #[must_use]
    pub fn waste_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        }
    }
}

/// The per-device execution machine: the task pointer, the stop flag and
/// the statistics — data only. The task graph stays with its owner and
/// is passed by reference where a body runs or a transition is checked,
/// so copying the machine copies the device's whole execution state.
///
/// See the [crate-level example](crate) for a full commit/abort round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionMachine {
    current: TaskId,
    stopped: bool,
    stats: ExecStats,
}

impl ExecutionMachine {
    /// Creates a machine positioned at `graph`'s entry task.
    #[must_use]
    pub fn new<C>(graph: &TaskGraph<C>) -> Self {
        Self {
            current: graph.entry(),
            stopped: false,
            stats: ExecStats::default(),
        }
    }

    /// The task that will execute next.
    #[must_use]
    pub fn current(&self) -> TaskId {
        self.current
    }

    /// `true` once a task has returned [`Transition::Stop`].
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Records the start of an execution attempt.
    pub fn begin(&mut self) {
        self.stats.attempts += 1;
    }

    /// Runs the current task's body from `graph` *without* committing or
    /// advancing — the simulator uses this to stage a task's effects
    /// before it knows whether the energy buffer sustains the task to
    /// completion.
    pub fn peek_body<C>(&self, graph: &TaskGraph<C>, ctx: &mut C) -> Transition {
        graph.run(self.current, ctx)
    }

    /// Commits application state and advances per `transition` — the task
    /// completed on buffered energy.
    ///
    /// # Panics
    ///
    /// Panics when `transition` names a task outside `graph`.
    pub fn complete<C: NvState>(
        &mut self,
        graph: &TaskGraph<C>,
        ctx: &mut C,
        transition: Transition,
    ) {
        ctx.commit_all();
        self.stats.completions += 1;
        match transition {
            Transition::To(next) | Transition::Sleep { then: next, .. } => {
                assert!(next.0 < graph.len(), "transition to unknown task");
                self.current = next;
            }
            Transition::Stay => {}
            Transition::Stop => self.stopped = true,
        }
    }

    /// Models a power failure mid-task: uncommitted writes are discarded
    /// and the task pointer stays put, so the next boot retries the same
    /// task (Chain's restart-at-current-task semantics).
    pub fn fail<C: NvState>(&mut self, ctx: &mut C) {
        ctx.abort_all();
        self.stats.failures += 1;
    }

    /// Records a power-on boot.
    pub fn reboot(&mut self) {
        self.stats.reboots += 1;
    }

    /// Convenience: attempt + body + commit in one call, for tests and
    /// continuously-powered execution where failure is impossible.
    /// Returns `None` once the machine has stopped.
    pub fn run_current<C: NvState>(
        &mut self,
        graph: &TaskGraph<C>,
        ctx: &mut C,
    ) -> Option<Transition> {
        if self.stopped {
            return None;
        }
        self.begin();
        let t = self.peek_body(graph, ctx);
        self.complete(graph, ctx, t);
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nv::NvVar;

    struct Counter {
        n: NvVar<u32>,
    }

    impl NvState for Counter {
        fn commit_all(&mut self) {
            self.n.commit();
        }
        fn abort_all(&mut self) {
            self.n.abort();
        }
    }

    fn two_task_graph() -> TaskGraph<Counter> {
        TaskGraph::builder()
            .task("ping", |c: &mut Counter| {
                c.n.update(|x| x + 1);
                Transition::To(TaskId(1))
            })
            .task("pong", |c: &mut Counter| {
                c.n.update(|x| x + 10);
                Transition::To(TaskId(0))
            })
            .build(TaskId(0))
    }

    #[test]
    fn completes_advance_the_task_pointer() {
        let graph = two_task_graph();
        let mut m = ExecutionMachine::new(&graph);
        let mut ctx = Counter { n: NvVar::new(0) };
        assert_eq!(graph.name(m.current()), "ping");
        m.run_current(&graph, &mut ctx);
        assert_eq!(graph.name(m.current()), "pong");
        m.run_current(&graph, &mut ctx);
        assert_eq!(graph.name(m.current()), "ping");
        assert_eq!(ctx.n.get(), 11);
    }

    #[test]
    fn failure_retries_same_task_without_side_effects() {
        let graph = two_task_graph();
        let mut m = ExecutionMachine::new(&graph);
        let mut ctx = Counter { n: NvVar::new(0) };
        // Three failed attempts...
        for _ in 0..3 {
            m.begin();
            let _ = m.peek_body(&graph, &mut ctx);
            m.fail(&mut ctx);
            m.reboot();
        }
        assert_eq!(ctx.n.get(), 0, "failed attempts must not leak writes");
        assert_eq!(graph.name(m.current()), "ping");
        // ...then a successful one.
        m.begin();
        let t = m.peek_body(&graph, &mut ctx);
        m.complete(&graph, &mut ctx, t);
        assert_eq!(ctx.n.get(), 1, "exactly-once despite retries");
        let s = m.stats();
        assert_eq!(s.attempts, 4);
        assert_eq!(s.failures, 3);
        assert_eq!(s.completions, 1);
        assert_eq!(s.reboots, 3);
        assert!((s.waste_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stop_halts_the_machine() {
        let graph: TaskGraph<()> = TaskGraph::builder()
            .task("once", |_| Transition::Stop)
            .build(TaskId(0));
        let mut m = ExecutionMachine::new(&graph);
        assert_eq!(m.run_current(&graph, &mut ()), Some(Transition::Stop));
        assert!(m.is_stopped());
        assert_eq!(m.run_current(&graph, &mut ()), None);
    }

    #[test]
    fn stay_loops_on_same_task() {
        let graph: TaskGraph<()> = TaskGraph::builder()
            .task("poll", |_| Transition::Stay)
            .build(TaskId(0));
        let mut m = ExecutionMachine::new(&graph);
        m.run_current(&graph, &mut ());
        m.run_current(&graph, &mut ());
        assert_eq!(m.current(), TaskId(0));
        assert_eq!(m.stats().completions, 2);
    }

    #[test]
    #[should_panic(expected = "transition to unknown task")]
    fn transition_to_unknown_task_panics() {
        let graph: TaskGraph<()> = TaskGraph::builder()
            .task("bad", |_| Transition::To(TaskId(9)))
            .build(TaskId(0));
        let mut m = ExecutionMachine::new(&graph);
        m.run_current(&graph, &mut ());
    }

    #[test]
    fn waste_ratio_zero_without_attempts() {
        assert_eq!(ExecStats::default().waste_ratio(), 0.0);
    }
}

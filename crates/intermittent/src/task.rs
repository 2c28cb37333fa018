//! Task identities, transitions, and the task graph.

use core::fmt;

use capy_units::SimDuration;

/// Index of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Where control flows when a task completes — the `nexttask` statement of
/// the Chain programming model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Continue at the given task.
    To(TaskId),
    /// Re-execute the same task (a self-loop, e.g. a polling sampler).
    Stay,
    /// Hold the processor in its memory-retaining sleep state for the
    /// given span, then continue at `then` — the "put the device to sleep
    /// in between samples" pacing the paper discusses as an alternative
    /// implementation (§6.4). The power system stays on throughout, so
    /// sleeping still drains the buffer through quiescent overhead.
    Sleep {
        /// Time to spend in the sleep state.
        duration: SimDuration,
        /// Task to continue at afterwards.
        then: TaskId,
    },
    /// The application has finished (used by finite experiment drivers;
    /// deployed intermittent applications usually loop forever).
    Stop,
}

/// The body of a task: application logic that reads and writes the
/// non-volatile context and names a successor. It is `Fn`, so every piece
/// of mutable state lives in `C`, where commit, abort and snapshots see
/// it; `Send + Sync` lets one graph serve many devices on many threads.
pub type TaskBody<C> = Box<dyn Fn(&mut C) -> Transition + Send + Sync>;

struct TaskDef<C> {
    name: &'static str,
    body: TaskBody<C>,
}

impl<C> fmt::Debug for TaskDef<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDef").field("name", &self.name).finish()
    }
}

/// A static task graph: the decomposition of an application into
/// function-like tasks (§3, Figure 5).
#[derive(Debug)]
pub struct TaskGraph<C> {
    tasks: Vec<TaskDef<C>>,
    entry: TaskId,
}

impl<C> TaskGraph<C> {
    /// Starts building a graph.
    #[must_use]
    pub fn builder() -> TaskGraphBuilder<C> {
        TaskGraphBuilder { tasks: Vec::new() }
    }

    /// The task executed first on initial boot.
    #[must_use]
    pub fn entry(&self) -> TaskId {
        self.entry
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the graph has no tasks (never true for built graphs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The name of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn name(&self, id: TaskId) -> &'static str {
        self.tasks[id.0].name
    }

    /// Looks up a task id by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// Runs the body of task `id` against `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn run(&self, id: TaskId, ctx: &mut C) -> Transition {
        (self.tasks[id.0].body)(ctx)
    }
}

/// Incremental builder for [`TaskGraph`].
#[derive(Debug)]
pub struct TaskGraphBuilder<C> {
    tasks: Vec<TaskDef<C>>,
}

impl<C> TaskGraphBuilder<C> {
    /// Adds a task; ids are assigned in insertion order starting at 0.
    #[must_use]
    pub fn task(
        mut self,
        name: &'static str,
        body: impl Fn(&mut C) -> Transition + Send + Sync + 'static,
    ) -> Self {
        self.tasks.push(TaskDef {
            name,
            body: Box::new(body),
        });
        self
    }

    /// Looks up the id a task was added under, by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// Finishes the graph with the given entry task.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `entry` is out of range.
    #[must_use]
    pub fn build(self, entry: TaskId) -> TaskGraph<C> {
        assert!(
            !self.tasks.is_empty(),
            "a task graph needs at least one task"
        );
        assert!(entry.0 < self.tasks.len(), "entry task out of range");
        TaskGraph {
            tasks: self.tasks,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let graph: TaskGraph<u32> = TaskGraph::builder()
            .task("a", |_| Transition::Stay)
            .task("b", |_| Transition::Stop)
            .build(TaskId(0));
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.find("b"), Some(TaskId(1)));
        assert_eq!(graph.find("zzz"), None);
        assert_eq!(graph.name(TaskId(0)), "a");
    }

    #[test]
    fn run_invokes_body_with_context() {
        let graph: TaskGraph<u32> = TaskGraph::builder()
            .task("incr", |c| {
                *c += 1;
                Transition::Stay
            })
            .build(TaskId(0));
        let mut ctx = 0u32;
        assert_eq!(graph.run(TaskId(0), &mut ctx), Transition::Stay);
        assert_eq!(ctx, 1);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_graph_rejected() {
        let _: TaskGraph<()> = TaskGraph::builder().build(TaskId(0));
    }

    #[test]
    #[should_panic(expected = "entry task out of range")]
    fn out_of_range_entry_rejected() {
        let _: TaskGraph<()> = TaskGraph::builder()
            .task("a", |_| Transition::Stop)
            .build(TaskId(3));
    }

    #[test]
    fn display_of_task_id() {
        assert_eq!(TaskId(4).to_string(), "task#4");
    }
}

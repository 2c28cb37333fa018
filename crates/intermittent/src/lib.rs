//! A Chain-style task-based intermittent execution runtime.
//!
//! The paper's software interface is defined against task-based
//! intermittent programming models (Chain \[10\], Alpaca \[25\]): an
//! application is decomposed into function-like *tasks*; control flows from
//! task to task at `nexttask` statements; a power failure rolls execution
//! back to the start of the current task with all non-volatile state as it
//! was when that task began. This crate reproduces those semantics:
//!
//! * [`task`] — task identities, transitions, and the task graph;
//! * [`nv`] — non-volatile variables with task-granularity commit/abort,
//!   giving Chain's idempotent re-execution guarantee;
//! * [`machine`] — the execution machine that tracks the current task
//!   across reboots and applies commit-on-completion / abort-on-failure.
//!   It holds data only; the graph it runs is passed by reference.
//!
//! # Example
//!
//! ```
//! use capy_intermittent::prelude::*;
//!
//! struct App {
//!     count: NvVar<u32>,
//! }
//! impl NvState for App {
//!     fn commit_all(&mut self) { self.count.commit(); }
//!     fn abort_all(&mut self) { self.count.abort(); }
//! }
//!
//! let graph = TaskGraph::builder()
//!     .task("incr", |app: &mut App| {
//!         let c = app.count.get();
//!         app.count.set(c + 1);
//!         Transition::To(TaskId(1))
//!     })
//!     .task("done", |_app: &mut App| Transition::Stop)
//!     .build(TaskId(0));
//!
//! // The graph is the program; the machine and the context are the
//! // device's state, and a copy of them is a checkpoint.
//! let mut app = App { count: NvVar::new(0) };
//! let mut machine = ExecutionMachine::new(&graph);
//!
//! // A power failure mid-task discards uncommitted writes.
//! machine.begin();
//! let _ = machine.peek_body(&graph, &mut app); // body runs, sets count = 1
//! machine.fail(&mut app);                      // ...but power fails before commit
//! assert_eq!(app.count.get(), 0);
//!
//! // A completed attempt commits and advances.
//! let t = machine.run_current(&graph, &mut app).unwrap();
//! assert_eq!(app.count.get(), 1);
//! assert_eq!(t, Transition::To(TaskId(1)));
//! assert_eq!(graph.name(machine.current()), "done");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod machine;
pub mod nv;
pub mod task;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::channel::{NvChannel, NvQueue};
    pub use crate::checkpoint::{CheckpointStats, CheckpointedMachine};
    pub use crate::machine::{ExecStats, ExecutionMachine};
    pub use crate::nv::{NvState, NvVar, NvVec};
    pub use crate::task::{TaskGraph, TaskGraphBuilder, TaskId, Transition};
}

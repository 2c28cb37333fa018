//! Non-volatile state with task-granularity commit/abort.
//!
//! Chain's correctness argument rests on tasks being *idempotent*: a task
//! may be re-executed any number of times after power failures, and only a
//! completed execution publishes its writes. [`NvVar`] and [`NvVec`]
//! implement that discipline with a committed value plus a working
//! (uncommitted) copy; the execution machine calls
//! [`NvState::commit_all`] on task completion and [`NvState::abort_all`]
//! on power failure.

use capy_units::cycle::Cycle;

/// A value held in non-volatile memory (FRAM on the prototype) with
/// commit/abort semantics at task granularity.
///
/// Reads observe the task's own uncommitted write if one exists, else the
/// committed value — matching a Chain self-channel.
#[derive(Debug, Clone, PartialEq)]
pub struct NvVar<T: Clone> {
    committed: T,
    working: Option<T>,
}

impl<T: Clone> NvVar<T> {
    /// Creates a variable with an initial committed value.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self {
            committed: value,
            working: None,
        }
    }

    /// Reads the task-visible value.
    #[must_use]
    pub fn get(&self) -> T {
        self.working
            .clone()
            .unwrap_or_else(|| self.committed.clone())
    }

    /// Reads the committed value, ignoring any uncommitted write.
    #[must_use]
    pub fn committed(&self) -> &T {
        &self.committed
    }

    /// Visits this variable's steady state as words: the committed
    /// value through `write`, whether a write is staged, and the staged
    /// value through `write`.
    pub fn cycle_words(&self, c: &mut Cycle<'_>, write: impl Fn(&T, &mut Cycle<'_>)) {
        let Self { committed, working } = self;
        write(committed, c);
        c.word(u64::from(working.is_some()));
        if let Some(w) = working {
            write(w, c);
        }
    }

    /// Writes a new (uncommitted) value.
    pub fn set(&mut self, value: T) {
        self.working = Some(value);
    }

    /// Applies `f` to the task-visible value and writes the result.
    pub fn update(&mut self, f: impl FnOnce(T) -> T) {
        let v = self.get();
        self.set(f(v));
    }

    /// Publishes the uncommitted write, if any.
    pub fn commit(&mut self) {
        if let Some(w) = self.working.take() {
            self.committed = w;
        }
    }

    /// Discards the uncommitted write, if any.
    pub fn abort(&mut self) {
        self.working = None;
    }

    /// `true` if an uncommitted write exists.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.working.is_some()
    }
}

impl NvVar<u64> {
    /// Visits this variable's steady state as a counter: whether a
    /// write is staged as a word, the committed and any staged value as
    /// counters.
    pub fn cycle_counter(&mut self, c: &mut Cycle<'_>) {
        let Self { committed, working } = self;
        c.word(u64::from(working.is_some()));
        c.counter(committed);
        if let Some(w) = working {
            c.counter(w);
        }
    }
}

impl<T: Clone + Default> Default for NvVar<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// A non-volatile growable buffer with commit/abort semantics — the shape
/// of the TA application's "time series of the samples" (§6.1.2).
///
/// Appends and truncations performed during a task are staged on a working
/// copy; commit publishes the whole copy, abort discards it.
#[derive(Debug, Clone, PartialEq)]
pub struct NvVec<T: Clone> {
    committed: Vec<T>,
    working: Option<Vec<T>>,
}

impl<T: Clone> NvVec<T> {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            committed: Vec::new(),
            working: None,
        }
    }

    fn working_mut(&mut self) -> &mut Vec<T> {
        if self.working.is_none() {
            self.working = Some(self.committed.clone());
        }
        self.working.as_mut().expect("just ensured")
    }

    /// The task-visible contents.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        self.working.as_deref().unwrap_or(&self.committed)
    }

    /// Task-visible length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the task-visible buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Appends a value (uncommitted).
    pub fn push(&mut self, value: T) {
        self.working_mut().push(value);
    }

    /// Clears the buffer (uncommitted).
    pub fn clear(&mut self) {
        self.working_mut().clear();
    }

    /// Retains only the last `n` elements (uncommitted) — the TA
    /// application keeps "the most recent time series".
    pub fn keep_last(&mut self, n: usize) {
        let w = self.working_mut();
        if w.len() > n {
            w.drain(..w.len() - n);
        }
    }

    /// Publishes staged modifications.
    pub fn commit(&mut self) {
        if let Some(w) = self.working.take() {
            self.committed = w;
        }
    }

    /// Discards staged modifications.
    pub fn abort(&mut self) {
        self.working = None;
    }

    /// Visits this buffer's steady state as words: the committed length
    /// and elements through `write`, whether a copy is staged, and the
    /// staged length and elements through `write`.
    pub fn cycle_words(&self, c: &mut Cycle<'_>, write: impl Fn(&T, &mut Cycle<'_>)) {
        let Self { committed, working } = self;
        for buf in [Some(committed), working.as_ref()] {
            c.word(u64::from(buf.is_some()));
            if let Some(buf) = buf {
                c.word(buf.len() as u64);
                for x in buf {
                    write(x, c);
                }
            }
        }
    }
}

impl<T: Clone> Default for NvVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> FromIterator<T> for NvVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            committed: iter.into_iter().collect(),
            working: None,
        }
    }
}

/// Application state composed of non-volatile variables.
///
/// Implementations forward `commit_all`/`abort_all` to every [`NvVar`] /
/// [`NvVec`] field. The execution machine invokes these at task boundaries;
/// any field missed in an implementation silently loses crash consistency,
/// so keep implementations mechanical.
pub trait NvState {
    /// Publishes all uncommitted writes (task completed).
    fn commit_all(&mut self);
    /// Discards all uncommitted writes (power failed mid-task).
    fn abort_all(&mut self);
}

/// The unit state, for tasks that carry no application data.
impl NvState for () {
    fn commit_all(&mut self) {}
    fn abort_all(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use capy_units::rng::DetRng;

    #[test]
    fn var_reads_own_write() {
        let mut v = NvVar::new(1);
        assert_eq!(v.get(), 1);
        v.set(5);
        assert_eq!(v.get(), 5);
        assert_eq!(*v.committed(), 1);
    }

    #[test]
    fn var_commit_publishes() {
        let mut v = NvVar::new(1);
        v.set(5);
        v.commit();
        assert_eq!(*v.committed(), 5);
        assert!(!v.is_dirty());
    }

    #[test]
    fn var_abort_discards() {
        let mut v = NvVar::new(1);
        v.set(5);
        v.abort();
        assert_eq!(v.get(), 1);
    }

    #[test]
    fn var_double_commit_is_idempotent() {
        let mut v = NvVar::new(1);
        v.set(5);
        v.commit();
        // A second commit with no intervening write must be a no-op: the
        // working copy was consumed, so nothing can be re-published.
        v.commit();
        assert_eq!(*v.committed(), 5);
        assert_eq!(v.get(), 5);
        assert!(!v.is_dirty());
    }

    #[test]
    fn var_commit_after_abort_publishes_nothing() {
        let mut v = NvVar::new(1);
        v.set(5);
        v.abort();
        // The abort dropped the working copy; a late commit (e.g. a task
        // completing after its state was already rolled back) must not
        // resurrect the discarded write.
        v.commit();
        assert_eq!(*v.committed(), 1);
        assert_eq!(v.get(), 1);
    }

    #[test]
    fn vec_double_commit_and_commit_after_abort() {
        let mut ts: NvVec<u32> = NvVec::new();
        ts.push(1);
        ts.commit();
        ts.commit();
        assert_eq!(ts.as_slice(), &[1]);
        ts.push(2);
        ts.abort();
        ts.commit();
        assert_eq!(ts.as_slice(), &[1]);
    }

    #[test]
    fn var_update_composes() {
        let mut v = NvVar::new(10);
        v.update(|x| x + 1);
        v.update(|x| x * 2);
        assert_eq!(v.get(), 22);
        assert_eq!(*v.committed(), 10);
    }

    #[test]
    fn vec_push_then_abort_is_idempotent() {
        let mut ts: NvVec<f64> = NvVec::new();
        ts.push(1.0);
        ts.commit();
        // A failed task's appends vanish — re-execution cannot duplicate.
        ts.push(2.0);
        ts.push(3.0);
        ts.abort();
        assert_eq!(ts.as_slice(), &[1.0]);
        ts.push(2.0);
        ts.commit();
        assert_eq!(ts.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn vec_keep_last_window() {
        let mut ts: NvVec<u32> = (0..20).collect();
        ts.keep_last(15);
        ts.commit();
        assert_eq!(ts.len(), 15);
        assert_eq!(ts.as_slice()[0], 5);
    }

    #[test]
    fn vec_keep_last_noop_when_short() {
        let mut ts: NvVec<u32> = (0..3).collect();
        ts.keep_last(15);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn unit_nv_state_is_trivial() {
        let mut u = ();
        u.commit_all();
        u.abort_all();
    }

    #[test]
    fn prop_abort_always_restores_committed() {
        let mut rng = DetRng::seed_from_u64(0x41);
        for _ in 0..256 {
            let init = rng.next_u64() as i64;
            let mut v = NvVar::new(init);
            for _ in 0..rng.gen_range(0usize..10) {
                v.set(rng.next_u64() as i64);
            }
            v.abort();
            assert_eq!(v.get(), init);
        }
    }

    #[test]
    fn prop_commit_then_get_equals_last_write() {
        let mut rng = DetRng::seed_from_u64(0x42);
        for _ in 0..256 {
            let mut v = NvVar::new(rng.next_u64() as i64);
            let mut last = 0i64;
            for _ in 0..rng.gen_range(1usize..10) {
                last = rng.next_u64() as i64;
                v.set(last);
            }
            v.commit();
            assert_eq!(v.get(), last);
        }
    }

    #[test]
    fn prop_vec_interleaved_commit_abort() {
        let mut rng = DetRng::seed_from_u64(0x43);
        for _ in 0..256 {
            // Model: replay the same operations against a plain Vec that
            // only applies batches ending in commit.
            let mut nv: NvVec<u8> = NvVec::new();
            let mut model: Vec<u8> = Vec::new();
            let mut staged: Vec<u8> = Vec::new();
            for _ in 0..rng.gen_range(0usize..40) {
                let val = rng.next_u64() as u8;
                let commit = rng.gen_bool(0.5);
                nv.push(val);
                staged.push(val);
                if commit {
                    nv.commit();
                    model.append(&mut staged);
                } else if staged.len() > 3 {
                    // Periodic power failure.
                    nv.abort();
                    staged.clear();
                }
            }
            nv.abort();
            staged.clear();
            assert_eq!(nv.as_slice(), model.as_slice());
        }
    }
}

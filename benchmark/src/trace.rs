//! Spans recorded around calls into the program's layers.
//!
//! Each worker thread records into its own [`Tracer`] and hands it to
//! the shared [`Trace`] when done. Aggregates (time per layer and per
//! operation) cover every call; span records are kept
//! for every `sample_every`-th operation and for every once-per-run
//! layer, and written out after the run.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A layer of the program, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `fs::read_to_string` of a manifest.
    ManifestRead,
    /// `parse_manifest`.
    ManifestParse,
    /// `compile` / `compile_with`.
    ManifestCompile,
    /// `run_manifest_on` of a single-device manifest.
    ManifestRun,
    /// `ScenarioResult::to_json().pretty()`.
    ManifestEmit,
    /// `fs::write` of an artifact.
    ManifestWrite,
    /// `FleetSpec::device`.
    FleetDerive,
    /// `DeviceOutcome::from_sim` plus the per-task completion scrape.
    FleetOutcome,
    /// `FleetAccumulator::fold`.
    FleetFold,
    /// `FleetAccumulator::merge` of one shard.
    FleetMerge,
    /// The kill grid's record pass (parent of [`Layer::SimSnapshot`]).
    FaultsRecord,
    /// `Simulator::snapshot`.
    SimSnapshot,
    /// `ta::build`.
    SimBuild,
    /// `Simulator::restore`.
    SimRestore,
    /// `Simulator::run_limited` of a whole device run.
    SimRun,
    /// `run_until(kill)` from the restored snapshot.
    SimRunPrefix,
    /// `inject_power_failure` plus `run_until(horizon)`.
    SimRunSuffix,
    /// `RunSummary::from_sim`.
    SimSummary,
    /// `validate_event_log`.
    SimValidate,
}

const LAYERS: usize = 19;

impl Layer {
    /// Every layer.
    pub const ALL: [Layer; LAYERS] = [
        Layer::ManifestRead,
        Layer::ManifestParse,
        Layer::ManifestCompile,
        Layer::ManifestRun,
        Layer::ManifestEmit,
        Layer::ManifestWrite,
        Layer::FleetDerive,
        Layer::FleetOutcome,
        Layer::FleetFold,
        Layer::FleetMerge,
        Layer::FaultsRecord,
        Layer::SimSnapshot,
        Layer::SimBuild,
        Layer::SimRestore,
        Layer::SimRun,
        Layer::SimRunPrefix,
        Layer::SimRunSuffix,
        Layer::SimSummary,
        Layer::SimValidate,
    ];

    /// The span name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::ManifestRead => "manifest.read",
            Layer::ManifestParse => "manifest.parse",
            Layer::ManifestCompile => "manifest.compile",
            Layer::ManifestRun => "manifest.run",
            Layer::ManifestEmit => "manifest.emit",
            Layer::ManifestWrite => "manifest.write",
            Layer::FleetDerive => "fleet.derive",
            Layer::FleetOutcome => "fleet.outcome",
            Layer::FleetFold => "fleet.fold",
            Layer::FleetMerge => "fleet.merge",
            Layer::FaultsRecord => "faults.record",
            Layer::SimSnapshot => "sim.snapshot",
            Layer::SimBuild => "sim.build",
            Layer::SimRestore => "sim.restore",
            Layer::SimRun => "sim.run",
            Layer::SimRunPrefix => "sim.run.prefix",
            Layer::SimRunSuffix => "sim.run.suffix",
            Layer::SimSummary => "sim.summary",
            Layer::SimValidate => "sim.validate",
        }
    }

    /// The layer whose span encloses this one's, if any.
    fn parent(self) -> Option<Layer> {
        (self == Layer::SimSnapshot).then_some(Layer::FaultsRecord)
    }

    /// Called once per operation (as opposed to once per run).
    fn per_op(self) -> bool {
        !matches!(
            self,
            Layer::FleetMerge | Layer::FaultsRecord | Layer::SimSnapshot
        )
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    index: u64,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Collected {
    total_ns: [u64; LAYERS],
    /// `(operation index, attributed ns)`; an operation timed in two
    /// phases appears twice.
    op_ns: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Collected {
    fn absorb(&mut self, other: Collected) {
        for (total, ns) in self.total_ns.iter_mut().zip(other.total_ns) {
            *total += ns;
        }
        self.op_ns.extend(other.op_ns);
        self.spans.extend(other.spans);
    }
}

/// One traced run's spans, shared by its worker threads.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    sample_every: u64,
    collected: Mutex<Collected>,
}

impl Trace {
    /// An empty trace keeping spans for every `sample_every`-th
    /// operation.
    #[must_use]
    pub fn new(sample_every: u64) -> Trace {
        Trace {
            origin: Instant::now(),
            sample_every: sample_every.max(1),
            collected: Mutex::new(Collected::default()),
        }
    }

    /// A recorder for worker `thread`; hand it back with
    /// [`Tracer::finish`].
    #[must_use]
    pub fn tracer(&self, thread: usize) -> Tracer<'_> {
        Tracer {
            trace: self,
            thread,
            own: Collected::default(),
            op: None,
        }
    }

    fn collected(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.collected
            .lock()
            .expect("a tracer thread panicked while handing over its spans")
    }

    /// The per-layer aggregates.
    #[must_use]
    pub fn totals(&self) -> Totals {
        let collected = self.collected();
        let mut ops = collected.op_ns.clone();
        ops.sort_unstable();
        let mut op_ns: Vec<u64> = Vec::with_capacity(ops.len());
        let mut last = None;
        for (index, ns) in ops {
            match (last, op_ns.last_mut()) {
                (Some(prev), Some(sum)) if prev == index => *sum += ns,
                _ => op_ns.push(ns),
            }
            last = Some(index);
        }
        op_ns.sort_unstable();
        Totals {
            total_ns: collected.total_ns,
            op_ns,
        }
    }

    /// Writes every kept span to `path` as CSV, in start order. `op`
    /// names the parent of per-operation spans.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_csv(&self, path: &Path, op: &str) -> io::Result<()> {
        let mut spans = self.collected().spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.thread));
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "layer,parent,index,thread,start_ns,end_ns")?;
        for s in &spans {
            let parent = match s.layer.parent() {
                Some(p) => p.name(),
                None if s.layer.per_op() => op,
                None => "run",
            };
            writeln!(
                out,
                "{},{parent},{},{},{},{}",
                s.layer.name(),
                s.index,
                s.thread,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One thread's recorder.
#[derive(Debug)]
pub struct Tracer<'a> {
    trace: &'a Trace,
    thread: usize,
    own: Collected,
    /// The operation being timed: its index and attributed time so far.
    op: Option<(u64, u64)>,
}

impl Tracer<'_> {
    /// Times `f` as one call into `layer` on behalf of operation (or,
    /// for once-per-run layers, item) `index`.
    pub fn time<R>(&mut self, layer: Layer, index: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        let ns = nanos(end - start);
        self.own.total_ns[layer as usize] += ns;
        if layer.per_op() {
            if let Some((_, op_ns)) = &mut self.op {
                *op_ns += ns;
            }
        }
        if !layer.per_op() || index.is_multiple_of(self.trace.sample_every) {
            let origin = self.trace.origin;
            self.own.spans.push(Span {
                layer,
                index,
                thread: self.thread,
                start_ns: nanos(start - origin),
                end_ns: nanos(end - origin),
            });
        }
        result
    }

    /// Runs `f` as (one phase of) operation `index`, attributing the
    /// layer calls inside it to that operation.
    pub fn op<R>(&mut self, index: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = Some((index, 0));
        let result = f(self);
        if let Some(done) = self.op.take() {
            self.own.op_ns.push(done);
        }
        result
    }

    /// Hands this thread's records to the trace.
    pub fn finish(self) {
        self.trace.collected().absorb(self.own);
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Aggregates over every call of a traced run.
#[derive(Debug, Clone)]
pub struct Totals {
    total_ns: [u64; LAYERS],
    /// Attributed time per operation, ascending.
    op_ns: Vec<u64>,
}

impl Totals {
    /// `layer`'s self time: its spans minus its child layers' spans, ns.
    #[must_use]
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let children: u64 = Layer::ALL
            .iter()
            .filter(|l| l.parent() == Some(layer))
            .map(|&l| self.total_ns[l as usize])
            .sum();
        self.total_ns[layer as usize].saturating_sub(children) as f64
    }

    /// The median and p99 attributed time per operation, ns
    /// (nearest rank; 0 when no operation was timed).
    #[must_use]
    pub fn op_quantiles(&self) -> (f64, f64) {
        let rank = |q: f64| -> f64 {
            if self.op_ns.is_empty() {
                return 0.0;
            }
            let n = self.op_ns.len();
            let i = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            self.op_ns[i] as f64
        };
        (rank(0.5), rank(0.99))
    }
}

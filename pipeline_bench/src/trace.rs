//! In-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public API; nothing inside the program is instrumented. Every
//! span carries its op id and its parent, spans stay in memory while the run
//! measures, and the whole list is written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `spice.ac.all_nodes`; `op` for an op's root span.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: usize,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; nesting follows the begin/end call order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens the root span of op `op`; close it with [`end`](Self::end).
    pub fn begin_op(&mut self, op: usize) -> usize {
        self.op = op;
        self.begin("op")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Wall time of span `id`, milliseconds.
    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 * 1.0e-6
    }

    /// Self time per layer name, milliseconds, for every span of op `op`
    /// whose root span is `root`: each span's duration minus the time its
    /// direct children cover. The root's own self time is the op's
    /// unattributed time and is keyed `op`.
    pub fn self_times_ms(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() - root];
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            let parent = s.parent.expect("only root spans lack a parent");
            assert!(parent >= root, "span {i} belongs to an earlier op");
            child_ns[parent - root] += s.duration_ns();
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root) {
            let self_ns = s.duration_ns() - child_ns[i - root];
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1.0e-6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

//! The benchmark's own spans: recorded in memory around each public call the
//! traced mode makes into the program, written out when the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the run's epoch), the
//! span that was open when it began (its parent) and a run id — the traced
//! iteration it belongs to. A layer's self time is its span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Benchmark-side work inside a traced operation (output checks). Its time is
/// neither program time nor uncovered remainder.
pub const CHECK: &str = "bench.check";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call or operation name.
    pub name: &'static str,
    /// Traced iteration the span belongs to.
    pub run: u64,
    /// Index of this span in its tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by every thread of
    /// a run, so their spans share one clock).
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, run: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Tag the spans recorded from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// The run id spans are tagged with now.
    pub fn run(&self) -> u64 {
        self.run
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, run: self.run, id, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
}

/// Per-span self time: duration minus the durations of its direct children.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.secs();
        }
    }
    own
}

/// Check that every span closed and lies inside its parent, in the same run.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for span in spans {
        if span.end_ns < span.start_ns {
            return Err(format!("span {} `{}` ends before it starts", span.id, span.name));
        }
        if let Some(parent) = span.parent.map(|p| &spans[p]) {
            let inside = parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns;
            if !inside || parent.run != span.run {
                return Err(format!(
                    "span {} `{}` [{}, {}] run {} is not inside its parent {} `{}` [{}, {}] run {}",
                    span.id,
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    span.run,
                    parent.id,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns,
                    parent.run
                ));
            }
        }
    }
    Ok(())
}

/// Self time per (run, name), summed over the run's spans of that name.
pub fn self_by_run(spans: &[Span]) -> BTreeMap<(u64, &'static str), f64> {
    let own = self_secs(spans);
    let mut sums = BTreeMap::new();
    for (span, secs) in spans.iter().zip(own) {
        *sums.entry((span.run, span.name)).or_insert(0.0) += secs;
    }
    sums
}

/// End a traced run: every span must nest in its parent, and the spans go to
/// `<trace_dir>/<workload>-seed<seed>.jsonl`.
pub fn finish_traced(options: &crate::Options, spans: &[Span], tally: &mut crate::Tally) {
    if let Err(e) = check_nesting(spans) {
        tally.problem(e);
    }
    let path =
        options.trace_dir.join(format!("{}-seed{}.jsonl", options.workload.name(), options.seed));
    match write_jsonl(&path, spans) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
        Err(e) => tally.problem(format!("writing {}: {e}", path.display())),
    }
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.run, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_nesting_holds() {
        let mut t = Tracer::new(Instant::now());
        t.set_run(3);
        let root = t.enter("root");
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(root);
        let spans = t.spans();
        check_nesting(spans).unwrap();
        let own = self_secs(spans);
        assert!(own[0] >= 0.0 && own[0] < spans[0].secs());
        assert_eq!(own[1], spans[1].secs());
        assert!(self_by_run(spans).contains_key(&(3, "child")));
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let mut spans = vec![
            Span { name: "p", run: 0, id: 0, parent: None, start_ns: 10, end_ns: 20 },
            Span { name: "c", run: 0, id: 1, parent: Some(0), start_ns: 15, end_ns: 25 },
        ];
        assert!(check_nesting(&spans).is_err());
        spans[1].end_ns = 18;
        assert!(check_nesting(&spans).is_ok());
    }
}

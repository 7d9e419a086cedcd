//! Per-layer numbers from a traced run's spans.
//!
//! Every traced iteration has its own run id. A layer's number is the median,
//! over runs, of the run's summed self time of that layer's spans. The roots
//! that stand for a timed operation (`encrypt`, `decrypt`, `discover`, `job`)
//! give the uncovered remainder (their self time) and, against the same
//! operation's untraced wall time, the tracing overhead.

use crate::ops::{EncryptTrace, RleTally};
use crate::stats::median;
use crate::trace::{self_by_run, Span, CHECK};
use f2_core::{OverheadBreakdown, StepTimings};
use std::collections::BTreeMap;
use std::time::Duration;

/// Median over runs of each span name's per-run self time.
pub fn self_medians(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((_, name), secs) in self_by_run(spans) {
        per_name.entry(name).or_default().push(secs);
    }
    per_name.into_iter().map(|(name, runs)| (name, median(&runs))).collect()
}

/// Durations, in ms, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e3).collect()
}

/// Accounting of the roots that stand for timed operations.
#[derive(Debug, Default)]
pub struct Roots {
    /// Program wall time of each traced operation (root duration minus its
    /// output checks), by root name.
    pub walls: BTreeMap<&'static str, Vec<f64>>,
    /// Median over runs of the roots' summed self time: time inside an
    /// operation that no layer span covers.
    pub uncovered_s: f64,
    /// Median over runs of uncovered time over program wall time.
    pub uncovered_frac: f64,
}

/// Account for the root spans named in `names`.
pub fn roots(spans: &[Span], names: &[&str]) -> Roots {
    let mut check_secs = vec![0.0; spans.len()];
    let mut child_secs = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_secs[parent] += span.secs();
            if span.name == CHECK {
                check_secs[parent] += span.secs();
            }
        }
    }
    let mut out = Roots::default();
    let mut per_run: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent.is_none() && names.contains(&s.name)) {
        let program = span.secs() - check_secs[span.id];
        out.walls.entry(span.name).or_default().push(program);
        let entry = per_run.entry(span.run).or_default();
        entry.0 += span.secs() - child_secs[span.id];
        entry.1 += program;
    }
    let uncovered: Vec<f64> = per_run.values().map(|(own, _)| *own).collect();
    let fracs: Vec<f64> = per_run.values().map(|(own, program)| own / program).collect();
    out.uncovered_s = median(&uncovered);
    out.uncovered_frac = median(&fracs);
    out
}

/// Tracing overhead: the traced operations' median program wall time against
/// the untraced operations' median wall time, summed over operations, minus 1.
pub fn overhead(
    traced: &BTreeMap<&'static str, Vec<f64>>,
    untraced: &BTreeMap<&'static str, Vec<f64>>,
) -> f64 {
    let (mut t, mut u) = (0.0, 0.0);
    for (name, walls) in untraced {
        if let Some(traced_walls) = traced.get(name) {
            t += median(traced_walls);
            u += median(walls);
        }
    }
    t / u - 1.0
}

/// Median number of spans per run.
pub fn spans_per_run(spans: &[Span]) -> f64 {
    let mut counts: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans {
        *counts.entry(span.run).or_default() += 1.0;
    }
    median(&counts.into_values().collect::<Vec<_>>())
}

/// The encryption-layer numbers of the traced encryption passes: the four F²
/// steps from the chunks' reports, and `core.assemble_s` — the rest of
/// `core.encrypt` (cell encryption and assembly) — per run.
pub fn encrypt_steps(spans: &[Span], passes: &[EncryptTrace]) -> Vec<(&'static str, f64)> {
    let step = |f: fn(&StepTimings) -> Duration| {
        median(&passes.iter().map(|p| f(&p.steps).as_secs_f64()).collect::<Vec<_>>())
    };
    let by_run = self_by_run(spans);
    let assemble: Vec<f64> = passes
        .iter()
        .filter_map(|p| {
            by_run.get(&(p.run, "core.encrypt")).map(|total| total - p.steps.total().as_secs_f64())
        })
        .collect();
    vec![
        ("core.max_s", step(|s| s.max)),
        ("core.sse_s", step(|s| s.sse)),
        ("core.syn_s", step(|s| s.syn)),
        ("core.fp_s", step(|s| s.fp)),
        ("core.assemble_s", median(&assemble)),
    ]
}

/// Artificial rows by step and the MAS count, as printed.
pub fn row_counts(overhead: &OverheadBreakdown, mas_count: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("core.group_rows", overhead.group_rows as f64),
        ("core.scale_rows", overhead.scale_rows as f64),
        ("core.syn_rows", overhead.syn_rows as f64),
        ("core.fp_rows", overhead.fp_rows as f64),
        ("core.mas_count", mas_count as f64),
    ]
}

/// The layer numbers every traced workload derives the same way from its spans.
pub fn common(
    spans: &[Span],
    rle: RleTally,
    roots: &Roots,
    untraced: &BTreeMap<&'static str, Vec<f64>>,
) -> Vec<(&'static str, f64)> {
    let layer = self_medians(spans);
    let get = |name: &str| layer.get(name).copied().unwrap_or(f64::NAN);
    vec![
        ("io.csv_pull_s", get("io.csv_pull")),
        ("io.frame_write_s", get("io.frame_write")),
        ("io.crc_s", get("io.crc")),
        ("io.rle_s", get("io.rle")),
        ("io.rle_saved_frac", 1.0 - rle.wire as f64 / rle.raw as f64),
        ("io.frame_read_s", get("io.frame_read")),
        ("core.encrypt_s", get("core.encrypt")),
        ("core.decrypt_s", get("core.decrypt")),
        ("engine.encode_s", get("engine.encode")),
        ("engine.decode_s", get("engine.decode")),
        ("engine.load_s", get("engine.load")),
        ("relation.index_build_s", get("relation.index_build")),
        ("fd.tane_s", get("fd.tane")),
        ("fd.tane_plain_s", get("fd.tane_plain")),
        ("trace.spans", spans_per_run(spans)),
        ("trace.uncovered_s", roots.uncovered_s),
        ("trace.uncovered_frac", roots.uncovered_frac),
        ("trace.overhead_frac", overhead(&roots.walls, untraced)),
    ]
}

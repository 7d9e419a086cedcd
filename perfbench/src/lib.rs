//! The F² benchmark: one command, three workloads, end-to-end metrics with the
//! benchmark's own tracing off, and a separate traced mode for per-layer numbers.
//!
//! * `synthetic-csv` and `orders-f2` ([`files`]): CSV file → `CsvSource` →
//!   `Engine::run_streaming` → stream file, then `decrypt_streaming` and
//!   provider-side FD discovery (`load_streamed_outcome` + `Tane::discover`)
//!   on the stream.
//! * `service-2t` ([`service`]): two tenants upload CSV-sourced jobs to an
//!   in-process `f2_server` over loopback TCP, one closed-loop client each.
//!
//! Every run checks its outputs (see [`check`]) and reports the operations it
//! attempted and the ones that failed. `NOTES.md` beside this crate records why
//! the workloads were chosen and which layer metric should move which
//! end-to-end metric.

#![forbid(unsafe_code)]

pub mod check;
pub mod files;
pub mod layers;
pub mod ops;
pub mod probe;
pub mod service;
pub mod stats;
pub mod trace;

use f2_core::{F2Scheme, F2};
use f2_crypto::MasterKey;
use f2_datagen::Dataset;
use f2_engine::{Engine, EngineConfig};
use f2_relation::Table;
use probe::Probes;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Rows per chunk for every workload (the engine's and the service's).
pub const CHUNK_ROWS: usize = 512;
/// The split factor ϖ for every workload.
pub const SPLIT_FACTOR: usize = 2;
/// Generator seed of every dataset (the generators' own default). The data is
/// fixed; `--seed` varies the owner's keys, nonce streams and chunk seeds. On
/// Orders, varying the data moves the artificial-row count, and with it every
/// timing, by more across seeds than any bound allows (see `NOTES.md`).
pub const DATA_SEED: u64 = 42;

/// The end-to-end metrics every untraced run prints, in order, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("encrypt_mb_s", "MB/s"),
    ("decrypt_mb_s", "MB/s"),
    ("fd_discovery_s", "s"),
    ("append_p50_ms", "ms"),
    ("append_p99_ms", "ms"),
    ("output_rows_x", "ratio"),
    ("stream_bytes_x", "ratio"),
    ("fd_false_pos", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, in order, with units. A layer
/// that does not run on a workload reports 0 (the server layer outside
/// `service-2t`).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("io.csv_pull_s", "s"),
    ("io.frame_write_s", "s"),
    ("io.crc_s", "s"),
    ("io.rle_s", "s"),
    ("io.rle_saved_frac", "ratio"),
    ("io.frame_read_s", "s"),
    ("core.encrypt_s", "s"),
    ("core.max_s", "s"),
    ("core.sse_s", "s"),
    ("core.syn_s", "s"),
    ("core.fp_s", "s"),
    ("core.assemble_s", "s"),
    ("core.decrypt_s", "s"),
    ("core.group_rows", "count"),
    ("core.scale_rows", "count"),
    ("core.syn_rows", "count"),
    ("core.fp_rows", "count"),
    ("core.mas_count", "count"),
    ("engine.encode_s", "s"),
    ("engine.decode_s", "s"),
    ("engine.load_s", "s"),
    ("engine.append_p50_ms", "ms"),
    ("relation.index_build_s", "s"),
    ("fd.tane_s", "s"),
    ("fd.tane_plain_s", "s"),
    ("crypto.aes_blocks", "count"),
    ("server.append_p50_ms", "ms"),
    ("server.tax_p50_ms", "ms"),
    ("server.proto_encode_s", "s"),
    ("server.proto_decode_s", "s"),
    ("server.requests", "count"),
    ("server.failed", "count"),
    ("trace.spans", "count"),
    ("trace.uncovered_s", "s"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthetic, 40 000 rows, α = 0.25, through the file pipeline.
    SyntheticCsv,
    /// Orders, 10 000 rows, α = 0.2, through the file pipeline.
    OrdersF2,
    /// Two tenants over loopback TCP to `f2_server`.
    Service2t,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "synthetic-csv" => Some(Workload::SyntheticCsv),
            "orders-f2" => Some(Workload::OrdersF2),
            "service-2t" => Some(Workload::Service2t),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyntheticCsv => "synthetic-csv",
            Workload::OrdersF2 => "orders-f2",
            Workload::Service2t => "service-2t",
        }
    }
}

/// Input sizes: the benchmark's own, or a small one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `NOTES.md` documents.
    Full,
    /// A few hundred rows per workload, so every workload runs in seconds.
    Smoke,
}

/// Dataset, size and α of one file-pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct FileSpec {
    /// Generated dataset.
    pub dataset: Dataset,
    /// Plaintext rows.
    pub rows: usize,
    /// F² α.
    pub alpha: f64,
}

impl Scale {
    /// The file-pipeline parameters of `workload` at this scale.
    pub fn file_spec(self, workload: Workload) -> FileSpec {
        let (dataset, full_rows, alpha) = match workload {
            Workload::OrdersF2 => (Dataset::Orders, 10_000, 0.2),
            _ => (Dataset::Synthetic, 40_000, 0.25),
        };
        let rows = match self {
            Scale::Full => full_rows,
            Scale::Smoke => 1_200,
        };
        FileSpec { dataset, rows, alpha }
    }

    /// Rows of every `service-2t` job.
    pub fn job_rows(self) -> usize {
        match self {
            Scale::Full => 10_000,
            Scale::Smoke => 1_200,
        }
    }

    /// Appends `service-2t` makes at least, whatever `--seconds` says: enough
    /// that ten samples lie beyond the p99.
    pub fn min_appends(self) -> usize {
        match self {
            Scale::Full => 1_000,
            Scale::Smoke => 10,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs and keys.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced mode (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for inputs, streams and job stores; removed at the end.
    pub work_dir: PathBuf,
    /// Where the traced mode writes its spans.
    pub trace_dir: PathBuf,
    /// The benchmark binary, started with [`probe::PROBE_FLAG`] for each probe.
    pub probe_exe: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Reported value: times and rates scaled to the reference host speed.
    pub value: f64,
    /// The value as measured, before scaling.
    pub raw: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run: the contract's last stdout line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Median probe time of the run, in seconds (`NaN` without probes).
    pub probe_s: f64,
    /// The factor times were multiplied (and rates divided) by.
    pub scale: f64,
    /// Why a check failed, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Render the single-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Render one JSON line with the probe median, the scale and every metric's
    /// unscaled value, so the program's own figures can be recovered. A run
    /// that took no probe prints `null` for its median.
    pub fn unscaled_json(&self) -> String {
        let probe_s =
            if self.probe_s.is_finite() { format!("{:?}", self.probe_s) } else { "null".into() };
        let mut out = format!(
            "{{\"probe_median_s\": {probe_s}, \"scale\": {:?}, \"unscaled\": {{",
            self.scale
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {:?}", m.name, m.raw);
        }
        out.push_str("}}");
        out
    }
}

/// Collects a run's operation counts, check failures and metric values.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation and keep its value, or count it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {error}");
                None
            }
        }
    }

    /// Record a failed output check.
    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.problems.push(message);
    }

    /// Merge another tally (from a client thread).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Finish with metrics named in `spec`, in its order; a metric missing from
    /// `values`, or one without a finite value, is a problem, and so is a
    /// failed probe. Times (units `s` and `ms`) are multiplied by the probes'
    /// scale and rates (`MB/s`) divided by it: see [`probe`] for the reference
    /// speed they are scaled to.
    pub fn finish(
        mut self,
        spec: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
        probes: &Probes,
    ) -> Outcome {
        for error in probes.errors() {
            self.problem(error.clone());
        }
        let scale = probes.scale();
        let mut metrics = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let scaled = |value: f64| match unit {
                "s" | "ms" => value * scale,
                "MB/s" => value / scale,
                _ => value,
            };
            match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, value)) if value.is_finite() => {
                    metrics.push(Metric { name, value: scaled(value), raw: value, unit })
                }
                _ => self.problem(format!("metric {name} was not measured")),
            }
        }
        Outcome {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            probe_s: probes.median(),
            scale,
            problems: self.problems,
        }
    }
}

/// Run one benchmark invocation. Inputs are generated into `work_dir`, which is
/// removed afterwards whatever the outcome (with its parent, once empty).
pub fn run(options: &Options) -> std::io::Result<Outcome> {
    if options.work_dir.exists() {
        std::fs::remove_dir_all(&options.work_dir)?;
    }
    std::fs::create_dir_all(&options.work_dir)?;
    let outcome = match options.workload {
        Workload::Service2t => service::run(options),
        _ => files::run(options),
    };
    let cleanup = std::fs::remove_dir_all(&options.work_dir);
    // The parent stays while another run still uses it.
    if let Some(parent) = options.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = outcome?;
    cleanup?;
    Ok(outcome)
}

/// Derive an independent 64-bit seed for `purpose` from the workload seed
/// (splitmix64 finaliser), so datasets, keys and nonces never share a stream.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Megabytes (10⁶ bytes) per second.
pub fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// The process's peak resident set (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The `f2_crypto_aes_blocks_total` counter, read from the process registry.
pub fn aes_blocks() -> f64 {
    let text = f2_obs::global().prometheus_string();
    f2_obs::MetricsSnapshot::parse(&text).total("f2_crypto_aes_blocks_total")
}

/// A data owner: F² parameters and keys, all derived from one seed.
#[derive(Debug, Clone, Copy)]
pub struct Owner {
    /// F² α.
    pub alpha: f64,
    /// Seed the owner's RNG seed, master key and engine seed derive from.
    pub seed: u64,
}

impl Owner {
    /// Build the owner's scheme (split factor [`SPLIT_FACTOR`]).
    pub fn scheme(&self) -> F2Scheme {
        F2::builder()
            .alpha(self.alpha)
            .split_factor(SPLIT_FACTOR)
            .seed(derive_seed(self.seed, 1))
            .master_key(MasterKey::from_seed(derive_seed(self.seed, 2)))
            .build()
            .expect("the benchmark's α and split factor are valid")
    }

    /// The engine seed every chunk seed derives from.
    pub fn engine_seed(&self) -> u64 {
        derive_seed(self.seed, 3)
    }

    /// Build the owner's streaming engine ([`CHUNK_ROWS`]-row chunks).
    pub fn engine(&self) -> Engine {
        Engine::new(EngineConfig { workers: 1, chunk_rows: CHUNK_ROWS, seed: self.engine_seed() })
            .expect("the benchmark's engine configuration is valid")
    }
}

/// Generate `rows` rows of `dataset` and write them as CSV to `path`.
pub fn write_input(
    dataset: Dataset,
    rows: usize,
    seed: u64,
    path: &Path,
) -> std::io::Result<Table> {
    let table = dataset.generate(rows, seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    f2_relation::csv::write_csv(&table, &mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(table)
}

//! The file-pipeline workloads, `synthetic-csv` and `orders-f2`: a CSV file
//! streamed through `Engine::run_streaming` into a stream file, which is then
//! decrypted with `decrypt_streaming` and handed to provider-side FD discovery.
//!
//! A timed iteration runs encrypt, decrypt and discover once each, then a few
//! bare set-ups; iterations repeat until `--seconds` have passed, so a slow
//! stretch of the host lands on every metric alike.

use crate::check::FdGate;
use crate::layers;
use crate::ops::{self, err, open_csv};
use crate::probe::Probes;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{
    aes_blocks, mb_per_s, peak_rss_mb, write_input, Options, Outcome, Owner, Tally, DATA_SEED,
    END_TO_END, PER_LAYER,
};
use f2_core::F2Scheme;
use f2_engine::stream::StreamOutcome;
use f2_io::{IoResult, RowSource, TableChunk};
use f2_relation::{Schema, Table};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;

/// Iterations a run makes even when `--seconds` has already passed.
const MIN_ITERATIONS: usize = 2;
/// Bare set-ups after each iteration, so the set-up median has enough samples.
const SETUP_REPEATS: usize = 8;

/// One file workload's inputs and owner.
struct Workload {
    table: Table,
    csv: PathBuf,
    plain_bytes: usize,
    gate: FdGate,
    owner: Owner,
    stream: PathBuf,
}

/// Run `synthetic-csv` or `orders-f2`.
pub fn run(options: &Options) -> std::io::Result<Outcome> {
    let spec = options.scale.file_spec(options.workload);
    let csv = options.work_dir.join("input.csv");
    let table = write_input(spec.dataset, spec.rows, DATA_SEED, &csv)?;
    let w = Workload {
        plain_bytes: table.size_bytes(),
        gate: FdGate::new(&table),
        table,
        csv,
        owner: Owner { alpha: spec.alpha, seed: options.seed },
        stream: options.work_dir.join("stream.f2ws"),
    };
    Ok(if options.trace { traced(options, &w) } else { timed(options, &w) })
}

/// A `RowSource` wrapper that times each chunk from the moment it is handed to
/// the engine until the engine asks for the next one, i.e. until it is framed.
struct HandOff<S> {
    inner: S,
    handed: Option<Instant>,
    intervals_ms: Vec<f64>,
}

impl<S: RowSource> RowSource for HandOff<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableChunk<'_>>> {
        if let Some(handed) = self.handed.take() {
            self.intervals_ms.push(handed.elapsed().as_secs_f64() * 1e3);
        }
        let chunk = self.inner.next_chunk(max_rows)?;
        if chunk.is_some() {
            self.handed = Some(Instant::now());
        }
        Ok(chunk)
    }
}

/// One timed `run_streaming`.
struct Encrypted {
    scheme: F2Scheme,
    setup_s: f64,
    secs: f64,
    intervals_ms: Vec<f64>,
    out: StreamOutcome,
}

/// Set up (scheme, engine, CSV source) and stream the CSV into the stream file.
fn encrypt(w: &Workload) -> Result<Encrypted, String> {
    let start = Instant::now();
    let scheme = w.owner.scheme();
    let engine = w.owner.engine();
    let opened = Instant::now();
    let source = open_csv(&w.csv)?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut source = HandOff { inner: source, handed: None, intervals_ms: Vec::new() };
    let sink = BufWriter::new(File::create(&w.stream).map_err(err)?);
    let out = engine.run_streaming(&scheme, &mut source, sink).map_err(err)?;
    let secs = opened.elapsed().as_secs_f64();
    Ok(Encrypted { scheme, setup_s, secs, intervals_ms: source.intervals_ms, out })
}

/// Set-up alone: what the program needs before it can take its first row.
fn setup(w: &Workload) -> Result<f64, String> {
    let start = Instant::now();
    let scheme = w.owner.scheme();
    let engine = w.owner.engine();
    let source = open_csv(&w.csv)?;
    let secs = start.elapsed().as_secs_f64();
    drop((scheme, engine, source));
    Ok(secs)
}

/// The exact, seed-determined shape of an encryption: it must repeat on every
/// iteration.
#[derive(Debug, Clone, PartialEq)]
struct Shape {
    rows: usize,
    encrypted_rows: usize,
    bytes: u64,
}

impl Shape {
    fn of(out: &StreamOutcome) -> Shape {
        Shape { rows: out.rows, encrypted_rows: out.encrypted_rows, bytes: out.bytes_written }
    }
}

/// Checks that an exact quantity repeats on every iteration.
struct Repeats<T> {
    what: &'static str,
    first: Option<T>,
}

impl<T: PartialEq + std::fmt::Debug> Repeats<T> {
    fn new(what: &'static str) -> Self {
        Repeats { what, first: None }
    }

    fn see(&mut self, value: T, tally: &mut Tally) {
        match &self.first {
            None => self.first = Some(value),
            Some(first) if *first != value => tally.problem(format!(
                "{} changed between iterations: {first:?} then {value:?}",
                self.what
            )),
            Some(_) => {}
        }
    }
}

/// Check a decrypted stream and a discovered FD set, counting false positives.
fn judge_fds(w: &Workload, fds: &f2_fd::FdSet, false_pos: &mut Repeats<usize>, tally: &mut Tally) {
    match w.gate.judge(fds) {
        Ok(count) => false_pos.see(count, tally),
        Err(e) => tally.problem(e),
    }
}

fn timed(options: &Options, w: &Workload) -> Outcome {
    let mut tally = Tally::default();
    let (mut encrypt_s, mut decrypt_s, mut discover_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut intervals_ms) = (Vec::new(), Vec::new());
    // Hand-off times by chunk position, for the tail: a run makes about 100
    // (Orders) to 2000 (Synthetic) hand-offs, too few for the p99 of single
    // samples to repeat from run to run. Here `append_p99_ms` is the slowest
    // position's median hand-off instead: it keeps the chunks that are slow
    // because of their data and drops one-off stalls.
    let mut by_position: Vec<Vec<f64>> = Vec::new();
    let mut shape = Repeats::new("stream shape");
    let mut false_pos = Repeats::new("fd_false_pos");
    let deadline = Instant::now() + options.seconds;
    let mut probes = Probes::new(options.probe_exe.clone());
    let mut iterations = 0;
    while iterations < MIN_ITERATIONS || Instant::now() < deadline {
        iterations += 1;
        probes.take();
        let Some(enc) = tally.op("encrypt", encrypt(w)) else { continue };
        encrypt_s.push(enc.secs);
        setup_s.push(enc.setup_s);
        for (position, &ms) in enc.intervals_ms.iter().enumerate() {
            if by_position.len() <= position {
                by_position.push(Vec::new());
            }
            by_position[position].push(ms);
        }
        intervals_ms.extend(enc.intervals_ms);
        shape.see(Shape::of(&enc.out), &mut tally);
        probes.take();
        if let Some(d) = tally.op("decrypt", ops::decrypt(&enc.scheme, &w.stream, &w.table)) {
            decrypt_s.push(d.secs);
            if let Err(e) = d.check {
                tally.problem(e);
            }
        }
        probes.take();
        if let Some((secs, fds)) = tally.op("discover", ops::discover(&enc.scheme, &w.stream)) {
            discover_s.push(secs);
            judge_fds(w, &fds, &mut false_pos, &mut tally);
        }
        for _ in 0..SETUP_REPEATS {
            probes.take();
            if let Some(secs) = tally.op("setup", setup(w)) {
                setup_s.push(secs);
            }
        }
    }
    let shape = shape.first;
    let values = [
        ("encrypt_mb_s", mb_per_s(w.plain_bytes, median(&encrypt_s))),
        ("decrypt_mb_s", mb_per_s(w.plain_bytes, median(&decrypt_s))),
        ("fd_discovery_s", median(&discover_s)),
        ("append_p50_ms", median(&intervals_ms)),
        ("append_p99_ms", by_position.iter().map(|s| median(s)).fold(f64::NAN, f64::max)),
        (
            "output_rows_x",
            shape.as_ref().map_or(f64::NAN, |s| s.encrypted_rows as f64 / s.rows as f64),
        ),
        (
            "stream_bytes_x",
            shape.as_ref().map_or(f64::NAN, |s| s.bytes as f64 / w.plain_bytes as f64),
        ),
        ("fd_false_pos", false_pos.first.map_or(f64::NAN, |n| n as f64)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    eprintln!(
        "perfbench: {} iterations, {} chunk hand-offs, {} set-ups, probe median {:.6} s",
        iterations,
        intervals_ms.len(),
        setup_s.len(),
        probes.median()
    );
    tally.finish(&END_TO_END, &values, &probes)
}

fn traced(options: &Options, w: &Workload) -> Outcome {
    let mut tally = Tally::default();
    let mut tr = Tracer::new(Instant::now());
    let traced_stream = options.work_dir.join("traced.f2ws");
    let bare_store = options.work_dir.join("bare.f2ws");
    let mut untraced: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut passes, mut aes, mut bare_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut shape = Repeats::new("stream shape");
    let mut false_pos = Repeats::new("fd_false_pos");
    let mut rle = None;
    let mut probes = Probes::new(options.probe_exe.clone());
    let deadline = Instant::now() + options.seconds;
    let mut run = 0;
    while run < MIN_ITERATIONS as u64 || Instant::now() < deadline {
        tr.set_run(run);
        run += 1;
        probes.take();
        // The untraced stream is both the timing reference and the ciphertext
        // the traced pass must reproduce chunk for chunk.
        let Some(enc) = tally.op("encrypt", encrypt(w)) else { continue };
        untraced.entry("encrypt").or_default().push(enc.secs);
        shape.see(Shape::of(&enc.out), &mut tally);
        let scheme = &enc.scheme;
        let before = aes_blocks();
        let traced_enc = ops::traced_encrypt(
            &mut tr,
            scheme,
            w.owner.engine_seed(),
            &w.csv,
            &traced_stream,
            &w.stream,
        );
        let mut blocks = aes_blocks() - before;
        if let Some(pass) = tally.op("traced encrypt", traced_enc) {
            if let Some(mismatch) = &pass.mismatch {
                tally.problem(mismatch.clone());
            }
            passes.push(pass);
        }
        probes.take();
        if let Some(d) = tally.op("decrypt", ops::decrypt(scheme, &w.stream, &w.table)) {
            untraced.entry("decrypt").or_default().push(d.secs);
            if let Err(e) = d.check {
                tally.problem(e);
            }
        }
        let before = aes_blocks();
        if let Some(Err(e)) =
            tally.op("traced decrypt", ops::traced_decrypt(&mut tr, scheme, &w.stream, &w.table))
        {
            tally.problem(e);
        }
        blocks += aes_blocks() - before;
        aes.push(blocks);
        probes.take();
        if let Some((secs, fds)) = tally.op("discover", ops::discover(scheme, &w.stream)) {
            untraced.entry("discover").or_default().push(secs);
            judge_fds(w, &fds, &mut false_pos, &mut tally);
        }
        if let Some(fds) =
            tally.op("traced discover", ops::traced_discover(&mut tr, scheme, &w.stream))
        {
            judge_fds(w, &fds, &mut false_pos, &mut tally);
        }
        rle = tally.op("frame probe", ops::probe_frames(&mut tr, &w.stream)).or(rle);
        ops::traced_plain_discovery(&mut tr, &w.table);
        let engine = w.owner.engine();
        if let Some(ms) = tally
            .op("bare appends", ops::bare_appends(&mut tr, scheme, &engine, &w.csv, &bare_store))
        {
            bare_ms.extend(ms);
        }
    }
    let spans = tr.spans();
    let roots = layers::roots(spans, &["encrypt", "decrypt", "discover"]);
    let mut values = layers::common(spans, rle.unwrap_or_default(), &roots, &untraced);
    values.extend(layers::encrypt_steps(spans, &passes));
    if let Some(first) = passes.first() {
        values.extend(layers::row_counts(&first.overhead, first.mas_count));
    }
    values.extend([
        ("engine.append_p50_ms", median(&bare_ms)),
        ("crypto.aes_blocks", median(&aes)),
        // The server layer does not run on the file workloads.
        ("server.append_p50_ms", 0.0),
        ("server.tax_p50_ms", 0.0),
        ("server.proto_encode_s", 0.0),
        ("server.proto_decode_s", 0.0),
        ("server.requests", 0.0),
        ("server.failed", 0.0),
    ]);
    let mut counts = Repeats::new("artificial rows");
    for pass in &passes {
        counts.see((pass.overhead, pass.mas_count), &mut tally);
    }
    trace::finish_traced(options, spans, &mut tally);
    eprintln!("perfbench: {run} traced iterations, probe median {:.6} s", probes.median());
    tally.finish(&PER_LAYER, &values, &probes)
}

//! Operations on one encrypted stream, in two forms: timed, through the
//! program's own entry points, and traced, split into one span per public
//! call so each layer's share shows.

use crate::check::RowCursor;
use crate::trace::{Tracer, CHECK};
use crate::CHUNK_ROWS;
use f2_core::{ChunkedScheme, F2Scheme, OverheadBreakdown, Scheme, SchemeOutcome, StepTimings};
use f2_engine::persist::{decode_table, encode_table};
use f2_engine::stream::{FRAME_CHUNK, FRAME_HEADER};
use f2_engine::wire::{Reader, Writer};
use f2_engine::{chunk_seed, decrypt_streaming, load_streamed_outcome, Engine, StatefulScheme};
use f2_fd::{FdSet, Tane};
use f2_io::frame::{rle_compress, FrameReader, FrameSink};
use f2_io::{crc32, CsvOptions, CsvSource, RowSource, TableChunk};
use f2_relation::Table;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::time::{Duration, Instant};

/// Stringify any error for the operation log.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Open a CSV input the way a user would: header plus a type-inference sample.
pub fn open_csv(path: &Path) -> Result<CsvSource<BufReader<File>>, String> {
    CsvSource::open(path, CsvOptions::csv()).map_err(err)
}

/// A timed `decrypt_streaming` of a stream file.
#[derive(Debug)]
pub struct Decrypted {
    /// Seconds spent in the program (the row comparison is excluded).
    pub secs: f64,
    /// Whether the stream decrypted back to the input row for row.
    pub check: Result<(), String>,
}

/// Decrypt `stream` chunk by chunk, comparing each chunk with `expected`.
pub fn decrypt(scheme: &F2Scheme, stream: &Path, expected: &Table) -> Result<Decrypted, String> {
    let start = Instant::now();
    let reader = BufReader::new(File::open(stream).map_err(err)?);
    let mut cursor = RowCursor::new(expected);
    let mut checking = Duration::ZERO;
    decrypt_streaming(scheme, reader, |chunk| {
        let t = Instant::now();
        cursor.accept(&chunk);
        checking += t.elapsed();
        Ok(())
    })
    .map_err(err)?;
    let secs = (start.elapsed() - checking).as_secs_f64();
    Ok(Decrypted { secs, check: cursor.finish() })
}

/// Provider-side FD discovery on a stream file: `load_streamed_outcome` then
/// `Tane::discover` on the ciphertext. Returns the seconds and the FD set.
pub fn discover(scheme: &F2Scheme, stream: &Path) -> Result<(f64, FdSet), String> {
    let start = Instant::now();
    let reader = BufReader::new(File::open(stream).map_err(err)?);
    let (outcome, _) = load_streamed_outcome(scheme, reader).map_err(err)?;
    let fds = Tane::new().discover(&outcome.encrypted);
    let secs = start.elapsed().as_secs_f64();
    drop(outcome);
    Ok((secs, fds))
}

/// The chunk frames of a stream. Knows the engine's chunk-frame payload
/// layout: the chunk record (five `usize` row bounds and index, one `u64`
/// seed), then the owner-state blob and the encoded ciphertext table.
pub struct ChunkFrames<R: Read> {
    frames: FrameReader<R>,
}

impl ChunkFrames<BufReader<File>> {
    /// Open a stream file and read its preamble.
    pub fn open(path: &Path) -> Result<Self, String> {
        let file = File::open(path).map_err(err)?;
        Ok(ChunkFrames { frames: FrameReader::new(BufReader::new(file)).map_err(err)? })
    }
}

impl<R: Read> ChunkFrames<R> {
    /// The next chunk frame's payload, skipping the header; `None` once the
    /// chunk frames are over.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, String> {
        loop {
            match self.frames.next_frame().map_err(err)? {
                Some(frame) if frame.frame_type == FRAME_HEADER => continue,
                Some(frame) if frame.frame_type == FRAME_CHUNK => return Ok(Some(frame.payload)),
                _ => return Ok(None),
            }
        }
    }
}

/// The engine seed a stream was written under, read from its header frame
/// (scheme name, then the seed).
pub fn stream_seed(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(err)?;
    let mut frames = FrameReader::new(BufReader::new(file)).map_err(err)?;
    match frames.next_frame().map_err(err)? {
        Some(frame) if frame.frame_type == FRAME_HEADER => {
            let mut r = Reader::raw(&frame.payload);
            r.str().map_err(err)?;
            r.u64().map_err(err)
        }
        _ => Err(format!("{} does not start with a header frame", path.display())),
    }
}

/// Split a chunk-frame payload into its owner-state blob and encoded table.
pub fn split_chunk(payload: &[u8]) -> Result<(&[u8], &[u8]), String> {
    let mut r = Reader::raw(payload);
    for _ in 0..5 {
        r.usize().map_err(err)?;
    }
    r.u64().map_err(err)?;
    let state = r.bytes().map_err(err)?;
    let table = r.bytes().map_err(err)?;
    r.finish().map_err(err)?;
    Ok((state, table))
}

/// What a traced encryption pass saw.
#[derive(Debug, Default)]
pub struct EncryptTrace {
    /// The tracer's run id during the pass.
    pub run: u64,
    /// Step timings summed over the chunks' encryption reports.
    pub steps: StepTimings,
    /// Artificial rows by step, summed over the chunks' reports.
    pub overhead: OverheadBreakdown,
    /// MASs found, summed over the chunks' reports.
    pub mas_count: usize,
    /// The traced ciphertext differs from the reference stream's.
    pub mismatch: Option<String>,
}

/// Encrypt a CSV file chunk by chunk through the public calls `run_streaming`
/// makes — pull, `reseeded(chunk_seed(seed, i)).encrypt`, `save_state` +
/// `encode_table`, `write_frame` — with a span around each, writing frames to
/// `out`. Each chunk's encoded ciphertext must equal the same chunk of
/// `reference`, the untraced stream of the same input under the same seeds.
pub fn traced_encrypt(
    tr: &mut Tracer,
    scheme: &F2Scheme,
    engine_seed: u64,
    csv: &Path,
    out: &Path,
    reference: &Path,
) -> Result<EncryptTrace, String> {
    let root = tr.enter("encrypt");
    let result = traced_encrypt_body(tr, scheme, engine_seed, csv, out, reference);
    tr.exit(root);
    result
}

fn traced_encrypt_body(
    tr: &mut Tracer,
    scheme: &F2Scheme,
    engine_seed: u64,
    csv: &Path,
    out: &Path,
    reference: &Path,
) -> Result<EncryptTrace, String> {
    let mut source = tr.time("io.csv_open", || open_csv(csv))?;
    let mut sink = tr.time("io.frame_write", || {
        FrameSink::new(BufWriter::new(File::create(out).map_err(err)?)).map_err(err)
    })?;
    let mut reference = tr.time(CHECK, || ChunkFrames::open(reference))?;
    let mut trace = EncryptTrace { run: tr.run(), ..EncryptTrace::default() };
    let mut index = 0u64;
    loop {
        let Some(chunk) = tr.time("io.csv_pull", || source.next_chunk(CHUNK_ROWS)).map_err(err)?
        else {
            break;
        };
        let outcome = tr
            .time("core.encrypt", || {
                let reseeded = scheme.reseeded(chunk_seed(engine_seed, index));
                match &chunk {
                    TableChunk::Owned(table) => reseeded.encrypt(table),
                    TableChunk::Borrowed(view) => reseeded.encrypt_view(view),
                }
            })
            .map_err(err)?;
        let report = &outcome.report;
        trace.steps.max += report.timings.max;
        trace.steps.sse += report.timings.sse;
        trace.steps.syn += report.timings.syn;
        trace.steps.fp += report.timings.fp;
        trace.overhead.original_rows += report.overhead.original_rows;
        trace.overhead.group_rows += report.overhead.group_rows;
        trace.overhead.scale_rows += report.overhead.scale_rows;
        trace.overhead.syn_rows += report.overhead.syn_rows;
        trace.overhead.fp_rows += report.overhead.fp_rows;
        trace.mas_count += report.mas_count;
        let (payload, ciphertext) = tr.time("engine.encode", || -> Result<_, String> {
            let state = scheme.save_state(&outcome).map_err(err)?;
            let ciphertext = encode_table(&outcome.encrypted);
            let mut w = Writer::raw();
            w.put_bytes(&state);
            w.put_bytes(&ciphertext);
            Ok((w.finish(), ciphertext))
        })?;
        tr.time("io.frame_write", || sink.write_frame(FRAME_CHUNK, &payload)).map_err(err)?;
        tr.time(CHECK, || {
            let same = match reference.next_payload() {
                Ok(Some(p)) => {
                    split_chunk(&p).is_ok_and(|(_, table)| table == ciphertext.as_slice())
                }
                _ => false,
            };
            if !same && trace.mismatch.is_none() {
                trace.mismatch =
                    Some(format!("traced chunk {index} differs from the untraced stream's"));
            }
        });
        index += 1;
    }
    tr.time("io.frame_write", || sink.finish()).map_err(err)?;
    if !matches!(tr.time(CHECK, || reference.next_payload()), Ok(None)) && trace.mismatch.is_none()
    {
        trace.mismatch = Some("the untraced stream has more chunks than the traced pass".into());
    }
    Ok(trace)
}

/// Decrypt a stream file frame by frame through the public calls
/// `decrypt_streaming` makes — `next_frame`, `decode_table` + `load_state`,
/// `Scheme::decrypt` — with a span around each. Returns the row check.
pub fn traced_decrypt(
    tr: &mut Tracer,
    scheme: &F2Scheme,
    stream: &Path,
    expected: &Table,
) -> Result<Result<(), String>, String> {
    let root = tr.enter("decrypt");
    let result = traced_decrypt_body(tr, scheme, stream, expected);
    tr.exit(root);
    result
}

fn traced_decrypt_body(
    tr: &mut Tracer,
    scheme: &F2Scheme,
    stream: &Path,
    expected: &Table,
) -> Result<Result<(), String>, String> {
    let mut frames = tr.time("io.frame_read", || ChunkFrames::open(stream))?;
    let mut cursor = RowCursor::new(expected);
    while let Some(payload) = tr.time("io.frame_read", || frames.next_payload())? {
        let outcome = tr.time("engine.decode", || -> Result<SchemeOutcome, String> {
            let (state, table) = split_chunk(&payload)?;
            Ok(SchemeOutcome {
                encrypted: decode_table(table).map_err(err)?,
                state: scheme.load_state(state).map_err(err)?,
                report: Default::default(),
            })
        })?;
        let plain = tr.time("core.decrypt", || scheme.decrypt(&outcome)).map_err(err)?;
        tr.time(CHECK, || cursor.accept(&plain));
    }
    Ok(cursor.finish())
}

/// Provider-side discovery with a span around `load_streamed_outcome`, the
/// ciphertext's columnar index build, and `Tane::discover`.
pub fn traced_discover(tr: &mut Tracer, scheme: &F2Scheme, stream: &Path) -> Result<FdSet, String> {
    let root = tr.enter("discover");
    let loaded = tr.time("engine.load", || {
        let reader = BufReader::new(File::open(stream).map_err(err)?);
        load_streamed_outcome(scheme, reader).map_err(err)
    });
    let result = loaded.map(|(outcome, _)| {
        tr.time("relation.index_build", || {
            black_box(outcome.encrypted.columnar());
        });
        let fds = tr.time("fd.tane", || Tane::new().discover(&outcome.encrypted));
        (fds, outcome)
    });
    tr.exit(root);
    // The ciphertext table is freed outside the span.
    result.map(|(fds, _)| fds)
}

/// Bytes the frame layer's RLE attempt saw and kept.
#[derive(Debug, Default, Clone, Copy)]
pub struct RleTally {
    /// Chunk payload bytes before compression.
    pub raw: u64,
    /// Bytes after compression (raw where RLE did not help).
    pub wire: u64,
}

/// Re-run the frame layer's per-payload work — `rle_compress`, then `crc32`
/// over what would go on the wire — on every chunk payload of a stream, with a
/// span around each call. `FrameSink::write_frame` does the same internally,
/// so these spans break `io.frame_write` down; they are not extra work of the
/// program.
pub fn probe_frames(tr: &mut Tracer, stream: &Path) -> Result<RleTally, String> {
    let root = tr.enter("frame_probe");
    let result = (|| {
        let mut frames = ChunkFrames::open(stream)?;
        let mut tally = RleTally::default();
        while let Some(payload) = frames.next_payload()? {
            let packed = tr.time("io.rle", || rle_compress(black_box(&payload)));
            let wire = packed.as_deref().unwrap_or(&payload);
            tr.time("io.crc", || black_box(crc32(black_box(wire))));
            tally.raw += payload.len() as u64;
            tally.wire += wire.len() as u64;
        }
        Ok(tally)
    })();
    tr.exit(root);
    result
}

/// Push a CSV file's chunks through a bare `StreamJob` (no service), timing
/// each `append_chunk`. Returns the per-append milliseconds.
pub fn bare_appends(
    tr: &mut Tracer,
    scheme: &F2Scheme,
    engine: &Engine,
    csv: &Path,
    store: &Path,
) -> Result<Vec<f64>, String> {
    let root = tr.enter("bare");
    let result = (|| {
        let mut source = open_csv(csv)?;
        let schema = source.schema().clone();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(store)
            .map_err(err)?;
        let mut job = engine.begin_job(scheme, &schema, file).map_err(err)?;
        let mut appends = Vec::new();
        while let Some(chunk) = source.next_chunk(CHUNK_ROWS).map_err(err)? {
            let start = Instant::now();
            tr.time("engine.append", || job.append_chunk(scheme, &chunk).map(|_| ()))
                .map_err(err)?;
            appends.push(start.elapsed().as_secs_f64() * 1e3);
        }
        job.finish().map_err(err)?;
        Ok(appends)
    })();
    tr.exit(root);
    result
}

/// The §5.4 local baseline: TANE on the plaintext, from a copy without a
/// cached columnar index so the span includes building it.
pub fn traced_plain_discovery(tr: &mut Tracer, plain: &Table) {
    let fresh = Table::new(plain.schema().clone(), plain.rows().to_vec())
        .expect("rows fit their own schema");
    tr.time("fd.tane_plain", || black_box(Tane::new().discover(&fresh)));
}

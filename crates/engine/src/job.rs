//! The one streaming core: [`StreamJob`], an open `F2WS` v2 stream that owns
//! its frame sink and running totals (chunk records and merged report).
//! Opening a job writes the preamble and header frame;
//! [`StreamJob::append_chunk`] encrypts chunk *i* under the seed the in-memory
//! path gives chunk *i* and appends its frame; [`StreamJob::finish`] writes the
//! trailer and end marker. Every streaming driver is this job:
//!
//! * [`Engine::run_streaming`] drives it with a pull loop over a source;
//! * [`Engine::begin_job`] truncates a [`StreamStore`] and hands the job to a
//!   caller who pushes chunks as they arrive — the shape a server needs, with
//!   rows arriving one request at a time. Chunks must be full `chunk_rows`
//!   chunks until the final short one, as on the pull path (violations are
//!   typed errors);
//! * [`Engine::resume_streaming`] and [`Engine::resume_job`] reopen it after
//!   the intact prefix of an interrupted stream ([`crate::resume`]);
//!   `resume_job` needs no source, and the caller re-sends rows from
//!   [`StreamJob::rows`] onward.
//!
//! So pushed, pulled, and resumed streams over the same rows, scheme, and
//! engine configuration are **byte-identical**. A failed frame write may leave
//! a torn frame behind, so from then on the job refuses to append or finish
//! ([`F2Error::TornStream`]) until [`Engine::resume_job`] reopens the store; a
//! chunk refused before any byte is written (wrong size, encryption error)
//! leaves the job usable. `f2_server` builds its crash-resumable job sessions
//! on this.

use crate::persist::StatefulScheme;
use crate::pipeline::{adopt, encrypt_chunk, ChunkRecord, Engine};
use crate::stream::{
    pull, ChunkPayload, StreamHeader, StreamOutcome, Trailer, FRAME_CHUNK, FRAME_HEADER,
    FRAME_TRAILER,
};
use f2_core::{ChunkedScheme, EncryptionReport, F2Error, Result};
use f2_io::frame::FrameSink;
use f2_io::{IoError, RetryPolicy, RetryingWriter, RowSource, StreamStore, TableChunk};
use f2_relation::Schema;
use std::io::{Seek, SeekFrom, Write};

/// An open encryption stream over a writer — for the push model, a
/// [`StreamStore`].
///
/// Created by [`Engine::begin_job`] or [`Engine::resume_job`]; see the
/// [module docs](self) for the contract. The job owns the writer (through the
/// engine's retrying writer) until [`StreamJob::finish`] closes the stream.
pub struct StreamJob<W: Write> {
    seed: u64,
    chunk_rows: usize,
    sink: FrameSink<RetryingWriter<W>>,
    chunks: Vec<ChunkRecord>,
    report: EncryptionReport,
    /// Set once a frame write failed: the writer may end in a torn frame.
    torn: bool,
}

impl<W: Write> std::fmt::Debug for StreamJob<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamJob")
            .field("chunk_rows", &self.chunk_rows)
            .field("rows", &self.rows())
            .field("encrypted_rows", &self.encrypted_rows())
            .field("chunks", &self.chunks.len())
            .field("bytes_written", &self.sink.bytes_written())
            .field("torn", &self.torn)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Start a fresh push-model stream in `store` (truncating whatever it
    /// held), writing the preamble and header frame for `scheme` and `schema`.
    /// The header pins the engine seed and `chunk_rows`, exactly as
    /// [`Engine::run_streaming`] writes it.
    pub fn begin_job<S, T>(&self, scheme: &S, schema: &Schema, mut store: T) -> Result<StreamJob<T>>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        T: StreamStore,
    {
        truncate(&mut store, 0)?;
        self.begin(scheme, schema, store)
    }

    /// Reopen an interrupted push-model stream in `store`, returning a job
    /// positioned after the last intact chunk frame; everything past it
    /// (torn bytes, or the trailer of a finished stream) is truncated away.
    /// The caller continues by appending rows from [`StreamJob::rows`] onward
    /// — appends then produce a stream byte-identical to an uninterrupted one.
    ///
    /// A store torn before its first chunk frame starts over from scratch
    /// (exactly [`Engine::begin_job`]); a readable header that contradicts the
    /// scheme, engine configuration, or `schema` is an error, not damage. No
    /// source is needed: the prefix chunks' plaintext is decrypted from the
    /// store, and F²'s re-encryption must CRC-match the stored frames, which
    /// catches a store/key mismatch before any new bytes are written (see
    /// [`crate::resume`]).
    pub fn resume_job<S, T>(&self, scheme: &S, schema: &Schema, store: T) -> Result<StreamJob<T>>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        T: StreamStore,
    {
        self.reopen(scheme, schema, store, None)
    }

    /// Open a stream in `writer` — preamble and header frame — as a job at
    /// chunk 0: how every driver begins.
    pub(crate) fn begin<S, W>(&self, scheme: &S, schema: &Schema, writer: W) -> Result<StreamJob<W>>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        W: Write,
    {
        if schema.arity() == 0 {
            return Err(F2Error::UnsupportedInput("schema has no attributes".into()));
        }
        // Transient write failures are absorbed *below* the frame layer: a
        // failed raw `write` is guaranteed to have written nothing, so retrying
        // it is exact, whereas retrying a whole `write_frame` could duplicate
        // the bytes a partially-successful `write_all` already pushed out.
        let mut job = self.job(FrameSink::new(self.retry_policy().writer(writer))?);
        let header = StreamHeader {
            scheme: scheme.name().into(),
            seed: self.config().seed,
            chunk_rows: self.config().chunk_rows,
            schema: schema.clone(),
        };
        job.write(FRAME_HEADER, &header.encode())?;
        Ok(job)
    }

    /// A job over `sink` with no chunks adopted yet.
    pub(crate) fn job<W: Write>(&self, sink: FrameSink<RetryingWriter<W>>) -> StreamJob<W> {
        StreamJob {
            seed: self.config().seed,
            chunk_rows: self.config().chunk_rows,
            sink,
            chunks: Vec::new(),
            report: EncryptionReport::default(),
            torn: false,
        }
    }
}

impl<W: Write> StreamJob<W> {
    /// Encrypt `chunk` and append its frame, returning the chunk's provenance
    /// record. The pull path's invariants apply: every chunk must hold
    /// `1..=chunk_rows` rows, and a short chunk must be the stream's last —
    /// an append after a short chunk is a typed error, never silent damage.
    pub fn append_chunk<S>(&mut self, scheme: &S, chunk: &TableChunk<'_>) -> Result<&ChunkRecord>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
    {
        self.intact()?;
        let chunk_len = chunk.row_count();
        let chunk_rows = self.chunk_rows;
        if chunk_len == 0 || chunk_len > chunk_rows {
            return Err(F2Error::UnsupportedInput(format!(
                "source produced a {chunk_len}-row chunk (expected 1..={chunk_rows})"
            )));
        }
        if self.chunks.last().is_some_and(|prev| prev.rows.len() != chunk_rows) {
            return Err(F2Error::UnsupportedInput(
                "source produced a short chunk before the final one \
                 (chunk boundaries would diverge from the in-memory path)"
                    .into(),
            ));
        }
        let encrypted = encrypt_chunk(scheme, self.seed, self.chunks.len(), chunk)?;
        let record = encrypted.record(&self.chunks, 0);
        let payload = {
            let _serialize = f2_obs::span!("engine.chunk.serialize");
            let state = scheme.save_state(&encrypted.outcome)?;
            ChunkPayload::encode(&record, &state, &encrypted.outcome.encrypted)
        };
        {
            let _write = f2_obs::span!("engine.chunk.write");
            self.write(FRAME_CHUNK, &payload)?;
        }
        crate::obs::chunk_encrypted(chunk_len, record.output_rows.len(), record.wall);
        // Attribute this chunk's volume to the active request trace, if any (the
        // server runs each request under one); no-ops otherwise.
        f2_obs::ctx::add_count("rows", chunk_len as u64);
        f2_obs::ctx::add_count("encrypted_rows", record.output_rows.len() as u64);
        f2_obs::ctx::add_count("chunk_bytes", payload.len() as u64);
        f2_obs::trace_event(
            "engine.chunk",
            &[
                ("index", record.index as u64),
                ("rows", chunk_len as u64),
                ("encrypted_rows", record.output_rows.len() as u64),
                ("stream_bytes", self.sink.bytes_written()),
            ],
        );
        adopt(&mut self.chunks, &mut self.report, record, &encrypted.outcome.report);
        self.chunks
            .last()
            .ok_or_else(|| F2Error::UnsupportedInput("chunk was encoded but not recorded".into()))
        // `encrypted` (the only live copy of the chunk's ciphertext) drops here.
    }

    /// Write the trailer and end marker, close the stream, and report the
    /// totals — identical in content to [`Engine::run_streaming`]'s outcome.
    pub fn finish(self) -> Result<StreamOutcome> {
        self.finish_into_store().map(|(outcome, _)| outcome)
    }

    /// Like [`StreamJob::finish`], but also hand the store back — for callers
    /// that need to sync, inspect, or reuse it after the stream closes.
    pub fn finish_into_store(mut self) -> Result<(StreamOutcome, W)> {
        self.intact()?;
        let trailer = Trailer {
            chunks: self.chunks.len(),
            rows: self.rows(),
            encrypted_rows: self.encrypted_rows(),
            report: std::mem::take(&mut self.report),
        };
        self.write(FRAME_TRAILER, &trailer.encode())?;
        let (writer, bytes_written) = self.sink.finish()?;
        crate::obs::stream_bytes_total().add(bytes_written);
        let Trailer { rows, encrypted_rows, report, .. } = trailer;
        let outcome =
            StreamOutcome { chunks: self.chunks, rows, encrypted_rows, bytes_written, report };
        Ok((outcome, writer.into_inner()))
    }

    /// Plaintext rows encrypted so far — the row index the next append's
    /// chunk must start at (and the resume point a reconnecting client
    /// re-sends from).
    pub fn rows(&self) -> usize {
        self.chunks.last().map_or(0, |last| last.rows.end)
    }

    /// Encrypted rows written so far (padding rows included).
    pub fn encrypted_rows(&self) -> usize {
        self.chunks.last().map_or(0, |last| last.output_rows.end)
    }

    /// Index the next appended chunk will occupy.
    pub fn next_chunk_index(&self) -> usize {
        self.chunks.len()
    }

    /// Provenance of the chunks written so far, in order.
    pub fn chunks(&self) -> &[ChunkRecord] {
        &self.chunks
    }

    /// The stream's pinned chunk size.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Stream bytes written so far, preamble and frame headers included.
    pub fn bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// Append every chunk `source` still holds, then finish: the pull loop of
    /// [`Engine::run_streaming`] and [`Engine::resume_streaming`]. Each pulled
    /// chunk — the only live copy of its plaintext — drops before the next
    /// pull.
    pub(crate) fn drain<S>(
        mut self,
        scheme: &S,
        source: &mut dyn RowSource,
        retry: &RetryPolicy,
    ) -> Result<StreamOutcome>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
    {
        loop {
            let appended = pull(source, retry, self.chunk_rows, true, |chunk| match chunk {
                Some(chunk) => self.append_chunk(scheme, &chunk).map(|_| true),
                None => Ok(false),
            })?;
            if !appended {
                return self.finish();
            }
        }
    }

    /// Adopt a replayed prefix: `records`, in order, with the reports the
    /// replay rebuilt for them. No chunk metric moves — these chunks were
    /// counted when they were first encrypted.
    pub(crate) fn adopt_prefix(&mut self, records: Vec<ChunkRecord>, reports: &[EncryptionReport]) {
        for (record, report) in records.into_iter().zip(reports) {
            adopt(&mut self.chunks, &mut self.report, record, report);
        }
    }

    /// Refuse to go on after a failed frame write (see the [module docs](self)).
    fn intact(&self) -> Result<()> {
        if self.torn {
            return Err(F2Error::TornStream { chunk: self.chunks.len() });
        }
        Ok(())
    }

    /// Write one frame. An I/O failure may have landed part of the frame, so
    /// it tears the job; an oversized payload is refused before any byte is
    /// written.
    fn write(&mut self, frame_type: u8, payload: &[u8]) -> Result<()> {
        self.sink.write_frame(frame_type, payload).map_err(|error| {
            self.torn |= matches!(error, IoError::Io(_));
            F2Error::from(error)
        })
    }
}

fn io_err(error: std::io::Error) -> F2Error {
    F2Error::from(IoError::Io(error))
}

/// Position `store` at byte `pos`.
pub(crate) fn seek_to<T: Seek>(store: &mut T, pos: u64) -> Result<()> {
    store.seek(SeekFrom::Start(pos)).map_err(io_err)?;
    Ok(())
}

/// Cut `store` back to its first `len` bytes and position it there.
pub(crate) fn truncate<T: StreamStore>(store: &mut T, len: u64) -> Result<()> {
    store.set_len(len).map_err(io_err)?;
    seek_to(store, len)
}

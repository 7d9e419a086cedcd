//! The `F2WS` v2 stream: its frame codec, the pull-model driver
//! [`Engine::run_streaming`], and the readers.
//!
//! lint: untrusted-input — the frame decoders below parse wire-derived, possibly
//! damaged payloads.
//!
//! Every streaming driver is one core, [`StreamJob`](crate::StreamJob), which
//! encrypts chunk *i* under the seed the in-memory path gives chunk *i* and
//! frames it. [`Engine::run_streaming`] is that job driven by a pull loop that
//! encrypts and writes each chunk before it pulls the next, so at no point
//! does more than one chunk of plaintext or ciphertext exist in memory (the
//! **single-in-flight** guarantee; the source side is equally bounded, see
//! `f2_io::CsvSource`). Because chunk seeds are a pure function of the engine
//! seed and the chunk index, the stream's chunks carry **exactly** the
//! ciphertext bytes and owner states of the in-memory path at any worker
//! count, so the two paths are interchangeable artifact-for-artifact.
//!
//! The stream layout (each item one checksummed frame, see [`f2_io::frame`]):
//!
//! ```text
//! HEADER   scheme name, engine seed, chunk_rows, plaintext schema
//! CHUNK*   ChunkRecord provenance + per-chunk owner state + encrypted chunk rows
//! TRAILER  chunk/row totals + merged encryption report
//! ```
//!
//! Each frame kind has one encoder and one decoder, below, which every writer
//! and reader goes through: the job, the readers here, resume, and salvage.
//!
//! Reading back:
//!
//! * [`load_streamed_outcome`] — reassemble the whole [`SchemeOutcome`] (table +
//!   merged owner state + report) for in-memory decryption;
//! * [`decrypt_streaming`] — decrypt **chunk by chunk**, handing each recovered
//!   plaintext chunk to a callback: constant-memory decryption for datasets that
//!   never fit in RAM (per-chunk owner states are chunk-local, so no merged state is
//!   needed);
//! * [`read_outcome`] — version-sniffing loader accepting both a v1 single-blob
//!   [`save_outcome`](crate::save_outcome) file and a v2 stream.

use crate::persist::{
    decode_table, encode_table, put_report, put_schema, take_report, take_schema, StatefulScheme,
};
use crate::pipeline::{encrypt_chunk, ChunkRecord, Engine};
use crate::wire::{Reader, Writer};
use f2_core::{ChunkState, ChunkedScheme, EncryptionReport, F2Error, Result, SchemeOutcome};
use f2_io::frame::FrameReader;
use f2_io::{sniff_version, RetryPolicy, RowSource, TableChunk};
use f2_relation::{Schema, Table};
use std::io::{Read, Write};
use std::time::Duration;

/// Frame type: the stream header (must be the first frame).
pub const FRAME_HEADER: u8 = 1;
/// Frame type: one encrypted chunk.
pub const FRAME_CHUNK: u8 = 2;
/// Frame type: the trailer (must be the last frame before the end marker).
pub const FRAME_TRAILER: u8 = 3;

/// Result of one [`Engine::run_streaming`] run.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Per-chunk provenance, identical in content to the in-memory path's records
    /// (`worker` is always 0: the streaming path is single-in-flight by design).
    pub chunks: Vec<ChunkRecord>,
    /// Plaintext rows consumed from the source.
    pub rows: usize,
    /// Encrypted rows written to the stream.
    pub encrypted_rows: usize,
    /// Total bytes written, preamble and frame headers included.
    pub bytes_written: u64,
    /// The merged encryption report (also persisted in the trailer).
    pub report: EncryptionReport,
}

impl Engine {
    /// Encrypt a [`RowSource`] chunk by chunk into an `F2WS` v2 frame stream.
    ///
    /// Peak memory is bounded by one chunk (plaintext + its ciphertext + one frame
    /// buffer) plus the per-chunk [`ChunkRecord`]s — independent of the dataset
    /// size. The configured worker count is deliberately not used here: reading
    /// ahead `workers` chunks would trade the memory bound for parallelism, and the
    /// in-memory [`Engine::encrypt`] already covers the all-in-RAM parallel case
    /// with byte-identical output (same seeds, same chunk boundaries).
    ///
    /// The source must hand out **full chunks** (`chunk_rows` rows until the final
    /// partial chunk), which every `f2_io` source does; a short chunk mid-stream
    /// would shift chunk boundaries away from the in-memory path's and is rejected.
    pub fn run_streaming<S, W>(
        &self,
        scheme: &S,
        source: &mut dyn RowSource,
        writer: W,
    ) -> Result<StreamOutcome>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        W: Write,
    {
        let schema = source.schema().clone();
        self.begin(scheme, &schema, writer)?.drain(scheme, source, &self.retry_policy())
    }
}

/// Pull one chunk of at most `max_rows` rows (`None` once `source` is
/// exhausted) under `retry` and hand it to `with`; `timed` puts the pull under
/// the `engine.chunk.pull` span. Retrying is sound only because a failed
/// `next_chunk` consumes nothing (see `f2_io::retry`). The chunk borrows the
/// source, so it goes to a callback: the borrow may not escape a retry loop.
pub(crate) fn pull<R>(
    source: &mut dyn RowSource,
    retry: &RetryPolicy,
    max_rows: usize,
    timed: bool,
    with: impl FnOnce(Option<TableChunk<'_>>) -> Result<R>,
) -> Result<R> {
    let mut pulls = retry.begin();
    loop {
        let attempt = {
            // Span covers source I/O plus chunk assembly (e.g. CSV parsing).
            let _pull = timed.then(|| f2_obs::span!("engine.chunk.pull"));
            source.next_chunk(max_rows)
        };
        match attempt {
            Ok(chunk) => return with(chunk),
            Err(error) => pulls.absorb(error).map_err(F2Error::from)?,
        }
    }
}

// ── Frame codec ────────────────────────────────────────────────────────────────────

fn malformed(message: impl std::fmt::Display) -> F2Error {
    F2Error::UnsupportedInput(format!("malformed F2WS stream: {message}"))
}

/// The header frame: the scheme and engine configuration that wrote the
/// stream, and the plaintext schema.
#[derive(Debug)]
pub(crate) struct StreamHeader {
    pub(crate) scheme: String,
    pub(crate) seed: u64,
    pub(crate) chunk_rows: usize,
    pub(crate) schema: Schema,
}

impl StreamHeader {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::raw();
        w.put_str(&self.scheme);
        w.put_u64(self.seed);
        w.put_usize(self.chunk_rows);
        put_schema(&mut w, &self.schema);
        w.finish()
    }

    /// Inverse of [`StreamHeader::encode`]. A header no engine writes — zero
    /// `chunk_rows`, or a schema without attributes — is malformed.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = Reader::raw(payload);
        let header = StreamHeader {
            scheme: r.str()?,
            seed: r.u64()?,
            chunk_rows: r.usize()?,
            schema: take_schema(&mut r)?,
        };
        r.finish()?;
        if header.chunk_rows == 0 || header.schema.arity() == 0 {
            return Err(malformed("header declares no chunk rows or no attributes"));
        }
        Ok(header)
    }

    /// Refuse a stream another scheme wrote: `holder` is the scheme at hand,
    /// `role` names the reader in the error.
    pub(crate) fn check_scheme(&self, holder: &str, role: &str) -> Result<()> {
        if self.scheme != holder {
            return Err(F2Error::UnsupportedInput(format!(
                "stream was produced by the `{}` scheme, {role} holds `{holder}`",
                self.scheme
            )));
        }
        Ok(())
    }
}

/// A chunk frame's payload: the chunk's record, its owner-state blob, and its
/// encoded ciphertext. The ciphertext is decoded on demand
/// ([`ChunkPayload::encrypted`]): the resume scan needs only the record.
///
/// Scheduling diagnostics (`worker`, `wall`) are deliberately NOT part of the
/// wire format: they vary run to run, and persisting them would make two
/// streams of the same dataset byte-different — breaking reproducible artifacts
/// and the frozen v2 golden vectors. Decoded records report `worker = 0` and
/// `wall = 0`.
pub(crate) struct ChunkPayload<'a> {
    pub(crate) record: ChunkRecord,
    pub(crate) state: &'a [u8],
    table: &'a [u8],
}

impl<'a> ChunkPayload<'a> {
    pub(crate) fn encode(record: &ChunkRecord, state: &[u8], encrypted: &Table) -> Vec<u8> {
        let mut w = Writer::raw();
        w.put_usize(record.index);
        w.put_usize(record.rows.start);
        w.put_usize(record.rows.end);
        w.put_usize(record.output_rows.start);
        w.put_usize(record.output_rows.end);
        w.put_u64(record.seed);
        w.put_bytes(state);
        w.put_bytes(&encode_table(encrypted));
        w.finish()
    }

    /// Inverse of [`ChunkPayload::encode`], up to the ciphertext's decoding.
    pub(crate) fn decode(payload: &'a [u8]) -> Result<Self> {
        let mut r = Reader::raw(payload);
        let index = r.usize()?;
        let rows = r.usize()?..r.usize()?;
        let output_rows = r.usize()?..r.usize()?;
        let seed = r.u64()?;
        let (state, table) = (r.bytes()?, r.bytes()?);
        r.finish()?;
        if rows.start > rows.end || output_rows.start > output_rows.end {
            return Err(malformed("chunk record has a reversed row range"));
        }
        let record =
            ChunkRecord { index, rows, output_rows, seed, worker: 0, wall: Duration::ZERO };
        Ok(ChunkPayload { record, state, table })
    }

    /// The chunk's ciphertext, checked against the record's output range.
    pub(crate) fn encrypted(&self) -> Result<Table> {
        let encrypted = decode_table(self.table)?;
        if encrypted.row_count() != self.record.output_rows.len() {
            return Err(malformed("chunk row count disagrees with its record"));
        }
        Ok(encrypted)
    }

    /// Decrypt the chunk under its own (chunk-local) owner state.
    pub(crate) fn decrypt<S>(&self, scheme: &S) -> Result<Table>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
    {
        let outcome = SchemeOutcome {
            encrypted: self.encrypted()?,
            state: scheme.load_state(self.state)?,
            report: EncryptionReport::default(),
        };
        scheme.decrypt(&outcome)
    }
}

/// The trailer frame: chunk and row totals plus the merged encryption report.
pub(crate) struct Trailer {
    pub(crate) chunks: usize,
    pub(crate) rows: usize,
    pub(crate) encrypted_rows: usize,
    pub(crate) report: EncryptionReport,
}

impl Trailer {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::raw();
        w.put_usize(self.chunks);
        w.put_usize(self.rows);
        w.put_usize(self.encrypted_rows);
        // Persist the structural report (row overheads, MAS/EC counts) with the
        // wall-clock step timings zeroed: like `ChunkRecord::wall`, timings vary
        // run to run and would make equal datasets produce byte-different streams.
        put_report(
            &mut w,
            &EncryptionReport { timings: Default::default(), ..self.report.clone() },
        );
        w.finish()
    }

    /// Inverse of [`Trailer::encode`].
    pub(crate) fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = Reader::raw(payload);
        let trailer = Trailer {
            chunks: r.usize()?,
            rows: r.usize()?,
            encrypted_rows: r.usize()?,
            report: take_report(&mut r)?,
        };
        r.finish()?;
        Ok(trailer)
    }
}

// ── Readers ────────────────────────────────────────────────────────────────────────

/// Drive a [`FrameReader`] over a stream, dispatching each frame: the header is
/// validated against `scheme_name`, every chunk goes to `on_chunk` (in order),
/// and the header and trailer come back to the caller. Shared by
/// [`load_streamed_outcome`] and [`decrypt_streaming`] so both enforce the same
/// structure.
fn walk_stream<R: Read>(
    scheme_name: &str,
    reader: R,
    mut on_chunk: impl FnMut(ChunkPayload<'_>) -> Result<()>,
) -> Result<(StreamHeader, Trailer)> {
    let mut frames = FrameReader::new(reader)?;
    let first = frames.next_frame()?.ok_or_else(|| malformed("empty stream (no header frame)"))?;
    if first.frame_type != FRAME_HEADER {
        return Err(malformed("stream does not start with a header frame"));
    }
    let header = StreamHeader::decode(&first.payload)?;
    header.check_scheme(scheme_name, "loader")?;

    // Chunk records must tile the plaintext and output tables gaplessly from 0 —
    // a CRC only certifies transport, not a well-behaved producer, and a gapped
    // or overlapping range would silently corrupt the merged owner state's row
    // offsets.
    let mut last: Option<ChunkRecord> = None;
    let trailer = loop {
        let frame = frames
            .next_frame()?
            .ok_or_else(|| malformed("stream ended without a trailer frame"))?;
        match frame.frame_type {
            FRAME_CHUNK => {
                let chunk = ChunkPayload::decode(&frame.payload)?;
                let record = &chunk.record;
                if !record.follows(last.as_ref()) {
                    let (index, row, output) = ChunkRecord::after(last.as_ref());
                    return Err(malformed(format!(
                        "chunk {} covers rows {:?} → output {:?}, expected chunk {index} to \
                         start at {row} → {output}",
                        record.index, record.rows, record.output_rows
                    )));
                }
                last = Some(record.clone());
                on_chunk(chunk)?;
            }
            FRAME_TRAILER => break Trailer::decode(&frame.payload)?,
            other => return Err(malformed(format!("unknown frame type {other}"))),
        }
    };
    let totals = (trailer.chunks, trailer.rows, trailer.encrypted_rows);
    if totals != ChunkRecord::after(last.as_ref()) {
        return Err(malformed("trailer totals disagree with the chunk frames"));
    }
    if frames.next_frame()?.is_some() {
        return Err(malformed("frames after the trailer"));
    }
    Ok((header, trailer))
}

/// Reassemble a whole [`SchemeOutcome`] (plus the per-chunk provenance) from a v2
/// stream: chunks are appended in order and their owner states merged through
/// [`ChunkedScheme::merge_chunk_states`] — the same fold the in-memory path runs, so
/// the loaded outcome is artifact-identical to [`Engine::encrypt`]'s.
pub fn load_streamed_outcome<S, R>(
    scheme: &S,
    reader: R,
) -> Result<(SchemeOutcome, Vec<ChunkRecord>)>
where
    S: ChunkedScheme + StatefulScheme + ?Sized,
    R: Read,
{
    let mut encrypted: Option<Table> = None;
    let mut chunk_states: Vec<ChunkState> = Vec::new();
    let mut records: Vec<ChunkRecord> = Vec::new();
    let (header, trailer) = walk_stream(scheme.name(), reader, |chunk| {
        chunk_states.push(ChunkState {
            row_offset: chunk.record.rows.start,
            output_offset: chunk.record.output_rows.start,
            state: scheme.load_state(chunk.state)?,
        });
        let chunk_table = chunk.encrypted()?;
        match &mut encrypted {
            None => encrypted = Some(chunk_table),
            Some(table) => table.append(chunk_table)?,
        }
        records.push(chunk.record);
        Ok(())
    })?;
    let outcome = match encrypted {
        Some(encrypted) => {
            // walk_stream already forced the chunk ranges to tile gaplessly and the
            // trailer totals to match them.
            debug_assert_eq!(encrypted.row_count(), trailer.encrypted_rows);
            let state = scheme.merge_chunk_states(chunk_states)?;
            SchemeOutcome { encrypted, state, report: trailer.report }
        }
        // Empty dataset (walk_stream forced the trailer to promise no rows):
        // reconstruct the same empty outcome the in-memory path produces for an
        // empty table (chunk-0 seed, backend-shaped state).
        None => {
            let empty = TableChunk::Owned(Table::empty(header.schema));
            encrypt_chunk(scheme, header.seed, 0, &empty)?.outcome
        }
    };
    Ok((outcome, records))
}

/// Decrypt a v2 stream **chunk by chunk**: each chunk's ciphertext is decrypted with
/// its own (chunk-local) owner state and handed to `emit` as a plaintext [`Table`],
/// so peak memory is one chunk regardless of the dataset size. Returns the total
/// number of plaintext rows emitted.
pub fn decrypt_streaming<S, R>(
    scheme: &S,
    reader: R,
    mut emit: impl FnMut(Table) -> Result<()>,
) -> Result<usize>
where
    S: ChunkedScheme + StatefulScheme + ?Sized,
    R: Read,
{
    let mut emitted = 0usize;
    let (_, trailer) = walk_stream(scheme.name(), reader, |chunk| {
        let plain = chunk.decrypt(scheme)?;
        emitted += plain.row_count();
        emit(plain)
    })?;
    if emitted != trailer.rows {
        return Err(malformed(format!(
            "decrypted {emitted} rows, trailer promises {}",
            trailer.rows
        )));
    }
    Ok(emitted)
}

/// Load an encrypted outcome from either `F2WS` format: a **v1 single blob**
/// (written by [`save_outcome`](crate::save_outcome) — the pre-stream format, still
/// fully supported) or a **v2 frame stream** (written by [`Engine::run_streaming`]).
pub fn read_outcome<S>(scheme: &S, bytes: &[u8]) -> Result<SchemeOutcome>
where
    S: ChunkedScheme + StatefulScheme,
{
    match sniff_version(bytes)? {
        1 => crate::persist::load_outcome(scheme, bytes),
        2 => Ok(load_streamed_outcome(scheme, bytes)?.0),
        other => Err(F2Error::UnsupportedInput(format!("unknown F2WS version {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::EngineConfig;
    use f2_core::{Scheme, F2};
    use f2_io::TableSource;
    use f2_relation::table;

    fn fixture() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["10001", "NewYork", "carol"],
            ["10001", "NewYork", "dave"],
            ["08540", "Princeton", "erin"],
            ["08540", "Princeton", "frank"],
        }
    }

    #[test]
    fn streamed_and_in_memory_paths_are_artifact_identical() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(33).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 2, seed: 33 }).unwrap();

        let in_memory = engine.encrypt(&scheme, &t).unwrap();
        let mut stream = Vec::new();
        let summary =
            engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();
        assert_eq!(summary.rows, t.row_count());
        assert_eq!(summary.chunks.len(), in_memory.chunks.len());

        let (loaded, records) = load_streamed_outcome(&scheme, &stream[..]).unwrap();
        assert_eq!(loaded.encrypted, in_memory.outcome.encrypted);
        assert_eq!(
            scheme.save_state(&loaded).unwrap(),
            scheme.save_state(&in_memory.outcome).unwrap()
        );
        for (streamed, in_mem) in records.iter().zip(&in_memory.chunks) {
            assert_eq!(streamed.rows, in_mem.rows);
            assert_eq!(streamed.output_rows, in_mem.output_rows);
            assert_eq!(streamed.seed, in_mem.seed);
        }
        assert!(scheme.decrypt(&loaded).unwrap().multiset_eq(&t));
    }

    #[test]
    fn chunkwise_streaming_decryption_recovers_the_table() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(7).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 2, seed: 7 }).unwrap();
        let mut stream = Vec::new();
        engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();

        let mut recovered: Option<Table> = None;
        let rows = decrypt_streaming(&scheme, &stream[..], |chunk| {
            match &mut recovered {
                None => recovered = Some(chunk),
                Some(all) => all.append(chunk)?,
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, t.row_count());
        assert!(recovered.unwrap().multiset_eq(&t));
    }

    #[test]
    fn empty_sources_stream_and_load() {
        let t = Table::empty(fixture().schema().clone());
        let scheme = F2::builder().seed(5).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 5 }).unwrap();
        let mut stream = Vec::new();
        let summary =
            engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();
        assert_eq!(summary.rows, 0);
        assert!(summary.chunks.is_empty());
        let (loaded, records) = load_streamed_outcome(&scheme, &stream[..]).unwrap();
        assert!(records.is_empty());
        assert_eq!(loaded.encrypted.row_count(), 0);
        assert!(scheme.decrypt(&loaded).unwrap().multiset_eq(&t));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Hostile input to the one header decoder and the one chunk-payload
        /// decoder — the decoders every reader (strict, resume scan and
        /// replay, lossy salvage) goes through: arbitrary bytes are refused,
        /// never a panic. (Any 128 bytes are a well-formed trailer, so the
        /// trailer decoder is held to not panicking.)
        #[test]
        fn arbitrary_bytes_never_decode_as_a_header_or_chunk(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            proptest::prop_assert!(StreamHeader::decode(&bytes).is_err());
            proptest::prop_assert!(
                ChunkPayload::decode(&bytes).and_then(|chunk| chunk.encrypted()).is_err()
            );
            let _ = Trailer::decode(&bytes);
        }

        /// Every strict prefix of a well-formed header or chunk payload is
        /// refused too.
        #[test]
        fn truncated_headers_and_chunks_are_refused(cut_per_mille in 0u64..1000) {
            let t = fixture();
            let header = StreamHeader {
                scheme: "f2".into(),
                seed: 7,
                chunk_rows: 2,
                schema: t.schema().clone(),
            };
            let header = header.encode();
            let record = ChunkRecord {
                index: 0,
                rows: 0..6,
                output_rows: 0..6,
                seed: 1,
                worker: 0,
                wall: Duration::ZERO,
            };
            let chunk = ChunkPayload::encode(&record, b"state", &t);
            let cut = |len: usize| (len as u64 * cut_per_mille / 1000) as usize;
            proptest::prop_assert!(StreamHeader::decode(&header[..cut(header.len())]).is_err());
            let truncated = &chunk[..cut(chunk.len())];
            proptest::prop_assert!(
                ChunkPayload::decode(truncated).and_then(|chunk| chunk.encrypted()).is_err()
            );
        }
    }

    #[test]
    fn wrong_scheme_is_rejected_by_name() {
        let t = fixture();
        let f2 = F2::builder().alpha(0.5).seed(3).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 3, seed: 3 }).unwrap();
        let mut stream = Vec::new();
        engine.run_streaming(&f2, &mut TableSource::new(&t), &mut stream).unwrap();
        let det = f2_core::DetScheme::new(f2_crypto::MasterKey::from_seed(3));
        let err = load_streamed_outcome(&det, &stream[..]).unwrap_err();
        assert!(err.to_string().contains("`f2`"), "{err}");
    }
}

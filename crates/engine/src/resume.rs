//! Crash-safe resume of an interrupted `F2WS` v2 stream.
//!
//! lint: untrusted-input — the scan below decodes a possibly damaged stream.
//!
//! A streaming job that dies mid-write leaves a *prefix* of a valid stream
//! behind: the preamble, the header frame, some complete chunk frames, and
//! usually a torn frame at the tail. [`Engine::resume_streaming`] and
//! [`Engine::resume_job`] turn it back into exactly the stream an
//! uninterrupted run would have produced, through one path:
//!
//! 1. **Scan** — walk the frames, validating the header against the engine
//!    configuration, scheme, and schema, and each chunk record's continuity
//!    and seed, up to the first damage, the trailer, or a short (final) chunk.
//! 2. **Replay** — rebuild each prefix chunk's report for the trailer.
//!    Backends whose report is a pure function of the row count
//!    ([`ChunkedScheme::rederive_chunk_report`]) derive it. F² re-encrypts the
//!    chunk's plaintext under its stored seed and requires the result to
//!    CRC-match the stored frame, refusing to extend a stream it cannot
//!    reproduce.
//! 3. **Truncate** — cut the store back to the end of the last complete chunk
//!    frame (a surviving trailer is rewritten, not trusted).
//! 4. **Reopen** — return the [`StreamJob`] positioned after the prefix; the
//!    rest of the stream goes through the same code as a fresh one.
//!
//! The two paths differ only in where the replay takes a prefix chunk's
//! plaintext from:
//!
//! * `resume_streaming` pulls it again from the original source, rewound to
//!   its first row — or, for derivable reports over a
//!   [`SeekableSource`](f2_io::SeekableSource), seeks past the prefix with
//!   **zero** pulls. F²'s CRC match proves the source unchanged.
//! * `resume_job` needs no source: it decrypts each stored chunk frame under
//!   its own owner state (derivable reports need no reading at all). F²'s CRC
//!   match proves the store, owner state, and key material still agree.
//!
//! The result is **byte-identical** to the uninterrupted stream at every
//! interruption point (pinned by `tests/resume_golden.rs` and
//! `tests/job_push.rs`): chunk seeds are pure functions of the engine seed and
//! chunk index, ciphertexts are deterministic under them, and the trailer
//! zeroes its run-varying timings. A store torn before its first chunk frame
//! restarts from scratch. Resumes are counted in `f2_engine_resume_total`.

use crate::job::{seek_to, truncate, StreamJob};
use crate::persist::StatefulScheme;
use crate::pipeline::{encrypt_chunk, verify_chunk_seed, ChunkRecord, Engine};
use crate::stream::{pull, ChunkPayload, StreamHeader, StreamOutcome, FRAME_CHUNK, FRAME_HEADER};
use f2_core::{ChunkedScheme, EncryptionReport, F2Error, Result};
use f2_io::frame::{crc32, FrameReader, FrameSink};
use f2_io::{RetryPolicy, RowSource, StreamStore, TableChunk};
use f2_relation::Schema;
use std::io::Read;

/// The validated prefix of an interrupted stream: everything before the first
/// damaged byte (or before the trailer, for a stream that only lost its tail).
struct StreamPrefix {
    /// Complete chunk records in order, continuity- and seed-verified.
    records: Vec<ChunkRecord>,
    /// CRC32 of each chunk frame's (decompressed) payload — what F²'s replay
    /// verification compares its re-encryptions against.
    payload_crcs: Vec<u32>,
    /// Store offset one past the last complete chunk frame: the resume point.
    bytes: u64,
    /// Frames in the prefix (header + chunks) — seeds the resumed sink's count.
    frames: u64,
}

impl StreamPrefix {
    /// Plaintext rows the prefix covers.
    fn rows(&self) -> usize {
        self.records.last().map_or(0, |last| last.rows.end)
    }
}

impl Engine {
    /// Resume an interrupted [`Engine::run_streaming`] job in `store`,
    /// producing a stream **byte-identical** to the one an uninterrupted run
    /// over the same `scheme`, `source`, and engine configuration would have
    /// written. `source` must be the original source, rewound to its first
    /// row — resume replays (or, for F², re-encrypts and verifies) the rows
    /// the surviving prefix already covers before continuing with the rest.
    ///
    /// The engine seed and `chunk_rows` must match the interrupted run's; a
    /// readable header that contradicts them (or the scheme, or the source
    /// schema) is an error rather than damage. A store torn before its first
    /// chunk frame is truncated to zero and re-encrypted from scratch.
    pub fn resume_streaming<S, T>(
        &self,
        scheme: &S,
        source: &mut dyn RowSource,
        store: &mut T,
    ) -> Result<StreamOutcome>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        T: StreamStore,
    {
        let schema = source.schema().clone();
        let job = self.reopen(scheme, &schema, store, Some(&mut *source))?;
        job.drain(scheme, source, &self.retry_policy())
    }

    /// Scan → replay → truncate → reopen: the resume path of both drivers (see
    /// the [module docs](self)). `source` is where the replay takes a prefix
    /// chunk's plaintext from: the original source, or — with `None` — the
    /// stored frame itself. A store with no usable prefix starts over, exactly
    /// as [`Engine::begin_job`].
    pub(crate) fn reopen<S, T>(
        &self,
        scheme: &S,
        schema: &Schema,
        mut store: T,
        source: Option<&mut dyn RowSource>,
    ) -> Result<StreamJob<T>>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
        T: StreamStore,
    {
        crate::obs::resumes().inc();
        seek_to(&mut store, 0)?;
        let Some(prefix) = self.scan_prefix(scheme, schema, &mut store)? else {
            // Nothing usable survives a torn preamble or header frame.
            return self.begin_job(scheme, schema, store);
        };
        let retry = self.retry_policy();
        let plaintext = match source {
            Some(source) => Plaintext::Pulled(source, &retry),
            None => {
                seek_to(&mut store, 0)?;
                let mut frames = FrameReader::new(&mut store)?;
                frames.next_frame()?; // the header frame the scan validated
                Plaintext::Stored(frames)
            }
        };
        let reports = replay(scheme, self.config().seed, &prefix, plaintext)?;
        truncate(&mut store, prefix.bytes)?;
        let mut job = self.job(FrameSink::resume(retry.writer(store), prefix.bytes, prefix.frames));
        job.adopt_prefix(prefix.records, &reports);
        Ok(job)
    }

    /// Scan the store for its intact prefix. `Ok(None)` means no usable prefix
    /// (torn preamble or header frame); a readable header that contradicts the
    /// engine configuration, scheme, or schema is a hard error — the caller
    /// would otherwise splice two different runs into one stream.
    fn scan_prefix<S>(
        &self,
        scheme: &S,
        schema: &Schema,
        reader: impl Read,
    ) -> Result<Option<StreamPrefix>>
    where
        S: ChunkedScheme + StatefulScheme + ?Sized,
    {
        let Ok(mut frames) = FrameReader::new(reader) else { return Ok(None) };
        let header = match frames.next_frame() {
            Ok(Some(frame)) if frame.frame_type == FRAME_HEADER => {
                StreamHeader::decode(&frame.payload)
            }
            Ok(_) | Err(_) => return Ok(None),
        };
        // The frame passed its CRC, so an undecodable header is a producer bug,
        // not transport damage — but either way there is no prefix to keep.
        let Ok(header) = header else { return Ok(None) };
        header.check_scheme(scheme.name(), "resume")?;
        let (seed, chunk_rows) = (self.config().seed, self.config().chunk_rows);
        if header.seed != seed || header.chunk_rows != chunk_rows {
            return Err(F2Error::UnsupportedInput(format!(
                "stream was produced with seed {} / chunk_rows {}, the resuming engine holds \
                 seed {seed} / chunk_rows {chunk_rows} — resume needs the original configuration",
                header.seed, header.chunk_rows
            )));
        }
        if &header.schema != schema {
            return Err(F2Error::UnsupportedInput(
                "stream header schema disagrees with the source — resume needs the original \
                 source"
                    .into(),
            ));
        }

        let mut prefix = StreamPrefix {
            records: Vec::new(),
            payload_crcs: Vec::new(),
            bytes: frames.bytes_consumed(),
            frames: 1,
        };
        // Only a full-sized chunk may be followed by another: a short chunk is
        // the stream's final one, so the prefix cannot extend past it.
        while prefix.records.last().is_none_or(|prev| prev.rows.len() == chunk_rows) {
            // Trailer, end marker, unknown frame type, torn or damaged tail:
            // the chunk prefix ends here — everything at and past this offset
            // is rewritten by the resumed run.
            let Ok(Some(frame)) = frames.next_frame() else { break };
            if frame.frame_type != FRAME_CHUNK {
                break;
            }
            let Ok(ChunkPayload { record, .. }) = ChunkPayload::decode(&frame.payload) else {
                break;
            };
            if !record.follows(prefix.records.last())
                || record.rows.is_empty()
                || record.rows.len() > chunk_rows
            {
                break;
            }
            verify_chunk_seed(seed, record.index as u64, record.seed)?;
            prefix.payload_crcs.push(crc32(&frame.payload));
            prefix.records.push(record);
            prefix.bytes = frames.bytes_consumed();
            prefix.frames += 1;
        }
        Ok(Some(prefix))
    }
}

/// Where a replayed prefix chunk's plaintext comes from — the one thing the
/// two resume paths do differently.
enum Plaintext<'a, R: Read> {
    /// `resume_streaming`: the original source, rewound to its first row.
    Pulled(&'a mut dyn RowSource, &'a RetryPolicy),
    /// `resume_job`: the stored chunk frames, each decrypted under its own
    /// owner state.
    Stored(FrameReader<R>),
}

/// Rebuild the report of every prefix chunk: the replay step of both resume
/// paths.
fn replay<S, R>(
    scheme: &S,
    engine_seed: u64,
    prefix: &StreamPrefix,
    mut plaintext: Plaintext<'_, R>,
) -> Result<Vec<EncryptionReport>>
where
    S: ChunkedScheme + StatefulScheme + ?Sized,
    R: Read,
{
    // Fast path: every prefix chunk's report is a pure function of its row
    // count, and the plaintext need not be read — the store's never is, and a
    // seekable source jumps straight to the resume row. F² stays on the slow
    // path by design (`rederive_chunk_report` is `None`): its reports depend
    // on the data, and the replay's CRC comparison is what proves the
    // plaintext unchanged.
    let rederived: Option<Vec<_>> =
        prefix.records.iter().map(|r| scheme.rederive_chunk_report(r.rows.len())).collect();
    if let Some(reports) = rederived {
        let skipped = match &mut plaintext {
            Plaintext::Pulled(source, _) => match source.as_seekable() {
                Some(seekable) => {
                    seekable.seek_to_row(prefix.rows()).map_err(|e| {
                        F2Error::UnsupportedInput(format!(
                            "source ended (or refused to seek) before the {} rows the stream \
                             prefix covers — resume needs the original source: {e}",
                            prefix.rows()
                        ))
                    })?;
                    true
                }
                None => false,
            },
            Plaintext::Stored(_) => true,
        };
        if skipped {
            return Ok(reports);
        }
    }
    let mut reports = Vec::with_capacity(prefix.records.len());
    for (record, &stored_crc) in prefix.records.iter().zip(&prefix.payload_crcs) {
        // `None`: the chunk re-encrypts to other bytes than the store holds.
        let verify = |chunk: &TableChunk<'_>| -> Result<Option<EncryptionReport>> {
            if let Some(report) = scheme.rederive_chunk_report(record.rows.len()) {
                return Ok(Some(report));
            }
            // F²: re-encrypt under the chunk's (seed-verified) seed. Comparing
            // the rebuilt frame payload's checksum against the stored frame's
            // doubles as proof that the plaintext still holds the rows the
            // prefix was built from.
            let encrypted = encrypt_chunk(scheme, engine_seed, record.index, chunk)?;
            let state = scheme.save_state(&encrypted.outcome)?;
            let payload = ChunkPayload::encode(record, &state, &encrypted.outcome.encrypted);
            Ok((crc32(&payload) == stored_crc).then_some(encrypted.outcome.report))
        };
        let (verified, refusal) = match &mut plaintext {
            Plaintext::Pulled(source, retry) => {
                let want = record.rows.len();
                let verified = pull(&mut **source, retry, want, false, |chunk| match chunk {
                    None => Err(F2Error::UnsupportedInput(format!(
                        "source ended at row {} but the stream prefix covers {} rows — resume \
                         needs the original source, rewound to its first row",
                        record.rows.start,
                        prefix.rows()
                    ))),
                    Some(chunk) if chunk.row_count() != want => {
                        Err(F2Error::UnsupportedInput(format!(
                            "source produced {} rows where the stream prefix recorded {want} — \
                             resume needs the original source",
                            chunk.row_count()
                        )))
                    }
                    Some(chunk) => verify(&chunk),
                })?;
                let refusal = "re-encrypted from the source does not match the stored stream — \
                               the source changed since the interrupted run";
                (verified, refusal)
            }
            Plaintext::Stored(frames) => {
                let frame = frames
                    .next_frame()?
                    .filter(|f| f.frame_type == FRAME_CHUNK)
                    .ok_or_else(|| {
                        F2Error::UnsupportedInput(
                            "stream changed between prefix scan and replay (chunk frame \
                             vanished)"
                                .into(),
                        )
                    })?;
                // `Scheme::decrypt` restores original row order (provenance rows
                // are sorted by source index), so re-encrypting its output under
                // the chunk's recorded seed must reproduce the stored bytes.
                let plain = ChunkPayload::decode(&frame.payload)?.decrypt(scheme)?;
                let refusal = "re-encryption differs from the stored stream — the store was \
                               written under different key material or scheme parameters than \
                               the resuming scheme holds";
                (verify(&TableChunk::Owned(plain))?, refusal)
            }
        };
        let refused = || F2Error::UnsupportedInput(format!("chunk {} {refusal}", record.index));
        reports.push(verified.ok_or_else(refused)?);
    }
    Ok(reports)
}

//! A host-speed reference: a fixed piece of memory work that belongs to
//! the benchmark, not to the program under test, timed between the measured
//! operations of every run.
//!
//! On the 2-vCPU host this benchmark was built on, the vCPUs run faster or
//! slower in phases that last minutes: every timing of a run, set-up included,
//! moves together by up to a third (see `NOTES.md`). A run is far shorter than a
//! phase, so no amount of repetition inside a run removes it. The probe sees
//! the same phase as the operations around it; the benchmark reports each
//! timing scaled to the probe's reference speed, `raw × REFERENCE_S / probe`,
//! where `probe` is the median of the run's probes.
//!
//! Each probe runs in a short-lived process of its own (the benchmark binary
//! started with `--probe`), so the program's heap, allocator state and threads
//! cannot slow the probe down and so hide part of a regression. The run prints
//! the probe median, the scale and the unscaled metrics on the line before its
//! result.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Median probe time, in seconds, that the reported timings are scaled to.
/// It is the median measured over the steadiness runs recorded in `NOTES.md`,
/// so scaled timings read close to raw ones on this host.
pub const REFERENCE_S: f64 = 0.0175;

/// The argument that makes the benchmark binary time one probe, print its
/// seconds and exit.
pub const PROBE_FLAG: &str = "--probe";

/// Bytes the probe faults in: large enough that a probe lasts about as long as
/// the chunk-sized steps it is compared with, small enough to take often.
const PROBE_BYTES: usize = 32 << 20;

/// Time one probe in this process: fault in a fresh, zeroed buffer, one write
/// per 4 KiB page. The program's heavy steps (decrypting and indexing hundreds
/// of thousands of ciphertext rows) spend their time filling fresh memory, and
/// this tracks them more closely than CPU and cache work does (see `NOTES.md`).
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut buffer = vec![0u8; PROBE_BYTES];
    for page in buffer.chunks_mut(4096) {
        page[0] = 1;
    }
    black_box(&buffer);
    start.elapsed().as_secs_f64()
}

/// Probe times collected over one run, each from a child process.
#[derive(Debug)]
pub struct Probes {
    exe: PathBuf,
    times: Vec<f64>,
    errors: Vec<String>,
}

impl Probes {
    /// Probes that start `exe` (the benchmark binary) with [`PROBE_FLAG`].
    pub fn new(exe: PathBuf) -> Probes {
        Probes { exe, times: Vec::new(), errors: Vec::new() }
    }

    /// Time one more probe in a child process and wait for it to end.
    pub fn take(&mut self) {
        let output = Command::new(&self.exe).arg(PROBE_FLAG).output();
        let parsed = output.map_err(|e| e.to_string()).and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(secs) if out.status.success() && secs > 0.0 => Ok(secs),
                _ => Err(format!("{}: `{}`", out.status, text.trim())),
            }
        });
        match parsed {
            Ok(secs) => self.times.push(secs),
            Err(e) => self.errors.push(format!("probe {}: {e}", self.exe.display())),
        }
    }

    /// Probes that failed, for the run's problems.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// The median probe (`NaN` when none was taken).
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }

    /// The factor that scales this run's timings to the reference speed:
    /// `REFERENCE_S / median probe` (1 when no probe was taken).
    pub fn scale(&self) -> f64 {
        if self.times.is_empty() {
            return 1.0;
        }
        REFERENCE_S / self.median()
    }
}

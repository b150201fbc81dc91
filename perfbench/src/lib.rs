//! The repository benchmark: four workloads that run the out-of-core
//! APSP stack end to end, plus a traced mode that times the benchmark's
//! own calls into each layer's public functions.
//!
//! See `perfbench/README.md` for what each workload stresses and which
//! end-to-end metric each per-layer metric should move.

pub mod layers;
pub mod serve;
pub mod solve;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

pub use workload::{Scale, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Whether the value is a simulated time or a count, which must
    /// repeat exactly for the same seed (host wall times never do).
    pub exact: bool,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (solves, or service jobs).
    pub attempted: u64,
    /// Operations that failed: typed errors, service rejections, and
    /// results that failed verification.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed ahead of the JSON result line.
    pub notes: Vec<String>,
    /// Result fingerprints (panel checksums of every distinct result);
    /// identical for the same seed.
    pub fingerprint: Vec<u64>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            fingerprint: Vec::new(),
        }
    }

    /// Every attempted operation succeeded and verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Record a host wall-clock (or other measured, non-repeating) value.
    pub(crate) fn measured(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, false);
    }

    /// Record a simulated time or a count, which repeats exactly.
    pub(crate) fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, true);
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, exact: bool) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            exact,
        });
    }

    /// Count one failed operation and say why.
    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Append the end-to-end metrics every workload shares.
    pub(crate) fn finish_end_to_end(&mut self) {
        self.measured("peak_rss_mib", "MiB", peak_rss_mib());
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.exact("success_ratio", "ratio", ok);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form, always with a decimal point or
/// exponent so JSON readers see a float.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Run parameters that come from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which inputs to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Measurement window in host seconds (timed operations continue
    /// until it is spent, and always reach a minimum sample count).
    pub seconds: f64,
    /// `false`: end-to-end metrics, untraced. `true`: per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Scratch directory for spill files, checkpoints and snapshots;
    /// every solve gets fresh subdirectories under it.
    pub work_dir: PathBuf,
}

/// Run one workload and collect its metrics.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    out.notes.push(format!(
        "workload {} seed {} seconds {} trace {} exec {} threads {} (available_parallelism {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        workload::exec().name(),
        workload::exec().resolved_threads(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    match (cfg.workload, cfg.trace) {
        (Workload::ServeHot, false) => serve::end_to_end(cfg, &mut out),
        (Workload::ServeHot, true) => serve::traced(cfg, &mut out),
        (w, false) => solve::end_to_end(cfg, &workload::SolveSpec::new(w, cfg), &mut out),
        (w, true) => {
            solve::traced(cfg, &workload::SolveSpec::new(w, cfg), &mut out);
            serve::bypassed(&mut out);
        }
    }
    if cfg.trace {
        out.exact(
            "exec.threads",
            "count",
            workload::exec().resolved_threads() as f64,
        );
    } else {
        out.finish_end_to_end();
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set-up samples per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 9;

/// How many set-up samples a run owes after `elapsed` seconds of its
/// `window`-second measurement window. The first sample precedes every
/// timed operation (it fills the process-wide calibration cache); the
/// rest fall due at evenly spaced marks across the window, so a slow
/// stretch of the host skews only a few of them.
pub(crate) fn setup_owed(elapsed: f64, window: f64) -> usize {
    if window <= 0.0 {
        return SETUP_REPS;
    }
    let marks = (elapsed / window * (SETUP_REPS - 1) as f64) as usize;
    (1 + marks).min(SETUP_REPS)
}

/// Host wall seconds of `f`, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

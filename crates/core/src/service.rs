//! APSP-as-a-service: a deterministic job scheduler over a simulated
//! device fleet.
//!
//! [`crate::api::apsp`] owns one device for one run. This module turns
//! that single-run substrate into a multi-tenant serving layer — the
//! regime where most traffic is small queries against a few hot graphs:
//!
//! * **Bounded admission queue** — submissions beyond
//!   [`ServiceConfig::queue_capacity`] are rejected with a typed
//!   [`ServiceError::QueueFull`] carrying a retry-after hint, never
//!   silently dropped or unboundedly buffered.
//! * **Admission control** — once the service has observed at least one
//!   completion it predicts each deadline-carrying job's queue wait from
//!   the learned per-row rate; a job predicted to expire before a device
//!   frees up is turned away immediately as [`ServiceError::Busy`]
//!   rather than admitted to die in the queue.
//! * **Per-job supervision budgets** — each job's deadline (minus the
//!   queue wait it already paid) and retry budget arm a
//!   [`Supervisor`], so budgets are enforced at every driver barrier.
//! * **Strict fault isolation** — every job executes on a *fresh*
//!   [`GpuDevice`] drawn from its fleet slot's profile. An injected
//!   fault, a `SilentCorruption`, or a blown deadline fails that job
//!   typed; the queue, the fleet, and sibling jobs' bits are untouched
//!   by construction.
//! * **Verified result cache** — keyed by the FNV graph fingerprint plus
//!   an options fingerprint; every hit re-verifies the entry's panel
//!   checksums before serving. A corrupt entry is evicted and recomputed,
//!   never served. Hits are served even when the compute queue is
//!   saturated (they never touch the queue).
//! * **Partial queries** — [`JobSpec::Sources`] routes through the
//!   Johnson batch driver ([`crate::ooc_johnson::ooc_johnson_sources`]),
//!   paying `O(k·n)` instead of `n²`.
//! * **Warm resubmission** — with a [`ServiceConfig::checkpoint_root`],
//!   full-matrix jobs checkpoint per batch under a key-derived tag;
//!   a job killed by deadline or cancellation keeps its checkpoint, so
//!   resubmitting the same request resumes instead of starting over.
//!
//! Scheduling is deterministic: jobs run in submission order, each on
//! the fleet device with the least accumulated simulated time (ties to
//! the lowest index). No wall clocks, no threads — same seed, same
//! trace, same bits.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use crate::api::apsp;
use crate::checkpoint::graph_fingerprint;
use crate::error::{ApspError, ApspErrorKind};
use crate::ooc_johnson::ooc_johnson_sources;
use crate::options::{Algorithm, ApspOptions, CheckpointOptions};
use crate::supervisor::{splitmix64, Supervisor};
use crate::tile_store::{block_panel_checksums, fnv1a, FNV_OFFSET_BASIS, SDC_PANEL_ROWS};
use apsp_gpu_sim::{DeviceProfile, GpuDevice};
use apsp_graph::{CsrGraph, Dist, VertexId};

/// Opaque job handle returned by [`ApspService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// What a job computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// The full `n × n` distance matrix through [`crate::api::apsp`]
    /// (selector, fallback chain, checkpointing — the whole front-end).
    Full,
    /// Distance rows for exactly these sources, in request order,
    /// through the Johnson batch driver. `O(k·n)` data movement.
    Sources(Vec<VertexId>),
}

impl JobSpec {
    /// Output rows this spec produces on a graph with `n` vertices.
    pub fn rows(&self, n: usize) -> usize {
        match self {
            JobSpec::Full => n,
            JobSpec::Sources(s) => s.len(),
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            JobSpec::Full => "full",
            JobSpec::Sources(_) => "sources",
        }
    }
}

/// Deterministic fault plan applied to a job's fresh device before it
/// runs — the service-level analogue of the simulator's `inject_*`
/// hooks, used by the conformance chaos harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFault {
    /// The job's `kth` device allocation fails.
    AllocFailure { kth: u64 },
    /// The job's `kth` kernel launch hangs for `extra_seconds`.
    KernelStall { kth: u64, extra_seconds: f64 },
    /// Bit `bit` of the job's `kth` H2D upload flips in flight.
    DeviceBitFlip { kth: u64, bit: u64 },
}

/// One unit of work for [`ApspService::submit`].
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The input graph (shared — hot graphs are submitted repeatedly).
    pub graph: Arc<CsrGraph>,
    /// Full matrix or k-source partial query.
    pub spec: JobSpec,
    /// Per-run options. `supervision.deadline_ms` here bounds *compute*;
    /// [`JobRequest::deadline_ms`] bounds queue wait + compute.
    pub opts: ApspOptions,
    /// End-to-end budget in simulated milliseconds, counted from
    /// submission: queue wait spends it, and whatever remains arms the
    /// run's supervisor. `None` waits and runs unbounded.
    pub deadline_ms: Option<u64>,
    /// Seeded fault plan for the job's device (tests/chaos only).
    pub fault: Option<JobFault>,
}

impl JobRequest {
    /// A full-matrix request with default options and no budget.
    pub fn full(graph: Arc<CsrGraph>) -> JobRequest {
        JobRequest {
            graph,
            spec: JobSpec::Full,
            opts: ApspOptions::default(),
            deadline_ms: None,
            fault: None,
        }
    }

    /// A k-source partial request with default options and no budget.
    pub fn sources(graph: Arc<CsrGraph>, sources: Vec<VertexId>) -> JobRequest {
        JobRequest {
            graph,
            spec: JobSpec::Sources(sources),
            opts: ApspOptions::default(),
            deadline_ms: None,
            fault: None,
        }
    }
}

/// Typed service-layer failures — the degradation ladder's vocabulary.
/// Compute failures keep their [`ApspError`] typing; these cover what
/// can go wrong *around* the compute.
#[derive(Debug)]
pub enum ServiceError {
    /// The bounded admission queue is at capacity. Resubmit after the
    /// hinted backoff.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
        /// Predicted simulated milliseconds until a slot frees up.
        retry_after_ms: u64,
    },
    /// Admission control predicts the job's deadline would expire in the
    /// queue; it was turned away instead of admitted to die.
    Busy {
        /// Predicted simulated milliseconds of queue wait.
        retry_after_ms: u64,
    },
    /// The job was cancelled while still queued (never admitted to a
    /// device).
    JobCancelled {
        /// Where the cancellation landed.
        detail: String,
    },
    /// No job with this id was ever accepted.
    UnknownJob {
        /// The offending handle.
        id: JobId,
    },
    /// The job ran and failed; the compute error keeps its own typing.
    Compute(ApspError),
}

/// Coarse classification of a [`ServiceError`], mirroring
/// [`ApspErrorKind`] so harnesses and the CLI match on kinds, not
/// `Debug` strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceErrorKind {
    QueueFull,
    Busy,
    JobCancelled,
    UnknownJob,
    Compute(ApspErrorKind),
}

impl ServiceErrorKind {
    /// Stable machine-readable name (the `--error-json` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceErrorKind::QueueFull => "QueueFull",
            ServiceErrorKind::Busy => "Busy",
            ServiceErrorKind::JobCancelled => "JobCancelled",
            ServiceErrorKind::UnknownJob => "UnknownJob",
            ServiceErrorKind::Compute(k) => k.as_str(),
        }
    }

    /// The `apsp-run` process exit code for this kind (see the README
    /// exit-code table): service rejections get distinct codes so
    /// harnesses can branch on `$?` alone.
    pub fn exit_code(self) -> i32 {
        match self {
            ServiceErrorKind::Busy => 20,
            ServiceErrorKind::QueueFull => 21,
            ServiceErrorKind::JobCancelled => 22,
            ServiceErrorKind::UnknownJob => 2,
            ServiceErrorKind::Compute(_) => 1,
        }
    }
}

impl ServiceError {
    /// The error's coarse classification.
    pub fn kind(&self) -> ServiceErrorKind {
        match self {
            ServiceError::QueueFull { .. } => ServiceErrorKind::QueueFull,
            ServiceError::Busy { .. } => ServiceErrorKind::Busy,
            ServiceError::JobCancelled { .. } => ServiceErrorKind::JobCancelled,
            ServiceError::UnknownJob { .. } => ServiceErrorKind::UnknownJob,
            ServiceError::Compute(e) => ServiceErrorKind::Compute(e.kind()),
        }
    }

    /// The retry-after hint, when this rejection carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServiceError::QueueFull { retry_after_ms, .. }
            | ServiceError::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull {
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "admission queue full ({capacity} jobs); retry after ~{retry_after_ms} ms"
            ),
            ServiceError::Busy { retry_after_ms } => write!(
                f,
                "service busy: predicted queue wait exceeds the job deadline; \
                 retry after ~{retry_after_ms} ms"
            ),
            ServiceError::JobCancelled { detail } => write!(f, "job cancelled: {detail}"),
            ServiceError::UnknownJob { id } => write!(f, "unknown {id}"),
            ServiceError::Compute(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compute(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ApspError> for ServiceError {
    fn from(e: ApspError) -> Self {
        ServiceError::Compute(e)
    }
}

/// Cache key: what makes two jobs' bits interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a over the graph's structure and weights
    /// ([`graph_fingerprint`]).
    pub graph_fp: u64,
    /// FNV-1a over the result-shaping options ([`options_fingerprint`]).
    pub opts_fp: u64,
}

/// FNV-1a over everything that can change the *bits* of a result:
/// the forced algorithm (selection changes nothing on a healthy device,
/// but a forced algorithm must not alias the selector's pick), the SDC
/// guard mode (guards change recovery behaviour under faults), and the
/// requested sources (order-sensitive — row `i` is `sources[i]`).
///
/// Deliberately *excluded*: the execution backend and the storage
/// backend. Backend parity (scalar vs parallel, RAM vs disk) is a
/// repo-wide bit-identity contract enforced by the conformance suite,
/// so results computed under either are interchangeable — excluding
/// them is what makes the cache useful across heterogeneous replicas.
pub fn options_fingerprint(spec: &JobSpec, opts: &ApspOptions) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    let alg = match opts.algorithm {
        None => 0u8,
        Some(Algorithm::FloydWarshall) => 1,
        Some(Algorithm::Johnson) => 2,
        Some(Algorithm::Boundary) => 3,
    };
    h = fnv1a(&[alg], h);
    let guard = match opts.sdc_guard {
        crate::options::SdcGuardMode::Off => 0u8,
        crate::options::SdcGuardMode::Checksum => 1,
        crate::options::SdcGuardMode::Full => 2,
    };
    h = fnv1a(&[guard], h);
    match spec {
        JobSpec::Full => h = fnv1a(&[0xFFu8], h),
        JobSpec::Sources(srcs) => {
            h = fnv1a(&(srcs.len() as u64).to_le_bytes(), h);
            for &s in srcs {
                h = fnv1a(&s.to_le_bytes(), h);
            }
        }
    }
    h
}

/// The key for a request against its graph.
pub fn cache_key(req: &JobRequest) -> CacheKey {
    CacheKey {
        graph_fp: graph_fingerprint(&req.graph),
        opts_fp: options_fingerprint(&req.spec, &req.opts),
    }
}

/// A completed job's rows, checksummed for verification-on-hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRows {
    /// Row length (the graph's vertex count).
    pub n: usize,
    /// `None` for a full matrix (rows = `n`); the request-order source
    /// list for a partial query.
    pub sources: Option<Vec<VertexId>>,
    /// Row-major distances, `rows() × n`.
    pub data: Vec<Dist>,
    /// [`panel_checksum`](crate::tile_store::panel_checksum) per
    /// [`SDC_PANEL_ROWS`]-row panel, computed at insert time and
    /// re-verified on every cache hit.
    checksums: Vec<u64>,
}

impl ResultRows {
    /// Checksummed rows ready for caching/serving.
    pub fn new(n: usize, sources: Option<Vec<VertexId>>, data: Vec<Dist>) -> ResultRows {
        let checksums = Self::compute_checksums(n, &data);
        ResultRows {
            n,
            sources,
            data,
            checksums,
        }
    }

    /// Number of rows held.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.n).unwrap_or(0)
    }

    /// Row `i` (request order for partial results).
    pub fn row(&self, i: usize) -> &[Dist] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    fn compute_checksums(n: usize, data: &[Dist]) -> Vec<u64> {
        block_panel_checksums(data, n, SDC_PANEL_ROWS, 1)
    }

    /// Re-verify every panel checksum — the integrity gate a cache hit
    /// must pass before its bits are served.
    pub fn verify(&self) -> bool {
        self.checksums == Self::compute_checksums(self.n, &self.data)
    }
}

enum CacheLookup {
    Hit(Arc<ResultRows>),
    CorruptEvicted,
    Miss,
}

/// Deterministic LRU cache of verified results.
struct ResultCache {
    capacity: usize,
    /// Front = most recently used. Linear scan — the capacity is small
    /// and determinism beats hash-order surprises.
    entries: Vec<(CacheKey, Arc<ResultRows>)>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            entries: Vec::new(),
        }
    }

    fn lookup(&mut self, key: CacheKey) -> CacheLookup {
        let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) else {
            return CacheLookup::Miss;
        };
        let (k, rows) = self.entries.remove(pos);
        if !rows.verify() {
            // Corrupt at rest: evict, never serve. The caller recomputes.
            return CacheLookup::CorruptEvicted;
        }
        self.entries.insert(0, (k, Arc::clone(&rows)));
        CacheLookup::Hit(rows)
    }

    /// Insert (moving to most-recent); returns how many entries the
    /// capacity bound evicted.
    fn insert(&mut self, key: CacheKey, rows: Arc<ResultRows>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(0, (key, rows));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.entries.pop();
            evicted += 1;
        }
        evicted
    }

    /// Test hook: flip one bit of the cached data for `key` so the next
    /// hit's verification must catch it. Returns whether an entry was
    /// corrupted.
    fn corrupt_entry(&mut self, key: CacheKey) -> bool {
        for (k, rows) in &mut self.entries {
            if *k == key {
                let cloned = Arc::make_mut(rows);
                if let Some(v) = cloned.data.first_mut() {
                    *v ^= 1 << 7;
                    return true;
                }
            }
        }
        false
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated fleet: one entry per device slot. Every job runs on
    /// a *fresh* device built from its slot's profile (fault isolation);
    /// the slot accumulates the simulated seconds.
    pub devices: Vec<DeviceProfile>,
    /// Bound on queued (admitted, not yet run) jobs.
    pub queue_capacity: usize,
    /// Bound on cached results (0 disables the cache).
    pub cache_capacity: usize,
    /// When set, full-matrix jobs checkpoint per batch under
    /// `<root>/<key>/`; deadline- or cancel-killed jobs keep theirs for
    /// warm resubmission. `None` disables service-managed durability.
    pub checkpoint_root: Option<PathBuf>,
    /// Predictive admission control (the `Busy` rung). Off, only the
    /// queue bound sheds load.
    pub admission_control: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            devices: vec![DeviceProfile::v100()],
            queue_capacity: 32,
            cache_capacity: 16,
            checkpoint_root: None,
            admission_control: true,
        }
    }
}

/// Monotonic counters, exposed raw and in the service JSONL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Submissions seen (accepted or not).
    pub submitted: u64,
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs completed with verified rows (cache hits included).
    pub completed: u64,
    /// Jobs that ran and failed typed.
    pub failed: u64,
    /// Jobs whose deadline expired while still queued.
    pub expired: u64,
    /// Queued jobs cancelled before admission to a device.
    pub cancelled: u64,
    /// Submissions rejected by predictive admission control.
    pub rejected_busy: u64,
    /// Submissions rejected by the queue bound.
    pub rejected_queue_full: u64,
    /// Cache lookups served from a verified entry.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Entries evicted by the capacity bound.
    pub cache_evictions: u64,
    /// Entries evicted because their checksums no longer verified.
    pub cache_corrupt_evictions: u64,
}

/// How a finished job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Verified rows are available.
    Completed(CompletedJob),
    /// The run failed; the compute error keeps its typing.
    Failed(FailedJob),
    /// Cancelled while still queued.
    Cancelled {
        /// Where the cancellation landed.
        detail: String,
    },
}

impl JobState {
    /// Short stable tag for logs and JSONL.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Completed(_) => "completed",
            JobState::Failed(_) => "failed",
            JobState::Cancelled { .. } => "cancelled",
        }
    }
}

/// A completed job's result and accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The verified rows (shared with the cache).
    pub rows: Arc<ResultRows>,
    /// Which implementation ran (`None` for cache hits and partial
    /// queries, which always use the Johnson batch driver).
    pub algorithm: Option<Algorithm>,
    /// Served from the cache without touching a device.
    pub from_cache: bool,
    /// Fleet slot that ran the job (`None` for cache hits).
    pub device: Option<usize>,
    /// Simulated seconds the job's run took (0 for cache hits).
    pub sim_seconds: f64,
    /// Simulated seconds spent queued before the run started.
    pub queue_wait_s: f64,
}

/// A failed job's typed error and accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedJob {
    /// Coarse error classification.
    pub kind: ApspErrorKind,
    /// Human-readable failure detail.
    pub detail: String,
    /// Fleet slot that ran the job (`None` when it expired in the
    /// queue).
    pub device: Option<usize>,
    /// Whether a checkpoint survives for warm resubmission.
    pub checkpoint_kept: bool,
    /// Simulated seconds spent queued before the run (or expiry).
    pub queue_wait_s: f64,
}

/// What [`ApspService::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now cancelled — typed, immediate,
    /// zero residue (it never touched a device or disk).
    Dequeued,
    /// The job had already reached a terminal state; nothing to do.
    AlreadyTerminal,
}

struct Job {
    req: JobRequest,
    key: CacheKey,
    state: JobState,
    submitted_s: f64,
}

struct FleetSlot {
    profile: DeviceProfile,
    clock_s: f64,
}

/// The scheduler. See the module docs for the contract.
pub struct ApspService {
    cfg: ServiceConfig,
    fleet: Vec<FleetSlot>,
    queue: VecDeque<JobId>,
    jobs: BTreeMap<u64, Job>,
    cache: ResultCache,
    counters: ServiceCounters,
    next_id: u64,
    /// Learned simulated seconds per output row, EMA over completions.
    /// `None` until the first completion — admission control stays
    /// permissive until the service has evidence.
    secs_per_row: Option<f64>,
}

impl ApspService {
    /// A service over `cfg`'s fleet. Panics if the fleet is empty.
    pub fn new(cfg: ServiceConfig) -> ApspService {
        assert!(!cfg.devices.is_empty(), "service needs at least one device");
        let fleet = cfg
            .devices
            .iter()
            .map(|p| FleetSlot {
                profile: p.clone(),
                clock_s: 0.0,
            })
            .collect();
        let cache = ResultCache::new(cfg.cache_capacity);
        ApspService {
            cfg,
            fleet,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            cache,
            counters: ServiceCounters::default(),
            next_id: 1,
            secs_per_row: None,
        }
    }

    /// Current simulated service time: the earliest moment any fleet
    /// slot could accept work.
    pub fn now_s(&self) -> f64 {
        self.fleet
            .iter()
            .map(|s| s.clock_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ServiceCounters {
        self.counters
    }

    /// A job's current state.
    pub fn state(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(&id.0).map(|j| &j.state)
    }

    /// Ids of every job the service accepted, in submission order.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().map(|&id| JobId(id)).collect()
    }

    /// Predicted simulated seconds of queue wait for a newly admitted
    /// job, from the learned per-row rate and the current backlog.
    /// `None` until the first completion taught the service a rate.
    fn predicted_wait_s(&self) -> Option<f64> {
        let rate = self.secs_per_row?;
        let backlog_rows: usize = self
            .queue
            .iter()
            .filter_map(|id| self.jobs.get(&id.0))
            .map(|j| j.req.spec.rows(j.req.graph.num_vertices()).max(1))
            .sum();
        Some(backlog_rows as f64 * rate / self.fleet.len() as f64)
    }

    /// Submit a job. Degradation ladder, in order:
    ///
    /// 1. a verified cache hit completes immediately — even when the
    ///    queue is saturated (hits never consume a queue slot);
    /// 2. a corrupt cache entry is evicted and the job proceeds to
    ///    recompute (never served);
    /// 3. the queue bound rejects with [`ServiceError::QueueFull`] plus
    ///    a retry-after hint;
    /// 4. predictive admission control rejects deadline-carrying jobs
    ///    that would expire in the queue with [`ServiceError::Busy`];
    /// 5. otherwise the job is queued FIFO.
    pub fn submit(&mut self, req: JobRequest) -> Result<JobId, ServiceError> {
        self.counters.submitted += 1;
        let key = cache_key(&req);
        let now = self.now_s();
        if self.cfg.cache_capacity > 0 {
            match self.cache.lookup(key) {
                CacheLookup::Hit(rows) => {
                    self.counters.cache_hits += 1;
                    self.counters.completed += 1;
                    let id = self.alloc_id();
                    self.jobs.insert(
                        id.0,
                        Job {
                            req,
                            key,
                            state: JobState::Completed(CompletedJob {
                                rows,
                                algorithm: None,
                                from_cache: true,
                                device: None,
                                sim_seconds: 0.0,
                                queue_wait_s: 0.0,
                            }),
                            submitted_s: now,
                        },
                    );
                    return Ok(id);
                }
                CacheLookup::CorruptEvicted => {
                    self.counters.cache_corrupt_evictions += 1;
                    self.counters.cache_misses += 1;
                }
                CacheLookup::Miss => {
                    self.counters.cache_misses += 1;
                }
            }
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            let hint_s = self.predicted_wait_s().unwrap_or(1.0).max(1e-3);
            self.counters.rejected_queue_full += 1;
            return Err(ServiceError::QueueFull {
                capacity: self.cfg.queue_capacity,
                retry_after_ms: (hint_s * 1e3).ceil() as u64,
            });
        }
        if self.cfg.admission_control {
            if let (Some(deadline_ms), Some(wait_s)) = (req.deadline_ms, self.predicted_wait_s()) {
                if wait_s * 1e3 >= deadline_ms as f64 {
                    self.counters.rejected_busy += 1;
                    return Err(ServiceError::Busy {
                        retry_after_ms: (wait_s * 1e3).ceil() as u64,
                    });
                }
            }
        }
        self.counters.admitted += 1;
        let id = self.alloc_id();
        self.jobs.insert(
            id.0,
            Job {
                req,
                key,
                state: JobState::Queued,
                submitted_s: now,
            },
        );
        self.queue.push_back(id);
        Ok(id)
    }

    /// Cancel a job. A still-queued job is dequeued immediately with a
    /// typed [`JobState::Cancelled`] — it never touched a device, a
    /// checkpoint directory, or a spill file, so there is no residue to
    /// clean. A terminal job is left as-is.
    pub fn cancel(&mut self, id: JobId) -> Result<CancelOutcome, ServiceError> {
        let job = self
            .jobs
            .get_mut(&id.0)
            .ok_or(ServiceError::UnknownJob { id })?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled {
                    detail: format!("{id} cancelled while queued (never admitted to a device)"),
                };
                self.queue.retain(|&q| q != id);
                self.counters.cancelled += 1;
                Ok(CancelOutcome::Dequeued)
            }
            _ => Ok(CancelOutcome::AlreadyTerminal),
        }
    }

    /// Run the next queued job to completion on the least-loaded fleet
    /// slot. Returns the job id, or `None` if the queue is empty.
    pub fn pump_one(&mut self) -> Option<JobId> {
        let id = self.queue.pop_front()?;
        let slot = self.least_loaded_slot();
        let start_s = self.fleet[slot].clock_s;
        let job = self.jobs.get_mut(&id.0).expect("queued job exists");
        let wait_s = (start_s - job.submitted_s).max(0.0);
        let wait_ms = wait_s * 1e3;

        // Budget left after the queue wait. A job whose budget is
        // already spent fails typed without ever touching the device.
        let remaining_ms = match job.req.deadline_ms {
            Some(d) if wait_ms >= d as f64 => {
                job.state = JobState::Failed(FailedJob {
                    kind: ApspErrorKind::DeadlineExceeded,
                    detail: format!(
                        "{id} deadline of {d} ms expired in the admission queue \
                         (waited {wait_ms:.3} ms)"
                    ),
                    device: None,
                    checkpoint_kept: false,
                    queue_wait_s: wait_s,
                });
                self.counters.expired += 1;
                return Some(id);
            }
            Some(d) => Some(d - wait_ms as u64),
            None => None,
        };

        let mut opts = job.req.opts.clone();
        // The job-level budget arms the run supervisor with whatever the
        // queue left over (tightening any caller-set compute deadline).
        if let Some(rem) = remaining_ms {
            opts.supervision.deadline_ms = Some(match opts.supervision.deadline_ms {
                Some(d) => d.min(rem),
                None => rem,
            });
        }
        // Service-managed durability: checkpoint under a key-derived tag
        // so an identical resubmission resumes a killed run.
        let mut ckpt_dir = None;
        if let (Some(root), JobSpec::Full) = (&self.cfg.checkpoint_root, &job.req.spec) {
            let dir = root.join(format!(
                "job-{:016x}-{:016x}",
                job.key.graph_fp, job.key.opts_fp
            ));
            opts.checkpoint = Some(CheckpointOptions {
                dir: dir.clone(),
                resume: true,
            });
            ckpt_dir = Some(dir);
        }

        let mut dev = GpuDevice::new(self.fleet[slot].profile.clone());
        if let Some(fault) = job.req.fault {
            match fault {
                JobFault::AllocFailure { kth } => dev.inject_alloc_failure(kth),
                JobFault::KernelStall { kth, extra_seconds } => {
                    dev.inject_kernel_stall(kth, extra_seconds)
                }
                JobFault::DeviceBitFlip { kth, bit } => dev.inject_bit_flip(kth, bit),
            }
        }

        let graph = Arc::clone(&job.req.graph);
        let spec = job.req.spec.clone();
        let key = job.key;
        let outcome = run_job(&mut dev, &graph, &spec, &opts);
        let sim_seconds = dev.elapsed().seconds();
        self.fleet[slot].clock_s += sim_seconds;

        // A successful run cleared its checkpoint files; sweep the empty
        // directory too so a cancelled or completed job leaves zero
        // residue. `remove_dir` refuses non-empty dirs, so a checkpoint
        // kept after a failure is never touched.
        if let Some(d) = &ckpt_dir {
            let _ = std::fs::remove_dir(d);
        }

        let job = self.jobs.get_mut(&id.0).expect("job still exists");
        match outcome {
            Ok((rows, algorithm)) => {
                let rows = Arc::new(rows);
                let produced = rows.rows().max(1);
                if self.cfg.cache_capacity > 0 {
                    self.counters.cache_evictions += self.cache.insert(key, Arc::clone(&rows));
                }
                job.state = JobState::Completed(CompletedJob {
                    rows,
                    algorithm,
                    from_cache: false,
                    device: Some(slot),
                    sim_seconds,
                    queue_wait_s: wait_s,
                });
                self.counters.completed += 1;
                // Fold the realized rate into the admission predictor.
                let rate = sim_seconds / produced as f64;
                self.secs_per_row = Some(match self.secs_per_row {
                    Some(prev) => 0.5 * prev + 0.5 * rate,
                    None => rate,
                });
            }
            Err(e) => {
                let checkpoint_kept = ckpt_dir
                    .as_deref()
                    .is_some_and(|d| std::fs::read_dir(d).is_ok_and(|mut it| it.next().is_some()));
                job.state = JobState::Failed(FailedJob {
                    kind: e.kind(),
                    detail: e.to_string(),
                    device: Some(slot),
                    checkpoint_kept,
                    queue_wait_s: wait_s,
                });
                self.counters.failed += 1;
            }
        }
        Some(id)
    }

    /// Drain the queue, running every admitted job in submission order.
    pub fn run_until_idle(&mut self) {
        while self.pump_one().is_some() {}
    }

    /// Test hook: corrupt the cached entry that `req` would hit, so the
    /// next lookup's verification must evict it. Returns whether an
    /// entry was corrupted.
    pub fn corrupt_cache_entry_for_test(&mut self, req: &JobRequest) -> bool {
        self.cache.corrupt_entry(cache_key(req))
    }

    /// Deterministic service JSONL: one `service` summary record plus
    /// one `job` record per accepted job, validating against
    /// `schemas/telemetry.schema.json`.
    pub fn to_jsonl(&self) -> String {
        let c = self.counters;
        let max_clock = self.fleet.iter().map(|s| s.clock_s).fold(0.0, f64::max);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"record\":\"service\",\"devices\":{},\"queue_capacity\":{},\
             \"cache_capacity\":{},\"submitted\":{},\"admitted\":{},\"completed\":{},\
             \"failed\":{},\"expired\":{},\"cancelled\":{},\"rejected_busy\":{},\
             \"rejected_queue_full\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"cache_corrupt_evictions\":{},\"sim_seconds\":{:.6}}}\n",
            self.fleet.len(),
            self.cfg.queue_capacity,
            self.cfg.cache_capacity,
            c.submitted,
            c.admitted,
            c.completed,
            c.failed,
            c.expired,
            c.cancelled,
            c.rejected_busy,
            c.rejected_queue_full,
            c.cache_hits,
            c.cache_misses,
            c.cache_evictions,
            c.cache_corrupt_evictions,
            max_clock,
        ));
        for (&id, job) in &self.jobs {
            let n = job.req.graph.num_vertices();
            let (error, from_cache, device, sim_seconds, wait_s) = match &job.state {
                JobState::Queued => ("null".to_string(), false, None, None, 0.0),
                JobState::Completed(c) => (
                    "null".to_string(),
                    c.from_cache,
                    c.device,
                    Some(c.sim_seconds),
                    c.queue_wait_s,
                ),
                JobState::Failed(f) => (
                    format!("\"{}\"", f.kind.as_str()),
                    false,
                    f.device,
                    None,
                    f.queue_wait_s,
                ),
                JobState::Cancelled { .. } => {
                    ("\"JobCancelled\"".to_string(), false, None, None, 0.0)
                }
            };
            out.push_str(&format!(
                "{{\"record\":\"job\",\"id\":{},\"kind\":\"{}\",\"n\":{},\"rows\":{},\
                 \"state\":\"{}\",\"error\":{},\"from_cache\":{},\"device\":{},\
                 \"sim_seconds\":{},\"queue_wait_s\":{:.6}}}\n",
                id,
                job.req.spec.tag(),
                n,
                job.req.spec.rows(n),
                job.state.tag(),
                error,
                from_cache,
                device.map_or("null".to_string(), |d| d.to_string()),
                sim_seconds.map_or("null".to_string(), |s| format!("{s:.6}")),
                wait_s,
            ));
        }
        out
    }

    fn alloc_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    fn least_loaded_slot(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.fleet.iter().enumerate() {
            if s.clock_s < self.fleet[best].clock_s {
                best = i;
            }
        }
        best
    }
}

/// Execute one job on its fresh device. Full jobs go through the
/// [`apsp`] front-end (selector, fallback, checkpointing); partial jobs
/// through the Johnson source-batch driver under a supervisor armed
/// from the job's options.
fn run_job(
    dev: &mut GpuDevice,
    graph: &CsrGraph,
    spec: &JobSpec,
    opts: &ApspOptions,
) -> Result<(ResultRows, Option<Algorithm>), ApspError> {
    match spec {
        JobSpec::Full => {
            let result = apsp(graph, dev, opts)?;
            let n = graph.num_vertices();
            let mut data = Vec::with_capacity(n * n);
            for i in 0..n {
                data.extend_from_slice(&result.store.read_row(i)?);
            }
            Ok((ResultRows::new(n, None, data), Some(result.algorithm)))
        }
        JobSpec::Sources(srcs) => {
            let mut jopts = opts.johnson;
            jopts.exec = opts.exec;
            jopts.sdc_guard = opts.sdc_guard;
            let sup = Supervisor::new(&opts.supervision, dev.elapsed().seconds());
            let (data, _stats) = ooc_johnson_sources(dev, graph, srcs, &jopts, &sup)?;
            Ok((
                ResultRows::new(graph.num_vertices(), Some(srcs.clone()), data),
                None,
            ))
        }
    }
}

/// Seeded job-trace generation, shared by `apsp-run serve` and the
/// conformance chaos harness: a fixed seed yields a fixed sequence of
/// requests over a small pool of hot graphs, with a deterministic
/// sprinkling of partial queries, tight deadlines, fault plans, and
/// queued-cancel victims.
pub mod trace {
    use super::*;
    use apsp_graph::generators::{gnp, WeightRange};

    /// Knobs for [`seeded_jobs`].
    #[derive(Debug, Clone, Copy)]
    pub struct TraceConfig {
        /// Master seed; everything derives from it.
        pub seed: u64,
        /// Number of jobs to draw.
        pub jobs: usize,
        /// Hot-graph pool size (kept small so the cache sees repeats).
        pub graphs: usize,
        /// Fraction (0..=100) of jobs that are partial queries.
        pub sources_pct: u64,
        /// Fraction (0..=100) of jobs carrying a tight deadline.
        pub tight_deadline_pct: u64,
        /// Fraction (0..=100) of jobs carrying an injected device fault.
        pub fault_pct: u64,
        /// Fraction (0..=100) of jobs flagged for queued cancellation.
        pub cancel_pct: u64,
    }

    impl Default for TraceConfig {
        fn default() -> Self {
            TraceConfig {
                seed: 0x5EED,
                jobs: 12,
                graphs: 3,
                sources_pct: 40,
                tight_deadline_pct: 15,
                fault_pct: 25,
                cancel_pct: 10,
            }
        }
    }

    /// One trace entry: the request plus whether the driver should
    /// cancel it while it is still queued.
    #[derive(Debug, Clone)]
    pub struct TraceJob {
        /// The request to submit.
        pub request: JobRequest,
        /// The harness cancels this job before pumping the queue.
        pub cancel_while_queued: bool,
    }

    /// The seeded hot-graph pool: small G(n,p) graphs with distinct
    /// seeds, sized so full jobs take several batches on a small device.
    pub fn graph_pool(cfg: &TraceConfig) -> Vec<Arc<CsrGraph>> {
        let mut state = cfg.seed ^ 0x9E37_79B9_7F4A_7C15;
        (0..cfg.graphs.max(1))
            .map(|_| {
                let n = 60 + (splitmix64(&mut state) % 60) as usize;
                let gseed = splitmix64(&mut state);
                Arc::new(gnp(n, 0.06, WeightRange::default(), gseed))
            })
            .collect()
    }

    /// Draw the job sequence. Deterministic: same config, same jobs.
    pub fn seeded_jobs(cfg: &TraceConfig) -> Vec<TraceJob> {
        let pool = graph_pool(cfg);
        let mut state = cfg.seed;
        let mut jobs = Vec::with_capacity(cfg.jobs);
        for _ in 0..cfg.jobs {
            let graph = Arc::clone(&pool[(splitmix64(&mut state) % pool.len() as u64) as usize]);
            let n = graph.num_vertices();
            let spec = if splitmix64(&mut state) % 100 < cfg.sources_pct {
                let k = 1 + (splitmix64(&mut state) % 8) as usize;
                let sources = (0..k)
                    .map(|_| (splitmix64(&mut state) % n as u64) as VertexId)
                    .collect();
                JobSpec::Sources(sources)
            } else {
                JobSpec::Full
            };
            let mut opts = ApspOptions {
                // Chaos jobs run fully guarded: an injected flip must be
                // recovered bit-identical or surfaced typed, never
                // silently wrong.
                sdc_guard: crate::options::SdcGuardMode::Full,
                ..ApspOptions::default()
            };
            opts.johnson.sdc_guard = opts.sdc_guard;
            opts.boundary.sdc_guard = opts.sdc_guard;
            opts.fw.sdc_guard = opts.sdc_guard;
            let deadline_ms = if splitmix64(&mut state) % 100 < cfg.tight_deadline_pct {
                // Tight but not degenerate: some expire, some squeak by.
                Some(1 + splitmix64(&mut state) % 50)
            } else {
                Some(60_000) // watchdog bound: no job may hang forever
            };
            let fault = if splitmix64(&mut state) % 100 < cfg.fault_pct {
                Some(match splitmix64(&mut state) % 3 {
                    0 => JobFault::AllocFailure {
                        kth: 2 + splitmix64(&mut state) % 4,
                    },
                    1 => JobFault::KernelStall {
                        kth: 1 + splitmix64(&mut state) % 4,
                        extra_seconds: 0.05,
                    },
                    _ => JobFault::DeviceBitFlip {
                        kth: 1 + splitmix64(&mut state) % 6,
                        bit: splitmix64(&mut state) % 30,
                    },
                })
            } else {
                None
            };
            let cancel_while_queued = splitmix64(&mut state) % 100 < cfg.cancel_pct;
            jobs.push(TraceJob {
                request: JobRequest {
                    graph,
                    spec,
                    opts,
                    deadline_ms,
                    fault,
                },
                cancel_while_queued,
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SdcGuardMode;
    use crate::tile_store::StorageBackend;
    use apsp_cpu::{bgl_plus_apsp, dijkstra_sssp, ExecBackend};
    use apsp_graph::generators::{gnp, WeightRange};

    fn small_graph(seed: u64) -> Arc<CsrGraph> {
        Arc::new(gnp(80, 0.06, WeightRange::default(), seed))
    }

    fn small_service() -> ApspService {
        ApspService::new(ServiceConfig {
            devices: vec![DeviceProfile::v100().with_memory_bytes(512 << 10)],
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn result_rows_verify_catches_a_one_bit_flip_in_any_panel() {
        // 150 rows of 37: three panels, the last one short.
        let (n, rows) = (37, 150);
        let data: Vec<Dist> = (0..(rows * n) as u32)
            .map(|v| v.wrapping_mul(2_654_435_761))
            .collect();
        let clean = ResultRows::new(n, None, data);
        assert!(clean.verify());
        assert_eq!(clean.checksums.len(), rows.div_ceil(SDC_PANEL_ROWS));
        for panel in 0..clean.checksums.len() {
            for (row, bit) in [(0, 0), (SDC_PANEL_ROWS / 2, 31), (SDC_PANEL_ROWS - 1, 13)] {
                let i = (panel * SDC_PANEL_ROWS + row).min(rows - 1);
                let mut bad = clean.clone();
                bad.data[i * n + (row + bit) % n] ^= 1 << bit;
                assert!(!bad.verify(), "panel {panel} row {i} bit {bit}");
            }
        }
    }

    #[test]
    fn full_job_matches_oracle_and_caches() {
        let g = small_graph(1);
        let reference = bgl_plus_apsp(&g);
        let mut svc = small_service();
        let id = svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
        svc.run_until_idle();
        let JobState::Completed(done) = svc.state(id).unwrap() else {
            panic!("job did not complete: {:?}", svc.state(id));
        };
        assert!(!done.from_cache);
        let n = g.num_vertices();
        for i in 0..n {
            assert_eq!(done.rows.row(i), reference.row(i), "row {i}");
        }
        let first_bits = done.rows.data.clone();

        // Second submission of the identical request: served from cache,
        // byte-identical, no device time.
        let id2 = svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
        let JobState::Completed(hit) = svc.state(id2).unwrap() else {
            panic!("cache hit should complete at submit");
        };
        assert!(hit.from_cache);
        assert_eq!(hit.rows.data, first_bits);
        assert_eq!(svc.counters().cache_hits, 1);
        assert_eq!(svc.counters().cache_misses, 1);
    }

    #[test]
    fn sources_job_matches_dijkstra_rows() {
        let g = small_graph(2);
        let sources: Vec<VertexId> = vec![5, 0, 79, 33];
        let mut svc = small_service();
        let id = svc
            .submit(JobRequest::sources(Arc::clone(&g), sources.clone()))
            .unwrap();
        svc.run_until_idle();
        let JobState::Completed(done) = svc.state(id).unwrap() else {
            panic!("partial job failed: {:?}", svc.state(id));
        };
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(done.rows.row(i), &dijkstra_sssp(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn corrupt_cache_entry_is_evicted_and_recomputed() {
        let g = small_graph(3);
        let mut svc = small_service();
        let req = JobRequest::full(Arc::clone(&g));
        let id = svc.submit(req.clone()).unwrap();
        svc.run_until_idle();
        let JobState::Completed(done) = svc.state(id).unwrap() else {
            panic!("seed job failed");
        };
        let clean_bits = done.rows.data.clone();
        assert!(svc.corrupt_cache_entry_for_test(&req));
        // The poisoned entry must be evicted, not served.
        let id2 = svc.submit(req.clone()).unwrap();
        assert!(matches!(svc.state(id2), Some(JobState::Queued)));
        svc.run_until_idle();
        let JobState::Completed(recomputed) = svc.state(id2).unwrap() else {
            panic!("recompute failed");
        };
        assert!(!recomputed.from_cache);
        assert_eq!(recomputed.rows.data, clean_bits, "recompute must be exact");
        assert_eq!(svc.counters().cache_corrupt_evictions, 1);
        // And the freshly inserted entry serves verified hits again.
        let id3 = svc.submit(req).unwrap();
        let JobState::Completed(hit) = svc.state(id3).unwrap() else {
            panic!("post-recovery hit failed");
        };
        assert!(hit.from_cache);
        assert_eq!(hit.rows.data, clean_bits);
    }

    #[test]
    fn queue_bound_rejects_typed_with_hint_but_serves_cache_hits() {
        let g = small_graph(4);
        let mut svc = ApspService::new(ServiceConfig {
            devices: vec![DeviceProfile::v100().with_memory_bytes(512 << 10)],
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        // Warm the cache with one completed job.
        let warm = JobRequest::full(Arc::clone(&g));
        svc.submit(warm.clone()).unwrap();
        svc.run_until_idle();
        // Saturate the queue with distinct work.
        for seed in 10..12 {
            svc.submit(JobRequest::full(small_graph(seed))).unwrap();
        }
        let err = svc.submit(JobRequest::full(small_graph(99))).unwrap_err();
        assert_eq!(err.kind(), ServiceErrorKind::QueueFull);
        assert!(err.retry_after_ms().unwrap() >= 1);
        // Degradation contract: the cache hit is served even though the
        // compute queue is saturated.
        let hit_id = svc.submit(warm).unwrap();
        let JobState::Completed(hit) = svc.state(hit_id).unwrap() else {
            panic!("saturated queue must not block cache hits");
        };
        assert!(hit.from_cache);
        assert_eq!(svc.counters().rejected_queue_full, 1);
    }

    #[test]
    fn admission_control_rejects_doomed_deadlines_busy() {
        let g = small_graph(5);
        let mut svc = ApspService::new(ServiceConfig {
            devices: vec![DeviceProfile::v100().with_memory_bytes(512 << 10)],
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        // Teach the predictor a rate.
        svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
        svc.run_until_idle();
        assert!(svc.secs_per_row.is_some());
        // Build a deep backlog of full jobs.
        for seed in 20..28 {
            svc.submit(JobRequest::full(small_graph(seed))).unwrap();
        }
        // A job that must finish within a microsecond-scale budget is
        // doomed behind that backlog: typed Busy, with a hint.
        let mut doomed = JobRequest::full(small_graph(97));
        doomed.deadline_ms = Some(1);
        let err = svc.submit(doomed).unwrap_err();
        assert_eq!(err.kind(), ServiceErrorKind::Busy);
        assert!(err.retry_after_ms().unwrap() >= 1);
        assert_eq!(svc.counters().rejected_busy, 1);
    }

    #[test]
    fn queued_cancel_is_immediate_typed_and_residue_free() {
        let root = std::env::temp_dir().join("apsp_service_cancel_residue");
        let _ = std::fs::remove_dir_all(&root);
        let g = small_graph(6);
        let sibling_ref = bgl_plus_apsp(&g);
        let mut svc = ApspService::new(ServiceConfig {
            devices: vec![DeviceProfile::v100().with_memory_bytes(512 << 10)],
            checkpoint_root: Some(root.clone()),
            ..ServiceConfig::default()
        });
        let sibling = svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
        let victim = svc.submit(JobRequest::full(small_graph(77))).unwrap();
        assert_eq!(svc.cancel(victim).unwrap(), CancelOutcome::Dequeued);
        let JobState::Cancelled { detail } = svc.state(victim).unwrap() else {
            panic!("victim not cancelled: {:?}", svc.state(victim));
        };
        assert!(detail.contains("queued"));
        svc.run_until_idle();
        // Victim never ran: no checkpoint/spill residue anywhere under
        // the service root except the sibling's (cleared on success).
        let residue: Vec<_> = std::fs::read_dir(&root)
            .map(|d| d.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        assert!(
            residue.is_empty(),
            "cancelled-queued job left residue: {residue:?}"
        );
        // Sibling bits unperturbed.
        let JobState::Completed(done) = svc.state(sibling).unwrap() else {
            panic!("sibling failed: {:?}", svc.state(sibling));
        };
        for i in 0..g.num_vertices() {
            assert_eq!(done.rows.row(i), sibling_ref.row(i));
        }
        assert_eq!(svc.counters().cancelled, 1);
        // Cancelling a terminal job is a typed no-op; unknown ids are
        // typed errors.
        assert_eq!(svc.cancel(victim).unwrap(), CancelOutcome::AlreadyTerminal);
        assert_eq!(
            svc.cancel(JobId(999)).unwrap_err().kind(),
            ServiceErrorKind::UnknownJob
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn faulty_job_fails_typed_without_poisoning_siblings() {
        let g = small_graph(7);
        let reference = bgl_plus_apsp(&g);
        let mut svc = small_service();
        // A job whose device refuses every allocation from the 1st on —
        // even the graph hold fails, so no algorithm can start.
        let mut poisoned = JobRequest::full(small_graph(55));
        poisoned.fault = Some(JobFault::AllocFailure { kth: 1 });
        poisoned.opts.supervision.retry.max_retries = 0;
        let bad = svc.submit(poisoned).unwrap();
        let good = svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
        svc.run_until_idle();
        let JobState::Failed(f) = svc.state(bad).unwrap() else {
            panic!("faulted job should fail, got {:?}", svc.state(bad));
        };
        assert!(
            matches!(
                f.kind,
                ApspErrorKind::OutOfDeviceMemory | ApspErrorKind::DeviceTooSmall
            ),
            "{:?}",
            f.kind
        );
        // The sibling on the same fleet slot is bit-exact: the fault
        // died with the bad job's device.
        let JobState::Completed(done) = svc.state(good).unwrap() else {
            panic!("sibling failed: {:?}", svc.state(good));
        };
        for i in 0..g.num_vertices() {
            assert_eq!(done.rows.row(i), reference.row(i));
        }
    }

    #[test]
    fn expired_deadline_fails_typed_and_checkpoint_survives_for_warm_resubmit() {
        let root = std::env::temp_dir().join("apsp_service_warm_resubmit");
        let _ = std::fs::remove_dir_all(&root);
        let g = small_graph(8);
        // A device slowed 1000× brings the run into the milliseconds
        // regime the deadline knob can actually carve up (the full run
        // takes ~0.5 s of simulated time, across many batch commits).
        let mut slow = DeviceProfile::v100().with_memory_bytes(32 << 10);
        slow.compute_ops_per_sec /= 1e3;
        slow.mem_bandwidth /= 1e3;
        slow.h2d_bytes_per_sec /= 1e3;
        slow.d2h_bytes_per_sec /= 1e3;
        slow.kernel_launch_overhead *= 1e3;
        slow.dynamic_launch_overhead *= 1e3;
        slow.transfer_latency *= 1e3;
        let mut svc = ApspService::new(ServiceConfig {
            devices: vec![slow],
            checkpoint_root: Some(root.clone()),
            cache_capacity: 0, // force the resubmit to actually run
            ..ServiceConfig::default()
        });
        // Force Johnson so progress commits per batch, with a budget too
        // small to finish but big enough to commit some batches.
        let mut req = JobRequest::full(Arc::clone(&g));
        req.opts.algorithm = Some(Algorithm::Johnson);
        // 5 batches of ~370 ms each: the budget expires around batch 4,
        // after several per-batch commits are durable.
        req.deadline_ms = Some(1200);
        let id = svc.submit(req.clone()).unwrap();
        svc.run_until_idle();
        let JobState::Failed(f) = svc.state(id).unwrap() else {
            panic!("deadline job should fail, got {:?}", svc.state(id));
        };
        assert_eq!(f.kind, ApspErrorKind::DeadlineExceeded);
        assert!(
            f.checkpoint_kept,
            "checkpoint must be kept for resubmission"
        );
        // Warm resubmission without the budget resumes and completes
        // bit-exact.
        req.deadline_ms = None;
        let id2 = svc.submit(req).unwrap();
        svc.run_until_idle();
        let JobState::Completed(done) = svc.state(id2).unwrap() else {
            panic!("resubmission failed: {:?}", svc.state(id2));
        };
        let reference = bgl_plus_apsp(&g);
        for i in 0..g.num_vertices() {
            assert_eq!(done.rows.row(i), reference.row(i));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fleet_spreads_jobs_deterministically() {
        let mut svc = ApspService::new(ServiceConfig {
            devices: vec![
                DeviceProfile::v100().with_memory_bytes(512 << 10),
                DeviceProfile::v100().with_memory_bytes(512 << 10),
            ],
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let mut slots = Vec::new();
        for seed in 0..4 {
            let id = svc.submit(JobRequest::full(small_graph(seed))).unwrap();
            svc.run_until_idle();
            let JobState::Completed(done) = svc.state(id).unwrap() else {
                panic!("job failed");
            };
            slots.push(done.device.unwrap());
        }
        // Least-loaded dispatch alternates across an initially idle pair.
        assert_eq!(slots[0], 0);
        assert_eq!(slots[1], 1);
        assert!(svc.now_s() > 0.0);
    }

    #[test]
    fn jsonl_is_deterministic_and_schema_valid() {
        let schema_src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/telemetry.schema.json"
        ))
        .expect("schema file");
        let schema = crate::telemetry::parse_json(&schema_src).unwrap();
        let render = || {
            let mut svc = small_service();
            let g = small_graph(9);
            svc.submit(JobRequest::full(Arc::clone(&g))).unwrap();
            svc.submit(JobRequest::sources(Arc::clone(&g), vec![1, 2]))
                .unwrap();
            let victim = svc.submit(JobRequest::full(small_graph(98))).unwrap();
            svc.cancel(victim).unwrap();
            let mut doomed = JobRequest::full(small_graph(96));
            doomed.fault = Some(JobFault::AllocFailure { kth: 1 });
            doomed.opts.supervision.retry.max_retries = 1;
            svc.submit(doomed).unwrap();
            svc.run_until_idle();
            svc.to_jsonl()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "service JSONL must be deterministic");
        crate::telemetry::validate_jsonl(&a, &schema).unwrap();
        assert!(a.contains("\"record\":\"service\""));
        assert!(a.contains("\"state\":\"cancelled\""));
    }

    // ---- satellite 3: cache-key correctness ----------------------------

    #[test]
    fn graph_fingerprint_is_stable_across_backends_and_exec_modes() {
        let g = gnp(90, 0.05, WeightRange::default(), 11);
        let fp = graph_fingerprint(&g);
        // The fingerprint hashes the graph alone — recomputing it while
        // results live in different stores or exec modes cannot move it.
        let dir = std::env::temp_dir().join("apsp_service_fp_disk");
        let _ = std::fs::remove_dir_all(&dir);
        for backend in [StorageBackend::Memory, StorageBackend::Disk(dir.clone())] {
            let mut store = crate::tile_store::TileStore::new(90, &backend).unwrap();
            store.write_row(0, &[0; 90]).unwrap();
            assert_eq!(graph_fingerprint(&g), fp, "backend {backend:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        for exec in [
            ExecBackend::Scalar,
            ExecBackend::Parallel { threads: Some(2) },
        ] {
            let opts = ApspOptions {
                exec,
                ..ApspOptions::default()
            };
            // exec is excluded from the options fingerprint too: results
            // are bit-identical across backends (conformance contract).
            assert_eq!(
                options_fingerprint(&JobSpec::Full, &opts),
                options_fingerprint(&JobSpec::Full, &ApspOptions::default()),
                "exec {exec:?} must not shift the cache key"
            );
        }
        // An identically-generated graph fingerprints identically; a
        // reweighted one does not.
        assert_eq!(
            graph_fingerprint(&gnp(90, 0.05, WeightRange::default(), 11)),
            fp
        );
        assert_ne!(
            graph_fingerprint(&gnp(90, 0.05, WeightRange::default(), 12)),
            fp
        );
    }

    #[test]
    fn options_fingerprint_is_sensitive_where_bits_can_differ() {
        let base = ApspOptions::default();
        let full = options_fingerprint(&JobSpec::Full, &base);

        let mut guarded = base.clone();
        guarded.sdc_guard = SdcGuardMode::Full;
        assert_ne!(
            options_fingerprint(&JobSpec::Full, &guarded),
            full,
            "SdcGuardMode must not collide"
        );

        let mut forced = base.clone();
        forced.algorithm = Some(Algorithm::Boundary);
        assert_ne!(
            options_fingerprint(&JobSpec::Full, &forced),
            full,
            "forced algorithm must not collide"
        );

        let s12 = options_fingerprint(&JobSpec::Sources(vec![1, 2]), &base);
        let s21 = options_fingerprint(&JobSpec::Sources(vec![2, 1]), &base);
        let s1 = options_fingerprint(&JobSpec::Sources(vec![1]), &base);
        assert_ne!(s12, full, "sources vs full must not collide");
        assert_ne!(s12, s21, "source order is part of the result");
        assert_ne!(s12, s1, "source count is part of the result");
        // Storage backend is excluded: bit-identity across stores is the
        // conformance contract.
        let mut disk = base.clone();
        disk.storage = StorageBackend::Disk(std::env::temp_dir().join("x"));
        assert_eq!(options_fingerprint(&JobSpec::Full, &disk), full);
    }

    #[test]
    fn result_rows_verification_catches_any_flip() {
        let rows = ResultRows::new(3, None, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(rows.verify());
        for i in 0..9 {
            let mut bad = rows.clone();
            bad.data[i] ^= 1 << 3;
            assert!(!bad.verify(), "flip at {i} undetected");
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = trace::TraceConfig {
            jobs: 40,
            ..trace::TraceConfig::default()
        };
        let a = trace::seeded_jobs(&cfg);
        let b = trace::seeded_jobs(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request.spec, y.request.spec);
            assert_eq!(x.request.deadline_ms, y.request.deadline_ms);
            assert_eq!(x.request.fault, y.request.fault);
            assert_eq!(x.cancel_while_queued, y.cancel_while_queued);
            assert_eq!(
                graph_fingerprint(&x.request.graph),
                graph_fingerprint(&y.request.graph)
            );
        }
        // The trace exercises the interesting paths.
        assert!(a
            .iter()
            .any(|j| matches!(j.request.spec, JobSpec::Sources(_))));
        assert!(a.iter().any(|j| j.request.fault.is_some()));
    }
}

//! serve-hot: one closed-loop client against `ApspService` — submit,
//! `run_until_idle`, then the next job. `submit` stamps jobs at the
//! fleet's simulated clock and the service has no real-time arrival
//! path, so the workload reports throughput and latency rather than a
//! rate sweep. The traced run adds a burst pass, the only one in which
//! jobs wait in the admission queue.

use crate::solve;
use crate::workload::{exec, pushed, splitmix64, v100_with, Scale, SolveSpec};
use crate::{setup_owed, stats, timed, Outcome, RunConfig, SETUP_REPS};
use apsp_core::{ApspOptions, ApspService, CostModels, JobRequest, JobState, ServiceConfig};
use apsp_cpu::dijkstra_sssp;
use apsp_gpu_sim::DeviceProfile;
use apsp_graph::generators::{gnp, WeightRange};
use apsp_graph::{CsrGraph, VertexId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Jobs per pass. Every pass replays the same requests on a fresh,
/// cold service, so simulated percentiles over whole passes repeat
/// exactly. A long pass keeps the seed's share of cache hits close to
/// its expectation.
const PASS_JOBS: usize = 1000;
/// Jobs per pass at [`Scale::Small`].
const SMALL_PASS_JOBS: usize = 40;
/// The mix repeats every 20 jobs: 3 `Full` (15%) and 17 `Sources`.
const CYCLE: usize = 20;
/// The service's admission-queue bound.
const QUEUE_CAPACITY: usize = 16;

fn profile() -> DeviceProfile {
    v100_with(512 << 10)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        devices: vec![profile(), profile()],
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: 8,
        checkpoint_root: None,
        admission_control: true,
    }
}

/// The hot pool: four G(n, 0.02) graphs of fixed sizes, so seeds vary
/// the instances but not the work per job class.
fn pool(cfg: &RunConfig) -> Vec<Arc<CsrGraph>> {
    let sizes: [usize; 4] = match cfg.scale {
        Scale::Full => [256, 272, 288, 304],
        Scale::Small => [40, 48, 56, 64],
    };
    let mut state = cfg.seed ^ 0x5E4E_407D_0000_0001;
    sizes
        .iter()
        .map(|&n| Arc::new(gnp(n, 0.02, WeightRange::default(), splitmix64(&mut state))))
        .collect()
}

fn job_options() -> ApspOptions {
    ApspOptions {
        exec: exec(),
        ..ApspOptions::default()
    }
}

/// One pass's requests, drawn as `core::service::trace::seeded_jobs`
/// draws them: every job picks its graph uniformly from the pool, and a
/// `Sources` job picks k = 1–8 sources uniformly. Only the mix is fixed
/// — `Full` (selector on) in slots 0, 7 and 14 of every 20 — so every
/// pass holds exactly 15% `Full` whatever the seed. Nothing is repeated
/// on purpose: the cache hits when a `Full` job finds its graph's
/// matrix among the last 8 results, or when a query recurs by chance.
fn requests(cfg: &RunConfig, pool: &[Arc<CsrGraph>]) -> Vec<JobRequest> {
    let jobs = match cfg.scale {
        Scale::Full => PASS_JOBS,
        Scale::Small => SMALL_PASS_JOBS,
    };
    let mut state = cfg.seed ^ 0x0005_EEDC_1053_D100;
    (0..jobs)
        .map(|j| {
            let g = Arc::clone(&pool[(splitmix64(&mut state) % pool.len() as u64) as usize]);
            let mut req = if (j % CYCLE).is_multiple_of(7) {
                JobRequest::full(g)
            } else {
                let k = 1 + (splitmix64(&mut state) % 8) as usize;
                let n = g.num_vertices() as u64;
                let sources = (0..k)
                    .map(|_| (splitmix64(&mut state) % n) as VertexId)
                    .collect();
                JobRequest::sources(g, sources)
            };
            req.opts = job_options();
            req
        })
        .collect()
}

/// One served job, measured and verified.
struct Served {
    /// Host wall seconds from `submit` to the end of the drain: the
    /// job's latency in the closed loop, its burst's in a burst pass.
    wall: f64,
    /// `queue_wait_s + sim_seconds`.
    sim: f64,
    queue_wait: f64,
    full_run: bool,
}

/// Per-call wall times of the traced loop.
#[derive(Default)]
struct CallTimes {
    submit: Vec<f64>,
    pump: Vec<f64>,
}

/// Run one pass on a fresh, cold service, submitting `burst` jobs
/// before each drain. `burst` 1 is the closed loop: submit,
/// `run_until_idle`, next job. With `calls`, time every `submit` and
/// `pump_one` apart (the traced loop).
fn pass(
    reqs: &[JobRequest],
    burst: usize,
    fingerprints: &mut BTreeMap<usize, u64>,
    out: &mut Outcome,
    mut calls: Option<&mut CallTimes>,
) -> (Vec<Served>, apsp_core::ServiceCounters) {
    let mut svc = ApspService::new(service_config());
    let mut served = Vec::with_capacity(reqs.len());
    for (b, chunk) in reqs.chunks(burst).enumerate() {
        out.attempted += chunk.len() as u64;
        let t0 = Instant::now();
        let ids: Vec<_> = chunk
            .iter()
            .map(|req| match &mut calls {
                Some(c) => {
                    let (id, wall) = timed(|| svc.submit(req.clone()));
                    c.submit.push(wall);
                    id
                }
                None => svc.submit(req.clone()),
            })
            .collect();
        match &mut calls {
            Some(c) => loop {
                let (next, wall) = timed(|| svc.pump_one());
                if next.is_none() {
                    break;
                }
                c.pump.push(wall);
            },
            None => svc.run_until_idle(),
        }
        let wall = t0.elapsed().as_secs_f64();
        for (i, (req, id)) in chunk.iter().zip(ids).enumerate() {
            let j = b * burst + i;
            let id = match id {
                Ok(id) => id,
                Err(e) => {
                    out.fail(format!("job {j} rejected: {e}"));
                    continue;
                }
            };
            match svc.state(id) {
                Some(JobState::Completed(done)) => {
                    if let Err(e) = check_rows(req, &done.rows, j, fingerprints) {
                        out.fail(format!("job {j}: {e}"));
                        continue;
                    }
                    served.push(Served {
                        wall,
                        sim: done.queue_wait_s + done.sim_seconds,
                        queue_wait: done.queue_wait_s,
                        full_run: done.algorithm.is_some(),
                    });
                }
                other => out.fail(format!("job {j} ended {:?}", other.map(JobState::tag))),
            }
        }
    }
    (served, svc.counters())
}

/// Verify served rows: panel checksums (`ResultRows::verify`), one
/// sampled row against Dijkstra, and for full matrices the same bits as
/// every earlier full result on that graph.
fn check_rows(
    req: &JobRequest,
    rows: &apsp_core::ResultRows,
    j: usize,
    fingerprints: &mut BTreeMap<usize, u64>,
) -> Result<(), String> {
    if !rows.verify() {
        return Err("served rows fail their checksums".into());
    }
    let g = &req.graph;
    let n = g.num_vertices();
    let (row, source) = match &req.spec {
        apsp_core::JobSpec::Sources(s) => {
            let i = j % s.len();
            (i, s[i])
        }
        apsp_core::JobSpec::Full => {
            let i = j % n;
            let fp = rows.data.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &d| {
                (h ^ u64::from(d)).wrapping_mul(0x0100_0000_01B3)
            });
            if *fingerprints.entry(n).or_insert(fp) != fp {
                return Err("full matrix differs from an earlier one on the same graph".into());
            }
            (i, i as VertexId)
        }
    };
    if rows.row(row) != dijkstra_sssp(g, source).as_slice() {
        return Err(format!("row of source {source} differs from Dijkstra"));
    }
    Ok(())
}

/// Check that a pass reproduced the warm-up pass's simulated times.
fn check_repeat(reference: &[Served], served: &[Served], out: &mut Outcome) {
    let same = reference.len() == served.len()
        && reference
            .iter()
            .zip(served)
            .all(|(a, b)| a.sim.to_bits() == b.sim.to_bits());
    if !same {
        out.fail("a pass did not repeat the warm-up pass's simulated times".into());
    }
}

/// Take set-up samples until `owed` are in hand: calibration for the
/// profile (the first fills the process cache the jobs use) plus
/// service construction.
fn setup_until(owed: usize, samples: &mut Vec<f64>) {
    while samples.len() < owed {
        let first = samples.is_empty();
        let (_, wall) = timed(|| {
            if first {
                CostModels::calibrate_cached(&profile());
            } else {
                CostModels::calibrate(&profile());
            }
            ApspService::new(service_config())
        });
        samples.push(wall);
    }
}

/// End-to-end metrics of the closed loop, over whole passes, with
/// set-up samples spread across the window.
pub fn end_to_end(cfg: &RunConfig, out: &mut Outcome) {
    let mut setup = Vec::new();
    setup_until(1, &mut setup);
    let pool = pool(cfg);
    let reqs = requests(cfg, &pool);
    let mut fingerprints = BTreeMap::new();
    let (reference, _) = pass(&reqs, 1, &mut fingerprints, out, None);
    let start = Instant::now();
    let mut all: Vec<Served> = Vec::new();
    while out.failed == 0 && (all.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds) {
        let (served, _) = pass(&reqs, 1, &mut fingerprints, out, None);
        check_repeat(&reference, &served, out);
        all.extend(served);
        setup_until(
            setup_owed(start.elapsed().as_secs_f64(), cfg.seconds),
            &mut setup,
        );
    }
    setup_until(SETUP_REPS, &mut setup);
    out.fingerprint = fingerprints.values().copied().collect();
    let walls: Vec<f64> = all.iter().map(|s| s.wall).collect();
    let sims: Vec<f64> = all.iter().map(|s| s.sim).collect();
    let full: Vec<&Served> = all.iter().filter(|s| s.full_run).collect();
    if walls.is_empty() || full.is_empty() {
        out.fail("no job completed a full solve".into());
        return;
    }
    let full_walls: Vec<f64> = full.iter().map(|s| s.wall).collect();
    let full_sims: Vec<f64> = full.iter().map(|s| s.sim).collect();
    out.notes.push(stats::describe("setup_s", "s", &setup));
    out.notes.push(stats::describe("job wall", "s", &walls));
    out.notes
        .push(stats::describe("full-solve wall", "s", &full_walls));
    out.measured("setup_s", "s", stats::median(&setup));
    out.measured("solve_wall_s", "s", stats::median(&full_walls));
    out.exact("solve_sim_s", "sim_s", stats::median(&full_sims));
    out.measured(
        "serve_jobs_per_s",
        "jobs/s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.measured("serve_wall_p50_s", "s", stats::median(&walls));
    out.measured("serve_wall_p95_s", "s", stats::percentile(&walls, 95.0));
    // In the closed loop the one outstanding job is stamped at the
    // fleet's earliest clock and starts on that slot, so its queue wait
    // is 0 and this is the p95 of `sim_seconds` alone.
    out.exact("serve_sim_p95_s", "sim_s", stats::percentile(&sims, 95.0));
}

/// Per-layer metrics: the traced loop times each `submit` and
/// `pump_one`; one full job on the largest pool graph is decomposed into
/// direct layer calls like the solve workloads.
pub fn traced(cfg: &RunConfig, out: &mut Outcome) {
    let pool = pool(cfg);
    let largest = pool
        .iter()
        .max_by_key(|g| g.num_vertices())
        .expect("the pool is not empty");
    let spec = SolveSpec {
        graph: (**largest).clone(),
        profile: profile(),
        opts: pushed(job_options()),
        disk: false,
        checkpoint: false,
    };
    // Cold calibration and the decomposition first, then the loop.
    solve::traced(cfg, &spec, out);
    let reqs = requests(cfg, &pool);
    let mut fingerprints = BTreeMap::new();
    let (reference, _) = pass(&reqs, 1, &mut fingerprints, out, None);
    let mut calls = CallTimes::default();
    let (served, counters) = pass(&reqs, 1, &mut fingerprints, out, Some(&mut calls));
    check_repeat(&reference, &served, out);
    // The closed loop never queues (see `end_to_end`), so the queue is
    // measured in a burst pass: a full queue's worth of jobs submitted
    // before each drain, none turned away.
    let (burst, _) = pass(&reqs, QUEUE_CAPACITY, &mut fingerprints, out, None);
    if calls.submit.is_empty() || calls.pump.is_empty() || served.is_empty() || burst.is_empty() {
        out.fail("the traced loop completed no job".into());
        return;
    }
    out.notes
        .push(stats::describe("submit", "s", &calls.submit));
    out.notes
        .push(stats::describe("pump_one", "s", &calls.pump));
    out.measured("service.submit_s", "s", stats::median(&calls.submit));
    out.measured("service.pump_s", "s", stats::median(&calls.pump));
    let lookups = counters.cache_hits + counters.cache_misses;
    out.exact(
        "service.cache_hit_ratio",
        "ratio",
        counters.cache_hits as f64 / lookups.max(1) as f64,
    );
    let waits: Vec<f64> = burst.iter().map(|s| s.queue_wait).collect();
    out.exact(
        "service.queue_wait_sim_p95_s",
        "sim_s",
        stats::percentile(&waits, 95.0),
    );
}

/// The service metrics of workloads that never touch the service.
pub fn bypassed(out: &mut Outcome) {
    out.measured("service.submit_s", "s", 0.0);
    out.measured("service.pump_s", "s", 0.0);
    out.exact("service.cache_hit_ratio", "ratio", 0.0);
    out.exact("service.queue_wait_sim_p95_s", "sim_s", 0.0);
}

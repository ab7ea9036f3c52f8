//! The serving workloads. Every request is timed at the client and its
//! outcome checked against the batch reference as it arrives.

use crate::schedule;
use crate::setup::{rss_mb, same_outcome, Artefacts};
use crate::stats::Sample;
use crate::trace::{Span, SpanBuf};
use benchgen::Instance;
use rts_core::abstention::MitigationPolicy;
use rts_core::pipeline::JointOutcome;
use rts_core::session::resolve_flag;
use rts_serve::{
    ClientEvent, Engine, ServeConfig, ServeOutcome, ServingStats, ShardedEngine, SubmitError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClosedHot,
    ClosedChurn,
    WireClosed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ClosedHot,
        Workload::ClosedChurn,
        Workload::WireClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedHot => "closed-hot",
            Workload::ClosedChurn => "closed-churn",
            Workload::WireClosed => "wire-closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The churning workload: dev ∪ test traffic on 2 shards with a
    /// small context cache, drift invalidations, and every feedback
    /// park checkpointed.
    pub fn churns(self) -> bool {
        self == Workload::ClosedChurn
    }

    /// The instances the workload draws from: the dev split (14
    /// databases) for the hot workloads, dev ∪ test (28 databases) for
    /// the churning one.
    pub fn population(self, art: &Artefacts) -> Vec<Instance> {
        let split = &art.bench.split;
        if self.churns() {
            split.dev.iter().chain(&split.test).cloned().collect()
        } else {
            split.dev.clone()
        }
    }
}

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// The churning workload invalidates one database before every this
/// many requests of its first client.
pub const DRIFT_EVERY: usize = 50;
/// `rss_mb` is the peak over the timed phase's first this many
/// completions, so every run measures memory over the same amount of
/// served work whatever its throughput.
pub const RSS_COMPLETIONS: usize = 10_000;
/// A phase whose clients are still waiting this long after its
/// duration has lost a request: the run fails rather than hangs.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Context-cache capacity per shard and link target: all 14 dev
/// databases for the hot workloads, 4 for the churning one.
const HOT_CACHE: usize = 16;
const CHURN_CACHE: usize = 4;

/// The instances a workload draws from and each one's batch-runtime
/// outcome.
#[derive(Clone, Copy)]
pub struct Population<'a> {
    pub instances: &'a [Instance],
    pub reference: &'a [JointOutcome],
}

/// What the correctness check made of a completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Shed, timed out, faulted or drained.
    Degraded,
    /// Differs from the batch reference.
    Mismatch,
}

/// One completed request as the client saw it. Only the figures the
/// benchmark reports are kept, so the harness's own memory stays small
/// next to the engine's.
pub struct Done {
    /// Index into the workload population.
    pub inst: usize,
    pub sample: Sample,
    pub verdict: Verdict,
    /// Tables and columns both exactly match gold.
    pub exact: bool,
    /// Human answers the request consumed.
    pub n_feedback: usize,
    /// Branching flags raised over all rounds.
    pub n_flags: usize,
}

impl Done {
    fn new(pop: Population, inst: usize, sample: Sample, o: &ServeOutcome) -> Done {
        let verdict = if o.shed || o.timed_out || o.faulted || o.drained {
            Verdict::Degraded
        } else if same_outcome(&o.outcome, &pop.reference[inst]) {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        };
        let (t, c) = (&o.outcome.tables, &o.outcome.columns);
        Done {
            inst,
            sample,
            verdict,
            exact: t.correct && c.correct,
            n_feedback: o.n_feedback,
            n_flags: t.n_flags + c.n_flags,
        }
    }
}

/// One phase of a workload run: the warm pass or the timed loop.
pub struct Phase {
    pub label: &'static str,
    pub attempted: usize,
    pub done: Vec<Done>,
    /// Submits bounced by admission control and retried.
    pub bounces: u64,
    /// Peak resident memory over the first [`RSS_COMPLETIONS`]
    /// completions.
    pub rss_peak_mb: f64,
    /// Completions the memory peak covers.
    pub rss_completions: usize,
    pub spans: Vec<Span>,
}

/// A whole workload run: the untimed warm pass, then the timed closed
/// loop.
pub struct Run {
    pub warm: Phase,
    pub timed: Phase,
    /// Engine counters after the drain.
    pub stats: ServingStats,
    pub steals: u64,
    /// Completed requests per shard.
    pub shard_completed: Vec<u64>,
}

impl Run {
    pub fn phases(&self) -> [&Phase; 2] {
        [&self.warm, &self.timed]
    }
}

fn engine_config(workload: Workload, art: &Artefacts) -> (usize, ServeConfig) {
    let base = ServeConfig {
        workers: 2,
        rts: art.rts_config(),
        ..ServeConfig::default()
    };
    if workload.churns() {
        let config = ServeConfig {
            cache_capacity: CHURN_CACHE,
            parked_bytes_budget: 1,
            ..base
        };
        (2, config)
    } else {
        let config = ServeConfig {
            cache_capacity: HOT_CACHE,
            ..base
        };
        (1, config)
    }
}

/// Assemble a run from its phases and the drained engine's counters.
fn finish(engine: &ShardedEngine, warm: Phase, timed: Phase) -> Run {
    Run {
        warm,
        timed,
        stats: engine.stats(),
        steals: engine.steals(),
        shard_completed: (0..engine.n_shards())
            .map(|i| engine.shard_stats(i).map_or(0, |s| s.completed))
            .collect(),
    }
}

/// One instance per database, for the untimed warm pass.
fn warm_set(pop: &[Instance]) -> Vec<usize> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for (i, inst) in pop.iter().enumerate() {
        if !seen.contains(&inst.db_name.as_str()) {
            seen.push(&inst.db_name);
            out.push(i);
        }
    }
    out
}

/// Run `workload` once on a fresh engine: an untimed warm pass that
/// fills the context cache, then the timed closed loop.
pub fn run(
    workload: Workload,
    art: &Artefacts,
    pop: Population,
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Run {
    let dur = Duration::from_secs_f64(seconds);
    if workload == Workload::WireClosed {
        return wire_run(art, pop, seed, dur, trace, origin);
    }
    let (shards, config) = engine_config(workload, art);
    let engine = ShardedEngine::new(
        &art.linker,
        &art.mbpp_tables,
        &art.mbpp_columns,
        &art.bench.metas,
        shards,
        config,
    );
    let dbs = database_names(pop.instances);
    let drift = workload.churns().then_some(dbs.as_slice());
    let (warm, timed) = with_workers(&engine, || {
        closed_phases(&engine, pop, seed, drift, dur, trace, origin)
    });
    finish(&engine, warm, timed)
}

impl Phase {
    fn empty(label: &'static str) -> Phase {
        Phase {
            label,
            attempted: 0,
            done: Vec::new(),
            bounces: 0,
            rss_peak_mb: 0.0,
            rss_completions: 0,
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, part: Phase) {
        self.attempted += part.attempted;
        self.done.extend(part.done);
        self.bounces += part.bounces;
        self.spans.extend(part.spans);
    }
}

/// Run `body` while the engine's workers serve, then drain and join.
fn with_workers<T>(engine: &ShardedEngine, body: impl FnOnce() -> T) -> T {
    std::thread::scope(|s| {
        for i in 0..engine.workers_total() {
            s.spawn(move || engine.worker_loop(i));
        }
        let out = body();
        engine.shutdown();
        out
    })
}

/// Database names in first-appearance order.
fn database_names(pop: &[Instance]) -> Vec<String> {
    rts_bench::openloop::group_by_database(pop)
        .into_iter()
        .map(|(db, _)| db)
        .collect()
}

/// Schema drift in a closed loop: the databases to draw from and the
/// phase's drift seed.
#[derive(Clone, Copy)]
struct Drift<'a> {
    dbs: &'a [String],
    seed: u64,
}

/// The closed-loop warm pass plus the timed phase against any engine
/// surface. With `drift`, the first client invalidates a seeded
/// database before every [`DRIFT_EVERY`]-th request.
#[allow(clippy::too_many_arguments)]
fn closed_phases<E: Engine>(
    engine: &E,
    pop: Population,
    seed: u64,
    drift: Option<&[String]>,
    dur: Duration,
    trace: bool,
    origin: Instant,
) -> (Phase, Phase) {
    let warm_order = warm_set(pop.instances);
    let warm = closed_phase(
        engine,
        pop,
        &warm_order,
        1,
        None,
        None,
        "warm",
        trace,
        origin,
    );
    let order = schedule::closed_order(seed, pop.instances.len());
    let drift = drift.map(|dbs| Drift { dbs, seed });
    let timed = closed_phase(
        engine,
        pop,
        &order,
        CLIENTS,
        Some(dur),
        drift,
        "timed",
        trace,
        origin,
    );
    (warm, timed)
}

/// Live counts of a phase, shared by its clients and its watcher.
#[derive(Default)]
struct Progress {
    running: AtomicUsize,
    attempted: AtomicUsize,
    completed: AtomicUsize,
}

/// `clients` threads cycle `order` (each from its own offset) until
/// `dur` has passed — or, with no duration, make one pass together.
#[allow(clippy::too_many_arguments)]
fn closed_phase<E: Engine>(
    engine: &E,
    pop: Population,
    order: &[usize],
    clients: usize,
    dur: Option<Duration>,
    drift: Option<Drift>,
    label: &'static str,
    trace: bool,
    origin: Instant,
) -> Phase {
    let start = Instant::now();
    let progress = Progress {
        running: AtomicUsize::new(clients),
        ..Progress::default()
    };
    let mut phase = Phase::empty(label);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let progress = &progress;
                s.spawn(move || {
                    let oracle = Artefacts::oracle();
                    let policy = MitigationPolicy::Human(&oracle);
                    let mut buf = SpanBuf::new(origin, trace);
                    let steps: Box<dyn Iterator<Item = usize>> = match dur {
                        Some(_) => Box::new(
                            order
                                .iter()
                                .copied()
                                .cycle()
                                .skip(c * order.len() / clients),
                        ),
                        None => Box::new(order.iter().copied().skip(c).step_by(clients)),
                    };
                    let mut out = Phase::empty(label);
                    let mut drift = drift.filter(|_| c == 0).map(|d| {
                        (
                            d.dbs,
                            schedule::drift_points(d.seed, DRIFT_EVERY, d.dbs.len()).peekable(),
                        )
                    });
                    for (n, inst) in steps.enumerate() {
                        if dur.is_some_and(|d| start.elapsed() >= d) {
                            break;
                        }
                        if let Some((dbs, points)) = &mut drift {
                            while let Some((_, db)) = points.next_if(|&(at, _)| at == n) {
                                engine.invalidate_db(&dbs[db]);
                            }
                        }
                        progress.attempted.fetch_add(1, Ordering::SeqCst);
                        if closed_request(engine, &policy, pop, inst, start, &mut buf, &mut out) {
                            progress.completed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    progress.running.fetch_sub(1, Ordering::SeqCst);
                    out.spans = buf.spans;
                    out
                })
            })
            .collect();
        let deadline = start + dur.unwrap_or_default() + DRAIN_GRACE;
        (phase.rss_peak_mb, phase.rss_completions) = watch(&progress, label, deadline);
        for h in handles {
            let part = h.join().expect("closed-loop client panicked");
            phase.absorb(part);
        }
    });
    phase
}

/// Watch a phase until its clients finish. Returns the peak resident
/// memory, sampled every 50 ms over the first [`RSS_COMPLETIONS`]
/// completions, and the completions it covers. A phase still running
/// at `deadline` has lost a request that would block its client for
/// good: the run reports the loss and exits non-zero.
fn watch(progress: &Progress, label: &str, deadline: Instant) -> (f64, usize) {
    let mut peak = rss_mb();
    let mut covered = 0;
    while progress.running.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(50));
        let completed = progress.completed.load(Ordering::SeqCst);
        if covered < RSS_COMPLETIONS {
            peak = peak.max(rss_mb());
            covered = completed;
        }
        if Instant::now() > deadline {
            let attempted = progress.attempted.load(Ordering::SeqCst);
            eprintln!(
                "[perfbench] FAILED: {label}: {} of {attempted} requests still not done {} s after the phase ended",
                attempted - completed,
                DRAIN_GRACE.as_secs()
            );
            std::process::exit(1);
        }
    }
    (peak, covered.min(RSS_COMPLETIONS))
}

/// Submit one request and drive it to `Done`, answering feedback with
/// the expert oracle. Returns whether the request completed; one that
/// never does counts as attempted and not done.
#[allow(clippy::too_many_arguments)]
fn closed_request<E: Engine>(
    engine: &E,
    policy: &MitigationPolicy<'_>,
    pop: Population,
    inst: usize,
    phase_start: Instant,
    buf: &mut SpanBuf,
    out: &mut Phase,
) -> bool {
    let instance = &pop.instances[inst];
    let req = crate::trace::request_id();
    out.attempted += 1;
    let t0 = Instant::now();
    let root = buf.open();
    let Some(ticket) = submit_with_retry(engine, instance, &mut out.bounces) else {
        return false;
    };
    buf.leaf(root, req, "engine.submit", t0, Instant::now());
    let Some(outcome) = drive_to_done(engine, ticket, instance, policy, root, req, buf) else {
        return false;
    };
    let t1 = Instant::now();
    buf.close(root, 0, req, "request", t0, t1);
    let sample = Sample {
        done_s: (t1 - phase_start).as_secs_f64(),
        latency_ms: (t1 - t0).as_secs_f64() * 1e3,
    };
    out.done.push(Done::new(pop, inst, sample, &outcome));
    true
}

/// Submit, retrying admission bounces; `None` on a hard error.
fn submit_with_retry<E: Engine>(
    engine: &E,
    inst: &Instance,
    bounces: &mut u64,
) -> Option<E::Ticket> {
    loop {
        match engine.submit(0, inst) {
            Ok(t) => return Some(t),
            Err(SubmitError::QueueFull { .. } | SubmitError::QuotaExceeded { .. }) => {
                *bounces += 1;
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => {
                eprintln!("submit of instance {} failed: {e}", inst.id);
                return None;
            }
        }
    }
}

/// Wait on `ticket` until it is done, answering every feedback query;
/// `None` if the engine retired the ticket first.
#[allow(clippy::too_many_arguments)]
fn drive_to_done<E: Engine>(
    engine: &E,
    ticket: E::Ticket,
    inst: &Instance,
    policy: &MitigationPolicy<'_>,
    root: u64,
    req: u64,
    buf: &mut SpanBuf,
) -> Option<ServeOutcome> {
    loop {
        let tw = Instant::now();
        let event = engine.wait_event(ticket);
        buf.leaf(root, req, "engine.wait", tw, Instant::now());
        match event {
            ClientEvent::NeedsFeedback { query, .. } => {
                let resolution = buf.time(root, req, "feedback.answer", || {
                    resolve_flag(policy, inst, &query)
                });
                // A rejected answer leaves the ticket waiting; the
                // outcome check catches any resulting difference.
                let _ = buf.time(root, req, "engine.resolve", || {
                    engine.resolve(ticket, &query, resolution)
                });
            }
            ClientEvent::Done(outcome) => return Some(outcome),
            ClientEvent::Retired => {
                eprintln!("ticket {ticket} retired before it completed");
                return None;
            }
        }
    }
}

/// `closed-hot` behind an in-process `rts-served` server on a loopback
/// listener, driven through one shared `RtsClient` connection.
fn wire_run(
    art: &Artefacts,
    pop: Population,
    seed: u64,
    dur: Duration,
    trace: bool,
    origin: Instant,
) -> Run {
    let (shards, config) = engine_config(Workload::WireClosed, art);
    let engine = Arc::new(ShardedEngine::with_artifacts(
        Arc::new(art.linker.clone()),
        Arc::new(art.mbpp_tables.clone()),
        Arc::new(art.mbpp_columns.clone()),
        art.bench.metas.iter().cloned().map(Arc::new).collect(),
        shards,
        config,
    ));
    let fingerprint = rts_serve::wire::corpus_fingerprint(
        "bird",
        crate::setup::SCALE,
        crate::setup::CORPUS_SEED,
        art.linker.corpus(),
    );
    let server = rts_served::Server::new(
        Arc::clone(&engine),
        fingerprint.clone(),
        pop.instances.iter().cloned(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let (warm, timed) = std::thread::scope(|s| {
        for i in 0..engine.workers_total() {
            let engine = &engine;
            s.spawn(move || engine.worker_loop(i));
        }
        let serving = s.spawn(|| server.serve(listener));
        let result = match rts_client::RtsClient::connect(&addr, Some(&fingerprint)) {
            Ok(client) => {
                let out = closed_phases(&client, pop, seed, None, dur, trace, origin);
                client.shutdown();
                client.bye();
                Some(out)
            }
            Err(e) => {
                eprintln!("cannot connect to the loopback server: {e}");
                server.begin_shutdown();
                None
            }
        };
        if let Ok(Err(e)) = serving.join() {
            eprintln!("server accept loop failed: {e}");
        }
        result
    })
    .unwrap_or_else(|| (Phase::empty("warm"), Phase::empty("timed")));
    finish(&engine, warm, timed)
}

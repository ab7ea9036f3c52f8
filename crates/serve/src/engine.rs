//! One shard of the serving engine: the queues, tickets, context cache
//! and counters that drive concurrent resumable linking sessions for
//! the databases routed to it. [`crate::ShardedEngine`] owns one or
//! more of these and runs every worker; see the crate docs for the
//! design overview.

use crate::checkpoint;
use crate::error::{ResolveError, SubmitError};
use crate::fault::{FaultPlan, FaultSite, InjectedPanic};
use crate::stats::{Counters, LatencySummary, LatencyWindow, ServingStats};
use crate::tenant::{FairQueue, TenantId, TenantQuota, TicketId};
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use parking_lot::{Condvar, Mutex};
use rts_core::abstention::{LinkScratch, RtsConfig, RtsOutcome};
use rts_core::bpp::Mbpp;
use rts_core::context::ContextCache;
use rts_core::pipeline::JointOutcome;
use rts_core::session::{
    CtxHandle, FlagQuery, FlagResolution, Handle, LinkSession, SessionCheckpoint, SessionState,
};
use simlm::{LinkTarget, SchemaLinker};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total worker budget of the pool, split evenly (rounded up)
    /// across shards. The caller spawns
    /// [`crate::ShardedEngine::workers_total`] threads on
    /// [`crate::ShardedEngine::worker_loop`] (the engine itself never
    /// spawns — scoped threads keep every borrow checked).
    pub workers: usize,
    /// Admission-queue bound across all tenants; submits beyond it are
    /// rejected ([`SubmitError::QueueFull`]). `0` = unbounded. Resumed
    /// sessions never count against admission — they were already
    /// admitted.
    pub queue_capacity: usize,
    /// Per-tenant admission quota (max in-flight / max parked;
    /// `0` = unbounded). Submissions beyond it are rejected with
    /// [`SubmitError::QuotaExceeded`], so backpressure lands on the
    /// tenant generating the load instead of on everyone.
    pub quota: TenantQuota,
    /// Per-request latency budget. A request past it is *shed*: its
    /// remaining linking stages degrade to abstention (the answer is
    /// "hand off to a human", never a dropped connection). `None`
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// How long a session may stay parked on one feedback query. Past
    /// it the flag is resolved as [`FlagResolution::Abstain`] — the
    /// paper's own hand-off verdict — and the request completes
    /// (degrade, never drop; same philosophy as deadline shedding).
    /// `None` = park forever.
    pub feedback_timeout: Option<Duration>,
    /// Budget for live generation state held by parked sessions. Past
    /// it the engine serializes the largest parked sessions through the
    /// serde shim (dropping their hidden-state stacks) and restores
    /// them bit-identically when feedback arrives. `0` = never
    /// checkpoint.
    pub parked_bytes_budget: usize,
    /// Context-cache capacity per link target (databases); `0` =
    /// unbounded.
    pub cache_capacity: usize,
    /// Deterministic fault-injection schedule (see [`crate::fault`]).
    /// Disabled by default — one predictable branch per site.
    pub fault: FaultPlan,
    /// How many times a panicked step is rebuilt from its salvage
    /// checkpoint and retried before the ticket degrades to a
    /// `faulted` abstention.
    pub step_retry_budget: usize,
    /// Base backoff before a step retry; doubles per consecutive panic
    /// of the same ticket. `ZERO` retries immediately.
    pub step_retry_backoff: Duration,
    /// Runtime knobs threaded into every session (merge seed, round
    /// cap).
    pub rts: RtsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: rts_core::par::thread_count(),
            queue_capacity: 64,
            quota: TenantQuota::default(),
            deadline: None,
            feedback_timeout: None,
            parked_bytes_budget: 0,
            cache_capacity: 0,
            fault: FaultPlan::disabled(),
            step_retry_budget: 2,
            step_retry_backoff: Duration::from_micros(100),
            rts: RtsConfig::default(),
        }
    }
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Joint table+column linking outcome — abstained stages included
    /// (whether decided by the runtime, deadline shedding, or a
    /// feedback timeout).
    pub outcome: JointOutcome,
    /// Did deadline shedding degrade any stage to abstention?
    pub shed: bool,
    /// Did a feedback timeout resolve any of this request's flags to
    /// abstention?
    pub timed_out: bool,
    /// Did an unrecoverable fault (a step panicking past the retry
    /// budget, an unsalvageable checkpoint) degrade this request to
    /// abstention? Successfully *recovered* faults leave the outcome
    /// byte-identical to a fault-free run and do not set this.
    pub faulted: bool,
    /// Did a shutdown drain resolve a pending flag of this request to
    /// abstention (nothing would ever answer it)?
    pub drained: bool,
    /// Submit-to-completion wall time.
    pub latency: Duration,
    /// Feedback resolutions this request consumed (client answers only
    /// — timeout resolutions are counted in the engine stats instead).
    pub n_feedback: usize,
}

/// What [`crate::Engine::wait_event`] delivers to a client.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// The request is suspended on a branching flag of `target`
    /// linking; answer through [`crate::Engine::resolve`].
    NeedsFeedback {
        target: LinkTarget,
        query: FlagQuery,
    },
    /// The request finished; the ticket is now invalid.
    Done(ServeOutcome),
    /// The ticket no longer exists — its outcome was already collected
    /// (a previous `wait_event` returned [`ClientEvent::Done`]) or it
    /// was never issued. Polling a dead ticket used to panic; a typed
    /// event keeps client bugs out of the engine.
    Retired,
}

/// Request lifecycle. `Running` exists so a worker can own the session
/// outside the state lock while clients still see a coherent phase.
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    AwaitingFeedback(FlagQuery),
    Done(ServeOutcome),
}

#[derive(Debug)]
struct Ticket {
    tenant: TenantId,
    inst: Arc<Instance>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// When a parked session times out into abstention (`None` while
    /// not parked or with timeouts disabled).
    park_deadline: Option<Instant>,
    /// Stage currently being linked (tables first, then columns —
    /// mirroring `run_joint_linking_in`'s joint process).
    stage: LinkTarget,
    session: Option<LinkSession<'static>>,
    /// Serialized session state when the parked-bytes budget evicted
    /// the live session (mutually exclusive with `session`).
    checkpoint: Option<Vec<u8>>,
    /// A resolution that arrived while the session was checkpointed;
    /// the worker applies it after restoring.
    pending_resolution: Option<FlagResolution>,
    /// Salvage recipe: the checkpoint captured at the last park. If a
    /// later step *panics* (losing the live session), the worker
    /// rebuilds from this — generation is deterministic, so the retry
    /// is bit-identical. A few hundred bytes per parked ticket.
    salvage: Option<SessionCheckpoint>,
    /// The resolution applied to the live session at unpark, kept so a
    /// salvage rebuild can re-apply it (the salvage checkpoint predates
    /// it).
    salvage_resolution: Option<FlagResolution>,
    /// Live parked bytes billed for this ticket (0 once checkpointed).
    parked_billed: usize,
    tables: Option<RtsOutcome>,
    n_feedback: usize,
    timed_out: bool,
    /// Set when a shutdown drain resolved a pending flag of this ticket
    /// to abstention.
    drained: bool,
    phase: Phase,
}

#[derive(Debug)]
struct EngineState {
    /// Per-tenant sub-queues with deficit-round-robin dispatch;
    /// resumed sessions drain before admissions so feedback-ready work
    /// never starves behind fresh arrivals.
    queues: FairQueue,
    tickets: HashMap<TicketId, Ticket>,
    next_id: TicketId,
    /// Lower bound on the earliest parked-feedback deadline (`None` =
    /// no parked deadline). Tightened on every park, recomputed exactly
    /// by the expiry sweep; may be stale-early after an unpark, which
    /// only costs one harmless extra sweep — and spares every dispatch
    /// the O(tickets) scan while nothing can have lapsed.
    next_timeout: Option<Instant>,
}

/// One shard of a [`crate::ShardedEngine`]. Holds `Arc` clones of the
/// pool's model artefacts; sessions, queues and the context cache live
/// inside. Workers drive it through [`Shard::try_process_one`] and
/// [`Shard::wait_for_work`]; clients reach it through the pool's
/// [`crate::Engine`] impl.
pub(crate) struct Shard {
    model: Arc<SchemaLinker>,
    mbpp_tables: Arc<Mbpp>,
    mbpp_columns: Arc<Mbpp>,
    metas: HashMap<String, Arc<DbMeta>>,
    cache: ContextCache,
    config: ServeConfig,
    state: Mutex<EngineState>,
    /// Wakes workers (new/resumed work, shutdown).
    work_cv: Condvar,
    /// Wakes clients (ticket phase transitions).
    client_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    completed: AtomicU64,
    /// Bounded: percentiles are computed over the most recent
    /// [`LATENCY_WINDOW`] completions, and memory stays O(1) however
    /// long the engine lives.
    latencies_ms: Mutex<LatencyWindow>,
}

/// Completed-request latency samples retained for percentile
/// reporting (a sliding window, oldest overwritten first).
const LATENCY_WINDOW: usize = 1 << 16;

impl Shard {
    /// Build a shard over already-shared artefacts, so every shard of a
    /// pool points at the same trained weights. No contexts are
    /// compiled here — they materialize lazily, per database, on first
    /// request.
    pub(crate) fn new(
        model: Arc<SchemaLinker>,
        mbpp_tables: Arc<Mbpp>,
        mbpp_columns: Arc<Mbpp>,
        metas: Vec<Arc<DbMeta>>,
        config: ServeConfig,
    ) -> Self {
        Self {
            model,
            mbpp_tables,
            mbpp_columns,
            metas: metas.into_iter().map(|m| (m.name.clone(), m)).collect(),
            cache: ContextCache::new(config.cache_capacity),
            config,
            state: Mutex::new(EngineState {
                queues: FairQueue::new(1),
                tickets: HashMap::new(),
                next_id: 0,
                next_timeout: None,
            }),
            work_cv: Condvar::new(),
            client_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            completed: AtomicU64::new(0),
            latencies_ms: Mutex::new(LatencyWindow::new(LATENCY_WINDOW)),
        }
    }

    fn meta_of(&self, inst: &Instance) -> Option<Arc<DbMeta>> {
        self.metas.get(inst.db_name.as_str()).cloned()
    }

    /// Override a tenant's fair-share weight (default 1): a tenant with
    /// weight `w` is dispatched `w` admissions per scheduling cycle.
    pub(crate) fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.state.lock().queues.set_weight(tenant, weight);
    }

    /// Signal schema drift for `db`: drop its cached `LinkContext`s so
    /// *new* sessions rebuild against the current metadata. Sessions
    /// already in flight finish on their pinned `Arc<LinkContext>` —
    /// invalidation never changes what a running request holds.
    /// Returns the number of cached contexts dropped.
    pub(crate) fn invalidate_db(&self, db: &str) -> usize {
        self.counters
            .db_invalidations
            .fetch_add(1, Ordering::Relaxed);
        self.cache.invalidate_db(db)
    }

    /// Admit a request by `tenant` for joint (tables → columns) linking
    /// of `inst` (cloned into the ticket — the engine owns everything a
    /// parked session may need past the caller's scope). Per-tenant
    /// quotas are checked before the global queue bound, so an
    /// over-quota tenant sees its own error, not everyone's.
    pub(crate) fn submit(
        &self,
        tenant: TenantId,
        inst: &Instance,
    ) -> Result<TicketId, SubmitError> {
        // Fail fast on unknown databases, before any queue state
        // changes — a typed rejection, never a worker panic later.
        if self.meta_of(inst).is_none() {
            return Err(SubmitError::UnknownDatabase {
                database: inst.db_name.clone(),
            });
        }
        let now = Instant::now();
        let mut st = self.state.lock();
        let quota = self.config.quota;
        let load = st.queues.load(tenant);
        if quota.max_in_flight > 0 && load.in_flight >= quota.max_in_flight {
            self.counters.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QuotaExceeded {
                tenant,
                limit: quota.max_in_flight,
            });
        }
        if quota.max_parked > 0 && load.parked >= quota.max_parked {
            self.counters.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QuotaExceeded {
                tenant,
                limit: quota.max_parked,
            });
        }
        if self.config.queue_capacity > 0 && st.queues.n_admission() >= self.config.queue_capacity {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.tickets.insert(
            id,
            Ticket {
                tenant,
                inst: Arc::new(inst.clone()),
                submitted: now,
                deadline: self.config.deadline.map(|d| now + d),
                park_deadline: None,
                stage: LinkTarget::Tables,
                session: None,
                checkpoint: None,
                pending_resolution: None,
                salvage: None,
                salvage_resolution: None,
                parked_billed: 0,
                tables: None,
                n_feedback: 0,
                timed_out: false,
                drained: false,
                phase: Phase::Queued,
            },
        );
        st.queues.push_admission(tenant, id);
        st.queues.note_admitted(tenant);
        self.counters.note_depth(st.queues.queued_len());
        drop(st);
        self.work_cv.notify_one();
        Ok(id)
    }

    /// Block until the ticket's state *differs* from `last_seen` — the
    /// query the caller already has in hand, or `None` when it has seen
    /// nothing yet, which makes this the level-triggered
    /// [`crate::Engine::wait_event`]. On [`ClientEvent::Done`] the
    /// ticket is retired — a later call for the same id returns
    /// [`ClientEvent::Retired`], as does an id that was never issued.
    /// Round numbers make successive queries of one ticket distinct, so
    /// equality on the query is a correct edge detector.
    pub(crate) fn wait_event_changed(
        &self,
        id: TicketId,
        last_seen: Option<&FlagQuery>,
    ) -> ClientEvent {
        let mut st = self.state.lock();
        loop {
            let Some(ticket) = st.tickets.get(&id) else {
                return ClientEvent::Retired;
            };
            match &ticket.phase {
                Phase::AwaitingFeedback(query) if Some(query) != last_seen => {
                    return ClientEvent::NeedsFeedback {
                        target: ticket.stage,
                        query: query.clone(),
                    };
                }
                Phase::Done(_) => {
                    return match st.tickets.remove(&id).map(|t| t.phase) {
                        Some(Phase::Done(outcome)) => ClientEvent::Done(outcome),
                        // Unreachable under the lock held since the
                        // check above — but a client API degrades, it
                        // never panics.
                        _ => ClientEvent::Retired,
                    };
                }
                _ => self.client_cv.wait(&mut st),
            }
        }
    }

    /// Apply feedback to a suspended ticket and re-queue it. `query` is
    /// the [`FlagQuery`] the client is answering (from its last
    /// [`ClientEvent::NeedsFeedback`]) — the flag's identity, so a
    /// stale answer can never land on a different flag. Resumed work
    /// bypasses admission bounds — it was already admitted.
    ///
    /// `Err(ResolveError::Stale)` means the resolution lost a race:
    /// the flag was already answered (a feedback timeout, a duplicate
    /// resolve) or — with a chained stage in between — the ticket is
    /// now suspended on a *different* flag than the one the client
    /// saw. `Err(ResolveError::Retired)` means the ticket is gone.
    /// Either way the answer is dropped, never misapplied — and a
    /// protocol race is a typed error, never a panic.
    pub(crate) fn resolve(
        &self,
        id: TicketId,
        query: &FlagQuery,
        resolution: FlagResolution,
    ) -> Result<(), ResolveError> {
        if self.config.fault.trip(FaultSite::FeedbackDelay) {
            // A slow network between client and engine: the resolution
            // arrives late, exercising the stale-answer races (taken
            // before the state lock — a delay must not stall workers).
            self.counters
                .feedback_delayed
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.fault.feedback_delay);
        }
        if self.config.feedback_timeout.is_some() && self.config.fault.trip(FaultSite::FeedbackLoss)
        {
            // Lost in flight *after* the client sent it — from the
            // client's view the resolve succeeded; the park timeout
            // completes the request as an abstention hand-off. Only
            // injected when a timeout exists to rescue the park.
            self.counters.feedback_lost.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut st = self.state.lock();
        let Some(ticket) = st.tickets.get_mut(&id) else {
            return Err(ResolveError::Retired);
        };
        match &ticket.phase {
            Phase::AwaitingFeedback(current) if current == query => {}
            _ => return Err(ResolveError::Stale),
        }
        ticket.n_feedback += 1;
        self.unpark(&mut st, id, resolution);
        self.counters
            .feedback_rounds
            .fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.work_cv.notify_one();
        Ok(())
    }

    /// The one unpark protocol, shared by client resolutions and
    /// feedback-timeout expiry: release the parked billing, apply the
    /// resolution to the live session (or stash it for the worker to
    /// apply after restoring a checkpointed one), and re-queue the
    /// ticket on its tenant's resume lane. Callers bill their own
    /// counters (`feedback_rounds` vs `timed_out`) around it.
    fn unpark(&self, st: &mut EngineState, id: TicketId, resolution: FlagResolution) {
        let Some(ticket) = st.tickets.get_mut(&id) else {
            // Unparking an id with no ticket is an accounting bug;
            // absorb it (nothing to resume) rather than panic a worker
            // or a client thread.
            debug_assert!(false, "unparked ticket exists");
            self.counters.note_breach();
            return;
        };
        self.counters.note_unparked(ticket.parked_billed);
        ticket.parked_billed = 0;
        ticket.park_deadline = None;
        match ticket.session.as_mut() {
            Some(session) => {
                // Remember what was applied: if a later step panics,
                // the salvage checkpoint (captured *before* this
                // resolution) plus this replay rebuilds the session.
                ticket.salvage_resolution = Some(resolution.clone());
                session.resolve(resolution);
            }
            // Checkpointed while parked: the worker restores the
            // session and applies this resolution before stepping.
            None => ticket.pending_resolution = Some(resolution),
        }
        ticket.phase = Phase::Queued;
        let tenant = ticket.tenant;
        st.queues.push_resume(tenant, id);
        st.queues.note_unparked(tenant);
    }

    /// Ask workers to exit once the queues drain. In-queue tickets are
    /// still processed, and *parked* tickets are drained: nothing will
    /// answer their flags anymore, so workers resolve each one with
    /// the abstention verdict (`drained_to_abstention` in the stats)
    /// and run it to completion — every submitted ticket ends
    /// [`ClientEvent::Done`], memory gauges drain to zero, and a
    /// client still polling collects its outcome.
    pub(crate) fn shutdown(&self) {
        // Flip the flag *under the state lock*: a worker that just saw
        // `shutdown == false` while holding the lock is guaranteed to
        // reach `work_cv.wait` (atomically releasing it) before this
        // store can happen, so the notify below always lands. Storing
        // outside the lock could slot the store+notify between a
        // worker's check and its wait — a lost wakeup that parks the
        // worker forever.
        let st = self.state.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(st);
        self.work_cv.notify_all();
    }

    /// Resolve every parked ticket whose feedback deadline lapsed with
    /// the abstention verdict and re-queue it. Called by workers on
    /// every dispatch, so timeouts fire as soon as a worker is free to
    /// act on them. O(1) while nothing can have lapsed (the cached
    /// `next_timeout` bound); the full ticket scan runs only when a
    /// deadline actually passed, and re-tightens the bound.
    fn expire_lapsed_parks(&self, st: &mut EngineState) {
        if self.config.feedback_timeout.is_none() {
            return;
        }
        let now = Instant::now();
        match st.next_timeout {
            None => return,
            Some(bound) if now < bound => return,
            Some(_) => {}
        }
        let lapsed: Vec<TicketId> = st
            .tickets
            .iter()
            .filter(|(_, t)| {
                matches!(t.phase, Phase::AwaitingFeedback(_))
                    && t.park_deadline.is_some_and(|d| now >= d)
            })
            .map(|(&id, _)| id)
            .collect();
        st.next_timeout = st
            .tickets
            .values()
            .filter(|t| matches!(t.phase, Phase::AwaitingFeedback(_)))
            .filter_map(|t| t.park_deadline)
            .filter(|&d| d > now)
            .min();
        for id in lapsed {
            // Collected from the same map under the same lock, so the
            // entry must still be there; degrade if it is not.
            let Some(ticket) = st.tickets.get_mut(&id) else {
                debug_assert!(false, "lapsed ticket exists");
                self.counters.note_breach();
                continue;
            };
            ticket.timed_out = true;
            // The timeout is billed as an unconsulted abstention: no
            // human was reached, the stage degrades to the hand-off
            // verdict (never drop).
            self.unpark(st, id, FlagResolution::Abstain { consulted: false });
            self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shutdown drain: resolve every parked ticket with the abstention
    /// verdict and re-queue it so the pool runs it to completion before
    /// exiting. Workers call this on every dispatch once the shutdown
    /// flag is up; `process` stops parking new flags at the same point,
    /// so no ticket can strand between the last sweep and worker exit.
    fn drain_parked_for_shutdown(&self, st: &mut EngineState) {
        let parked: Vec<TicketId> = st
            .tickets
            .iter()
            .filter(|(_, t)| matches!(t.phase, Phase::AwaitingFeedback(_)))
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            let Some(ticket) = st.tickets.get_mut(&id) else {
                debug_assert!(false, "parked ticket exists");
                self.counters.note_breach();
                continue;
            };
            ticket.drained = true;
            self.unpark(st, id, FlagResolution::Abstain { consulted: false });
            self.counters
                .drained_to_abstention
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Earliest possible parked-feedback deadline, bounding how long an
    /// idle worker may sleep. The cached bound may be stale-early after
    /// an unpark — the woken worker just sweeps, finds nothing, and
    /// sleeps again with a corrected bound.
    fn next_park_deadline(&self, st: &EngineState) -> Option<Instant> {
        self.config.feedback_timeout?;
        st.next_timeout
    }

    /// Non-blocking single dispatch: run the timeout/shutdown sweeps,
    /// pop one ready ticket if there is one, and process it. Returns
    /// whether a ticket was processed. The pool's workers serve their
    /// home shard and steal from neighbours through this.
    pub(crate) fn try_process_one(&self, scratch: &mut LinkScratch) -> bool {
        let id = {
            let mut st = self.state.lock();
            self.expire_lapsed_parks(&mut st);
            if self.shutdown.load(Ordering::SeqCst) {
                self.drain_parked_for_shutdown(&mut st);
            }
            st.queues.pop()
        };
        match id {
            Some(id) => {
                self.process(id, scratch);
                true
            }
            None => false,
        }
    }

    /// Park the calling worker until work may be available on this
    /// shard, bounded by `timeout` and by the next parked-feedback
    /// deadline. Returns immediately when work is already queued or
    /// shutdown was requested. A work-stealing worker sleeps here on
    /// its *home* shard between scans — the bound keeps it rescanning
    /// neighbours it holds no condvar on.
    pub(crate) fn wait_for_work(&self, timeout: Duration) {
        let mut st = self.state.lock();
        if st.queues.queued_len() > 0 || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let bound = match self.next_park_deadline(&st) {
            Some(deadline) => deadline
                .saturating_duration_since(Instant::now())
                .min(timeout),
            None => timeout,
        };
        let _ = self.work_cv.wait_for(&mut st, bound);
    }

    /// Whether [`Shard::shutdown`] has been requested.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raw completed-request latency samples (the bounded window) —
    /// what a sharded aggregate recomputes fleet percentiles from.
    pub(crate) fn latency_samples_ms(&self) -> Vec<f64> {
        self.latencies_ms.lock().snapshot()
    }

    /// Run one ticket forward until it parks on feedback, finishes,
    /// sheds on its deadline, or degrades to abstention after an
    /// unrecoverable fault.
    fn process(&self, id: TicketId, scratch: &mut LinkScratch) {
        let (
            inst,
            tenant,
            mut stage,
            mut session,
            mut checkpointed,
            mut resolution,
            deadline,
            mut salvage,
            mut salvage_resolution,
        ) = {
            let mut st = self.state.lock();
            let Some(ticket) = st.tickets.get_mut(&id) else {
                // A dispatched id with no ticket record is an
                // accounting bug; drop the dispatch, keep the worker.
                debug_assert!(false, "dispatched ticket exists");
                self.counters.note_breach();
                return;
            };
            ticket.phase = Phase::Running;
            (
                ticket.inst.clone(),
                ticket.tenant,
                ticket.stage,
                ticket.session.take(),
                ticket.checkpoint.take(),
                ticket.pending_resolution.take(),
                ticket.deadline,
                ticket.salvage.take(),
                ticket.salvage_resolution.take(),
            )
        };
        let Some(meta) = self.meta_of(&inst) else {
            // `submit` rejects unknown databases, so this cannot happen
            // through the public API — but an engine bug must degrade
            // the one ticket, not panic the worker pool.
            self.finalize(id, tenant, stage, None, false, true);
            return;
        };
        loop {
            // Abstention-as-backpressure: past the budget, the
            // remaining stages answer with the paper's own hand-off
            // verdict instead of dropping the request.
            if deadline.is_some_and(|d| Instant::now() > d) {
                if let Some(bytes) = checkpointed.take() {
                    // The shed ticket's checkpoint is never restored —
                    // return its bytes to the accounting or the gauge
                    // would read non-zero forever.
                    self.counters.note_checkpoint_discarded(bytes.len());
                }
                self.finalize(id, tenant, stage, None, true, false);
                return;
            }
            // Build the session, remembering the recipe that rebuilds
            // it should a step panic: the pre-resolution checkpoint
            // plus the resolution to replay. `None` = the session was
            // freshly opened and rebuilds from scratch.
            let (mut s, recovery): (
                LinkSession<'static>,
                Option<(SessionCheckpoint, Option<FlagResolution>)>,
            ) = match session.take() {
                Some(s) => (s, salvage.take().map(|cp| (cp, salvage_resolution.take()))),
                None => match checkpointed.take() {
                    Some(bytes) => {
                        let decoded = if self.config.fault.trip(FaultSite::CheckpointDecode) {
                            None
                        } else {
                            // A decoded checkpoint must belong to this
                            // (instance, stage); mismatches fall through
                            // to the salvage recipe (degrade, never
                            // panic).
                            checkpoint::try_decode(&bytes)
                                .ok()
                                .filter(|cp| cp.matches(&inst, stage))
                        };
                        // The bytes leave the gauge either way — they
                        // are consumed here, restorable or not.
                        self.counters.note_restored(bytes.len());
                        let cp = match decoded {
                            Some(cp) => cp,
                            // Corrupt checkpoint: the salvage copy kept
                            // in memory at park time re-runs the same
                            // regeneration recipe bit-identically.
                            None => match salvage.take() {
                                Some(cp) => {
                                    self.counters
                                        .corrupt_checkpoints_recovered
                                        .fetch_add(1, Ordering::Relaxed);
                                    cp
                                }
                                None => {
                                    self.finalize(id, tenant, stage, None, false, true);
                                    return;
                                }
                            },
                        };
                        let res = resolution.take();
                        let s = self.rebuild_session(&inst, &meta, stage, &cp, &res, scratch);
                        (s, Some((cp, res)))
                    }
                    None => (self.open_session(&inst, &meta, stage), None),
                },
            };
            // Step under `catch_unwind`: a panicking step (injected or
            // genuine) must cost at most this ticket, never the worker
            // pool. The session is rebuilt from its recovery recipe and
            // retried with exponential backoff; past the budget the
            // ticket degrades to a `faulted` abstention.
            let mut panics = 0usize;
            let state = loop {
                let inject = self.config.fault.trip(FaultSite::StepPanic);
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    if inject {
                        // rts-allow(panic): deterministic fault
                        // injection — this panic exists to exercise
                        // the catch_unwind recovery path right below.
                        std::panic::panic_any(InjectedPanic);
                    }
                    s.step(scratch)
                }));
                match stepped {
                    Ok(state) => break Some(state),
                    Err(_) => {
                        self.counters
                            .panics_recovered
                            .fetch_add(1, Ordering::Relaxed);
                        panics += 1;
                        if panics > self.config.step_retry_budget {
                            break None;
                        }
                        // The unwound step may have left the scratch
                        // buffers mid-mutation; start clean.
                        *scratch = LinkScratch::default();
                        let backoff =
                            self.config.step_retry_backoff * (1u32 << (panics - 1).min(16));
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        s = match &recovery {
                            Some((cp, res)) => {
                                self.rebuild_session(&inst, &meta, stage, cp, res, scratch)
                            }
                            None => self.open_session(&inst, &meta, stage),
                        };
                    }
                }
            };
            let Some(state) = state else {
                self.counters
                    .panics_to_abstention
                    .fetch_add(1, Ordering::Relaxed);
                self.finalize(id, tenant, stage, None, false, true);
                return;
            };
            match state {
                SessionState::NeedsFeedback(query) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // Shutting down: nothing will answer this flag.
                        // Resolve it to abstention right here instead
                        // of parking — parking after the drain sweep
                        // would strand the ticket forever.
                        let cp = s.checkpoint();
                        let verdict = FlagResolution::Abstain { consulted: false };
                        s.resolve(verdict.clone());
                        {
                            let mut st = self.state.lock();
                            if let Some(ticket) = st.tickets.get_mut(&id) {
                                ticket.drained = true;
                            } else {
                                debug_assert!(false, "running ticket exists");
                                self.counters.note_breach();
                            }
                        }
                        self.counters
                            .drained_to_abstention
                            .fetch_add(1, Ordering::Relaxed);
                        session = Some(s);
                        salvage = Some(cp);
                        salvage_resolution = Some(verdict);
                        let _ = query;
                        continue;
                    }
                    let held = s.held_bytes();
                    // The salvage recipe: cheap (recipe-sized, no
                    // hidden stacks), and the only way back should a
                    // post-resolution step panic lose the session.
                    let cp = s.checkpoint();
                    let park_deadline = self.config.feedback_timeout.map(|t| Instant::now() + t);
                    let mut st = self.state.lock();
                    if let Some(deadline) = park_deadline {
                        st.next_timeout = Some(match st.next_timeout {
                            Some(cur) => cur.min(deadline),
                            None => deadline,
                        });
                    }
                    let Some(ticket) = st.tickets.get_mut(&id) else {
                        // No ticket to park the session on: absorb the
                        // accounting bug and drop this request's state
                        // instead of poisoning the worker pool.
                        debug_assert!(false, "running ticket exists");
                        self.counters.note_breach();
                        return;
                    };
                    ticket.session = Some(s);
                    ticket.stage = stage;
                    ticket.salvage = Some(cp);
                    ticket.salvage_resolution = None;
                    ticket.parked_billed = held;
                    ticket.park_deadline = park_deadline;
                    ticket.phase = Phase::AwaitingFeedback(query);
                    st.queues.note_parked(tenant);
                    self.counters.note_parked(held);
                    self.enforce_parked_budget(&mut st);
                    drop(st);
                    self.client_cv.notify_all();
                    // A parked deadline may now be the earliest wake-up:
                    // make sure some idle worker re-arms its sleep.
                    if self.config.feedback_timeout.is_some() {
                        self.work_cv.notify_one();
                    }
                    return;
                }
                SessionState::Done(outcome) => match stage {
                    LinkTarget::Tables => {
                        let mut st = self.state.lock();
                        let Some(ticket) = st.tickets.get_mut(&id) else {
                            debug_assert!(false, "running ticket exists");
                            self.counters.note_breach();
                            return;
                        };
                        ticket.tables = Some(outcome);
                        ticket.stage = LinkTarget::Columns;
                        stage = LinkTarget::Columns;
                        // Session dropped; the next loop iteration
                        // opens the chained columns session. The tables
                        // salvage is stage-local — clear it.
                        salvage = None;
                        salvage_resolution = None;
                    }
                    LinkTarget::Columns => {
                        self.finalize(id, tenant, stage, Some(outcome), false, false);
                        return;
                    }
                },
            }
        }
    }

    /// Evict live parked sessions (largest first) into serialized
    /// checkpoints until the parked-bytes budget holds. Serialization
    /// is cheap — the checkpoint stores the regeneration recipe, not
    /// the hidden stacks — so running under the state lock is fine;
    /// the expensive re-synthesis happens on the worker that resumes
    /// the ticket.
    fn enforce_parked_budget(&self, st: &mut EngineState) {
        let budget = self.config.parked_bytes_budget;
        if budget == 0 {
            return;
        }
        while self.counters.parked_bytes.load(Ordering::Relaxed) > budget {
            let victim = st
                .tickets
                .iter()
                .filter(|(_, t)| {
                    matches!(t.phase, Phase::AwaitingFeedback(_)) && t.session.is_some()
                })
                .max_by_key(|(_, t)| t.parked_billed)
                .map(|(&id, _)| id);
            let Some(vid) = victim else { break };
            // The victim was selected from this map under this lock;
            // a miss here is an accounting bug — stop evicting (the
            // budget check loops on a counter, so continuing could
            // spin) and record the breach.
            let Some(ticket) = st.tickets.get_mut(&vid) else {
                debug_assert!(false, "victim exists");
                self.counters.note_breach();
                break;
            };
            let Some(session) = ticket.session.take() else {
                debug_assert!(false, "victim has a live session");
                self.counters.note_breach();
                break;
            };
            let bytes = checkpoint::encode(&session.checkpoint());
            self.counters
                .note_checkpointed(ticket.parked_billed, bytes.len());
            ticket.parked_billed = 0;
            ticket.checkpoint = Some(bytes);
            // `session` drops here — its hidden stacks are freed.
        }
    }

    /// The session's context: the shared cached one, or `None` when a
    /// `ContextBuild` fault trips, so the session builds an uncached
    /// `LinkContext` of its own — the same context, just not shared.
    /// Never an abstention, never a drop.
    fn session_ctx(&self, meta: &DbMeta, stage: LinkTarget) -> Option<CtxHandle<'static>> {
        if self.config.fault.trip(FaultSite::ContextBuild) {
            self.counters
                .context_build_fallbacks
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(CtxHandle::Shared(self.cache.get(meta, stage)))
    }

    fn open_session(
        &self,
        inst: &Arc<Instance>,
        meta: &Arc<DbMeta>,
        stage: LinkTarget,
    ) -> LinkSession<'static> {
        let mbpp = match stage {
            LinkTarget::Tables => &self.mbpp_tables,
            LinkTarget::Columns => &self.mbpp_columns,
        };
        LinkSession::new_in(
            Handle::Shared(self.model.clone()),
            Handle::Shared(mbpp.clone()),
            Handle::Shared(inst.clone()),
            Handle::Shared(meta.clone()),
            stage,
            self.session_ctx(meta, stage),
            None,
            &self.config.rts,
        )
    }

    /// Rebuild a session from a checkpoint recipe and re-apply
    /// `resolution` ([`checkpoint::restore`]). Shared by the
    /// checkpoint-restore and panic-salvage paths.
    fn rebuild_session(
        &self,
        inst: &Arc<Instance>,
        meta: &Arc<DbMeta>,
        stage: LinkTarget,
        cp: &SessionCheckpoint,
        resolution: &Option<FlagResolution>,
        scratch: &mut LinkScratch,
    ) -> LinkSession<'static> {
        let mbpp = match stage {
            LinkTarget::Tables => &self.mbpp_tables,
            LinkTarget::Columns => &self.mbpp_columns,
        };
        checkpoint::restore(
            Handle::Shared(self.model.clone()),
            Handle::Shared(mbpp.clone()),
            Handle::Shared(inst.clone()),
            Handle::Shared(meta.clone()),
            stage,
            self.session_ctx(meta, stage),
            &self.config.rts,
            cp,
            resolution.as_ref(),
            &mut scratch.synth,
        )
    }

    /// The abstention every shed stage degrades to.
    fn shed_outcome() -> RtsOutcome {
        RtsOutcome {
            abstained: true,
            predicted: Vec::new(),
            correct: false,
            would_be_correct: false,
            n_interventions: 0,
            n_flags: 0,
        }
    }

    /// Retire a ticket: `columns` is the finished column outcome, or
    /// `None` when shedding (or an unrecoverable fault, `faulted`) cut
    /// the run short at `stage`.
    fn finalize(
        &self,
        id: TicketId,
        tenant: TenantId,
        stage: LinkTarget,
        columns: Option<RtsOutcome>,
        shed: bool,
        faulted: bool,
    ) {
        let mut st = self.state.lock();
        let Some(ticket) = st.tickets.get_mut(&id) else {
            // Finalizing an id with no ticket record: nothing to
            // retire. Absorb the accounting bug instead of panicking
            // with the state lock held.
            debug_assert!(false, "finalized ticket exists");
            self.counters.note_breach();
            return;
        };
        let tables = match ticket.tables.take() {
            Some(t) => t,
            None => {
                debug_assert!((shed || faulted) && stage == LinkTarget::Tables);
                Self::shed_outcome()
            }
        };
        let columns = columns.unwrap_or_else(Self::shed_outcome);
        let outcome = ServeOutcome {
            outcome: JointOutcome { tables, columns },
            shed,
            timed_out: ticket.timed_out,
            faulted,
            drained: ticket.drained,
            latency: ticket.submitted.elapsed(),
            n_feedback: ticket.n_feedback,
        };
        self.latencies_ms
            .lock()
            .push(outcome.latency.as_secs_f64() * 1e3);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if shed {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
        }
        ticket.phase = Phase::Done(outcome);
        st.queues.note_done(tenant);
        drop(st);
        self.client_cv.notify_all();
    }

    /// Counter snapshot (latency percentiles recomputed on each call).
    pub(crate) fn stats(&self) -> ServingStats {
        // Copy the samples out under the lock; sort/summarize outside
        // it so workers finalizing requests are never stalled behind a
        // percentile computation.
        let samples = self.latencies_ms.lock().snapshot();
        let latency = LatencySummary::from_samples(&samples);
        let (tenants_seen, tenant_in_flight_peak) = {
            let st = self.state.lock();
            (st.queues.n_tenants(), st.queues.max_in_flight_peak())
        };
        ServingStats {
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            rejected_quota: self.counters.rejected_quota.load(Ordering::Relaxed),
            feedback_rounds: self.counters.feedback_rounds.load(Ordering::Relaxed),
            timed_out_to_abstention: self.counters.timed_out.load(Ordering::Relaxed),
            latency,
            queue_depth_max: self.counters.depth_max.load(Ordering::Relaxed),
            queue_depth_mean: self.counters.depth_mean(),
            cache: self.cache.stats(),
            parked_bytes_peak: self.counters.parked_bytes_peak.load(Ordering::Relaxed),
            parked_sessions_peak: self.counters.parked_sessions_peak.load(Ordering::Relaxed),
            parked_bytes_now: self.counters.parked_bytes.load(Ordering::Relaxed),
            parked_sessions_now: self.counters.parked_sessions.load(Ordering::Relaxed),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            restores: self.counters.restores.load(Ordering::Relaxed),
            checkpoint_bytes_peak: self.counters.checkpoint_bytes_peak.load(Ordering::Relaxed),
            checkpoint_bytes_now: self.counters.checkpoint_bytes.load(Ordering::Relaxed),
            tenants_seen,
            tenant_in_flight_peak,
            panics_recovered: self.counters.panics_recovered.load(Ordering::Relaxed),
            panics_to_abstention: self.counters.panics_to_abstention.load(Ordering::Relaxed),
            corrupt_checkpoints_recovered: self
                .counters
                .corrupt_checkpoints_recovered
                .load(Ordering::Relaxed),
            context_build_fallbacks: self
                .counters
                .context_build_fallbacks
                .load(Ordering::Relaxed),
            feedback_lost: self.counters.feedback_lost.load(Ordering::Relaxed),
            feedback_delayed: self.counters.feedback_delayed.load(Ordering::Relaxed),
            drained_to_abstention: self.counters.drained_to_abstention.load(Ordering::Relaxed),
            db_invalidations: self.counters.db_invalidations.load(Ordering::Relaxed),
            invariant_breaches: self.counters.invariant_breaches.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedTicket;
    use crate::testutil::{client_run, fixture, with_workers, Fx};
    use crate::Engine;
    use rts_core::abstention::MitigationPolicy;
    use rts_core::human::{Expertise, HumanOracle};
    use rts_core::session::resolve_flag;

    fn assert_batch_parity(
        fx: &Fx,
        oracle: &HumanOracle,
        instances: &[benchgen::Instance],
        all: &[(u64, ServeOutcome)],
    ) {
        let contexts = rts_core::context::LinkContexts::build(&fx.bench);
        let policy = MitigationPolicy::Human(oracle);
        let rts = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        for (id, served) in all {
            let Some(inst) = instances.iter().find(|i| i.id == *id) else {
                panic!("served outcome for instance {id} not in the submitted slice");
            };
            let batch = rts_core::pipeline::run_joint_linking_in(
                &fx.model,
                &fx.mbpp_t,
                &fx.mbpp_c,
                inst,
                &fx.bench,
                &contexts,
                &policy,
                &rts,
                &mut scratch,
            );
            assert_eq!(
                format!("{:?}", served.outcome),
                format!("{batch:?}"),
                "instance {id}"
            );
            assert!(!served.shed);
            assert!(!served.timed_out);
            assert!(!served.faulted);
            assert!(!served.drained);
        }
    }

    /// A ticket on the one shard of a 1-shard pool.
    fn ticket(id: TicketId) -> ShardedTicket {
        ShardedTicket { shard: 0, id }
    }

    #[test]
    fn engine_serves_concurrent_tenants_with_feedback() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(40).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 3,
                queue_capacity: 4,
                cache_capacity: 2,
                ..Default::default()
            },
        );
        let n_clients = 4;
        let chunks: Vec<&[benchgen::Instance]> = instances.chunks(10).collect();
        let results: Vec<Vec<(u64, ServeOutcome)>> = with_workers(&engine, || {
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (0..n_clients)
                    .map(|c| {
                        let engine = &engine;
                        let chunk = chunks[c];
                        let oracle = &oracle;
                        // Each client is its own tenant: the fair queue
                        // and per-tenant accounting are on the hot path.
                        s.spawn(move |_| client_run(engine, c as TenantId, chunk, oracle))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client panicked"))
                    .collect()
            })
            .expect("client scope panicked")
        });

        let all: Vec<(u64, ServeOutcome)> = results.into_iter().flatten().collect();
        assert_eq!(all.len(), instances.len());
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert_eq!(stats.shed, 0, "no deadline configured");
        assert_eq!(stats.timed_out_to_abstention, 0, "no timeout configured");
        assert!(
            stats.feedback_rounds > 0,
            "a human workload must consult at least once"
        );
        assert!(stats.cache.hits > 0, "contexts must be reused");
        assert_eq!(stats.tenants_seen, n_clients);
        assert!(
            stats.tenant_in_flight_peak <= 1,
            "closed-loop clients keep one request in flight"
        );
        assert_eq!(stats.parked_bytes_now, 0, "drained engine parks nothing");
        assert_eq!(stats.parked_sessions_now, 0);
        // Engine outcomes ≡ the batch runtime, instance by instance.
        assert_batch_parity(fx, &oracle, &instances, &all);
    }

    #[test]
    fn checkpointed_parked_sessions_restore_bit_identically() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                // A 1-byte budget forces *every* parked session through
                // the checkpoint → restore path.
                parked_bytes_budget: 1,
                ..Default::default()
            },
        );
        let outcomes = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(outcomes.len(), instances.len());
        let stats = engine.stats();
        assert!(
            stats.checkpoints > 0 && stats.restores == stats.checkpoints,
            "every park must checkpoint and restore (cp {}, restored {})",
            stats.checkpoints,
            stats.restores
        );
        assert_eq!(stats.checkpoint_bytes_now, 0, "all checkpoints consumed");
        assert_eq!(stats.parked_bytes_now, 0, "all live parked state released");
        // Checkpointing must never change answers — only where the
        // parked state lives.
        assert_batch_parity(fx, &oracle, &instances, &outcomes);
    }

    #[test]
    fn feedback_timeout_degrades_to_abstention_not_drop() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                feedback_timeout: Some(Duration::from_millis(5)),
                ..Default::default()
            },
        );
        // A client that NEVER answers: it just waits for completion.
        let outcomes: Vec<(u64, ServeOutcome)> = with_workers(&engine, || {
            let mut out = Vec::new();
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { .. } => {
                            // Stall: let the engine time the flag out.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        ClientEvent::Done(done) => {
                            out.push((inst.id, done));
                            break;
                        }
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before its outcome was collected")
                        }
                    }
                }
            }
            out
        });
        assert_eq!(outcomes.len(), instances.len(), "timeouts never drop");
        let stats = engine.stats();
        assert!(
            stats.timed_out_to_abstention > 0,
            "a stalled client must hit the feedback timeout"
        );
        let mut timed_out_seen = false;
        for (id, o) in &outcomes {
            if o.timed_out {
                timed_out_seen = true;
                assert!(
                    o.outcome.abstained(),
                    "timed-out request must abstain (instance {id})"
                );
                assert_eq!(o.n_feedback, 0, "the stalled client never answered");
            }
        }
        assert!(timed_out_seen);
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
    }

    #[test]
    fn zero_deadline_sheds_to_abstention_not_drops() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(8).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let outcomes = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(outcomes.len(), instances.len(), "shedding never drops");
        for (_, o) in &outcomes {
            assert!(o.shed);
            assert!(o.outcome.abstained(), "shed degrades to abstention");
        }
        let stats = engine.stats();
        assert_eq!(stats.shed, instances.len() as u64);
        assert_eq!(
            stats.cache.misses, 0,
            "an instantly-shed request never builds a context"
        );
    }

    #[test]
    fn bounded_admission_rejects_when_full() {
        let fx = fixture();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                ..Default::default()
            },
        );
        // No workers running: the queue only fills.
        let a = engine.submit(0, &fx.bench.split.dev[0]);
        let b = engine.submit(1, &fx.bench.split.dev[1]);
        let c = engine.submit(2, &fx.bench.split.dev[2]);
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(c, Err(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(engine.stats().rejected, 1);
        assert_eq!(engine.stats().queue_depth_max, 2);
    }

    #[test]
    fn tenant_quota_rejects_only_the_offender() {
        let fx = fixture();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 1,
                queue_capacity: 0,
                quota: TenantQuota {
                    max_in_flight: 2,
                    max_parked: 0,
                },
                ..Default::default()
            },
        );
        // No workers: everything stays in flight. Tenant 0 fills its
        // quota; tenant 1 is untouched by tenant 0's backlog.
        assert!(engine.submit(0, &fx.bench.split.dev[0]).is_ok());
        assert!(engine.submit(0, &fx.bench.split.dev[1]).is_ok());
        assert_eq!(
            engine.submit(0, &fx.bench.split.dev[2]),
            Err(SubmitError::QuotaExceeded {
                tenant: 0,
                limit: 2
            })
        );
        assert!(engine.submit(1, &fx.bench.split.dev[3]).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.rejected_quota, 1);
        assert_eq!(stats.rejected, 0, "quota rejections are billed apart");
        assert_eq!(stats.tenants_seen, 2);
        assert_eq!(stats.tenant_in_flight_peak, 2);
    }

    /// A query that cannot match any real park: no instance has id
    /// `u64::MAX`.
    fn bogus_query() -> FlagQuery {
        FlagQuery {
            instance: u64::MAX,
            is_table: true,
            round: 0,
            branch_pos: 0,
            element_idx: 0,
            gold_element: String::new(),
            implicated: Vec::new(),
            predicted: Vec::new(),
        }
    }

    #[test]
    fn unknown_database_is_a_typed_submit_error() {
        let fx = fixture();
        let mut foreign = fx.bench.split.dev[0].clone();
        foreign.db_name = "no_such_database".to_string();
        let engine = fx.engine(1, ServeConfig::default());
        // Used to be a worker panic at dispatch; now a typed rejection
        // at the edge, before any queue state changes.
        assert_eq!(
            engine.submit(0, &foreign),
            Err(SubmitError::UnknownDatabase {
                database: "no_such_database".to_string()
            })
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected, 0, "not billed as queue backpressure");
        assert_eq!(stats.tenants_seen, 0, "rejected before tenant accounting");
    }

    #[test]
    fn dead_and_mismatched_tickets_get_typed_errors_not_panics() {
        let fx = fixture();
        let engine = fx.engine(1, ServeConfig::default());
        // Never-issued ticket: polling and answering are both typed.
        assert!(matches!(
            engine.wait_event(ticket(999)),
            ClientEvent::Retired
        ));
        assert_eq!(
            engine.resolve(ticket(999), &bogus_query(), FlagResolution::Continue),
            Err(ResolveError::Retired)
        );
        // A live ticket that is *not* awaiting feedback (no workers are
        // running, so it sits queued): an answer is stale, not a panic.
        let live = engine.submit(0, &fx.bench.split.dev[0]).expect("room");
        assert_eq!(
            engine.resolve(live, &bogus_query(), FlagResolution::Continue),
            Err(ResolveError::Stale)
        );
    }

    #[test]
    fn double_resolve_and_resolve_after_collection_are_typed() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let policy = MitigationPolicy::Human(&oracle);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let mut double_resolves = 0u32;
        with_workers(&engine, || {
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { query, .. } => {
                            engine
                                .resolve(ticket, &query, resolve_flag(&policy, inst, &query))
                                .expect("first answer to a live flag lands");
                            // The duplicate answer races the worker, but
                            // whatever it observes — re-queued, running,
                            // parked on the *next* flag, or done — the
                            // settled flag is gone, so it must be Stale.
                            assert_eq!(
                                engine.resolve(
                                    ticket,
                                    &query,
                                    FlagResolution::Abstain { consulted: false }
                                ),
                                Err(ResolveError::Stale),
                                "a settled flag must not be answerable twice"
                            );
                            double_resolves += 1;
                        }
                        ClientEvent::Done(_) => break,
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before collection")
                        }
                    }
                }
                // Collected: the ticket no longer exists.
                assert!(matches!(engine.wait_event(ticket), ClientEvent::Retired));
                assert_eq!(
                    engine.resolve(ticket, &bogus_query(), FlagResolution::Continue),
                    Err(ResolveError::Retired)
                );
            }
        });
        assert!(
            double_resolves > 0,
            "workload must exercise the double-resolve race"
        );
    }

    #[test]
    fn resolve_after_timeout_is_stale_then_retired() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                feedback_timeout: Some(Duration::from_millis(2)),
                ..Default::default()
            },
        );
        let mut late_answers = 0u32;
        with_workers(&engine, || {
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                let mut first_flag: Option<FlagQuery> = None;
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { query, .. } => {
                            if first_flag.is_none() {
                                // Stall far past the timeout, then answer
                                // anyway. The engine has already resolved
                                // the flag to abstention without us, so
                                // the late answer is stale — never a
                                // panic, never a double-application.
                                std::thread::sleep(Duration::from_millis(50));
                                assert_eq!(
                                    engine.resolve(ticket, &query, FlagResolution::Continue),
                                    Err(ResolveError::Stale)
                                );
                                late_answers += 1;
                                first_flag = Some(query);
                            } else {
                                // Later flags just lapse on their own.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        ClientEvent::Done(done) => {
                            assert_eq!(done.n_feedback, 0, "no answer ever landed");
                            break;
                        }
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before collection")
                        }
                    }
                }
                // `Done` collected the ticket: the very same answer now
                // hits a retired ticket, and polling agrees.
                if let Some(query) = first_flag {
                    assert_eq!(
                        engine.resolve(ticket, &query, FlagResolution::Continue),
                        Err(ResolveError::Retired)
                    );
                    assert!(matches!(engine.wait_event(ticket), ClientEvent::Retired));
                }
            }
        });
        assert!(late_answers > 0, "workload must park at least once");
        assert!(engine.stats().timed_out_to_abstention > 0);
    }

    #[test]
    fn shutdown_drains_parked_sessions_to_abstention() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                // Route some parks through the checkpoint path too: the
                // drain must release serialized state just the same.
                parked_bytes_budget: 1,
                ..Default::default()
            },
        );
        let outcomes: Vec<(u64, ServeOutcome)> = with_workers(&engine, || {
            let tickets: Vec<(u64, ShardedTicket)> = instances
                .iter()
                .map(|inst| (inst.id, engine.submit(0, inst).expect("queue has room")))
                .collect();
            // Nobody answers feedback and no timeout is configured:
            // wait until the pool quiesces with every ticket either
            // done or parked forever.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let stats = engine.stats();
                if stats.parked_sessions_now > 0
                    && stats.completed + stats.parked_sessions_now as u64 == instances.len() as u64
                {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "pool failed to quiesce with parked sessions"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Shutdown must complete the parked tickets, not strand them.
            engine.shutdown();
            tickets
                .into_iter()
                .map(|(id, ticket)| loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::Done(done) => break (id, done),
                        ClientEvent::NeedsFeedback { .. } => {
                            // The drain is racing us; poll again.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        ClientEvent::Retired => panic!("ticket {ticket} dropped"),
                    }
                })
                .collect()
        });
        assert_eq!(outcomes.len(), instances.len(), "drains never drop");
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert!(
            stats.drained_to_abstention > 0,
            "quiescing with parked sessions guarantees drained tickets"
        );
        let mut drained_seen = 0u64;
        for (id, o) in &outcomes {
            if o.drained {
                drained_seen += 1;
                assert!(
                    o.outcome.abstained(),
                    "drained request must abstain (instance {id})"
                );
                assert_eq!(o.n_feedback, 0, "nobody ever answered");
            }
        }
        assert!(drained_seen > 0);
        // The counter bills per drained *flag* (a ticket can drain once
        // per stage), so it bounds the drained-ticket count from above.
        assert!(stats.drained_to_abstention >= drained_seen);
        assert_eq!(stats.parked_sessions_now, 0, "no session left parked");
        assert_eq!(stats.parked_bytes_now, 0, "all live parked state released");
        assert_eq!(stats.checkpoint_bytes_now, 0, "all checkpoints consumed");
    }

    #[test]
    fn injected_step_panics_recover_with_outcome_parity() {
        crate::fault::silence_injected_panics();
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                fault: FaultPlan::seeded(11, 0.0).with_rate(FaultSite::StepPanic, 0.2),
                // A deep budget: every panic recovers, none degrade — so
                // the outcomes must be byte-identical to the fault-free
                // batch run.
                step_retry_budget: 64,
                step_retry_backoff: Duration::ZERO,
                ..Default::default()
            },
        );
        let outcomes = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(outcomes.len(), instances.len(), "panics never drop");
        let stats = engine.stats();
        assert!(
            stats.panics_recovered > 0,
            "a 20% step-panic rate must fire on this workload"
        );
        assert_eq!(stats.panics_to_abstention, 0, "deep budget: all recovered");
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
        // The recovery path re-runs the deterministic generation
        // recipe, so recovered requests answer exactly as if nothing
        // had happened.
        assert_batch_parity(fx, &oracle, &instances, &outcomes);
    }

    #[test]
    fn corrupt_checkpoints_regenerate_from_salvage_with_parity() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                // Every park checkpoints…
                parked_bytes_budget: 1,
                // …and every checkpoint decode is corrupted: the engine
                // must re-run the regeneration recipe from its in-memory
                // salvage copy every single time.
                fault: FaultPlan::seeded(3, 0.0).with_rate(FaultSite::CheckpointDecode, 1.0),
                ..Default::default()
            },
        );
        let outcomes = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(outcomes.len(), instances.len());
        let stats = engine.stats();
        assert!(
            stats.checkpoints > 0,
            "1-byte budget checkpoints every park"
        );
        assert_eq!(
            stats.corrupt_checkpoints_recovered, stats.restores,
            "every restore hit a corrupt checkpoint and salvaged"
        );
        assert!(stats.corrupt_checkpoints_recovered > 0);
        assert_eq!(
            stats.checkpoint_bytes_now, 0,
            "corrupt bytes still billed off"
        );
        assert_eq!(stats.parked_bytes_now, 0);
        assert_batch_parity(fx, &oracle, &instances, &outcomes);
    }

    #[test]
    fn context_build_faults_fall_back_to_uncached_contexts_with_parity() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                // Every park checkpoints, so restored sessions ask for
                // a context too…
                parked_bytes_budget: 1,
                // …and every context lookup fails.
                fault: FaultPlan::seeded(5, 0.0).with_rate(FaultSite::ContextBuild, 1.0),
                ..Default::default()
            },
        );
        let outcomes = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(outcomes.len(), instances.len(), "fallbacks never drop");
        let stats = engine.stats();
        assert!(stats.restores > 0, "1-byte budget checkpoints every park");
        // The Human policy never abstains and nothing sheds or panics,
        // so every request opens a tables and a columns session, and
        // every restore rebuilds one: each asked for a context once.
        assert_eq!(
            stats.context_build_fallbacks,
            2 * instances.len() as u64 + stats.restores,
            "every session opened or restored falls back"
        );
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            0,
            "no session reached the context cache"
        );
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.checkpoint_bytes_now, 0);
        // A session's own context traces flags back exactly like the
        // shared one: answers are unchanged.
        assert_batch_parity(fx, &oracle, &instances, &outcomes);
    }

    #[test]
    fn tenant_quota_holds_under_concurrent_submitters() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let policy = MitigationPolicy::Human(&oracle);
        let (quota, n_clients, per_client) = (2usize, 4usize, 5usize);
        let instances: Vec<benchgen::Instance> = fx
            .bench
            .split
            .dev
            .iter()
            .take(n_clients * per_client)
            .cloned()
            .collect();
        let chunks: Vec<&[benchgen::Instance]> = instances.chunks(per_client).collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                quota: TenantQuota {
                    max_in_flight: quota,
                    max_parked: 0,
                },
                ..Default::default()
            },
        );
        let attempts = AtomicU64::new(0);
        let submit = |inst: &benchgen::Instance| {
            attempts.fetch_add(1, Ordering::Relaxed);
            engine.submit(0, inst)
        };
        // Every client of the one tenant submits its first instance
        // concurrently before any worker runs: nothing completes, so
        // exactly `quota` are admitted and the rest are rejected.
        let first: Vec<Result<ShardedTicket, SubmitError>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    let submit = &submit;
                    s.spawn(move |_| submit(&chunk[0]))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter panicked"))
                .collect()
        })
        .expect("submit scope panicked");
        assert_eq!(first.iter().filter(|r| r.is_ok()).count(), quota);
        for rejected in first.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(
                *rejected,
                SubmitError::QuotaExceeded {
                    tenant: 0,
                    limit: quota
                }
            );
        }
        // Then the workers run and every client drives its chunk to
        // completion, resubmitting through quota backpressure.
        let drive = |ticket: ShardedTicket, inst: &benchgen::Instance| loop {
            match engine.wait_event(ticket) {
                ClientEvent::NeedsFeedback { query, .. } => engine
                    .resolve(ticket, &query, resolve_flag(&policy, inst, &query))
                    .expect("no timeout: a parked flag takes its answer"),
                ClientEvent::Done(done) => break (inst.id, done),
                ClientEvent::Retired => panic!("ticket {ticket} retired before collection"),
            }
        };
        let outcomes: Vec<(u64, ServeOutcome)> = with_workers(&engine, || {
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .zip(&first)
                    .map(|(chunk, first)| {
                        let (submit, drive) = (&submit, &drive);
                        s.spawn(move |_| {
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(i, inst)| {
                                    let ticket = match first {
                                        Ok(ticket) if i == 0 => *ticket,
                                        _ => loop {
                                            match submit(inst) {
                                                Ok(ticket) => break ticket,
                                                Err(SubmitError::QuotaExceeded { .. }) => {
                                                    std::thread::sleep(Duration::from_micros(200))
                                                }
                                                Err(e) => panic!("unexpected rejection: {e}"),
                                            }
                                        },
                                    };
                                    drive(ticket, inst)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client panicked"))
                    .collect()
            })
            .expect("client scope panicked")
        });
        assert_eq!(outcomes.len(), instances.len(), "backpressure never drops");
        let stats = engine.stats();
        assert_eq!(
            stats.tenant_in_flight_peak, quota,
            "the quota is reached and never exceeded"
        );
        assert!(stats.rejected_quota >= (n_clients - quota) as u64);
        assert_eq!(stats.rejected, 0, "the queue never filled");
        assert_eq!(
            stats.completed + stats.rejected_quota,
            attempts.load(Ordering::Relaxed),
            "every submission either completed or was rejected"
        );
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
        assert_eq!(stats.checkpoint_bytes_now, 0);
        assert_batch_parity(fx, &oracle, &instances, &outcomes);
    }

    #[test]
    fn schema_drift_rebuilds_contexts_without_disturbing_flights() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(12).cloned().collect();
        let engine = fx.engine(
            1,
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let outcomes = with_workers(&engine, || {
            let out = client_run(&engine, 0, &instances, &oracle);
            // Drift every database mid-flight-ish: outcomes already
            // collected must be untouched, and the counter must bill.
            for meta in fx.bench.metas.iter() {
                engine.invalidate_db(&meta.name);
            }
            let out2 = client_run(&engine, 0, &instances, &oracle);
            (out, out2)
        });
        let stats = engine.stats();
        assert_eq!(stats.db_invalidations, fx.bench.metas.len() as u64);
        // Dropped contexts rebuild; answers are a pure function of
        // `(instance, seed)`, so both passes match the batch runtime.
        assert_batch_parity(fx, &oracle, &instances, &outcomes.0);
        assert_batch_parity(fx, &oracle, &instances, &outcomes.1);
    }
}

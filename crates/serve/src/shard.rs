//! The serving engine: a pool of per-database shards with
//! work-stealing workers, and the crate's one in-process [`Engine`].
//!
//! One shard serializes every dispatch through one state lock and
//! funnels every context lookup through one
//! [`ContextCache`](rts_core::context::ContextCache) — fine at one
//! worker, a scaling wall once an open-loop driver pushes the offered
//! rate past the saturation knee. [`ShardedEngine`] splits the serving
//! plane by database: submits route by a *revision-stable* hash of the
//! database name ([`rts_core::context::db_shard`] — FNV-1a, pinned by a
//! unit test), so each shard owns a disjoint slice of the database
//! population together with its own
//! [`FairQueue`](crate::tenant::FairQueue), context cache, latency
//! window, and counters. Lock contention and cache churn stop being
//! global. With `n_shards = 1` the pool is a single engine.
//!
//! **Work stealing.** Database skew is the whole point of the open-loop
//! driver's Zipf workload, and static partitioning under skew strands
//! capacity: a shard whose databases are cold sits idle while a hot
//! shard's queue grows. A worker therefore serves its *home* shard
//! first and, when the home queue is empty, scans the other shards for
//! ready work, so any shard's backlog is drained by whatever capacity
//! is free. Stealing never moves a ticket's *state* — the ticket stays
//! owned by the shard it was admitted to (its queue accounting, cache,
//! gauges); only the executing thread crosses shards.
//!
//! **Contracts preserved.** Outcomes are pure functions of the
//! instance and the seeded config plus the client's resolutions —
//! worker placement cannot reach them — so a sharded run is
//! byte-identical to a one-shard run per request. The
//! `sharded_engine_matches_single_shard` proptest pins that under both
//! `RTS_THREADS` legs of the CI parity job. Degrade-only shutdown
//! likewise survives composition: shutdown fans out to every shard,
//! workers drain *all* shards before exiting, and every per-shard
//! gauge returns to zero.
//!
//! Quotas, queue capacity, and cache capacity are per shard: a
//! tenant's global in-flight bound is `max_in_flight × n_shards` in
//! the worst case. That is the deliberate price of shard-local
//! admission (no cross-shard lock on the submit path).

use crate::api::Engine;
use crate::engine::{ClientEvent, ServeConfig, Shard};
use crate::error::{ResolveError, SubmitError};
use crate::stats::{LatencySummary, ServingStats};
use crate::tenant::{TenantId, TicketId};
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use rts_core::abstention::LinkScratch;
use rts_core::bpp::Mbpp;
use rts_core::context::db_shard;
use rts_core::session::{FlagQuery, FlagResolution};
use simlm::SchemaLinker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle work-stealing worker sleeps on its home shard
/// before rescanning every shard. Bounds both steal latency for work
/// arriving on a foreign shard (whose condvar the worker does not
/// wait on) and feedback-timeout latency on neighbours.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// Handle to one in-flight request of a [`ShardedEngine`]: the shard
/// that owns the ticket plus the shard-local ticket id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardedTicket {
    pub shard: u32,
    pub id: TicketId,
}

impl std::fmt::Display for ShardedTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.shard, self.id)
    }
}

/// The serving engine: a database-sharded pool of shards behind one
/// [`Engine`] surface. Owns its model artefacts behind [`Arc`]s, so
/// servers and detached worker threads can share one trained set
/// without any scoped borrow. Share it by reference across scoped
/// worker + client threads, or behind an `Arc` across detached ones.
/// See the module docs for the partitioning and stealing semantics.
pub struct ShardedEngine {
    shards: Vec<Shard>,
    workers_per_shard: usize,
    steals: AtomicU64,
}

impl ShardedEngine {
    /// Build `n_shards` shards sharing one set of model artefacts
    /// (cloned once here into `Arc`s, then shared by every shard) and
    /// database population. `config.workers` is the *total* worker
    /// budget, split evenly (rounded up) across shards; every other
    /// knob (queue capacity, quotas, cache capacity, deadline, fault
    /// plan, rts seed) applies per shard. `n_shards == 0` is treated
    /// as 1.
    ///
    /// Every shard is built over the full `metas` slice: routing
    /// partitions *placement*, but a stolen ticket executes on a
    /// foreign thread against its home shard's state, and a shard
    /// must be able to answer any database it is asked about.
    pub fn new(
        model: &SchemaLinker,
        mbpp_tables: &Mbpp,
        mbpp_columns: &Mbpp,
        metas: &[DbMeta],
        n_shards: usize,
        config: ServeConfig,
    ) -> Self {
        Self::with_artifacts(
            Arc::new(model.clone()),
            Arc::new(mbpp_tables.clone()),
            Arc::new(mbpp_columns.clone()),
            metas.iter().map(|m| Arc::new(m.clone())).collect(),
            n_shards,
            config,
        )
    }

    /// [`ShardedEngine::new`] over already-shared artefacts: every
    /// shard holds `Arc` clones of the same trained set — one copy of
    /// the weights however many shards serve them.
    pub fn with_artifacts(
        model: Arc<SchemaLinker>,
        mbpp_tables: Arc<Mbpp>,
        mbpp_columns: Arc<Mbpp>,
        metas: Vec<Arc<DbMeta>>,
        n_shards: usize,
        config: ServeConfig,
    ) -> Self {
        let n = n_shards.max(1);
        let workers_per_shard = config.workers.div_ceil(n).max(1);
        let shards = (0..n)
            .map(|_| {
                Shard::new(
                    model.clone(),
                    mbpp_tables.clone(),
                    mbpp_columns.clone(),
                    metas.clone(),
                    config.clone(),
                )
            })
            .collect();
        Self {
            shards,
            workers_per_shard,
            steals: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total worker threads the pool expects: spawn exactly this many
    /// threads on [`ShardedEngine::worker_loop`], passing each its
    /// index (`i % n_shards` becomes its home shard).
    pub fn workers_total(&self) -> usize {
        self.workers_per_shard * self.shards.len()
    }

    /// Workers assigned to each shard's home rotation.
    pub fn workers_per_shard(&self) -> usize {
        self.workers_per_shard
    }

    /// Admissions a worker processed from a shard other than its home
    /// shard (cumulative).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// The shard `db` routes to — [`rts_core::context::db_shard`] over
    /// this pool's shard count.
    pub fn shard_of(&self, db: &str) -> usize {
        db_shard(db, self.shards.len())
    }

    /// The worker body: spawn [`ShardedEngine::workers_total`] scoped
    /// threads on this, passing each thread its index as `home_hint`.
    /// The worker serves `home_hint % n_shards` first and steals ready
    /// admissions from the other shards when its home queue is empty.
    /// Returns once every shard is shut down and fully drained.
    pub fn worker_loop(&self, home_hint: usize) {
        let n = self.shards.len();
        let home = home_hint % n.max(1);
        let mut scratch = LinkScratch::default();
        loop {
            let mut did_work = false;
            for k in 0..n {
                let idx = (home + k) % n;
                let Some(shard) = self.shards.get(idx) else {
                    continue;
                };
                if shard.try_process_one(&mut scratch) {
                    if k != 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    did_work = true;
                    break;
                }
            }
            if did_work {
                continue;
            }
            if self.shards.iter().all(Shard::is_shut_down) {
                // All shards flagged down and the scan above found
                // nothing — but a scan that *started* before the last
                // flag flipped may have skipped a drain. Sweep every
                // shard to quiescence under the observed-shutdown
                // state before exiting, so no parked ticket strands.
                let mut residual = false;
                for shard in &self.shards {
                    while shard.try_process_one(&mut scratch) {
                        residual = true;
                    }
                }
                if !residual {
                    return;
                }
                continue;
            }
            // Idle: sleep on the home shard's work signal, bounded so
            // foreign-shard arrivals (no condvar reaches us from
            // there) are picked up within STEAL_POLL.
            if let Some(shard) = self.shards.get(home) {
                shard.wait_for_work(STEAL_POLL);
            }
        }
    }

    /// One shard's counter snapshot.
    pub fn shard_stats(&self, idx: usize) -> Option<ServingStats> {
        self.shards.get(idx).map(Shard::stats)
    }
}

impl Engine for ShardedEngine {
    type Ticket = ShardedTicket;

    /// Admit a request, routed to its database's shard. Errors are the
    /// owning shard's: `QueueFull`/`QuotaExceeded` describe that shard,
    /// not fleet-wide occupancy.
    fn submit(&self, tenant: TenantId, inst: &Instance) -> Result<ShardedTicket, SubmitError> {
        let shard = self.shard_of(&inst.db_name);
        // Routing is modulo the shard count, so the lookup cannot miss
        // on a constructed pool; degrade to the typed submit error
        // rather than panicking if that invariant ever breaks.
        let Some(engine) = self.shards.get(shard) else {
            return Err(SubmitError::UnknownDatabase {
                database: inst.db_name.clone(),
            });
        };
        let id = engine.submit(tenant, inst)?;
        Ok(ShardedTicket {
            shard: shard as u32,
            id,
        })
    }

    fn wait_event(&self, ticket: ShardedTicket) -> ClientEvent {
        self.wait_event_changed(ticket, None)
    }

    /// A ticket whose shard index does not resolve reads as
    /// [`ClientEvent::Retired`] (degrade, never panic).
    fn wait_event_changed(
        &self,
        ticket: ShardedTicket,
        last_seen: Option<&FlagQuery>,
    ) -> ClientEvent {
        match self.shards.get(ticket.shard as usize) {
            Some(engine) => engine.wait_event_changed(ticket.id, last_seen),
            None => ClientEvent::Retired,
        }
    }

    fn resolve(
        &self,
        ticket: ShardedTicket,
        query: &FlagQuery,
        resolution: FlagResolution,
    ) -> Result<(), ResolveError> {
        match self.shards.get(ticket.shard as usize) {
            Some(engine) => engine.resolve(ticket.id, query, resolution),
            None => Err(ResolveError::Retired),
        }
    }

    /// Fleet-wide counter snapshot: counters and gauges sum across
    /// shards, latency percentiles are recomputed over the union of
    /// every shard's sample window, depth/occupancy maxima take the
    /// per-shard max. `tenants_seen` and `tenant_in_flight_peak` are
    /// per-shard maxima (shard-local admission does not track a
    /// tenant's cross-shard occupancy).
    fn stats(&self) -> ServingStats {
        let mut samples: Vec<f64> = Vec::new();
        for shard in &self.shards {
            samples.extend(shard.latency_samples_ms());
        }
        let mut agg: Option<ServingStats> = None;
        for shard in &self.shards {
            let s = shard.stats();
            match agg.as_mut() {
                None => agg = Some(s),
                Some(a) => {
                    a.completed += s.completed;
                    a.shed += s.shed;
                    a.rejected += s.rejected;
                    a.rejected_quota += s.rejected_quota;
                    a.feedback_rounds += s.feedback_rounds;
                    a.timed_out_to_abstention += s.timed_out_to_abstention;
                    a.queue_depth_max = a.queue_depth_max.max(s.queue_depth_max);
                    a.queue_depth_mean = f64::max(a.queue_depth_mean, s.queue_depth_mean);
                    a.cache.absorb(s.cache);
                    a.parked_bytes_peak = a.parked_bytes_peak.max(s.parked_bytes_peak);
                    a.parked_sessions_peak += s.parked_sessions_peak;
                    a.parked_bytes_now += s.parked_bytes_now;
                    a.parked_sessions_now += s.parked_sessions_now;
                    a.checkpoints += s.checkpoints;
                    a.restores += s.restores;
                    a.checkpoint_bytes_peak = a.checkpoint_bytes_peak.max(s.checkpoint_bytes_peak);
                    a.checkpoint_bytes_now += s.checkpoint_bytes_now;
                    a.tenants_seen = a.tenants_seen.max(s.tenants_seen);
                    a.tenant_in_flight_peak = a.tenant_in_flight_peak.max(s.tenant_in_flight_peak);
                    a.panics_recovered += s.panics_recovered;
                    a.panics_to_abstention += s.panics_to_abstention;
                    a.corrupt_checkpoints_recovered += s.corrupt_checkpoints_recovered;
                    a.context_build_fallbacks += s.context_build_fallbacks;
                    a.feedback_lost += s.feedback_lost;
                    a.feedback_delayed += s.feedback_delayed;
                    a.drained_to_abstention += s.drained_to_abstention;
                    a.db_invalidations += s.db_invalidations;
                    a.invariant_breaches += s.invariant_breaches;
                }
            }
        }
        // A pool always holds ≥ 1 shard; the default only covers a
        // broken constructor invariant — degrade to an all-zero
        // snapshot rather than panicking in a stats read.
        let mut stats = agg.unwrap_or_default();
        stats.latency = LatencySummary::from_samples(&samples);
        stats
    }

    /// Signal schema drift for `db` on the shard it routes to. Only
    /// that shard's cache can hold `db`'s contexts: tickets execute
    /// against their owning shard's cache even when a worker steals
    /// them, so invalidation is routed like a submit, and the drift
    /// counts once.
    fn invalidate_db(&self, db: &str) -> usize {
        self.shards
            .get(self.shard_of(db))
            .map_or(0, |shard| shard.invalidate_db(db))
    }

    /// Applies on every shard (a tenant's databases may hash anywhere).
    fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        for shard in &self.shards {
            shard.set_tenant_weight(tenant, weight);
        }
    }

    /// Fans out to every shard. Workers drain all shards — queued
    /// tickets complete and parked flags degrade to abstention — then
    /// exit.
    fn shutdown(&self) {
        for shard in &self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{client_run, fixture, with_workers};
    use rts_core::abstention::MitigationPolicy;
    use rts_core::human::{Expertise, HumanOracle};
    use rts_core::session::resolve_flag;

    #[test]
    fn routing_is_stable_and_matches_the_core_hash() {
        let fx = fixture();
        let engine = fx.engine(
            3,
            ServeConfig {
                workers: 3,
                ..Default::default()
            },
        );
        assert_eq!(engine.n_shards(), 3);
        for meta in &fx.bench.metas {
            let s = engine.shard_of(&meta.name);
            assert_eq!(s, db_shard(&meta.name, 3), "routing must be the core fn");
            assert_eq!(
                s,
                engine.shard_of(&meta.name),
                "routing must be a pure function of the name"
            );
            assert!(s < 3);
        }
        // A submitted ticket carries the shard its database routes to.
        let inst = &fx.bench.split.dev[0];
        let t = engine.submit(0, inst).expect("empty engine admits");
        assert_eq!(t.shard as usize, engine.shard_of(&inst.db_name));
        engine.shutdown();
        // Drain the one admitted ticket so gauges settle.
        crossbeam::thread::scope(|s| {
            s.spawn(|_| engine.worker_loop(0));
            let oracle = HumanOracle::new(Expertise::Expert, 5);
            let policy = MitigationPolicy::Human(&oracle);
            while let ClientEvent::NeedsFeedback { query, .. } = engine.wait_event(t) {
                let _ = engine.resolve(t, &query, resolve_flag(&policy, inst, &query));
            }
        })
        .expect("scope joins");
    }

    #[test]
    fn work_stealing_drains_a_shard_with_no_home_workers() {
        let fx = fixture();
        let n_shards = 2;
        let engine = fx.engine(
            n_shards,
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 2,
                ..Default::default()
            },
        );
        // Submit only instances routing to one shard (whichever the
        // fixture's databases actually populate)…
        let starved_shard = engine.shard_of(&fx.bench.split.dev[0].db_name);
        let idle_shard = (starved_shard + 1) % n_shards;
        let starved: Vec<benchgen::Instance> = fx
            .bench
            .split
            .dev
            .iter()
            .filter(|i| engine.shard_of(&i.db_name) == starved_shard)
            .take(6)
            .cloned()
            .collect();
        assert!(!starved.is_empty());
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        // …and give every worker the *other* shard as home: the
        // starved shard has no home worker, so completions can only
        // come from stealing.
        let served = crossbeam::thread::scope(|s| {
            let workers: Vec<_> = (0..engine.workers_total())
                .map(|_| s.spawn(|_| engine.worker_loop(idle_shard)))
                .collect();
            let served = client_run(&engine, 0, &starved, &oracle);
            engine.shutdown();
            for w in workers {
                w.join().expect("worker joins");
            }
            served
        })
        .expect("scope joins");
        assert_eq!(served.len(), starved.len(), "every request completes");
        assert!(
            engine.steals() >= starved.len() as u64,
            "a home-less shard is served exclusively by steals: {} steals",
            engine.steals()
        );
        let starved_stats = engine.shard_stats(starved_shard).expect("shard exists");
        assert_eq!(starved_stats.completed, starved.len() as u64);
        let idle_stats = engine.shard_stats(idle_shard).expect("shard exists");
        assert_eq!(idle_stats.completed, 0, "no work ever routed there");
    }

    #[test]
    fn per_shard_gauges_drain_to_zero_after_shutdown() {
        let fx = fixture();
        let engine = fx.engine(
            2,
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                cache_capacity: 2,
                // A 1-byte budget forces every parked session through
                // the checkpoint path, exercising both gauges.
                parked_bytes_budget: 1,
                ..Default::default()
            },
        );
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(12).cloned().collect();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let served = with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        assert_eq!(served.len(), instances.len());
        let agg = engine.stats();
        assert!(agg.feedback_rounds > 0, "fixture must exercise feedback");
        for idx in 0..engine.n_shards() {
            let s = engine.shard_stats(idx).expect("shard exists");
            assert_eq!(s.parked_bytes_now, 0, "shard {idx} parked bytes");
            assert_eq!(s.parked_sessions_now, 0, "shard {idx} parked sessions");
            assert_eq!(s.checkpoint_bytes_now, 0, "shard {idx} checkpoint bytes");
            assert_eq!(s.invariant_breaches, 0, "shard {idx} breaches");
        }
        assert_eq!(
            agg.completed,
            instances.len() as u64,
            "aggregate counts every shard's completions"
        );
        assert_eq!(agg.parked_bytes_now + agg.checkpoint_bytes_now, 0);
    }

    #[test]
    fn invalidation_counts_once_on_the_owning_shard() {
        let fx = fixture();
        let engine = fx.engine(
            3,
            ServeConfig {
                workers: 3,
                ..Default::default()
            },
        );
        // Warm one request per database of the corpus, each on the
        // shard it routes to.
        let split = &fx.bench.split;
        let mut instances: Vec<benchgen::Instance> = Vec::new();
        for inst in split.train.iter().chain(&split.dev).chain(&split.test) {
            if instances.iter().all(|i| i.db_name != inst.db_name) {
                instances.push(inst.clone());
            }
        }
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        with_workers(&engine, || client_run(&engine, 0, &instances, &oracle));
        let warmed: Vec<&str> = instances.iter().map(|i| i.db_name.as_str()).collect();
        let dropped: usize = warmed.iter().map(|db| engine.invalidate_db(db)).sum();
        // Routing the drift to the owning shard finds every warmed
        // database's contexts there: both link targets per database.
        assert_eq!(
            dropped,
            2 * warmed.len(),
            "each warmed context dropped once"
        );
        assert_eq!(
            engine.stats().db_invalidations,
            warmed.len() as u64,
            "one drift signal counts once, however many shards the pool has"
        );
        for db in &warmed {
            assert_eq!(engine.invalidate_db(db), 0, "nothing left to drop");
        }
        assert_eq!(engine.stats().db_invalidations, 2 * warmed.len() as u64);
    }
}

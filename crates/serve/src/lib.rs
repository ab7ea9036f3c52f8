//! # rts-serve — the online serving engine
//!
//! The batch drivers in `rts-core` answer "how well does adaptive
//! abstention work?"; this crate answers "how do you *serve* it".
//! Production traffic is nothing like a closed batch job: requests
//! arrive concurrently, suspend mid-flight awaiting human feedback,
//! and must come back with *some* answer under a latency budget.
//! [`ShardedEngine`] is that runtime, built directly on the resumable
//! [`rts_core::session::LinkSession`] state machine and driven through
//! the [`Engine`] trait (which the `rts-client` wire client implements
//! too):
//!
//! * **Bounded admission** — [`Engine::submit`] enqueues into a
//!   fixed-capacity queue and rejects beyond it, so overload surfaces
//!   as backpressure at the edge instead of unbounded memory.
//! * **Multi-tenant fairness** — every submission is tagged with a
//!   [`TenantId`]; admissions land in per-tenant sub-queues served by
//!   deficit-round-robin dispatch ([`tenant::FairQueue`]), so one
//!   chatty tenant deepens only its own backlog. Per-tenant quotas
//!   (max in-flight / max parked) bounce the offender with
//!   [`SubmitError::QuotaExceeded`] while everyone else keeps
//!   submitting.
//! * **Feedback timeouts** — a session parked on a human who never
//!   answers is resumed after [`ServeConfig::feedback_timeout`] with
//!   the abstention verdict: the request *completes* as a hand-off
//!   (`timed_out_to_abstention` in the stats), it is never dropped.
//!   Load shedding, quota backpressure and feedback timeouts all
//!   degrade through the same abstention mechanism.
//! * **Parked-session checkpointing** — past
//!   [`ServeConfig::parked_bytes_budget`], the largest parked sessions
//!   are serialized through the serde shim (a few hundred bytes of
//!   recipe instead of tens of KB of hidden-state stacks) and restored
//!   bit-identically when their feedback arrives — generation is
//!   deterministic, so the evicted round re-synthesizes exactly
//!   (pinned by the checkpoint-roundtrip parity proptests).
//! * **Non-blocking feedback** — when a session hits a branching flag
//!   it is *parked* (worker moves on); the client answers through
//!   [`Engine::resolve`] and the session re-enters the work queue.
//!   No worker is ever held hostage by a waiting human.
//! * **Joint session chaining** — each request runs table linking then
//!   column linking, mirroring `run_joint_linking_in`'s joint process,
//!   with outcomes combined into a [`rts_core::pipeline::JointOutcome`].
//! * **Lazy per-tenant contexts** — `LinkContext`s are built on first
//!   request per `(database, target)` and shared through an LRU
//!   [`rts_core::context::ContextCache`]; cold-start cost is paid per
//!   tenant, not per boot.
//! * **Abstention as backpressure** — a request past its deadline is
//!   not dropped: the remaining linking stages degrade to *abstention*,
//!   the paper's own "hand this instance off" verdict. Load shedding
//!   and reliability share one mechanism, unique to this design.
//! * **Degrade-only fault tolerance** — a panicking session step is
//!   caught (`catch_unwind`), rebuilt from its salvage checkpoint and
//!   retried with backoff before degrading the one ticket to
//!   abstention; corrupt checkpoints re-run their regeneration recipe;
//!   a failed context-cache build leaves the session to build an
//!   uncached context of its own; client API misuse (unknown tickets, double
//!   resolves) returns typed errors ([`ClientEvent::Retired`],
//!   [`ResolveError`]) instead of panicking. The [`fault`] module's
//!   deterministic [`fault::FaultPlan`] injects all of these
//!   reproducibly; the chaos proptests pin the invariant that every
//!   submitted ticket still terminates with zero drops.
//! * **Schema-drift epochs** — [`Engine::invalidate_db`] (or a
//!   bumped `DbMeta::revision`) drops cached contexts so new sessions
//!   rebuild, while in-flight sessions finish on their pinned
//!   `Arc<LinkContext>`.
//! * **Shard-level scale-out** — the engine partitions workers and
//!   the context cache over `n_shards` shards by database
//!   (revision-stable FNV-1a routing, [`rts_core::context::db_shard`])
//!   with work-stealing across idle shards; outcomes are
//!   byte-identical for every shard count, one included (see the
//!   [`shard`] module docs).
//! * **Accounting** — per-request latency (p50/p95/p99), queue depth,
//!   context-cache hit rate and parked-session memory are recorded in
//!   a [`ServingStats`] snapshot.
//!
//! Outcome parity: with no deadline pressure, the engine's per-request
//! outcomes are *identical* to the batch pipeline's — every linking
//! run is a deterministic function of `(instance, seed)` and feedback
//! resolutions are deterministic per oracle, so worker scheduling
//! cannot change results (pinned by the `serve_engine_matches_batch…`
//! parity tests).
//!
//! ```text
//! let engine = ShardedEngine::new(&model, &mbpp_t, &mbpp_c, &metas, n_shards, config);
//! crossbeam::thread::scope(|s| {
//!     for i in 0..engine.workers_total() { s.spawn(|_| engine.worker_loop(i)); }
//!     // clients: submit → wait_event → resolve → … → Done
//! })
//! ```

pub mod api;
pub mod checkpoint;
mod engine;
pub mod error;
pub mod fault;
pub mod shard;
mod stats;
pub mod tenant;
pub mod wire;

pub use api::{drive_closed_loop, Engine};
pub use engine::{ClientEvent, ServeConfig, ServeOutcome};
pub use error::{EngineError, ResolveError, SubmitError};
pub use fault::{FaultPlan, FaultSite};
pub use shard::{ShardedEngine, ShardedTicket};
pub use stats::{LatencySummary, ServingStats};
pub use tenant::{TenantId, TenantQuota, TicketId};

/// Fixture shared by the engine and shard unit tests: one trained set
/// per test binary, a pool constructor, and the closed-loop client.
#[cfg(test)]
mod testutil {
    use crate::{drive_closed_loop, ServeConfig, ServeOutcome, ShardedEngine, TenantId};
    use rts_core::abstention::MitigationPolicy;
    use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
    use rts_core::branching::BranchDataset;
    use rts_core::human::HumanOracle;
    use rts_core::session::resolve_flag;
    use simlm::{LinkTarget, SchemaLinker};
    use std::sync::OnceLock;

    pub(crate) struct Fx {
        pub(crate) bench: benchgen::Benchmark,
        pub(crate) model: SchemaLinker,
        pub(crate) mbpp_t: Mbpp,
        pub(crate) mbpp_c: Mbpp,
    }

    impl Fx {
        /// A pool of `n_shards` shards over the fixture's artefacts.
        pub(crate) fn engine(&self, n_shards: usize, config: ServeConfig) -> ShardedEngine {
            ShardedEngine::new(
                &self.model,
                &self.mbpp_t,
                &self.mbpp_c,
                &self.bench.metas,
                n_shards,
                config,
            )
        }
    }

    pub(crate) fn fixture() -> &'static Fx {
        static FX: OnceLock<Fx> = OnceLock::new();
        FX.get_or_init(|| {
            let bench = benchgen::BenchmarkProfile::bird_like()
                .scaled(0.04)
                .generate(77);
            let model = SchemaLinker::new("bird", 5);
            let cfg = MbppConfig {
                probe: ProbeConfig {
                    epochs: 6,
                    ..Default::default()
                },
                ..Default::default()
            };
            let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 300);
            let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 300);
            let mbpp_t = Mbpp::train(&ds_t, &cfg);
            let mbpp_c = Mbpp::train(&ds_c, &cfg);
            Fx {
                bench,
                model,
                mbpp_t,
                mbpp_c,
            }
        })
    }

    /// Closed-loop client: the shared [`drive_closed_loop`] driver with
    /// the oracle as the (never-stalling) feedback provider. A `Stale`
    /// resolve is a legal race (timeout or injected loss beat the
    /// answer) and is absorbed by the driver.
    pub(crate) fn client_run(
        engine: &ShardedEngine,
        tenant: TenantId,
        instances: &[benchgen::Instance],
        oracle: &HumanOracle,
    ) -> Vec<(u64, ServeOutcome)> {
        let policy = MitigationPolicy::Human(oracle);
        drive_closed_loop(engine, tenant, instances, |inst, query| {
            Some(resolve_flag(&policy, inst, query))
        })
    }

    /// Run `body` with the pool's workers up, then shut the pool down
    /// and join them: every worker has drained before this returns.
    pub(crate) fn with_workers<T>(engine: &ShardedEngine, body: impl FnOnce() -> T) -> T {
        crossbeam::thread::scope(|s| {
            for i in 0..engine.workers_total() {
                s.spawn(move |_| engine.worker_loop(i));
            }
            let out = body();
            crate::Engine::shutdown(engine);
            out
        })
        .expect("serve scope panicked")
    }
}

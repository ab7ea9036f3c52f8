//! Experiment reports: paper-vs-measured rows, console rendering, and
//! JSON persistence for EXPERIMENTS.md regeneration.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One comparable quantity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    pub label: String,
    /// The paper's number (None = the paper gives no figure for this
    /// row, e.g. our extra diagnostics).
    pub paper: Option<f64>,
    /// Our measured number (None = not measurable in this setup, e.g.
    /// leaderboard entries we only cite).
    pub measured: Option<f64>,
    /// Display unit ("%", "AUC", "count", …).
    pub unit: String,
}

impl Row {
    pub fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) -> Self {
        Self {
            label: label.into(),
            paper,
            measured,
            unit: unit.into(),
        }
    }
}

/// A full experiment report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Stable id ("table1", "figure6", …).
    pub id: String,
    pub title: String,
    pub rows: Vec<Row>,
    /// Free-form commentary (shape checks, substitutions, caveats).
    pub notes: Vec<String>,
    /// Scale the harness ran at (1.0 = paper-sized workload).
    pub scale: f64,
    pub seed: u64,
}

impl Report {
    pub fn new(id: &str, title: &str, scale: f64, seed: u64) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
            scale,
            seed,
        }
    }

    pub fn push(
        &mut self,
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) {
        self.rows.push(Row::new(label, paper, measured, unit));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn fmt_opt(v: Option<f64>) -> String {
        match v {
            Some(x) => format!("{x:>8.2}"),
            None => format!("{:>8}", "—"),
        }
    }

    /// Render for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} — {} (scale {}, seed {:#x})",
            self.id, self.title, self.scale, self.seed
        );
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>8}  unit",
            "row", "paper", "measured"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {}  {}  {}",
                r.label,
                Self::fmt_opt(r.paper),
                Self::fmt_opt(r.measured),
                r.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as a Markdown section (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| row | paper | measured | unit |");
        let _ = writeln!(out, "|---|---:|---:|---|");
        for r in &self.rows {
            let p = r.paper.map_or("—".to_string(), |x| format!("{x:.2}"));
            let m = r.measured.map_or("—".to_string(), |x| format!("{x:.2}"));
            let _ = writeln!(out, "| {} | {} | {} | {} |", r.label, p, m, r.unit);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        let _ = writeln!(out);
        out
    }

    /// Persist to `results/<id>.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("report serialises");
        std::fs::write(path, json)
    }

    /// Largest |paper − measured| over rows where both sides exist.
    pub fn max_abs_gap(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| match (r.paper, r.measured) {
                (Some(p), Some(m)) => Some((p - m).abs()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// Wall-time of one pipeline stage, measured by the `perf` binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage tag: "trace_gen", "linking", "monitoring", "sqlgen",
    /// "execution", plus diagnostic variants (e.g.
    /// "trace_gen_eager_baseline", "monitoring_per_token_baseline").
    pub stage: String,
    pub wall_ms: f64,
    pub per_instance_us: f64,
    pub n_instances: usize,
}

/// Multi-tenant serving counters: the knobs and outcomes of the
/// fairness/quota/timeout/checkpoint machinery. Grouped in an
/// `Option` sub-record so serving sections written before tenancy
/// existed (PR 4 snapshots) still parse — the serde shim reads an
/// absent `Option` field as `None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenancyRecord {
    /// Distinct tenants the workload submitted as.
    pub tenants: usize,
    /// Per-tenant quota the engine enforced (0 = unbounded).
    pub quota_max_in_flight: usize,
    pub quota_max_parked: usize,
    /// Park-to-abstention feedback timeout (None = park forever).
    pub feedback_timeout_ms: Option<f64>,
    /// Live parked-bytes budget before checkpoint eviction (0 = off).
    pub parked_bytes_budget: u64,
    /// Submissions bounced by a per-tenant quota (clients retried).
    pub rejected_quota: u64,
    /// Parked sessions resumed with abstention by the timeout.
    pub timed_out_to_abstention: u64,
    /// Parked sessions evicted to serialized checkpoints / restored.
    pub checkpoints: u64,
    pub restores: u64,
    pub checkpoint_bytes_peak: u64,
    /// Highest concurrent in-flight count any single tenant reached —
    /// the fairness self-check compares this against the quota.
    pub tenant_in_flight_peak: usize,
}

/// Fault-injection configuration and recovery counters of a chaos
/// serving run. Grouped in an `Option` sub-record: absent means the
/// run was fault-free (every snapshot before this record existed, and
/// every run with the plan disabled — the two are equivalent, which is
/// exactly what the perf gate's shape check assumes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The deterministic fault-schedule seed.
    pub seed: u64,
    /// Trip probability of the step-panic site (the headline chaos
    /// knob; the driver arms every site at this rate).
    pub step_panic_rate: f64,
    /// Step panics caught by `catch_unwind` — pool intact, ticket
    /// salvaged into a retry or an abstention.
    pub panics_recovered: u64,
    /// Tickets that kept panicking past the retry budget and degraded
    /// to a `faulted` abstention (never a drop).
    pub panics_to_abstention: u64,
    /// Corrupt checkpoints rebuilt from their in-memory salvage recipe.
    pub corrupt_checkpoints_recovered: u64,
    /// Failed context-cache builds, each replaced by an uncached
    /// context the session built for itself.
    pub context_build_fallbacks: u64,
    /// Client resolutions injected as lost / delayed in flight.
    pub feedback_lost: u64,
    pub feedback_delayed: u64,
    /// Parked sessions resolved to abstention by the shutdown drain.
    pub drained_to_abstention: u64,
}

/// One closed-loop serving measurement of the `rts-serve` engine: the
/// optional `serving` section of `BENCH_rts.json`. Optional because
/// older snapshots predate it — the perf gate must keep parsing them
/// (the serde shim reads an absent `Option` field as `None`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingRecord {
    /// Engine workers / closed-loop clients the workload ran with.
    pub workers: usize,
    pub clients: usize,
    /// Admission-queue bound, per-target context-cache capacity, and
    /// the per-request deadline (None = shedding disabled).
    pub queue_capacity: usize,
    pub cache_capacity: usize,
    pub deadline_ms: Option<f64>,
    /// Joint-linking requests submitted (each = tables + columns
    /// linking, human feedback on every flag).
    pub n_requests: usize,
    pub completed: u64,
    /// Requests answered by degrading to abstention on deadline.
    pub shed: u64,
    /// Submissions bounced at admission (clients retried them).
    pub rejected_submits: u64,
    pub feedback_rounds: u64,
    /// Submit-to-completion latency distribution, ms.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
    pub throughput_rps: f64,
    /// Work-queue depth observed at submits.
    pub queue_depth_max: usize,
    pub queue_depth_mean: f64,
    /// Lazy per-(database, target) context cache counters.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_hit_rate: f64,
    /// Peak generation state held by sessions parked on feedback.
    pub parked_bytes_peak: u64,
    pub parked_sessions_peak: u64,
    pub wall_ms: f64,
    /// Multi-tenant counters (absent on pre-tenancy snapshots).
    pub tenancy: Option<TenancyRecord>,
    /// Fault-injection knobs and recovery counters (absent ≡ the run
    /// was fault-free).
    pub fault: Option<FaultRecord>,
}

impl ServingRecord {
    /// Console rendering (shared by the perf and driver binaries).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- serving: {} requests, {} workers, {} clients (queue {}, cache {}, deadline {})",
            self.n_requests,
            self.workers,
            self.clients,
            self.queue_capacity,
            self.cache_capacity,
            self.deadline_ms
                .map_or("off".to_string(), |d| format!("{d:.0} ms")),
        );
        let _ = writeln!(
            out,
            "   latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}  ({:.0} req/s)",
            self.p50_ms, self.p95_ms, self.p99_ms, self.mean_ms, self.max_ms, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "   completed {} (shed {}, rejected submits {}), feedback rounds {}",
            self.completed, self.shed, self.rejected_submits, self.feedback_rounds
        );
        let _ = writeln!(
            out,
            "   queue depth max {} mean {:.2}; context cache {}/{} hit ({:.0}%), {} evictions; parked peak {} sessions / {} B",
            self.queue_depth_max,
            self.queue_depth_mean,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate * 100.0,
            self.cache_evictions,
            self.parked_sessions_peak,
            self.parked_bytes_peak,
        );
        if let Some(t) = &self.tenancy {
            let _ = writeln!(
                out,
                "   tenancy: {} tenants (quota {}/{} in-flight/parked, peak in-flight {}), \
                 {} quota bounces, feedback timeout {} → {} timed out to abstention",
                t.tenants,
                t.quota_max_in_flight,
                t.quota_max_parked,
                t.tenant_in_flight_peak,
                t.rejected_quota,
                t.feedback_timeout_ms
                    .map_or("off".to_string(), |ms| format!("{ms:.0} ms")),
                t.timed_out_to_abstention,
            );
            let _ = writeln!(
                out,
                "   checkpointing: budget {} B → {} evicted / {} restored, checkpoint peak {} B",
                t.parked_bytes_budget, t.checkpoints, t.restores, t.checkpoint_bytes_peak,
            );
        }
        if let Some(f) = &self.fault {
            let _ = writeln!(
                out,
                "   faults (seed {}, rate {:.2}): {} step panics recovered ({} to abstention), \
                 {} corrupt checkpoints salvaged, {} context fallbacks, \
                 feedback {} lost / {} delayed, {} drained at shutdown",
                f.seed,
                f.step_panic_rate,
                f.panics_recovered,
                f.panics_to_abstention,
                f.corrupt_checkpoints_recovered,
                f.context_build_fallbacks,
                f.feedback_lost,
                f.feedback_delayed,
                f.drained_to_abstention,
            );
        }
        out
    }
}

/// One sweep point of the open-loop driver: requests offered at a
/// fixed Poisson arrival rate, latency measured from the *scheduled*
/// arrival (so schedule lag past saturation shows up in the tail, the
/// defining property of an open-loop measurement).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenLoopPoint {
    /// Poisson arrival rate the schedule was generated at, req/s.
    pub offered_rps: f64,
    /// Completions over the point's wall time, req/s.
    pub achieved_rps: f64,
    /// Scheduled-arrival-to-completion latency distribution, ms.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
    pub completed: u64,
    /// Requests answered by degrading to abstention on deadline.
    pub shed: u64,
    /// Parked sessions resumed with abstention by a feedback timeout.
    pub timed_out: u64,
    /// Admission bounces (QueueFull/quota) the submitter retried —
    /// open loop never drops, it lags the schedule instead.
    pub rejected_submits: u64,
    pub wall_ms: f64,
}

/// The open-loop load harness measurement: the optional `open_loop`
/// section of `BENCH_rts.json`. A deterministic seeded schedule
/// (Poisson arrivals on a virtual clock, Zipf tenant/database skew
/// over simulated users) swept across arrival rates against the
/// sharded engine; the perf gate holds the peak throughput and the
/// knee latency. Optional for the same reason as [`TenancyRecord`]:
/// snapshots from before the harness existed must keep parsing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenLoopRecord {
    /// Sharded-engine geometry the sweep ran against.
    pub shards: usize,
    pub workers_per_shard: usize,
    /// Simulated-user population and tenant count behind the Zipf skew.
    pub users: usize,
    pub tenants: usize,
    /// Zipf exponent of the user/database popularity skew.
    pub zipf_s: f64,
    /// Arrivals per sweep point.
    pub requests_per_point: usize,
    /// Schedule seed (arrivals are a pure function of it).
    pub seed: u64,
    /// Per-shard admission-queue and context-cache bounds.
    pub queue_capacity: usize,
    pub cache_capacity: usize,
    /// The throughput-vs-latency curve, one point per offered rate
    /// (ascending).
    pub points: Vec<OpenLoopPoint>,
    /// Highest achieved throughput across the sweep, req/s.
    pub peak_throughput_rps: f64,
    /// The saturation knee: the highest offered rate the engine still
    /// sustained (achieved ≥ 90% of offered), and its p99. Past the
    /// knee, schedule lag grows without bound.
    pub knee_offered_rps: f64,
    pub knee_p99_ms: f64,
    /// Admissions executed by a worker away from its home shard.
    pub steals: u64,
    /// Aggregate context-cache hit rate across shards over the sweep.
    pub cache_hit_rate: f64,
}

impl OpenLoopRecord {
    /// Console rendering (shared by the perf and driver binaries).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- open loop: {} shards x {} workers, {} users / {} tenants (zipf {}), {} req/point, seed {:#x}",
            self.shards,
            self.workers_per_shard,
            self.users,
            self.tenants,
            self.zipf_s,
            self.requests_per_point,
            self.seed,
        );
        let _ = writeln!(
            out,
            "   {:>12} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "offered r/s", "achieved", "p50 ms", "p99 ms", "max ms", "shed", "bounced"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "   {:>12.0} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>8} {:>8}",
                p.offered_rps,
                p.achieved_rps,
                p.p50_ms,
                p.p99_ms,
                p.max_ms,
                p.shed,
                p.rejected_submits,
            );
        }
        let _ = writeln!(
            out,
            "   peak {:.0} req/s; knee at {:.0} offered (p99 {:.3} ms); {} steals, cache hit {:.0}%",
            self.peak_throughput_rps,
            self.knee_offered_rps,
            self.knee_p99_ms,
            self.steals,
            self.cache_hit_rate * 100.0,
        );
        out
    }
}

/// The cross-PR performance record, persisted as `BENCH_rts.json` so
/// future changes have a trajectory to compare against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    pub scale: f64,
    pub seed: u64,
    /// The *configured* worker count (`RTS_THREADS` or detected cores).
    pub threads: usize,
    /// What `std::thread::available_parallelism` actually reported on
    /// the measuring machine. The configured count can silently exceed
    /// this (e.g. `"threads": 8` recorded on a 1-core CI container), so
    /// the record keeps both to make timings comparable across hosts.
    pub effective_parallelism: usize,
    /// Synthesis corpus tag (see `simlm::CorpusVersion`) the record
    /// was measured under. `None` on snapshots predating corpus
    /// versioning, which were all v1 — read it through
    /// [`PerfReport::corpus_tag`]. Stage times are incomparable across
    /// corpora (a new corpus re-keys the streams `trace_gen` draws),
    /// so the perf gate refuses cross-corpus comparisons.
    pub corpus: Option<String>,
    pub stages: Vec<StageTiming>,
    pub notes: Vec<String>,
    /// Online-serving measurement (absent on records from before the
    /// `rts-serve` engine existed; never gated — latencies are
    /// wall-clock under concurrency, not per-instance stage times).
    pub serving: Option<ServingRecord>,
    /// Open-loop throughput-vs-latency sweep against the sharded
    /// engine (absent on records from before the load harness
    /// existed; gated on peak throughput and knee latency).
    pub open_loop: Option<OpenLoopRecord>,
}

impl PerfReport {
    pub fn new(scale: f64, seed: u64, threads: usize, effective_parallelism: usize) -> Self {
        Self {
            scale,
            seed,
            threads,
            effective_parallelism,
            corpus: None,
            stages: Vec::new(),
            notes: Vec::new(),
            serving: None,
            open_loop: None,
        }
    }

    /// The synthesis corpus tag this record was measured under.
    /// Snapshots from before corpus versioning carry no field; every
    /// one of them was generated under the original streams, so the
    /// absent value reads as `"v1"`.
    pub fn corpus_tag(&self) -> &str {
        self.corpus.as_deref().unwrap_or("v1")
    }

    /// Record a stage measured over `n_instances` instances.
    pub fn push_stage(
        &mut self,
        stage: impl Into<String>,
        wall: std::time::Duration,
        n_instances: usize,
    ) {
        let wall_ms = wall.as_secs_f64() * 1e3;
        self.stages.push(StageTiming {
            stage: stage.into(),
            wall_ms,
            per_instance_us: wall_ms * 1e3 / n_instances.max(1) as f64,
            n_instances,
        });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Wall-time of a stage by tag, if recorded.
    pub fn stage_ms(&self, stage: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.wall_ms)
    }

    /// Write `BENCH_rts.json` into `dir`.
    pub fn save_bench_json(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("perf report serialises");
        std::fs::write(dir.join("BENCH_rts.json"), json)
    }

    /// Console rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== BENCH_rts (scale {}, seed {:#x}, {} threads configured, {} effective, corpus {})",
            self.scale,
            self.seed,
            self.threads,
            self.effective_parallelism,
            self.corpus_tag()
        );
        let _ = writeln!(
            out,
            "{:<36} {:>12} {:>16}  n",
            "stage", "wall ms", "µs/instance"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<36} {:>12.2} {:>16.1}  {}",
                s.stage, s.wall_ms, s.per_instance_us, s.n_instances
            );
        }
        if let Some(serving) = &self.serving {
            out.push_str(&serving.render());
        }
        if let Some(open_loop) = &self.open_loop {
            out.push_str(&open_loop.render());
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// One stage's baseline-vs-fresh comparison (see [`compare_perf`]).
#[derive(Debug, Clone)]
pub struct StageComparison {
    pub stage: String,
    pub baseline_us: f64,
    pub fresh_us: f64,
    /// `fresh / baseline` per-instance time (> 1 = slower than the
    /// committed record).
    pub ratio: f64,
    /// Did this stage blow the gate's tolerance?
    pub regressed: bool,
}

/// Compare a freshly measured [`PerfReport`] against the committed
/// baseline, stage by stage: a stage regresses when its
/// `per_instance_us` exceeds `tolerance ×` the baseline's. Stages
/// present in only one record are skipped (renames and new stages must
/// not fail the gate — the fresh snapshot replaces the baseline when
/// the PR lands). This is the CI `perf-gate` job's comparison; the
/// tolerance is deliberately generous so shared runners don't flake.
pub fn compare_perf(
    baseline: &PerfReport,
    fresh: &PerfReport,
    tolerance: f64,
) -> Vec<StageComparison> {
    assert!(tolerance > 0.0, "tolerance must be positive");
    baseline
        .stages
        .iter()
        .filter_map(|b| {
            let f = fresh.stages.iter().find(|f| f.stage == b.stage)?;
            // Sub-microsecond stages are noise-dominated; never gate them.
            if b.per_instance_us <= 1.0 {
                return None;
            }
            let ratio = f.per_instance_us / b.per_instance_us;
            Some(StageComparison {
                stage: b.stage.clone(),
                baseline_us: b.per_instance_us,
                fresh_us: f.per_instance_us,
                ratio,
                regressed: ratio > tolerance,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        let mut r = Report::new("table_x", "Demo", 1.0, 7);
        r.push("EM bird", Some(79.70), Some(81.2), "%");
        r.push("leaderboard", Some(73.01), None, "%");
        r.note("substituted workload");
        r
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let text = demo().render();
        assert!(text.contains("EM bird"));
        assert!(text.contains("79.70"));
        assert!(text.contains("81.20"));
        assert!(text.contains("substituted workload"));
        assert!(text.contains("—"), "missing values render as dashes");
    }

    #[test]
    fn markdown_is_table_shaped() {
        let md = demo().render_markdown();
        assert!(md.contains("| row | paper | measured | unit |"));
        assert!(md.contains("| EM bird | 79.70 | 81.20 | % |"));
    }

    #[test]
    fn max_gap_ignores_one_sided_rows() {
        let r = demo();
        assert!((r.max_abs_gap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let r = demo();
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert_eq!(back.id, r.id);
    }

    fn perf_with(stages: &[(&str, f64)]) -> PerfReport {
        let mut p = PerfReport::new(0.02, 7, 1, 1);
        for &(stage, us) in stages {
            p.stages.push(StageTiming {
                stage: stage.into(),
                wall_ms: us * 46.0 / 1e3,
                per_instance_us: us,
                n_instances: 46,
            });
        }
        p
    }

    #[test]
    fn compare_perf_flags_only_regressions_beyond_tolerance() {
        let base = perf_with(&[
            ("trace_gen", 300.0),
            ("linking", 50.0),
            ("monitoring", 40.0),
        ]);
        let fresh = perf_with(&[
            ("trace_gen", 450.0), // 1.5x: within a 2x gate
            ("linking", 140.0),   // 2.8x: regression
            ("monitoring", 20.0), // faster: fine
        ]);
        let cmp = compare_perf(&base, &fresh, 2.0);
        assert_eq!(cmp.len(), 3);
        let by_stage = |s: &str| cmp.iter().find(|c| c.stage == s).unwrap();
        assert!(!by_stage("trace_gen").regressed);
        assert!(by_stage("linking").regressed);
        assert!((by_stage("linking").ratio - 2.8).abs() < 1e-9);
        assert!(!by_stage("monitoring").regressed);
    }

    #[test]
    fn compare_perf_skips_unmatched_and_noise_stages() {
        let base = perf_with(&[("linking", 50.0), ("renamed_away", 10.0), ("tiny", 0.5)]);
        let fresh = perf_with(&[("linking", 49.0), ("brand_new", 10.0), ("tiny", 400.0)]);
        let cmp = compare_perf(&base, &fresh, 2.0);
        // Only "linking" is comparable: renames/new stages are skipped,
        // and sub-microsecond stages are noise.
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].stage, "linking");
        assert!(!cmp[0].regressed);
    }

    fn demo_serving() -> ServingRecord {
        ServingRecord {
            workers: 2,
            clients: 4,
            queue_capacity: 64,
            cache_capacity: 8,
            deadline_ms: None,
            n_requests: 92,
            completed: 92,
            shed: 0,
            rejected_submits: 3,
            feedback_rounds: 41,
            p50_ms: 1.2,
            p95_ms: 3.4,
            p99_ms: 5.6,
            mean_ms: 1.5,
            max_ms: 7.0,
            throughput_rps: 800.0,
            queue_depth_max: 5,
            queue_depth_mean: 1.25,
            cache_hits: 180,
            cache_misses: 4,
            cache_evictions: 0,
            cache_hit_rate: 180.0 / 184.0,
            parked_bytes_peak: 65536,
            parked_sessions_peak: 6,
            wall_ms: 115.0,
            tenancy: Some(TenancyRecord {
                tenants: 3,
                quota_max_in_flight: 2,
                quota_max_parked: 0,
                feedback_timeout_ms: Some(40.0),
                parked_bytes_budget: 32768,
                rejected_quota: 5,
                timed_out_to_abstention: 2,
                checkpoints: 4,
                restores: 4,
                checkpoint_bytes_peak: 900,
                tenant_in_flight_peak: 2,
            }),
            fault: Some(FaultRecord {
                seed: 11,
                step_panic_rate: 0.05,
                panics_recovered: 7,
                panics_to_abstention: 1,
                corrupt_checkpoints_recovered: 2,
                context_build_fallbacks: 3,
                feedback_lost: 1,
                feedback_delayed: 4,
                drained_to_abstention: 0,
            }),
        }
    }

    #[test]
    fn serving_section_roundtrips() {
        let mut p = PerfReport::new(0.03, 7, 1, 1);
        p.serving = Some(demo_serving());
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        let s = back.serving.expect("serving section survives");
        assert_eq!(s.n_requests, 92);
        assert_eq!(s.deadline_ms, None);
        assert!((s.p99_ms - 5.6).abs() < 1e-12);
        let t = s.tenancy.expect("tenancy sub-record survives");
        assert_eq!(t.tenants, 3);
        assert_eq!(t.feedback_timeout_ms, Some(40.0));
        assert_eq!(t.timed_out_to_abstention, 2);
        assert_eq!(t.checkpoints, 4);
        let f = s.fault.expect("fault sub-record survives");
        assert_eq!(f.seed, 11);
        assert_eq!(f.panics_recovered, 7);
        let text = p.render();
        assert!(text.contains("serving: 92 requests"));
        assert!(text.contains("p99 5.600"));
        assert!(text.contains("tenancy: 3 tenants"));
        assert!(text.contains("2 timed out to abstention"));
        assert!(text.contains("faults (seed 11, rate 0.05)"));
        assert!(text.contains("7 step panics recovered (1 to abstention)"));
    }

    #[test]
    fn pre_tenancy_serving_sections_still_parse() {
        // A PR 4-era serving section has no "tenancy" key at all; the
        // gate must keep loading such baselines (tenancy reads as None).
        let json = r#"{
          "workers": 1, "clients": 4, "queue_capacity": 16,
          "cache_capacity": 8, "deadline_ms": null,
          "n_requests": 92, "completed": 92, "shed": 0,
          "rejected_submits": 0, "feedback_rounds": 84,
          "p50_ms": 1.9, "p95_ms": 3.3, "p99_ms": 4.4,
          "mean_ms": 2.0, "max_ms": 4.4, "throughput_rps": 1933.0,
          "queue_depth_max": 4, "queue_depth_mean": 3.9,
          "cache_hits": 182, "cache_misses": 2, "cache_evictions": 0,
          "cache_hit_rate": 0.989, "parked_bytes_peak": 23184,
          "parked_sessions_peak": 1, "wall_ms": 47.6
        }"#;
        let s: ServingRecord = serde_json::from_str(json).expect("old section parses");
        assert!(s.tenancy.is_none());
        assert!(s.fault.is_none(), "pre-chaos sections read as fault-free");
        assert_eq!(s.n_requests, 92);
        let text = s.render();
        assert!(!text.contains("tenancy:"), "no tenancy line to render");
        assert!(!text.contains("faults ("), "no fault line to render");
    }

    #[test]
    fn records_without_serving_section_still_parse() {
        // A BENCH_rts.json predating the serve engine has no "serving"
        // key at all; the perf gate must keep loading such snapshots.
        let json = r#"{
          "scale": 0.03,
          "seed": 7,
          "threads": 1,
          "effective_parallelism": 1,
          "stages": [
            { "stage": "linking", "wall_ms": 2.0,
              "per_instance_us": 43.5, "n_instances": 46 }
          ],
          "notes": ["pre-serving snapshot"]
        }"#;
        let back: PerfReport = serde_json::from_str(json).expect("old snapshot parses");
        assert!(back.serving.is_none());
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].stage, "linking");
        // No "corpus" key either — such snapshots were all measured
        // under the original streams, so the tag reads v1.
        assert!(back.corpus.is_none());
        assert_eq!(back.corpus_tag(), "v1");
    }

    #[test]
    fn corpus_tag_roundtrips_and_renders() {
        let mut p = PerfReport::new(0.03, 7, 1, 1);
        assert_eq!(p.corpus_tag(), "v1", "unstamped record reads as v1");
        p.corpus = Some("v2".into());
        p.push_stage("linking", std::time::Duration::from_millis(2), 46);
        let json = serde_json::to_string(&p).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.corpus_tag(), "v2");
        assert!(back.render().contains("corpus v2"));
    }

    fn demo_open_loop() -> OpenLoopRecord {
        OpenLoopRecord {
            shards: 2,
            workers_per_shard: 1,
            users: 200,
            tenants: 4,
            zipf_s: 1.1,
            requests_per_point: 60,
            seed: 0xC0FFEE,
            queue_capacity: 32,
            cache_capacity: 8,
            points: vec![
                OpenLoopPoint {
                    offered_rps: 400.0,
                    achieved_rps: 398.0,
                    p50_ms: 2.0,
                    p95_ms: 4.0,
                    p99_ms: 5.0,
                    mean_ms: 2.2,
                    max_ms: 6.0,
                    completed: 60,
                    shed: 0,
                    timed_out: 0,
                    rejected_submits: 0,
                    wall_ms: 150.0,
                },
                OpenLoopPoint {
                    offered_rps: 3600.0,
                    achieved_rps: 1500.0,
                    p50_ms: 12.0,
                    p95_ms: 30.0,
                    p99_ms: 38.0,
                    mean_ms: 14.0,
                    max_ms: 41.0,
                    completed: 60,
                    shed: 0,
                    timed_out: 0,
                    rejected_submits: 7,
                    wall_ms: 40.0,
                },
            ],
            peak_throughput_rps: 1500.0,
            knee_offered_rps: 400.0,
            knee_p99_ms: 5.0,
            steals: 12,
            cache_hit_rate: 0.97,
        }
    }

    #[test]
    fn open_loop_section_roundtrips_and_renders() {
        let mut p = PerfReport::new(0.03, 7, 1, 1);
        p.open_loop = Some(demo_open_loop());
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        let o = back.open_loop.expect("open_loop section survives");
        assert_eq!(o.shards, 2);
        assert_eq!(o.points.len(), 2);
        assert!((o.points[1].offered_rps - 3600.0).abs() < 1e-12);
        assert!((o.knee_p99_ms - 5.0).abs() < 1e-12);
        assert_eq!(o.steals, 12);
        let text = p.render();
        assert!(text.contains("open loop: 2 shards x 1 workers"));
        assert!(text.contains("peak 1500 req/s; knee at 400 offered"));
    }

    #[test]
    fn pre_open_loop_records_still_parse() {
        // A PR 5-7-era BENCH_rts.json has a serving section but no
        // "open_loop" key; the perf gate must keep loading such
        // baselines (open_loop reads as None) — same pattern as the
        // tenancy/fault sub-records.
        let json = r#"{
          "scale": 0.03,
          "seed": 7,
          "threads": 1,
          "effective_parallelism": 1,
          "stages": [
            { "stage": "linking", "wall_ms": 2.0,
              "per_instance_us": 43.5, "n_instances": 46 }
          ],
          "notes": [],
          "serving": {
            "workers": 1, "clients": 4, "queue_capacity": 16,
            "cache_capacity": 8, "deadline_ms": null,
            "n_requests": 92, "completed": 92, "shed": 0,
            "rejected_submits": 0, "feedback_rounds": 84,
            "p50_ms": 1.9, "p95_ms": 3.3, "p99_ms": 4.4,
            "mean_ms": 2.0, "max_ms": 4.4, "throughput_rps": 1933.0,
            "queue_depth_max": 4, "queue_depth_mean": 3.9,
            "cache_hits": 182, "cache_misses": 2, "cache_evictions": 0,
            "cache_hit_rate": 0.989, "parked_bytes_peak": 23184,
            "parked_sessions_peak": 1, "wall_ms": 47.6
          }
        }"#;
        let back: PerfReport = serde_json::from_str(json).expect("old snapshot parses");
        assert!(back.open_loop.is_none());
        assert!(back.serving.is_some(), "serving section untouched");
        let text = back.render();
        assert!(!text.contains("open loop:"), "no open-loop block to render");
    }

    #[test]
    fn perf_report_roundtrips_and_renders() {
        let mut p = PerfReport::new(0.05, 7, 4, 1);
        p.push_stage("trace_gen", std::time::Duration::from_millis(120), 60);
        p.push_stage("monitoring", std::time::Duration::from_micros(900), 60);
        p.note("smoke");
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stages.len(), 2);
        assert_eq!(back.stages[0].stage, "trace_gen");
        assert!((back.stages[0].wall_ms - 120.0).abs() < 1e-9);
        assert_eq!(back.stage_ms("monitoring"), Some(p.stages[1].wall_ms));
        assert!((back.stages[0].per_instance_us - 2000.0).abs() < 1e-6);
        assert_eq!(back.effective_parallelism, 1);
        let text = p.render();
        assert!(text.contains("trace_gen"));
        assert!(text.contains("4 threads configured, 1 effective"));
        assert!(text.contains("BENCH_rts"));
    }
}

//! What every workload needs before it is timed: the trained artefacts
//! (timed as `setup_s`), the batch reference outcomes, the host datum,
//! and resident memory.

use benchgen::{Benchmark, Instance};
use rts_core::abstention::{LinkScratch, MitigationPolicy, RtsConfig, RtsOutcome};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::pipeline::{run_joint_linking_in, JointOutcome};
use simlm::{LinkTarget, SchemaLinker};
use std::time::Instant;

/// The corpus seed is fixed: the workload seed shapes traffic only, so
/// every seed serves the same corpus through the same trained monitor.
pub const CORPUS_SEED: u64 = 0xC0FFEE;
/// Full BIRD-like profile: dev and test hold 1534 instances on 14
/// databases each.
pub const SCALE: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Trained artefacts plus the precompiled batch contexts.
pub struct Artefacts {
    pub bench: Benchmark,
    pub linker: SchemaLinker,
    pub mbpp_tables: Mbpp,
    pub mbpp_columns: Mbpp,
    pub contexts: LinkContexts,
}

impl Artefacts {
    /// Corpus generation, mBPP training and context build — the same
    /// recipe `rts-served` runs at start-up.
    pub fn build() -> Self {
        let bench = benchgen::BenchmarkProfile::bird_like()
            .scaled(SCALE)
            .generate(CORPUS_SEED);
        let linker = SchemaLinker::new("bird", CORPUS_SEED ^ 0x11CC);
        let probe = MbppConfig {
            probe: ProbeConfig {
                epochs: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let ds_t = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 400);
        let ds_c = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, 400);
        let mbpp_tables = Mbpp::train(&ds_t, &probe);
        let mbpp_columns = Mbpp::train(&ds_c, &probe);
        let contexts = LinkContexts::build(&bench);
        Artefacts {
            bench,
            linker,
            mbpp_tables,
            mbpp_columns,
            contexts,
        }
    }

    pub fn mbpp(&self, target: LinkTarget) -> &Mbpp {
        match target {
            LinkTarget::Tables => &self.mbpp_tables,
            LinkTarget::Columns => &self.mbpp_columns,
        }
    }

    /// The runtime knobs every engine session and the batch reference
    /// share.
    pub fn rts_config(&self) -> RtsConfig {
        RtsConfig {
            seed: CORPUS_SEED,
            ..RtsConfig::default()
        }
    }

    /// The expert every client answers feedback with.
    pub fn oracle() -> HumanOracle {
        HumanOracle::new(Expertise::Expert, CORPUS_SEED ^ 0x0DDE)
    }

    /// Batch-runtime outcome of every instance in `population`: what
    /// each served outcome must equal.
    pub fn reference(&self, population: &[Instance]) -> Vec<JointOutcome> {
        let oracle = Self::oracle();
        let policy = MitigationPolicy::Human(&oracle);
        let rts = self.rts_config();
        rts_core::par::par_map_with(population, LinkScratch::default, |scratch, inst| {
            run_joint_linking_in(
                &self.linker,
                &self.mbpp_tables,
                &self.mbpp_columns,
                inst,
                &self.bench,
                &self.contexts,
                &policy,
                &rts,
                scratch,
            )
        })
    }
}

/// Field-by-field equality of two joint outcomes. The destructuring
/// stops compiling when an outcome type gains a field, so the check
/// can never silently skip one.
pub fn same_outcome(a: &JointOutcome, b: &JointOutcome) -> bool {
    let JointOutcome { tables, columns } = a;
    same_stage(tables, &b.tables) && same_stage(columns, &b.columns)
}

fn same_stage(a: &RtsOutcome, b: &RtsOutcome) -> bool {
    let RtsOutcome {
        abstained,
        predicted,
        correct,
        would_be_correct,
        n_interventions,
        n_flags,
    } = a;
    *abstained == b.abstained
        && *predicted == b.predicted
        && *correct == b.correct
        && *would_be_correct == b.would_be_correct
        && *n_interventions == b.n_interventions
        && *n_flags == b.n_flags
}

/// Build the artefacts [`SETUP_REPEATS`] times; return the last build
/// and the median build time in seconds.
pub fn timed_setup() -> (Artefacts, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(Artefacts::build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// Host datum: the median time, in microseconds, of a pinned kernel —
/// `fill_gaussian` over 64 Ki values feeding a 128×128 by 128×128
/// `matmul_into`. Reported next to every figure, never gated on.
pub fn calibrate() -> f64 {
    const N: usize = 128;
    let mut rng = tinynn::rng::SplitMix64::new(0xCA11_B8A7E);
    let mut buf = vec![0.0_f64; 1 << 16];
    let mut out = tinynn::matrix::Matrix::zeros(N, N);
    let mut times = Vec::with_capacity(15);
    for _ in 0..15 {
        let t0 = Instant::now();
        rng.fill_gaussian(&mut buf);
        let a = tinynn::matrix::Matrix::from_vec(
            N,
            N,
            buf[..N * N].iter().map(|&x| x as f32).collect(),
        );
        let b = tinynn::matrix::Matrix::from_vec(
            N,
            N,
            buf[N * N..2 * N * N].iter().map(|&x| x as f32).collect(),
        );
        a.matmul_into(&b, &mut out);
        std::hint::black_box(&out);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&times)
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The host's cumulative CPU time counters (the `cpu` line of
/// `/proc/stat`); empty where the file does not exist.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings — host noise, reported next to the figures it disturbs.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Resident set size in MiB, from `/proc/self/status` (0 where the
/// file does not exist).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Hand the heap that set-up freed back to the system, so `rss_mb`
/// measures what serving holds rather than what the allocator kept
/// from earlier set-ups and the batch reference.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap pages; it
    // takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps what it keeps.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

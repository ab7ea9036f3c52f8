//! Seeded mutation fuzzing of parked-session checkpoints. Genuine
//! checkpoints, captured at every suspension of real linking runs, are
//! truncated, bit-flipped, digit-rewritten and spliced with one
//! another. Every mutated buffer must decode to a checkpoint or a typed
//! `DecodeError` — never a panic. A mutated checkpoint that still
//! decodes and `matches` its ticket goes down the engine's restore path
//! (`checkpoint::restore`, re-applying the resolution the client sent)
//! and must then run to an outcome: restoring re-synthesizes the round
//! and rebuilds its prediction sets from whatever the bytes now say,
//! and none of that may panic a worker.

use benchgen::{Benchmark, BenchmarkProfile, Instance};
use proptest::prelude::TestRng;
use rts_core::abstention::{LinkScratch, MitigationPolicy, RtsConfig};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::session::{
    resolve_flag, CtxHandle, FlagResolution, Handle, LinkSession, SessionState,
};
use rts_serve::checkpoint::{encode, restore, try_decode};
use simlm::{LinkTarget, SchemaLinker};

/// Mutated cases per run.
const CASES: usize = 1024;

struct Fx {
    bench: Benchmark,
    model: SchemaLinker,
    mbpp_t: Mbpp,
    mbpp_c: Mbpp,
    contexts: LinkContexts,
}

impl Fx {
    fn new() -> Self {
        let bench = BenchmarkProfile::bird_like().scaled(0.04).generate(77);
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
        let contexts = LinkContexts::build(&bench);
        Self {
            bench,
            model,
            mbpp_t,
            mbpp_c,
            contexts,
        }
    }

    fn mbpp(&self, target: LinkTarget) -> &Mbpp {
        match target {
            LinkTarget::Tables => &self.mbpp_t,
            LinkTarget::Columns => &self.mbpp_c,
        }
    }
}

/// One genuine suspension: its ticket, encoded checkpoint and the
/// client's answer to it.
struct Parked<'a> {
    inst: &'a Instance,
    target: LinkTarget,
    bytes: Vec<u8>,
    resolution: FlagResolution,
}

/// Drive every (instance, target) session with the expert and record
/// each suspension.
fn collect<'a>(
    fx: &'a Fx,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
    scratch: &mut LinkScratch,
) -> Vec<Parked<'a>> {
    let mut out = Vec::new();
    for inst in fx.bench.split.dev.iter().take(40) {
        let meta = fx
            .bench
            .meta(&inst.db_name)
            .expect("instance database exists");
        for target in [LinkTarget::Tables, LinkTarget::Columns] {
            let ctx = fx.contexts.get(&inst.db_name, target);
            let mut session = LinkSession::new(
                &fx.model,
                fx.mbpp(target),
                inst,
                meta,
                target,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                config,
            );
            while let SessionState::NeedsFeedback(query) = session.step(scratch) {
                let resolution = resolve_flag(policy, inst, &query);
                out.push(Parked {
                    inst,
                    target,
                    bytes: encode(&session.checkpoint()),
                    resolution: resolution.clone(),
                });
                session.resolve(resolution);
            }
        }
    }
    out
}

/// Replace one ASCII digit with another: the JSON stays well-formed,
/// so the number it belongs to (a counter, an index, the RNG state)
/// changes while the buffer still decodes.
fn rewrite_digit(bytes: &mut [u8], rng: &mut TestRng) {
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    if let Some(&at) = digits.get(rng.below(digits.len().max(1))) {
        bytes[at] = b'0' + rng.below(10) as u8;
    }
}

/// The offset of each top-level field key of a checkpoint's JSON.
fn key_offset(bytes: &[u8], key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    bytes
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())
}

/// Splice `donor` into `base`: either at random byte offsets, or
/// aligned on a field key so the result is the base's fields up to the
/// key and the donor's from it on — well-formed JSON mixing two
/// suspensions.
fn splice(base: &[u8], donor: &[u8], rng: &mut TestRng) -> Vec<u8> {
    const KEYS: [&str; 9] = [
        "rng_state",
        "would_be_correct",
        "overrides",
        "handled",
        "n_interventions",
        "n_flags",
        "rounds_done",
        "has_round",
        "pending",
    ];
    let key = KEYS[rng.below(KEYS.len())];
    if rng.next_bool() {
        if let (Some(a), Some(b)) = (key_offset(base, key), key_offset(donor, key)) {
            return [&base[..a], &donor[b..]].concat();
        }
    }
    let a = rng.below(base.len());
    let b = a + rng.below(base.len() - a + 1);
    let c = rng.below(donor.len());
    let d = c + rng.below(donor.len() - c + 1);
    [&base[..a], &donor[c..d], &base[b..]].concat()
}

#[test]
fn mutated_checkpoints_decode_typed_and_restore_to_an_outcome() {
    let fx = Fx::new();
    let oracle = HumanOracle::new(Expertise::Expert, 5);
    let policy = MitigationPolicy::Human(&oracle);
    let config = RtsConfig::default();
    let mut scratch = LinkScratch::default();
    let parked = collect(&fx, &policy, &config, &mut scratch);
    assert!(parked.len() >= 8, "too few suspensions to fuzz");

    let mut rng = TestRng::for_test("mutated_checkpoints_decode_typed_and_restore_to_an_outcome");
    let (mut rejected, mut mismatched, mut restored) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let base = &parked[rng.below(parked.len())];
        let mut bytes = base.bytes.clone();
        match case % 4 {
            0 => {
                // A cut JSON object never parses.
                bytes.truncate(rng.below(bytes.len()));
                assert!(
                    try_decode(&bytes).is_err(),
                    "case {case}: truncation decoded"
                );
            }
            1 => {
                for _ in 0..1 + rng.below(8) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            2 => {
                for _ in 0..1 + rng.below(3) {
                    rewrite_digit(&mut bytes, &mut rng);
                }
            }
            _ => {
                let donor = &parked[rng.below(parked.len())];
                bytes = splice(&bytes, &donor.bytes, &mut rng);
            }
        }
        let cp = match try_decode(&bytes) {
            Ok(cp) => cp,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        if !cp.matches(base.inst, base.target) {
            // The engine falls back to its salvage copy or degrades the
            // ticket to abstention.
            mismatched += 1;
            continue;
        }
        let meta = fx
            .bench
            .meta(&base.inst.db_name)
            .expect("instance database exists");
        let ctx = fx.contexts.get(&base.inst.db_name, base.target);
        let mut session = restore(
            Handle::Borrowed(&fx.model),
            Handle::Borrowed(fx.mbpp(base.target)),
            Handle::Borrowed(base.inst),
            Handle::Borrowed(meta),
            base.target,
            Some(CtxHandle::Borrowed(ctx)),
            &config,
            &cp,
            Some(&base.resolution),
            &mut scratch.synth,
        );
        // The round cap bounds a run; a restored session that outlives
        // it by this much is stuck.
        let mut steps = 0usize;
        loop {
            steps += 1;
            assert!(steps < 64, "case {case}: restored session never finished");
            match session.step(&mut scratch) {
                SessionState::Done(_) => break,
                SessionState::NeedsFeedback(query) => {
                    session.resolve(resolve_flag(&policy, base.inst, &query));
                }
            }
        }
        restored += 1;
    }
    // Every branch of the property ran.
    assert!(rejected > 0, "no mutation was rejected");
    assert!(mismatched > 0, "no decoded mutation failed `matches`");
    assert!(restored > 0, "no mutation reached the restore path");
    println!("{CASES} cases: {rejected} rejected, {mismatched} mismatched, {restored} restored");
}

//! The RTS runtime: monitored generation with adaptive abstention
//! (§2.3, §3.3).
//!
//! The schema linker free-runs token by token; every token's hidden
//! stack goes through the mBPP. When a branching point fires, the
//! configured policy reacts:
//!
//! * [`MitigationPolicy::AbstainOnly`] — stop; the instance is handed
//!   off (Table 5 row "mBPP-Abstention").
//! * [`MitigationPolicy::Surrogate`] — trace the flag back to the
//!   implicated elements (Algorithm 2) and ask the surrogate filter; it
//!   halts generation only on an explicit "irrelevant", otherwise
//!   generation continues unchanged (Table 5 row "Surrogate filter").
//! * [`MitigationPolicy::Human`] — trace back, then interact: confirm
//!   candidates one by one; on a confirmation the generation continues
//!   with that element pinned; if every candidate is rejected the user
//!   supplies the correct element, which is pinned instead (Table 6).
//!
//! Teacher-forcing-style continuation is realised by *regenerating* the
//! stream with the resolved element's decision overridden — equivalent
//! to forcing the token and letting the model continue, because
//! decisions are drawn independently per element. The
//! [`LinkSession`] regenerates incrementally: only the positions whose
//! synthesis inputs the pin changed are synthesized and probed again
//! (see the session module docs).

use crate::bpp::Mbpp;
use crate::context::LinkContext;
use crate::human::HumanOracle;
use crate::session::{drive_session, CtxHandle, LinkSession};
use crate::surrogate::SurrogateModel;
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use simlm::{GenerationTrace, LinkTarget, SchemaLinker, Vocab};

/// What to do when a branching point is detected.
pub enum MitigationPolicy<'a> {
    AbstainOnly,
    Surrogate(&'a SurrogateModel),
    Human(&'a HumanOracle),
}

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct RtsConfig {
    /// Safety cap on correction rounds (defaults to #elements + 2).
    pub max_rounds: usize,
    /// Seed for the permutation-merge randomness.
    pub seed: u64,
}

impl Default for RtsConfig {
    fn default() -> Self {
        Self {
            max_rounds: 0,
            seed: 0xC0FFEE,
        }
    }
}

/// Reusable buffers for the monitored-linking runtime: hidden-state
/// synthesis scratch plus the mBPP's batched-scoring scratch. One per
/// worker thread (threaded through [`crate::par::par_map_with`]) keeps
/// the per-instance fan-out allocation-light; one per call is what the
/// plain [`run_rts_linking`] entry point falls back to.
#[derive(Debug, Default)]
pub struct LinkScratch {
    pub synth: simlm::SynthScratch,
    pub bpp: crate::bpp::BppScratch,
}

/// Outcome of one monitored linking run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RtsOutcome {
    /// The run ended in abstention (never true under the Human policy).
    pub abstained: bool,
    /// Final predicted element set (empty when abstained).
    pub predicted: Vec<String>,
    /// Exactly matches gold? (false when abstained)
    pub correct: bool,
    /// Would the *unmonitored* free run have been exactly right?
    pub would_be_correct: bool,
    /// Number of human/surrogate consultations.
    pub n_interventions: usize,
    /// Total branching flags raised across rounds.
    pub n_flags: usize,
}

/// A pre-generated round-0 monitored trace, handed to
/// [`run_rts_linking_from`] by callers that already produced the free
/// generation (the production dataflow: the stream is generated once
/// and consumed by both the monitor and the mitigation loop).
///
/// Contract: `trace` must be exactly what
/// `model.generate_with_layers(inst, &mut Vocab::new(), target,
/// GenMode::Free, &mbpp.layer_set(), …)` returns for this instance —
/// i.e. a free run with *no* overrides, carrying (at least) the
/// monitor's selected layers — and `vocab` the vocabulary that
/// generation filled. Generation is deterministic, so reusing such a
/// trace is bit-identical to regenerating it (pinned by the
/// `from_trace_linking_matches_regenerating` parity proptest).
///
/// The session only reads the borrowed round. When a pin supersedes
/// it, it is still the next round's reuse source: generation copies
/// the hidden stacks of the positions whose synthesis key did not
/// change ([`simlm::ReuseSource::Borrowed`]) and takes the check of
/// instance, target and layer set from the trace itself, so a trace
/// generated under a different layer set is not wrong, only not
/// reused.
#[derive(Debug, Clone, Copy)]
pub struct Round0<'a> {
    pub trace: &'a GenerationTrace,
    pub vocab: &'a Vocab,
}

/// Run RTS schema linking for one instance.
///
/// Convenience entry point: precompiles the instance's [`LinkContext`]
/// on the fly and uses per-call scratch. Hot loops over many instances
/// of the same database should build the context once (or a
/// [`crate::context::LinkContexts`] registry per benchmark) and call
/// [`run_rts_linking_in`] instead.
///
/// Every blocking entry point here is a thin driver: it opens a
/// [`LinkSession`] and loops [`LinkSession::step`] /
/// [`crate::session::resolve_flag`] until the run completes —
/// bit-identical to the pre-session monolithic loop (kept in
/// `rts_bench::oracle` and pinned by the session ≡ monolith parity
/// proptest).
pub fn run_rts_linking(
    model: &SchemaLinker,
    mbpp: &Mbpp,
    inst: &Instance,
    meta: &DbMeta,
    target: LinkTarget,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
) -> RtsOutcome {
    let mut scratch = LinkScratch::default();
    // No context handed in: the session builds its own.
    let mut session = LinkSession::new(model, mbpp, inst, meta, target, None, None, config);
    drive_session(&mut session, policy, &mut scratch)
}

/// [`run_rts_linking`] against a shared precompiled [`LinkContext`]
/// (and caller-owned scratch): the per-flag vocabulary clone + trie
/// rebuild disappears, the unmonitored counterfactual is derived from
/// round 0's stream instead of generated, and clean correction rounds
/// reuse the previous round's trace. Outcomes are bit-identical to
/// [`run_rts_linking`].
#[allow(clippy::too_many_arguments)] // mirrors run_rts_linking + context
pub fn run_rts_linking_in(
    model: &SchemaLinker,
    mbpp: &Mbpp,
    inst: &Instance,
    meta: &DbMeta,
    ctx: &LinkContext,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
    scratch: &mut LinkScratch,
) -> RtsOutcome {
    let mut session = LinkSession::new(
        model,
        mbpp,
        inst,
        meta,
        ctx.target(),
        Some(CtxHandle::Borrowed(ctx)),
        None,
        config,
    );
    drive_session(&mut session, policy, scratch)
}

/// [`run_rts_linking_in`] consuming a pre-generated round-0 trace (see
/// [`Round0`] for the contract): the mitigation loop starts by
/// monitoring the supplied stream and only generates when a correction
/// round actually changes it.
#[allow(clippy::too_many_arguments)] // mirrors run_rts_linking + context
pub fn run_rts_linking_from(
    model: &SchemaLinker,
    mbpp: &Mbpp,
    inst: &Instance,
    meta: &DbMeta,
    ctx: &LinkContext,
    round0: Round0<'_>,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
    scratch: &mut LinkScratch,
) -> RtsOutcome {
    let mut session = LinkSession::new(
        model,
        mbpp,
        inst,
        meta,
        ctx.target(),
        Some(CtxHandle::Borrowed(ctx)),
        Some(round0),
        config,
    );
    drive_session(&mut session, policy, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpp::{Mbpp, MbppConfig, ProbeConfig};
    use crate::branching::BranchDataset;
    use crate::human::Expertise;
    use crate::metrics::{abstention_metrics, AbstentionOutcome};
    use benchgen::{Benchmark, BenchmarkProfile};
    use simlm::GenMode;

    struct Fixture {
        bench: Benchmark,
        model: SchemaLinker,
        mbpp: Mbpp,
    }

    fn fixture() -> Fixture {
        let bench = BenchmarkProfile::bird_like().scaled(0.06).generate(64);
        let model = SchemaLinker::new("bird", 13);
        let ds = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 450);
        let mbpp = Mbpp::train(
            &ds,
            &MbppConfig {
                probe: ProbeConfig {
                    epochs: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        Fixture { bench, model, mbpp }
    }

    fn outcomes(fx: &Fixture, policy: &MitigationPolicy<'_>, n: usize) -> Vec<RtsOutcome> {
        let config = RtsConfig::default();
        fx.bench
            .split
            .dev
            .iter()
            .take(n)
            .map(|inst| {
                let meta = fx.bench.meta(&inst.db_name).unwrap();
                run_rts_linking(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    policy,
                    &config,
                )
            })
            .collect()
    }

    #[test]
    fn abstain_only_catches_most_errors() {
        let fx = fixture();
        let outs = outcomes(&fx, &MitigationPolicy::AbstainOnly, 120);
        let m = abstention_metrics(
            &outs
                .iter()
                .map(|o| AbstentionOutcome {
                    abstained: o.abstained,
                    correct: o.correct,
                    would_be_correct: o.would_be_correct,
                })
                .collect::<Vec<_>>(),
        );
        // Table 5 regime: high EM among answered, TAR > FAR ≈ modest.
        assert!(m.exact_match > 0.9, "EM {}", m.exact_match);
        assert!(m.tar > 0.0, "no true abstentions at all");
        let wrong_rate =
            outs.iter().filter(|o| !o.would_be_correct).count() as f64 / outs.len() as f64;
        assert!(
            m.tar >= wrong_rate * 0.6,
            "abstention catches too few errors: TAR {} vs wrong {}",
            m.tar,
            wrong_rate
        );
    }

    #[test]
    fn human_feedback_never_abstains_and_lifts_em() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let outs = outcomes(&fx, &MitigationPolicy::Human(&oracle), 120);
        assert!(outs.iter().all(|o| !o.abstained));
        let em = outs.iter().filter(|o| o.correct).count() as f64 / outs.len() as f64;
        let em_baseline =
            outs.iter().filter(|o| o.would_be_correct).count() as f64 / outs.len() as f64;
        assert!(
            em > em_baseline,
            "human feedback must improve EM: {em} vs {em_baseline}"
        );
        assert!(em > 0.82, "EM with expert feedback {em}");
        // Interventions happen.
        assert!(outs.iter().any(|o| o.n_interventions > 0));
    }

    #[test]
    fn surrogate_reduces_abstentions_vs_abstain_only() {
        let fx = fixture();
        let surrogate = SurrogateModel::train(&fx.bench, 3);
        let plain = outcomes(&fx, &MitigationPolicy::AbstainOnly, 400);
        let filtered = outcomes(&fx, &MitigationPolicy::Surrogate(&surrogate), 400);
        let abst = |outs: &[RtsOutcome]| outs.iter().filter(|o| o.abstained).count();
        assert!(
            abst(&filtered) <= abst(&plain),
            "surrogate increased abstentions: {} vs {}",
            abst(&filtered),
            abst(&plain)
        );
        // The reduction must specifically shrink *false* abstentions.
        let far = |outs: &[RtsOutcome]| {
            outs.iter()
                .filter(|o| o.abstained && o.would_be_correct)
                .count()
        };
        assert!(
            far(&filtered) <= far(&plain),
            "surrogate did not cut false abstentions: {} vs {}",
            far(&filtered),
            far(&plain)
        );
    }

    #[test]
    fn outcomes_are_deterministic() {
        let fx = fixture();
        let a = outcomes(&fx, &MitigationPolicy::AbstainOnly, 30);
        let b = outcomes(&fx, &MitigationPolicy::AbstainOnly, 30);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.abstained, y.abstained);
            assert_eq!(x.predicted, y.predicted);
        }
    }

    #[test]
    fn from_trace_entry_matches_regenerating() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let contexts = crate::context::LinkContexts::build(&fx.bench);
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        for policy in [
            MitigationPolicy::AbstainOnly,
            MitigationPolicy::Human(&oracle),
        ] {
            for inst in fx.bench.split.dev.iter().take(60) {
                let meta = fx.bench.meta(&inst.db_name).unwrap();
                let ctx = contexts.get(&inst.db_name, LinkTarget::Tables);
                let mut vocab = Vocab::new();
                let trace = fx.model.generate_with_layers(
                    inst,
                    &mut vocab,
                    LinkTarget::Tables,
                    GenMode::Free,
                    &fx.mbpp.layer_set(),
                    &mut scratch.synth,
                );
                let from = run_rts_linking_from(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    ctx,
                    Round0 {
                        trace: &trace,
                        vocab: &vocab,
                    },
                    &policy,
                    &config,
                    &mut scratch,
                );
                let regen = run_rts_linking_in(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    ctx,
                    &policy,
                    &config,
                    &mut scratch,
                );
                assert_eq!(
                    format!("{from:?}"),
                    format!("{regen:?}"),
                    "inst {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn beginner_humans_fix_less_than_experts() {
        let fx = fixture();
        let beginner = HumanOracle::new(Expertise::Beginner, 5);
        let expert = HumanOracle::new(Expertise::Expert, 5);
        let em = |oracle: &HumanOracle| {
            let outs = outcomes(&fx, &MitigationPolicy::Human(oracle), 150);
            outs.iter().filter(|o| o.correct).count() as f64 / outs.len() as f64
        };
        let em_b = em(&beginner);
        let em_e = em(&expert);
        // Single-oracle samples are noisy at fixture scale; the ordering
        // must hold up to small-sample tolerance (Table 8 averages 10
        // participants at benchmark scale for the clean comparison).
        assert!(em_e >= em_b - 0.03, "expert {em_e} vs beginner {em_b}");
    }
}
